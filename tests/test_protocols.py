import numpy as np
import pytest

from qauthlab.adversary import AttackDescriptor, purified_input, standard_suite
from qauthlab.hybrid import FinalState, record_get
from qauthlab.pauli import PauliString, enumerate_paulis, pauli_matrix
from qauthlab.protocols import (
    ACC,
    ERR,
    ebit_ptc,
    ebit_ptp,
    key_pads,
    run_qa_kg,
    run_tqa_kg,
)
from qauthlab.qmath import (
    DensityMatrix,
    StateVector,
    haar_state,
    max_entangled_vector,
    tensor,
    trace_norm,
)

from oracles import per_slice_run, qa_branch, syndrome, teleport
from test_ebit_ptp_bits import per_branch_ebit_ptp


def is_acc(rec):
    return record_get(rec, "verdict") == ACC


# ---------------------------------------------------------------------------
# encryption
# ---------------------------------------------------------------------------


def test_key_pads_are_built_once_per_m():
    for m in (1, 2):
        keys, pads = key_pads(m)
        assert key_pads(m) is key_pads(m)
        assert keys == tuple((p.x, p.z) for p in enumerate_paulis(m))
        assert not pads.flags.writeable
        with pytest.raises(ValueError):
            pads[0, 0, 0] = 0.0
        for (x, z), pad in zip(keys, pads):
            np.testing.assert_array_equal(pad, pauli_matrix(PauliString(m, x, z)))


def test_qenc_uniform_key_average_flattens(rng):
    # brute-force twirl over all 4^m keys sends every state to I/2^m
    for m in (1, 2):
        d = 1 << m
        for _ in range(10 if m == 1 else 5):
            vec = haar_state(d, rng)
            rho = np.outer(vec, vec.conj())
            avg = sum(
                pauli_matrix(PauliString(m, x, z)) @ rho @ pauli_matrix(PauliString(m, x, z)).conj().T
                for x in range(d)
                for z in range(d)
            ) / (d * d)
            assert np.abs(avg - np.eye(d) / d).max() < 1e-10


# ---------------------------------------------------------------------------
# teleportation
# ---------------------------------------------------------------------------


def resource(m=1):
    return StateVector(max_entangled_vector(1 << m), (("A", 2 << (m - 1)), ("B", 2 << (m - 1))))


def test_teleport_basis_state():
    psi = StateVector(np.array([1, 0], dtype=complex), (("M", 2),))
    outcomes = teleport(psi, resource())
    assert len(outcomes) == 4
    for prob, (x, z), post in outcomes:
        assert prob == pytest.approx(0.25)
        assert abs(abs(post.amplitudes[0]) - 1.0) < 1e-12  # |0> delivered


def test_teleport_preserves_entanglement():
    # teleport half of an entangled pair: entanglement swaps onto (R, B)
    ent = purified_input("entangled", 1)
    for prob, _, post in teleport(ent, resource()):
        assert prob == pytest.approx(0.25)
        rho = DensityMatrix(np.outer(post.amplitudes, post.amplitudes.conj()), post.registers)
        from qauthlab.qmath import partial_trace

        joint = partial_trace(rho, {"R", "B"})
        phi = max_entangled_vector(2)
        fid = np.real(phi.conj() @ joint.matrix @ phi)
        assert fid == pytest.approx(1.0, abs=1e-12)


def test_teleport_arbitrary_pure_fidelity_one(rng):
    vec = haar_state(2, rng)
    psi = StateVector(vec, (("M", 2),))
    for prob, _, post in teleport(psi, resource()):
        assert abs(abs(np.vdot(post.amplitudes, vec)) - 1.0) < 1e-12


def test_teleport_without_correction_applies_key():
    vec = np.array([0.8, 0.6], dtype=complex)
    psi = StateVector(vec, (("M", 2),))
    for prob, (x, z), post in teleport(psi, resource(), correct=False):
        expect = pauli_matrix(PauliString(1, x, z)) @ vec
        assert abs(abs(np.vdot(post.amplitudes, expect)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# authentication with key recycling
# ---------------------------------------------------------------------------


def test_qa_completeness_identity_attack(family_s1):
    psi = purified_input("entangled", 1)
    final = run_qa_kg(psi, family_s1, AttackDescriptor("identity"))
    assert final.weight_where(is_acc) == pytest.approx(1.0)
    # message delivered exactly: conditional state is psi (x) a trivial E
    target = np.outer(psi.amplitudes, psi.amplitudes.conj())
    for rec, blk in final.blocks.items():
        assert is_acc(rec)
        names = [n for n, _ in blk.registers]
        assert names == ["E", "M", "R"]
        cond = blk.matrix / blk.weight
        # E is one-dimensional here; compare on (M, R) directly
        em = cond.reshape(2, 2, 2, 2)
        got = em.transpose(1, 0, 3, 2).reshape(4, 4)  # reorder (M,R) -> (R,M)
        np.testing.assert_allclose(got, target, atol=1e-12)


def test_qa_key_recycling_uniform_product(family_s1):
    psi = purified_input("entangled", 1)
    final = run_qa_kg(psi, family_s1, AttackDescriptor("identity"))
    blocks = list(final.blocks.items())
    assert len(blocks) == 4
    weights = [blk.weight for _, blk in blocks]
    assert all(w == pytest.approx(0.25, abs=1e-12) for w in weights)
    mats = [blk.matrix / blk.weight for _, blk in blocks]
    for m in mats[1:]:
        assert trace_norm(m - mats[0]) < 1e-12


def test_qa_pauli_attack_accept_probability_matches_syndromes(family_s1):
    # oracle: a keyed Pauli error is accepted iff its syndrome vanishes for
    # the drawn code, so p_acc = (fraction of codes with zero syndrome); note
    # this can exceed the family's detection-failure rate when the error sits
    # inside some stabilizers (those acceptances are harmless)
    psi = purified_input("entangled", 1)
    for e in list(enumerate_paulis(2))[1:]:
        desc = AttackDescriptor("fixed_pauli", x=e.x, z=e.z, label="e")
        final = run_qa_kg(psi, family_s1, desc)
        expected = sum(
            1 for code in family_s1.codes if syndrome(code, e) == 0
        ) / len(family_s1.codes)
        assert final.weight_where(is_acc) == pytest.approx(expected, abs=1e-10)


def test_qa_soundness_functional_bounded_by_epsilon(family_s1):
    # Tr[(I - psi)_RM (x) acc * rho_out] <= family epsilon for every keyed
    # Pauli attack; harmless in-stabilizer acceptances do not corrupt
    psi = purified_input("entangled", 1)
    target = np.outer(psi.amplitudes, psi.amplitudes.conj())
    for e in list(enumerate_paulis(2))[1:]:
        desc = AttackDescriptor("fixed_pauli", x=e.x, z=e.z, label="e")
        final = run_qa_kg(psi, family_s1, desc)
        acc_blocks = [b for rec, b in final.blocks.items() if is_acc(rec)]
        if not acc_blocks:
            continue
        value = 0.0
        for blk in acc_blocks:
            mat = blk.matrix.reshape(2, 2, 2, 2)  # (E=1 squeezed implicitly)
            got = mat.transpose(1, 0, 3, 2).reshape(4, 4)
            value += float(np.real(np.trace(got))) - float(
                np.real(psi.amplitudes.conj() @ got @ psi.amplitudes)
            )
        assert value <= family_s1.epsilon_verified + 1e-9


def _twin_branch_differences(family, desc, psi, tamper=False) -> list:
    """The records on which QA and TQA differ, one record per branch (code,
    syndrome, received syndrome, key), both through the per-slice oracle;
    with ``tamper``, TQA's Bell correction for key value 1 is the identity."""
    qa = per_slice_run(lambda: run_qa_kg(psi, family, desc), family, desc, qa_branch)
    tqa = per_slice_run(lambda: run_tqa_kg(psi, family, desc), family, desc, qa_branch, tamper)
    if set(qa.blocks) != set(tqa.blocks):
        return ["record sets differ"]
    return [rec for rec, blk in qa.blocks.items() if not trace_norm(blk.matrix - tqa.blocks[rec].matrix) < 1e-12]


@pytest.mark.parametrize("attack_label", ["identity", "X0", "depol-0.5", "swap-held", "random-101", "cnot-R-T0"])
def test_teleported_twin_identity_per_branch(family_s1, attack_label):
    desc = next(a for a in standard_suite(1, 1) if a.name() == attack_label)
    psi = purified_input("entangled", 1)
    assert _twin_branch_differences(family_s1, desc, psi) == []
    # the engine's records, one per verdict and key
    qa, tqa = run_qa_kg(psi, family_s1, desc), run_tqa_kg(psi, family_s1, desc)
    assert set(qa.blocks) == set(tqa.blocks)
    assert qa.distance(tqa) < 1e-12


def test_twin_identity_per_branch_fails_with_a_wrong_bell_correction(family_s1):
    # negative control: TQA undoes Bell outcome 1 with the identity
    desc = AttackDescriptor("identity")
    psi = purified_input("entangled", 1)
    assert _twin_branch_differences(family_s1, desc, psi, tamper=True) != []


def test_teleported_twin_identity_without_back_communication(family_s1):
    desc = AttackDescriptor("random_dilation", seed=103, env_dim=2, label="r103")
    psi = purified_input("random-11", 1)
    qa = run_qa_kg(psi, family_s1, desc, back_communication=False)
    tqa = run_tqa_kg(psi, family_s1, desc, back_communication=False)
    assert qa.distance(tqa) < 1e-9
    # rejected branches keep the sender's key value in her output slot
    rej = [rec for rec in qa.blocks if not is_acc(rec)]
    assert any(record_get(rec, "key_alice") != ERR for rec in rej)
    assert all(record_get(rec, "key_bob") == ERR for rec in rej)


def test_qa_requires_message_register(family_s1):
    bad = StateVector(np.array([1, 0, 0, 0], dtype=complex), (("R", 2), ("Q", 2)))
    with pytest.raises(ValueError):
        run_qa_kg(bad, family_s1, AttackDescriptor("identity"))


# ---------------------------------------------------------------------------
# entanglement generation
# ---------------------------------------------------------------------------


def test_ebit_completeness(family_s2):
    phi = max_entangled_vector(2)
    target = np.outer(phi, phi.conj())
    for run in (ebit_ptc, ebit_ptp):
        final = run(family_s2, AttackDescriptor("identity"))
        assert final.weight_where(is_acc) == pytest.approx(1.0)
        blk = final.conditional_where(is_acc)
        cond = blk.matrix / blk.weight  # registers (A, B, E=1)
        np.testing.assert_allclose(cond, target, atol=1e-10)


def test_ebit_always_detected_pauli_rejects(family_s2):
    # an error anticommuting with some generator of every code never passes
    chosen = None
    for e in list(enumerate_paulis(family_s2.n))[1:]:
        if all(syndrome(code, e) != 0 for code in family_s2.codes):
            chosen = e
            break
    assert chosen is not None
    final = ebit_ptp(
        family_s2, AttackDescriptor("fixed_pauli", x=chosen.x, z=chosen.z, label="det")
    )
    assert final.weight_where(is_acc) == pytest.approx(0.0, abs=1e-12)


def test_ebit_depolarizing_partial_accept(family_s2):
    final = ebit_ptc(family_s2, AttackDescriptor("depolarizing", strength=0.5))
    p = final.weight_where(is_acc)
    assert 0.0 < p < 1.0


def test_ebit_reject_state_is_error_form(family_s1):
    desc = AttackDescriptor("fixed_pauli", x=1, z=0, label="X0")
    final = ebit_ptp(family_s1, desc)
    rej = final.conditional_where(lambda rec: not is_acc(rec))
    names = [n for n, _ in rej.registers]
    assert "B" not in names  # replaced by the error symbol
    cond = rej.matrix / rej.weight
    # sender side is maximally mixed and decoupled from the environment
    dims = [d for _, d in rej.registers]
    da = dims[0]
    rest = int(np.prod(dims[1:]))
    tens = cond.reshape(da, rest, da, rest)
    mu = tens.trace(axis1=0, axis2=2)
    np.testing.assert_allclose(cond, np.kron(np.eye(da) / da, mu), atol=1e-10)


@pytest.mark.parametrize("run", [ebit_ptc, ebit_ptp], ids=["ebit_ptc", "ebit_ptp"])
def test_ebit_reject_blocks_are_mixed_on_a_and_accept_blocks_untouched(family_s2, monkeypatch, run):
    # ebit_ptc puts I/d on A once, by one FinalState.replaced call after its
    # last chunk; ebit_ptp builds its reject record as I/d times the Gram of
    # the registers other than A and B, and makes no such call, so its blocks
    # before the mixing are the per-branch oracle's unmixed ones. Either way
    # every reject block is I/d (x) Tr_A(block before), A being its first
    # register, and every accept block is the one before: the very array for
    # ebit_ptc, bit for bit for ebit_ptp
    calls = []
    replaced = FinalState.replaced

    def spy(final, *args):
        calls.append((final, replaced(final, *args)))
        return calls[-1][1]

    monkeypatch.setattr(FinalState, "replaced", spy)
    moved = 0.0
    for attack in standard_suite(1, 2):
        calls.clear()
        final = run(family_s2, attack)
        if run is ebit_ptc:
            assert len(calls) == 1 and calls[0][1] is final, attack.name()
            before = calls[0][0]
            assert list(before.blocks) == list(final.blocks), attack.name()
        else:
            assert calls == [], attack.name()
            before = per_branch_ebit_ptp(family_s2, attack, mixed=False)
            assert set(before.blocks) == set(final.blocks), attack.name()
        for record, block in final.blocks.items():
            old = before.blocks[record]
            assert block.registers == old.registers, (attack.name(), record)
            if is_acc(record):
                if run is ebit_ptc:
                    assert block.matrix is old.matrix, (attack.name(), record)
                else:
                    assert np.array_equal(block.matrix, old.matrix), (attack.name(), record)
                continue
            (name, d), rest = block.registers[0], old.matrix.shape[0] // block.registers[0][1]
            assert name == "A", (attack.name(), record)
            marginal = old.matrix.reshape(d, rest, d, rest).trace(axis1=0, axis2=2)
            want = np.kron(np.eye(d) / d, marginal)
            np.testing.assert_allclose(block.matrix, want, rtol=0, atol=1e-15, err_msg=f"{attack.name()} {record}")
            moved = max(moved, float(np.abs(old.matrix - want).max()))
    # on some reject block A was not yet I/d (x) its rest
    assert moved > 1e-3


@pytest.mark.parametrize("attack_label", ["identity", "Y1", "mix-I-X0", "depol-1.0", "random-104", "swap-R-T0"])
def test_entanglement_forms_identity_per_attack(family_s1, attack_label):
    desc = next(a for a in standard_suite(1, 1) if a.name() == attack_label)
    ptc = ebit_ptc(family_s1, desc)
    ptp = ebit_ptp(family_s1, desc)
    assert ptc.distance(ptp) < 1e-9



def test_ebit_ptp_refuses_a_lossy_dilation(family_s1, monkeypatch, clear_job_caches):
    # the total-weight invariant every key sweep has; without it ebit_ptp
    # returned a final state of total weight 0.81 here
    from qauthlab import protocols
    from qauthlab.hybrid import InvariantError

    pieces = protocols._attack_pieces

    def leaky(family, attack):  # an attack dilation that loses weight
        iso, names, out_regs = pieces(family, attack)
        return 0.9 * iso, names, out_regs

    monkeypatch.setattr(protocols, "_attack_pieces", leaky)
    attack = AttackDescriptor("identity")
    with pytest.raises(InvariantError, match="key sweep: final state total weight 0.8"):
        ebit_ptc(family_s1, attack)
    with pytest.raises(InvariantError, match="ebit_ptp: final state total weight 0.8"):
        ebit_ptp(family_s1, attack)


def test_attack_is_built_once_per_job(family_s1, monkeypatch, clear_job_caches):
    # the five final-state builds of a uc job, and the two of a psqa job,
    # share one channel and dilation; the next attack replaces it
    from qauthlab import protocols
    from qauthlab.approx_psqa import psqa_advantage, sample_cipher
    from qauthlab.cli import _uc_single

    built = []
    build = protocols.build_attack

    def spy(desc, dims):
        built.append(desc.name())
        return build(desc, dims)

    monkeypatch.setattr(protocols, "build_attack", spy)
    x0, y0 = (a for a in standard_suite(1, 1) if a.name() in ("X0", "Y0"))
    psi = purified_input("entangled", 1)
    _uc_single(family_s1, x0, psi)
    _uc_single(family_s1, y0, psi)
    assert built == ["X0", "Y0"]
    psqa_advantage(haar_state(2, np.random.default_rng(3)), sample_cipher(1, 4, 3), family_s1, x0)
    assert built == ["X0", "Y0", "X0"]
    iso = protocols._attack_pieces(family_s1, x0)[0]
    assert not iso.flags.writeable
