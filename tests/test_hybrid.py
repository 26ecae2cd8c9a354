from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qauthlab import hybrid
from qauthlab.adversary import AttackDescriptor, purified_input, standard_suite
from qauthlab.approx_psqa import (
    _keyed_accepts,
    psqa_ideal,
    rsp_key,
    rsp_scale,
    run_psqa_kg,
    run_psrqa_kg,
    sample_cipher,
)
from qauthlab.codes import PtcFamily
from qauthlab.hybrid import (
    FinalState,
    InvariantError,
    key_sweep,
    record_get,
)
from qauthlab.protocols import (
    _apply,
    _attack_pieces,
    _family_encoders,
    _transfer,
    bell_key,
    build_transfer,
    ebit_ptc,
    ebit_ptp,
    key_pads,
    pad_key,
    run_qa_kg,
    run_tqa_kg,
)
from qauthlab.qmath import (
    RegisterError,
    StateVector,
    haar_unitary,
    max_entangled_vector,
    psd_sqrt,
    reg_names,
    trace_norm,
)
from qauthlab.ucharness import _ebit_ideal_from, run_qa_kg_ideal

from oracles import embed, ebit_branch, per_slice_key_sweep, per_slice_run, psqa_branch, qa_branch, records
from test_ebit_ptp_bits import per_branch_ebit_ptp

B = (("B", 2),)
FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "family-m1-s3.json"


def phi_state():
    return StateVector(max_entangled_vector(2), (("A", 2), ("B", 2)))


# ---------------------------------------------------------------------------
# the state-vector contraction that applies an attack
# ---------------------------------------------------------------------------


def test_apply_reorders_to_named_axes():
    # applying a two-register operator with names out of layout order permutes
    # the layout to match the operator's index convention
    psi = phi_state()
    vec, regs = _apply(psi.amplitudes, psi.registers, np.eye(4), ("B", "A"))
    assert [name for name, _ in regs] == ["B", "A"]
    np.testing.assert_allclose(vec, psi.amplitudes)


def test_isometry_grows_register():
    psi = phi_state()
    iso = np.zeros((4, 2), dtype=complex)
    iso[0, 0] = iso[3, 1] = 1.0  # |b> -> |b>|b>
    vec, regs = _apply(psi.amplitudes, psi.registers, iso, ("B",), (("B", 2), ("E", 2)))
    assert regs == (("A", 2), ("B", 2), ("E", 2))
    expect = np.zeros(8)
    expect[0] = expect[7] = 1 / np.sqrt(2)  # |000> + |111>
    np.testing.assert_allclose(vec, expect)


def measured_phi(flip: bool = False) -> FinalState:
    """|Phi> on (A, B) (or X on A first), A measured into record field a."""
    return FinalState(
        {((("a", a),)): (B, 0.5 * np.diag([1.0 - (a ^ flip), float(a ^ flip)])) for a in (0, 1)}
    )


def test_distance_decomposes_and_embeds():
    f1, f2 = measured_phi(), measured_phi(flip=True)
    d = f1.distance(f2)
    # per-record distance equals the distance of the dense block-diagonal
    # embedding over a shared record order
    order = records(f1)
    emb = trace_norm(embed(f1, order) - embed(f2, order))
    assert d == pytest.approx(emb, abs=1e-12)
    # orthogonal conditional states with equal weights: each record
    # contributes 2 * 0.5, and there are two records
    assert d == pytest.approx(2.0)


def test_distance_counts_missing_records():
    full = measured_phi()
    only0 = FinalState(
        {
            rec: (blk.registers, blk.matrix)
            for rec, blk in full.blocks.items()
            if record_get(rec, "a") == 0
        }
    )
    assert full.distance(only0) == pytest.approx(0.5)
    assert only0.distance(full) == pytest.approx(0.5)
    with pytest.raises(InvariantError):
        full.distance(FinalState({(("a", 0),): ((("Bx", 2),), np.eye(2) / 2)}))


def per_record_distance(a: FinalState, b: FinalState) -> float:
    """The per-record loop ``FinalState.distance`` replaced: one SVD per
    shared record, in sorted record order."""
    total = 0.0
    for rec in sorted(set(a.blocks) | set(b.blocks), key=repr):
        mine = a.blocks.get(rec)
        theirs = b.blocks.get(rec)
        if mine is None:
            total += theirs.weight
        elif theirs is None:
            total += mine.weight
        else:
            if reg_names(mine.registers) != reg_names(theirs.registers):
                raise InvariantError(f"record {rec} has mismatched registers")
            if mine.matrix.shape != theirs.matrix.shape:
                raise InvariantError(f"record {rec} has mismatched dimensions")
            total += float(np.linalg.svd(mine.matrix - theirs.matrix, compute_uv=False).sum())
    return float(total)


def compared_pairs(family, attack, psi, cipher, vec, detail):
    """Every pair of final states that ``uc`` and ``psqa`` compare for one
    attack (``psqa``'s only for attacks on T), label -> (first, second);
    with ``detail``, the same runs with one record per branch, from the
    per-slice and per-branch oracles."""

    def run(sweep, fmt):
        return per_slice_run(sweep, family, attack, fmt) if detail else sweep()

    ptp = per_branch_ebit_ptp(family, attack, detail=True) if detail else ebit_ptp(family, attack)
    pairs = {
        "qa/tqa": (
            run(lambda: run_qa_kg(psi, family, attack), qa_branch),
            run(lambda: run_tqa_kg(psi, family, attack), qa_branch),
        ),
        "ptc/ptp": (run(lambda: ebit_ptc(family, attack), ebit_branch), ptp),
    }
    if not detail:
        pairs["ebit/ideal"] = (ptp, _ebit_ideal_from(ptp, family.m))
        pairs["qa/ideal"] = (pairs["qa/tqa"][0], run_qa_kg_ideal(psi, family, attack))
    if attack.acts_on == ("T",):
        real = run(lambda: run_psqa_kg(vec, cipher, family, attack), psqa_branch)
        twin = run(lambda: run_psrqa_kg(vec, cipher, family, attack), psqa_branch)
        if detail:
            pairs["psqa/twin"] = (real, twin)
        else:
            kept = 1.0 - rsp_scale(cipher, vec)[-1]
            pairs["psqa/ideal"] = (real, psqa_ideal(vec, cipher, family, attack))
            pairs["psqa/twin"] = (_keyed_accepts(twin, 1.0), _keyed_accepts(real, kept))
    return pairs


@pytest.mark.parametrize("detail", [False, True])
def test_distance_matches_the_per_record_svd_sum(monkeypatch, detail):
    # every pair uc and psqa compare on the benchmark family, with the inputs
    # the benchmark draws at seed 1 (with detail, the oracles' branch records
    # on six of the attacks, two of them on R and T, and a K = 4 cipher:
    # thousands of records each); with one record per run (budget 1) too,
    # where each distance is bit for bit the default budget's
    family = PtcFamily.load(FIXTURE)
    psi = purified_input("random-1", family.m)
    cipher = sample_cipher(family.m, 4 if detail else 16, 1)
    vec = haar_unitary(1 << family.m, np.random.default_rng(1))[:, 0]
    suite = standard_suite(family.m, family.s)
    if detail:
        suite = [a for a in suite if a.name() in ("identity", "X0", "depol-0.5", "swap-held", "cnot-R-T0", "swap-R-T0")]
    calls = []
    norm = hybrid.trace_norm
    monkeypatch.setattr(hybrid, "trace_norm", lambda deltas: calls.append(deltas.shape) or norm(deltas))
    count = 0
    for attack in suite:
        for label, (a, b) in compared_pairs(family, attack, psi, cipher, vec, detail).items():
            del calls[:]
            got = a.distance(b)
            assert abs(got - per_record_distance(a, b)) <= 1e-12, (attack.name(), label)
            # one call per run of records of one block shape, among the shared
            # records the two sides hold as different arrays; without detail,
            # every shape is one run at the default budget
            runs = []
            for shape, k in Counter(
                a.blocks[r].matrix.shape for r in set(a.blocks) & set(b.blocks) if a.blocks[r].matrix is not b.blocks[r].matrix
            ).items():
                per = max(1, hybrid.CHUNK_ELEMENTS // (shape[0] * shape[1]))
                runs += [(min(per, k - lo), *shape) for lo in range(0, k, per)]
                assert detail or k <= per, (attack.name(), label, shape, k)
            assert sorted(calls) == sorted(runs), (attack.name(), label)
            with monkeypatch.context() as patch:
                patch.setattr(hybrid, "CHUNK_ELEMENTS", 1)
                del calls[:]
                assert a.distance(b) == got, (attack.name(), label)
            # one call per record
            assert sorted(calls) == sorted((1, *shape) for k, *shape in runs for _ in range(k)), (attack.name(), label)
            count += 1
    assert count == (6 * 2 + 4 if detail else 27 * 4 + 25 * 2)


def test_a_record_both_sides_hold_as_one_array_counts_zero(monkeypatch):
    # EBIT's reject record is one array in the real run and in its ideal
    # (FinalState.replaced keeps it): no stack slot and no eigensolve, and
    # the distance keeps its bits against the same records with that one
    # copied, whose difference is exactly zero
    family = PtcFamily.load(FIXTURE)
    attack = next(a for a in standard_suite(family.m, family.s) if a.name() == "depol-0.5")
    real = ebit_ptp(family, attack)
    ideal = _ebit_ideal_from(real, family.m)
    acc, rej = (("verdict", "ACC"),), (("verdict", "REJ"),)
    assert ideal.blocks[rej].matrix is real.blocks[rej].matrix
    assert ideal.blocks[acc].matrix is not real.blocks[acc].matrix
    assert real.blocks[rej].weight > 0.1
    stacks = []
    norm = hybrid.trace_norm
    monkeypatch.setattr(hybrid, "trace_norm", lambda deltas: stacks.append(deltas.shape) or norm(deltas))
    got = real.distance(ideal)
    assert stacks == [(1, *real.blocks[acc].matrix.shape)]
    copied = FinalState({rec: (b.registers, b.matrix.copy()) for rec, b in ideal.blocks.items()})
    del stacks[:]
    assert real.distance(copied) == got
    assert sorted(stacks) == sorted([(1, *real.blocks[acc].matrix.shape), (1, *real.blocks[rej].matrix.shape)])
    assert got > 0.01


def test_distance_stacks_blocks_of_every_shape():
    # records of two shapes (2 and 4) shared by both sides, and one of a
    # third shape (8) on one side only
    rng = np.random.default_rng(7)
    blocks = {}
    for i, d in enumerate((2, 4, 2, 4, 8)):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks[(("r", i),)] = (((f"Q{d}", d),), g @ g.conj().T / 10)
    a = FinalState(blocks)
    b = FinalState({rec: (regs, mat.T.copy()) for rec, (regs, mat) in list(blocks.items())[:4]})
    shared = sum(np.linalg.svd(mat - mat.T, compute_uv=False).sum() for _, mat in list(blocks.values())[:4])
    want = shared + np.trace(blocks[(("r", 4),)][1]).real
    assert abs(per_record_distance(a, b) - want) <= 1e-12
    assert abs(a.distance(b) - want) <= 1e-12
    assert abs(b.distance(a) - want) <= 1e-12


def test_distance_refuses_a_non_hermitian_difference():
    a = FinalState({(("r", 0),): (B, np.eye(2) / 2)})
    b = FinalState({(("r", 0),): (B, np.array([[0.5, 1e-9], [0.0, 0.5]]))})
    with pytest.raises(InvariantError, match="Hermitian"):
        a.distance(b)


def test_distance_refuses_mismatched_dimensions():
    a = FinalState({(("r", 0),): (B, np.eye(2) / 2)})
    b = FinalState({(("r", 0),): ((("B", 4),), np.eye(4) / 4)})
    with pytest.raises(InvariantError, match="dimensions"):
        a.distance(b)
    with pytest.raises(InvariantError, match="registers"):
        a.distance(FinalState({(("r", 0),): ((("C", 2),), np.eye(2) / 2)}))


def test_record_helpers():
    rec = (("a", 1), ("b", "x"))
    assert record_get(rec, "b") == "x"
    with pytest.raises(KeyError):
        record_get(rec, "zz")


def test_conditional_where():
    final = measured_phi()
    blk = final.conditional_where(lambda rec: True)
    assert blk.weight == pytest.approx(1.0)
    cond = blk.conditional()
    assert abs(cond.matrix.trace() - 1.0) < 1e-12
    np.testing.assert_allclose(cond.matrix, np.eye(2) / 2, atol=1e-14)
    with pytest.raises(KeyError):
        final.conditional_where(lambda rec: False)
    mixed = FinalState({(("a", 0),): (B, np.eye(2) / 2), (("a", 1),): ((("Bx", 2),), np.eye(2) / 2)})
    with pytest.raises(RegisterError):
        mixed.conditional_where(lambda rec: True)


def _verdict_plan(fields):
    return (("verdict", fields["verdict"]),), ()


def test_finalize_drop_and_mix(family_s1):
    # every slice maps to one record: B traced out of each block, or kept
    transfer = _transfer(family_s1, AttackDescriptor("identity"))
    base = StateVector(max_entangled_vector(2), (("A", 2), ("B0", 2)))
    final = key_sweep(transfer, base, "B0", lambda f: ((), ("B",)))
    block = final.blocks[()]
    assert block.registers == (("A", 2), ("E", 1))
    np.testing.assert_allclose(block.matrix, np.eye(2) / 2, atol=1e-14)

    kept = key_sweep(transfer, base, "B0", lambda f: ((), ()))
    assert kept.blocks[()].registers == (("A", 2), ("B", 2), ("E", 1))
    phi = max_entangled_vector(2)
    np.testing.assert_allclose(kept.blocks[()].matrix, np.outer(phi, phi.conj()), atol=1e-14)
    # A replaced by I/2 leaves B's marginal I/2, now uncorrelated with A; a
    # record the predicate does not pick keeps its block
    mixed = kept.replaced(lambda rec: True, ("A",), np.eye(2) / 2)
    assert mixed.blocks[()].registers == kept.blocks[()].registers
    np.testing.assert_allclose(mixed.blocks[()].matrix, np.eye(4) / 4, atol=1e-14)
    assert kept.replaced(lambda rec: False, ("A",), np.eye(2) / 2).blocks[()].matrix is kept.blocks[()].matrix


def test_finalize_sorts_registers(family_s1):
    transfer = _transfer(family_s1, AttackDescriptor("identity"))
    base = StateVector(np.kron([1, 0], [0, 1]).astype(complex), (("Zz", 2), ("B0", 2)))
    final = key_sweep(transfer, base, "B0", lambda f: ((), ()), receiver="Aa")
    assert final.blocks[()].registers == (("Aa", 2), ("E", 1), ("Zz", 2))
    # |0> on Zz, |1> on Aa -> sorted layout puts Aa first: index 1*2+0=2
    expect = np.zeros((4, 4))
    expect[2, 2] = 1.0
    np.testing.assert_allclose(final.blocks[()].matrix, expect, atol=1e-14)


def test_key_sweep_total_weight_and_records(family_s1):
    attack = AttackDescriptor("fixed_pauli", x=1, label="X0")
    transfer = _transfer(family_s1, attack)
    base = StateVector(max_entangled_vector(2), (("A", 2), ("B0", 2)))
    final = key_sweep(transfer, base, "B0", _verdict_plan)
    assert final.total_weight() == pytest.approx(1.0, abs=1e-12)
    # X on qubit 0 anticommutes with ZZ and YY: two codes in three reject
    assert final.blocks[(("verdict", "REJ"),)].weight == pytest.approx(2.0 / 3.0, abs=1e-12)
    # per slice, in the oracle: the received syndrome is an explicit field,
    # zero-probability slices are pruned, and the records sum to the engine's
    pieces = (_family_encoders(family_s1), _attack_pieces(family_s1, attack))
    detailed = per_slice_key_sweep(
        *pieces, base, "B0", lambda f: ((("y", f["y"]), ("ysyn", f["ysyn"])), ()), True
    )
    assert len(detailed.blocks) == 4
    rej = sum(b.weight for rec, b in detailed.blocks.items() if dict(rec)["y"] != dict(rec)["ysyn"])
    assert rej == pytest.approx(2.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("rej_slice, kept", [(0.6e-15, True), (0.4e-15, False)])
def test_a_record_class_is_pruned_by_its_own_probability(rej_slice, kept):
    # one code at s = 1, a 1-dim probe and a 2-dim output: the two REJ
    # branches each carry rej_slice, below PRUNE_BELOW, on output 1, the two
    # ACC branches 1/2 each on output 0; the REJ class is kept iff the sum of
    # its branches (1.2e-15 or 0.8e-15) is above PRUNE_BELOW
    rej, acc = np.diag([0.0, 2 * rej_slice]).astype(complex), np.diag([1.0, 0.0]).astype(complex)
    transfer = hybrid.Transfer((("T", 1),), (("T", 2),), (("REJ", rej), ("ACC", acc)))
    final = key_sweep(transfer, StateVector(np.ones(1, dtype=complex), (("C", 1),)), "C", _verdict_plan)
    assert final.blocks[(("verdict", "ACC"),)].weight == pytest.approx(1.0, abs=1e-15)
    rej = final.blocks.get((("verdict", "REJ"),))
    assert (rej is not None) == kept
    if kept:
        assert rej.weight == pytest.approx(2 * rej_slice, rel=1e-12)
        assert rej.registers == (("B", 2),)


@pytest.mark.parametrize("budget", [1, None])
def test_a_record_class_is_pruned_over_the_whole_family(monkeypatch, clear_job_caches, budget):
    # the fixture's first two codes, one code per chunk or both in one: X on
    # qubit 2 has a nonzero syndrome in both, so a mixture that applies it
    # with weight 1.2e-15 rejects with that probability, 0.6e-15 per code.
    # The REJ pair is pruned on its probability over the whole family, above
    # PRUNE_BELOW, never on a chunk's share, below it
    from dataclasses import replace

    from qauthlab import protocols

    family = PtcFamily.load(FIXTURE)
    family = replace(family, codes=family.codes[:2])
    w = 1.2e-15
    flagged = AttackDescriptor("fixed_pauli", x=4, label="X2")
    assert ebit_ptc(family, flagged).blocks[(("verdict", "REJ"),)].weight == pytest.approx(1.0, abs=1e-12)
    code_chunks, cut = protocols._code_chunks, []

    def spy(encoders, per_code):
        cut.append(code_chunks(encoders, per_code))
        return cut[-1]

    if budget is not None:
        monkeypatch.setattr(hybrid, "CHUNK_ELEMENTS", budget)
    monkeypatch.setattr(protocols, "_code_chunks", spy)
    clear_job_caches()
    final = ebit_ptc(family, AttackDescriptor("pauli_mixture", weights=((1 - w, 0, 0), (w, 4, 0)), label="rare-X2"))
    assert [len(chunks) for chunks in cut] == [2 if budget == 1 else 1]
    assert final.blocks[(("verdict", "REJ"),)].weight == pytest.approx(w, rel=1e-6)


def test_key_sweep_rejects_non_isometric_attack(family_s1):
    # a transfer built from a dilation that gains weight breaks the
    # total-weight invariant of every sweep that reads it
    attack = AttackDescriptor("identity")
    iso, names, out_regs = _attack_pieces(family_s1, attack)
    transfer = build_transfer(_family_encoders(family_s1), (1.1 * iso, names, out_regs), family_s1.m)
    base = StateVector(max_entangled_vector(2), (("A", 2), ("B0", 2)))
    with pytest.raises(InvariantError, match="key sweep: final state total weight"):
        key_sweep(transfer, base, "B0", _verdict_plan)
    assert not issubclass(InvariantError, ValueError)


def test_key_sweep_refuses_a_key_that_is_not_a_complete_instrument(family_s1):
    # every key is checked for sum_v K_v^dag K_v = I before it is applied:
    # a pad without its last unitary, a Bell measurement without its last
    # outcome, and psqa's preparation measurement (the cipher and message of
    # `psqa --seed 1`) with the failure element F = I - S/M, S untransposed.
    # The total-weight check cannot see the last: on half of a maximally
    # entangled pair S and S^T weigh alike
    transfer = _transfer(family_s1, AttackDescriptor("fixed_pauli", x=1, label="X0"))
    phi = max_entangled_vector(2)
    cipher, vec = sample_cipher(1, 16, 1), haar_unitary(2, np.random.default_rng(1))[:, 0]
    total, scale, _ = rsp_scale(cipher, vec)
    label, values, names, ops, out, fix = rsp_key(cipher, vec)
    untransposed = np.concatenate([ops[:-1], psd_sqrt(np.eye(2) - total / scale)[None]])

    def without_last(key):
        label, values, names, ops, out, fix = key
        return label, values[:-1], names, ops[:-1], out, fix[:-1]

    pad, bell = pad_key("key", *key_pads(1), "M"), bell_key(1, ("M", "A1"))
    cases = (
        (StateVector(phi, (("A", 2), ("M", 2))), "M", pad, without_last(pad)),
        (StateVector(np.kron([1, 0], phi), (("M", 2), ("A1", 2), ("B0", 2))), "B0", bell, without_last(bell)),
        (StateVector(phi, (("Ams", 2), ("B0", 2))), "B0", (label, values, names, ops, out, fix),
         (label, values, names, untransposed, out, fix)),
    )
    for base, carrier, complete, broken in cases:
        final = key_sweep(transfer, base, carrier, _verdict_plan, key=complete)
        assert final.total_weight() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(InvariantError, match=rf"key sweep: key '{complete[0]}' is not a complete instrument"):
            key_sweep(transfer, base, carrier, _verdict_plan, key=broken)
    # the untransposed F weighs what F does on the maximally entangled half
    weight = np.einsum("voi,voi->", untransposed, untransposed.conj()).real / 2
    assert weight == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("differ", ["drop"])
def test_a_plan_that_merges_two_classes_is_an_invariant_error(family_s1, differ):
    # a plan that maps REJ and ACC to one record, with different registers
    # to drop, is a fault of the program's own plans, not of its input: both
    # verdicts of X0 are live, REJ comes first, and the raise names the
    # register set that differs
    transfer = _transfer(family_s1, AttackDescriptor("fixed_pauli", x=1, label="X0"))
    base = StateVector(max_entangled_vector(2), (("A", 2), ("B0", 2)))

    def plan(fields):
        return (), ("B",) if fields["verdict"] == "REJ" else ()

    with pytest.raises(InvariantError, match="accumulated under different kept registers"):
        key_sweep(transfer, base, "B0", plan)


@pytest.mark.parametrize("drop", [("E",), ("B", "E")])
def test_a_plan_that_drops_the_environment_is_an_invariant_error(family_s1, drop):
    # the transfer is traced over the receiver alone, so a record may drop
    # no other output register: no plan of the program does, and one that
    # did is a fault of the program's own plans, refused before any block
    transfer = _transfer(family_s1, AttackDescriptor("fixed_pauli", x=1, label="X0"))
    base = StateVector(max_entangled_vector(2), (("A", 2), ("B0", 2)))
    with pytest.raises(InvariantError, match=r"_blocks: drop .* names an output register other than the receiver 'B'"):
        key_sweep(transfer, base, "B0", lambda fields: ((("verdict", fields["verdict"]),), drop))


def test_key_is_contracted_once_per_sweep(monkeypatch, clear_job_caches, family_s2):
    # one code per chunk: 8 chunks, built by the first sweep alone, and still
    # one contraction of the key per sweep; the transfer is built once per uc
    # job and once per psqa job, and every sweep of the job reads it
    from qauthlab import hybrid, protocols
    from qauthlab.adversary import purified_input, standard_suite
    from qauthlab.approx_psqa import psqa_advantage, run_psqa_kg, run_psrqa_kg, sample_cipher
    from qauthlab.cli import _uc_single
    from qauthlab.protocols import run_qa_kg, run_tqa_kg

    apply, transfer_chunk, build = hybrid._apply, protocols._transfer_chunk, protocols.build_transfer
    seen, chunks, built = [], [], []

    def spy(vector, registers, matrix, names, out_regs=None):
        seen.append(tuple(names))
        return apply(vector, registers, matrix, names, out_regs)

    def chunk_spy(encoders, *rest):
        chunks.append(len(encoders))
        return transfer_chunk(encoders, *rest)

    def build_spy(encoders, attack, m):
        built.append(len(encoders))
        return build(encoders, attack, m)

    monkeypatch.setattr(hybrid, "CHUNK_ELEMENTS", 1)
    monkeypatch.setattr(hybrid, "_apply", spy)
    monkeypatch.setattr(protocols, "_transfer_chunk", chunk_spy)
    monkeypatch.setattr(protocols, "build_transfer", build_spy)
    psi = StateVector(max_entangled_vector(2), (("R", 2), ("M", 2)))
    cipher = sample_cipher(1, 4, seed=2)
    vec = np.array([0.6, 0.8j], dtype=complex)
    attack = AttackDescriptor("identity")
    for i, (run, keyed) in enumerate((
        (lambda: run_qa_kg(psi, family_s2, attack), ("M",)),
        (lambda: run_tqa_kg(psi, family_s2, attack), ("M", "A1")),
        (lambda: run_psqa_kg(vec, cipher, family_s2, attack), ("Mc",)),
        (lambda: run_psrqa_kg(vec, cipher, family_s2, attack), ("Ams",)),
    )):
        seen.clear()
        chunks.clear()
        run()
        assert seen == [keyed]
        assert chunks == ([1] * 8 if i == 0 else [])

    clear_job_caches()
    built.clear()
    x0, y0 = (a for a in standard_suite(1, 2) if a.name() in ("X0", "Y0"))
    _uc_single(family_s2, x0, purified_input("random-3", 1))
    assert built == [8]
    _uc_single(family_s2, y0, purified_input("random-3", 1))
    assert built == [8, 8]
    psqa_advantage(vec, cipher, family_s2, x0)
    assert built == [8, 8, 8]


def test_verdict_grams_are_taken_once_per_job(monkeypatch, clear_job_caches, family_s2):
    # one code per chunk: a uc job builds its transfer once, from 8 chunks
    # whose Grams add into two arrays; the transfer traces each of them once
    # over the receiver and once over every output, and its four key sweeps
    # read those arrays and trace nothing; ebit_ptp reads none (it cuts its
    # own 8 runs of codes)
    from qauthlab import protocols
    from qauthlab.cli import _uc_single

    blocks, trace_out, total = hybrid._blocks, hybrid._trace_out_axes, hybrid.checked_total
    code_chunks, build = protocols._code_chunks, protocols.build_transfer
    read, sweeps, traced, probe_traced, cut, built = [], [], [], [], [], []

    class CountingNumpy:
        # hybrid's numpy, with its np.trace calls (the probe Grams) counted
        def __getattr__(self, name):
            return getattr(np, name)

        def trace(self, a, *args, **kwargs):
            probe_traced.append(a)
            return np.trace(a, *args, **kwargs)

    def blocks_spy(gram, *rest):
        read.append(gram)
        return blocks(gram, *rest)

    def total_spy(final, where):
        # one key sweep ends: the arrays its blocks read
        sweeps.append({id(gram) for gram in read})
        read.clear()
        return total(final, where)

    def traced_spy(gram, dims, axes):
        traced.append((gram, axes))
        return trace_out(gram, dims, axes)

    def codes_spy(encoders, per_code):
        cut.append(code_chunks(encoders, per_code))
        return cut[-1]

    def build_spy(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(hybrid, "CHUNK_ELEMENTS", 1)
    monkeypatch.setattr(hybrid, "np", CountingNumpy())
    monkeypatch.setattr(hybrid, "_blocks", blocks_spy)
    monkeypatch.setattr(hybrid, "checked_total", total_spy)
    monkeypatch.setattr(hybrid, "_trace_out_axes", traced_spy)
    monkeypatch.setattr(protocols, "_code_chunks", codes_spy)
    monkeypatch.setattr(protocols, "build_transfer", build_spy)
    clear_job_caches()
    x0 = next(a for a in standard_suite(1, 2) if a.name() == "X0")
    _uc_single(family_s2, x0, purified_input("random-3", 1))
    (transfer,) = built
    assert _transfer(family_s2, x0) is transfer
    (rej, acc), ((rej_b, _), (acc_b, _)) = (gram for _, gram in transfer.verdicts), transfer.traced
    assert [verdict for verdict, _ in transfer.verdicts] == ["REJ", "ACC"]
    # one trace over the receiver (axis 0 of (T, E)) per verdict Gram, and
    # one over every output, both taken with the transfer: none by a sweep
    assert [(gram is rej, gram is acc, axes) for gram, axes in traced] == [(True, False, (0,)), (False, True, (0,))]
    assert [(np.shares_memory(a, rej), np.shares_memory(a, acc)) for a in probe_traced] == [(True, False), (False, True)]
    assert all(not g.flags.writeable for pair in transfer.traced for g in pair)
    # X0 is accepted or rejected per code, whatever the input. A reject
    # record drops the receiver in all four sweeps, an accept record in the
    # ideal's; the real runs' accept records keep it, and read the full Gram
    real = {id(rej_b), id(acc)}
    assert sweeps == [real, real, real, {id(rej_b), id(acc_b)}] and read == []
    # the transfer's codes and ebit_ptp's, one code per run
    assert [[len(codes) for codes in chunks] for chunks in cut] == [[1] * 8] * 2
