import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qauthlab import ucharness
from qauthlab.adversary import AttackDescriptor, purified_input, standard_suite
from qauthlab.codes import PtcFamily, _missed_counts, ptc_epsilon_formula, search_ptc
from qauthlab.hybrid import InvariantError, record_get
from qauthlab.pauli import enumerate_paulis
from qauthlab.protocols import ACC, _family_encoders, ebit_ptp, run_qa_kg
from qauthlab.qmath import max_entangled_vector, trace_norm
from qauthlab.ucharness import (
    AdvantageReport,
    _ebit_ideal_from,
    ebit_advantage_bound,
    ebit_report,
    ptp_soundness_exact,
    qa_kg_report,
    run_qa_kg_ideal,
)

from oracles import (
    embed,
    pauli_displaced_input,
    records,
    soundness_functional,
    soundness_operator,
    stabilizer_masks,
)


def is_acc(rec):
    return record_get(rec, "verdict") == ACC


def test_bound_values():
    # eps = 8/27 gives 2 sqrt(2) * (2/3)
    assert ebit_advantage_bound(8.0 / 27.0) == pytest.approx(4.0 * math.sqrt(2.0) / 3.0)
    assert ebit_advantage_bound(0.0) == 0.0
    assert ebit_advantage_bound(1.0) == 2.0  # capped at the trace-distance maximum
    with pytest.raises(ValueError):
        ebit_advantage_bound(-0.1)


def test_eta_states_identity_attack(family_s1):
    ident = AttackDescriptor("identity", label="identity")
    real = ebit_ptp(family_s1, ident)
    ideal = _ebit_ideal_from(real, family_s1.m)
    assert real.total_weight() == pytest.approx(1.0)
    assert real.weight_where(is_acc) == pytest.approx(1.0)
    assert real.distance(ideal) < 1e-12
    phi = max_entangled_vector(2)
    blk = real.conditional_where(is_acc)
    np.testing.assert_allclose(blk.matrix / blk.weight, np.outer(phi, phi.conj()), atol=1e-12)


def test_eta_reject_branches_identical(family_s1):
    desc = AttackDescriptor("random_dilation", seed=11, env_dim=2, label="r11")
    real = ebit_ptp(family_s1, desc)
    ideal = _ebit_ideal_from(real, family_s1.m)
    rej_real = real.conditional_where(lambda rec: not is_acc(rec))
    rej_ideal = ideal.conditional_where(lambda rec: not is_acc(rec))
    assert trace_norm(rej_real.matrix - rej_ideal.matrix) < 1e-12
    assert real.total_weight() == pytest.approx(1.0)
    assert ideal.total_weight() == pytest.approx(1.0)


def test_eta_ideal_puts_perfect_ebits_on_accept_only(family_s1):
    # the ideal's accept block is Phi on (A, B), its first two registers,
    # times the real block's E-marginal; its reject block is the real one
    desc = AttackDescriptor("random_dilation", seed=11, env_dim=2, label="r11")
    real = ebit_ptp(family_s1, desc)
    ideal = _ebit_ideal_from(real, family_s1.m)
    assert list(ideal.blocks) == list(real.blocks)
    for record, block in real.blocks.items():
        if not is_acc(record):
            assert ideal.blocks[record].matrix is block.matrix
            continue
        assert [name for name, _ in block.registers[:2]] == ["A", "B"]
        d = block.matrix.shape[0] // 4
        marginal = block.matrix.reshape(4, d, 4, d).trace(axis1=0, axis2=2)
        phi = max_entangled_vector(2)
        want = np.kron(np.outer(phi, phi.conj()), marginal)
        np.testing.assert_allclose(ideal.blocks[record].matrix, want, rtol=0, atol=1e-15)


def test_eta_always_detected_pauli_is_pure_reject(family_s2):
    from oracles import syndrome

    chosen = next(
        e
        for e in list(enumerate_paulis(family_s2.n))[1:]
        if all(syndrome(code, e) != 0 for code in family_s2.codes)
    )
    desc = AttackDescriptor("fixed_pauli", x=chosen.x, z=chosen.z, label="det")
    real = ebit_ptp(family_s2, desc)
    assert real.weight_where(is_acc) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("m, s", [(1, 1), (1, 2), (2, 1)])
def test_pauli_attacks_follow_the_detection_count(m, s):
    # a keyed Pauli E passes the codes that miss it and the codes that
    # stabilize it; only a miss corrupts the ebits, into a state orthogonal
    # to them, so the advantage is 2 miss(E) and p_acc is miss(E) + stab(E)
    family = search_ptc(m, s, ptc_epsilon_formula(m, s), seed=1)
    n, size = family.n, len(family.codes)
    missed = _missed_counts(family.codes) / size
    groups = [stabilizer_masks(code) for code in family.codes]
    # negative control: each code's group without its first generator
    short_groups = [stabilizer_masks(SimpleNamespace(generators=code.generators[1:])) for code in family.codes]
    worst_advantage = worst_p_acc = worst_short = 0.0
    for e in list(enumerate_paulis(n))[1:]:
        desc = AttackDescriptor("fixed_pauli", x=e.x, z=e.z, label="e")
        rep = ebit_report(family, desc, ebit_ptp(family, desc))
        miss = missed[(e.x << n) | e.z]
        stab = sum((e.x, e.z) in group for group in groups) / size
        short = sum((e.x, e.z) in group for group in short_groups) / size
        worst_advantage = max(worst_advantage, abs(rep.advantage - 2 * miss))
        worst_p_acc = max(worst_p_acc, abs(rep.p_acc - miss - stab))
        worst_short = max(worst_short, abs(rep.p_acc - miss - short))
    assert worst_advantage < 1e-12
    assert worst_p_acc < 1e-12
    assert worst_short > 1e-12


def test_advantage_factored_form_and_bound(family_s1):
    for desc in standard_suite(1, 1):
        rep = ebit_report(family_s1, desc, ebit_ptp(family_s1, desc))
        assert rep.passed
        assert abs(rep.advantage - rep.extras["advantage_factored"]) < 1e-9
        assert 0.0 <= rep.advantage <= 2.0 + 1e-12


def test_overlap_chain_checks(family_s1):
    # the two analytic consequences of the security argument, read off the
    # EBIT report: F >= (1 - d)^2 for the overlap defect d, and p_acc * d <= eps
    eps = family_s1.epsilon_verified
    for desc in standard_suite(1, 1):
        rep = ebit_report(family_s1, desc, ebit_ptp(family_s1, desc))
        defect = rep.extras["overlap_defect"]
        assert rep.extras["fidelity_acc"] >= (1.0 - defect) ** 2 - 1e-9
        if rep.p_acc > eps ** (1.0 / 3.0):
            assert defect <= eps / rep.p_acc + 1e-9
        # the soundness product is bounded by eps unconditionally
        assert rep.p_acc * defect <= eps + 1e-9


def test_ptp_soundness_exact_cross_validates(family_s1, family_s2, family_s3):
    for fam in (family_s1, family_s2, family_s3):
        exact = ptp_soundness_exact(fam)
        assert exact <= fam.epsilon_verified + 1e-9
        # Pauli-displaced entangled inputs achieve the worst case, so the
        # mask-level and state-level definitions agree to precision
        omega = soundness_operator(fam)
        best = max(
            soundness_functional(omega, pauli_displaced_input(fam, e))
            for e in list(enumerate_paulis(fam.n))[1:]
        )
        assert best <= exact + 1e-9
        assert exact == pytest.approx(fam.epsilon_verified, abs=1e-9)


def test_soundness_exact_dominates_random_inputs(family_s2, rng):
    from qauthlab.qmath import haar_state

    exact = ptp_soundness_exact(family_s2)
    omega = soundness_operator(family_s2)
    dt = 1 << family_s2.n
    for _ in range(10):
        vec = haar_state(dt * dt, rng)
        rho = np.outer(vec, vec.conj())
        assert soundness_functional(omega, rho) <= exact + 1e-9


@pytest.fixture(scope="module")
def family_m2_s3():
    return search_ptc(2, 3, ptc_epsilon_formula(2, 3), seed=1)


@pytest.mark.parametrize("name", ["family_s1", "family_s2", "family_s3", "family_m2_s3"])
def test_gram_soundness_operator_matches_the_accept_decoder_stack(name, request):
    # every XOR block of the Gram form against the same block of the complex
    # product of the stacked L_{t,u}, and the value against the oracle's top
    # eigenvalue, (2, 3) at n = 5 included
    fam = request.getfixturevalue(name)
    blocks, _ = ucharness._soundness_operator(fam)
    oracle = soundness_operator(fam)
    dt = 1 << fam.n
    ij = (np.arange(dt)[:, None] ^ np.arange(dt)).ravel()
    for c in range(dt):
        assert np.abs(blocks[c] - oracle[np.ix_(ij == c, ij == c)]).max() <= 1e-12
    assert np.abs(blocks.imag).max() <= 1e-12
    assert abs(ptp_soundness_exact(fam) - np.linalg.eigvalsh(oracle).max()) <= 1e-12


FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "family-m1-s3.json"


@pytest.mark.parametrize("ms", [None, (1, 1), (1, 2), (2, 1), (2, 2)])
def test_soundness_operator_keeps_the_xor_of_its_indices(ms):
    # the dense oracle, with no identity used, is zero between rows (i, j)
    # and columns (k, l) with i ^ j != k ^ l, and its top eigenvalue is the
    # top block eigenvalue that ptp_soundness_exact reports
    if ms is None:
        fam = PtcFamily.load(FIXTURE)
    else:
        fam = search_ptc(*ms, ptc_epsilon_formula(*ms), seed=1)
    dt = 1 << fam.n
    oracle = soundness_operator(fam)
    ij = np.arange(dt)[:, None] ^ np.arange(dt)
    off = ij.reshape(-1, 1) != ij.reshape(1, -1)
    assert np.abs(oracle[off]).max() <= 1e-12
    blocks = [oracle[np.ix_(ij.ravel() == c, ij.ravel() == c)] for c in range(dt)]
    top = max(np.linalg.eigvalsh(b).max() for b in blocks)
    assert abs(top - np.linalg.eigvalsh(oracle).max()) <= 1e-12
    assert abs(ptp_soundness_exact(fam) - top) <= 1e-12


def _patch_encoders(monkeypatch, change):
    """``ucharness._family_encoders`` through ``change(stack)``."""
    monkeypatch.setattr(ucharness, "_family_encoders", lambda family: change(_family_encoders(family)))


def _t_gate_on_qubit_0(stack):
    # diag(1, e^{i pi/4}) on the least significant bit, after each encoder
    phases = np.exp(1j * np.pi / 4 * (np.arange(stack.shape[1]) & 1))
    return phases[:, None] * stack


def test_soundness_refuses_a_complex_operator(family_s3, monkeypatch):
    # negative control: a T gate after the encoder makes the syndrome
    # projectors non-Pauli, and the blocks' imaginary part (about 0.045) must
    # stop the real eigvalsh, which could only under-report the maximum
    _patch_encoders(monkeypatch, _t_gate_on_qubit_0)
    assert np.abs(ucharness._soundness_operator(family_s3)[0].imag).max() > 0.01
    with pytest.raises(InvariantError, match="imaginary entries up to"):
        ptp_soundness_exact(family_s3)


def _ry_on_qubit_0(stack):
    # the real rotation Ry(0.3) on the least significant bit, after each encoder
    c, s = np.cos(0.15), np.sin(0.15)
    pairs = stack.reshape(len(stack), -1, 2, stack.shape[2])
    return np.einsum("ab,tibj->tiaj", np.array([[c, -s], [s, c]]), pairs).reshape(stack.shape)


def test_soundness_refuses_entries_off_the_xor_blocks(family_s3, monkeypatch):
    # negative control: a real non-Clifford rotation keeps Omega real but
    # breaks its Z^a (x) Z^a symmetry; the block eigenvalues would then miss
    # the entries between blocks, so the probe (residual about 0.05) must
    # stop them
    _patch_encoders(monkeypatch, _ry_on_qubit_0)
    blocks, probe = ucharness._soundness_operator(family_s3)
    assert np.abs(blocks.imag).max() <= 1e-12
    assert ucharness._off_block_residual(blocks, probe) > 1e-3
    with pytest.raises(InvariantError, match="off its i \\^ j blocks"):
        ptp_soundness_exact(family_s3)


@pytest.mark.parametrize("planted, trips", [(2e-12, True), (5e-13, False)])
def test_probe_sees_one_entry_off_the_xor_blocks(family_s1, monkeypatch, planted, trips):
    # an explicit dense Omega at n = 2 with one entry planted between row
    # (0, 1) (block 1) and column (2, 0) (block 2): the probe reads it as a
    # residual of exactly that size, which trips the check above ATOL_EXACT
    dt = 1 << family_s1.n
    omega = soundness_operator(family_s1).copy()
    omega[0 * dt + 1, 2 * dt + 0] += planted
    ij = (np.arange(dt)[:, None] ^ np.arange(dt)).ravel()
    blocks = np.stack([omega[np.ix_(ij == c, ij == c)] for c in range(dt)])
    a, b = ucharness._probe_phases(dt)
    probe = (omega @ np.kron(a, b)).reshape(dt, dt)
    assert ucharness._off_block_residual(blocks, probe) == pytest.approx(planted, abs=1e-15)
    monkeypatch.setattr(ucharness, "_soundness_operator", lambda family: (blocks, probe))
    if trips:
        with pytest.raises(InvariantError, match="off its i \\^ j blocks"):
            ptp_soundness_exact(family_s1)
    else:
        assert ptp_soundness_exact(family_s1) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_ptp_soundness_command_exits_three_on_a_complex_operator(tmp_path, capsys, monkeypatch, family_s3):
    from qauthlab.cli import main

    fam_path = tmp_path / "fam.json"
    family_s3.save(fam_path)
    _patch_encoders(monkeypatch, _t_gate_on_qubit_0)
    assert main(["ptp-soundness", "--family", str(fam_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal invariant violated" in captured.err and "imaginary entries" in captured.err


def test_ptp_soundness_command_exits_three_off_the_xor_blocks(tmp_path, capsys, monkeypatch, family_s3):
    from qauthlab.cli import main

    fam_path = tmp_path / "fam.json"
    family_s3.save(fam_path)
    _patch_encoders(monkeypatch, _ry_on_qubit_0)
    assert main(["ptp-soundness", "--family", str(fam_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ptp_soundness_exact" in captured.err and "off its i ^ j blocks" in captured.err


def test_soundness_ignores_the_logical_basis(family_s3, monkeypatch):
    # a phase on the logical index (columns y 2^m + l) leaves every syndrome
    # projector as it was, so Omega stays real and the value stays put
    exact = ptp_soundness_exact(family_s3)
    dm = 1 << family_s3.m

    def logical_phase(stack):
        return stack * np.exp(1j * 0.7 * (1 + np.arange(stack.shape[2]) % dm))

    _patch_encoders(monkeypatch, logical_phase)
    assert abs(ptp_soundness_exact(family_s3) - exact) <= 1e-12


def test_qa_kg_advantage_identity_attack(family_s1):
    psi = purified_input("entangled", 1)
    desc = AttackDescriptor("identity", label="identity")
    real, ideal = run_qa_kg(psi, family_s1, desc), run_qa_kg_ideal(psi, family_s1, desc)
    rep = qa_kg_report(family_s1, desc, real, ideal)
    assert rep.advantage < 1e-9
    assert rep.passed
    assert rep.p_acc == pytest.approx(1.0)


def test_qa_kg_ideal_key_is_fresh_uniform(family_s1):
    psi = purified_input("entangled", 1)
    desc = AttackDescriptor("random_dilation", seed=12, env_dim=2, label="r12")
    ideal = run_qa_kg_ideal(psi, family_s1, desc)
    acc_blocks = {
        record_get(rec, "key_alice"): blk
        for rec, blk in ideal.blocks.items()
        if is_acc(rec)
    }
    assert len(acc_blocks) == 4
    weights = [blk.weight for blk in acc_blocks.values()]
    assert max(weights) - min(weights) < 1e-12
    mats = [blk.matrix / blk.weight for blk in acc_blocks.values()]
    for mat in mats[1:]:
        assert trace_norm(mat - mats[0]) < 1e-12


def test_qa_kg_advantage_suite(family_s1):
    psi = purified_input("entangled", 1)
    for desc in standard_suite(1, 1):
        real, ideal = run_qa_kg(psi, family_s1, desc), run_qa_kg_ideal(psi, family_s1, desc)
        rep = qa_kg_report(family_s1, desc, real, ideal)
        assert rep.passed, desc.name()
        assert abs(rep.p_acc - rep.extras["p_acc_ideal"]) < 1e-9


def test_qa_kg_advantage_other_inputs(family_s2):
    # the bound holds for every message input the environment can pick, not
    # just the maximally entangled one
    attacks = [
        a
        for a in standard_suite(1, 2)
        if a.name() in ("identity", "Z1", "depol-0.5", "swap-R-T0", "random-102")
    ]
    for spec in ("plus", "basis-0", "random-17"):
        psi = purified_input(spec, 1)
        for desc in attacks:
            real, ideal = run_qa_kg(psi, family_s2, desc), run_qa_kg_ideal(psi, family_s2, desc)
            rep = qa_kg_report(family_s2, desc, real, ideal)
            assert rep.passed, (spec, desc.name())


def test_two_qubit_messages_end_to_end():
    # nothing in the pipeline is single-logical-qubit specific
    from qauthlab.codes import ptc_epsilon_formula, search_ptc
    from qauthlab.protocols import ebit_ptc, ebit_ptp, run_qa_kg, run_tqa_kg

    fam = search_ptc(2, 2, target_eps=ptc_epsilon_formula(2, 2), budget=60, seed=4)
    assert fam.met_target
    assert ptp_soundness_exact(fam) <= fam.epsilon_verified + 1e-9
    psi = purified_input("entangled", 2)
    for label in ("identity", "X0", "random-101"):
        desc = next(a for a in standard_suite(2, 2) if a.name() == label)
        assert run_qa_kg(psi, fam, desc).distance(run_tqa_kg(psi, fam, desc)) < 1e-9
        assert ebit_ptc(fam, desc).distance(ebit_ptp(fam, desc)) < 1e-9
        assert qa_kg_report(fam, desc, run_qa_kg(psi, fam, desc), run_qa_kg_ideal(psi, fam, desc)).passed


def test_embedded_distance_matches_per_record(family_s1):
    desc = AttackDescriptor("depolarizing", strength=0.5, label="d5")
    real = ebit_ptp(family_s1, desc)
    ideal = _ebit_ideal_from(real, family_s1.m)
    # both carry an accept and a reject record, with matching layouts
    order = records(real)
    assert order == records(ideal)
    dense = trace_norm(embed(real, order) - embed(ideal, order))
    assert dense == pytest.approx(real.distance(ideal), abs=1e-10)
    assert abs(embed(real, order).trace() - 1.0) < 1e-10


def test_make_report_rejects_impossible_advantage():
    from qauthlab.hybrid import InvariantError
    from qauthlab.ucharness import make_report

    with pytest.raises(InvariantError, match="make_report: EBIT advantage 2.5 outside"):
        make_report("EBIT", AttackDescriptor("identity"), 1.0, 2.5, 2.0, 0.5)


def test_advantage_report_json(family_s1):
    desc = AttackDescriptor("identity", label="identity")
    rep = ebit_report(family_s1, desc, ebit_ptp(family_s1, desc))
    payload = rep.to_json()
    assert payload["pass"] is True
    assert payload["protocol"] == "EBIT"
    assert 0.0 <= payload["advantage"] <= 2.0
