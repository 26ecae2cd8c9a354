"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines. Everything is exact-identity checking, exhaustive brute force, or
bound verification at m = 1, s <= 3; no criterion relies on sampling noise.
"""

import time

import numpy as np
import pytest

from qauthlab.adversary import AttackDescriptor, purified_input, standard_suite
from qauthlab.approx_psqa import (
    psqa_advantage,
    rsp_scale,
    run_psqa_kg,
    sample_cipher,
)
from qauthlab.classical_wc import (
    key_leak_demo,
    poly_hash_family,
    wc_kg_advantage,
)
from qauthlab.codes import cost_formulas, ptc_epsilon_formula, search_ptc, verify_ptc
from qauthlab.hybrid import record_get
from qauthlab.pauli import PauliString, pauli_matrix
from qauthlab.protocols import (
    ACC,
    ebit_ptc,
    ebit_ptp,
    run_qa_kg,
    run_tqa_kg,
)
from qauthlab.qmath import (
    StateVector,
    encoder_postselection_residual,
    haar_state,
    haar_unitary,
    max_entangled_vector,
    trace_norm,
    transpose_trick_residual,
)
from qauthlab.ucharness import (
    ebit_advantage_bound,
    ebit_report,
    ptp_soundness_exact,
    qa_kg_report,
    run_qa_kg_ideal,
)

from oracles import completeness_exact, pauli_cipher, teleport

IDENTITY_TOL = 1e-12
PIPELINE_TOL = 1e-9


def is_acc(rec):
    return record_get(rec, "verdict") == ACC


def report(line: str):
    print(f"\n[acceptance] {line}")


def test_criterion_1_exact_identities(family_s1, family_s2, family_s3):
    rng = np.random.default_rng(1)
    # transpose identities on 100 random instances each, residual < 1e-12
    worst = 0.0
    for _ in range(100):
        d1, d2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        mat = rng.standard_normal((d2, d1)) + 1j * rng.standard_normal((d2, d1))
        worst = max(worst, transpose_trick_residual(mat))
    for _ in range(100):
        d, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        u = haar_unitary(d * d2, rng)
        worst_post = encoder_postselection_residual(u, int(rng.integers(0, d)), d, d2)
        worst = max(worst, worst_post)
    assert worst < IDENTITY_TOL

    # the two circuit-rewrite identities, every attack in the standard suite
    psi = purified_input("entangled", 1)
    worst_twin = worst_forms = 0.0
    for family in (family_s1, family_s2):
        for desc in standard_suite(family.m, family.s):
            qa = run_qa_kg(psi, family, desc)
            tqa = run_tqa_kg(psi, family, desc)
            worst_twin = max(worst_twin, qa.distance(tqa))
            worst_forms = max(
                worst_forms, ebit_ptc(family, desc).distance(ebit_ptp(family, desc))
            )
    for desc in standard_suite(family_s3.m, family_s3.s):
        worst_forms = max(
            worst_forms, ebit_ptc(family_s3, desc).distance(ebit_ptp(family_s3, desc))
        )
    assert worst_twin < PIPELINE_TOL
    assert worst_forms < PIPELINE_TOL

    # teleportation and encrypt/decrypt round trips, exact
    vec = haar_state(2, rng)
    msg = StateVector(vec, (("M", 2),))
    resource = StateVector(max_entangled_vector(2), (("A", 2), ("B", 2)))
    for prob, _, post in teleport(msg, resource):
        assert abs(prob - 0.25) < IDENTITY_TOL
        assert abs(abs(np.vdot(post.amplitudes, vec)) - 1.0) < IDENTITY_TOL
    for x in range(2):
        for z in range(2):
            op = pauli_matrix(PauliString(1, x, z))
            back = op.conj().T @ (op @ vec)
            assert np.linalg.norm(back - vec) < IDENTITY_TOL
    report(
        "criterion 1 PASS: transpose identities < 1e-12 (200 instances); "
        f"protocol rewrite identities < 1e-9 (worst {worst_twin:.1e} / {worst_forms:.1e}); "
        "teleport and encrypt/decrypt round trips exact"
    )


def test_criterion_2_encryption_soundness():
    rng = np.random.default_rng(2)
    worst = 0.0
    for m in (1, 2):
        d = 1 << m
        for _ in range(20):
            vec = haar_state(d, rng)
            rho = np.outer(vec, vec.conj())
            avg = sum(
                pauli_matrix(PauliString(m, x, z)) @ rho @ pauli_matrix(PauliString(m, x, z)).conj().T
                for x in range(d)
                for z in range(d)
            ) / (d * d)
            worst = max(worst, float(np.abs(avg - np.eye(d) / d).max()))
    assert worst < 1e-10
    report(f"criterion 2 PASS: uniform-key average flattens 20 states at m=1,2 (worst dev {worst:.1e})")


def test_criterion_3_family_search_meets_formula():
    start = time.time()
    found = {}
    for s in (1, 2, 3):
        formula = ptc_epsilon_formula(1, s)
        fam = search_ptc(1, s, target_eps=formula, budget=120, seed=11)
        assert fam.met_target
        assert fam.epsilon_verified <= formula
        assert verify_ptc(fam.codes) == fam.epsilon_verified  # exhaustive, 4^n - 1 errors
        found[s] = (fam.epsilon_verified, formula, len(fam.codes))
    elapsed = time.time() - start
    assert elapsed < 60.0
    detail = "; ".join(
        f"s={s}: {eps:.4f} <= {formula:.4f} ({size} codes)"
        for s, (eps, formula, size) in found.items()
    )
    report(f"criterion 3 PASS in {elapsed:.1f}s: {detail}")


def test_criterion_4_completeness_and_exact_soundness(family_s1, family_s2, family_s3):
    phi = max_entangled_vector(2)
    target = np.outer(phi, phi.conj())
    lines = []
    for fam in (family_s1, family_s2, family_s3):
        final = ebit_ptp(fam, AttackDescriptor("identity", label="identity"))
        assert final.weight_where(is_acc) == pytest.approx(1.0, abs=1e-10)
        blk = final.conditional_where(is_acc)
        assert np.abs(blk.matrix / blk.weight - target).max() < 1e-10
        exact = ptp_soundness_exact(fam)
        assert exact <= fam.epsilon_verified + PIPELINE_TOL
        lines.append(f"s={fam.s}: {exact:.6f} <= {fam.epsilon_verified:.6f}")
    report("criterion 4 PASS: bilateral test exact on perfect ebits; worst-case soundness " + "; ".join(lines))


def test_criterion_5_uc_bounds(family_s2, family_s3):
    psi = purified_input("entangled", 1)
    checked = 0
    for fam in (family_s2, family_s3):
        eps = fam.epsilon_verified
        bound = ebit_advantage_bound(eps)
        for desc in standard_suite(fam.m, fam.s):
            rep_e = ebit_report(fam, desc, ebit_ptp(fam, desc))
            assert rep_e.advantage <= bound + PIPELINE_TOL, desc.name()
            assert (
                abs(rep_e.advantage - rep_e.extras["advantage_factored"]) < PIPELINE_TOL
            )
            defect = rep_e.extras["overlap_defect"]
            assert rep_e.extras["fidelity_acc"] >= (1.0 - defect) ** 2 - PIPELINE_TOL, desc.name()
            if rep_e.p_acc > eps ** (1.0 / 3.0):
                assert defect <= eps / rep_e.p_acc + PIPELINE_TOL
            assert rep_e.p_acc * defect <= eps + PIPELINE_TOL, desc.name()
            real, ideal = run_qa_kg(psi, fam, desc), run_qa_kg_ideal(psi, fam, desc)
            rep_q = qa_kg_report(fam, desc, real, ideal)
            assert rep_q.advantage <= bound + PIPELINE_TOL, desc.name()
            checked += 1
    report(
        f"criterion 5 PASS: {checked} suite attacks at s=2,3 within 2*sqrt(2)*eps^(1/3); "
        "factored form matches direct to 1e-9; fidelity chain and accept-defect inequalities hold"
    )


def test_criterion_6_key_recycling_marginals(family_s2):
    psi = purified_input("entangled", 1)
    ident = AttackDescriptor("identity", label="identity")
    worst = 0.0
    for side in (run_qa_kg(psi, family_s2, ident), run_qa_kg_ideal(psi, family_s2, ident)):
        blocks = {rec: blk for rec, blk in side.blocks.items() if is_acc(rec)}
        assert len(blocks) == 4
        ref = None
        for rec, blk in blocks.items():
            assert blk.weight == pytest.approx(0.25, abs=PIPELINE_TOL)  # exactly uniform
            cond = blk.matrix / blk.weight
            if ref is None:
                ref = cond
            worst = max(worst, trace_norm(cond - ref))
    assert worst < PIPELINE_TOL
    report(
        "criterion 6 PASS: on accept under no tampering the recycled key is uniform and "
        f"in product with R, E, M on both sides (worst conditional gap {worst:.1e})"
    )


def test_criterion_7_classical_authentication():
    results = []
    for w, L in ((2, 1), (3, 1), (2, 2)):
        fam = poly_hash_family(w, L)
        rep = wc_kg_advantage(fam)  # exact max over all deterministic substitutions
        assert rep["pass"]
        assert rep["advantage"] <= fam.eps_asu2 + 1e-12
        results.append(f"w={w},L={L}: {rep['advantage']:.4f} <= {fam.eps_asu2:.4f}")
    fam3 = poly_hash_family(3, 1)
    assert completeness_exact(fam3)
    leak = key_leak_demo(fam3)
    assert leak["pass"] and leak["leakage_bits"] > 0.0
    report(
        "criterion 7 PASS: exhaustive substitution advantage bounded ("
        + "; ".join(results)
        + f"); completeness exact; guess-and-tamper leaks {leak['leakage_bits']:.3f} bits"
    )


def test_criterion_8_pure_state_variant(family_s1, family_s3):
    rng = np.random.default_rng(8)
    message = haar_state(2, rng)
    # exact Pauli cipher: branch-for-branch reduction to the standard protocol
    cip = pauli_cipher(1)
    qa_input = StateVector(np.kron([1.0], message), (("R", 1), ("M", 2)))
    worst = 0.0
    for desc in standard_suite(1, 1):
        if desc.acts_on != ("T",):
            continue
        psqa = run_psqa_kg(message, cip, family_s1, desc)
        qa = run_qa_kg(qa_input, family_s1, desc)
        total = 0.0
        for rec, blk in qa.blocks.items():
            d = dict(rec)
            if d["verdict"] == ACC:
                x, z = d["key_alice"]
                key = 2 * x + z
                other = psqa.blocks.get((("verdict", ACC), ("key", key)))
            else:
                other = psqa.blocks.get((("verdict", "REJ"), ("key", "ERR")))
            total += trace_norm(blk.matrix - other.matrix) if other else blk.weight
        worst = max(worst, total)
    assert worst < PIPELINE_TOL

    # sampled ciphers: measured advantage within bound + 2 Pr(f), Pr(f) measured
    measured = []
    for seed in (3, 4):
        cip_s = sample_cipher(1, 16, seed=seed)
        p_f = rsp_scale(cip_s, message)[-1]
        for label in ("identity", "X3", "depol-0.5", "random-101"):
            desc = next(a for a in standard_suite(1, 3) if a.name() == label)
            rep = psqa_advantage(message, cip_s, family_s3, desc)
            assert rep.passed, (seed, label)
            measured.append(rep.advantage)
            assert rep.extras["failure_probability"] == pytest.approx(p_f)
    report(
        f"criterion 8 PASS: exact-cipher reduction branch-for-branch (worst {worst:.1e}); "
        f"sampled ciphers within bound + 2 Pr(f) (max advantage {max(measured):.3f})"
    )


def test_criterion_9_cost_accounting():
    cases = {
        (1, 1): (2, 2 + 1 + np.log2(3.0)),
        (1, 2): (3, 2 + 2 + np.log2(5.0)),
        (1, 3): (4, 2 + 3 + np.log2(9.0)),
        (2, 3): (5, 4 + 3 + np.log2(9.0)),
    }
    for (m, s), (qubits, key_bits) in cases.items():
        got_q, got_k = cost_formulas(m, s)
        assert got_q == qubits
        assert got_k == pytest.approx(key_bits, abs=0)
    report("criterion 9 PASS: communication and key costs match m+s and 2m+s+log2(2^s+1) exactly")
