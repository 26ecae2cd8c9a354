import numpy as np
import pytest

from qauthlab.adversary import AttackDescriptor, standard_suite
from qauthlab import approx_psqa
from qauthlab.approx_psqa import (
    _test_states,
    check_cipher_size,
    measure_delta,
    psqa_advantage,
    rsp_key,
    rsp_scale,
    run_psqa_kg,
    run_psrqa_kg,
    sample_cipher,
)
from qauthlab.pauli import PauliString, pauli_matrix
from qauthlab.protocols import ACC, run_qa_kg
from qauthlab.qmath import StateVector, haar_state, haar_unitary, trace_norm

from oracles import pauli_cipher, per_slice_run, psqa_branch


@pytest.fixture(scope="module")
def message():
    vec = np.array([0.6, 0.8j], dtype=complex)
    return vec / np.linalg.norm(vec)


def test_pauli_cipher_is_exact():
    cip = pauli_cipher(1)
    assert cip.key_count == 4
    assert cip.delta_measured < 1e-10


def test_sampled_cipher_reports_delta(message):
    cip = sample_cipher(1, 16, seed=3)
    assert cip.key_count == 16
    assert 0.0 < cip.delta_measured < 2.0
    again = sample_cipher(1, 16, seed=3)
    assert again.delta_measured == cip.delta_measured
    for u in cip.unitaries:
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


def test_sample_cipher_refuses_a_cipher_too_large_to_measure(monkeypatch):
    # measure_delta holds (2^(m+1) + 2000) * K * 2^m entries: at most 2^24
    # means K <= 4185 at m = 1 and K <= 2088 at m = 2
    for m, largest in ((1, 4185), (2, 2088)):
        check_cipher_size(m, largest)
        with pytest.raises(ValueError, match=r"above the limit 2\^24 = 16777216"):
            check_cipher_size(m, largest + 1)

    def no_work(*args, **kwargs):
        raise AssertionError("the cipher was drawn")

    monkeypatch.setattr(approx_psqa, "haar_unitary", no_work)
    with pytest.raises(ValueError, match="a cipher of K = 4186 keys on m = 1 qubits"):
        sample_cipher(1, 4186, seed=0)


def test_delta_shrinks_with_key_count_in_distribution():
    # monotone trend in expectation: average measured delta over seeds drops
    # as the cipher grows
    small = np.mean([sample_cipher(1, 4, seed=s).delta_measured for s in range(6)])
    large = np.mean([sample_cipher(1, 32, seed=s).delta_measured for s in range(6)])
    assert large < small


def flattening(unitaries, vec) -> float:
    d = len(vec)
    rho = np.outer(vec, vec.conj())
    avg = sum(u @ rho @ u.conj().T for u in unitaries) / len(unitaries)
    return d * np.linalg.norm(avg - np.eye(d) / d, 2)


def test_measure_delta_matches_flattening_definition(rng):
    cip = sample_cipher(1, 8, seed=1)
    assert flattening(cip.unitaries, haar_state(2, rng)) <= cip.delta_measured + 1e-12
    # the batched maximum against a per-state loop over the same test states
    for m, seed in ((1, 1), (1, 7), (2, 3)):
        unitaries = sample_cipher(m, 8, seed).unitaries
        states = _test_states(m, np.random.default_rng(seed ^ 0x5EED), 300)
        oracle = max(flattening(unitaries, vec) for vec in states)
        assert measure_delta(unitaries, m, seed=seed, samples=300) == pytest.approx(oracle, rel=0, abs=1e-14)


def _check_rsp_key(cipher, vec):
    """``rsp_key``'s elements K_v^dag K_v against their definition:
    (U_k rho U_k^dag)^T / M for each key k, then F = I - S^T / M, complete,
    within 1e-12; returns F."""
    total, scale, p_fail = rsp_scale(cipher, vec)
    label, values, names, ops, out, _ = rsp_key(cipher, vec)
    assert (label, values, names, out) == ("k", [*range(cipher.key_count), "f"], ("Ams",), (("Ams", len(vec)),))
    elements = ops.conj().transpose(0, 2, 1) @ ops
    rho = np.outer(vec, vec.conj())
    for u, elem in zip(cipher.unitaries, elements):
        np.testing.assert_allclose(elem, (u @ rho @ u.conj().T).T / scale, rtol=0, atol=1e-12)
    np.testing.assert_allclose(elements[-1], np.eye(len(vec)) - total.T / scale, rtol=0, atol=1e-12)
    np.testing.assert_allclose(elements.sum(axis=0), np.eye(len(vec)), rtol=0, atol=1e-12)
    # on half of a maximally entangled pair F has probability Tr(F) / 2^m
    assert np.trace(elements[-1]).real / len(vec) == pytest.approx(p_fail, abs=1e-12)
    return elements[-1]


def test_rsp_key_structure(message):
    cip = pauli_cipher(1)
    failure = _check_rsp_key(cip, message)
    # with the exact cipher the failure element vanishes
    assert np.abs(failure).max() < 1e-12
    assert rsp_scale(cip, message)[-1] < 1e-10
    # on accept, U_k^dag undoes the k-th encryption; f leaves the far half as it is
    fix = rsp_key(cip, message)[5]
    for k in range(4):
        x, z = divmod(k, 2)
        np.testing.assert_array_equal(fix[k], pauli_matrix(PauliString(1, x, z)).conj().T)
    np.testing.assert_array_equal(fix[-1], np.eye(2))


def test_rsp_key_failure_probability(message):
    cip = sample_cipher(1, 8, seed=5)
    _check_rsp_key(cip, message)
    _, scale, p_fail = rsp_scale(cip, message)
    assert 0.0 <= p_fail < 1.0
    assert scale >= cip.key_count / 2.0 - 1e-12
    with pytest.raises(ValueError):
        rsp_key(cip, np.array([1.0, 1.0]))


def test_rsp_scale_reads_the_keys_failure_element(message):
    # the psqa message and the cipher of `psqa --seed 1 --K 16`, the module's
    # message with a sampled and the exact cipher, and a two-qubit cipher
    vec = haar_unitary(2, np.random.default_rng(1))[:, 0]
    cases = (
        (sample_cipher(1, 16, 1), vec),
        (sample_cipher(1, 16, 3), message),
        (pauli_cipher(1), message),
        (sample_cipher(2, 16, 2), haar_state(4, np.random.default_rng(2))),
    )
    for cip, msg in cases:
        _check_rsp_key(cip, msg)
    with pytest.raises(ValueError, match="unit vector"):
        rsp_scale(pauli_cipher(1), np.array([1.0, 1.0]))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("keys", [1, 4, 16])
def test_rsp_scale_is_the_operator_norm_of_s(m, keys):
    # M is the top eigenvalue of the PSD sum S; the SVD norm is the definition
    for seed in range(3):
        cipher = sample_cipher(m, keys, seed=seed)
        vec = haar_state(1 << m, np.random.default_rng(seed))
        total, scale, _ = rsp_scale(cipher, vec)
        rho = np.outer(vec, vec.conj())
        want = sum(u @ rho @ u.conj().T for u in cipher.unitaries)
        assert np.abs(total - want).max() <= 1e-12
        assert abs(scale - np.linalg.norm(total, 2)) <= 1e-12


def test_psqa_reduces_to_qa_with_pauli_cipher(family_s1, message):
    cip = pauli_cipher(1)
    qa_input = StateVector(np.kron([1.0], message), (("R", 1), ("M", 2)))
    for label in ("identity", "X0", "depol-0.5", "random-102"):
        desc = next(a for a in standard_suite(1, 1) if a.name() == label)
        if desc.acts_on != ("T",):
            continue
        psqa = run_psqa_kg(message, cip, family_s1, desc)
        qa = run_qa_kg(qa_input, family_s1, desc)
        total = 0.0
        for rec, blk in qa.blocks.items():
            d = dict(rec)
            if d["verdict"] == ACC:
                x, z = d["key_alice"]
                target = (("verdict", ACC), ("key", 2 * x + z))
            else:
                target = (("verdict", "REJ"), ("key", "ERR"))
            other = psqa.blocks.get(target)
            total += trace_norm(blk.matrix - other.matrix) if other else blk.weight
        assert total < 1e-9, label


def test_psrqa_matches_psqa_branch_for_branch(family_s1, message):
    cip = sample_cipher(1, 8, seed=5)
    p_fail = rsp_scale(cip, message)[-1]
    for label in ("identity", "depol-0.5", "random-103"):
        desc = next(a for a in standard_suite(1, 1) if a.name() == label)
        # one record per branch, through the per-slice oracle
        psqa = per_slice_run(lambda: run_psqa_kg(message, cip, family_s1, desc), family_s1, desc, psqa_branch)
        psrqa = per_slice_run(lambda: run_psrqa_kg(message, cip, family_s1, desc), family_s1, desc, psqa_branch)
        scale = 1.0 - p_fail
        for rec, blk in psqa.blocks.items():
            other = psrqa.blocks.get(rec)
            assert other is not None, rec
            assert other.weight == pytest.approx(scale * blk.weight, abs=1e-12)
            assert (
                trace_norm(blk.matrix / blk.weight - other.matrix / other.weight)
                < 1e-9
            )
        f_mass = sum(
            blk.weight
            for rec, blk in psrqa.blocks.items()
            if dict(dict(rec)["detail"]).get("k") == "f"
        )
        assert f_mass == pytest.approx(p_fail, abs=1e-10)


def test_psqa_advantage_identity_attack(family_s1, message):
    cip = sample_cipher(1, 16, seed=3)
    rep = psqa_advantage(message, cip, family_s1, AttackDescriptor("identity", label="identity"))
    assert rep.advantage < 1e-9
    assert rep.passed


def test_psqa_advantage_bound_over_attacks(family_s2, message):
    cip = sample_cipher(1, 16, seed=3)
    for label in ("X0", "depol-0.5", "swap-held", "random-101"):
        desc = next(a for a in standard_suite(1, 2) if a.name() == label)
        rep = psqa_advantage(message, cip, family_s2, desc)
        assert rep.passed, label
        assert rep.extras["failure_probability"] >= 0.0
        assert rep.bound <= 2.0


def test_cipher_json(message):
    cip = sample_cipher(1, 8, seed=2)
    payload = cip.to_json()
    assert payload["K"] == 8 and payload["m"] == 1 and payload["seed"] == 2
    assert payload["delta_measured"] == cip.delta_measured
