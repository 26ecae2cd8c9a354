import warnings

import numpy as np
import pytest

from qauthlab import adversary
from qauthlab.adversary import (
    AttackDescriptor,
    build_attack,
    purified_input,
    standard_suite,
)
from qauthlab.pauli import hermitian_pauli, pauli_matrix
from qauthlab.qmath import InvariantError, RegisterError, StateVector, haar_state

from oracles import attack_from_json, random_density


DIMS = {"R": 2, "T": 8}


def channel_output(v, rho):
    """Tr_E (V rho V^dag) for an isometry whose row index is (out, env)."""
    d = v.shape[1]
    k = v.shape[0] // d
    return (v @ rho @ v.conj().T).reshape(d, k, d, k).trace(axis1=1, axis2=3)


def depolarized(rho, n, q, p):
    """(1 - p) rho + p (I/2 on qubit q) (x) Tr_q rho, qubit 0 least significant."""
    row, col = n - 1 - q, 2 * n - 1 - q
    reduced = np.trace(rho.reshape((2,) * 2 * n), axis1=row, axis2=col)
    mixed = np.moveaxis(np.multiply.outer(reduced, np.eye(2) / 2), (-2, -1), (row, col))
    return (1 - p) * rho + p * mixed.reshape(rho.shape)


def test_identity_attack():
    v = build_attack(AttackDescriptor("identity"), DIMS)
    assert v.shape == (8, 8)  # environment of dimension 1
    assert np.array_equal(v, np.eye(8))
    assert not v.flags.writeable


def test_fixed_pauli_attack():
    op = build_attack(AttackDescriptor("fixed_pauli", x=0b001, z=0), DIMS)
    assert op.shape == (8, 8)
    assert np.allclose(op @ op, np.eye(8))
    basis0 = np.zeros(8)
    basis0[0] = 1.0
    assert np.allclose(op @ basis0, np.eye(8)[:, 1])  # X on qubit 0 flips the low bit


def test_mixture_weights_must_normalize():
    with pytest.raises(ValueError):
        build_attack(
            AttackDescriptor("pauli_mixture", weights=((0.5, 0, 0), (0.6, 1, 0))), DIMS
        )


def test_mixture_refuses_a_negative_weight_before_any_square_root():
    # the weights sum to 1; the negative one is refused by name, not by the
    # isometry check after np.sqrt has made NaN entries
    desc = AttackDescriptor("pauli_mixture", weights=((1.5, 0, 0), (-0.5, 1, 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"mixture weight -0\.5 .* is negative"):
            build_attack(desc, {"T": 4})


def test_pauli_mixture_isometry_matches_the_weighted_sum(rng):
    weights = ((0.25, 0b001, 0b001), (0.75, 0b111, 0b111))
    v = build_attack(AttackDescriptor("pauli_mixture", weights=weights), DIMS)
    assert v.shape == (16, 8)
    for _ in range(5):
        rho = random_density(8, rng)
        want = sum(w * pauli_matrix(hermitian_pauli(3, x, z)) @ rho @ pauli_matrix(hermitian_pauli(3, x, z))
                   for w, x, z in weights)
        np.testing.assert_allclose(channel_output(v, rho), want, rtol=0, atol=1e-14)


def test_depolarizing_strength_range():
    for p in (0.1, 0.5, 1.0):
        v = build_attack(AttackDescriptor("depolarizing", strength=p), DIMS)
        assert np.allclose(v.conj().T @ v, np.eye(8), atol=1e-12)
    with pytest.raises(ValueError):
        build_attack(AttackDescriptor("depolarizing", strength=1.5), DIMS)


def test_depolarizing_isometry_matches_the_depolarizing_formula(rng):
    for p in (0.1, 0.5, 1.0):
        for q in range(3):
            v = build_attack(AttackDescriptor("depolarizing", strength=p, qubit=q), DIMS)
            assert v.shape == (32, 8)  # Kraus rank 4: I, X, Y, Z on qubit q
            for _ in range(3):
                rho = random_density(8, rng)
                np.testing.assert_allclose(
                    channel_output(v, rho), depolarized(rho, 3, q, p), rtol=0, atol=1e-14
                )
    # at full strength a one-qubit state is sent to I/2
    v = build_attack(AttackDescriptor("depolarizing", strength=1.0), {"T": 2})
    np.testing.assert_allclose(channel_output(v, np.diag([1.0, 0.0])), np.eye(2) / 2, rtol=0, atol=1e-15)


def test_swap_held_resets_t_and_keeps_it_in_e(rng):
    v = build_attack(AttackDescriptor("swap_held"), DIMS)
    assert v.shape == (64, 8)
    ket0 = np.eye(8)[:, 0]
    for _ in range(5):
        psi = haar_state(8, rng)
        # row (t, e): T is |0>, E holds the old T
        np.testing.assert_array_equal(v @ psi, np.kron(ket0, psi))


def test_build_attack_refuses_a_non_isometry(monkeypatch):
    # a Pauli table off by 10% makes V^dag V = 0.81 I; every descriptor is
    # the program's own, so this is an InvariantError, never a ValueError
    def scaled(p):
        return 0.9 * pauli_matrix(p)

    monkeypatch.setattr(adversary, "pauli_matrix", scaled)
    with pytest.raises(InvariantError, match=r"'X0' is not an isometry: V\^dag V is 0.19 from I"):
        build_attack(AttackDescriptor("fixed_pauli", x=1, label="X0"), DIMS)
    with pytest.raises(InvariantError, match="not an isometry"):
        build_attack(AttackDescriptor("depolarizing", strength=0.5), DIMS)
    monkeypatch.undo()
    build_attack(AttackDescriptor("fixed_pauli", x=1, label="X0"), DIMS)


def test_random_dilation_is_seed_deterministic():
    d1 = build_attack(AttackDescriptor("random_dilation", seed=9, env_dim=2), DIMS)
    d2 = build_attack(AttackDescriptor("random_dilation", seed=9, env_dim=2), DIMS)
    assert d1.shape == (16, 8)
    np.testing.assert_array_equal(d1, d2)
    d3 = build_attack(AttackDescriptor("random_dilation", seed=10, env_dim=2), DIMS)
    assert not np.allclose(d1, d3)


def test_swap_with_r_is_a_swap():
    dims = {"R": 2, "T": 2}
    op = build_attack(
        AttackDescriptor("swap_with_r", acts_on=("R", "T"), qubit=0), dims
    )
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    np.testing.assert_allclose(op, swap)


def test_r_t_permutations_match_their_pauli_expansions():
    # R is one qubit, most significant; the R-T gates act on R and T qubit q:
    # CNOT = |0><0| (x) I + |1><1| (x) X_q, SWAP = (I + XX_q + YY_q + ZZ_q) / 2
    one = {(x, z): pauli_matrix(hermitian_pauli(1, x, z)) for x in (0, 1) for z in (0, 1)}
    for n in (2, 3, 4):
        dims = {"R": 2, "T": 1 << n}
        for q in range(n):
            on_t = {key: pauli_matrix(hermitian_pauli(n, key[0] << q, key[1] << q)) for key in one}
            cnot = np.kron(np.diag([1, 0]), on_t[0, 0]) + np.kron(np.diag([0, 1]), on_t[1, 0])
            swap = sum(np.kron(one[key], on_t[key]) for key in one) / 2
            for kind, want in (("cnot_from_r", cnot), ("swap_with_r", swap)):
                v = build_attack(AttackDescriptor(kind, acts_on=("R", "T"), qubit=q), dims)
                np.testing.assert_allclose(v, want, rtol=0, atol=1e-15, err_msg=f"{kind} n={n} q={q}")


def test_suite_composition_and_determinism():
    for m, s in ((1, 1), (1, 2), (1, 3)):
        suite = standard_suite(m, s)
        n = m + s
        assert len(suite) == 15 + 3 * n
        assert len(suite) >= 20
        labels = [a.name() for a in suite]
        assert labels[0] == "identity"
        assert len(set(labels)) == len(labels)
        again = standard_suite(m, s)
        assert [a.to_json() for a in again] == [a.to_json() for a in suite]
        # every member compiles (build_attack checks V^dag V = I) and maps
        # the registers it acts on to themselves and an environment
        for desc in suite:
            v = build_attack(desc, {"R": 1 << m, "T": 1 << n})
            assert v.shape[0] % v.shape[1] == 0


def test_suite_is_built_once_per_m_and_s():
    suite = standard_suite(1, 3)
    assert isinstance(suite, tuple)
    assert standard_suite(1, 3) is suite
    assert standard_suite(1, 2) is not suite


def test_descriptor_json_roundtrip():
    suite = standard_suite(1, 2)
    for desc in suite:
        back = attack_from_json(desc.to_json())
        assert back.to_json() == desc.to_json()


def test_purified_inputs():
    ent = purified_input("entangled", 1)
    assert isinstance(ent, StateVector)
    np.testing.assert_allclose(ent.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))

    plus = purified_input("plus", 1)
    np.testing.assert_allclose(plus.amplitudes, np.array([1, 1, 0, 0]) / np.sqrt(2))

    basis = purified_input("basis-1", 1)
    np.testing.assert_allclose(basis.amplitudes, [0, 1, 0, 0])

    r1 = purified_input("random-5", 1)
    r2 = purified_input("random-5", 1)
    np.testing.assert_allclose(r1.amplitudes, r2.amplitudes)
    assert abs(np.vdot(r1.amplitudes, r1.amplitudes) - 1.0) < 1e-12

    with pytest.raises(ValueError):
        purified_input("nonsense", 1)


def test_unknown_kind_and_missing_register():
    with pytest.raises(ValueError):
        build_attack(AttackDescriptor("bogus"), DIMS)
    with pytest.raises(RegisterError):
        build_attack(AttackDescriptor("identity", acts_on=("R", "T")), {"T": 8})


def test_suite_dilations_roundtrip(rng):
    # the environment E of each suite attack is as large as its Kraus rank, and
    # discarding E reproduces the operator-sum action of the Kraus operators
    # V[e::rank] that build_attack documents
    for s in (1, 2, 3):
        dims = {"R": 2, "T": 2 << s}
        for desc in standard_suite(1, s):
            v = build_attack(desc, dims)
            rank = {
                "pauli_mixture": len(desc.weights),
                "depolarizing": 4,
                "swap_held": dims["T"],
                "random_dilation": desc.env_dim,
            }.get(desc.kind, 1)
            d = int(np.prod([dims[name] for name in desc.acts_on]))
            assert v.shape == (d * rank, d), desc.name()
            assert not v.flags.writeable
            assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-12, desc.name()
            rho = random_density(d, rng)
            kraus_sum = sum(v[e::rank] @ rho @ v[e::rank].conj().T for e in range(rank))
            np.testing.assert_allclose(
                channel_output(v, rho), kraus_sum, rtol=0, atol=1e-14, err_msg=desc.name()
            )


def test_suite_covers_sure_accept_and_strong_reject(family_s2):
    # the suite must contain the no-op (accepted with certainty) and at least
    # one keyed Pauli rejected with probability >= 1 - epsilon; acceptance of
    # a keyed Pauli equals its zero-syndrome fraction over the family
    from oracles import syndrome
    from qauthlab.pauli import PauliString

    suite = standard_suite(family_s2.m, family_s2.s)
    assert any(a.kind == "identity" for a in suite)
    best_reject = 0.0
    for desc in suite:
        if desc.kind != "fixed_pauli":
            continue
        e = PauliString(family_s2.n, desc.x, desc.z)
        p_acc = sum(1 for c in family_s2.codes if syndrome(c, e) == 0) / len(
            family_s2.codes
        )
        best_reject = max(best_reject, 1.0 - p_acc)
    assert best_reject >= 1.0 - family_s2.epsilon_verified - 1e-12
