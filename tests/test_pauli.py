import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qauthlab.pauli import PauliString, enumerate_paulis, hermitian_pauli, pauli_matrix

from oracles import pauli_mul, symplectic_product

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_single_qubit_matrices():
    assert np.allclose(pauli_matrix(PauliString(1, 1, 0)), X)
    assert np.allclose(pauli_matrix(PauliString(1, 0, 1)), Z)
    assert np.allclose(pauli_matrix(PauliString(1, 0, 0)), np.eye(2))
    # the (1,1) operator is the product X Z = [[0,-1],[1,0]]
    assert np.allclose(pauli_matrix(PauliString(1, 1, 1)), np.array([[0, -1], [1, 0]]))


def test_product_rule_x_then_z():
    xz = pauli_mul(PauliString(1, 1, 0), PauliString(1, 0, 1))
    assert (xz.x, xz.z, xz.phase_exp) == (1, 1, 0)
    assert np.allclose(pauli_matrix(xz), X @ Z)


def test_identity_is_neutral():
    p = PauliString(3, 0b101, 0b011, 1)
    assert pauli_mul(p, PauliString(3, 0, 0)) == p
    assert pauli_mul(PauliString(3, 0, 0), p) == p


def test_mul_matches_dense_exhaustive_two_qubits():
    for p in enumerate_paulis(2):
        for q in enumerate_paulis(2):
            lhs = pauli_matrix(pauli_mul(p, q))
            rhs = pauli_matrix(p) @ pauli_matrix(q)
            assert np.allclose(lhs, rhs, atol=1e-14)


@settings(max_examples=250, deadline=None)
@given(
    x1=st.integers(0, 63), z1=st.integers(0, 63),
    x2=st.integers(0, 63), z2=st.integers(0, 63),
    e1=st.integers(0, 3), e2=st.integers(0, 3),
)
def test_mul_matches_dense_random_six_qubits(x1, z1, x2, z2, e1, e2):
    p = PauliString(6, x1, z1, e1)
    q = PauliString(6, x2, z2, e2)
    lhs = pauli_matrix(pauli_mul(p, q))
    rhs = pauli_matrix(p) @ pauli_matrix(q)
    assert np.allclose(lhs, rhs, atol=1e-13)


@settings(max_examples=250, deadline=None)
@given(x1=st.integers(0, 63), z1=st.integers(0, 63), x2=st.integers(0, 63), z2=st.integers(0, 63))
def test_commutes_matches_dense(x1, z1, x2, z2):
    p = PauliString(6, x1, z1)
    q = PauliString(6, x2, z2)
    a = pauli_matrix(p) @ pauli_matrix(q)
    b = pauli_matrix(q) @ pauli_matrix(p)
    assert (symplectic_product(p, q) == 0) == np.allclose(a, b, atol=1e-13)


def test_mul_and_commutes_thousand_random_pairs_six_qubits():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        p = PauliString(6, int(rng.integers(0, 64)), int(rng.integers(0, 64)),
                        int(rng.integers(0, 4)))
        q = PauliString(6, int(rng.integers(0, 64)), int(rng.integers(0, 64)),
                        int(rng.integers(0, 4)))
        mp, mq = pauli_matrix(p), pauli_matrix(q)
        assert np.allclose(pauli_matrix(pauli_mul(p, q)), mp @ mq, atol=1e-13)
        assert (symplectic_product(p, q) == 0) == np.allclose(mp @ mq, mq @ mp, atol=1e-13)


def test_commutes_examples():
    assert symplectic_product(PauliString(1, 1, 0), PauliString(1, 0, 1)) != 0  # X vs Z
    # two per-qubit anticommutations cancel: XX vs the Hermitian YY
    xx = PauliString(2, 0b11, 0)
    yy = PauliString(2, 0b11, 0b11)
    assert symplectic_product(xx, yy) == 0
    p = PauliString(2, 0b10, 0b01)
    assert symplectic_product(p, p) == 0


def test_symplectic_product_antisymmetry():
    p = PauliString(3, 0b110, 0b001)
    q = PauliString(3, 0b011, 0b101)
    assert symplectic_product(p, q) == symplectic_product(q, p)
    with pytest.raises(ValueError):
        symplectic_product(p, PauliString(2, 1, 0))


def test_enumerate_counts():
    # x-major, z-minor: the identity is first, so callers skip it as item 0
    assert [(p.x, p.z) for p in enumerate_paulis(1)] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(list(enumerate_paulis(2))) == 16
    assert len(list(enumerate_paulis(3))) == 64


def test_hermitian_pauli():
    y = hermitian_pauli(1, 1, 1)
    my = pauli_matrix(y)
    assert np.allclose(my, np.array([[0, -1j], [1j, 0]]))  # the physics Y
    assert np.allclose(my @ my, np.eye(2))
    yy = hermitian_pauli(2, 0b11, 0b11)
    assert np.allclose(pauli_matrix(yy), np.kron(my, my))
    # every mask pair at n = 3 gives a Hermitian matrix
    for p in enumerate_paulis(3):
        mat = pauli_matrix(hermitian_pauli(3, p.x, p.z))
        assert np.array_equal(mat, mat.conj().T), (p.x, p.z)
    # bare (1,1) without the phase fix is anti-Hermitian
    bare = pauli_matrix(PauliString(1, 1, 1))
    assert np.array_equal(bare.conj().T, -bare)


def test_pauli_matrix_is_the_kron_chain():
    # the signed-permutation scatter against the kron of single-qubit factors
    # (qubit n-1 leftmost), for every Pauli and phase at n <= 4
    single = {(0, 0): np.eye(2, dtype=complex), (1, 0): X, (0, 1): Z, (1, 1): X @ Z}
    count = 0
    for n in range(1, 5):
        for x in range(1 << n):
            for z in range(1 << n):
                factors = [single[(x >> j) & 1, (z >> j) & 1] for j in reversed(range(n))]
                chain = factors[0]
                for factor in factors[1:]:
                    chain = np.kron(chain, factor)
                for phase in range(4):
                    p = PauliString(n, x, z, phase)
                    got = pauli_matrix(p)
                    assert got.dtype == complex and np.array_equal(got, p.phase * chain), (n, x, z, phase)
                    count += 1
    assert count == 4 * (4 + 16 + 64 + 256)


def test_text_roundtrip():
    p = PauliString(4, 0b1001, 0b0110)
    assert p.to_text() == "xz:1001|0110"
    back = PauliString.from_text(p.to_text())
    assert (back.x, back.z, back.n) == (p.x, p.z, p.n)
    with pytest.raises(ValueError):
        PauliString.from_text("1001|0110")
    with pytest.raises(ValueError):
        PauliString.from_text("xz:10|0")


def test_mask_bounds():
    with pytest.raises(ValueError):
        PauliString(2, 0b100, 0)
