import numpy as np
import pytest

from qauthlab import qmath
from qauthlab.qmath import (
    DensityMatrix,
    InvariantError,
    RegisterError,
    StateVector,
    encoder_postselection_residual,
    fidelity,
    haar_state,
    haar_unitary,
    max_entangled_vector,
    partial_trace,
    psd_sqrt,
    replace_factors,
    tensor,
    trace_norm,
    transpose_trick_residual,
)

from oracles import random_density


def density(state: StateVector) -> DensityMatrix:
    return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()), state.registers)


def ket(*amps):
    v = np.asarray(amps, dtype=complex)
    return v / np.linalg.norm(v)


def test_state_vector_validation():
    sv = StateVector(ket(1, 0), (("Q", 2),))
    assert sv.amplitudes.size == 2
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]), (("Q", 2),))
    with pytest.raises(RegisterError):
        StateVector(ket(1, 0, 0), (("Q", 2),))
    with pytest.raises(RegisterError):
        StateVector(ket(1, 0, 0, 0), (("Q", 2), ("Q", 2)))


def test_density_validation():
    DensityMatrix(np.eye(2) / 2, (("Q", 2),))
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]]), (("Q", 2),))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]), (("Q", 2),))


def test_hermitian_check_agrees_with_allclose():
    # DensityMatrix tests |rho - rho^dag| <= 1e-8 + 1e-5 |rho^dag| in one
    # comparison: np.allclose's formula at the tolerances it used, so the
    # verdict must match np.allclose on matrices near the threshold: dense
    # ones, where the 1e-5 relative term sets it, and diagonal ones, whose
    # zero entries leave the 1e-8 alone
    rng = np.random.default_rng(20261020)
    verdicts = set()
    for gap in np.logspace(-10, -6, 33):
        for k in range(4):
            rho = random_density(4, rng) if k % 2 else np.diag(rng.dirichlet(np.ones(4))).astype(complex)
            i, j = rng.choice(4, size=2, replace=False)
            rho[i, j] += gap * np.exp(2j * np.pi * rng.random())
            hermitian = np.allclose(rho, rho.conj().T, atol=1e-8)
            try:
                DensityMatrix(rho, (("Q", 4),))
                refused = False
            except ValueError as exc:
                refused = "not Hermitian" in str(exc)
            assert refused is not hermitian, (gap, i, j)
            verdicts.add(hermitian)
    assert verdicts == {True, False}
    rho = random_density(4, rng)
    rho[1, 2] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(rho, (("Q", 4),))
    # np.allclose takes a symmetric inf as close; here inf - inf is NaN
    rho[1, 2] = rho[2, 1] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(rho, (("Q", 4),))


def test_partial_trace_refusal_is_an_invariant_error(monkeypatch):
    # the marginal of a valid state is valid: a refused one is a fault in
    # the program, not in its input
    rho = density(StateVector(ket(1, 0, 0, 0), (("A", 2), ("B", 2))))
    monkeypatch.setattr(qmath, "_trace_out_axes", lambda *args: np.diag([1.5, -0.5]))
    with pytest.raises(InvariantError, match="partial_trace: density matrix has eigenvalue"):
        partial_trace(rho, ("A",))


def test_tensor_basics():
    zero = StateVector(ket(1, 0), (("A", 2),))
    one = StateVector(ket(0, 1), (("B", 2),))
    both = tensor(zero, one)
    assert both.registers == (("A", 2), ("B", 2))
    # |0> (x) |1> = |01>, first register most significant
    assert np.allclose(both.amplitudes, [0, 1, 0, 0])

    plus = StateVector(ket(1, 1), (("A", 2),))
    mixed = tensor(plus, one)
    assert np.allclose(mixed.amplitudes, np.array([0, 1, 0, 1]) / np.sqrt(2))

    with pytest.raises(RegisterError):
        tensor(zero, StateVector(ket(1, 0), (("A", 2),)))


def test_partial_trace_entangled_and_product():
    phi = StateVector(max_entangled_vector(2), (("A", 2), ("B", 2)))
    reduced = partial_trace(density(phi), keep={"A"})
    assert np.allclose(reduced.matrix, np.eye(2) / 2)

    zero_one = StateVector(ket(0, 1, 0, 0), (("A", 2), ("B", 2)))  # |01>
    kept = partial_trace(density(zero_one), keep={"B"})
    assert np.allclose(kept.matrix, np.diag([0, 1]))

    with pytest.raises(RegisterError):
        partial_trace(density(phi), keep={"C"})


def test_partial_trace_preserves_trace_on_random_state(rng):
    vec = haar_state(8, rng)
    dm = density(StateVector(vec, (("A", 2), ("B", 2), ("C", 2))))
    for keep in ({"A"}, {"B", "C"}, {"A", "C"}):
        out = partial_trace(dm, keep)
        assert abs(out.matrix.trace() - 1.0) < 1e-12


def test_replace_factors_at_every_register_slot(rng):
    regs = (("A", 2), ("B", 3), ("C", 4))
    rho, sigma, tau = (random_density(d, rng) for _, d in regs)
    new = {name: random_density(d, rng) for name, d in regs}
    product = np.kron(np.kron(rho, sigma), tau)
    got = {name: replace_factors(product, regs, (name,), new[name]) for name in new}
    np.testing.assert_allclose(got["A"], np.kron(np.kron(new["A"], sigma), tau), atol=1e-14)
    np.testing.assert_allclose(got["B"], np.kron(np.kron(rho, new["B"]), tau), atol=1e-14)
    np.testing.assert_allclose(got["C"], np.kron(np.kron(rho, sigma), new["C"]), atol=1e-14)
    # two registers apart, the state given in the order (C, A)
    both = replace_factors(product, regs, ("C", "A"), np.kron(new["C"], new["A"]))
    np.testing.assert_allclose(both, np.kron(np.kron(new["A"], sigma), new["C"]), atol=1e-14)
    # an entangled state: the rest of the registers keep their correlations
    psi = density(StateVector(haar_state(24, rng), regs))
    rest = {name: partial_trace(psi, {n for n, _ in regs} - {name}).matrix for name in new}
    np.testing.assert_allclose(
        replace_factors(psi.matrix, regs, ("A",), new["A"]), np.kron(new["A"], rest["A"]), atol=1e-14
    )
    np.testing.assert_allclose(
        replace_factors(psi.matrix, regs, ("C",), new["C"]), np.kron(rest["C"], new["C"]), atol=1e-14
    )
    # B in the middle: the kron orders (A, C, B); permute its rows to (A, B, C)
    perm = np.arange(24).reshape(2, 4, 3).transpose(0, 2, 1).reshape(-1)
    middle = np.kron(rest["B"], new["B"])[np.ix_(perm, perm)]
    np.testing.assert_allclose(replace_factors(psi.matrix, regs, ("B",), new["B"]), middle, atol=1e-14)


def test_trace_distance_reference_values():
    zero = DensityMatrix(np.diag([1.0, 0.0]), (("Q", 2),))
    one = DensityMatrix(np.diag([0.0, 1.0]), (("Q", 2),))
    mixed = DensityMatrix(np.eye(2) / 2, (("Q", 2),))
    # full 1-norm convention: orthogonal pure states sit at distance 2
    assert abs(trace_norm(zero.matrix - one.matrix) - 2.0) < 1e-12
    assert trace_norm(zero.matrix - zero.matrix) == 0.0
    # eigenvalues of diag(1,0) - I/2 are +-1/2, so the 1-norm is 1
    assert abs(trace_norm(zero.matrix - mixed.matrix) - 1.0) < 1e-12


def test_trace_norm_of_a_stack_is_each_matrix_norm(rng):
    # one eigvalsh per stack: each entry is the matrix's singular-value sum
    deltas = np.stack([random_density(4, rng) - random_density(4, rng) for _ in range(6)])
    norms = trace_norm(deltas)
    assert norms.shape == (6,)
    for delta, norm in zip(deltas, norms):
        assert abs(norm - np.linalg.svd(delta, compute_uv=False).sum()) < 1e-12
        assert trace_norm(delta) == norm
    assert trace_norm(deltas[:0]).shape == (0,)


def test_trace_norm_refuses_a_non_hermitian_matrix(rng):
    delta = random_density(4, rng) - random_density(4, rng)
    # roundoff-sized skew passes; a skew above 1e-12 is refused
    trace_norm(delta + 1e-13 * np.triu(np.ones((4, 4)), 1))
    skewed = delta + 1e-11 * np.triu(np.ones((4, 4)), 1)
    with pytest.raises(InvariantError, match="Hermitian"):
        trace_norm(skewed)
    with pytest.raises(InvariantError, match="Hermitian"):
        trace_norm(np.stack([delta, skewed]))
    with pytest.raises(InvariantError, match="Hermitian"):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # a NaN entry is never within the tolerance
    with pytest.raises(InvariantError, match="Hermitian"):
        trace_norm(np.where(np.eye(4, k=1, dtype=bool), np.nan, delta))


def test_trace_norm_checks_hermiticity_with_one_temporary(rng):
    # the check runs before eigvalsh, so a refused stack shows its own peak:
    # one array the size of the stack (the difference, its moduli written
    # over its real part), not the conjugate, difference and modulus apart
    import tracemalloc

    stack = np.stack([random_density(64, rng) - random_density(64, rng) for _ in range(16)])
    stack[3, 0, 5] += 1e-6j
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(InvariantError, match="Hermitian"):
            trace_norm(stack)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert stack.nbytes <= peak <= 1.2 * stack.nbytes


def test_trace_distance_triangle_and_symmetry(rng):
    for _ in range(25):
        a = DensityMatrix(random_density(4, rng), (("Q", 4),))
        b = DensityMatrix(random_density(4, rng), (("Q", 4),))
        c = DensityMatrix(random_density(4, rng), (("Q", 4),))
        dab, dbc, dac = (trace_norm(p.matrix - q.matrix) for p, q in ((a, b), (b, c), (a, c)))
        assert dac <= dab + dbc + 1e-9
        assert abs(dab - trace_norm(b.matrix - a.matrix)) < 1e-12


def test_trace_distance_monotone_under_partial_trace(rng):
    regs = (("A", 2), ("B", 2))
    for _ in range(25):
        a = DensityMatrix(random_density(4, rng), regs)
        b = DensityMatrix(random_density(4, rng), regs)
        full = trace_norm(a.matrix - b.matrix)
        reduced = trace_norm(partial_trace(a, {"A"}).matrix - partial_trace(b, {"A"}).matrix)
        assert reduced <= full + 1e-9


def test_fidelity_reference_values():
    zero = DensityMatrix(np.diag([1.0, 0.0]), (("Q", 2),))
    mixed = DensityMatrix(np.eye(2) / 2, (("Q", 2),))
    assert abs(fidelity(zero, zero) - 1.0) < 1e-12
    assert abs(fidelity(zero, mixed) - 0.5) < 1e-12


def test_fidelity_matches_pure_overlap(rng):
    # rank-deficient square roots cost about half the double-precision digits,
    # so the agreement floor here is ~1e-8, not 1e-12
    for _ in range(20):
        a = haar_state(4, rng)
        b = haar_state(4, rng)
        da = DensityMatrix(np.outer(a, a.conj()), (("Q", 4),))
        db = DensityMatrix(np.outer(b, b.conj()), (("Q", 4),))
        assert abs(fidelity(da, db) - abs(np.vdot(a, b)) ** 2) < 5e-8


def test_fuchs_van_de_graaf_upper_bound(rng):
    # || r - s ||_1 <= 2 sqrt(1 - F) in the squared-fidelity convention
    for _ in range(30):
        a = DensityMatrix(random_density(4, rng), (("Q", 4),))
        b = DensityMatrix(random_density(4, rng), (("Q", 4),))
        assert trace_norm(a.matrix - b.matrix) <= 2.0 * np.sqrt(1.0 - fidelity(a, b)) + 1e-9


def test_dilation_identity_and_rank():
    # an attack's Stinespring dilation is the isometry build_attack returns,
    # with row index (out, env); its environment is as large as the Kraus rank
    from qauthlab.adversary import AttackDescriptor, build_attack

    v = build_attack(AttackDescriptor("identity"), {"T": 2})
    assert v.shape == (2, 2)  # environment of dimension 1
    assert np.allclose(v, np.eye(2))

    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    depol = build_attack(AttackDescriptor("depolarizing", strength=1.0), {"T": 2})
    assert depol.shape == (8, 2)  # Kraus rank 4 of the fully depolarizing qubit channel
    kraus = [depol[e::4] for e in range(4)]
    np.testing.assert_allclose(kraus, [0.5 * op for op in (np.eye(2), x, y, z)], rtol=0, atol=1e-15)
    assert np.linalg.matrix_rank(np.array([k.ravel() for k in kraus])) == 4


def test_psd_sqrt(rng):
    mat = random_density(4, rng)
    root = psd_sqrt(mat)
    assert np.allclose(root @ root, mat, atol=1e-10)


def test_transpose_identity_residuals(rng):
    assert transpose_trick_residual(np.eye(3)) < 1e-14
    for _ in range(100):
        d1 = int(rng.integers(1, 6))
        d2 = int(rng.integers(1, 6))
        m = rng.standard_normal((d2, d1)) + 1j * rng.standard_normal((d2, d1))
        assert transpose_trick_residual(m) < 1e-12
    # a single-qubit flip is a special case
    assert transpose_trick_residual(np.array([[0.0, 1.0], [1.0, 0.0]])) < 1e-14


def test_postselection_identity_residuals(rng):
    assert encoder_postselection_residual(np.eye(4), 0, 2, 2) < 1e-14
    for _ in range(100):
        d = int(rng.integers(2, 4))
        d2 = int(rng.integers(2, 4))
        u = haar_unitary(d * d2, rng)
        for y in range(d):
            assert encoder_postselection_residual(u, y, d, d2) < 1e-12
    # the identity holds for every matrix, not only for unitaries
    assert encoder_postselection_residual(np.eye(4) * 2, 0, 2, 2) == 0.0


def test_postselection_identity_on_code_encoder(family_s2):
    # the encoder of a real stabilizer code is exactly the unitary this
    # identity gets applied to inside the entanglement-protocol equivalence
    from qauthlab.codes import encoding_unitary

    enc = encoding_unitary(family_s2.codes[0])
    d, d2 = 1 << family_s2.s, 1 << family_s2.m
    for y in range(d):
        assert encoder_postselection_residual(enc, y, d, d2) < 1e-12
