"""Dense complex linear algebra over named multi-qubit (or multi-level) registers.

Everything here operates on plain numpy arrays wrapped in light value types that
carry a register layout. Conventions used throughout the package:

- A register layout is an ordered tuple ``((name, dim), ...)``. The flat index
  of a state runs with the FIRST register most significant, i.e. reshaping an
  amplitude vector to ``dims`` in register order gives one axis per register
  (C order). Within a multi-qubit register, basis label ``b`` has qubit ``j``
  equal to bit ``j`` of ``b`` (qubit 0 is the least significant bit).
- Distances are the full Schatten 1-norm of the difference (``trace_norm``
  of rho - sigma, maximum 2 for a pair of states), not half of it.
- ``fidelity`` uses the squared-overlap convention
  ``F(rho, sigma) = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))**2``, which equals
  ``|<psi|phi>|**2`` on pure states.

The value types hold read-only arrays, and the operations are pure functions
that never write to their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

# Tolerance hierarchy: exact algebraic identities are held to ATOL_EXACT,
# accumulated protocol pipelines to ATOL_PIPELINE. PSD checks tolerate
# eigenvalues down to -PSD_FLOOR and clip when constructing states.
ATOL_EXACT = 1e-12
ATOL_PIPELINE = 1e-9
PSD_FLOOR = 1e-10

Registers = tuple[tuple[str, int], ...]


class RegisterError(ValueError):
    """Raised for unknown, duplicate, or dimension-mismatched register names."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a fault in the program, not in its input."""


def as_registers(registers: Iterable) -> Registers:
    regs = tuple((str(name), int(dim)) for name, dim in registers)
    names = [name for name, _ in regs]
    if len(set(names)) != len(names):
        raise RegisterError(f"duplicate register name in {names}")
    for name, dim in regs:
        if dim < 1:
            raise RegisterError(f"register {name!r} has dimension {dim}")
    return regs


def reg_names(registers: Registers) -> tuple[str, ...]:
    return tuple(name for name, _ in registers)


def reg_dims(registers: Registers) -> tuple[int, ...]:
    return tuple(dim for _, dim in registers)


def total_dim(registers: Registers) -> int:
    out = 1
    for _, dim in registers:
        out *= dim
    return out


def reg_positions(registers: Registers, names: Sequence[str]) -> tuple[int, ...]:
    table = {name: i for i, (name, _) in enumerate(registers)}
    try:
        return tuple(table[name] for name in names)
    except KeyError as exc:
        raise RegisterError(f"unknown register {exc.args[0]!r}; have {reg_names(registers)}") from None


@dataclass(frozen=True)
class StateVector:
    """A pure state: complex amplitudes over an ordered set of named registers."""

    amplitudes: np.ndarray
    registers: Registers

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        regs = as_registers(self.registers)
        if amps.size != total_dim(regs):
            raise RegisterError(
                f"amplitude length {amps.size} != product of register dims {total_dim(regs)}"
            )
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > 1e-8:
            raise ValueError(f"state vector squared norm {norm2} is not 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "registers", regs)


@dataclass(frozen=True)
class DensityMatrix:
    """A mixed state held as a dense matrix over named registers.

    The constructor enforces Hermiticity, positivity down to -PSD_FLOOR
    (tiny negative eigenvalues are tolerated, not clipped), and unit trace.
    """

    matrix: np.ndarray
    registers: Registers

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        regs = as_registers(self.registers)
        d = total_dim(regs)
        if mat.shape != (d, d):
            raise RegisterError(f"matrix shape {mat.shape} != register dims {d}x{d}")
        # np.allclose's formula (atol=1e-8) in one pass; NaN and inf fail it
        adj = mat.conj().T
        if not (np.abs(mat - adj) <= 1e-8 + 1e-5 * np.abs(adj)).all():
            raise ValueError("density matrix is not Hermitian")
        eigs = np.linalg.eigvalsh((mat + adj) / 2)
        if eigs.min() < -PSD_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {eigs.min()} below -{PSD_FLOOR}")
        tr = float(mat.trace().real)
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"density matrix trace {tr} is not 1")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "registers", regs)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product of two state vectors, concatenating their register
    lists. Register names must be disjoint."""
    if set(reg_names(a.registers)) & set(reg_names(b.registers)):
        raise RegisterError(
            f"register names overlap: {reg_names(a.registers)} vs {reg_names(b.registers)}"
        )
    return StateVector(np.kron(a.amplitudes, b.amplitudes), a.registers + b.registers)


def _trace_out_axes(matrix: np.ndarray, dims: Sequence[int], drop: Sequence[int]) -> np.ndarray:
    """Partial trace of a square matrix over the axes listed in ``drop``."""
    k = len(dims)
    tens = matrix.reshape(tuple(dims) * 2)
    for ax in sorted(drop, reverse=True):
        tens = np.trace(tens, axis1=ax, axis2=ax + k)
        k -= 1
    d = int(np.sqrt(tens.size))
    return tens.reshape(d, d)


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduce ``rho`` to the named registers, preserving their relative order."""
    keep = set(keep)
    unknown = keep - set(reg_names(rho.registers))
    if unknown:
        raise RegisterError(f"unknown register(s) {sorted(unknown)}")
    drop = [i for i, (name, _) in enumerate(rho.registers) if name not in keep]
    new_regs = tuple(r for r in rho.registers if r[0] in keep)
    if not new_regs:
        raise RegisterError("cannot trace out every register")
    mat = _trace_out_axes(rho.matrix, reg_dims(rho.registers), drop)
    # the marginal of a valid state: a refusal is a fault in the program
    try:
        return DensityMatrix(mat, new_regs)
    except ValueError as exc:
        raise InvariantError(f"partial_trace: {exc}") from exc


def trace_norm(delta: np.ndarray):
    """Schatten 1-norm of a Hermitian matrix, the sum of its |eigenvalues|;
    of a stack of them (over the last two axes), the array of their norms.
    A matrix that is not Hermitian within ATOL_EXACT is an ``InvariantError``:
    every difference the program takes the norm of is Hermitian."""
    delta = np.asarray(delta)
    # delta minus its adjoint, each entry's modulus then written over its real
    # part: one temporary the size of delta
    gap = np.conjugate(delta.swapaxes(-1, -2), out=np.empty(delta.shape, delta.dtype))
    np.subtract(delta, gap, out=gap)
    real = gap.real
    if gap.dtype.kind == "c":
        np.hypot(real, gap.imag, out=real)
    else:
        np.abs(gap, out=gap)
    skew = real.max(initial=0.0)
    if not skew <= ATOL_EXACT:
        raise InvariantError(f"trace_norm takes Hermitian matrices; this one is {skew:.3g} from its adjoint")
    norms = np.abs(np.linalg.eigvalsh(delta)).sum(axis=-1)
    return float(norms) if delta.ndim == 2 else norms


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Matrix square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues below zero (roundoff) are clipped to zero.
    """
    eigs, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    eigs = np.clip(eigs, 0.0, None)
    return (vecs * np.sqrt(eigs)) @ vecs.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Squared fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1].

    Equals the maximum squared overlap over purifications of the two states.
    For rank-deficient states it is accurate to about 1e-8, not to machine
    precision: the square roots amplify roundoff in the near-zero eigenvalues
    (a 1e-17 Hermitian perturbation of the accept-conditional entanglement
    states moves the value by up to 2.7e-8).
    """
    if rho.dim != sigma.dim:
        raise RegisterError(f"dimension mismatch {rho.dim} vs {sigma.dim}")
    s = psd_sqrt(rho.matrix)
    inner = s @ sigma.matrix @ s
    eigs = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)
    val = float(np.sqrt(eigs).sum() ** 2)
    return min(val, 1.0) if val < 1.0 + 1e-9 else val


def replace_factors(
    matrix: np.ndarray, registers: Registers, names: Sequence[str], state: np.ndarray
) -> np.ndarray:
    """Trace the named registers out of ``matrix`` and put ``state`` in their
    place, each register keeping its slot in ``registers``.

    ``state`` is a matrix on the named registers, taken in the order given
    (first name most significant). Every entry of the result is one product
    state[a, b] * rest[i, j], so the result is exact given the partial trace.
    """
    pos = reg_positions(registers, names)
    dims = reg_dims(registers)
    rest = _trace_out_axes(matrix, dims, pos)
    # both factors as row and column axes over every register, of length 1
    # where the factor has no register, so one broadcast product fills the result
    order = sorted(range(len(pos)), key=pos.__getitem__)
    named = state.reshape(tuple(dims[p] for p in pos) * 2).transpose(order + [len(pos) + j for j in order])
    put = tuple(d if i in pos else 1 for i, d in enumerate(dims))
    keep = tuple(1 if i in pos else d for i, d in enumerate(dims))
    return (named.reshape(put * 2) * rest.reshape(keep * 2)).reshape(matrix.shape)


# ---------------------------------------------------------------------------
# transpose-trick identities
# ---------------------------------------------------------------------------


def _unnormalized_max_entangled(d: int) -> np.ndarray:
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0
    return vec


def transpose_trick_residual(m: np.ndarray) -> float:
    """Residual of relocating a matrix across an unnormalized entangled pair.

    For M of shape (d2, d1), computes the norm of
    (M^T (x) I) sum_j |j>|j> - (I (x) M) sum_i |i>|i>,
    which is zero for every matrix. Used as a machine check of the identity
    that powers the code-based / protocol-based entanglement equivalence.
    """
    m = np.asarray(m, dtype=complex)
    d2, d1 = m.shape
    lhs = np.kron(m.T, np.eye(d2)) @ _unnormalized_max_entangled(d2)
    rhs = np.kron(np.eye(d1), m) @ _unnormalized_max_entangled(d1)
    return float(np.linalg.norm(lhs - rhs))


def encoder_postselection_residual(u: np.ndarray, y: int, d: int, d2: int) -> float:
    """Residual of trading an encoder for a postselected transposed decoder.

    ``u`` acts on a (d * d2)-dimensional space interpreted as two subsystems
    of dimensions d and d2. The left-hand side applies u to
    |y> (x) (one half of an unnormalized d2-dim entangled pair); the
    right-hand side postselects <y| after the transposed u acting on half of a
    (d*d2)-dim entangled pair. The two are equal for every matrix u and every
    basis index y < d; this is the step that lets a secretly keyed encoder be
    re-read as a syndrome measurement with postselection.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (d * d2, d * d2):
        raise ValueError(f"u must be {(d * d2, d * d2)}, got {u.shape}")
    if not 0 <= y < d:
        raise ValueError(f"basis index y={y} out of range for dimension {d}")

    ket_y = np.zeros(d, dtype=complex)
    ket_y[y] = 1.0
    # systems (1, 2, 3) with dims (d, d2, d2)
    lhs = np.kron(u, np.eye(d2)) @ np.kron(ket_y, _unnormalized_max_entangled(d2))
    # systems (1, 2, 4, 3): project <y| on 4 after u^T acting on (4, 3)
    big = _unnormalized_max_entangled(d * d2)  # on (12), (43)
    bra_y_ut = np.kron(ket_y.conj(), np.eye(d2)) @ u.T  # maps (4,3) -> (3)
    rhs = np.kron(np.eye(d * d2), bra_y_ut) @ big
    return float(np.linalg.norm(lhs - rhs))


# ---------------------------------------------------------------------------
# random states and unitaries (deterministic under a seeded Generator)
# ---------------------------------------------------------------------------


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fixing."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def max_entangled_vector(d: int) -> np.ndarray:
    """Normalized d-dim maximally entangled pair, index order (left, right)."""
    return _unnormalized_max_entangled(d) / np.sqrt(d)


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, mats)
