"""Symplectic-binary Pauli group algebra on n qubits, plus dense realizations.

An n-qubit Pauli operator is stored as two n-bit masks (x, z) and a phase that
is a power of i. The mask pair (x_j, z_j) for qubit j selects the single-qubit
factor

    s_00 = I,   s_10 = [[0,1],[1,0]],   s_01 = [[1,0],[0,-1]],   s_11 = s_10 s_01,

so the bare operator is X^x Z^z qubit-wise and s_11 equals the product X Z
(not the Hermitian Y; use ``hermitian_pauli`` when a Hermitian representative
is needed, e.g. for stabilizer generators). Bit j of a mask addresses qubit j,
and qubit 0 is the least significant bit of a basis label.

Masks are plain Python ints; the exhaustive count ``codes.verify_ptc`` reads
an error's x and z halves separately, as the rows and columns of a 2^n x 2^n
array whose entry (x, z) stands for the label x << n | z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

_PHASES = (1, 1j, -1, -1j)


def _parity(mask: int) -> int:
    return mask.bit_count() & 1


@dataclass(frozen=True)
class PauliString:
    """n-qubit Pauli operator: phase i^phase_exp times X^x Z^z qubit-wise."""

    n: int
    x: int
    z: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if self.x >> self.n or self.z >> self.n:
            raise ValueError(f"mask exceeds {self.n} qubits")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_exp]

    def to_text(self) -> str:
        """Mask text form "xz:<x bits>|<z bits>", qubit j at character j."""
        xs = "".join(str((self.x >> j) & 1) for j in range(self.n))
        zs = "".join(str((self.z >> j) & 1) for j in range(self.n))
        return f"xz:{xs}|{zs}"

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        if not text.startswith("xz:") or "|" not in text:
            raise ValueError(f"bad Pauli text form {text!r}")
        xs, zs = text[3:].split("|", 1)
        if len(xs) != len(zs) or not xs:
            raise ValueError(f"bad Pauli text form {text!r}")
        x = int(xs[::-1], 2)
        z = int(zs[::-1], 2)
        return cls(len(xs), x, z)


def hermitian_pauli(n: int, x: int, z: int) -> PauliString:
    """The Hermitian operator +(i^|x&z|) X^x Z^z: each qubit's X Z is
    anti-Hermitian, and a phase i per such qubit makes the product Hermitian."""
    return PauliString(n, x, z, (x & z).bit_count())


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n realization; qubit 0 is the least significant bit.
    X^x Z^z maps basis state i to (-1)^|i & z| times basis state i ^ x, so
    the matrix is one signed permutation."""
    cols = np.arange(1 << p.n)
    signs = np.array([1 - 2 * _parity(i & p.z) for i in range(1 << p.n)])
    mat = np.zeros((1 << p.n, 1 << p.n), dtype=complex)
    mat[cols ^ p.x, cols] = p.phase * signs
    return mat


def enumerate_paulis(n: int) -> Iterator[PauliString]:
    """All 4^n phase-free Pauli strings on n qubits, the identity first.

    Iteration order is deterministic: x-major, z-minor.
    """
    for x in range(1 << n):
        for z in range(1 << n):
            yield PauliString(n, x, z)
