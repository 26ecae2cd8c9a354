"""Attack zoo and environment-side inputs for the security experiments.

Attack channels act on the transmitted register T alone, or jointly on the
reference register R and T (the adversary holds the purifying system of the
message, so letting the attack touch R is part of the threat model). Every
attack is a plain descriptor (JSON-serializable, deterministic given its seed)
that compiles to the adversary's isometry V, from the registers it acts on to
those registers and an environment E, checked to satisfy V^dag V = I.
Protocols apply V as it is, so the adversary's retained register E is always
explicit in the final states. Every Pauli operator an attack uses (fixed,
mixed or depolarizing) comes from ``pauli.pauli_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import PauliString, hermitian_pauli, pauli_matrix
from .qmath import (
    InvariantError,
    RegisterError,
    StateVector,
    haar_state,
    haar_unitary,
    max_entangled_vector,
)

# Register order convention for attacks on ("R", "T"): R most significant.

# build_attack refuses an isometry whose V^dag V differs from I by more than this
ISOMETRY_TOL = 1e-11


@dataclass(frozen=True)
class AttackDescriptor:
    """Deterministic recipe for one attack channel.

    kinds:
      identity                      no-op on T
      fixed_pauli                   conjugation by the Pauli (x, z) on T
      pauli_mixture                 mix of Pauli conjugations, weights sum to 1
      depolarizing                  single-qubit depolarizing on T qubit ``qubit``
      swap_held                     replace T with |0...0>, keep the old T in E
      random_dilation               Haar isometry T -> T (x) E with seeded env
      cnot_from_r                   CNOT, control R qubit 0, target T ``qubit``
      swap_with_r                   swap R qubit 0 with T qubit ``qubit``
    """

    kind: str
    acts_on: tuple[str, ...] = ("T",)
    x: int = 0
    z: int = 0
    qubit: int = 0
    strength: float = 0.0
    weights: tuple[tuple[float, int, int], ...] = ()
    seed: int = 0
    env_dim: int = 1
    label: str = ""

    def name(self) -> str:
        return self.label or self.kind

    def to_json(self) -> dict:
        out = {"kind": self.kind, "acts_on": list(self.acts_on), "label": self.label}
        if self.kind == "fixed_pauli":
            out.update(x=self.x, z=self.z)
        if self.kind == "pauli_mixture":
            out["weights"] = [[w, x, z] for (w, x, z) in self.weights]
        if self.kind == "depolarizing":
            out.update(strength=self.strength, qubit=self.qubit)
        if self.kind == "random_dilation":
            out.update(seed=self.seed, env_dim=self.env_dim)
        if self.kind in ("cnot_from_r", "swap_with_r"):
            out["qubit"] = self.qubit
        return out


def build_attack(desc: AttackDescriptor, dims: dict[str, int]) -> np.ndarray:
    """Compile a descriptor into its read-only isometry V.

    ``dims`` maps register names to dimensions, e.g. {"R": 2, "T": 8}. The
    input index runs over the registers in ``desc.acts_on`` order, the first
    most significant; the row index is (output, env) with env least
    significant, so the attack's e-th Kraus operator is V[e::env_dim]. A V
    whose V^dag V differs from I by more than ISOMETRY_TOL is an
    ``InvariantError``: every descriptor that reaches it is one of the
    program's own (``--attack`` only names suite attacks).
    """
    for name in desc.acts_on:
        if name not in dims:
            raise RegisterError(f"attack needs register {name!r} dims, got {sorted(dims)}")
    v = _isometry(desc, dims)
    defect = np.abs(v.conj().T @ v - np.eye(v.shape[1])).max()
    if not defect <= ISOMETRY_TOL:
        raise InvariantError(f"attack {desc.name()!r} is not an isometry: V^dag V is {defect:.3g} from I")
    v.setflags(write=False)
    return v


def _isometry(desc: AttackDescriptor, dims: dict[str, int]) -> np.ndarray:
    """``build_attack``'s V, before its check."""
    d = int(np.prod([dims[name] for name in desc.acts_on]))
    n_t = dims["T"].bit_length() - 1

    if desc.kind == "identity":
        return np.eye(d, dtype=complex)

    if desc.kind == "fixed_pauli":
        return _lift_t(pauli_matrix(PauliString(n_t, desc.x, desc.z)), desc, dims)

    if desc.kind == "pauli_mixture":
        for w, x, z in desc.weights:
            if not w >= 0:
                raise ValueError(f"mixture weight {w} of Pauli (x={x}, z={z}) is negative")
        total = sum(w for w, _, _ in desc.weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {total}")
        return _stack_kraus([
            np.sqrt(w) * _lift_t(pauli_matrix(PauliString(n_t, x, z)), desc, dims)
            for (w, x, z) in desc.weights
        ])

    if desc.kind == "depolarizing":
        p = desc.strength
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"depolarizing strength {p} outside [0, 1]")
        if desc.qubit >= n_t:
            raise RegisterError(f"qubit {desc.qubit} outside T ({n_t} qubits)")
        # I, X, Y, Z on the qubit: the Hermitian Paulis with masks (x, z) there
        q = desc.qubit
        return _stack_kraus([
            np.sqrt(w) * _lift_t(pauli_matrix(hermitian_pauli(n_t, x << q, z << q)), desc, dims)
            for w, x, z in ((1 - 3 * p / 4, 0, 0), (p / 4, 1, 0), (p / 4, 1, 1), (p / 4, 0, 1))
            if w > 0
        ])

    if desc.kind == "swap_held":
        # Kraus operators |0><j|: T is reset, E keeps the old basis label j
        dt = dims["T"]
        ket0 = np.eye(dt, dtype=complex)[:, 0]
        return _stack_kraus([_lift_t(np.outer(ket0, np.eye(dt)[:, j]), desc, dims) for j in range(dt)])

    if desc.kind == "random_dilation":
        rng = np.random.default_rng(desc.seed)
        return haar_unitary(d * desc.env_dim, rng)[:, :d]

    if desc.kind in ("cnot_from_r", "swap_with_r"):
        if desc.acts_on != ("R", "T"):
            raise RegisterError(f"{desc.kind} acts on ('R', 'T')")
        dr, dt = dims["R"], dims["T"]
        if desc.qubit >= n_t:
            raise RegisterError(f"qubit {desc.qubit} outside T ({n_t} qubits)")
        op = np.zeros((d, d), dtype=complex)
        for r_idx in range(dr):
            for t_idx in range(dt):
                rbit = r_idx & 1
                tbit = (t_idx >> desc.qubit) & 1
                if desc.kind == "cnot_from_r":
                    new_r, new_t = r_idx, t_idx ^ (rbit << desc.qubit)
                else:
                    new_r = (r_idx & ~1) | tbit
                    new_t = (t_idx & ~(1 << desc.qubit)) | (rbit << desc.qubit)
                op[new_r * dt + new_t, r_idx * dt + t_idx] = 1.0
        return op

    raise ValueError(f"unknown attack kind {desc.kind!r}")


def _stack_kraus(ops: list[np.ndarray]) -> np.ndarray:
    """The isometry whose row (out, e) is row ``out`` of Kraus operator e."""
    return np.stack(ops, axis=1).reshape(-1, ops[0].shape[1])


def _lift_t(op_t: np.ndarray, desc: AttackDescriptor, dims: dict[str, int]) -> np.ndarray:
    """Pad an operator on T with identities on any other acted-on registers."""
    if desc.acts_on == ("T",):
        return op_t
    if desc.acts_on == ("R", "T"):
        return np.kron(np.eye(dims["R"], dtype=complex), op_t)
    raise RegisterError(f"unsupported acts_on {desc.acts_on}")


@lru_cache(maxsize=8)
def standard_suite(m: int, s: int) -> tuple[AttackDescriptor, ...]:
    """The fixed coverage suite: 14 + 3(m+s) deterministic attacks.

    identity; X/Y/Z on every T qubit; three Pauli mixtures; single-qubit
    depolarizing at strengths 0.1 / 0.5 / 1.0; a swap-with-held-state; CNOT
    and swap entangling T with R; five seeded random dilations. Identical
    across runs for the same (m, s); built once per (m, s).
    """
    n = m + s
    suite: list[AttackDescriptor] = [AttackDescriptor("identity", label="identity")]
    for q in range(n):
        suite.append(AttackDescriptor("fixed_pauli", x=1 << q, z=0, label=f"X{q}"))
        suite.append(AttackDescriptor("fixed_pauli", x=1 << q, z=1 << q, label=f"Y{q}"))
        suite.append(AttackDescriptor("fixed_pauli", x=0, z=1 << q, label=f"Z{q}"))
    suite.append(
        AttackDescriptor(
            "pauli_mixture", weights=((0.5, 0, 0), (0.5, 1, 0)), label="mix-I-X0"
        )
    )
    suite.append(
        AttackDescriptor(
            "pauli_mixture",
            weights=((0.34, 0, 0), (0.33, 0, 1), (0.33, 1 << (n - 1), 0)),
            label="mix-I-Z0-Xtop",
        )
    )
    suite.append(
        AttackDescriptor(
            "pauli_mixture",
            weights=((0.25, 1, 1), (0.75, (1 << n) - 1, (1 << n) - 1)),
            label="mix-Y0-Yall",
        )
    )
    for p in (0.1, 0.5, 1.0):
        suite.append(AttackDescriptor("depolarizing", strength=p, label=f"depol-{p}"))
    suite.append(AttackDescriptor("swap_held", label="swap-held"))
    suite.append(
        AttackDescriptor("cnot_from_r", acts_on=("R", "T"), qubit=0, label="cnot-R-T0")
    )
    suite.append(
        AttackDescriptor("swap_with_r", acts_on=("R", "T"), qubit=0, label="swap-R-T0")
    )
    for i in range(5):
        suite.append(
            AttackDescriptor(
                "random_dilation", seed=101 + i, env_dim=2, label=f"random-{101 + i}"
            )
        )
    return tuple(suite)


def purified_input(spec: str, m: int) -> StateVector:
    """Named test inputs on (R, M), each register of m qubits.

    specs: "basis-<k>" (|0>_R |k>_M), "plus" (|0>_R |+...+>_M), "entangled"
    (maximally entangled R-M), "random-<seed>" (Haar pure on R (x) M).
    """
    d = 1 << m
    regs = (("R", d), ("M", d))
    if spec.startswith("basis-"):
        k = int(spec.split("-", 1)[1])
        if not 0 <= k < d:
            raise ValueError(f"input spec {spec!r} needs 0 <= k < 2^m = {d}")
        vec = np.zeros(d * d, dtype=complex)
        vec[k] = 1.0  # R index 0, M index k
        return StateVector(vec, regs)
    if spec == "plus":
        msg = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
        vec = np.kron(np.eye(d, dtype=complex)[:, 0], msg)
        return StateVector(vec, regs)
    if spec == "entangled":
        return StateVector(max_entangled_vector(d), regs)
    if spec.startswith("random-"):
        rng = np.random.default_rng(int(spec.split("-", 1)[1]))
        return StateVector(haar_state(d * d, rng), regs)
    raise ValueError(f"unknown input spec {spec!r}")
