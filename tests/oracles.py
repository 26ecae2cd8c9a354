"""Reference implementations and test objects that the tests compare against.

None of these is run by an experiment: each is a second, independent way to
compute what the package computes (syndromes and detection one error and one
code at a time, random codes drawn one scalar at a time, teleportation
outcome by outcome, the classical channel message by message, the soundness
operator from the stacked accept-and-decode operators and its functional on
one explicit input, the dense block-diagonal embedding of a final state), or
an object the tests build their cases from.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from qauthlab.adversary import AttackDescriptor
from qauthlab.approx_psqa import ApproxCipher, measure_delta
from qauthlab.classical_wc import HashFamily
from qauthlab.codes import CodeError, PtcFamily, StabilizerCode, _gf2_rank
from qauthlab.hybrid import PRUNE_BELOW, FinalState, Record, _contract, _keyed
from qauthlab.pauli import PauliString, _parity, hermitian_pauli, pauli_matrix, symplectic_product
from qauthlab.protocols import _family_encoders, bell_key, key_pads
from qauthlab.qmath import StateVector, max_entangled_vector, reg_dims, reg_positions, tensor

# ---------------------------------------------------------------------------
# Pauli algebra and random states
# ---------------------------------------------------------------------------


def pauli_mul(p: PauliString, q: PauliString) -> PauliString:
    """Group product; agrees with dense matrix multiplication including phase.

    Per qubit, (X^a Z^b)(X^c Z^d) = (-1)^(b c) X^(a xor c) Z^(b xor d), so the
    accumulated phase is (-1)^|z_p & x_q| on top of the input phases.
    """
    if p.n != q.n:
        raise ValueError(f"length mismatch {p.n} vs {q.n}")
    exp = p.phase_exp + q.phase_exp + 2 * _parity(p.z & q.x)
    return PauliString(p.n, p.x ^ q.x, p.z ^ q.z, exp)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    return mat / mat.trace()


def attack_from_json(payload: dict) -> AttackDescriptor:
    """The attack that ``AttackDescriptor.to_json`` wrote ``payload`` from."""
    return AttackDescriptor(
        kind=payload["kind"],
        acts_on=tuple(payload.get("acts_on", ("T",))),
        x=int(payload.get("x", 0)),
        z=int(payload.get("z", 0)),
        qubit=int(payload.get("qubit", 0)),
        strength=float(payload.get("strength", 0.0)),
        weights=tuple((float(w), int(x), int(z)) for w, x, z in payload.get("weights", ())),
        seed=int(payload.get("seed", 0)),
        env_dim=int(payload.get("env_dim", 1)),
        label=payload.get("label", ""),
    )


# ---------------------------------------------------------------------------
# detection, one error and one code at a time
# ---------------------------------------------------------------------------


def stabilizer_masks(code: StabilizerCode) -> frozenset[tuple[int, int]]:
    """All 2^s (x, z) mask pairs of the code's stabilizer group, phases ignored."""
    masks = {(0, 0)}
    for g in code.generators:
        masks |= {(x ^ g.x, z ^ g.z) for (x, z) in masks}
    return frozenset(masks)


def syndrome(code: StabilizerCode, e: PauliString) -> int:
    """Syndrome bits of an error: bit i is 1 iff e anticommutes with generator i."""
    if e.n != code.n:
        raise CodeError(f"error acts on {e.n} qubits, code on {code.n}")
    return sum(symplectic_product(e, g) << i for i, g in enumerate(code.generators))


def detects(code: StabilizerCode, e: PauliString) -> bool:
    """True iff the error is flagged (nonzero syndrome) or acts trivially."""
    if syndrome(code, e) != 0:
        return True
    return (e.x, e.z) in stabilizer_masks(code)


def scalar_random_stabilizer_code(n: int, s: int, rng: np.random.Generator) -> StabilizerCode:
    """``codes.random_stabilizer_code`` one candidate at a time: two scalar
    draws per candidate (x, z), rejecting the zero mask, a candidate that
    anticommutes with an accepted generator, and a dependent one."""
    if s < 1 or s > n:
        raise CodeError(f"bad parameters n={n}, s={s}")
    gens: list[PauliString] = []
    rows: list[int] = []
    guard = 0
    while len(gens) < s:
        guard += 1
        if guard > 100_000:
            raise CodeError("could not sample independent commuting generators")
        x = int(rng.integers(0, 1 << n))
        z = int(rng.integers(0, 1 << n))
        if x == 0 and z == 0:
            continue
        cand = hermitian_pauli(n, x, z)
        if any(symplectic_product(cand, g) for g in gens):
            continue
        new_rows = rows + [(x << n) | z]
        if _gf2_rank(new_rows) != len(new_rows):
            continue
        gens.append(cand)
        rows = new_rows
    return StabilizerCode(tuple(gens))


# ---------------------------------------------------------------------------
# teleportation and the exact cipher
# ---------------------------------------------------------------------------


def teleport(
    state: StateVector,
    resource: StateVector,
    message: str = "M",
    alice: str = "A",
    bob: str = "B",
    correct: bool = True,
) -> list[tuple[float, tuple[int, int], StateVector]]:
    """Teleport the ``message`` register of ``state`` through ``resource``.

    ``resource`` is a bipartite state on (alice, bob); with the perfect
    maximally entangled resource, every outcome (x, z) occurs with probability
    4^-m and (after the s_xz correction) the bob register carries the message
    exactly, including any entanglement the message had with other registers.

    Returns one (probability, outcome, post-state) triple per Bell outcome of
    probability above PRUNE_BELOW; the post-state keeps the other registers in
    their order. The measurement is ``run_tqa_kg``'s Bell key, taken the way
    ``key_sweep`` takes it. This prunes each outcome on its own, where
    ``key_sweep`` prunes each (key value, record class) pair by the pair's
    probability; on every tested input the two keep the same outcomes.
    """
    dm, pair_dims = dict(state.registers).get(message, 0), dict(resource.registers)
    if not dm or dm & (dm - 1) or (pair_dims.get(alice), pair_dims.get(bob)) != (dm, dm):
        raise ValueError(
            f"teleport needs a {message!r} register of dimension 2^m and a resource of that dimension"
        )
    combined = tensor(state, resource)
    label, values, pair, kets, out_regs, corrections = bell_key(dm.bit_length() - 1, (message, alice))
    amps, regs, _ = _contract(
        combined.amplitudes.reshape(reg_dims(combined.registers)), combined.registers, [], kets, pair,
        ((label, len(kets)),) + out_regs, (label,),
    )
    if correct:
        amps = _keyed(amps, 0, 1 + reg_positions(regs, (bob,))[0], corrections)
    out = []
    for outcome, amp in zip(values, amps):
        vec = amp.reshape(-1)
        p = float(np.vdot(vec, vec).real)
        if p > PRUNE_BELOW:
            out.append((p, outcome, StateVector(vec / np.sqrt(p), regs)))
    return out


def pauli_cipher(m: int) -> ApproxCipher:
    """The exact cipher: all 4^m keyed Paulis, delta numerically zero."""
    unis = tuple(key_pads(m)[1])
    delta = measure_delta(unis, m, seed=0, samples=64)
    return ApproxCipher(unis, m, delta, seed=None, label=f"pauli-{m}")


# ---------------------------------------------------------------------------
# final states as dense matrices
# ---------------------------------------------------------------------------


def records(final: FinalState) -> list[Record]:
    """The records of ``final`` in a fixed order (sorted by ``repr``)."""
    return sorted(final.blocks, key=repr)


def embed(final: FinalState, record_order: Sequence[Record] | None = None) -> np.ndarray:
    """Dense block-diagonal embedding (records as orthogonal sectors): its
    full 1-norm distances are what ``FinalState.distance`` sums per record."""
    order = list(record_order) if record_order is not None else records(final)
    mats = [final.blocks[rec].matrix for rec in order if rec in final.blocks]
    dim = sum(m.shape[0] for m in mats)
    out = np.zeros((dim, dim), dtype=complex)
    at = 0
    for m in mats:
        d = m.shape[0]
        out[at : at + d, at : at + d] = m
        at += d
    return out


# ---------------------------------------------------------------------------
# the soundness operator from the accept-and-decode operators
# ---------------------------------------------------------------------------


def accept_decoders(family: PtcFamily) -> np.ndarray:
    """The accept-and-decode operators L_{t,u} = <u|D_t^* (x) <u|D_t (sender
    decodes in the conjugate basis, receiver in the plain one, both find
    syndrome u), stacked over (t, u) in that order: 2n qubits -> 2m."""
    dm, dt = 1 << family.m, 1 << family.n
    rows = _family_encoders(family).conj().transpose(0, 2, 1).reshape(-1, dm, dt)  # <u| D_t
    # kron of each row block with its conjugate as one broadcast product, which
    # multiplies as np.kron does (einsum's kernel moves the last bits)
    pairs = rows.conj()[:, :, None, :, None] * rows[:, None, :, None, :]
    return pairs.reshape(len(rows), dm * dm, dt * dt)


def soundness_operator(family: PtcFamily) -> np.ndarray:
    """Omega = (1/|codes|) sum_{t,u} L_{t,u}^dag (I - Phi^m) L_{t,u} as one
    complex product of the stacked L_{t,u}, with no identity used: the
    reference for ``ucharness._soundness_operator``'s Gram form."""
    phi = max_entangled_vector(1 << family.m)
    l_ops = accept_decoders(family)
    rows = l_ops.shape[0] * l_ops.shape[1]
    defect = ((np.eye(phi.size) - np.outer(phi, phi.conj())) @ l_ops).reshape(rows, -1)
    return l_ops.reshape(rows, -1).conj().T @ defect / len(family.codes)


def soundness_functional(omega: np.ndarray, rho: np.ndarray) -> float:
    """Tr[ T(rho) ((I - Phi^m) (x) acc) ] = Re Tr(Omega rho) for one explicit
    2n-qubit input, from a family's ``soundness_operator``."""
    return float(np.einsum("ab,ba->", omega, rho).real)


def pauli_displaced_input(family: PtcFamily, error: PauliString) -> np.ndarray:
    """(I (x) E) Phi^n (I (x) E)^dag: the canonical family of worst-case inputs."""
    dt = 1 << family.n
    phi = max_entangled_vector(dt)
    op = np.kron(np.eye(dt, dtype=complex), pauli_matrix(error))
    vec = op @ phi
    return np.outer(vec, vec.conj())


# ---------------------------------------------------------------------------
# the classical authenticated channel, message by message
# ---------------------------------------------------------------------------


def wc_send(x, hash_key, pad: int, family: HashFamily) -> tuple[object, int]:
    """Alice's wire message: (x, h_k(x) xor t)."""
    return x, family.evaluate(hash_key, x) ^ pad


def wc_verify(received, hash_key, pad: int, family: HashFamily) -> bool:
    x_prime, tag_prime = received
    return tag_prime == family.evaluate(hash_key, x_prime) ^ pad


def completeness_exact(family: HashFamily) -> bool:
    """No tampering: for every message, hash key and pad, the wire message
    from ``wc_send`` passes ``wc_verify`` and delivers the message. Fails for
    a family whose tag is not a function of (key, message)."""
    for x in family.message_space:
        for k in family.keys:
            for t in family.tag_space:
                wire = wc_send(x, k, t, family)
                if wire[0] != x or not wc_verify(wire, k, t, family):
                    return False
    return True
