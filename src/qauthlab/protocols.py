"""Executable circuits for the authentication / key-recycling protocol family.

Implemented protocols, over the engines of ``hybrid`` (the keyed sweeps over
the stacked ``key_sweep``; ``teleport``, the Pauli pad and ``ebit_ptp`` over
the per-branch ``HybridState``):

- ``qenc_encrypt`` / ``qenc_decrypt``: the Pauli one-time pad on m qubits.
- ``teleport``: qubit-wise teleportation with the Bell basis {(I (x) s_xz)|Phi>}.
- ``run_qa_kg``: encrypt, encode into a secretly keyed error-detecting code
  with a secret syndrome, transmit under attack, decode, compare syndromes,
  decrypt, and recycle the encryption key on accept.
- ``run_tqa_kg``: the teleportation-based twin; produces the same final state
  branch for branch.
- ``ebit_ptc`` / ``ebit_ptp``: entanglement generation over the attacked
  channel, in the encoder-keyed form and the bilateral syndrome-measurement
  form. On reject both output the error state: maximally mixed on A, error
  symbol on B.
- ``ebit_ideal`` / ``q_ideal`` / ``kd_ideal``: the ideal functionalities these
  protocols are measured against.

Conventions: keys x, z are m-bit masks; the encryption operator is the
qubit-wise X^x Z^z. Code index t and syndrome y are marginalized out of final
states (they are not protocol outputs); the recycled key is kept classically.
The attack channel is always applied through its dilation, so the adversary's
retained register E appears explicitly in every final state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
import numpy as np

from .adversary import AttackDescriptor, build_attack
from .codes import EncodingUnitary, PtcFamily, encoding_unitary
from .hybrid import ACC, ERR, REJ, Branch, FinalState, HybridState, Record, key_sweep, record_get
from .pauli import PauliString, pauli_matrix
from .qmath import (
    DensityMatrix,
    StateVector,
    max_entangled_vector,
    tensor,
)

@dataclass(frozen=True)
class KeyTuple:
    """One draw of the four-part protocol key."""

    x: int
    z: int
    t: int
    y: int


@dataclass(frozen=True)
class ProtocolOutcome:
    verdict: str
    message_out: object  # a state, or ERR
    recycled_key: object  # an (x, z) pair, or ERR, or None

    def __post_init__(self):
        if self.verdict == REJ and (self.message_out != ERR or self.recycled_key != ERR):
            raise ValueError("a rejecting outcome must carry error symbols")


class KeyDistribution:
    """Uniform product distribution over KeyTuple values."""

    def __init__(self, m: int, s: int, family_size: int):
        self.m, self.s, self.family_size = m, s, family_size
        self.count = (1 << (2 * m)) * family_size * (1 << s)

    def __iter__(self):
        p = 1.0 / self.count
        for x in range(1 << self.m):
            for z in range(1 << self.m):
                for t in range(self.family_size):
                    for y in range(1 << self.s):
                        yield p, KeyTuple(x, z, t, y)

    def entropy_bits(self) -> float:
        return 2 * self.m + math.log2(self.family_size) + self.s

    def marginal(self, fieldname: str) -> dict:
        out: dict = {}
        for p, key in self:
            value = getattr(key, fieldname)
            out[value] = out.get(value, 0.0) + p
        return out


def kd_ideal(m: int, s: int, family_size: int) -> KeyDistribution:
    """The ideal key box: a uniform, private draw of (x, z, t, y)."""
    return KeyDistribution(m, s, family_size)


# ---------------------------------------------------------------------------
# encryption and teleportation
# ---------------------------------------------------------------------------


def key_pauli(m: int, x: int, z: int) -> np.ndarray:
    """Dense m-qubit X^x Z^z selected by an encryption key pair."""
    return pauli_matrix(PauliString(m, x, z))


def qenc_encrypt(state, key: tuple[int, int], message: str = "M"):
    """Conjugate the message register by the keyed Pauli."""
    x, z = key
    m = _register_qubits(state, message)
    op = key_pauli(m, x, z)
    return _conjugate(state, op, message)


def qenc_decrypt(state, key: tuple[int, int], message: str = "M"):
    x, z = key
    m = _register_qubits(state, message)
    op = key_pauli(m, x, z).conj().T
    return _conjugate(state, op, message)


def _register_qubits(state, name: str) -> int:
    for reg, dim in state.registers:
        if reg == name:
            if dim & (dim - 1):
                raise ValueError(f"register {name} dimension {dim} is not a power of 2")
            return dim.bit_length() - 1
    raise ValueError(f"no register named {name!r}")


def _conjugate(state, op: np.ndarray, name: str):
    h = (
        HybridState.from_pure(state)
        if isinstance(state, StateVector)
        else None
    )
    if h is not None:
        out = h.apply(op, (name,))
        return StateVector(out.branches[0].vector, out.registers)
    if isinstance(state, DensityMatrix):
        from .qmath import QuantumChannel, apply_channel

        return apply_channel(QuantumChannel((op,)), state, (name,))
    raise TypeError("expected StateVector or DensityMatrix")


def bell_kets(m: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Rows are the Bell-basis kets (I (x) X^x Z^z)|Phi^m> on a register pair
    (first factor most significant); outcome order is x-major, z-minor."""
    d = 1 << m
    rows = np.zeros((d * d, d * d), dtype=complex)
    values = []
    for x in range(d):
        for z in range(d):
            sigma = key_pauli(m, x, z)
            rows[x * d + z, :] = sigma.T.reshape(-1) / np.sqrt(d)
            values.append((x, z))
    return rows, values


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

    Returns one (probability, outcome, post-state) triple per Bell outcome.
    """
    m = _register_qubits(state, message)
    if dict(resource.registers).get(alice) != 1 << m or dict(resource.registers).get(bob) != (
        1 << m
    ):
        raise ValueError("resource register dims must match the message register")
    combined = tensor(state, resource)
    h = HybridState.from_pure(combined)
    rows, values = bell_kets(m)
    h = h.measure_in_basis((message, alice), rows, "bell", outcome_values=values)
    if correct:
        h = h.apply_by_record(
            lambda rec: key_pauli(m, *record_get(rec, "bell")).conj().T, (bob,)
        )
    out = []
    for br in h.branches:
        vec = br.vector / np.linalg.norm(br.vector)
        out.append(
            (br.probability, record_get(br.record, "bell"), StateVector(vec, h.registers))
        )
    return out


# ---------------------------------------------------------------------------
# shared circuit pieces
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _family_encoders(family: PtcFamily) -> tuple[EncodingUnitary, ...]:
    return tuple(encoding_unitary(code) for code in family.codes)


def _attack_pieces(family: PtcFamily, attack: AttackDescriptor):
    """Dilation isometry, target names, and output registers for an attack."""
    dims = {"R": 1 << family.m, "T": 1 << family.n}
    ch = build_attack(attack, dims)
    iso = ch.dilation()
    out_regs = tuple((name, dims[name]) for name in attack.acts_on) + (("E", ch.env_dim),)
    return iso, attack.acts_on, out_regs


def _needs_env_reference(attack: AttackDescriptor) -> bool:
    return "R" in attack.acts_on


def _sweep_pieces(family: PtcFamily, attack: AttackDescriptor):
    """The encoder matrices and the attack pieces that ``key_sweep`` takes."""
    encoders = tuple(enc.matrix for enc in _family_encoders(family))
    return encoders, _attack_pieces(family, attack)


def _detail_fields(detail: bool, *fields: str) -> tuple[str, ...]:
    return fields + (("t", "y", "ysyn") if detail else ())


def _qa_output_plan(back_communication: bool, detail: bool):
    """Finalize plan for message-carrying runs: fields -> (record, drop, mix)."""

    def plan(fields: dict):
        key = fields["key"]
        if fields["verdict"] == ACC:
            record, drop = (("verdict", ACC), ("key_alice", key), ("key_bob", key)), ()
        else:
            alice = ERR if back_communication else key
            record, drop = (("verdict", REJ), ("key_alice", alice), ("key_bob", ERR)), ("M",)
        if detail:
            extra = (("x", key[0]), ("z", key[1])) + tuple(
                (k, fields[k]) for k in ("t", "y", "ysyn")
            )
            record = record + (("detail", extra),)
        return record, drop, ()

    return plan


# ---------------------------------------------------------------------------
# authentication with key recycling, and its teleported twin
# ---------------------------------------------------------------------------


def run_qa_kg(
    input_state: StateVector,
    family: PtcFamily,
    attack: AttackDescriptor,
    back_communication: bool = True,
    detail: bool = False,
) -> FinalState:
    """Run the noninteractive protocol over the full key distribution.

    ``input_state`` lives on registers (R, M); R is the reference the
    environment keeps (the attack may act on it). Returns the final hybrid
    state over registers R, M, E with classical verdict and key outputs;
    on reject the message register is replaced by the error symbol.
    """
    m = family.m
    dm = 1 << m
    if dict(input_state.registers).get("M") != dm:
        raise ValueError(f"input must carry an M register of dimension {dm}")
    keys = [(x, z) for x in range(dm) for z in range(dm)]
    pads = np.stack([key_pauli(m, x, z) for x, z in keys])
    return key_sweep(
        *_sweep_pieces(family, attack),
        input_state,
        "M",
        _qa_output_plan(back_communication, detail),
        _detail_fields(detail, "key"),
        pad=("key", keys, pads),
        correct=("key", pads.conj().transpose(0, 2, 1)),
        receiver="M",
    )


def run_tqa_kg(
    input_state: StateVector,
    family: PtcFamily,
    attack: AttackDescriptor,
    back_communication: bool = True,
    detail: bool = False,
) -> FinalState:
    """Teleportation-based twin of ``run_qa_kg``.

    The sender shares fresh entanglement, ships the encoded halves through the
    attack, Bell-measures the message against her retained halves after the
    syndrome comparison, and the Bell outcome becomes the recycled key. The
    final state equals ``run_qa_kg``'s branch for branch.
    """
    m = family.m
    dm = 1 << m
    ebits = StateVector(max_entangled_vector(dm), (("A1", dm), ("A2", dm)))
    # the message is renamed so that the receiver's output can take its name
    message = StateVector(
        input_state.amplitudes,
        tuple(("Min" if name == "M" else name, dim) for name, dim in input_state.registers),
    )
    rows, keys = bell_kets(m)
    corrections = np.stack([key_pauli(m, x, z).conj().T for x, z in keys])
    return key_sweep(
        *_sweep_pieces(family, attack),
        tensor(message, ebits),
        "A2",
        _qa_output_plan(back_communication, detail),
        _detail_fields(detail, "key"),
        instrument=(("Min", "A1"), "key", keys, rows.conj()[:, None, :], ()),
        correct=("key", corrections),
        receiver="M",
    )


# ---------------------------------------------------------------------------
# entanglement generation over the insecure channel
# ---------------------------------------------------------------------------


def _ebit_output_plan(detail: bool):
    def plan(fields: dict):
        verdict = fields["verdict"]
        base = (("verdict", verdict),)
        if detail:
            base = base + (("detail", tuple((k, fields[k]) for k in ("t", "y", "ysyn"))),)
        if verdict == ACC:
            return base, (), ()
        # error state: maximally mixed on A, error symbol in place of B
        return base, ("B",), ("A",)

    return plan


def _maybe_reference(base: StateVector, attack: AttackDescriptor, m: int) -> StateVector:
    """Entanglement runs have no message reference; attacks that want an R
    register get a fresh environment-held one in |0...0>."""
    if not _needs_env_reference(attack):
        return base
    ref = StateVector(np.eye(1 << m, dtype=complex)[:, 0], (("R", 1 << m),))
    return tensor(ref, base)


def ebit_ptc(
    family: PtcFamily,
    attack: AttackDescriptor,
    detail: bool = False,
) -> FinalState:
    """Entanglement generation with the encoder-keyed code family.

    The sender makes m fresh ebits, encodes one half with the secret (t, y),
    and ships it through the attack; the receiver decodes and compares
    syndromes. Accept leaves registers (A, B, E); reject outputs the error
    state (A maximally mixed, B replaced by the error symbol).
    """
    dm = 1 << family.m
    base = StateVector(max_entangled_vector(dm), (("A", dm), ("B0", dm)))
    base = _maybe_reference(base, attack, family.m)
    return key_sweep(
        *_sweep_pieces(family, attack),
        base,
        "B0",
        _ebit_output_plan(detail),
        _detail_fields(detail),
    )


def ebit_ptp(
    family: PtcFamily,
    attack: AttackDescriptor,
    detail: bool = False,
) -> FinalState:
    """Entanglement generation in the bilateral syndrome-measurement form.

    Both parties hold halves of n fresh ebit pairs (the receiver's half
    arrives through the attack). The sender measures her syndrome in the
    conjugated code basis (for real encoders this is the same code) and the
    receiver in the plain one; they accept iff the syndromes agree, then
    decode. Produces the same final state as ``ebit_ptc`` branch for branch.
    """
    m, s, n = family.m, family.s, family.n
    dm, dt, dy = 1 << m, 1 << n, 1 << s
    encs = _family_encoders(family)
    iso, att_names, att_out = _attack_pieces(family, attack)
    base = StateVector(max_entangled_vector(dt), (("A0", dt), ("T", dt)))
    base = _maybe_reference(base, attack, m)
    collected: list[Branch] = []
    registers = None
    for t, enc in enumerate(encs):
        rec = (("t", t),)
        h = HybridState.from_pure(base, rec)
        h = h.apply_isometry(iso, att_names, att_out)
        # sender: decode in the conjugate basis, measure her syndrome value
        h = h.apply(enc.matrix.T, ("A0",))
        h = h.split_register("A0", (("Ya", dy), ("A", dm)))
        h = h.measure("Ya", "y")
        # receiver: decode, measure his syndrome value
        h = h.apply(enc.decoder, ("T",))
        h = h.split_register("T", (("Ysyn", dy), ("B", dm)))
        h = h.measure("Ysyn", "ysyn")
        registers = h.registers
        for br in h.branches:
            collected.append(Branch(br.probability / len(encs), br.record, br.vector))
    combined = HybridState(registers, collected, renormalized=True)
    plan = _ebit_output_plan(detail)

    def verdict_plan(rec: Record):
        verdict = ACC if record_get(rec, "ysyn") == record_get(rec, "y") else REJ
        return plan({**dict(rec), "verdict": verdict})

    return combined.finalize(verdict_plan)


def ebit_ideal(verdict: str, m: int) -> FinalState:
    """The ideal entanglement box: perfect ebits on accept, the error state
    (maximally mixed A, error symbol B) on reject."""
    dm = 1 << m
    if verdict == ACC:
        phi = max_entangled_vector(dm)
        block = np.outer(phi, phi.conj())
        return FinalState({(("verdict", ACC),): ((("A", dm), ("B", dm)), block)})
    if verdict == REJ:
        return FinalState({(("verdict", REJ),): ((("A", dm),), np.eye(dm) / dm)})
    raise ValueError(f"verdict must be {ACC} or {REJ}")


def q_ideal(message, verdict: str, recycled_key=None) -> ProtocolOutcome:
    """The ideal quantum channel: exact delivery on accept, error symbols on
    reject."""
    if verdict == ACC:
        return ProtocolOutcome(ACC, message, recycled_key)
    if verdict == REJ:
        return ProtocolOutcome(REJ, ERR, ERR)
    raise ValueError(f"verdict must be {ACC} or {REJ}")
