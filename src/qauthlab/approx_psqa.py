"""Approximate encryption and pure-state authentication at toy scale.

An approximate cipher is a sampled set of K unitaries standing in for the
exact Pauli one-time pad; its flattening quality delta is measured on a grid
of test states plus a seeded sample of random pure states (a sampled lower
bound on the true supremum, reported as such, never assumed).

Remote state preparation turns a known-pure-message cipher into a measurement
on shared entanglement: measuring one ebit half with the elements
{ (U_k rho U_k^dag)^T / M }_k  plus the failure element F collapses the other
half exactly onto U_k rho U_k^dag when k != f. Substituting this for
teleportation inside the authentication protocol yields the pure-state
variant; with the exact Pauli cipher the variant reduces to the standard
protocol branch for branch, and with sampled ciphers the security bound picks
up 2 Pr(f) from the failure branch. The exact cipher is the keyed Pauli pad of
``protocols.key_pads``. Pr(f) comes from ``rsp_scale``, without building
the measurement; the measurement, F included, comes from ``rsp_key`` alone, a
``key_sweep`` key like ``protocols.pad_key`` (``run_psrqa_kg``), and the
engine checks that its elements sum to the identity. ``rsp_twin_identity``
checks the twin against ``run_psqa_kg`` on every record that recycles a
cipher key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import AttackDescriptor
from .codes import PtcFamily
from .hybrid import ACC, ERR, FinalState, key_sweep, record_get
from .protocols import _transfer, pad_key
from .qmath import (
    StateVector,
    haar_state,
    haar_unitary,
    kron_all,
    max_entangled_vector,
    psd_sqrt,
)
from .ucharness import AdvantageReport, ebit_advantage_bound, ideal_sweep, make_report

# sampled ciphers act on at most this many qubits (toy scale)
CIPHER_MAX_M = 2

# measure_delta's test states: the 2^(m+1) basis and Hadamard-basis states and
# this many Haar samples
DELTA_SAMPLES = 2000

# a sampled cipher whose measure_delta array, (2^(m+1) + DELTA_SAMPLES) * K * 2^m
# complex entries, would exceed this is refused before any work
CIPHER_MAX_ENTRIES = 1 << 24


def check_cipher_size(m: int, key_count: int) -> None:
    """Refuse a sampled cipher on more than CIPHER_MAX_M qubits, or one whose
    flattening measurement would hold more than CIPHER_MAX_ENTRIES complex
    entries."""
    if m > CIPHER_MAX_M:
        raise ValueError(f"sampled ciphers are limited to m <= {CIPHER_MAX_M}; this family has m = {m}")
    entries = (((2 << m) + DELTA_SAMPLES) * key_count) << m
    if entries > CIPHER_MAX_ENTRIES:
        raise ValueError(
            f"a cipher of K = {key_count} keys on m = {m} qubits needs (2^(m+1) + {DELTA_SAMPLES}) * K * 2^m "
            f"= {entries} entries to measure, above the limit 2^24 = {CIPHER_MAX_ENTRIES}"
        )


@dataclass(frozen=True)
class ApproxCipher:
    """K unitaries on m qubits with a measured flattening parameter.

    delta_measured is the maximum over the tested pure states rho of
    2^m * || (1/K) sum_k U_k rho U_k^dag - I/2^m ||_inf. Exhaustive over the
    test grid, sampled beyond it.
    """

    unitaries: tuple[np.ndarray, ...]
    m: int
    delta_measured: float
    seed: int | None = None
    label: str = ""

    @property
    def key_count(self) -> int:
        return len(self.unitaries)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "K": self.key_count,
            "seed": self.seed,
            "delta_measured": self.delta_measured,
            "label": self.label,
        }


def _test_states(m: int, rng: np.random.Generator, samples: int) -> list[np.ndarray]:
    d = 1 << m
    states = [np.eye(d, dtype=complex)[:, i] for i in range(d)]
    hall = kron_all([np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)] * m)
    states += [hall @ np.eye(d, dtype=complex)[:, i] for i in range(d)]
    states += [haar_state(d, rng) for _ in range(samples)]
    return states


def measure_delta(
    unitaries, m: int, seed: int = 0, samples: int = DELTA_SAMPLES
) -> float:
    """Measured flattening parameter of a cipher over the standard test set."""
    d = 1 << m
    rng = np.random.default_rng(seed ^ 0x5EED)
    # U_k |psi> for every test state psi and key k, then every average at once
    images = np.einsum("kab,sb->ska", np.stack(unitaries), np.stack(_test_states(m, rng, samples)))
    avg = np.einsum("ska,skb->sab", images, images.conj()) / len(unitaries)
    return float(d * np.linalg.norm(avg - np.eye(d) / d, 2, axis=(1, 2)).max())


def sample_cipher(m: int, key_count: int, seed: int) -> ApproxCipher:
    """K Haar-random unitaries with the measured (not assumed) delta."""
    check_cipher_size(m, key_count)
    rng = np.random.default_rng(seed)
    unis = tuple(haar_unitary(1 << m, rng) for _ in range(key_count))
    delta = measure_delta(unis, m, seed=seed)
    return ApproxCipher(unis, m, delta, seed=seed, label=f"haar-{m}-K{key_count}-s{seed}")


# ---------------------------------------------------------------------------
# remote state preparation
# ---------------------------------------------------------------------------


def rsp_scale(cipher: ApproxCipher, message_vec: np.ndarray) -> tuple[np.ndarray, float, float]:
    """S = sum_k U_k rho U_k^dag for rho = |message><message|, its norm M and
    the failure probability max(0, 1 - K/(M 2^m)) of ``rsp_key``'s
    measurement, without building it."""
    vec = np.asarray(message_vec, dtype=complex).reshape(-1)
    d = 1 << cipher.m
    if vec.size != d:
        raise ValueError(f"message must have dimension {d}")
    if abs(np.vdot(vec, vec).real - 1.0) > 1e-10:
        raise ValueError("message must be a unit vector (pure state)")
    # S = sum_k (U_k vec)(U_k vec)^dag, PSD, so its norm is its top eigenvalue
    images = np.stack(cipher.unitaries) @ vec
    total = images.T @ images.conj()
    scale = float(np.linalg.eigvalsh(total)[-1])
    p_fail = 1.0 - cipher.key_count / (scale * d)
    return total, scale, float(max(p_fail, 0.0))


def rsp_key(cipher: ApproxCipher, message_vec: np.ndarray):
    """The ``key_sweep`` key of the cipher's preparation measurement for one
    known pure message, on the sender's half "Ams" of an ebit.

    Outcome k has the operator |0><conj(U_k message)| / sqrt(M), so its
    element is (U_k rho U_k^dag)^T / M, and the failure outcome f has
    sqrt(F), F = I - S^T / M: the one place F is formed. Applied to half of
    a maximally entangled pair, outcome k occurs with probability 1/(M 2^m)
    and leaves the far half in exactly U_k rho U_k^dag, undone by U_k^dag on
    accept; f has probability 1 - K/(M 2^m) and leaves the far half as it
    is. ``key_sweep`` checks that the elements sum to the identity."""
    vec = np.asarray(message_vec, dtype=complex).reshape(-1)
    total, scale, _ = rsp_scale(cipher, vec)
    d = len(vec)
    ket0 = np.eye(d, dtype=complex)[:, 0]
    # as a matrix, the operator's row is the unconjugated encryption, so the
    # far half collapses to U_k message
    ops = [np.outer(ket0, u @ vec) / np.sqrt(scale) for u in cipher.unitaries]
    ops.append(psd_sqrt(np.eye(d, dtype=complex) - total.T / scale))
    corrections = [u.conj().T for u in cipher.unitaries] + [np.eye(d, dtype=complex)]
    return "k", list(range(cipher.key_count)) + ["f"], ("Ams",), np.stack(ops), (("Ams", d),), np.stack(corrections)


# ---------------------------------------------------------------------------
# the pure-state protocol and its remote-preparation twin
# ---------------------------------------------------------------------------


def _psqa_plan(internal: tuple[str, ...] = ()):
    """Finalize plan: fields -> (record, drop); ``internal`` registers
    never reach the environment."""

    def plan(fields: dict):
        verdict, key = fields["verdict"], fields["k"]
        if verdict == ACC and key != "f":
            out_rec, drop = (("verdict", ACC), ("key", key)), ()
        else:
            out_rec, drop = (("verdict", verdict), ("key", ERR)), ("M",)
        return out_rec, drop + internal

    return plan


def run_psqa_kg(
    message_vec: np.ndarray,
    cipher: ApproxCipher,
    family: PtcFamily,
    attack: AttackDescriptor,
) -> FinalState:
    """Pure-state authentication: the cipher replaces the Pauli pad.

    The message is a known pure state prepared at the sender (no reference
    register), encrypted with a uniformly chosen cipher key, encoded and
    shipped exactly as in the standard protocol, and the cipher key is
    recycled on accept.
    """
    dm = 1 << family.m
    vec = np.asarray(message_vec, dtype=complex).reshape(-1)
    return key_sweep(
        _transfer(family, attack),
        StateVector(vec, (("Mc", dm),)),
        "Mc",
        _psqa_plan(),
        key=pad_key("k", range(cipher.key_count), np.stack(cipher.unitaries), "Mc"),
        receiver="M",
    )


def run_psrqa_kg(
    message_vec: np.ndarray,
    cipher: ApproxCipher,
    family: PtcFamily,
    attack: AttackDescriptor,
) -> FinalState:
    """Remote-preparation twin: entanglement through the attacked channel,
    then the message-specific measurement ``rsp_key`` on the sender's half.

    On outcome k != f the receiver's half collapses exactly onto the k-th
    encryption of the message, so conditioned on not failing, the final state
    matches ``run_psqa_kg`` branch for branch; the failure outcome carries
    probability 1 - K/(M 2^m) and error symbols.
    """
    dm = 1 << family.m
    base = StateVector(max_entangled_vector(dm), (("Ams", dm), ("B0", dm)))
    return key_sweep(
        _transfer(family, attack),
        base,
        "B0",
        _psqa_plan(internal=("Ams",)),
        key=rsp_key(cipher, message_vec),
        receiver="M",
    )


def psqa_ideal(
    message_vec: np.ndarray,
    cipher: ApproxCipher,
    family: PtcFamily,
    attack: AttackDescriptor,
) -> FinalState:
    """Simulator + ideal channel + ideal key box for the pure-state protocol:
    the exact message sits in M throughout and is delivered on accept."""
    vec = np.asarray(message_vec, dtype=complex).reshape(-1)
    message = StateVector(vec, (("M", 1 << family.m),))
    return ideal_sweep(message, family, attack, range(cipher.key_count), lambda k: (("key", k),))


def _keyed_accepts(final: FinalState, scale: float) -> FinalState:
    """The accept blocks of ``final`` that recycle a cipher key, times ``scale``."""
    return FinalState({
        rec: (block.registers, scale * block.matrix)
        for rec, block in final.blocks.items()
        if record_get(rec, "verdict") == ACC and record_get(rec, "key") != ERR
    })


def rsp_twin_identity(
    message_vec: np.ndarray,
    cipher: ApproxCipher,
    family: PtcFamily,
    attack: AttackDescriptor,
) -> float:
    """Full 1-norm distance between the accept blocks with a cipher key of
    ``run_psrqa_kg`` and (1 - Pr f) times those of ``run_psqa_kg``, a record
    that one side lacks counting its weight. Zero up to roundoff: on outcome
    k != f the twin's receiver half collapses exactly onto the k-th
    encryption, with probability (1 - Pr f) / K."""
    real = run_psqa_kg(message_vec, cipher, family, attack)
    twin = run_psrqa_kg(message_vec, cipher, family, attack)
    kept = 1.0 - rsp_scale(cipher, message_vec)[-1]
    return _keyed_accepts(twin, 1.0).distance(_keyed_accepts(real, kept))


def psqa_advantage(
    message_vec: np.ndarray,
    cipher: ApproxCipher,
    family: PtcFamily,
    attack: AttackDescriptor,
) -> AdvantageReport:
    """Real-vs-ideal advantage of the pure-state protocol.

    The bound is the entanglement-generation bound plus 2 Pr(f) with the
    failure probability measured for this very message and cipher.
    """
    real = run_psqa_kg(message_vec, cipher, family, attack)
    ideal = psqa_ideal(message_vec, cipher, family, attack)
    advantage = real.distance(ideal)
    p_f = rsp_scale(cipher, message_vec)[-1]
    bound = min(2.0, ebit_advantage_bound(family.epsilon_verified) + 2.0 * p_f)
    p_acc = real.weight_where(lambda r: record_get(r, "verdict") == ACC)
    return make_report(
        "PSQA+KG",
        attack,
        p_acc,
        advantage,
        bound,
        family.epsilon_verified,
        failure_probability=float(p_f),
        delta_measured=float(cipher.delta_measured),
        cipher=cipher.to_json(),
    )
