"""The composable-security experiments: real vs ideal-plus-simulator.

For entanglement generation, the simulator runs a dummy copy of the protocol
through the same attack, uses its verdict to drive the ideal box, and discards
the dummy payload. Writing S for the accept-conditional joint state on the
payload pair (A, B) and the adversary's retained system E, the two final
states an environment can hold are

    real : p_acc * S_ABE (x) acc   +  p_rej * (error state) (x) rej
    ideal: p_acc * (perfect ebits (x) S_E) (x) acc  +  the same reject term

with identical reject terms by construction, so the distinguishability
advantage equals p_acc times the distance between S_ABE and perfect ebits
tensored with its own E-marginal, and is bounded by 2 sqrt(2) eps^(1/3)
where eps is the family's verified detection-failure rate.

For the full authentication-plus-key-generation protocol, the composed ideal
side is built directly: the dummy run decides the verdict; on accept the ideal
channel delivers the message exactly and the ideal key box emits a fresh
uniform key; on reject everything is replaced by error symbols.

Everything is reported in the full 1-norm (maximum 2 between states).

The soundness operator Omega is built only as its 2^n XOR blocks, the
entries between rows (i, j) and columns (k, l) with i ^ j = k ^ l, from 2^n
small Grams of the XOR diagonals of the codes' syndrome projectors
(``_soundness_operator``), and ``ptp_soundness_exact`` is the top eigenvalue
of those blocks, after a check that they are real and a seeded probe
(``_off_block_residual``) that compares Omega (a (x) b), computed from the
projectors without the blocks, with the blocks applied to a (x) b;
``_ebit_ideal_from`` puts perfect ebits on the accept records by
``FinalState.replaced``; ``ebit_report`` takes its accept-conditional states
from ``FinalBlock.conditional`` and their AB marginal from
``qmath.partial_trace``; the ideal key list is ``protocols.key_pads``'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adversary import AttackDescriptor
from .codes import PTC_MAX_N, PtcFamily
from .hybrid import ACC, ERR, REJ, FinalState, InvariantError, Record, key_sweep, record_get
from .protocols import _code_chunks, _family_encoders, _transfer, key_pads
from .qmath import (
    ATOL_EXACT,
    StateVector,
    fidelity,
    max_entangled_vector,
    partial_trace,
    tensor,
    trace_norm,
)

ADVANTAGE_TOL = 1e-9

# uc and psqa build dense states on 4^n dims
STATE_LEVEL_MAX_N = 4

# the seed of the soundness probe's random phases (``_probe_phases``)
PROBE_SEED = 20260808


@dataclass(frozen=True)
class AdvantageReport:
    """Record of one real-vs-ideal experiment."""

    protocol: str
    attack: dict
    p_acc: float
    advantage: float
    bound: float
    epsilon_used: float
    passed: bool
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "protocol": self.protocol,
            "attack": self.attack,
            "p_acc": self.p_acc,
            "advantage": self.advantage,
            "bound": self.bound,
            "epsilon_used": self.epsilon_used,
            "pass": self.passed,
            **({"extras": self.extras} if self.extras else {}),
        }


def make_report(protocol, attack_desc, p_acc, advantage, bound, epsilon, **extras):
    advantage = float(advantage)
    if not -ADVANTAGE_TOL <= advantage <= 2.0 + ADVANTAGE_TOL:
        raise InvariantError(f"make_report: {protocol} advantage {advantage} outside [0, 2]")
    return AdvantageReport(
        protocol=protocol,
        attack=attack_desc.to_json(),
        p_acc=float(p_acc),
        advantage=advantage,
        bound=float(bound),
        epsilon_used=float(epsilon),
        passed=bool(advantage <= bound + ADVANTAGE_TOL),
        extras=extras,
    )


def ebit_advantage_bound(eps: float) -> float:
    """2 sqrt(2) eps^(1/3), capped at the trace-distance maximum 2."""
    if eps < 0:
        raise ValueError("epsilon must be nonnegative")
    return min(2.0, 2.0 * math.sqrt(2.0) * eps ** (1.0 / 3.0))


def _is_acc(rec: Record) -> bool:
    return record_get(rec, "verdict") == ACC


# ---------------------------------------------------------------------------
# entanglement generation: real and simulated-ideal final states
# ---------------------------------------------------------------------------


def _ebit_ideal_from(real: FinalState, m: int) -> FinalState:
    """Final state of simulator + ideal box, assembled from a real run.

    A dummy run is statistically identical to the real one, so the real run's
    accept probability and environment marginal are reused; the accept
    branch's payload (A, B) is replaced by perfect ebits, and the reject
    branch is identical to the real protocol's by construction.
    """
    phi = max_entangled_vector(1 << m)
    return real.replaced(_is_acc, ("A", "B"), np.outer(phi, phi.conj()))


def ebit_report(family: PtcFamily, attack: AttackDescriptor, real: FinalState) -> AdvantageReport:
    """Distinguishability advantage of entanglement generation vs its ideal,
    from the real final state (``protocols.ebit_ptp``'s).

    Computed two ways: directly as the distance between the assembled final
    states, and through the factored form p_acc * ||xi_ABE - Phi (x) xi_E||_1.
    Both land in the report; they agree to numerical precision. The extras
    also hold the fidelity F of xi_ABE to Phi (x) xi_E and the overlap defect
    d = Tr[xi_AB (I - Phi)], which obey F >= (1 - d)^2 and, by the
    purity-test soundness, p_acc * d <= eps.
    """
    ideal = _ebit_ideal_from(real, family.m)
    direct = real.distance(ideal)
    p_acc = real.weight_where(_is_acc)
    factored, fid, alpha = 0.0, 1.0, 0.0
    if p_acc > 0:
        xi = real.conditional_where(_is_acc).conditional()
        target = ideal.conditional_where(_is_acc).conditional()
        factored = p_acc * trace_norm(xi.matrix - target.matrix)
        fid = fidelity(xi, target)
        phi = max_entangled_vector(1 << family.m)
        xi_ab = partial_trace(xi, ("A", "B")).matrix
        alpha = float(np.real(np.trace(xi_ab) - phi.conj() @ xi_ab @ phi))
    bound = ebit_advantage_bound(family.epsilon_verified)
    return make_report(
        "EBIT",
        attack,
        p_acc,
        direct,
        bound,
        family.epsilon_verified,
        advantage_factored=float(factored),
        fidelity_acc=float(fid),
        overlap_defect=float(alpha),
    )


# ---------------------------------------------------------------------------
# exact worst-case soundness of the bilateral syndrome test
# ---------------------------------------------------------------------------


def _probe_phases(dt: int) -> np.ndarray:
    """The soundness probe's vectors a and b (rows 0 and 1), seeded random
    phases with |a_i| = |b_i| = 1."""
    return np.exp(2j * np.pi * np.random.default_rng(PROBE_SEED).random((2, dt)))


def _soundness_operator(family: PtcFamily) -> tuple[np.ndarray, np.ndarray]:
    """The XOR blocks of Omega = (1/|codes|) sum_{t,u} L_{t,u}^dag (I - Phi^m)
    L_{t,u}, the adjoint of the accept-and-decode map applied to the overlap
    defect, and Omega (a (x) b) for the probe vectors of ``_probe_phases``,
    both from the syndrome projectors alone: the (2^n, 2^n, 2^n) complex stack
    B_c[i, k] = Omega[(i, i ^ c), (k, k ^ c)], and the (2^n, 2^n) array Y with
    Y[i, j] = (Omega (a (x) b))[(i, j)], rows (i, j) read as sender (x) receiver.

    L_{t,u} = R_bar (x) R with R = (<u| (x) I) D_t, the sender decoding in
    the conjugate basis and the receiver in the plain one, both finding
    syndrome u (2n qubits -> 2m). Two exact identities remove L:

    - L^dag L = P_bar (x) P, where P = R^dag R = D_t^dag (|u><u| (x) I) D_t is
      the 2^n-dim projector onto code t's syndrome-u space.
    - L^dag Phi L = w w^dag with w = L^dag phi = vec(P_bar) / sqrt(2^m)
      (component (i, j) is sum_a R[a, i] conj(R[a, j]) / sqrt(2^m)).

    So, summing over r = (t, u),

        Omega[(i, j), (k, l)] |codes|
            = sum_r conj(P_r[i, k]) P_r[j, l] - sum_r conj(P_r[i, j]) P_r[k, l] / 2^m.

    With the XOR diagonals A_d[r, i] = P_r[i, i ^ d] and their Grams
    M_d = A_d^dag A_d, entry (i, k) of block c is

        B_c[i, k] |codes| = M_{i ^ k}[i, i ^ c] - M_c[i, k] / 2^m,

    as P_r[i, k] = A_{i ^ k}[r, i] and P_r[i ^ c, k ^ c] = A_{i ^ k}[r, i ^ c].
    The 2^n Grams cost |codes| 2^s 8^n multiply-adds, summed over chunks of
    codes (``protocols._code_chunks``), so no array is larger than a chunk's
    projectors or the (2^n)^3 stack. Applied to a (x) b, the same sum is

        Y |codes| = sum_r conj(P_r) a (P_r b)^T - sum_r (a^T P_r b) conj(P_r) / 2^m,

    which reads every entry of Omega, in and off the blocks, at
    |codes| 2^s 4^n multiply-adds. For a stabilizer code,
    P_u = 2^-s sum_{g in S_t} chi_u(g) g with characters chi_u = +-1, and the
    sum over u keeps only the diagonal pairs: sum_u P_bar_u (x) P_u =
    2^-s sum_g g_bar (x) g, and the Phi term likewise
    2^-s sum_g |g>><<g| / 2^m. The phase of each Hermitian g cancels
    against its conjugate, leaving products of the real X and Z, so Omega
    is real symmetric, whatever logical basis the encoder's SVD picked.
    """
    dm, dt = 1 << family.m, 1 << family.n
    ar = np.arange(dt)
    xor = ar[:, None] ^ ar
    # entry (i, i ^ d) of a flattened projector, in (d, i) order
    diagonal = (ar * dt + xor).ravel()
    a, b = _probe_phases(dt)
    grams = np.zeros((dt, dt, dt), dtype=complex)
    probe = np.zeros((dt, dt), dtype=complex)
    encoders = _family_encoders(family)
    for chunk in _code_chunks(encoders, (dt // dm) * dt * dt):
        rows = chunk.conj().transpose(0, 2, 1).reshape(-1, dm, dt)  # <u| D_t
        projectors = np.matmul(rows.conj().transpose(0, 2, 1), rows)
        # diagonals[d, r, i] = P_r[i, i ^ d]
        diagonals = projectors.reshape(len(rows), -1).take(diagonal, 1).reshape(-1, dt, dt).transpose(1, 0, 2)
        grams += np.matmul(diagonals.conj().transpose(0, 2, 1), diagonals)
        p_b = projectors @ b
        probe += (projectors @ a.conj()).conj().T @ p_b
        # sum_r (a^T P_r b) conj(P_r), conjugated once at the end
        probe -= ((p_b @ a).conj() @ projectors.reshape(len(rows), -1)).conj().reshape(dt, dt) / dm
    # first[c, i, k] = M_{i ^ k}[i, i ^ c]
    first = grams[xor, ar[:, None], xor[:, :, None]]
    blocks = first - grams * (1.0 / dm)
    blocks /= len(family.codes)
    probe /= len(family.codes)
    return blocks, probe


def _off_block_residual(blocks: np.ndarray, probe: np.ndarray) -> float:
    """The largest |entry| of Omega (a (x) b) - (the blocks applied to a (x) b),
    with ``blocks`` and ``probe`` as ``_soundness_operator`` returns them.

    Entry (i, i ^ c) of the blocks applied to a (x) b is
    sum_k B_c[i, k] a_k b_(k ^ c). Omega agrees with its blocks exactly when
    every entry outside them vanishes; as |a_k b_l| = 1, a single entry e
    between row (i, j) and column (k, l) with i ^ j != k ^ l leaves a
    residual of exactly |e| at row (i, j), and several in one row cancel
    only for phases on a set of measure zero.
    The probe also reads the block entries along a second path: Y is summed
    from the projectors, not from the Grams the blocks come from.
    """
    dt = len(blocks)
    a, b = _probe_phases(dt)
    xor = np.arange(dt)[:, None] ^ np.arange(dt)
    # routed[c, i] = sum_k B_c[i, k] a_k b_(k ^ c), the entry (i, i ^ c)
    routed = np.matmul(blocks, (a * b[xor])[:, :, None])[:, :, 0]
    return float(np.abs(routed - probe[np.arange(dt), xor]).max())


def ptp_soundness_exact(family: PtcFamily) -> float:
    """Exact worst case of Tr[ T(rho) ((I - Phi^m) (x) acc) ] over all inputs.

    The functional is linear in the 2n-qubit input rho, so the maximum is the
    largest eigenvalue of Omega (``_soundness_operator``).

    Omega keeps i ^ j, its rows indexed (i, j) as sender (x) receiver: it
    commutes with every Z^a (x) Z^a, which multiplies |i, j> by
    (-1)^(a . (i ^ j)). In each g_bar (x) g of ``_soundness_operator``'s
    sum, both factors have the same X-part X^x, so their signs (-1)^(a . x)
    cancel, and the Phi term's |g>> only changes sign, as Z^a g Z^a = +-g.
    So Omega is 2^n blocks of 2^n x 2^n, one per c = i ^ j, and its top
    eigenvalue is the largest of theirs. Only the blocks are built, and two
    checks stand in for the derivation, each raising ``InvariantError``:

    - The blocks are real symmetric for stabilizer codes, so the value is
      the top eigenvalue of their real parts, from one batched real
      ``eigvalsh``. Dropping an imaginary part can only lower the top
      eigenvalue, which would weaken the check unseen, so an imaginary block
      entry above ATOL_EXACT is refused.
    - The entries outside the blocks are never built, so the probe
      ``_off_block_residual`` compares Omega (a (x) b), summed from the
      projectors, with the blocks applied to a (x) b; a residual above
      ATOL_EXACT is refused.

    This stops at the Z-subgroup on purpose: adding X^b (x) X^b would make
    Omega diagonal in the Pauli-displaced Bell basis, with
    ``codes._missed_counts``' fractions on the diagonal, and a value read off
    that form would share its derivation with the mask count it checks.

    Runs at n <= ``codes.PTC_MAX_N``, where families are searched.
    Cross-validates the mask-level detection predicate against the
    state-level soundness definition: the value matches the family's
    verified epsilon.
    """
    if family.n > PTC_MAX_N:
        raise ValueError(f"exact soundness is limited to n <= {PTC_MAX_N}")
    blocks, probe = _soundness_operator(family)
    residual = float(np.abs(blocks.imag).max())
    if residual > ATOL_EXACT:
        raise InvariantError(f"ptp_soundness_exact: soundness operator has imaginary entries up to {residual!r}")
    off_block = _off_block_residual(blocks, probe)
    if off_block > ATOL_EXACT:
        raise InvariantError(
            f"ptp_soundness_exact: soundness operator has a probe residual of {off_block!r} off its i ^ j blocks"
        )
    return float(np.linalg.eigvalsh(blocks.real).max())


# ---------------------------------------------------------------------------
# the composed experiment for authentication with key recycling
# ---------------------------------------------------------------------------


def run_qa_kg_ideal(
    input_state: StateVector,
    family: PtcFamily,
    attack: AttackDescriptor,
) -> FinalState:
    """Simulator + ideal channel + ideal key box, against the same attack.

    The simulator feeds the attack a dummy encoded ebit half (the message
    never leaves the ideal channel), decodes, and compares syndromes. On
    accept the message is delivered exactly and a fresh uniform key is
    emitted; on reject all outputs are error symbols. The final state lives
    on the same registers (R, M, E) as the real run.
    """
    dm = 1 << family.m
    if dict(input_state.registers).get("M") != dm:
        raise ValueError(f"input must carry an M register of dimension {dm}")
    keys, _ = key_pads(family.m)
    return ideal_sweep(
        input_state, family, attack, keys, lambda key: (("key_alice", key), ("key_bob", key))
    )


def ideal_sweep(
    message: StateVector, family: PtcFamily, attack: AttackDescriptor, keys, key_record
) -> FinalState:
    """Simulator + ideal channel + ideal key box for a ``message`` state that
    carries an M register: the dummy run through ``attack`` decides the
    verdict, M is delivered untouched on accept, and the accept block is split
    evenly over the fresh ``keys``. ``key_record(key)`` gives the key fields
    of a record; on reject they hold ERR and M is dropped."""
    dm = 1 << family.m
    dummy = StateVector(max_entangled_vector(dm), (("Ad", dm), ("B0", dm)))

    def plan(fields: dict):
        if fields["verdict"] == ACC:
            return (("verdict", ACC),), ("Ad", "B")
        return (("verdict", REJ),) + key_record(ERR), ("Ad", "B", "M")

    final = key_sweep(_transfer(family, attack), tensor(message, dummy), "B0", plan)
    blocks = {}
    for rec, block in final.blocks.items():
        if _is_acc(rec):
            share = block.matrix / len(keys)
            share.setflags(write=False)
            for key in keys:
                blocks[(("verdict", ACC),) + key_record(key)] = (block.registers, share)
        else:
            blocks[rec] = (block.registers, block.matrix)
    return FinalState(blocks)


def qa_kg_report(
    family: PtcFamily, attack: AttackDescriptor, real: FinalState, ideal: FinalState
) -> AdvantageReport:
    """Advantage of the real authentication-plus-key-generation run
    (``protocols.run_qa_kg``) against the composed ideal
    (``run_qa_kg_ideal``), bounded by the same 2 sqrt(2) eps^(1/3)."""
    advantage = real.distance(ideal)
    p_acc = real.weight_where(_is_acc)
    bound = ebit_advantage_bound(family.epsilon_verified)
    return make_report(
        "QA+KG",
        attack,
        p_acc,
        advantage,
        bound,
        family.epsilon_verified,
        p_acc_ideal=float(ideal.weight_where(_is_acc)),
    )
