"""Executable circuits for the authentication / key-recycling protocol family.

Implemented protocols (the keyed sweeps over ``hybrid.key_sweep``; the
accept path of ``ebit_ptp`` as a direct loop over one contraction helper,
``_apply``):

- ``teleport``: qubit-wise teleportation with the Bell basis {(I (x) s_xz)|Phi>},
  measured as ``run_tqa_kg``'s Bell key through the sweep's contraction.
- ``run_qa_kg``: encrypt, encode into a secretly keyed error-detecting code
  with a secret syndrome, transmit under attack, decode, compare syndromes,
  decrypt, and recycle the encryption key on accept.
- ``run_tqa_kg``: the teleportation-based twin; produces the same final state
  branch for branch.
- ``ebit_ptc`` / ``ebit_ptp``: entanglement generation over the attacked
  channel, in the encoder-keyed form and the bilateral syndrome-measurement
  form. On reject both output the error state: maximally mixed on A, error
  symbol on B.

``ebit_ptp`` does not go through ``key_sweep`` on purpose. Its accept blocks
feed ``fidelity_acc``, which is ill-conditioned on these rank-deficient
states (a 1e-17 perturbation of the state moves it by up to 2.7e-8), so its
accept path repeats one fixed order of arithmetic: per code and per syndrome,
the same ``tensordot`` contractions, measurement and outer product, summed in
branch order. Stacking that path into ``key_sweep`` reorders the arithmetic
and moves ``fidelity_acc`` by up to 2.75e-8, far beyond the 1e-12 the reports
are held to. Only the accept path is fixed: the reject branches (received
syndrome != sent syndrome) are collected unnormalized and finalized per
record by one product over each chunk of codes, as ``key_sweep`` does.

Each keyed run passes its secret key to ``key_sweep`` as one instrument
taken before encoding: a pad as U_k / sqrt(K) (``pad_key``, for ``run_qa_kg``
and ``approx_psqa.run_psqa_kg``), and ``run_tqa_kg``'s Bell measurement
(``bell_key``), whose registers the code never touches, so it commutes with
encoding and attack.

Shared pieces are built once, here: the keyed Pauli pad (``key_pads``, read
by ``run_qa_kg``, ``bell_key``, ``ucharness.run_qa_kg_ideal``'s key list and
``approx_psqa.pauli_cipher``), a family's encoders as one read-only stack
(``_family_encoders``, read by ``key_sweep``, ``ebit_ptp`` and
``ucharness._accept_decoders``) and an attack's isometry
(``_attack_pieces``, once per job: every final-state build of one (family,
attack) reuses it).

Conventions: keys x, z are m-bit masks; the encryption operator is the
qubit-wise X^x Z^z. Code index t and syndrome y are marginalized out of final
states (they are not protocol outputs); the recycled key is kept classically.
The attack is always applied as its isometry, so the adversary's retained
register E appears explicitly in every final state.
"""

from __future__ import annotations

from functools import lru_cache
import numpy as np

from .adversary import AttackDescriptor, build_attack
from .codes import PtcFamily, encoding_unitary
from .hybrid import (
    ACC,
    CHUNK_ELEMENTS,
    ERR,
    PRUNE_BELOW,
    REJ,
    FinalState,
    _accumulate,
    _contract,
    _keyed,
    checked_total,
    key_sweep,
    mix_records,
)
from .pauli import PauliString, enumerate_paulis, pauli_matrix
from .qmath import (
    RegisterError,
    Registers,
    StateVector,
    max_entangled_vector,
    reg_dims,
    reg_names,
    reg_positions,
    tensor,
    total_dim,
)

# ---------------------------------------------------------------------------
# encryption and teleportation
# ---------------------------------------------------------------------------


def key_pauli(m: int, x: int, z: int) -> np.ndarray:
    """Dense m-qubit X^x Z^z selected by an encryption key pair."""
    return pauli_matrix(PauliString(m, x, z))


def key_pads(m: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The keyed Pauli pad: every key pair (x, z) in ``enumerate_paulis``'
    order (x-major, z-minor, so key (x, z) is row x * 2^m + z) and the stack
    of the X^x Z^z they select. Every keyed sweep, the Bell basis and the
    exact cipher read their pads from here."""
    paulis = list(enumerate_paulis(m))
    return [(p.x, p.z) for p in paulis], np.stack([pauli_matrix(p) for p in paulis])


def _apply(vector: np.ndarray, registers: Registers, matrix, names, out_regs=None):
    """Contract ``matrix`` (out dim x in dim) against the named registers of
    the flat ``vector``. The output registers (by default the input ones)
    take the place of the first named register; the others keep their order.
    Returns the new flat vector and layout. Serves only ``ebit_ptp``'s pinned
    accept path (with ``_split`` and ``_measure``)."""
    pos = reg_positions(registers, names)
    dims = reg_dims(registers)
    out_regs = tuple(registers[p] for p in pos) if out_regs is None else tuple(out_regs)
    k = len(out_regs)
    mat = np.asarray(matrix, dtype=complex).reshape(reg_dims(out_regs) + tuple(dims[p] for p in pos))
    res = np.tensordot(mat, vector.reshape(dims), axes=(tuple(range(k, k + len(pos))), pos))
    at = min(pos)
    res = np.moveaxis(res, range(k), range(at, at + k))
    rest = tuple(r for i, r in enumerate(registers) if i not in pos)
    return res.reshape(-1), rest[:at] + out_regs + rest[at:]


def pad_key(label: str, values, pads: np.ndarray, carrier: str):
    """The ``key_sweep`` key of a pad of K unitaries on ``carrier``, each
    picked with probability 1/K (the instrument U_k / sqrt(K)) and undone by
    U_k^dag on accept."""
    scaled, undo = pads / np.sqrt(len(pads)), pads.conj().transpose(0, 2, 1)
    return label, values, (carrier,), scaled, ((carrier, pads.shape[1]),), undo


def bell_key(m: int, pair: tuple[str, str]):
    """The ``key_sweep`` key of a Bell measurement of the register ``pair``
    (first factor most significant): outcome (x, z), in x-major, z-minor
    order, projects onto the Bell ket (I (x) X^x Z^z)|Phi^m> and is undone by
    (X^x Z^z)^dag on the receiver."""
    values, pads = key_pads(m)
    kets = pads.transpose(0, 2, 1).reshape(len(values), -1) / np.sqrt(1 << m)
    return "key", values, pair, kets.conj()[:, None, :], (), pads.conj().transpose(0, 2, 1)


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
    ``key_sweep`` takes it.
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


# ---------------------------------------------------------------------------
# shared circuit pieces
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _family_encoders(family: PtcFamily) -> np.ndarray:
    """The encoders of the family's codes as one read-only (codes, 2^n, 2^n)
    stack; code t's decoder is ``stack[t].conj().T``."""
    stack = np.stack([encoding_unitary(code) for code in family.codes])
    stack.setflags(write=False)
    return stack


# One entry: the final-state builds of one job share the attack's pieces, and
# nothing is kept from one (family, attack) to the next.
@lru_cache(maxsize=1)
def _attack_pieces(family: PtcFamily, attack: AttackDescriptor):
    """The attack's read-only isometry, target names, and output registers."""
    dims = {"R": 1 << family.m, "T": 1 << family.n}
    iso = build_attack(attack, dims)
    out_regs = tuple((name, dims[name]) for name in attack.acts_on) + (("E", iso.shape[0] // iso.shape[1]),)
    return iso, attack.acts_on, out_regs


def _needs_env_reference(attack: AttackDescriptor) -> bool:
    return "R" in attack.acts_on


def _sweep_pieces(family: PtcFamily, attack: AttackDescriptor):
    """The encoder stack and the attack pieces that ``key_sweep`` takes."""
    return _family_encoders(family), _attack_pieces(family, attack)


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
    return key_sweep(
        *_sweep_pieces(family, attack),
        input_state,
        "M",
        _qa_output_plan(back_communication, detail),
        _detail_fields(detail, "key"),
        key=pad_key("key", *key_pads(m), "M"),
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
    measurement touches no register of the code, so it is simulated first.
    The final state equals ``run_qa_kg``'s branch for branch.
    """
    m = family.m
    dm = 1 << m
    ebits = StateVector(max_entangled_vector(dm), (("A1", dm), ("A2", dm)))
    return key_sweep(
        *_sweep_pieces(family, attack),
        tensor(input_state, ebits),
        "A2",
        _qa_output_plan(back_communication, detail),
        _detail_fields(detail, "key"),
        key=bell_key(m, ("M", "A1")),
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
    The order of the accept path's arithmetic is fixed on purpose (see the
    module notes); the reject branches are batched per chunk of codes.
    """
    m, s, n = family.m, family.s, family.n
    dm, dt, dy = 1 << m, 1 << n, 1 << s
    encs = _family_encoders(family)
    base = StateVector(max_entangled_vector(dt), (("A0", dt), ("T", dt)))
    base = _maybe_reference(base, attack, m)
    attacked, att_regs = _apply(base.amplitudes, base.registers, *_attack_pieces(family, attack))
    plan, exposed = _ebit_output_plan(detail), _detail_fields(detail)
    values = {"t": range(len(encs)), "y": range(dy), "ysyn": range(dy)}
    blocks: dict = {}
    mixes: dict = {}
    step = max(1, CHUNK_ELEMENTS // attacked.size)
    for t0 in range(0, len(encs), step):
        chunk = encs[t0 : t0 + step]
        # the reject branches (t, y, ysyn != y, rest) of the chunk, unnormalized
        rejected = np.zeros((len(chunk), dy, dy, attacked.size // (dy * dy)), dtype=complex)
        for t, enc in enumerate(chunk, t0):
            # sender: decode in the conjugate basis, measure her syndrome value
            vec, regs = _apply(attacked, att_regs, enc.T, ("A0",))
            for y, p_y, vec_y, regs_y in _measure(vec, regs, "A0", (("Ya", dy), ("A", dm)), 1.0):
                # receiver: decode, measure his syndrome value
                vec_y, regs_y = _apply(vec_y, regs_y, enc.conj().T, ("T",))
                tens, probs, out_regs = _split(vec_y, regs_y, "T", (("Ysyn", dy), ("B", dm)))
                rejected[t - t0, y] = np.sqrt(p_y) * tens
                rejected[t - t0, y, y] = 0.0
                p = p_y * float(probs[y])
                if p <= PRUNE_BELOW:
                    continue
                # the accept branch, added in branch order
                record, drop, mix = plan({"t": t, "y": y, "ysyn": y, "verdict": ACC})
                mixes[record] = mix
                names = reg_names(out_regs)
                keep = sorted((i for i, nm in enumerate(names) if nm not in drop), key=names.__getitem__)
                rest = [i for i in range(len(names)) if i not in keep]
                part = (tens[y] / np.sqrt(probs[y])).reshape(reg_dims(out_regs)).transpose(keep + rest)
                part = part.reshape(int(np.prod([out_regs[i][1] for i in keep])), -1)
                rho = p / len(encs) * (part @ part.conj().T)
                if record in blocks:
                    rho = blocks[record][1] + rho
                blocks[record] = (tuple(out_regs[i] for i in keep), rho)
        amps = rejected.reshape(rejected.shape[:3] + reg_dims(out_regs))
        _accumulate(
            blocks, mixes, amps, ["t", "y", "ysyn"], t0, values, out_regs, plan, exposed, 1.0 / len(encs)
        )
    return checked_total(mix_records(blocks, mixes), "ebit_ptp")


def _split(vec: np.ndarray, regs: Registers, name: str, split: Registers):
    """Split register ``name`` into ``split`` and take its first factor out
    as the leading axis. Returns (amplitudes by value of that factor, the
    probability of each value, rest layout). Serves only ``ebit_ptp``'s
    pinned accept path."""
    (pos,) = reg_positions(regs, (name,))
    if total_dim(split) != regs[pos][1]:
        raise RegisterError(f"split {split} does not factor register {regs[pos]}")
    regs = regs[:pos] + tuple(split) + regs[pos + 1 :]
    dims = reg_dims(regs)
    tens = np.moveaxis(vec.reshape(dims), pos, 0).reshape(dims[pos], -1)
    probs = np.einsum("ij,ij->i", tens, tens.conj()).real
    return tens, probs, regs[:pos] + regs[pos + 1 :]


def _measure(vec: np.ndarray, regs: Registers, name: str, split: Registers, prob: float):
    """Split register ``name`` into ``split`` and measure its first factor in
    the computational basis. Yields (value, branch probability, normalized
    rest vector, rest layout) for each outcome whose probability exceeds
    PRUNE_BELOW; ``prob`` is the probability of the branch measured. Serves
    only ``ebit_ptp``'s pinned accept path."""
    tens, probs, rest = _split(vec, regs, name, split)
    for value in range(len(probs)):
        p = prob * float(probs[value])
        if p > PRUNE_BELOW:
            yield value, p, tens[value] / np.sqrt(probs[value]), rest

