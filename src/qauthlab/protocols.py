"""Executable circuits for the authentication / key-recycling protocol family.

Implemented protocols (the keyed sweeps over ``hybrid.key_sweep`` and one
shared transfer; ``ebit_ptp`` as its own batched sweep, in fixed
arithmetic):

- ``run_qa_kg``: encrypt, encode into a secretly keyed error-detecting code
  with a secret syndrome, transmit under attack, decode, compare syndromes,
  decrypt, and recycle the encryption key on accept.
- ``run_tqa_kg``: the teleportation-based twin, whose key is the Bell
  measurement in the basis {(I (x) s_xz)|Phi>} (``bell_key``); produces the
  same final state branch for branch. The sweeps keep one record per verdict
  and key; the tests compare the branches in a per-slice oracle.
- ``ebit_ptc`` / ``ebit_ptp``: entanglement generation over the attacked
  channel, in the encoder-keyed form and the bilateral syndrome-measurement
  form. On reject both output the error state: maximally mixed on A, error
  symbol on B. ``ebit_ptc``'s plan drops B, and ``_mixed_on_reject`` puts
  I/d on A once the sweep is summed; ``ebit_ptp`` builds that record itself.

``ebit_ptp`` does not go through ``key_sweep`` on purpose. Its accept blocks
feed ``fidelity_acc``, which is ill-conditioned on these rank-deficient
states (a 1e-17 perturbation of the state moves it by up to 2.7e-8), so its
accept path keeps the arithmetic of one branch at a time while it computes
every (code, syndrome) branch of a chunk of codes at once. It applies the
attack through ``hybrid._apply``, the one helper that contracts an operator
into named registers, by which ``key_sweep`` applies its key. What keeps the
bits: the decoders are applied by one batched product whose per-code matrix
products have the shapes and layouts of the per-branch ``tensordot`` (the
same BLAS call each); the syndrome probabilities reduce the same contiguous
rows; each branch is normalized, weighted and outer-multiplied as one branch
was; and the accept blocks are summed in (code, syndrome) order, one term
after another (one sequential ``np.add.reduce`` over the record's running
sum and the chunk's branches), across chunks too. A stacked contraction sums
the same terms in another order and moves ``fidelity_acc`` by up to 2.75e-8,
far beyond the 1e-12 the reports are held to. The reject branches (received
syndrome != sent syndrome) feed no such field, and a rejected run outputs
I/d on A with B discarded, so only their marginal on the other registers
(E, and R when the attack holds one) is read. Per chunk of codes they are
weighted, and their record is one Gram over those registers, counted if its
trace is above PRUNE_BELOW as the key sweep prunes a class; after the last
chunk, one ``np.kron`` puts I/d on A. Nothing of a reject branch is built on
A or B.

The keyed sweeps share one linear map: encode, attack, decode. The simulator
sends a dummy ebit half through the same coded channel and attack as the
real run, and the teleported twin changes only how the key is handled. So
``build_transfer`` applies that map once per (family, attack) to the basis of
its probe registers (the carrier, and R when the attack acts on it), and
every ``key_sweep`` of the job reads the result (``_transfer``): its two
verdict Grams, summed over every code. The branch maps are built in chunks
of codes (``_code_chunks``, ``hybrid.CHUNK_ELEMENTS``, the engine's one
budget), each freed once its Grams are added in. At m=1, s=3 swap-held's
transfer takes four chunks (4,096 entries per code); every other transfer of
the attack suite fits in one. A chunk's branch maps are two batched products
and one transpose: the attack's isometry, as a matrix on T, times every
encoder, then each code's decoder on the attacked T. That reads the isometry's input as
(R, T), R first, as ``adversary.build_attack`` lifts it; ``build_transfer``
refuses any other order. Each keyed run passes its secret key to
``key_sweep`` as one instrument on its input: a pad as U_k / sqrt(K)
(``pad_key``, for ``run_qa_kg`` and ``approx_psqa.run_psqa_kg``), and
``run_tqa_kg``'s Bell measurement (``bell_key``), whose registers the code
never touches, so it commutes with encoding and attack.

Shared pieces are built once, here: the keyed Pauli pad (``key_pads``, once
per m, read by ``run_qa_kg``, ``bell_key`` and ``ucharness.run_qa_kg_ideal``'s
key list), a family's encoders as one read-only stack
(``_family_encoders``, read by ``build_transfer``, ``ebit_ptp`` and
``ucharness._soundness_operator``), an attack's isometry (``_attack_pieces``)
and the transfer (``_transfer``), the last two once per job: both are
caches of one entry keyed by (family, attack), so every final-state build
of one job reuses them and the next job's replace them.

Conventions: keys x, z are m-bit masks; the encryption operator is the
qubit-wise X^x Z^z. Code index t and syndrome y are marginalized out of final
states (they are not protocol outputs); the recycled key is kept classically.
The attack is always applied as its isometry, so the adversary's retained
register E appears explicitly in every final state.
"""

from __future__ import annotations

from functools import lru_cache
import numpy as np

from . import hybrid
from .adversary import AttackDescriptor, build_attack
from .codes import PtcFamily, encoding_unitary
from .hybrid import (
    ACC,
    ERR,
    PRUNE_BELOW,
    REJ,
    FinalState,
    Transfer,
    _apply,
    checked_total,
    key_sweep,
    record_get,
)
from .pauli import enumerate_paulis, pauli_matrix
from .qmath import (
    RegisterError,
    Registers,
    StateVector,
    max_entangled_vector,
    reg_dims,
    reg_positions,
    tensor,
    total_dim,
)

# ---------------------------------------------------------------------------
# keys: the Pauli pad and the Bell measurement
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def key_pads(m: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """The keyed Pauli pad, once per m: every key pair (x, z) in
    ``enumerate_paulis``' order (x-major, z-minor, so key (x, z) is row x *
    2^m + z) and the read-only stack of the X^x Z^z they select. Every keyed
    sweep, the Bell basis and the exact cipher read their pads from here."""
    paulis = list(enumerate_paulis(m))
    stack = np.stack([pauli_matrix(p) for p in paulis])
    stack.setflags(write=False)
    return tuple((p.x, p.z) for p in paulis), stack


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


def build_transfer(encoders: np.ndarray, attack, m: int) -> Transfer:
    """The ``hybrid.Transfer`` of the encoder stack under ``attack`` =
    (isometry, names, out registers): every code's encoder, for every
    syndrome key y, then the attack, then the code's decoder, with the
    received syndrome read off. The sweep is applied to the basis of the
    probe registers (R when the attack acts on it, then the 2^m-dim
    carrier), in chunks of codes whose largest array holds at most
    ``hybrid.CHUNK_ELEMENTS`` entries (or one code's, if that is more). Each
    chunk's two verdict Grams are added in place into the first chunk's, and
    its branch maps are freed before the next chunk is built. The attack acts
    on ("T",) or on ("R", "T"), R first, as ``adversary.build_attack`` lifts
    it; any other order is refused before any work."""
    iso, att_names, att_out = attack
    if att_names not in (("T",), ("R", "T")):
        raise RegisterError(f"a transfer takes attacks on ('T',) or ('R', 'T'), R first; got {att_names}")
    dc = 1 << m
    dy = encoders.shape[1] // dc
    probe = tuple(r for r in att_out if r[0] == "R") + (("T", dc),)
    # the attacked amplitudes of one code hold as many entries as its transfer
    per_code = total_dim(probe) * dy * total_dim(att_out)
    scale = 1.0 / np.sqrt(len(encoders) * dy)
    # REJ, then ACC: the (y, ysyn) with y == ysyn, as row indices of a code
    accept = np.eye(dy, dtype=bool).reshape(-1)
    verdict_rows = (np.flatnonzero(~accept), np.flatnonzero(accept))
    grams = []
    for codes in _code_chunks(encoders, per_code):
        x = _transfer_chunk(codes, probe, attack, scale).reshape(len(codes), dy * dy, -1)
        for i, rows in enumerate(verdict_rows):
            # the verdict's rows, gathered once, in the order (code, y, ysyn)
            picked = x[:, rows].reshape(-1, x.shape[-1])
            gram = picked.T @ picked.conj()
            if i < len(grams):
                grams[i] += gram
            else:
                grams.append(gram)
            # freed before the next Gram is taken: at most one beside the sums
            del gram, picked
        del x
    for gram in grams:
        gram.setflags(write=False)
    # after the attack the registers are att_out; the decoder reads T as
    # (ysyn, receiver)
    return Transfer(probe, tuple(("T", dc) if r[0] == "T" else r for r in att_out), tuple(zip((REJ, ACC), grams)))


def _code_chunks(encoders: np.ndarray, per_code: int) -> list[np.ndarray]:
    """The encoder stack in runs of codes, each of whose arrays, at
    ``per_code`` entries per code, holds at most ``hybrid.CHUNK_ELEMENTS``
    entries (or one code's, if that is more), read at each call.
    ``build_transfer``, ``ebit_ptp`` and ``ucharness._soundness_operator``
    chunk their codes here."""
    step = max(1, hybrid.CHUNK_ELEMENTS // per_code)
    return [encoders[t0 : t0 + step] for t0 in range(0, len(encoders), step)]


def _transfer_chunk(encoders: np.ndarray, probe: Registers, attack, scale: float) -> np.ndarray:
    """The branch maps of one chunk of codes of ``build_transfer``, read-only
    and laid out (codes, y, ysyn, out, probe): two batched products and one
    transpose."""
    iso = attack[0]
    codes, dt, dc, dp = len(encoders), encoders.shape[1], dict(probe)["T"], total_dim(probe)
    dr, dy = dp // dc, dt // dc
    # the attack on every encoder: rows (R', T', E, R), columns (y, carrier)
    amps = np.matmul(iso.reshape(-1, dt), encoders)
    # the decoder of code t on T', read as (ysyn, receiver)
    amps = np.matmul(encoders.conj().transpose(0, 2, 1)[:, None], amps.reshape(codes, dr, dt, -1))
    # (codes, R', ysyn, receiver, E, R, y, carrier) -> (codes, y, ysyn, out, probe)
    amps = amps.reshape(codes, dr, dy, dc, -1, dr, dy, dc).transpose(0, 6, 2, 1, 3, 4, 5, 7)
    x = np.multiply(scale, amps, order="C").reshape(codes, dy, dy, -1, dp)
    x.setflags(write=False)
    return x


# One entry, like _attack_pieces: every sweep of one job reads the same
# transfer, and the next job's replaces it.
@lru_cache(maxsize=1)
def _transfer(family: PtcFamily, attack: AttackDescriptor) -> Transfer:
    """The family's transfer under the attack, built once per job."""
    return build_transfer(_family_encoders(family), _attack_pieces(family, attack), family.m)


def _qa_output_plan(back_communication: bool):
    """Finalize plan for message-carrying runs: fields -> (record, drop)."""

    def plan(fields: dict):
        key = fields["key"]
        if fields["verdict"] == ACC:
            return (("verdict", ACC), ("key_alice", key), ("key_bob", key)), ()
        alice = ERR if back_communication else key
        return (("verdict", REJ), ("key_alice", alice), ("key_bob", ERR)), ("M",)

    return plan


# ---------------------------------------------------------------------------
# authentication with key recycling, and its teleported twin
# ---------------------------------------------------------------------------


def run_qa_kg(
    input_state: StateVector,
    family: PtcFamily,
    attack: AttackDescriptor,
    back_communication: bool = True,
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
        _transfer(family, attack),
        input_state,
        "M",
        _qa_output_plan(back_communication),
        key=pad_key("key", *key_pads(m), "M"),
        receiver="M",
    )


def run_tqa_kg(
    input_state: StateVector,
    family: PtcFamily,
    attack: AttackDescriptor,
    back_communication: bool = True,
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
        _transfer(family, attack),
        tensor(input_state, ebits),
        "A2",
        _qa_output_plan(back_communication),
        key=bell_key(m, ("M", "A1")),
        receiver="M",
    )


# ---------------------------------------------------------------------------
# entanglement generation over the insecure channel
# ---------------------------------------------------------------------------


def _ebit_output_plan(fields: dict):
    """Finalize plan for entanglement runs: fields -> (record, drop B on reject)."""
    return (("verdict", fields["verdict"]),), () if fields["verdict"] == ACC else ("B",)


def _mixed_on_reject(final: FinalState, m: int) -> FinalState:
    """The error state's A: I/d on every reject record."""
    return final.replaced(lambda rec: record_get(rec, "verdict") == REJ, ("A",), np.eye(1 << m) / (1 << m))


def _maybe_reference(base: StateVector, attack: AttackDescriptor, m: int) -> StateVector:
    """Entanglement runs have no message reference; attacks that want an R
    register get a fresh environment-held one in |0...0>."""
    if "R" not in attack.acts_on:
        return base
    ref = StateVector(np.eye(1 << m, dtype=complex)[:, 0], (("R", 1 << m),))
    return tensor(ref, base)


def ebit_ptc(family: PtcFamily, attack: AttackDescriptor) -> FinalState:
    """Entanglement generation with the encoder-keyed code family.

    The sender makes m fresh ebits, encodes one half with the secret (t, y),
    and ships it through the attack; the receiver decodes and compares
    syndromes. Accept leaves registers (A, B, E); reject outputs the error
    state (A maximally mixed, B replaced by the error symbol).
    """
    dm = 1 << family.m
    base = StateVector(max_entangled_vector(dm), (("A", dm), ("B0", dm)))
    base = _maybe_reference(base, attack, family.m)
    return _mixed_on_reject(key_sweep(_transfer(family, attack), base, "B0", _ebit_output_plan), family.m)


def ebit_ptp(family: PtcFamily, attack: AttackDescriptor) -> FinalState:
    """Entanglement generation in the bilateral syndrome-measurement form.

    Both parties hold halves of n fresh ebit pairs (the receiver's half
    arrives through the attack). The sender measures her syndrome in the
    conjugated code basis (for real encoders this is the same code) and the
    receiver in the plain one; they accept iff the syndromes agree, then
    decode. Produces the same final state as ``ebit_ptc`` branch for branch.

    Every (code, syndrome) branch of a chunk of codes is computed at once, in
    the arithmetic of one branch at a time (see the module notes): per code,
    the same decoder products, per branch the same normalization and outer
    product (into one buffer per call), and the accept blocks summed in
    (code, syndrome) order. The reject record is built on the registers it
    keeps only: per chunk, one Gram of the weighted reject branches over the
    registers other than A and B, summed over the chunks and put next to
    I/d on A at the end.
    """
    m, s, n = family.m, family.s, family.n
    dm, dt, dy = 1 << m, 1 << n, 1 << s
    encs = _family_encoders(family)
    base = StateVector(max_entangled_vector(dt), (("A0", dt), ("T", dt)))
    base = _maybe_reference(base, attack, m)
    attacked, att_regs = _apply(base.amplitudes, base.registers, *_attack_pieces(family, attack))
    # the sender's A0 reads as (Ya, A) and the receiver's T as (Ysyn, B); each
    # syndrome leads and the rest keeps the register order
    (pos_a,) = reg_positions(att_regs, ("A0",))
    sent_regs = att_regs[:pos_a] + (("A", dm),) + att_regs[pos_a + 1 :]
    (pos_t,) = reg_positions(sent_regs, ("T",))
    out_regs = sent_regs[:pos_t] + (("B", dm),) + sent_regs[pos_t + 1 :]
    # an accept block keeps every register, sorted by name
    order = sorted(range(len(out_regs)), key=lambda i: out_regs[i][0])
    acc_regs, d_out = tuple(out_regs[i] for i in order), total_dim(out_regs)
    # the attacked state as a matrix, A0 first: the sender's decoder acts on it
    attacked = np.moveaxis(attacked.reshape(reg_dims(att_regs)), pos_a, 0).reshape(dt, -1)
    diag = np.arange(dy)
    (acc_record, _), (rej_record, _) = _ebit_output_plan({"verdict": ACC}), _ebit_output_plan({"verdict": REJ})
    # the reject record is I/d on A times a Gram over the other registers but
    # B, sorted by name, summed over the chunks
    ab = reg_positions(out_regs, ("A", "B"))
    rest = sorted((i for i in range(len(out_regs)) if i not in ab), key=lambda i: out_regs[i][0])
    rej_regs, rejected = (("A", dm),) + tuple(out_regs[i] for i in rest), None
    blocks: dict = {}
    chunks = _code_chunks(encs, attacked.size)
    # the outer products in runs of at most hybrid.CHUNK_ELEMENTS entries,
    # written into one buffer, made at the first run: branch i's block in slot
    # i + 1, the running sum in slot 0
    per, rhos = max(1, hybrid.CHUNK_ELEMENTS // (d_out * d_out)), None
    for chunk in chunks:
        c = len(chunk)
        # sender: decode in the conjugate basis, measure her syndrome value
        sent = np.matmul(chunk.transpose(0, 2, 1), attacked)
        sent = sent.reshape((c, dy, dm) + reg_dims(att_regs[:pos_a] + att_regs[pos_a + 1 :]))
        sent = np.moveaxis(sent, 2, 2 + pos_a).reshape(c, dy, -1)
        p_y = np.einsum("tij,tij->ti", sent, sent.conj()).real
        alive = p_y > PRUNE_BELOW
        sent /= np.sqrt(np.where(alive, p_y, 1.0))[..., None]
        sent[~alive] = 0.0
        # receiver: decode, measure his syndrome value
        sent = np.moveaxis(sent.reshape((c, dy) + reg_dims(sent_regs)), 2 + pos_t, 2)
        sent = sent.reshape(c, dy, dt, -1)
        got = np.matmul(chunk.conj().transpose(0, 2, 1)[:, None], sent)
        del sent
        got = got.reshape((c, dy, dy, dm) + reg_dims(sent_regs[:pos_t] + sent_regs[pos_t + 1 :]))
        got = np.moveaxis(got, 3, 3 + pos_t).reshape(c, dy, dy, -1)
        probs = np.einsum("tyij,tyij->tyi", got, got.conj()).real
        # the accept branches, normalized and weighted
        p = p_y * probs[:, diag, diag]
        ts, ys = np.nonzero(p > PRUNE_BELOW)
        parts = got[ts, ys, ys]
        parts /= np.sqrt(probs[ts, ys, ys])[:, None]
        parts = parts.reshape((len(ts),) + reg_dims(out_regs)).transpose([0] + [1 + i for i in order])
        parts = parts.reshape(len(ts), d_out, 1)
        weights = p[ts, ys] / len(encs)
        # the reject branches (t, y, ysyn != y), weighted: one Gram over the
        # registers their record keeps, counted if its trace is above PRUNE_BELOW
        got *= np.sqrt(p_y / len(encs))[..., None, None]
        got[:, diag, diag] = 0.0
        x = got.reshape((-1,) + reg_dims(out_regs)).transpose([0, *(1 + i for i in ab), *(1 + i for i in rest)])
        x = x.reshape(-1, total_dim(rej_regs) // dm)
        gram = x.T @ x.conj()
        del got, x
        if gram.trace().real > PRUNE_BELOW:
            rejected = gram if rejected is None else rejected + gram
        # the accept branches added in branch order
        for lo in range(0, len(ts), per):
            part = parts[lo : lo + per]
            k = len(part)
            if rhos is None:
                rhos = np.empty((min(per, len(chunks[0]) * dy) + 1, d_out, d_out), dtype=complex)
            np.matmul(part, part.conj().transpose(0, 2, 1), out=rhos[1 : k + 1])
            rhos[1 : k + 1] *= weights[lo : lo + per, None, None]
            # the accept branches all add, one after another, to the running
            # sum of the one accept record, by one reduction
            start = 1
            if acc_record in blocks:
                start, rhos[0] = 0, blocks[acc_record][1]
            blocks[acc_record] = (acc_regs, np.add.reduce(rhos[start : k + 1], axis=0))
    if rejected is not None:
        # the error state: A maximally mixed
        blocks[rej_record] = (rej_regs, np.kron(np.eye(dm) / dm, rejected))
    return checked_total(FinalState(blocks), "ebit_ptp")
