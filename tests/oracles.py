"""Reference implementations and test objects that the tests compare against.

None of these is run by an experiment: each is a second, independent way to
compute what the package computes (syndromes and detection one error and one
code at a time, commutation and GF(2) rank on Pauli masks, random codes
drawn one scalar at a time, the key sweep slice by slice and with one record
per branch, the engine's blocks built on every register before the dropped
ones are traced out, teleportation outcome by outcome, the classical channel
message by message, the field product bit by bit, the classical pair counts
and the detection count in their earlier forms, the soundness operator from
the stacked accept-and-decode operators and its functional on one explicit
input, the dense block-diagonal embedding of a final state), or an object
the tests build their cases from. The key sweep and transfer oracles contract
through their own helpers (``_contract``, ``_keyed``), which the engine does
not have, so they share no contraction code with it.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pytest

from qauthlab import approx_psqa, hybrid, protocols, ucharness
from qauthlab.adversary import AttackDescriptor
from qauthlab.approx_psqa import ApproxCipher, measure_delta
from qauthlab.classical_wc import _IRREDUCIBLE, HashFamily
from qauthlab.codes import CodeError, PtcFamily, StabilizerCode
from qauthlab.hybrid import (
    ACC,
    PRUNE_BELOW,
    REJ,
    FinalState,
    Record,
    checked_total,
)
from qauthlab.pauli import PauliString, _parity, hermitian_pauli, pauli_matrix
from qauthlab.protocols import _attack_pieces, _family_encoders, bell_key, key_pads
from qauthlab.qmath import (
    RegisterError,
    StateVector,
    max_entangled_vector,
    reg_dims,
    reg_names,
    reg_positions,
    replace_factors,
    tensor,
    total_dim,
)

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


def symplectic_product(p: PauliString, q: PauliString) -> int:
    """0 if the operators commute, 1 if they anticommute (phases irrelevant)."""
    if p.n != q.n:
        raise ValueError(f"length mismatch {p.n} vs {q.n}")
    return _parity(p.x & q.z) ^ _parity(p.z & q.x)


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) of int rows, by Gaussian elimination on leading bits."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return len(basis)


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
        if gf2_rank(new_rows) != len(new_rows):
            continue
        gens.append(cand)
        rows = new_rows
    return StabilizerCode(n, tuple(rows))


def int64_missed_counts(codes: Sequence[StabilizerCode]) -> np.ndarray:
    """``codes._missed_counts`` as it was before the codes kept their labels:
    each generator's label rebuilt per call, each half's syndromes read off a
    uint8 parity table by an int64 product, and the silent count taken in
    int64 too, so no float rounds anywhere."""
    n, s = codes[0].n, codes[0].s
    labels = np.array([[(g.x << n) | g.z for g in c.generators] for c in codes])
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    parity = (bits @ bits.T).astype(np.uint8) & 1
    weights = 1 << np.arange(s)
    rows = np.arange(1 << n)[:, None]
    offsets = np.arange(len(codes)) << s
    halves = []
    for masks in (labels & ((1 << n) - 1), labels >> n):
        onehot = np.zeros((1 << n, len(codes) << s), dtype=np.int64)
        onehot[rows, parity[:, masks] @ weights + offsets] = 1
        halves.append(onehot)
    silent = (halves[0] @ halves[1].T).ravel()
    group = np.zeros((len(codes), 1), dtype=np.int64)
    for i in range(s):
        group = np.concatenate([group, group ^ labels[:, i : i + 1]], axis=1)
    return silent - np.bincount(group.ravel(), minlength=silent.size)


# ---------------------------------------------------------------------------
# the contractions of the oracles below, which share none with the engine
# ---------------------------------------------------------------------------


def _keyed(amps: np.ndarray, axis: int, target: int, mats: np.ndarray) -> np.ndarray:
    """Apply mats[v] to axis ``target`` of the slices whose axis ``axis`` is v
    (one batched product over v)."""
    moved = np.moveaxis(amps, (axis, target), (0, -1))
    rows = moved.reshape(len(mats), -1, moved.shape[-1])
    out = np.matmul(rows, mats.transpose(0, 2, 1)).reshape(moved.shape[:-1] + (mats.shape[1],))
    return np.moveaxis(out, (0, -1), (axis, target))


def _contract(amps, regs, names: list, matrix, in_names, out_regs, classical=()):
    """Contract ``matrix`` against the named register axes of ``amps``, whose
    leading axes are the classical fields ``names``. The output registers go
    to the end of the layout, except those named in ``classical``, which
    become classical axes after the existing ones."""
    lead = len(names)
    pos = reg_positions(regs, in_names)
    out_dims = reg_dims(out_regs)
    k = len(out_dims)
    tensor = np.asarray(matrix).reshape(out_dims + tuple(regs[p][1] for p in pos))
    amps = np.tensordot(amps, tensor, axes=([lead + p for p in pos], list(range(k, k + len(pos)))))
    regs = tuple(r for i, r in enumerate(regs) if i not in pos) + tuple(out_regs)
    names = list(names)
    for name in classical:
        (p,) = reg_positions(regs, (name,))
        amps = np.moveaxis(amps, len(names) + p, len(names))
        names.append(name)
        regs = regs[:p] + regs[p + 1 :]
    return amps, regs, names


# ---------------------------------------------------------------------------
# the key sweep slice by slice, and records per branch
# ---------------------------------------------------------------------------


def per_slice_key_sweep(encoders, attack, base, carrier, plan, detail, key=None, receiver="B"):
    """The per-slice sweep that ``hybrid.key_sweep`` replaced: ``key_sweep``'s
    arguments, with the encoder stack and the attack pieces (isometry, names,
    out registers) in place of the transfer. Every key value is a leading
    axis of the amplitude array, the encoders, the attack and the decoders
    are applied to the keyed input itself, chunk by chunk, and each record's
    block is one product over its slices (``_accumulate``). With ``detail``
    the plan also reads each slice's code t, syndrome y and received
    syndrome ysyn, so a plan can keep one record per branch
    (``branch_plan``).

    It prunes per slice (a slice of probability at most PRUNE_BELOW is
    dropped), the engine per (key value, record class) pair. No slice of a
    tested family lies near the threshold, so the two rules keep the same
    records there; ``tests/test_hybrid.py`` pins where they part."""
    exposed = ((key[0],) if key is not None else ()) + (("t", "y", "ysyn") if detail else ())
    iso, att_names, att_out = attack
    d_in = dict(base.registers)[carrier]
    dt = encoders[0].shape[0]
    dy = dt // d_in
    values = {"t": range(len(encoders)), "y": range(dy), "ysyn": range(dy)}
    start, start_regs, start_names = base.amplitudes.reshape(reg_dims(base.registers)), base.registers, []
    if key is not None:
        label, values[label], key_names, ops, key_out, corrections = key
        start, start_regs, start_names = _contract(
            start, start_regs, start_names, ops, key_names, ((label, len(ops)),) + tuple(key_out), (label,)
        )
    # one code's amplitudes after the attack: the chunk size follows from it
    dims = {**dict(start_regs), "T": dt}
    attacked_in = int(np.prod([dims[name] for name in att_names]))
    per_code = start.size // d_in * dt * dy * total_dim(att_out) // attacked_in
    step = max(1, hybrid.CHUNK_ELEMENTS // per_code)
    blocks = {}
    weight = 1.0 / (len(encoders) * dy)
    for t0 in range(0, len(encoders), step):
        chunk = encoders[t0 : t0 + step]
        encode = chunk.reshape(len(chunk) * dt * dy, d_in)
        amps, regs, names = _contract(
            start, start_regs, start_names, encode, (carrier,),
            (("t", len(chunk)), ("T", dt), ("y", dy)), ("t", "y"),
        )
        amps, regs, names = _contract(amps, regs, names, iso, att_names, att_out)
        # the decoder of code t, then T read as (ysyn, receiver)
        (pos,) = reg_positions(regs, ("T",))
        at = len(names) + pos
        amps = _keyed(amps, names.index("t"), at, chunk.conj().transpose(0, 2, 1))
        amps = amps.reshape(amps.shape[:at] + (dy, d_in) + amps.shape[at + 1 :])
        amps = np.moveaxis(amps, at, len(names))
        regs, names = regs[:pos] + ((receiver, d_in),) + regs[pos + 1 :], names + ["ysyn"]
        if key is not None:
            target = len(names) + reg_positions(regs, (receiver,))[0]
            fixed = _keyed(amps, names.index(label), target, corrections)
            at = names.index("y")  # ysyn follows y
            accept = np.eye(dy, dtype=bool).reshape((1,) * at + (dy, dy) + (1,) * (amps.ndim - at - 2))
            amps = np.where(accept, fixed, amps)
        _accumulate(blocks, amps, names, t0, values, regs, plan, exposed, weight)
    return checked_total(FinalState(blocks), "key sweep")


def _accumulate(blocks, amps, names, t0, values, regs, plan, exposed, weight) -> None:
    """Add the weighted density matrices of a chunk of codes (axis ``t`` of
    ``amps``, the first being code ``t0``) to ``blocks`` for each output
    record, each one contraction over the slices (classical index tuples)
    that map to the record, with the record's ``plan`` registers dropped."""
    shape, dims = amps.shape[: len(names)], reg_dims(regs)
    slices = amps.reshape((-1,) + dims)
    vecs = slices.reshape(len(slices), -1)
    alive = np.flatnonzero(np.einsum("ij,ij->i", vecs, vecs.conj()).real > PRUNE_BELOW)
    index = dict(zip(names, np.unravel_index(alive, shape)))
    index["t"] = index["t"] + t0
    index["verdict"] = (index["y"] == index["ysyn"]).astype(np.intp)
    values = {**values, "verdict": (REJ, ACC)}
    exposed = ("verdict",) + tuple(exposed)
    sizes = tuple(len(values[f]) for f in exposed)
    codes, inverse = np.unique(
        np.ravel_multi_index(tuple(index[f] for f in exposed), sizes), return_inverse=True
    )
    members = np.split(alive[np.argsort(inverse, kind="stable")], np.cumsum(np.bincount(inverse))[:-1])
    groups: dict[Record, tuple[tuple, list]] = {}
    for code, rows in zip(zip(*np.unravel_index(codes, sizes)), members):
        record, drop = plan({f: values[f][int(i)] for f, i in zip(exposed, code)})
        entry = groups.setdefault(record, (tuple(drop), []))
        if entry[0] != tuple(drop):
            raise RegisterError(f"record {record} accumulated under different register sets")
        entry[1].append(rows)
    for record, (drop, rows) in groups.items():
        keep = sorted((i for i, (n, _) in enumerate(regs) if n not in drop), key=lambda i: regs[i][0])
        rest = [i for i in range(len(regs)) if i not in keep]
        idx = np.concatenate(rows)
        part = slices[idx].transpose([0] + [1 + i for i in keep + rest])
        d_keep = int(np.prod([dims[i] for i in keep]))
        x = part.reshape(len(idx), d_keep, -1).transpose(1, 0, 2).reshape(d_keep, -1)
        kept = tuple(regs[i] for i in keep)
        rho = weight * (x @ x.conj().T)
        if record in blocks:
            if blocks[record][0] != kept:
                raise RegisterError(f"record {record} accumulated under different register sets")
            rho = blocks[record][1] + rho
        blocks[record] = (kept, rho)


def ebit_branch(fields: dict) -> tuple:
    """The branch field of the entanglement runs: t, y, ysyn."""
    return tuple((name, fields[name]) for name in ("t", "y", "ysyn"))


def qa_branch(fields: dict) -> tuple:
    """The branch field of ``run_qa_kg`` and ``run_tqa_kg``: the key (x, z)
    as x and z, then t, y, ysyn."""
    return (("x", fields["key"][0]), ("z", fields["key"][1])) + ebit_branch(fields)


def psqa_branch(fields: dict) -> tuple:
    """The branch field of ``run_psqa_kg`` and ``run_psrqa_kg``: the cipher
    outcome k, then t, y, ysyn."""
    return (("k", fields["k"]),) + ebit_branch(fields)


def branch_plan(plan: Callable, fmt: Callable[[dict], tuple]) -> Callable:
    """``plan`` with one record per branch: each record gets a ("detail",
    fmt(fields)) field appended, ``fmt`` reading t, y and ysyn (and the key
    value) from the fields."""

    def branched(fields: dict):
        record, drop = plan(fields)
        return record + (("detail", fmt(fields)),), drop

    return branched


def per_slice_run(
    run: Callable[[], FinalState], family: PtcFamily, attack: AttackDescriptor, fmt=None, tamper: bool = False
) -> FinalState:
    """``run()``, a protocol run of ``family`` under ``attack``, with
    ``per_slice_key_sweep`` in place of every ``key_sweep`` call, and the
    same bases, keys and plans, and ``replaced_per_record`` in place of
    ``FinalState.replaced``. With ``fmt``, the plan is ``branch_plan(plan,
    fmt)``: one record per branch. With ``tamper``, the accept correction of
    key value 1 (never the identity: value 0 is the identity in the Pauli pad
    and the Bell key) is the identity."""
    pieces = (_family_encoders(family), _attack_pieces(family, attack))

    def oracle(transfer, base, carrier, plan, key=None, receiver="B"):
        if tamper and key is not None:
            corrections = key[-1].copy()
            corrections[1] = np.eye(corrections.shape[-1])
            key = key[:-1] + (corrections,)
        if fmt is not None:
            plan = branch_plan(plan, fmt)
        return per_slice_key_sweep(*pieces, base, carrier, plan, fmt is not None, key, receiver)

    with pytest.MonkeyPatch.context() as patch:
        for module in (protocols, approx_psqa, ucharness):
            patch.setattr(module, "key_sweep", oracle)
        patch.setattr(FinalState, "replaced", replaced_per_record)
        return run()


def replaced_per_record(final: FinalState, predicate, names, state) -> FinalState:
    """``FinalState.replaced`` as the oracles' own step: each record that
    ``predicate`` picks, one at a time, has its ``names`` registers replaced
    by ``state`` with ``qmath.replace_factors``."""
    blocks = {}
    for record, block in final.blocks.items():
        matrix = block.matrix
        if predicate(record):
            matrix = replace_factors(matrix, block.registers, names, state)
        blocks[record] = (block.registers, matrix)
    return FinalState(blocks)


def merge_branches(final: FinalState) -> FinalState:
    """``final`` with each record's "detail" field dropped and the blocks
    that then share a record summed, one after another in ``final``'s order:
    the final state of the plan that ``branch_plan`` wrapped."""
    blocks: dict = {}
    for record, block in final.blocks.items():
        plain = tuple(field for field in record if field[0] != "detail")
        if plain in blocks:
            if blocks[plain][0] != block.registers:
                raise RegisterError(f"record {plain} merged from branches on different registers")
            blocks[plain] = (block.registers, blocks[plain][1] + block.matrix)
        else:
            blocks[plain] = (block.registers, block.matrix)
    return FinalState(blocks)


def build_then_trace_blocks(gram, psi, layout, drop, fix):
    """``hybrid._blocks`` as it was before it traced first: Psi_v G Psi_v^dag
    for each key value v of ``psi`` (values, other, probe), G the full
    verdict Gram over (out, probe), built on every register, the correction
    ``fix[v]`` applied to the receiver, and only then the ``drop`` registers
    traced out and the rest sorted by name. Returns the kept registers and
    the stacked blocks."""
    other, out, receiver = layout
    regs, (n, do, dp), dj = other + out, psi.shape, total_dim(out)
    # sum_p Psi[v, o, p] G[j, p, k, q], then sum_q with conj(Psi[v, o', q])
    half = psi.reshape(-1, dp) @ gram.reshape(dj, dp, -1).transpose(1, 0, 2).reshape(dp, -1)
    rho = np.matmul(half.reshape(n, -1, dp), psi.conj().transpose(0, 2, 1))
    dims = reg_dims(regs)
    rho = rho.reshape(n, do, dj, dj, do).transpose(0, 1, 2, 4, 3).reshape((n,) + dims + dims)
    if fix is not None:
        (pos,) = reg_positions(regs, (receiver,))
        rho = _keyed(_keyed(rho, 0, 1 + pos, fix), 0, 1 + len(regs) + pos, fix.conj())
    # one einsum traces the dropped registers (a shared index) and sorts the rest
    left = {name: 1 + i for i, (name, _) in enumerate(regs)}
    right = {name: left[name] if name in drop else 1 + len(regs) + i for i, (name, _) in enumerate(regs)}
    kept = tuple(sorted((r for r in regs if r[0] not in drop), key=lambda r: r[0]))
    names = reg_names(kept)
    rho = np.einsum(rho, [0, *left.values(), *right.values()], [0, *map(left.get, names), *map(right.get, names)])
    d = total_dim(kept)
    return kept, rho.reshape(n, d, d)


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
    reference for the XOR blocks that ``ucharness._soundness_operator``
    builds from Grams of the syndrome projectors."""
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


def scalar_gf_mul(a: int, b: int, w: int) -> int:
    """``classical_wc.gf_mul`` on two ints, one bit of b per step while any
    is left: the form it had before it took arrays."""
    poly = _IRREDUCIBLE[w]
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> w:
            a ^= poly
    return out


def _row_counts(values: np.ndarray) -> np.ndarray:
    """counts[i, v] = how often the int v >= 0 occurs in row i of ``values``."""
    width = int(values.max()) + 1
    flat = (np.arange(len(values))[:, None] * width + values).ravel()
    return np.bincount(flat, minlength=len(values) * width).reshape(len(values), width)


def row_counts_pair_counts(table: np.ndarray) -> tuple[int, np.ndarray]:
    """``classical_wc._pair_counts`` as it was before it wrote its bin codes in
    place: each step's codes offset per row by a fresh ``_row_counts``."""
    nm, width = len(table), int(table.max()) + 1
    worst, hits = 0, np.zeros((nm, nm), dtype=np.int64)
    for i in range(nm - 1):
        later = table[i + 1 :]
        worst = max(worst, int(_row_counts(table[i] * width + later).max()))
        hits[i, i + 1 :] = _row_counts(later ^ table[i]).max(axis=1)
    return worst, hits
