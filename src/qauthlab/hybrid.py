"""Hybrid classical/quantum final states and the stacked key sweep.

A :class:`FinalState` maps each classical record (a tuple of (field, value)
pairs: keys, verdicts, measurement outcomes, error flags) to a weighted
density matrix over named registers. Classical data never gets embedded as
qubits; it lives in the records, which keeps dimensions small and makes
distances decompose per record.

:func:`key_sweep`, the one simulation engine, runs the seven keyed sweeps
(``run_qa_kg``, ``run_tqa_kg``, ``ebit_ptc``, ``run_qa_kg_ideal``,
``run_psqa_kg``, ``run_psrqa_kg``, ``psqa_ideal``). Every key, the code index
among them, and the received syndrome are leading axes of one amplitude
array. A run's secret key (pad, cipher, Bell or preparation outcome) is one
instrument taken before the codes; the codes are stacked matrices applied by
batched products; attacks arrive as isometries, so the amplitudes stay pure until
it finalizes with one contraction per chunk of codes and record. The
codes run in chunks whose largest array holds at most CHUNK_ELEMENTS
entries, so memory is bounded per chunk, not per sweep. Output filters such
as "drop this register" apply per contraction; "replace this register by the
maximally mixed state" applies once per record, after the last chunk.
``protocols.ebit_ptp`` batches its accept blocks over (code, syndrome) in
the arithmetic of one branch at a time instead, so that they keep their bits,
and finalizes its reject branches through the same contraction (see
``protocols``).

Distance between two final states is sum_c || p_c rho_c - q_c sigma_c ||_1
over the union of classical records, which equals the full 1-norm of the
block-diagonal embedding (``FinalState.embed`` exists to spot-check that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qmath import (
    DensityMatrix,
    Registers,
    RegisterError,
    StateVector,
    reg_dims,
    reg_names,
    reg_positions,
    replace_factors,
    total_dim,
    trace_norm,
)

Record = tuple[tuple[str, object], ...]

ACC, REJ, ERR = "ACC", "REJ", "ERR"

# Branches below this probability are dropped. Tiny enough that even thousands
# of pruned branches stay far under the 1e-9 pipeline tolerance.
PRUNE_BELOW = 1e-15

# Largest amplitude array, in complex entries, that one chunk of codes in
# ``key_sweep`` holds. With every code in one chunk, the m=1, s=3 `uc` and
# `psqa` benchmark runs peaked at 62 and 80 MB instead of 45 MB; at 2^16 they
# peak at 49 MB, at 2^17 at 54 MB, and at 2^15 at 46 MB with `psqa` 12% slower.
CHUNK_ELEMENTS = 1 << 16


def record_get(record: Record, fieldname: str):
    for key, value in record:
        if key == fieldname:
            return value
    raise KeyError(fieldname)


def _replace_with_mixed(rho: np.ndarray, regs: Registers, name: str) -> np.ndarray:
    """Replace one register's content by I/d, leaving its correlations severed."""
    (pos,) = reg_positions(regs, (name,))
    d = regs[pos][1]
    return replace_factors(rho, regs, (name,), np.eye(d) / d)


@dataclass(frozen=True)
class FinalBlock:
    registers: Registers
    matrix: np.ndarray  # weighted: trace equals the record probability

    @property
    def weight(self) -> float:
        return float(self.matrix.trace().real)

    def conditional(self) -> DensityMatrix:
        w = self.weight
        if w <= 0:
            raise ValueError("cannot normalize a zero-weight block")
        return DensityMatrix(self.matrix / w, self.registers)


class FinalState:
    """Block-diagonal final state: classical record -> weighted density matrix."""

    def __init__(self, blocks: dict[Record, tuple[Registers, np.ndarray]]):
        self.blocks: dict[Record, FinalBlock] = {
            rec: FinalBlock(regs, mat) for rec, (regs, mat) in blocks.items()
        }

    def records(self) -> list[Record]:
        return sorted(self.blocks, key=repr)

    def weight(self, record: Record) -> float:
        block = self.blocks.get(record)
        return block.weight if block is not None else 0.0

    def weight_where(self, predicate: Callable[[Record], bool]) -> float:
        return float(
            sum(block.weight for rec, block in self.blocks.items() if predicate(rec))
        )

    def total_weight(self) -> float:
        return float(sum(block.weight for block in self.blocks.values()))

    def conditional_where(self, predicate: Callable[[Record], bool]) -> FinalBlock:
        """Sum the matching blocks (they must share a register layout) and
        return the combined weighted block."""
        picked = [(rec, b) for rec, b in self.blocks.items() if predicate(rec)]
        if not picked:
            raise KeyError("no block matches the predicate")
        regs = picked[0][1].registers
        total = np.zeros_like(picked[0][1].matrix)
        for _, block in picked:
            if reg_names(block.registers) != reg_names(regs):
                raise RegisterError("blocks matching the predicate differ in registers")
            total = total + block.matrix
        return FinalBlock(regs, total)

    def distance(self, other: "FinalState") -> float:
        """Full 1-norm distance, decomposed over classical records (summed in
        sorted record order, so the last bit does not depend on hashing)."""
        total = 0.0
        for rec in sorted(set(self.blocks) | set(other.blocks), key=repr):
            mine = self.blocks.get(rec)
            theirs = other.blocks.get(rec)
            if mine is None:
                total += theirs.weight
            elif theirs is None:
                total += mine.weight
            else:
                if reg_names(mine.registers) != reg_names(theirs.registers):
                    raise RegisterError(f"record {rec} has mismatched registers")
                if mine.matrix.shape != theirs.matrix.shape:
                    raise RegisterError(f"record {rec} has mismatched dimensions")
                total += trace_norm(mine.matrix - theirs.matrix)
        return float(total)

    def embed(self, record_order: Sequence[Record] | None = None) -> np.ndarray:
        """Dense block-diagonal embedding (records as orthogonal sectors)."""
        order = list(record_order) if record_order is not None else self.records()
        mats = [self.blocks[rec].matrix for rec in order if rec in self.blocks]
        dim = sum(m.shape[0] for m in mats)
        out = np.zeros((dim, dim), dtype=complex)
        at = 0
        for m in mats:
            d = m.shape[0]
            out[at : at + d, at : at + d] = m
            at += d
        return out


# ---------------------------------------------------------------------------
# the stacked key sweep
# ---------------------------------------------------------------------------


class InvariantError(RuntimeError):
    """An internal invariant failed: a fault in the program, not in its input."""


def key_sweep(
    encoders: np.ndarray,
    attack: tuple[np.ndarray, Sequence[str], Registers],
    base: StateVector,
    carrier: str,
    plan: Callable[[dict], tuple[Record, tuple[str, ...], tuple[str, ...]]],
    exposed: Sequence[str],
    key: tuple[str, Sequence, Sequence[str], np.ndarray, Registers, np.ndarray] | None = None,
    receiver: str = "B",
) -> FinalState:
    """Send ``carrier`` of ``base`` through a keyed code under attack, for
    every key at once, and finalize.

    Every key is a leading classical axis of one amplitude array, the code
    index ``t`` among them:

    - ``key`` = (label, values, names, ops, out registers, corrections): ops,
      stacked (values, out dim, in dim), act once on the registers ``names``
      of ``base``, before the codes, with their outcome as the axis
      ``label``; corrections[v] acts on the receiver where that axis is v
      and ysyn == y (a pad of K unitaries U_k is the instrument U_k/sqrt(K));
    - the encoder stack (``encoders[t]``, each read as (syndrome, logical)
      -> T) maps the carrier onto T in one contraction, with the code ``t``
      and the syndrome key ``y`` as axes; ``attack`` = (isometry, names, out
      registers) acts once, shared by every code;
    - the decoder of code t splits T into the received syndrome ``ysyn`` (an
      axis) and the register ``receiver``.

    Every (t, y) has equal weight. Slices of probability at most PRUNE_BELOW
    are dropped. ``plan`` maps the fields named in ``exposed`` (from t, y,
    ysyn, verdict and the key label) to (output record, registers to drop,
    registers to replace by I/d). The codes run in chunks: each chunk's
    largest amplitude array holds at most CHUNK_ELEMENTS entries (or one
    code's, if that is more), which bounds memory, and adds one contraction
    per output record. Each record is replaced by I/d once, at the end.
    """
    iso, att_names, att_out = attack
    d_in = dict(base.registers)[carrier]
    dt = encoders[0].shape[0]
    dy = dt // d_in
    values: dict[str, Sequence] = {"t": range(len(encoders)), "y": range(dy), "ysyn": range(dy)}
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
    step = max(1, CHUNK_ELEMENTS // per_code)
    blocks: dict[Record, tuple[Registers, np.ndarray]] = {}
    mixes: dict[Record, tuple[str, ...]] = {}
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
        _accumulate(blocks, mixes, amps, names, t0, values, regs, plan, exposed, weight)
    return checked_total(mix_records(blocks, mixes), "key sweep")


def _keyed(amps: np.ndarray, axis: int, target: int, mats: np.ndarray) -> np.ndarray:
    """Apply mats[v] to axis ``target`` of the slices whose axis ``axis`` is v
    (one batched product over v)."""
    moved = np.moveaxis(amps, (axis, target), (0, -1))
    rows = moved.reshape(len(mats), -1, moved.shape[-1])
    out = np.matmul(rows, mats.transpose(0, 2, 1)).reshape(moved.shape[:-1] + (mats.shape[1],))
    return np.moveaxis(out, (0, -1), (axis, target))


def _contract(amps, regs: Registers, names: list, matrix, in_names, out_regs, classical=()):
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


def _accumulate(blocks, mixes, amps, names, t0, values, regs, plan, exposed, weight) -> None:
    """Add the weighted density matrices of a chunk of codes (axis ``t`` of
    ``amps``, the first being code ``t0``) to ``blocks`` for each output
    record, each one contraction over the slices (classical index tuples)
    that map to the record. The registers each record replaces by I/d go to
    ``mixes``; ``mix_records`` applies them once all chunks are in."""
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
        record, drop, mix = plan({f: values[f][int(i)] for f, i in zip(exposed, code)})
        entry = groups.setdefault(record, (tuple(drop), []))
        if entry[0] != tuple(drop) or mixes.setdefault(record, tuple(mix)) != tuple(mix):
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


def checked_total(final: FinalState, where: str) -> FinalState:
    """``final``, once its total weight is 1 within 1e-10 (every final state
    covers all branches); ``where`` names the builder in the error."""
    total = final.total_weight()
    if abs(total - 1.0) > 1e-10:
        raise InvariantError(f"{where}: final state total weight {total!r}, expected 1 within 1e-10")
    return final


def mix_records(blocks: dict, mixes: dict) -> FinalState:
    """The final state of summed ``blocks``, each record's ``mixes``
    registers replaced by I/d (mixing is linear, so once per record)."""
    for record, mix in mixes.items():
        kept, rho = blocks[record]
        for name in mix:
            rho = _replace_with_mixed(rho, kept, name)
        blocks[record] = (kept, rho)
    return FinalState(blocks)
