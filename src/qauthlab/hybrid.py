"""Hybrid classical/quantum final states and the key sweep.

A :class:`FinalState` maps each classical record (a tuple of (field, value)
pairs: keys, verdicts, measurement outcomes, error flags) to a weighted
density matrix over named registers. Classical data never gets embedded as
qubits; it lives in the records, which keeps dimensions small and makes
distances decompose per record.

:func:`key_sweep`, the one simulation engine, runs the seven keyed sweeps
(``run_qa_kg``, ``run_tqa_kg``, ``ebit_ptc``, ``run_qa_kg_ideal``,
``run_psqa_kg``, ``run_psrqa_kg``, ``psqa_ideal``). Every one of them applies
the same linear map, encode -> attack -> decode, to its carrier, and reads it
only through a :class:`Transfer`, which ``protocols`` builds once per (family,
attack) and every sweep of the job reads: per verdict, one Gram matrix of the
branch maps (code t, syndrome key y, received syndrome ysyn), summed over
every code, and traced once over the receiver and once over every output. A
sweep takes its run's secret key (pad, cipher, Bell or preparation outcome) as
one instrument on its input, checked complete (its elements sum to the
identity within 1e-10) and applied by ``_apply``, the package's one
contraction of an operator into named registers (``protocols.ebit_ptp``
applies its attack through it too), and builds every block from its
verdict's Gram (see ``key_sweep``), never a single branch. A (key value,
verdict) pair whose probability over the whole family is at most PRUNE_BELOW
is dropped. A plan maps each verdict to (record, registers traced out of its
blocks): the receiver, whose traced Gram the record then reads, and
input-side registers, on which no block is built (``_blocks``). An accept
record that keeps the receiver undoes the key there once its blocks are
sorted by name: two batched products on the (values, d, d) stack, each on
the receiver's rows, of the block and then of its conjugate transpose,
which is transposed back. ``_blocks`` takes the key values in runs that fit
CHUNK_ELEMENTS; a record of several key values sums its blocks of a run in
one reduction, and adds the runs up one after another. A fixed
state goes onto a record's registers only by ``FinalState.replaced``, once
the record is summed: EBIT-PTC's I/d on A on reject, the ideal's perfect
ebits on accept. ``protocols.ebit_ptp`` builds its
own blocks: its accept blocks in the arithmetic of one branch at a time, so
that they keep their bits, and its reject record as I/d on A times one Gram of
the registers other than A and B.

Distance between two final states is sum_c || p_c rho_c - q_c sigma_c ||_1
over the union of classical records, which equals the full 1-norm of the
block-diagonal embedding (the tests spot-check that against a dense one). The
blocks are Hermitian, so ``FinalState.distance`` stacks the shared records'
differences by block shape, in runs that fit CHUNK_ELEMENTS, and takes their
norms with one ``eigvalsh`` per run (``qmath.trace_norm``); a record on one
side only counts its weight, and one that both sides hold as the same array
counts 0.

CHUNK_ELEMENTS bounds every transient the engine builds: ``key_sweep`` hands
``_blocks`` runs of key values, ``FinalState.distance`` takes runs of
records, and ``protocols`` cuts its codes into chunks by it (the transfer's,
``ebit_ptp``'s and the soundness operator's). Each reads it at call time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .qmath import (
    DensityMatrix,
    InvariantError,
    Registers,
    RegisterError,
    StateVector,
    _trace_out_axes,
    reg_dims,
    reg_names,
    reg_positions,
    replace_factors,
    total_dim,
    trace_norm,
)

Record = tuple[tuple[str, object], ...]

ACC, REJ, ERR = "ACC", "REJ", "ERR"

# A (key value, record class) pair of at most this probability is dropped, so
# each dropped pair loses at most this much weight: even thousands of them stay
# far under the 1e-9 pipeline tolerance.
PRUNE_BELOW = 1e-15

# Largest transient, in complex entries, of one step of the engine: a run of
# key values of ``key_sweep`` (its first product or its blocks), a run of
# records of ``FinalState.distance`` (their stacked differences), or a chunk of
# codes of ``protocols`` (a transfer's branch maps and the amplitudes they are
# built from, ``ebit_ptp``'s branches, the soundness operator's projectors); a
# single key value, record or code may exceed it. At m=1, s=3 every distance of
# the attack suite is one run, and so is every sweep but psqa's under
# swap-held (16 cipher values, 2,048 entries each: two runs); swap-held's
# transfer and ``ebit_ptp`` take four chunks of codes, the soundness operator
# two.
CHUNK_ELEMENTS = 1 << 14


def record_get(record: Record, fieldname: str):
    for key, value in record:
        if key == fieldname:
            return value
    raise KeyError(fieldname)


@dataclass(frozen=True)
class FinalBlock:
    registers: Registers
    matrix: np.ndarray  # weighted: trace equals the record probability

    @property
    def weight(self) -> float:
        return float(self.matrix.trace().real)

    def conditional(self) -> DensityMatrix:
        """The normalized block. The program built it, so a matrix that
        ``DensityMatrix`` refuses is an ``InvariantError``."""
        w = self.weight
        if w <= 0:
            raise ValueError("cannot normalize a zero-weight block")
        try:
            return DensityMatrix(self.matrix / w, self.registers)
        except ValueError as exc:
            raise InvariantError(f"FinalBlock.conditional: {exc}") from exc


class FinalState:
    """Block-diagonal final state: classical record -> weighted density matrix."""

    def __init__(self, blocks: dict[Record, tuple[Registers, np.ndarray]]):
        self.blocks: dict[Record, FinalBlock] = {
            rec: FinalBlock(regs, mat) for rec, (regs, mat) in blocks.items()
        }

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

    def replaced(self, predicate: Callable[[Record], bool], names: Sequence[str], state: np.ndarray) -> "FinalState":
        """This final state with the ``names`` registers of each record that
        ``predicate`` picks replaced by ``state``, a matrix on them in the
        order given (``qmath.replace_factors``); the other records keep their
        blocks. Replacing is linear, so it acts once on a summed record."""
        return FinalState({
            rec: (b.registers, replace_factors(b.matrix, b.registers, names, state) if predicate(rec) else b.matrix)
            for rec, b in self.blocks.items()
        })

    def distance(self, other: "FinalState") -> float:
        """Full 1-norm distance, decomposed over classical records: one
        ``trace_norm`` call per run of records of one block shape whose
        stacked differences hold at most CHUNK_ELEMENTS entries (or one
        record's), and the records summed in sorted order, so the last bit
        depends neither on hashing nor on the runs. A record that one side
        lacks counts its weight, and one that both sides hold as the same
        array counts 0, without an eigensolve; one held on different
        registers or dimensions is an ``InvariantError``, as both sides come
        from the program's own sweeps."""
        records = sorted(set(self.blocks) | set(other.blocks), key=repr)
        norms = np.zeros(len(records))
        by_shape: dict[tuple, list[int]] = {}
        for i, rec in enumerate(records):
            mine, theirs = self.blocks.get(rec), other.blocks.get(rec)
            if mine is None or theirs is None:
                norms[i] = (theirs if mine is None else mine).weight
            elif reg_names(mine.registers) != reg_names(theirs.registers):
                raise InvariantError(f"record {rec} has mismatched registers")
            elif mine.matrix.shape != theirs.matrix.shape:
                raise InvariantError(f"record {rec} has mismatched dimensions")
            elif mine.matrix is not theirs.matrix:
                by_shape.setdefault(mine.matrix.shape, []).append(i)
        for shape, at in by_shape.items():
            pairs = [(self.blocks[records[i]].matrix, other.blocks[records[i]].matrix) for i in at]
            # one dtype per shape, whatever the runs
            dtype = np.result_type(*{m.dtype for pair in pairs for m in pair})
            per = max(1, CHUNK_ELEMENTS // (shape[0] * shape[1]))
            for lo in range(0, len(at), per):
                # one stack per run, each difference written into its own slice
                run = at[lo : lo + per]
                diffs = np.empty((len(run), *shape), dtype=dtype)
                for out, (mine, theirs) in zip(diffs, pairs[lo : lo + per]):
                    np.subtract(mine, theirs, out=out)
                norms[run] = trace_norm(diffs)
                del diffs
        # one term after another, in sorted record order
        return float(sum(norms))


# ---------------------------------------------------------------------------
# the key sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transfer:
    """Encode, attack and decode of one (family, attack), as the sweeps read
    it: per verdict, the Gram matrix G = sum_b x_b x_b^dag over that
    verdict's branches b = (code t, syndrome key y, received syndrome ysyn),
    x_b the branch map, read as a vector over (out, probe), from the basis of
    the ``probe`` registers (the attack's registers besides T, then the
    carrier) to the ``out`` registers (the attack's, with T replaced by the
    decoded receiver), scaled by 1/sqrt(codes * 2^s). Carrier and receiver
    both go by "T" here (the code's register, which no input of a sweep
    carries); ``key_sweep`` renames them. The branch maps of an isometric
    attack sum to the identity: sum_b x_b^dag x_b = I."""

    probe: Registers
    out: Registers
    # (REJ, Gram), then (ACC, Gram) over the branches with y == ysyn, each read-only and summed
    # over every code; ``traced``, taken once: each G traced over the receiver, and over every output
    verdicts: tuple[tuple[str, np.ndarray], ...]
    traced: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims, dj, dp = reg_dims(self.out), total_dim(self.out), total_dim(self.probe)
        at = reg_positions(self.out, ("T",))
        traced = tuple(
            (_trace_out_axes(gram, dims + (dp,), at), np.trace(gram.reshape(dj, dp, dj, dp), axis1=0, axis2=2))
            for _, gram in self.verdicts
        )
        for array in (array for pair in traced for array in pair):
            array.setflags(write=False)
        object.__setattr__(self, "traced", traced)


def key_sweep(
    transfer: Transfer,
    base: StateVector,
    carrier: str,
    plan: Callable[[dict], tuple[Record, tuple[str, ...]]],
    key: tuple[str, Sequence, Sequence[str], np.ndarray, Registers, np.ndarray] | None = None,
    receiver: str = "B",
) -> FinalState:
    """Send ``carrier`` of ``base`` through ``transfer`` (a keyed code under
    attack), for every key at once, and finalize.

    - ``key`` = (label, values, names, ops, out registers, corrections): ops,
      stacked (values, out dim, in dim), act once on the registers ``names``
      of ``base``, with their outcome as the key value v; corrections[v] acts
      on the receiver on accept (ysyn == y). A pad of K unitaries U_k is the
      instrument U_k/sqrt(K). A key whose operators K_v miss
      sum_v K_v^dag K_v = I by more than 1e-10 is an ``InvariantError``:
      every key is built by the program.
    - The state of key value v is a matrix Psi_v from the probe registers to
      the rest of ``base``. A record class c is a verdict (accept iff ysyn ==
      y), and its Gram matrix G_c (``Transfer.verdicts``) gives every key
      value's block at once: Psi_v G_c Psi_v^dag, one batched product per
      run of keys, so the key count multiplies no contraction over codes, and
      the code count no pass of the sweep.
    - A (key, class) pair counts only if its probability over the whole
      family, Tr(Psi_v G_c Psi_v^dag) read off G_c traced over the output
      registers, is above PRUNE_BELOW. ``plan`` maps its fields (the verdict,
      and the key label with its value) to (output record, registers to
      drop). Dropped registers are traced out before each block is built
      (``_blocks``, in runs of key values whose largest array holds at most
      CHUNK_ELEMENTS entries, or one value's); the blocks of one record are
      summed, REJ first, run after run.
    """
    probe = tuple((carrier if name == "T" else name, d) for name, d in transfer.probe)
    out = tuple((receiver if name == "T" else name, d) for name, d in transfer.out)
    amps, regs = base.amplitudes.reshape(reg_dims(base.registers)), base.registers
    if key is None:
        label, values, corrections, amps = None, (None,), None, amps[None]
    else:
        label, values, key_names, ops, key_out, corrections = key
        flat = ops.reshape(-1, ops.shape[-1])
        defect = np.abs(flat.conj().T @ flat - np.eye(ops.shape[-1])).max()
        if not defect <= 1e-10:
            raise InvariantError(
                f"key sweep: key {label!r} is not a complete instrument: "
                f"sum_v K_v^dag K_v is {defect:.3g} from I, above 1e-10"
            )
        amps, regs = _apply(amps, regs, ops, key_names, ((label, len(ops)),) + tuple(key_out))
        # the outcome axis first: the key value v
        (at,) = reg_positions(regs, (label,))
        amps, regs = np.moveaxis(amps.reshape(reg_dims(regs)), at, 0), regs[:at] + regs[at + 1 :]
    other = tuple(r for r in regs if r[0] not in reg_names(probe))
    order = reg_positions(regs, reg_names(other + probe))
    psi = amps.transpose([0] + [1 + i for i in order]).reshape(len(amps), total_dim(other), total_dim(probe))
    blocks: dict[Record, tuple[Registers, np.ndarray]] = {}
    for (verdict, gram), (no_receiver, probe_gram) in zip(transfer.verdicts, transfer.traced):
        fields = {"verdict": verdict}
        # p[v] = Tr(Psi_v G Psi_v^dag), G traced over the output registers
        live = np.flatnonzero(np.einsum("vop,pq,voq->v", psi, probe_gram, psi.conj()).real > PRUNE_BELOW)
        # the live key values by the registers their records drop, then by record
        groups: dict[tuple, dict[Record, list]] = {}
        for v in live:
            record, drop = plan(fields if label is None else {**fields, label: values[v]})
            groups.setdefault(tuple(drop), {}).setdefault(record, []).append(v)
        fix = corrections if verdict == ACC else None
        for drop, records in groups.items():
            read, layout = no_receiver if receiver in drop else gram, (other, out, receiver)
            vals = [v for vs in records.values() for v in vs]
            owners = [record for record, vs in records.items() for _ in vs]
            # a key value's largest array in _blocks: its share of the first
            # product, or its block
            (dk, dg, dj), dp = _block_layout(layout, drop)[1], psi.shape[2]
            per = max(1, CHUNK_ELEMENTS // max(dj * dk * dg * dj * dp, (dk * dj) ** 2))
            for lo in range(0, len(vals), per):
                run = vals[lo : lo + per]
                kept, rhos = _blocks(read, psi[run], layout, drop, None if fix is None else fix[run])
                start = 0
                for record, rows in groupby(owners[lo : lo + per]):
                    # a record's rows of a run are contiguous: one row as it
                    # is, or one sum; a record that spans runs adds up here
                    n = len(list(rows))
                    rho = rhos[start] if n == 1 else np.add.reduce(rhos[start : start + n])
                    start += n
                    if record in blocks:
                        if blocks[record][0] != kept:
                            raise InvariantError(f"record {record} accumulated under different kept registers")
                        rho = blocks[record][1] + rho
                    blocks[record] = (kept, rho)
                del rhos
    return checked_total(FinalState(blocks), "key sweep")


def _blocks(gram, psi, layout, drop, fix):
    """Psi_v G Psi_v^dag for each key value v of ``psi`` (values, other,
    probe), with the ``drop`` registers traced out, the kept registers sorted
    by name and the correction ``fix[v]`` applied to a kept receiver. G is a
    verdict Gram over (out, probe), already traced over the receiver if
    ``drop`` names it (``Transfer.traced``; a correction there cancels). No
    block is built on a dropped register: those of ``other`` are summed
    inside the second product. The first product is freed before the blocks
    are sorted, and the correction acts on the sorted (values, d, d) stack:
    fix[v] on the receiver's rows, then on those of the conjugate transpose,
    transposed back, two broadcast products over the rows rather than one
    small column product per row of the block.
    Returns the kept registers and the blocks."""
    (n, _, dp), (split, (dk, dg, dj), shape, cut, order, kept) = psi.shape, _block_layout(layout, drop)
    if split is not None:
        psi = psi.reshape((n,) + split[0] + (dp,)).transpose(split[1])
    psi = psi.reshape(n, dk, dg * dp)
    # sum_p Psi[v, o, g, p] G[j, p, k, q], one product per j: (j, v, o, g, k, q)
    half = np.matmul(psi.reshape(-1, dp), gram.reshape(dj, dp, -1)).reshape(dj, n, dk, dg, dj, dp)
    if dg > 1:
        half = half.transpose(0, 1, 2, 4, 3, 5)
    # then sum_(g, q) with conj(Psi[v, o', g, q]): (j, v, o, k, o')
    rho = np.matmul(half.reshape(dj, n, dk * dj, dg * dp), psi.conj().transpose(0, 2, 1))
    del half
    d = total_dim(kept)
    rho = rho.reshape(shape[0] + (n,) + shape[1]).transpose(order).reshape(n, d, d)
    if fix is not None and cut is not None:
        # fix[v] on the receiver's rows, then on those of the conjugate
        # transpose, transposed back: (F (F rho)^dag)^dag = F rho F^dag. The
        # conjugate is taken in place: a ufunc that reads the transposed stack
        # buffers it, which took swap-held's peak from 0.55 to 0.68 MB
        (before, dim, after), fix = cut, fix[:, None]
        for _ in range(2):
            rho = np.matmul(fix, rho.reshape(n, before, dim, after * d)).reshape(n, d, d)
            rho = np.conjugate(rho, out=rho).transpose(0, 2, 1).copy()
    return kept, rho


@lru_cache(maxsize=256)
def _block_layout(layout, drop):
    """What ``_blocks`` reads off (layout, drop) alone, once per pair: None,
    or the dims of ``other`` and the order that puts its kept registers
    before its dropped ones; the kept, dropped and kept output dimensions;
    the axes of a block as the second product leaves it, (j, v, o, k, o'),
    split around v; the receiver's (before, dim, after) in the sorted
    layout, if it is kept: the dimensions of the kept registers before it,
    its own and those after it; the order that sorts a block's rows and
    columns by name after v; and the kept registers, sorted. A ``drop`` that names an output
    register other than the receiver is an ``InvariantError``."""
    other, out, receiver = layout
    if set(drop) & set(reg_names(out)) - {receiver}:
        raise InvariantError(f"_blocks: drop {drop} names an output register other than the receiver {receiver!r}")
    ours, gone = tuple(r for r in other if r[0] not in drop), tuple(r for r in other if r[0] in drop)
    kept_out = tuple(r for r in out if r[0] not in drop)
    split = None
    if gone:
        split = (reg_dims(other), [0, *(1 + i for i in reg_positions(other, reg_names(ours + gone))), 1 + len(other)])
    k, v = len(ours), len(kept_out)
    regs = ours + kept_out
    # each kept register's row and column axis
    rows = [v + 1 + i for i in range(k)] + list(range(v))
    cols = [2 * v + k + 1 + i for i in range(k)] + [v + k + 1 + i for i in range(v)]
    kept = tuple(sorted(regs, key=lambda r: r[0]))
    order = reg_positions(regs, reg_names(kept))
    cut = None
    if receiver not in drop:
        (pos,) = reg_positions(kept, (receiver,))
        cut = (total_dim(kept[:pos]), kept[pos][1], total_dim(kept[pos + 1 :]))
    return (
        split,
        (total_dim(ours), total_dim(gone), total_dim(kept_out)),
        (reg_dims(kept_out), reg_dims(ours) + reg_dims(kept_out) + reg_dims(ours)),
        cut,
        [v, *(rows[i] for i in order), *(cols[i] for i in order)],
        kept,
    )


def _apply(vector: np.ndarray, registers: Registers, matrix, names, out_regs=None):
    """Contract ``matrix`` (out dim x in dim) against the named registers of
    the flat ``vector``. The output registers (by default the input ones)
    take the place of the first named register; the others keep their order.
    Returns the new flat vector and layout. The one register contraction of
    the package: ``key_sweep`` applies its key through it, and
    ``protocols.ebit_ptp`` the attack."""
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


def checked_total(final: FinalState, where: str) -> FinalState:
    """``final``, once its total weight is 1 within 1e-10 (every final state
    covers all branches); ``where`` names the builder in the error."""
    total = final.total_weight()
    if abs(total - 1.0) > 1e-10:
        raise InvariantError(f"{where}: final state total weight {total!r}, expected 1 within 1e-10")
    return final

