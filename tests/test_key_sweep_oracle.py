"""``key_sweep`` against the per-slice sweep it replaced.

``per_slice_key_sweep`` below is that sweep, kept as the oracle: every key
value is a leading axis of the amplitude array, the encoders, the attack and
the decoders are applied to the keyed input itself, chunk by chunk, and each
record's block is one product over its slices (``_accumulate`` below, the
per-slice finalizer). The engine instead reads the shared transfer and
builds each block from one Gram matrix per record class.

On the benchmark's m=1, s=3 family, every protocol run goes once through the
engine and once through the oracle (by rebinding ``key_sweep`` where the
protocols call it), with the same bases, keys and plans: all seven sweeps,
plain and, where the sweep has the flag, with ``detail=True``, over the 27
suite attacks (the T-only ones for the three pure-state sweeps). The record
sets and registers must be identical and the blocks agree within 1e-12, and
every block is Hermitian within 1e-13.
Each transfer chunk's cached verdict classes are checked against their
definition, and with the two classes swapped the comparison must fail.

The oracle prunes per slice (a slice of probability at most PRUNE_BELOW is
dropped), the engine per (key value, record class) pair (the pair is dropped
when its whole probability is at most PRUNE_BELOW). No slice of a tested
family lies near the threshold, so the two rules keep the same records here;
``tests/test_hybrid.py`` pins where they part.
"""

from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from qauthlab import approx_psqa, hybrid, protocols, ucharness
from qauthlab.adversary import purified_input, standard_suite
from qauthlab.approx_psqa import psqa_ideal, run_psqa_kg, run_psrqa_kg, sample_cipher
from qauthlab.codes import PtcFamily
from qauthlab.hybrid import (
    ACC,
    PRUNE_BELOW,
    REJ,
    Record,
    _contract,
    _keyed,
    checked_total,
    mix_records,
    record_get,
)
from qauthlab.protocols import _attack_pieces, _family_encoders, _transfer, ebit_ptc, run_qa_kg, run_tqa_kg
from qauthlab.qmath import RegisterError, reg_dims, reg_positions, total_dim
from qauthlab.ucharness import run_qa_kg_ideal

FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "family-m1-s3.json"
TOL = 1e-12
PSI = purified_input("random-5", 1)
CIPHER = sample_cipher(1, 4, seed=2)
VEC = np.array([0.6, 0.8j], dtype=complex)
SWEEPS = {
    "run_qa_kg": lambda f, a: run_qa_kg(PSI, f, a),
    "run_qa_kg/detail": lambda f, a: run_qa_kg(PSI, f, a, detail=True),
    "run_qa_kg/no-back": lambda f, a: run_qa_kg(PSI, f, a, back_communication=False),
    "run_tqa_kg": lambda f, a: run_tqa_kg(PSI, f, a),
    "run_tqa_kg/no-back/detail": lambda f, a: run_tqa_kg(PSI, f, a, back_communication=False, detail=True),
    "ebit_ptc": lambda f, a: ebit_ptc(f, a),
    "ebit_ptc/detail": lambda f, a: ebit_ptc(f, a, detail=True),
    "run_qa_kg_ideal": lambda f, a: run_qa_kg_ideal(PSI, f, a),
    "run_psqa_kg": lambda f, a: run_psqa_kg(VEC, CIPHER, f, a),
    "run_psqa_kg/detail": lambda f, a: run_psqa_kg(VEC, CIPHER, f, a, detail=True),
    "run_psrqa_kg": lambda f, a: run_psrqa_kg(VEC, CIPHER, f, a),
    "run_psrqa_kg/detail": lambda f, a: run_psrqa_kg(VEC, CIPHER, f, a, detail=True),
    "psqa_ideal": lambda f, a: psqa_ideal(VEC, CIPHER, f, a),
}


def per_slice_key_sweep(encoders, attack, base, carrier, plan, detail, key=None, receiver="B"):
    """The per-slice sweep: ``key_sweep``'s arguments, with the encoder stack
    and the attack pieces (isometry, names, out registers) in place of the
    transfer."""
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
    blocks, mixes = {}, {}
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


@pytest.fixture(scope="module")
def family():
    return PtcFamily.load(FIXTURE)


@pytest.fixture(scope="module")
def suite(family):
    return standard_suite(family.m, family.s)


def oracle_run(monkeypatch, sweep, family, attack, tamper=False):
    """``sweep`` with the oracle in place of ``key_sweep``; with ``tamper``,
    the accept correction of key value 1 (never the identity: value 0 is the
    identity in the Pauli pad and the Bell key) is the identity."""
    pieces = (_family_encoders(family), _attack_pieces(family, attack))

    def oracle(transfer, base, carrier, plan, detail, key=None, receiver="B"):
        if tamper and key is not None:
            corrections = key[-1].copy()
            corrections[1] = np.eye(corrections.shape[-1])
            key = key[:-1] + (corrections,)
        return per_slice_key_sweep(*pieces, base, carrier, plan, detail, key, receiver)

    with monkeypatch.context() as patch:
        for module in (protocols, approx_psqa, ucharness):
            patch.setattr(module, "key_sweep", oracle)
        return SWEEPS[sweep](family, attack)


def compare(final, want) -> list[str]:
    """What differs between two final states: records, registers, or any
    block entry by more than TOL."""
    if sorted(final.blocks, key=repr) != sorted(want.blocks, key=repr):
        return ["record sets differ"]
    problems = []
    for record, block in want.blocks.items():
        got = final.blocks[record]
        if got.registers != block.registers:
            problems.append(f"{record}: registers {got.registers} != {block.registers}")
        elif not np.abs(got.matrix - block.matrix).max() <= TOL:
            problems.append(f"{record}: blocks differ by {np.abs(got.matrix - block.matrix).max():.3g}")
    return problems


def _attacks(sweep, suite):
    if sweep.startswith(("run_ps", "psqa")):
        return [a for a in suite if a.acts_on == ("T",)]
    return list(suite)


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_engine_matches_the_per_slice_oracle(monkeypatch, family, suite, sweep):
    attacks = _attacks(sweep, suite)
    assert len(attacks) == (25 if sweep.startswith(("run_ps", "psqa")) else 27)
    for attack in attacks:
        got = SWEEPS[sweep](family, attack)
        want = oracle_run(monkeypatch, sweep, family, attack)
        assert compare(got, want) == [], (sweep, attack.name())
        # FinalState.distance takes each difference's 1-norm from eigvalsh,
        # which reads one triangle: every block is Hermitian to roundoff
        for record, block in got.blocks.items():
            skew = np.abs(block.matrix - block.matrix.conj().T).max()
            assert skew <= 1e-13, (sweep, attack.name(), record, skew)


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_detected_attacks_are_never_accepted(family, suite, sweep):
    # every code of the family detects Y0, Z0 and X2: their accept classes
    # hold only roundoff, and the prune must drop every one of them
    for attack in _attacks(sweep, suite):
        if attack.name() in ("Y0", "Z0", "X2"):
            final = SWEEPS[sweep](family, attack)
            assert final.blocks
            assert not [r for r in final.blocks if record_get(r, "verdict") == ACC], (sweep, attack.name())


@pytest.mark.parametrize("sweep", ["run_qa_kg", "run_tqa_kg/no-back/detail", "run_psqa_kg", "run_psrqa_kg"])
def test_a_wrong_correction_fails_the_comparison(monkeypatch, family, suite, sweep):
    # negative control: one accept correction replaced by the identity
    attack = next(a for a in suite if a.name() == "identity")
    got = SWEEPS[sweep](family, attack)
    assert compare(got, oracle_run(monkeypatch, sweep, family, attack)) == []
    assert compare(got, oracle_run(monkeypatch, sweep, family, attack, tamper=True)) != []


def test_each_chunk_caches_its_two_verdict_classes(family, suite):
    # REJ then ACC: the rows partition the chunk's branches, ACC is exactly
    # y == ysyn, and each Gram matrix is the sum of its branches' x_b x_b^dag
    for attack in suite:
        for chunk in _transfer(family, attack).chunks:
            codes, dy = chunk.x.shape[:2]
            x = chunk.x.reshape(codes * dy * dy, -1)
            _, y, ysyn = np.unravel_index(np.arange(len(x)), (codes, dy, dy))
            (rej, rej_rows, rej_gram), (acc, acc_rows, acc_gram) = chunk.verdicts
            assert (rej, acc) == (REJ, ACC)
            assert np.array_equal(acc_rows, np.flatnonzero(y == ysyn)), attack.name()
            assert np.array_equal(np.sort(np.concatenate([rej_rows, acc_rows])), np.arange(len(x)))
            for rows, gram in ((rej_rows, rej_gram), (acc_rows, acc_gram)):
                want = sum(np.outer(x[b], x[b].conj()) for b in rows)
                assert np.abs(gram - want).max() <= TOL, attack.name()
                assert not gram.flags.writeable
            assert chunk.verdicts is chunk.verdicts


@pytest.mark.parametrize("sweep", ["run_qa_kg", "ebit_ptc", "run_psqa_kg"])
def test_swapped_verdict_classes_fail_the_comparison(monkeypatch, clear_job_caches, family, suite, sweep):
    # negative control: each verdict read with the other's rows and Gram
    attack = next(a for a in suite if a.name() == "depol-0.5")
    got = SWEEPS[sweep](family, attack)
    want = oracle_run(monkeypatch, sweep, family, attack)
    assert compare(got, want) == []
    verdicts = hybrid.TransferChunk.verdicts.func

    def swapped(chunk):
        (rej, rej_rows, rej_gram), (acc, acc_rows, acc_gram) = verdicts(chunk)
        return (rej, acc_rows, acc_gram), (acc, rej_rows, rej_gram)

    prop = cached_property(swapped)
    prop.__set_name__(hybrid.TransferChunk, "verdicts")
    monkeypatch.setattr(hybrid.TransferChunk, "verdicts", prop)
    clear_job_caches()
    assert compare(SWEEPS[sweep](family, attack), want) != []
