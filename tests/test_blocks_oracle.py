"""``hybrid._blocks`` held to the blocks it built before it traced first.

``_blocks`` builds each record's blocks on the registers the record keeps
only: a record that drops the receiver reads the verdict Gram traced over
it (``Transfer.traced``, taken once per transfer), and the dropped
input-side registers are summed inside the second product.
``oracles.build_then_trace_blocks`` is the old way: every block built on
every register from the full verdict Gram, the receiver corrected, and only
then the dropped registers traced out. Every ``_blocks`` call of the 13
sweep variants of
``tests/test_sweep_chunks.py`` (every sweep, verdict and drop set they make)
must agree with it within 1e-12, on the benchmark's m=1, s=3 family and on
searched families at s = 1 and 2, with one code per chunk and one key value
per run (budget 1) and at the default chunk budget; the final states of the
two budgets agree within 1e-12. ``ebit_ptp`` makes no such call: its reject record is one Gram
over the registers other than A and B (``tests/test_ebit_ptp_bits.py`` holds
it to its per-branch oracle).
"""

from pathlib import Path

import numpy as np
import pytest

from qauthlab import hybrid, protocols
from qauthlab.adversary import standard_suite
from qauthlab.codes import PtcFamily, ptc_epsilon_formula, search_ptc

from oracles import build_then_trace_blocks
from test_sweep_chunks import ATTACKS, SWEEPS

FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "family-m1-s3.json"
TOL = 1e-12


@pytest.fixture(scope="module")
def families():
    searched = [search_ptc(1, s, target_eps=ptc_epsilon_formula(1, s), budget=60, seed=1) for s in (1, 2)]
    assert all(family.met_target for family in searched)
    return [PtcFamily.load(FIXTURE)] + searched


def _agree(mine, theirs) -> bool:
    """Same kept registers, and blocks within TOL."""
    (regs, rhos), (want_regs, want) = mine, theirs
    return regs == want_regs and rhos.shape == want.shape and float(np.abs(rhos - want).max(initial=0.0)) <= TOL


def _calls(monkeypatch, clear_caches, budget, run):
    """Run with the chunk budget patched; return every ``_blocks`` call as
    (its arguments with the full verdict Gram in place of the one it read,
    the verdict of that Gram, its result), and the final state. A call reads
    the Gram traced over the receiver iff its ``drop`` names the receiver,
    and the full Gram otherwise."""
    blocks, calls, grams = hybrid._blocks, [], {}
    build = protocols.build_transfer

    def build_spy(*args):
        transfer = build(*args)
        for (verdict, gram), (no_receiver, _) in zip(transfer.verdicts, transfer.traced):
            grams[id(gram)] = (verdict, gram, False)
            grams[id(no_receiver)] = (verdict, gram, True)
        return transfer

    def spy(read, psi, layout, drop, fix):
        result = blocks(read, psi, layout, drop, fix)
        verdict, gram, traced = grams[id(read)]
        assert traced == (layout[2] in drop), (verdict, drop)
        calls.append(((gram, psi, layout, drop, fix), verdict, result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(hybrid, "CHUNK_ELEMENTS", budget)
        patch.setattr(hybrid, "_blocks", spy)
        patch.setattr(protocols, "build_transfer", build_spy)
        clear_caches()
        final = run()
    clear_caches()
    return calls, final


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_blocks_match_the_build_then_trace_oracle(monkeypatch, clear_job_caches, families, sweep):
    kinds = set()
    for family in families:
        suite = {a.name(): a for a in standard_suite(family.m, family.s)}
        for name in ATTACKS:
            attack = suite[name]
            if ("psqa" in sweep or "psrqa" in sweep) and attack.acts_on != ("T",):
                continue
            finals = {}
            for budget in (1, hybrid.CHUNK_ELEMENTS):
                calls, finals[budget] = _calls(monkeypatch, clear_job_caches, budget, lambda: SWEEPS[sweep](family, attack))
                for args, verdict, result in calls:
                    kinds.add((verdict, args[3]))
                    assert _agree(result, build_then_trace_blocks(*args)), (sweep, name, family.s, budget, verdict)
                    # budget 1: one key value per run
                    assert budget > 1 or len(args[1]) == 1, (sweep, name, family.s)
            # the records of one key value per run are the default budget's
            ones, default = finals[1], finals[hybrid.CHUNK_ELEMENTS]
            assert sorted(ones.blocks, key=repr) == sorted(default.blocks, key=repr), (sweep, name, family.s)
            assert ones.distance(default) <= TOL, (sweep, name, family.s)
    if sweep.startswith("ebit_ptp"):
        assert kinds == set()
    else:
        # each key sweep builds records of both verdicts
        assert {verdict for verdict, _ in kinds} == {"ACC", "REJ"}, kinds


def test_the_comparison_sees_a_kept_register_and_a_skipped_correction(monkeypatch, clear_job_caches, families):
    # negative controls: the oracle keeping one dropped register, or skipping
    # the receiver's correction, must not agree with _blocks
    attack = next(a for a in standard_suite(1, 3) if a.name() == "depol-0.5")
    kept = skipped = 0
    for sweep in ("run_qa_kg", "run_qa_kg_ideal", "run_psrqa_kg/detail"):
        calls, _ = _calls(monkeypatch, clear_job_caches, hybrid.CHUNK_ELEMENTS, lambda: SWEEPS[sweep](families[0], attack))
        for (gram, psi, layout, drop, fix), _, result in calls:
            assert _agree(result, build_then_trace_blocks(gram, psi, layout, drop, fix))
            for name in drop:
                less = tuple(n for n in drop if n != name)
                assert not _agree(result, build_then_trace_blocks(gram, psi, layout, less, fix)), (sweep, name)
                kept += 1
            if fix is not None and layout[2] not in drop:
                assert not _agree(result, build_then_trace_blocks(gram, psi, layout, drop, None)), sweep
                skipped += 1
    # the ideal drops registers on both sides, the psrqa twin one behind a
    # kept, corrected receiver
    assert kept >= 4 and skipped >= 2
