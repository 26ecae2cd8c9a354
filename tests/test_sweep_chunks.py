"""The chunking of the code axis changes no result.

The transfer that ``key_sweep`` reads is built, and its two verdict Grams
summed, in chunks of codes sized by ``hybrid.CHUNK_ELEMENTS``;
``ebit_ptp`` computes its branches, its accept blocks and its reject Gram in
chunks sized by the same budget (both cut by ``protocols._code_chunks``).
Here the budget is patched three ways on the 8-code ``family_s2``: one code
per chunk, chunks of three (boundaries inside the family and a shorter last
chunk), and every code in one chunk. The same budget cuts a key sweep's key
values into runs, one ``hybrid._blocks`` call each (one value per run at
budget 1); taken together over its runs, a key sweep must make the same
``_blocks`` calls (on the same registers to drop, in the same order, over as
many key values) whatever the chunks, and ``ebit_ptp`` none.
Each run must give the same records on the same registers as the one-chunk
run, with weights and the distance between them within 1e-12. For the sweeps
named ``…/detail`` the one-chunk run must also be the oracles' records per
branch (``oracles.per_slice_run`` with ``oracles.branch_plan``, and
``per_branch_ebit_ptp``), summed per record class.
"""

import numpy as np
import pytest

from qauthlab import hybrid, protocols
from qauthlab.adversary import purified_input, standard_suite
from qauthlab.approx_psqa import psqa_ideal, run_psqa_kg, run_psrqa_kg, sample_cipher
from qauthlab.protocols import ebit_ptc, ebit_ptp, run_qa_kg, run_tqa_kg
from qauthlab.ucharness import run_qa_kg_ideal

from oracles import ebit_branch, merge_branches, per_slice_run, psqa_branch, qa_branch
from test_ebit_ptp_bits import per_branch_ebit_ptp

TOL = 1e-12
ATTACKS = ("identity", "depol-0.5", "swap-held", "cnot-R-T0")
PSI = purified_input("random-5", 1)
CIPHER = sample_cipher(1, 4, seed=2)
VEC = np.array([0.6, 0.8j], dtype=complex)
SWEEPS = {
    "run_qa_kg": lambda f, a: run_qa_kg(PSI, f, a),
    "run_qa_kg/no-back/detail": lambda f, a: run_qa_kg(PSI, f, a, back_communication=False),
    "run_tqa_kg/detail": lambda f, a: run_tqa_kg(PSI, f, a),
    "run_tqa_kg/no-back": lambda f, a: run_tqa_kg(PSI, f, a, back_communication=False),
    "ebit_ptc": lambda f, a: ebit_ptc(f, a),
    "ebit_ptc/detail": lambda f, a: ebit_ptc(f, a),
    "run_qa_kg_ideal": lambda f, a: run_qa_kg_ideal(PSI, f, a),
    "run_psqa_kg": lambda f, a: run_psqa_kg(VEC, CIPHER, f, a),
    "run_psqa_kg/detail": lambda f, a: run_psqa_kg(VEC, CIPHER, f, a),
    "run_psrqa_kg/detail": lambda f, a: run_psrqa_kg(VEC, CIPHER, f, a),
    "psqa_ideal": lambda f, a: psqa_ideal(VEC, CIPHER, f, a),
    "ebit_ptp": lambda f, a: ebit_ptp(f, a),
    "ebit_ptp/detail": lambda f, a: ebit_ptp(f, a),
}


def _branches(sweep, fmt):
    return lambda f, a: per_slice_run(lambda: SWEEPS[sweep](f, a), f, a, fmt)


# the oracles' records per branch for the sweeps named …/detail
BRANCHES = {
    "run_qa_kg/no-back/detail": _branches("run_qa_kg/no-back/detail", qa_branch),
    "run_tqa_kg/detail": _branches("run_tqa_kg/detail", qa_branch),
    "ebit_ptc/detail": _branches("ebit_ptc/detail", ebit_branch),
    "run_psqa_kg/detail": _branches("run_psqa_kg/detail", psqa_branch),
    "run_psrqa_kg/detail": _branches("run_psrqa_kg/detail", psqa_branch),
    "ebit_ptp/detail": lambda f, a: per_branch_ebit_ptp(f, a, detail=True),
}


def _chunked(monkeypatch, clear_caches, budget, run):
    """Run with the chunk budget patched; return the final state, the
    lengths of the runs of codes it was cut into, in order
    (``protocols._code_chunks``: the transfer's for a key sweep,
    ``ebit_ptp``'s own), their entries per code, and the registers to drop
    and key value count of each ``hybrid._blocks`` call, in order."""
    blocks, code_chunks = hybrid._blocks, protocols._code_chunks
    calls, cut = [], []

    def blocks_spy(*args):
        calls.append((args[3], len(args[1])))
        return blocks(*args)

    def codes_spy(encoders, per_code):
        cut.append((code_chunks(encoders, per_code), per_code))
        return cut[-1][0]

    with monkeypatch.context() as patch:
        patch.setattr(hybrid, "CHUNK_ELEMENTS", budget)
        patch.setattr(hybrid, "_blocks", blocks_spy)
        patch.setattr(protocols, "_code_chunks", codes_spy)
        clear_caches()
        final = run()
    clear_caches()
    # one run is cut once: one transfer per job, or ebit_ptp's codes
    ((chunks, per_code),) = cut
    return final, [len(codes) for codes in chunks], per_code, calls


def _merged(calls):
    """The ``_blocks`` calls with consecutive runs on the same registers to
    drop taken together: (drop, key values) in order."""
    merged = []
    for drop, values in calls:
        if merged and merged[-1][0] == drop:
            values += merged.pop()[1]
        merged.append((drop, values))
    return merged


def _assert_same(final, want, label):
    assert sorted(final.blocks, key=repr) == sorted(want.blocks, key=repr), label
    for record, block in want.blocks.items():
        assert final.blocks[record].registers == block.registers, (label, record)
        assert final.blocks[record].weight == pytest.approx(block.weight, rel=0, abs=TOL), (label, record)
    assert final.distance(want) <= TOL, label


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_chunking_changes_no_record(monkeypatch, clear_job_caches, family_s2, sweep):
    assert len(family_s2.codes) == 8
    suite = {a.name(): a for a in standard_suite(1, 2)}
    for name in ATTACKS:
        attack = suite[name]
        if "psqa" in sweep or "psrqa" in sweep:
            if attack.acts_on != ("T",):
                continue
        run = lambda: SWEEPS[sweep](family_s2, attack)  # noqa: E731
        # a key sweep builds its blocks as often from any chunks of codes as
        # from one; ebit_ptp builds none through _blocks
        whole, sizes, per_code, calls = _chunked(monkeypatch, clear_job_caches, 1 << 40, run)
        assert sizes == [8], (sweep, name)
        assert (calls == []) == sweep.startswith("ebit_ptp"), (sweep, name)
        if sweep in BRANCHES:
            branches = merge_branches(BRANCHES[sweep](family_s2, attack))
            _assert_same(whole, branches, f"{sweep} {name} branches summed per class")
        own, sizes, _, own_calls = _chunked(monkeypatch, clear_job_caches, 1, run)
        assert sizes == [1] * 8, (sweep, name)
        # one key value per run
        assert {values for _, values in own_calls} <= {1}, (sweep, name)
        assert _merged(own_calls) == _merged(calls), (sweep, name)
        _assert_same(own, whole, f"{sweep} {name} one code per chunk")
        threes, sizes, _, three_calls = _chunked(monkeypatch, clear_job_caches, 3 * per_code, run)
        assert sizes == [3, 3, 2], (sweep, name)
        assert _merged(three_calls) == _merged(calls), (sweep, name)
        _assert_same(threes, whole, f"{sweep} {name} chunks of three")
        _assert_same(run(), whole, f"{sweep} {name} default budget")
