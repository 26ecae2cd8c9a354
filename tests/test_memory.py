"""Memory regressions: the transient peak, under tracemalloc, of a
final-state build on the benchmark's m=1, s=3 family under swap-held, the
attack whose E holds all of T and whose records are the largest there.

Each build runs once to fill the job's caches (encoders, attack, transfer),
and is then measured: the peak of traced memory above what was held before
the call, its result included. The bounds sit between the builds that form
every record on every register and then trace the dropped ones out (6.54 MB
for ``ebit_ptp``, 1.45 MB for ``run_qa_kg_ideal``) and the builds that form
each record on its kept registers only (2.0 MB and 0.22 MB; ``ebit_ptp``
1.07 MB in four chunks of codes at the 2^14 budget). ``run_qa_kg`` and
``run_tqa_kg`` keep the receiver on accept and undo the pad there: that
correction took 1.4 MB when it copied the block stack twice per side, 0.61
MB as two products on the stack sorted by name, and 0.55 MB once the reject
stack is freed before the accept blocks are built (bound 1.0 MB).

With the chunk budget cut to one record or one key value per run
(``hybrid.CHUNK_ELEMENTS`` = 1), the swap-held twin distance
(``run_qa_kg`` against ``run_tqa_kg``) stacks one of its four 64 x 64 accept
records at a time, and ``run_qa_kg`` builds one pad's blocks at a time: 0.20
and 0.35 MB, against 0.66 and 0.61 MB when every record and every pad went
into one stack (bounds 0.4 and 0.45 MB). At (2, 3) the same runs, at the
default budget, take the twin distance from 134 to 8.5 MB and ``run_qa_kg``
from 139 to 72 MB, of which 67 MB is its output.

The same measure bounds ``ptp_soundness_exact`` on the seeded n = 6 family of
``qauthlab ptc --m 3 --s 3 --seed 1`` (18 codes) at 64 MB: the dense Omega
of 4^6 x 4^6 entries took two 134 MB real Grams, and the XOR blocks with the
probe stay near the size of the (2^6)^3 stack of their Grams.
"""

import tracemalloc
from pathlib import Path

import pytest

from qauthlab import hybrid
from qauthlab.adversary import purified_input, standard_suite
from qauthlab.codes import PtcFamily, ptc_epsilon_formula, search_ptc
from qauthlab.protocols import ebit_ptp, run_qa_kg, run_tqa_kg
from qauthlab.ucharness import ptp_soundness_exact, run_qa_kg_ideal

FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "family-m1-s3.json"
BOUNDS_MB = {"ebit_ptp": 3.5, "run_qa_kg": 1.0, "run_qa_kg_ideal": 0.5, "run_tqa_kg": 1.0}
# with one record or one key value per run
ONE_PER_RUN_BOUNDS_MB = {"run_qa_kg": 0.45, "twin distance": 0.4}


def transient_peak_mb(run) -> float:
    """The tracemalloc peak of ``run()`` above the memory traced before it,
    in MB, once the job's caches are filled by a first call."""
    run()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
        del result
    finally:
        if not tracing:
            tracemalloc.stop()
    return (peak - base) / 1e6


@pytest.mark.parametrize("build", sorted(BOUNDS_MB))
def test_swap_held_transient_peak(clear_job_caches, build):
    family = PtcFamily.load(FIXTURE)
    attack = next(a for a in standard_suite(1, 3) if a.name() == "swap-held")
    psi = purified_input("random-1", 1)
    runs = {
        "ebit_ptp": lambda: ebit_ptp(family, attack),
        "run_qa_kg": lambda: run_qa_kg(psi, family, attack),
        "run_qa_kg_ideal": lambda: run_qa_kg_ideal(psi, family, attack),
        "run_tqa_kg": lambda: run_tqa_kg(psi, family, attack),
    }
    peak = transient_peak_mb(runs[build])
    assert peak <= BOUNDS_MB[build], f"{build}: {peak:.2f} MB"
    # the measure sees the build: no peak of nothing passes
    assert peak > 0.05 * BOUNDS_MB[build], f"{build}: {peak:.3f} MB"


@pytest.mark.parametrize("build", sorted(ONE_PER_RUN_BOUNDS_MB))
def test_swap_held_transient_peak_one_record_or_key_value_per_run(monkeypatch, clear_job_caches, build):
    monkeypatch.setattr(hybrid, "CHUNK_ELEMENTS", 1)
    family = PtcFamily.load(FIXTURE)
    attack = next(a for a in standard_suite(1, 3) if a.name() == "swap-held")
    psi = purified_input("random-1", 1)
    qa, tqa = run_qa_kg(psi, family, attack), run_tqa_kg(psi, family, attack)
    # four accept records of 64 x 64, one per pad
    assert sorted(b.matrix.shape for b in qa.blocks.values())[-4:] == [(64, 64)] * 4
    runs = {"run_qa_kg": lambda: run_qa_kg(psi, family, attack), "twin distance": lambda: qa.distance(tqa)}
    peak = transient_peak_mb(runs[build])
    bound = ONE_PER_RUN_BOUNDS_MB[build]
    assert peak <= bound, f"{build}: {peak:.3f} MB"
    assert peak > 0.05 * bound, f"{build}: {peak:.3f} MB"


def test_exact_soundness_transient_peak_at_n6():
    family = search_ptc(3, 3, ptc_epsilon_formula(3, 3), seed=1)
    assert family.n == 6 and len(family.codes) == 18
    # the first call builds the encoders, outside the measured call
    peak = transient_peak_mb(lambda: ptp_soundness_exact(family))
    assert peak <= 64.0, f"ptp_soundness_exact: {peak:.1f} MB"
    assert peak > 1.0, f"ptp_soundness_exact: {peak:.3f} MB"
    assert ptp_soundness_exact(family) == pytest.approx(family.epsilon_verified, abs=1e-9)
