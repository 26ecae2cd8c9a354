"""``key_sweep`` against the per-slice sweep it replaced.

``oracles.per_slice_key_sweep`` is that sweep, kept as the oracle: every key
value is a leading axis of the amplitude array, the encoders, the attack and
the decoders are applied to the keyed input itself, chunk by chunk, and each
record's block is one product over its slices. The engine instead reads the
shared transfer and builds each block from one Gram matrix per verdict.

On the benchmark's m=1, s=3 family, every protocol run goes once through the
engine and once through the oracle (``oracles.per_slice_run`` rebinds
``key_sweep`` where the protocols call it), with the same bases, keys and
plans: all seven sweeps over the 27 suite attacks (the T-only ones for the
three pure-state sweeps). The record sets and registers must be identical
and the blocks agree within 1e-12, and every block is Hermitian within
1e-13. The sweeps named ``…/detail`` run the oracle with one record per
branch (``oracles.branch_plan``): it must prune every accept branch of a
detected attack, and its branches, summed per record class
(``oracles.merge_branches``), must give the engine's blocks.
The transfer's two verdict Grams, summed over chunks of one code each, are
checked against their definition, and with the two swapped the comparison
must fail.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qauthlab import hybrid, protocols
from qauthlab.adversary import purified_input, standard_suite
from qauthlab.approx_psqa import psqa_ideal, run_psqa_kg, run_psrqa_kg, sample_cipher
from qauthlab.codes import PtcFamily
from qauthlab.hybrid import ACC, REJ, record_get
from qauthlab.protocols import _transfer, ebit_ptc, run_qa_kg, run_tqa_kg
from qauthlab.ucharness import run_qa_kg_ideal

from oracles import ebit_branch, merge_branches, per_slice_run, psqa_branch, qa_branch

FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "family-m1-s3.json"
TOL = 1e-12
PSI = purified_input("random-5", 1)
CIPHER = sample_cipher(1, 4, seed=2)
VEC = np.array([0.6, 0.8j], dtype=complex)
SWEEPS = {
    "run_qa_kg": lambda f, a: run_qa_kg(PSI, f, a),
    "run_qa_kg/detail": lambda f, a: run_qa_kg(PSI, f, a),
    "run_qa_kg/no-back": lambda f, a: run_qa_kg(PSI, f, a, back_communication=False),
    "run_tqa_kg": lambda f, a: run_tqa_kg(PSI, f, a),
    "run_tqa_kg/no-back/detail": lambda f, a: run_tqa_kg(PSI, f, a, back_communication=False),
    "ebit_ptc": lambda f, a: ebit_ptc(f, a),
    "ebit_ptc/detail": lambda f, a: ebit_ptc(f, a),
    "run_qa_kg_ideal": lambda f, a: run_qa_kg_ideal(PSI, f, a),
    "run_psqa_kg": lambda f, a: run_psqa_kg(VEC, CIPHER, f, a),
    "run_psqa_kg/detail": lambda f, a: run_psqa_kg(VEC, CIPHER, f, a),
    "run_psrqa_kg": lambda f, a: run_psrqa_kg(VEC, CIPHER, f, a),
    "run_psrqa_kg/detail": lambda f, a: run_psrqa_kg(VEC, CIPHER, f, a),
    "psqa_ideal": lambda f, a: psqa_ideal(VEC, CIPHER, f, a),
}
# the sweeps whose oracle run keeps one record per branch, in this format
BRANCHES = {
    "run_qa_kg/detail": qa_branch,
    "run_tqa_kg/no-back/detail": qa_branch,
    "ebit_ptc/detail": ebit_branch,
    "run_psqa_kg/detail": psqa_branch,
    "run_psrqa_kg/detail": psqa_branch,
}


@pytest.fixture(scope="module")
def family():
    return PtcFamily.load(FIXTURE)


@pytest.fixture(scope="module")
def suite(family):
    return standard_suite(family.m, family.s)


def branch_run(sweep, family, attack, tamper=False):
    """``sweep`` through the oracle, one record per branch for the sweeps in
    BRANCHES; with ``tamper``, one accept correction is the identity
    (``oracles.per_slice_run``)."""
    return per_slice_run(lambda: SWEEPS[sweep](family, attack), family, attack, BRANCHES.get(sweep), tamper)


def oracle_run(sweep, family, attack, tamper=False):
    """``sweep`` through the oracle, a branch sweep's records summed per
    record class."""
    final = branch_run(sweep, family, attack, tamper)
    return merge_branches(final) if sweep in BRANCHES else final


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
def test_engine_matches_the_per_slice_oracle(family, suite, sweep):
    attacks = _attacks(sweep, suite)
    assert len(attacks) == (25 if sweep.startswith(("run_ps", "psqa")) else 27)
    for attack in attacks:
        got = SWEEPS[sweep](family, attack)
        want = oracle_run(sweep, family, attack)
        assert compare(got, want) == [], (sweep, attack.name())
        # FinalState.distance takes each difference's 1-norm from eigvalsh,
        # which reads one triangle: every block is Hermitian to roundoff
        for record, block in got.blocks.items():
            skew = np.abs(block.matrix - block.matrix.conj().T).max()
            assert skew <= 1e-13, (sweep, attack.name(), record, skew)


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_detected_attacks_are_never_accepted(family, suite, sweep):
    # every code of the family detects Y0, Z0 and X2: their accept classes
    # (accept branches, in the oracle's branch runs) hold only roundoff, and
    # the prune must drop every one of them
    for attack in _attacks(sweep, suite):
        if attack.name() in ("Y0", "Z0", "X2"):
            final = branch_run(sweep, family, attack) if sweep in BRANCHES else SWEEPS[sweep](family, attack)
            assert final.blocks
            assert not [r for r in final.blocks if record_get(r, "verdict") == ACC], (sweep, attack.name())


@pytest.mark.parametrize("sweep", ["run_qa_kg", "run_tqa_kg/no-back/detail", "run_psqa_kg", "run_psrqa_kg"])
def test_a_wrong_correction_fails_the_comparison(family, suite, sweep):
    # negative control: one accept correction replaced by the identity
    attack = next(a for a in suite if a.name() == "identity")
    got = SWEEPS[sweep](family, attack)
    assert compare(got, oracle_run(sweep, family, attack)) == []
    assert compare(got, oracle_run(sweep, family, attack, tamper=True)) != []


def test_the_transfer_holds_its_two_verdict_classes(monkeypatch, clear_job_caches, family, suite):
    # REJ then ACC: each Gram matrix is the sum of x_b x_b^dag over its
    # branches, ACC's exactly those with y == ysyn, over the branch maps of
    # every chunk of codes (one code each here); the transfer is built once
    # per job, so every sweep of the job reads the same two read-only arrays
    transfer_chunk, built = protocols._transfer_chunk, []

    def spy(*args):
        built.append(transfer_chunk(*args))
        return built[-1]

    monkeypatch.setattr(protocols, "_transfer_chunk", spy)
    monkeypatch.setattr(hybrid, "CHUNK_ELEMENTS", 1)
    for attack in suite:
        built.clear()
        transfer = _transfer(family, attack)
        assert len(built) == len(family.codes)
        x = np.concatenate(built)
        codes, dy = x.shape[:2]
        x = x.reshape(codes * dy * dy, -1)
        _, y, ysyn = np.unravel_index(np.arange(len(x)), (codes, dy, dy))
        (rej, rej_gram), (acc, acc_gram) = transfer.verdicts
        assert (rej, acc) == (REJ, ACC)
        for rows, gram in ((np.flatnonzero(y != ysyn), rej_gram), (np.flatnonzero(y == ysyn), acc_gram)):
            want = sum(np.outer(x[b], x[b].conj()) for b in rows)
            assert np.abs(gram - want).max() <= TOL, attack.name()
            assert not gram.flags.writeable
        assert _transfer(family, attack) is transfer and len(built) == len(family.codes)


@pytest.mark.parametrize("sweep", ["run_qa_kg", "ebit_ptc", "run_psqa_kg"])
def test_swapped_verdict_classes_fail_the_comparison(monkeypatch, clear_job_caches, family, suite, sweep):
    # negative control: each verdict read with the other's Gram
    attack = next(a for a in suite if a.name() == "depol-0.5")
    got = SWEEPS[sweep](family, attack)
    want = oracle_run(sweep, family, attack)
    assert compare(got, want) == []
    build = protocols.build_transfer

    def swapped(*args):
        transfer = build(*args)
        (rej, rej_gram), (acc, acc_gram) = transfer.verdicts
        return replace(transfer, verdicts=((rej, acc_gram), (acc, rej_gram)))

    monkeypatch.setattr(protocols, "build_transfer", swapped)
    clear_job_caches()
    assert compare(SWEEPS[sweep](family, attack), want) != []
