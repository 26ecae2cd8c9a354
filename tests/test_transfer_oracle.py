"""``protocols._transfer_chunk`` against the contraction chain it replaced.

``chained_transfer_chunk`` below is that chain, kept as the oracle: the
probe basis contracted with the encoders, then the attack, through
``oracles._contract``, then each code's decoder through ``oracles._keyed`` and
three ``moveaxis`` to the (codes, y, ysyn, out, probe) layout. The engine
builds the same branch maps from two batched products and one transpose.
Both are read through ``build_transfer``, so they see the same chunks of
codes, and each chunk's maps are taken as ``_transfer_chunk`` returns them.

Every chunk's branch maps must be ``array_equal`` to the oracle's, and the
transfer's two verdict Grams (REJ, then ACC), read-only, within 1e-12 of the
oracle's: per chunk, sum_b x_b x_b^dag over each verdict's branches, summed
in chunk order. This holds on all 27 attacks of the benchmark's m=1, s=3
family, with the chunk budget at one entry (one code per chunk), at 2^12
and 2^16 entries and at its default, and on searched families at (m, s) =
(1, 1), (1, 2), (2, 1) and (2, 2). An oracle that applies the decoder without
its conjugate must differ, and an attack on (T, R), in that order, is refused.

At budget 1 the same budget also cuts each key sweep into runs of one key
value and each distance into runs of one record: every final state ``uc``
compares, and every distance between them, must stay within 1e-12 of the
default budget's on all 27 attacks.
"""

from pathlib import Path

import numpy as np
import pytest

from qauthlab import hybrid, protocols
from qauthlab.adversary import AttackDescriptor, purified_input, standard_suite
from qauthlab.codes import PtcFamily, ptc_epsilon_formula, search_ptc
from qauthlab.hybrid import ACC, REJ
from qauthlab.protocols import (
    _attack_pieces,
    _family_encoders,
    _transfer,
    build_transfer,
    ebit_ptc,
    ebit_ptp,
    run_qa_kg,
    run_tqa_kg,
)
from qauthlab.ucharness import run_qa_kg_ideal
from qauthlab.qmath import RegisterError, reg_dims, reg_positions, total_dim

from oracles import _contract, _keyed

FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "family-m1-s3.json"
TOL = 1e-12


def chained_transfer_chunk(encoders, probe, attack, scale, conj=True):
    """The contraction chain; with ``conj=False`` the decoder is the
    encoder's plain transpose (the negative control)."""
    iso, att_names, att_out = attack
    codes, dt, dc, dp = len(encoders), encoders.shape[1], dict(probe)["T"], total_dim(probe)
    dy = dt // dc
    basis = np.eye(dp, dtype=complex).reshape((dp,) + reg_dims(probe))
    amps, regs, names = _contract(
        basis, probe, ["p"], encoders.reshape(codes * dt * dy, dc), ("T",),
        (("t", codes), ("T", dt), ("y", dy)), ("t", "y"),
    )
    amps, regs, names = _contract(amps, regs, names, iso, att_names, att_out)
    # the decoder of code t, then T read as (ysyn, receiver)
    at = len(names) + reg_positions(regs, ("T",))[0]
    decoders = (encoders.conj() if conj else encoders).transpose(0, 2, 1)
    amps = _keyed(amps, names.index("t"), at, decoders)
    amps = amps.reshape(amps.shape[:at] + (dy, dc) + amps.shape[at + 1 :])
    amps = np.moveaxis(amps, at, len(names))
    return np.ascontiguousarray(scale * np.moveaxis(amps.reshape(dp, codes, dy, dy, -1), 0, -1))


def _build(monkeypatch, family, attack, make):
    """The transfer of ``family`` under ``attack``, each chunk's branch maps
    made by ``make``, and those maps in chunk order."""
    chunks = []

    def spy(*args):
        chunks.append(make(*args))
        return chunks[-1]

    with monkeypatch.context() as patch:
        patch.setattr(protocols, "_transfer_chunk", spy)
        transfer = build_transfer(_family_encoders(family), _attack_pieces(family, attack), family.m)
    return transfer, chunks


def both_transfers(monkeypatch, family, attack, conj=True):
    """(engine, oracle) transfers of ``family`` under ``attack``, each with
    its chunks' branch maps."""
    engine = _build(monkeypatch, family, attack, protocols._transfer_chunk)
    return engine, _build(monkeypatch, family, attack, lambda *args: chained_transfer_chunk(*args, conj=conj))


def summed_grams(chunks):
    """(REJ, ACC) Grams of branch maps laid out (codes, y, ysyn, out, probe):
    per chunk, sum_b x_b x_b^dag over the branches of each verdict (accept
    iff y == ysyn), summed in chunk order."""
    totals = {}
    for x in chunks:
        accept = np.eye(x.shape[1], dtype=bool)[None, :, :, None, None]
        for verdict, part in ((REJ, np.where(accept, 0, x)), (ACC, np.where(accept, x, 0))):
            flat = part.reshape(-1, x.shape[3] * x.shape[4])
            gram = np.einsum("bi,bj->ij", flat, flat.conj())
            totals[verdict] = totals[verdict] + gram if verdict in totals else gram
    return [(REJ, totals[REJ]), (ACC, totals[ACC])]


def differences(got, want) -> list[str]:
    """What differs between two transfers: their chunks' branch maps, bit for
    bit, and the first's verdict Grams against the second's chunks' Grams,
    within TOL."""
    (mine, my_chunks), (theirs, their_chunks) = got, want
    if (mine.probe, mine.out, len(my_chunks)) != (theirs.probe, theirs.out, len(their_chunks)):
        return ["layouts or chunk counts differ"]
    problems = []
    # a chunk's first code is the number of codes of the chunks before it
    offsets = np.cumsum([0] + [len(x) for x in their_chunks])
    for a, b, t0 in zip(my_chunks, their_chunks, offsets):
        if a.shape != b.shape or not np.array_equal(a, b):
            problems.append(f"chunk from code {t0}: x")
    verdicts = [verdict for verdict, _ in mine.verdicts]
    if verdicts != [REJ, ACC]:
        return problems + [f"verdicts {verdicts}"]
    for (verdict, gram), (_, want_gram) in zip(mine.verdicts, summed_grams(their_chunks)):
        if gram.flags.writeable or gram.shape != want_gram.shape or np.abs(gram - want_gram).max() > TOL:
            problems.append(f"{verdict} Gram")
    return problems


@pytest.fixture(scope="module")
def family():
    return PtcFamily.load(FIXTURE)


@pytest.mark.parametrize("budget", [1, 1 << 12, 1 << 16, hybrid.CHUNK_ELEMENTS])
def test_transfer_chunks_match_the_contraction_chain(monkeypatch, clear_job_caches, family, budget):
    monkeypatch.setattr(hybrid, "CHUNK_ELEMENTS", budget)
    suite = standard_suite(family.m, family.s)
    assert len(suite) == 27
    chunks = 0
    for attack in suite:
        got, want = both_transfers(monkeypatch, family, attack)
        assert differences(got, want) == [], attack.name()
        chunks += len(got[1])
    # one code per chunk; chunks of 1 to 14 codes; one chunk per attack; at
    # the default budget swap-held's 14 codes in four chunks, the others in one
    assert chunks == {1: 27 * 14, 1 << 12: 64, 1 << 14: 30, 1 << 16: 27}[budget]


def masked_grams(chunks):
    """(REJ, ACC) Grams as the engine took them from a tiled boolean mask:
    each verdict's rows of a chunk, picked by the mask, times their
    conjugates, added in place into the first chunk's."""
    grams = []
    for x in chunks:
        codes, dy = x.shape[:2]
        x = x.reshape(codes * dy * dy, -1)
        accept = np.tile(np.eye(dy, dtype=bool).reshape(-1), codes)
        for i, rows in enumerate((~accept, accept)):
            gram = x[rows].T @ x[rows].conj()
            if i < len(grams):
                grams[i] += gram
            else:
                grams.append(gram)
    return grams


@pytest.mark.parametrize("budget", [1, 1 << 16, hybrid.CHUNK_ELEMENTS])
def test_verdict_grams_equal_the_masked_rows_bit_for_bit(monkeypatch, clear_job_caches, family, budget):
    # the rows of each verdict, gathered by index, are the masked rows in the
    # same order, so every Gram is the same to the last bit; a REJ Gram taken
    # as all rows minus ACC leaves roundoff on classes that are exactly zero
    monkeypatch.setattr(hybrid, "CHUNK_ELEMENTS", budget)
    for attack in standard_suite(family.m, family.s):
        transfer, chunks = _build(monkeypatch, family, attack, protocols._transfer_chunk)
        for (verdict, gram), want in zip(transfer.verdicts, masked_grams(chunks), strict=True):
            assert np.array_equal(gram, want), (attack.name(), verdict)


def test_one_code_key_value_and_record_per_run_match_the_default_budget(monkeypatch, clear_job_caches, family):
    psi = purified_input("random-1", family.m)

    def compared(attack):
        """The final states uc compares for the attack, and their distances."""
        clear_job_caches()
        qa, ptp = run_qa_kg(psi, family, attack), ebit_ptp(family, attack)
        finals = {
            "qa": qa, "tqa": run_tqa_kg(psi, family, attack), "ideal": run_qa_kg_ideal(psi, family, attack),
            "ptc": ebit_ptc(family, attack), "ptp": ptp,
        }
        pairs = (("qa", "tqa"), ("qa", "ideal"), ("ptc", "ptp"))
        return finals, [finals[a].distance(finals[b]) for a, b in pairs]

    for attack in standard_suite(family.m, family.s):
        finals, distances = compared(attack)
        with monkeypatch.context() as patch:
            patch.setattr(hybrid, "CHUNK_ELEMENTS", 1)
            ones, one_distances = compared(attack)
            for name, final in finals.items():
                assert sorted(ones[name].blocks, key=repr) == sorted(final.blocks, key=repr), (attack.name(), name)
                assert ones[name].distance(final) <= TOL, (attack.name(), name)
        assert np.abs(np.subtract(one_distances, distances)).max() <= TOL, attack.name()


@pytest.mark.parametrize("m, s", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_searched_families_match_the_contraction_chain(monkeypatch, clear_job_caches, m, s):
    family = search_ptc(m, s, target_eps=ptc_epsilon_formula(m, s), budget=60, seed=1)
    assert family.met_target
    for attack in standard_suite(m, s):
        got, want = both_transfers(monkeypatch, family, attack)
        assert differences(got, want) == [], (m, s, attack.name())


def test_a_decoder_without_its_conjugate_fails_the_comparison(monkeypatch, clear_job_caches, family):
    # negative control: the fixture's encoders are complex, so a decoder that
    # is the plain transpose changes the chunks
    for name in ("identity", "depol-0.5", "cnot-R-T0"):
        attack = next(a for a in standard_suite(family.m, family.s) if a.name() == name)
        got, want = both_transfers(monkeypatch, family, attack, conj=False)
        assert differences(got, want) != [], name


def test_an_attack_on_t_then_r_is_refused(monkeypatch, clear_job_caches, family):
    # R must come first, as build_attack lifts an operator on T; the transfer
    # refuses any other order before it builds a chunk
    attack = AttackDescriptor("random_dilation", acts_on=("T", "R"), seed=3, env_dim=2, label="t-then-r")
    assert _attack_pieces(family, attack)[1] == ("T", "R")
    built = []
    monkeypatch.setattr(protocols, "_transfer_chunk", lambda *args: built.append(args))
    with pytest.raises(RegisterError, match="R first"):
        _transfer(family, attack)
    with pytest.raises(RegisterError, match="R first"):
        run_qa_kg(purified_input("random-1", family.m), family, attack)
    assert built == []
