"""``ebit_ptp``'s arithmetic pinned against its per-branch loop.

``fidelity_acc`` is ill-conditioned on the rank-deficient accept-conditional
states (a 1e-17 change in the state moves it by up to ~3e-8), so ``ebit_ptp``
computes every (code, syndrome) branch of a chunk of codes at once in the
arithmetic of one branch at a time: the same per-code decoder products, the
same normalization and outer product per branch, and the accept blocks summed
in branch order. These tests hold it to that:

- against ``per_branch_ebit_ptp`` below, the loop that built every (code,
  syndrome, syndrome) branch one at a time: accept blocks bit for bit, reject
  blocks to 1e-14, on all 27 attacks of the benchmark's m=1, s=3 family (also
  with the chunk budget cut to one code per chunk and to 2^12 entries, so
  that chunk boundaries fall inside the family and inside the accept sum),
  and on searched families at (m, s) = (1, 1), (1, 2), (2, 1) and (2, 2);
- the same, against the loop with one record per branch (``detail=True``,
  through ``oracles.branch_plan``), its branches summed per record class in
  branch order (``oracles.merge_branches``): accept blocks still bit for bit.
  ``tests/test_sweep_golden.py`` reads that branch form for its pinned
  ``ebit_ptp/detail`` values;
- against the EBIT fields of the recorded benchmark reports
  (``perfbench/reference/uc-s3.json``, read only) to 1e-12.

The oracle's measurement helpers ``_split`` and ``_measure`` live here, with
their own tests.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qauthlab import hybrid, protocols
from qauthlab.adversary import standard_suite
from qauthlab.codes import PtcFamily, ptc_epsilon_formula, search_ptc
from qauthlab.hybrid import ACC, PRUNE_BELOW, FinalState
from qauthlab.protocols import (
    _apply,
    _attack_pieces,
    _ebit_output_plan,
    _family_encoders,
    _maybe_reference,
    ebit_ptp,
)
from qauthlab.qmath import (
    RegisterError,
    Registers,
    StateVector,
    max_entangled_vector,
    reg_dims,
    reg_names,
    reg_positions,
    replace_factors,
    total_dim,
)
from qauthlab.ucharness import ebit_report

from oracles import branch_plan, ebit_branch, merge_branches

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "perfbench" / "fixtures" / "family-m1-s3.json"
REFERENCE = ROOT / "perfbench" / "reference" / "uc-s3.json"


def per_branch_ebit_ptp(family, attack, detail=False, mixed=True) -> FinalState:
    """The per-branch loop: every (t, y, ysyn) branch measured, normalized
    and added to its record in branch order; then, if ``mixed``, A of each
    reject record replaced by I/d, with ``qmath.replace_factors`` and not by
    the engine's ``FinalState.replaced``. With ``detail``, every branch is its
    own record (``oracles.ebit_branch``)."""
    m, s, n = family.m, family.s, family.n
    dm, dt, dy = 1 << m, 1 << n, 1 << s
    encs = _family_encoders(family)
    base = StateVector(max_entangled_vector(dt), (("A0", dt), ("T", dt)))
    base = _maybe_reference(base, attack, m)
    attacked, att_regs = _apply(base.amplitudes, base.registers, *_attack_pieces(family, attack))
    plan = branch_plan(_ebit_output_plan, ebit_branch) if detail else _ebit_output_plan
    blocks: dict = {}
    for t, enc in enumerate(encs):
        vec, regs = _apply(attacked, att_regs, enc.T, ("A0",))
        for y, p_y, vec_y, regs_y in _measure(vec, regs, "A0", (("Ya", dy), ("A", dm)), 1.0):
            vec_y, regs_y = _apply(vec_y, regs_y, enc.conj().T, ("T",))
            for ysyn, p, flat, out_regs in _measure(vec_y, regs_y, "T", (("Ysyn", dy), ("B", dm)), p_y):
                verdict = ACC if ysyn == y else "REJ"
                record, drop = plan({"t": t, "y": y, "ysyn": ysyn, "verdict": verdict})
                names = reg_names(out_regs)
                keep = sorted((i for i, nm in enumerate(names) if nm not in drop), key=names.__getitem__)
                rest = [i for i in range(len(names)) if i not in keep]
                part = flat.reshape(reg_dims(out_regs)).transpose(keep + rest)
                part = part.reshape(int(np.prod([out_regs[i][1] for i in keep])), -1)
                rho = p / len(encs) * (part @ part.conj().T)
                if record in blocks:
                    rho = blocks[record][1] + rho
                blocks[record] = (tuple(out_regs[i] for i in keep), rho)
    # the error state: A maximally mixed on every reject record
    for record, (kept, rho) in blocks.items():
        if mixed and dict(record)["verdict"] != ACC:
            blocks[record] = (kept, replace_factors(rho, kept, ("A",), np.eye(dm) / dm))
    return FinalState(blocks)


def _split(vec: np.ndarray, regs: Registers, name: str, split: Registers):
    """Split register ``name`` into ``split`` and take its first factor out
    as the leading axis. Returns (amplitudes by value of that factor, the
    probability of each value, rest layout). Serves only the oracle
    above."""
    (pos,) = reg_positions(regs, (name,))
    if total_dim(split) != regs[pos][1]:
        raise RegisterError(f"split {split} does not factor register {regs[pos]}")
    regs = regs[:pos] + tuple(split) + regs[pos + 1 :]
    dims = reg_dims(regs)
    tens = np.moveaxis(vec.reshape(dims), pos, 0).reshape(dims[pos], -1)
    probs = np.einsum("ij,ij->i", tens, tens.conj()).real
    return tens, probs, regs[:pos] + regs[pos + 1 :]


def _measure(vec: np.ndarray, regs: Registers, name: str, split: Registers, prob: float):
    """Split register ``name`` into ``split`` and measure its first factor in
    the computational basis. Yields (value, branch probability, normalized
    rest vector, rest layout) for each outcome whose probability exceeds
    PRUNE_BELOW; ``prob`` is the probability of the branch measured. Serves
    only the oracle above."""
    tens, probs, rest = _split(vec, regs, name, split)
    for value in range(len(probs)):
        p = prob * float(probs[value])
        if p > PRUNE_BELOW:
            yield value, p, tens[value] / np.sqrt(probs[value]), rest


@pytest.fixture(scope="module")
def family():
    return PtcFamily.load(FIXTURE)


@pytest.fixture(scope="module")
def suite():
    attacks = standard_suite(1, 3)
    assert len(attacks) == 27
    return attacks


def _compare_with_oracle(family, attacks, branches) -> int:
    """Assert that ``ebit_ptp`` gives the oracle's records and registers,
    accept blocks bit for bit and reject blocks within 1e-14; return the
    number of accept records of the oracle. With ``branches``, the oracle
    keeps one record per branch, summed per record class in branch order."""
    accepts = 0
    for attack in attacks:
        got = ebit_ptp(family, attack)
        want = per_branch_ebit_ptp(family, attack, detail=branches)
        accepts += sum(dict(record)["verdict"] == ACC for record in want.blocks)
        want = merge_branches(want)
        assert set(got.blocks) == set(want.blocks), attack.name()
        for record, block in want.blocks.items():
            mine = got.blocks[record]
            assert mine.registers == block.registers, (attack.name(), record)
            if dict(record)["verdict"] == ACC:
                assert np.array_equal(mine.matrix, block.matrix), (attack.name(), record)
            else:
                np.testing.assert_allclose(
                    mine.matrix, block.matrix, rtol=0, atol=1e-14, err_msg=f"{attack.name()} {record}"
                )
    return accepts


@pytest.mark.parametrize("branches", [False, True])
def test_accept_blocks_bitwise_and_reject_blocks_close(family, suite, branches):
    accepts = _compare_with_oracle(family, suite, branches)
    # 24 attacks have an accept block (Y0, Z0 and X2 are never accepted),
    # summed from 1,736 accept branches
    assert accepts == (1736 if branches else 24)


@pytest.mark.parametrize("branches", [False, True])
@pytest.mark.parametrize("budget", [1, 1 << 12])
def test_chunk_boundaries_keep_the_accept_sum(monkeypatch, clear_job_caches, family, suite, budget, branches):
    # budget 1: one code per chunk and one outer product per product call;
    # 2^12: chunks of 1 to 14 codes and outer products in runs of 1 to 256
    sizes = []
    code_chunks = protocols._code_chunks

    def spy(encoders, per_code):
        chunks = code_chunks(encoders, per_code)
        sizes.extend(len(codes) for codes in chunks)
        return chunks

    monkeypatch.setattr(hybrid, "CHUNK_ELEMENTS", budget)
    monkeypatch.setattr(protocols, "_code_chunks", spy)
    accepts = _compare_with_oracle(family, suite, branches)
    assert accepts == (1736 if branches else 24)
    assert len(sizes) == (27 * 14 if budget == 1 else 60)
    # the chunks cover each attack's 14 codes once
    assert sum(sizes) == 27 * 14


@pytest.mark.parametrize("branches", [False, True])
@pytest.mark.parametrize("m, s", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_searched_families_match_the_oracle(m, s, branches):
    family = search_ptc(m, s, target_eps=ptc_epsilon_formula(m, s), budget=60, seed=1)
    assert family.met_target
    assert _compare_with_oracle(family, standard_suite(m, s), branches) > 0


def test_ebit_report_matches_the_recorded_references(family, suite):
    reports = json.loads(REFERENCE.read_text())["reports"]
    for attack in suite:
        (want,) = reports[f"uc:{attack.name()}"]["results"]
        want = want["ebit"]
        rep = ebit_report(family, attack, ebit_ptp(family, attack))
        got = {"p_acc": rep.p_acc, **rep.extras}
        for key in ("fidelity_acc", "advantage_factored", "overlap_defect"):
            assert got[key] == pytest.approx(want["extras"][key], rel=0, abs=1e-12), (attack.name(), key)
        assert got["p_acc"] == pytest.approx(want["p_acc"], rel=0, abs=1e-12), attack.name()


# ---------------------------------------------------------------------------
# the oracle's measurement helpers
# ---------------------------------------------------------------------------


def phi_state():
    return StateVector(max_entangled_vector(2), (("A", 2), ("B", 2)))


def test_measure_splits_and_records():
    # A = (Ya, A) in C order, Ya most significant:
    # (|Ya=0, A=1>|0> + |Ya=1, A=0>|1>) / sqrt 2
    vec = np.zeros(8, dtype=complex)
    vec[2] = vec[5] = 1 / np.sqrt(2)
    regs = (("A", 4), ("B", 2))
    out = list(_measure(vec, regs, "A", (("Ya", 2), ("A", 2)), 0.5))
    assert [value for value, *_ in out] == [0, 1]
    for value, p, rest, rest_regs in out:
        assert p == pytest.approx(0.25)  # half of the measured branch's 0.5
        assert rest_regs == (("A", 2), ("B", 2))
        np.testing.assert_allclose(rest, np.eye(4)[2 if value == 0 else 1])
    # outcomes at or below PRUNE_BELOW are dropped
    assert list(_measure(vec, regs, "A", (("Ya", 2), ("A", 2)), 1e-16)) == []


def test_split_register_reads_c_order():
    # a trivial leading factor leaves the vector as it is
    psi = phi_state()
    split = (("A1", 1), ("A2", 2))
    ((value, p, rest, rest_regs),) = _measure(psi.amplitudes, psi.registers, "A", split, 1.0)
    assert (value, rest_regs) == (0, (("A2", 2), ("B", 2)))
    assert p == pytest.approx(1.0)
    np.testing.assert_allclose(rest, psi.amplitudes)
    # basis index k of a 4-dim register reads as (k // 2, k % 2)
    for k in range(4):
        ((value, _, rest, _),) = _measure(np.eye(4)[k], (("A", 4),), "A", (("hi", 2), ("lo", 2)), 1)
        assert value == k // 2
        np.testing.assert_allclose(rest, np.eye(2)[k % 2])
    with pytest.raises(RegisterError):
        list(_measure(psi.amplitudes, psi.registers, "A", (("A1", 3),), 1.0))
