"""``ebit_ptp``'s arithmetic pinned on the benchmark's m=1, s=3 family.

``fidelity_acc`` is ill-conditioned on the rank-deficient accept-conditional
states (a 1e-17 change in the state moves it by up to ~3e-8), so ``ebit_ptp``
keeps its accept path operation for operation and only batches the reject
branches. This test holds it to that, for all 27 attacks of the s=3 suite:

- against ``per_branch_ebit_ptp`` below, a copy of the loop that built every
  (code, syndrome, syndrome) branch one at a time before the reject branches
  were batched: accept blocks bit for bit, reject blocks to 1e-14, plain and
  with ``detail=True``;
- against the EBIT fields of the recorded benchmark reports
  (``perfbench/reference/uc-s3.json``, read only) to 1e-12.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qauthlab.adversary import standard_suite
from qauthlab.codes import PtcFamily
from qauthlab.hybrid import ACC, FinalState, _replace_with_mixed
from qauthlab.protocols import (
    _apply,
    _attack_pieces,
    _ebit_output_plan,
    _family_encoders,
    _maybe_reference,
    _measure,
    ebit_ptp,
)
from qauthlab.qmath import StateVector, max_entangled_vector, reg_dims, reg_names
from qauthlab.ucharness import ebit_report

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "perfbench" / "fixtures" / "family-m1-s3.json"
REFERENCE = ROOT / "perfbench" / "reference" / "uc-s3.json"


def per_branch_ebit_ptp(family, attack, detail=False) -> FinalState:
    """The per-branch loop: every (t, y, ysyn) branch measured, normalized
    and added to its record in branch order; each record mixed once."""
    m, s, n = family.m, family.s, family.n
    dm, dt, dy = 1 << m, 1 << n, 1 << s
    encs = _family_encoders(family)
    base = StateVector(max_entangled_vector(dt), (("A0", dt), ("T", dt)))
    base = _maybe_reference(base, attack, m)
    attacked, att_regs = _apply(base.amplitudes, base.registers, *_attack_pieces(family, attack))
    plan = _ebit_output_plan(detail)
    blocks: dict = {}
    mixes: dict = {}
    for t, enc in enumerate(encs):
        vec, regs = _apply(attacked, att_regs, enc.T, ("A0",))
        for y, p_y, vec_y, regs_y in _measure(vec, regs, "A0", (("Ya", dy), ("A", dm)), 1.0):
            vec_y, regs_y = _apply(vec_y, regs_y, enc.conj().T, ("T",))
            for ysyn, p, flat, out_regs in _measure(vec_y, regs_y, "T", (("Ysyn", dy), ("B", dm)), p_y):
                verdict = ACC if ysyn == y else "REJ"
                record, drop, mix = plan({"t": t, "y": y, "ysyn": ysyn, "verdict": verdict})
                mixes[record] = mix
                names = reg_names(out_regs)
                keep = sorted((i for i, nm in enumerate(names) if nm not in drop), key=names.__getitem__)
                rest = [i for i in range(len(names)) if i not in keep]
                part = flat.reshape(reg_dims(out_regs)).transpose(keep + rest)
                part = part.reshape(int(np.prod([out_regs[i][1] for i in keep])), -1)
                rho = p / len(encs) * (part @ part.conj().T)
                if record in blocks:
                    rho = blocks[record][1] + rho
                blocks[record] = (tuple(out_regs[i] for i in keep), rho)
    for record, mix in mixes.items():
        kept, rho = blocks[record]
        for name in mix:
            rho = _replace_with_mixed(rho, kept, name)
        blocks[record] = (kept, rho)
    return FinalState(blocks)


@pytest.fixture(scope="module")
def family():
    return PtcFamily.load(FIXTURE)


@pytest.fixture(scope="module")
def suite():
    attacks = standard_suite(1, 3)
    assert len(attacks) == 27
    return attacks


@pytest.mark.parametrize("detail", [False, True])
def test_accept_blocks_bitwise_and_reject_blocks_close(family, suite, detail):
    accepts = 0
    for attack in suite:
        got = ebit_ptp(family, attack, detail=detail)
        want = per_branch_ebit_ptp(family, attack, detail=detail)
        assert set(got.blocks) == set(want.blocks), attack.name()
        for record, block in want.blocks.items():
            mine = got.blocks[record]
            assert mine.registers == block.registers, (attack.name(), record)
            if dict(record)["verdict"] == ACC:
                accepts += 1
                assert np.array_equal(mine.matrix, block.matrix), (attack.name(), record)
            else:
                np.testing.assert_allclose(
                    mine.matrix, block.matrix, rtol=0, atol=1e-14, err_msg=f"{attack.name()} {record}"
                )
    # 24 attacks have an accept block (Y0, Z0 and X2 are never accepted)
    assert accepts == (24 if not detail else 1736)


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
