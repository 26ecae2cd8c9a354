"""The seven key sweeps and ``ebit_ptp`` pinned against golden values at m=1, s=1.

The twin and forms identities compare two sweeps with each other, so a fault
shared by every sweep would pass them. This test compares each sweep with
values recorded from the per-branch engine (``HybridState``, since removed)
that ``key_sweep`` and ``ebit_ptp``'s direct loop replaced: for every
(sweep, attack) a digest of the sorted record reprs (the same records,
no more and no fewer), and per record in that order its weight and a fixed
linear fingerprint of its block matrix (which reads the entries and the
register order, not only the trace); for every attack, the distances between
paired sweeps. Numbers agree to 1e-12.

The engine keeps one record per verdict. The sweeps named ``…/detail`` keep
one record per branch, as the recorded engine did: the five key sweeps come
from the per-slice oracle with the old per-branch record formats
(``oracles.per_slice_run`` with ``oracles.branch_plan``), and
``ebit_ptp/detail`` from ``per_branch_ebit_ptp(detail=True)`` in
``tests/test_ebit_ptp_bits.py``. Their branches, summed per record class,
are compared with the engine's records in ``tests/test_key_sweep_oracle.py``
and ``tests/test_ebit_ptp_bits.py``.

``golden_sweeps_s1.json`` was written by ``python tests/test_sweep_golden.py``
run against the per-branch engine; rerunning it against the current engine
only reproduces whatever that engine computes.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from qauthlab.adversary import purified_input, standard_suite
from qauthlab.approx_psqa import psqa_ideal, run_psqa_kg, run_psrqa_kg, sample_cipher
from qauthlab.codes import PtcFamily, StabilizerCode
from qauthlab.protocols import ebit_ptc, ebit_ptp, run_qa_kg, run_tqa_kg
from qauthlab.ucharness import run_qa_kg_ideal

import oracles
from test_ebit_ptp_bits import per_branch_ebit_ptp

GOLDEN = Path(__file__).with_name("golden_sweeps_s1.json")
TOL = 1e-12
ATTACKS = (
    "identity", "X0", "Y1", "mix-I-Z0-Xtop", "depol-0.5",
    "swap-held", "cnot-R-T0", "swap-R-T0", "random-101",
)
PAIRS = (
    ("run_qa_kg", "run_qa_kg_ideal"),
    ("run_qa_kg", "run_tqa_kg/no-back"),
    ("run_qa_kg/no-back/detail", "run_tqa_kg/detail"),
    ("ebit_ptc", "ebit_ptp"),
    ("ebit_ptc/detail", "ebit_ptp/detail"),
    ("run_psqa_kg", "psqa_ideal"),
    ("run_psqa_kg/detail", "run_psrqa_kg/detail"),
)


def _family():
    codes = tuple(StabilizerCode(2, (x << 2 | z,)) for x, z in ((3, 0), (0, 3), (3, 3)))
    return PtcFamily(codes, epsilon_verified=2.0 / 3.0)


def _sweeps():
    fam = _family()
    psi = purified_input("random-5", 1)
    cipher = sample_cipher(1, 4, seed=2)
    vec = np.array([0.6, 0.8j], dtype=complex)

    def branches(run, fmt):
        return lambda a: oracles.per_slice_run(lambda: run(a), fam, a, fmt)

    return {
        "run_qa_kg": lambda a: run_qa_kg(psi, fam, a),
        "run_qa_kg/no-back/detail": branches(
            lambda a: run_qa_kg(psi, fam, a, back_communication=False), oracles.qa_branch
        ),
        "run_tqa_kg/detail": branches(lambda a: run_tqa_kg(psi, fam, a), oracles.qa_branch),
        "run_tqa_kg/no-back": lambda a: run_tqa_kg(psi, fam, a, back_communication=False),
        "ebit_ptc": lambda a: ebit_ptc(fam, a),
        "ebit_ptc/detail": branches(lambda a: ebit_ptc(fam, a), oracles.ebit_branch),
        "ebit_ptp": lambda a: ebit_ptp(fam, a),
        "ebit_ptp/detail": lambda a: per_branch_ebit_ptp(fam, a, detail=True),
        "run_qa_kg_ideal": lambda a: run_qa_kg_ideal(psi, fam, a),
        "run_psqa_kg": lambda a: run_psqa_kg(vec, cipher, fam, a),
        "run_psqa_kg/detail": branches(lambda a: run_psqa_kg(vec, cipher, fam, a), oracles.psqa_branch),
        "run_psrqa_kg/detail": branches(lambda a: run_psrqa_kg(vec, cipher, fam, a), oracles.psqa_branch),
        "psqa_ideal": lambda a: psqa_ideal(vec, cipher, fam, a),
    }


def fingerprint(matrix: np.ndarray) -> float:
    """Re Tr[G M] for a fixed full-rank, non-Hermitian G of M's size."""
    idx = np.arange(matrix.shape[0])
    g = np.exp(0.37j * np.outer(idx + 1, 2 * idx + 1)) / matrix.shape[0]
    return float(np.real(np.sum(g.T * matrix)))


def _t_only(name: str) -> bool:
    return "psqa" in name or "psrqa" in name


def digest() -> dict:
    """Per-sweep records, weights and fingerprints; distances of paired sweeps."""
    suite = {a.name(): a for a in standard_suite(1, 1)}
    out = {"sweeps": {}, "pairs": {}}
    for name, run in _sweeps().items():
        attacks = [a for a in ATTACKS if not _t_only(name) or suite[a].acts_on == ("T",)]
        for a in attacks:
            final = run(suite[a])
            records = oracles.records(final)
            out["sweeps"][f"{name}|{a}"] = {
                "records": hashlib.sha256(repr(records).encode()).hexdigest(),
                "weights": [final.blocks[rec].weight for rec in records],
                "fingerprints": [fingerprint(final.blocks[rec].matrix) for rec in records],
            }
    sweeps = _sweeps()
    for left, right in PAIRS:
        for a in ATTACKS:
            if (_t_only(left) or _t_only(right)) and suite[a].acts_on != ("T",):
                continue
            out["pairs"][f"{left}~{right}|{a}"] = sweeps[left](suite[a]).distance(
                sweeps[right](suite[a])
            )
    return out


@pytest.fixture(scope="module")
def computed():
    return digest()


@pytest.fixture(scope="module")
def golden():
    out = {"sweeps": {}, "pairs": {}}
    for key, value in json.loads(GOLDEN.read_text()).items():
        part, name = key.split("/", 1)
        out[part][name] = value
    return out


def test_same_sweeps_and_attacks(computed, golden):
    assert sorted(computed["sweeps"]) == sorted(golden["sweeps"])
    assert sorted(computed["pairs"]) == sorted(golden["pairs"])


def test_records_weights_and_fingerprints_match(computed, golden):
    for key, want in golden["sweeps"].items():
        got = computed["sweeps"][key]
        assert got["records"] == want["records"], key
        np.testing.assert_allclose(got["weights"], want["weights"], rtol=0, atol=TOL, err_msg=key)
        np.testing.assert_allclose(
            got["fingerprints"], want["fingerprints"], rtol=0, atol=TOL, err_msg=key
        )


def test_pairwise_distances_match(computed, golden):
    for key, want in golden["pairs"].items():
        assert computed["pairs"][key] == pytest.approx(want, rel=0, abs=TOL), key


def test_distance_stack_equals_the_list_and_stack_form(monkeypatch):
    # ``FinalState.distance`` fills one preallocated stack per block shape;
    # on every paired s = 1 golden final state that stack, and the distance,
    # equal bit for bit those of stacking a list of the differences
    from qauthlab import hybrid

    stacks = []
    norm = hybrid.trace_norm
    monkeypatch.setattr(hybrid, "trace_norm", lambda diffs: stacks.append(diffs.copy()) or norm(diffs))
    suite = {a.name(): a for a in standard_suite(1, 1)}
    sweeps = _sweeps()
    compared = 0
    for left, right in PAIRS:
        for a in ATTACKS:
            if (_t_only(left) or _t_only(right)) and suite[a].acts_on != ("T",):
                continue
            mine, theirs = sweeps[left](suite[a]), sweeps[right](suite[a])
            del stacks[:]
            got = mine.distance(theirs)
            records = sorted(set(mine.blocks) | set(theirs.blocks), key=repr)
            by_shape, norms = {}, {}
            for rec in records:
                if rec in mine.blocks and rec in theirs.blocks:
                    by_shape.setdefault(mine.blocks[rec].matrix.shape, []).append(rec)
                else:
                    norms[rec] = (mine.blocks.get(rec) or theirs.blocks[rec]).weight
            assert len(stacks) == len(by_shape)
            for stack, recs in zip(stacks, by_shape.values()):
                want = np.stack([mine.blocks[rec].matrix - theirs.blocks[rec].matrix for rec in recs])
                assert stack.dtype == want.dtype and np.array_equal(stack, want), (left, right, a)
                norms.update(zip(recs, norm(want)))
            assert got == float(sum(norms[rec] for rec in records)), (left, right, a)
            compared += 1
    assert compared == 7 * len(ATTACKS) - 2 * sum(suite[a].acts_on != ("T",) for a in ATTACKS)


if __name__ == "__main__":
    values = digest()
    lines = [
        f"  {json.dumps(f'{part}/{key}')}: {json.dumps(values[part][key], sort_keys=True)}"
        for part in ("sweeps", "pairs")
        for key in sorted(values[part])
    ]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
