import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from qauthlab import classical_wc
from qauthlab.classical_wc import (
    FamilyVerificationError,
    HashFamily,
    _pair_counts,
    _verify_table,
    gf_mul,
    key_leak_demo,
    poly_hash_family,
    wc_kg_advantage,
)

from oracles import completeness_exact, row_counts_pair_counts, scalar_gf_mul, wc_send, wc_verify


def tag_table(keys, msgs, evaluate) -> np.ndarray:
    """The tag of message i under key j, one ``evaluate`` call each."""
    return np.array([[evaluate(k, x) for k in keys] for x in msgs], dtype=np.int64)


def test_field_arithmetic():
    # GF(4) with x^2 + x + 1: 2 * 2 = 3, 2 * 3 = 1
    assert gf_mul(2, 2, 2) == 3
    assert gf_mul(2, 3, 2) == 1
    for a in range(8):
        assert gf_mul(a, 1, 3) == a
        assert gf_mul(a, 0, 3) == 0


@pytest.mark.parametrize("w", sorted(classical_wc._IRREDUCIBLE))
def test_gf_mul_on_arrays_matches_the_scalar_loop(w):
    # one call over every pair of field elements, and the same function on
    # ints, against the loop that reads one bit of b at a time
    q = 1 << w
    want = np.array([[scalar_gf_mul(a, b, w) for b in range(q)] for a in range(q)])
    np.testing.assert_array_equal(gf_mul(np.arange(q)[:, None], np.arange(q), w), want)
    assert [gf_mul(a, b, w) for a in range(q) for b in range(q)] == want.ravel().tolist()


@pytest.mark.parametrize("w,L", [(2, 1), (3, 1), (2, 2), (6, 1), (4, 2), (3, 3), (2, 4)])
def test_family_parameter_is_L_over_field(w, L):
    # the last four are the largest configurations under the cost limit
    fam = poly_hash_family(w, L)
    assert len(fam.message_space) ** 2 * len(fam.keys) <= classical_wc.WC_COST_LIMIT
    assert fam.eps_asu2 == pytest.approx(L / (1 << w))
    assert len(fam.keys) == (1 << w) ** 2
    assert len(fam.tag_space) == 1 << w
    assert len(fam.message_space) == (1 << w) ** L


def test_family_reverification_matches():
    fam = poly_hash_family(3, 1)
    table = tag_table(fam.keys, fam.message_space, fam.evaluate)
    eps, hits = _verify_table(table, list(fam.message_space), len(fam.tag_space))
    assert eps == fam.eps_asu2
    assert np.array_equal(hits, fam.hits)


def test_slope_only_keys_fail_uniformity():
    # without the offset half of the key the zero message hashes to a
    # constant, so single-point uniformity (and with it almost-strong
    # universality) is unattainable at |keys| = |tags|
    w = 2
    keys = tuple(range(1 << w))
    msgs = tuple((a,) for a in range(1 << w))
    tags = tuple(range(1 << w))
    with pytest.raises(FamilyVerificationError):
        _verify_table(tag_table(keys, msgs, lambda c, m: gf_mul(c, m[0], w)), list(msgs), len(tags))


def test_wire_format():
    fam = poly_hash_family(2, 1)
    k = fam.keys[5]
    x = fam.message_space[2]
    assert wc_send(x, k, 0, fam) == (x, fam.evaluate(k, x))
    for t in fam.tag_space:
        msg, tag = wc_send(x, k, t, fam)
        assert tag ^ t == fam.evaluate(k, x)
        assert wc_verify((msg, tag), k, t, fam)


def test_pad_makes_tag_marginal_uniform():
    fam = poly_hash_family(2, 1)
    for k in fam.keys[:6]:
        for x in fam.message_space:
            seen = sorted(wc_send(x, k, t, fam)[1] for t in fam.tag_space)
            assert seen == sorted(fam.tag_space)


def test_completeness():
    assert completeness_exact(poly_hash_family(2, 1))
    assert completeness_exact(poly_hash_family(3, 1))


def test_completeness_fails_for_a_tag_that_is_not_a_function():
    # negative control: a "hash" that flips with every evaluation makes the
    # tag Bob recomputes differ from the one Alice sent
    fam = poly_hash_family(2, 1)
    calls = itertools.count()
    flaky = replace(fam, evaluate=lambda k, x: fam.evaluate(k, x) ^ (next(calls) & 1))
    assert not completeness_exact(flaky)


def test_exhaustive_advantage_bounded_by_eps():
    for w, L in ((2, 1), (3, 1), (2, 2)):
        fam = poly_hash_family(w, L)
        rep = wc_kg_advantage(fam)
        assert rep["pass"]
        assert rep["advantage"] <= fam.eps_asu2 + 1e-12
        assert rep["advantage_one_norm"] == pytest.approx(2.0 * rep["advantage"])
    # the bound is tight: some rewrite achieves it exactly
    fam = poly_hash_family(3, 1)
    assert wc_kg_advantage(fam)["advantage"] == pytest.approx(fam.eps_asu2)


def test_an_understated_eps_fails_the_advantage_check():
    # negative control: the same family stating an eps_asu2 below the
    # advantage it reaches (exactly its true eps) must not pass
    fam = poly_hash_family(3, 1)
    rep = wc_kg_advantage(replace(fam, eps_asu2=fam.eps_asu2 / 2))
    assert rep["advantage"] == pytest.approx(fam.eps_asu2)
    assert rep["pass"] is False


def test_key_leak_demo():
    fam = poly_hash_family(3, 1)
    leak = key_leak_demo(fam)
    assert leak["pass"]
    assert leak["leakage_bits"] > 0.0
    assert 0.0 < leak["accept_probability"] < 1.0
    assert leak["leakage_bits"] <= leak["entropy_bound_bits"] + 1e-12
    honest = key_leak_demo(fam, honest=True)
    assert honest["leakage_bits"] == 0.0
    assert honest["accept_probability"] == 1.0


def test_reports_serialize():
    # each report is the dict the CLI prints, and survives a JSON round trip
    fam = poly_hash_family(2, 1)
    rep = wc_kg_advantage(fam)
    assert json.loads(json.dumps(rep)) == rep
    assert rep["pass"] is True
    assert rep["eps_asu2"] == fam.eps_asu2
    leak = key_leak_demo(fam)
    assert json.loads(json.dumps(leak)) == leak
    assert leak["pass"] is True
    assert leak["guessed_key"] == list(fam.keys[0])


def test_parameter_guards():
    with pytest.raises(ValueError):
        poly_hash_family(9, 1)
    with pytest.raises(ValueError):
        poly_hash_family(2, 5)


def _scalar_advantages(fam):
    """Reference loop over `family.evaluate` only: per input x0, the best
    rewrite (x', delta), scanning x' in message order and, within one x', the
    deltas in the order their first key produces them; later ties never win."""
    nk = len(fam.keys)
    values = {x: [fam.evaluate(k, x) for k in fam.keys] for x in fam.message_space}
    out = {}
    for x0 in fam.message_space:
        best, info = 0.0, {"substitution": "identity"}
        for xp in fam.message_space:
            diffs: dict[int, int] = {}
            for h0, h in zip(values[x0], values[xp]):
                diffs[h ^ h0] = diffs.get(h ^ h0, 0) + 1
            for delta, hits in diffs.items():
                if (xp, delta) != (x0, 0) and hits / nk > best:
                    best = hits / nk
                    info = {"substitution": "rewrite", "input": str(x0),
                            "to_message": str(xp), "tag_xor": delta}
        out[x0] = (best, info)
    return out


# (5, 1) is the benchmark's family; the advantage counts each unordered
# message pair once, in row i < j
@pytest.mark.parametrize("w,L", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1)])
def test_table_advantage_matches_scalar_loop(w, L):
    fam = poly_hash_family(w, L)
    ref = _scalar_advantages(fam)
    overall = (0.0, {"substitution": "identity"})
    for best, info in ref.values():
        if best > overall[0]:
            overall = (best, info)
    rep = wc_kg_advantage(fam)
    assert (rep["advantage"], rep["best_substitution"]) == overall


def test_advantage_tie_break_follows_the_first_key():
    # x' = (1,) gives delta 3 on keys 0, 2 and delta 1 on keys 1, 3: a tie the
    # earliest key breaks in favour of 3, not of the smaller delta 1; input
    # (0,) is the first with the most hits, so the all-inputs search picks it
    rows = [[0, 0, 0, 0], [3, 1, 3, 1]]
    msgs = ((0,), (1,))
    fam = HashFamily(
        keys=(0, 1, 2, 3), message_space=msgs, tag_space=(0, 1, 2, 3),
        evaluate=lambda k, x: rows[msgs.index(x)][k], eps_asu2=1.0, table=np.array(rows),
        hits=_pair_counts(np.array(rows))[1],
    )
    rep = wc_kg_advantage(fam)
    assert rep["best_substitution"]["input"] == "(0,)"
    assert rep["best_substitution"]["tag_xor"] == 3
    assert (rep["advantage"], rep["best_substitution"]) == _scalar_advantages(fam)[(0,)]


@pytest.mark.parametrize("seed", range(6))
def test_all_inputs_choice_matches_scalar_loop_on_random_tables(seed):
    # unstructured tables, where best pairs and ties fall anywhere: counting
    # each unordered pair once (row i < j) must still pick the scalar loop's
    # first input and its first partner
    rows = np.random.default_rng(seed).integers(0, 4, size=(7, 8))
    msgs = tuple((i,) for i in range(len(rows)))
    fam = HashFamily(
        keys=tuple(range(8)), message_space=msgs, tag_space=(0, 1, 2, 3),
        evaluate=lambda k, x: int(rows[x[0], k]), eps_asu2=1.0, table=rows, hits=_pair_counts(rows)[1],
    )
    overall = (0.0, {"substitution": "identity"})
    for best, info in _scalar_advantages(fam).values():
        if best > overall[0]:
            overall = (best, info)
    rep = wc_kg_advantage(fam)
    assert (rep["advantage"], rep["best_substitution"]) == overall


@pytest.mark.parametrize("seed", range(4))
def test_pair_counts_match_a_scalar_count(seed):
    # both counts of the one pass over message pairs i < j, against a count
    # of one key at a time: the most keys on one joint tag pair (a, b), and
    # hits[i, j], the most keys on one tag difference (0 for j <= i)
    rows = np.random.default_rng(seed).integers(0, 4, size=(6, 8))
    worst, hits = _pair_counts(rows)
    joint, want = 0, np.zeros_like(hits)
    for i, j in itertools.combinations(range(len(rows)), 2):
        pairs = [(int(a), int(b)) for a, b in zip(rows[i], rows[j])]
        joint = max(joint, max(pairs.count(p) for p in pairs))
        diffs = [a ^ b for a, b in pairs]
        want[i, j] = max(diffs.count(d) for d in diffs)
    assert worst == joint
    assert np.array_equal(hits, want)
    assert not hits.flags.writeable


# the benchmark's two families, then the two largest that WC_COST_LIMIT admits
@pytest.mark.parametrize("w,L", [(5, 1), (3, 2), (6, 1), (4, 2)])
def test_pair_counts_match_the_row_counts_form(w, L):
    table = poly_hash_family(w, L).table
    worst, hits = _pair_counts(table)
    want_worst, want_hits = row_counts_pair_counts(table)
    assert worst == want_worst
    np.testing.assert_array_equal(hits, want_hits)


@pytest.mark.parametrize("w,L", [(2, 1), (3, 1), (2, 2)])
def test_tag_table_matches_evaluate(w, L):
    fam = poly_hash_family(w, L)
    assert fam.table.shape == (len(fam.message_space), len(fam.keys))
    for i, x in enumerate(fam.message_space):
        assert list(fam.table[i]) == [fam.evaluate(k, x) for k in fam.keys]


@pytest.mark.parametrize("w,L", [(2, 1), (3, 1), (2, 2)])
def test_key_leak_is_mutual_information(w, L):
    fam = poly_hash_family(w, L)
    leak = key_leak_demo(fam)
    # the pad cancels, so the verdict is a function of the key: I(K; V) = H(V)
    assert leak["leakage_bits"] == pytest.approx(leak["entropy_bound_bits"], abs=1e-12)
    assert leak["leakage_bits"] > 0.0
    honest = key_leak_demo(fam, honest=True)
    assert honest["leakage_bits"] == 0.0
    assert honest["entropy_bound_bits"] == 0.0
    assert honest["pass"]


@pytest.mark.parametrize("w,L", [(7, 1), (8, 1), (5, 2), (4, 3), (3, 4)])
def test_cost_limit_refuses_before_any_work(w, L, monkeypatch):
    def no_field_work(*args):
        raise AssertionError("field arithmetic ran before the cost check")

    monkeypatch.setattr(classical_wc, "gf_mul", no_field_work)
    cost = (1 << w) ** (2 * L) * (1 << (2 * w))
    with pytest.raises(ValueError, match=rf"= {cost} exceeds the limit 2\^24 = 16777216"):
        poly_hash_family(w, L)
