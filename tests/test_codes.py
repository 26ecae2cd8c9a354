import hashlib
import json
import re
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qauthlab import codes as codes_module
from qauthlab.codes import (
    PTC_COST_LIMIT,
    PTC_MAX_N,
    CodeError,
    _missed_counts,
    _worst_error,
    PtcFamily,
    StabilizerCode,
    cost_formulas,
    encoding_unitary,
    ptc_epsilon_formula,
    random_stabilizer_code,
    search_ptc,
    verify_ptc,
)
from qauthlab.pauli import PauliString, enumerate_paulis, pauli_matrix
from qauthlab.qmath import InvariantError

from oracles import detects, int64_missed_counts, scalar_random_stabilizer_code, stabilizer_masks, syndrome


FIXTURE = Path(__file__).resolve().parent.parent / "perfbench/fixtures/family-m1-s3.json"


def single(x, z):
    return StabilizerCode(2, (x << 2 | z,))


def test_code_validation():
    with pytest.raises(CodeError, match="need at least one generator"):
        StabilizerCode(2, ())
    for labels in (
        (0,),  # the identity
        (0b01 << 2, 0b01),  # X and Z on qubit 0 anticommute
        (0b11 << 2, 0b11 << 2),  # XX twice
        (0b11 << 2, 0b11, 0b1111),  # XX, ZZ and their product
        (1 << 4,),  # a label of 4^n or more
        (0b11 << 2, 0b11 << 2 | 0b01),  # XX, then Y on qubit 0 and X on qubit 1
    ):
        with pytest.raises(CodeError, match="lies outside 4\\^2, anticommutes"):
            StabilizerCode(2, labels)
    # XX and ZZ commute (two anticommuting qubits) and are independent
    code = StabilizerCode(2, [0b11 << 2, 0b11])
    assert (code.n, code.s, code.m, code.labels) == (2, 2, 0, (0b11 << 2, 0b11))
    assert [g.to_text() for g in code.generators] == ["xz:11|00", "xz:00|11"]


def test_syndrome_examples():
    zz = single(0, 0b11)
    assert syndrome(zz, PauliString(2, 0, 0)) == 0
    assert syndrome(zz, PauliString(2, 0b01, 0)) == 1  # X on one qubit flips it
    assert syndrome(zz, PauliString(2, 0b11, 0)) == 0  # two flips cancel
    with pytest.raises(CodeError):
        syndrome(zz, PauliString(3, 1, 0))


@settings(max_examples=200, deadline=None)
@given(x1=st.integers(0, 15), z1=st.integers(0, 15), x2=st.integers(0, 15), z2=st.integers(0, 15))
def test_syndrome_linearity(family_s3, x1, z1, x2, z2):
    from oracles import pauli_mul

    code = family_s3.codes[0]
    e1 = PauliString(4, x1, z1)
    e2 = PauliString(4, x2, z2)
    assert syndrome(code, pauli_mul(e1, e2)) == syndrome(code, e1) ^ syndrome(code, e2)


def test_detects_examples():
    assert detects(single(0, 0b11), PauliString(2, 0b01, 0))  # flagged by syndrome
    assert detects(single(0b11, 0), PauliString(2, 0b11, 0))  # in the stabilizer
    assert not detects(single(0, 0b11), PauliString(2, 0b11, 0))  # silent logical


def test_verify_ptc_reference_family(family_s1):
    # brute force over the 15 nontrivial two-qubit errors: the worst error
    # (e.g. XX) slips past exactly the two codes that do not stabilize it
    assert verify_ptc(family_s1.codes) == pytest.approx(2.0 / 3.0)
    assert verify_ptc(family_s1.codes) == family_s1.epsilon_verified


def test_verify_ptc_single_code_with_logical_error():
    assert verify_ptc([single(0, 0b11)]) == 1.0


def test_verify_ptc_range(family_s2):
    assert 0.0 <= verify_ptc(family_s2.codes) <= 1.0
    with pytest.raises(CodeError):
        verify_ptc([])
    with pytest.raises(CodeError):
        verify_ptc([single(0, 0b11), StabilizerCode(3, (0b111 << 3,))])


def test_detection_oracle_matches_dense_action(family_s1):
    # dense-matrix oracle: an error is flagged iff it moves the codespace
    # (fails to commute with the projector); it is harmless iff its
    # restriction to the codespace is a global phase (P e P = lam P)
    for code in family_s1.codes:
        g = pauli_matrix(code.generators[0])
        proj = (np.eye(4) + g) / 2.0
        rank = int(round(np.real(proj.trace())))
        for e in list(enumerate_paulis(2))[1:]:
            em = pauli_matrix(e)
            commutes_with_code = np.allclose(em @ proj, proj @ em, atol=1e-12)
            pep = proj @ em @ proj
            lam = pep.trace() / rank
            acts_trivially = (
                commutes_with_code
                and abs(abs(lam) - 1.0) < 1e-12
                and np.allclose(pep, lam * proj, atol=1e-12)
            )
            assert detects(code, e) == ((not commutes_with_code) or acts_trivially)


def test_epsilon_formula_values():
    assert ptc_epsilon_formula(1, 3) == pytest.approx(8.0 / 27.0)
    assert ptc_epsilon_formula(2, 2) == pytest.approx(0.8)
    assert ptc_epsilon_formula(1, 1) == pytest.approx(4.0 / 3.0)


def test_search_meets_formula_all_sizes():
    start = time.time()
    for s in (1, 2, 3):
        target = ptc_epsilon_formula(1, s)
        fam = search_ptc(1, s, target_eps=target, budget=120, seed=7)
        assert fam.met_target
        assert fam.epsilon_verified <= target
        assert verify_ptc(fam.codes) == fam.epsilon_verified
    assert time.time() - start < 60.0


def test_search_reports_failure_without_meeting_target():
    fam = search_ptc(1, 1, target_eps=0.0, budget=3, seed=0)
    assert not fam.met_target
    assert fam.epsilon_verified > 0.0


def test_search_dimension_guard():
    with pytest.raises(CodeError):
        search_ptc(3, 4, target_eps=0.5)
    with pytest.raises(CodeError, match="budget of at least 1 trial, got 0"):
        search_ptc(1, 1, target_eps=0.5, budget=0)


def test_random_code_shape(rng):
    code = random_stabilizer_code(4, 3, rng)
    assert (code.n, code.s, code.m) == (4, 3, 1)
    assert len(stabilizer_masks(code)) == 8


@pytest.mark.parametrize("n", range(1, 7))
def test_batched_draw_matches_the_scalar_sampler(n):
    # the same codes, and the generator left in the same state, as drawing
    # each mask with its own scalar call
    for s in range(1, n + 1):
        for seed in range(20):
            batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(30):
                assert random_stabilizer_code(n, s, batched) == scalar_random_stabilizer_code(n, s, scalar)
            assert batched.bit_generator.state == scalar.bit_generator.state


def test_random_code_gives_up_after_100000_candidates():
    # a generator that only draws the zero mask never yields a generator
    class Zeros:
        def __init__(self):
            self.bit_generator, self.drawn = SimpleNamespace(state=None), 0

        def integers(self, low, high, size=None):
            self.drawn += 1 if size is None else size
            return 0 if size is None else np.zeros(size, dtype=np.int64)

    for sampler in (random_stabilizer_code, scalar_random_stabilizer_code):
        rng = Zeros()
        with pytest.raises(CodeError, match="could not sample"):
            sampler(3, 3, rng)
        assert rng.drawn == 200_000


def test_encoding_unitary_roundtrip(family_s2):
    for code in family_s2.codes[:3]:
        enc = encoding_unitary(code)
        d = 1 << code.n
        assert not enc.flags.writeable
        # the decoder, enc^dag, inverts encode on every (logical, syndrome) basis input
        assert np.allclose(enc.conj().T @ enc, np.eye(d), atol=1e-12)
        assert np.allclose(enc @ enc.conj().T, np.eye(d), atol=1e-12)


def test_encoding_unitary_eigenspaces(family_s3):
    code = family_s3.codes[0]
    enc = encoding_unitary(code)
    gens = [pauli_matrix(g) for g in code.generators]
    dm = 1 << code.m
    for y in range(1 << code.s):
        for l in range(dm):
            col = enc[:, y * dm + l]
            for i, g in enumerate(gens):
                sign = -1.0 if (y >> i) & 1 else 1.0
                assert np.allclose(g @ col, sign * col, atol=1e-10)


def test_encoding_displacement_moves_syndrome(family_s2):
    # applying a Pauli error to a syndrome-0 codeword and decoding leaves the
    # syndrome register exactly at the error's syndrome bits
    code = family_s2.codes[0]
    enc = encoding_unitary(code)
    dm, dy = 1 << code.m, 1 << code.s
    for e in list(enumerate_paulis(code.n))[1:]:
        em = pauli_matrix(e)
        sy = syndrome(code, e)
        for l in range(dm):
            word = enc[:, 0 * dm + l]
            decoded = enc.conj().T @ (em @ word)
            block = decoded.reshape(dy, dm)
            weights = np.linalg.norm(block, axis=1) ** 2
            assert weights[sy] == pytest.approx(1.0, abs=1e-10)


def test_encoding_rejects_degenerate_generators():
    # a StabilizerCode refuses dependent generators, so only a program fault
    # can hand the encoder some: an InvariantError, never a CodeError
    good = random_stabilizer_code(3, 2, np.random.default_rng(0))
    with pytest.raises(InvariantError, match="degenerate generator set"):
        # fabricate a "code" with dependent generators by dodging validation
        class Fake:
            n, s, m = 3, 2, 1
            generators = (good.generators[0], good.generators[0])

        encoding_unitary(Fake())


def test_cost_formulas_reference_values():
    qubits, key_bits = cost_formulas(1, 1)
    assert qubits == 2
    assert key_bits == pytest.approx(2 + 1 + np.log2(3.0))
    qubits, key_bits = cost_formulas(2, 3)
    assert qubits == 5
    assert key_bits == pytest.approx(4 + 3 + np.log2(9.0))
    for m in (1, 2, 3):
        for s in (1, 2, 3):
            assert cost_formulas(m, s)[0] - m == s
    with pytest.raises(CodeError):
        cost_formulas(0, 1)


def test_family_json_roundtrip(tmp_path, family_s2):
    path = tmp_path / "family.json"
    family_s2.save(path)
    loaded = PtcFamily.load(path)
    assert loaded.epsilon_verified == family_s2.epsilon_verified
    assert loaded.m == family_s2.m and loaded.s == family_s2.s
    assert verify_ptc(loaded.codes) == family_s2.epsilon_verified
    assert [tuple(g.to_text() for g in c.generators) for c in loaded.codes] == [
        tuple(g.to_text() for g in c.generators) for c in family_s2.codes
    ]


def test_family_hash_agrees_with_equality(tmp_path, family_s2):
    assert hash(family_s2) == hash((family_s2.codes, family_s2.epsilon_verified, family_s2.seed, family_s2.met_target))
    path = tmp_path / "family.json"
    family_s2.save(path)
    again = PtcFamily.load(path)
    assert again == family_s2 and hash(again) == hash(family_s2)
    other = PtcFamily(family_s2.codes[:1], family_s2.epsilon_verified)
    assert other != family_s2 and hash(other) != hash(family_s2)


def test_family_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"codes": "nope"}))
    with pytest.raises(CodeError):
        PtcFamily.load(path)


def test_load_parses_each_text_once_and_reads_the_file_every_time(tmp_path, family_s2):
    path = tmp_path / "family.json"
    family_s2.save(path)
    first = PtcFamily.load(path)
    # the same text gives the same frozen family, not a second parse
    assert PtcFamily.load(path) is first
    # an edited file is read again and gives the edited family
    payload = json.loads(path.read_text())
    payload["epsilon_verified"] = 0.5
    path.write_text(json.dumps(payload))
    edited = PtcFamily.load(path)
    assert edited.epsilon_verified == 0.5 and edited.codes == first.codes and edited is not first
    # a malformed text raises on every load: the cache keeps no exception
    path.write_text(json.dumps({"codes": "nope"}))
    for _ in range(2):
        with pytest.raises(CodeError):
            PtcFamily.load(path)
    family_s2.save(path)
    assert PtcFamily.load(path) is first


def _scalar_ptc_details(codes):
    """Reference loop: one `detects` call per (error, code), first maximum
    kept, as (missed fraction, label x << n | z)."""
    worst_count, worst = -1, None
    for e in list(enumerate_paulis(codes[0].n))[1:]:
        missed = sum(not detects(c, e) for c in codes)
        if missed > worst_count:
            worst_count, worst = missed, e
    return worst_count / len(codes), worst.x << worst.n | worst.z


def _array_ptc_details(codes):
    """``verify_ptc``'s count: (missed fraction, label) of its worst error."""
    return _worst_error(_missed_counts(codes), len(codes))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), data=st.data())
def test_array_sweep_matches_scalar_loop(seed, n, data):
    s = data.draw(st.integers(1, n))
    size = data.draw(st.integers(1, 10))
    rng = np.random.default_rng(seed)
    codes = [random_stabilizer_code(n, s, rng) for _ in range(size)]
    eps, worst = _array_ptc_details(codes)
    ref_eps, ref_worst = _scalar_ptc_details(codes)
    assert eps == ref_eps
    assert worst == ref_worst


@pytest.mark.parametrize(
    "n, s, size, seed",
    [
        (5, 1, 24, 1),
        (5, 2, 32, 2),
        (5, 3, 40, 3),
        (5, 4, 16, 4),
        (5, 5, 8, 5),  # m = 0: every count is 0, the first label is the worst
        (6, 6, 4, 6),  # m = 0 at n = 6
        (6, 3, 64, 7),  # the benchmark's family size
        (6, 5, 112, 8),  # 64 codes plus 48 repairs: the largest a search builds
    ],
)
def test_count_product_matches_scalar_loop_at_five_and_six_qubits(n, s, size, seed):
    rng = np.random.default_rng(seed)
    codes = [random_stabilizer_code(n, s, rng) for _ in range(size)]
    assert _array_ptc_details(codes) == _scalar_ptc_details(codes)


@pytest.mark.parametrize("n, s", [(1, 1), (3, 2), (6, 3), (6, 6)])
def test_code_labels_are_x_over_z(n, s):
    # each stored label splits into the X and Z halves of the generator built
    # from it, and writing those generators out and parsing them back gives
    # the same halves; a family (m >= 1) gives back the same labels
    rng = np.random.default_rng(n * 10 + s)
    codes = tuple(random_stabilizer_code(n, s, rng) for _ in range(8))
    for code in codes:
        assert code.labels == tuple((g.x << n) | g.z for g in code.generators)
        for g in code.generators:
            parsed = PauliString.from_text(g.to_text())
            assert (parsed.n, parsed.x, parsed.z) == (n, g.x, g.z)
    if s < n:
        again = PtcFamily.from_json(PtcFamily(codes, 1.0).to_json())
        assert [c.labels for c in again.codes] == [c.labels for c in codes]


def test_generator_text_parses_to_x_over_z():
    # qubit j at character j: x = 0b011 and z = 0b110, label x << 3 | z
    family = PtcFamily.from_json({"codes": [["xz:110|011"]], "epsilon_verified": 1.0})
    (code,) = family.codes
    assert (code.n, code.labels) == (3, (0b011 << 3 | 0b110,))
    (g,) = code.generators
    assert (g.x, g.z, g.to_text()) == (0b011, 0b110, "xz:110|011")
    assert family.to_json()["codes"] == [["xz:110|011"]]


def test_fixture_loads_and_saves_to_the_same_bytes(tmp_path):
    path = tmp_path / "again.json"
    PtcFamily.load(FIXTURE).save(path)
    assert path.read_bytes() == FIXTURE.read_bytes()


def test_a_code_whose_generator_texts_differ_in_length_is_refused():
    # read on the first text's 3 qubits, the second text would be X on qubit 1
    payload = {"codes": [["xz:100|000", "xz:0100|0000"]], "epsilon_verified": 1.0}
    with pytest.raises(CodeError, match="generator texts of one length, got lengths \\[3, 4\\]"):
        PtcFamily.from_json(payload)


@pytest.mark.parametrize(
    "field, declared, held",
    [("m", 7, 1), ("s", 9, 3), ("m", True, 1), ("s", 3.0, 3), ("schema", "qauthlab-ptc-family/2", "qauthlab-ptc-family/1")],
)
def test_a_declared_parameter_the_codes_disagree_with_is_refused(field, declared, held):
    # the fixture's codes are (1, 3); a file that says otherwise is refused,
    # not loaded as (1, 3) and written back with the codes' values
    payload = json.loads(FIXTURE.read_text())
    payload[field] = declared
    with pytest.raises(CodeError, match=re.escape(f"declares {field} = {declared!r}, but its codes give {held!r}")):
        PtcFamily.from_json(payload)
    # a file that leaves the field out still loads
    del payload[field]
    assert PtcFamily.from_json(payload) == PtcFamily.load(FIXTURE)


def test_a_family_of_mixed_code_sizes_is_refused():
    with pytest.raises(CodeError, match="family mixes code parameters"):
        PtcFamily((single(0, 0b11), StabilizerCode(3, (0b111 << 3,))), 1.0)
    with pytest.raises(CodeError, match="family mixes code parameters"):
        PtcFamily((StabilizerCode(3, (0b111 << 3,)), StabilizerCode(3, (0b111 << 3, 0b011))), 1.0)


@pytest.mark.parametrize("n, s, size", [(6, 3, 64), (6, 5, 64), (6, 1, 64), (6, 3, 1), (6, 6, 1), (4, 2, 1)])
@pytest.mark.parametrize("seed", range(3))
def test_missed_counts_match_the_int64_form(n, s, size, seed):
    # the float32 character sum over the stabilizer groups, from the stored
    # labels, against the int64 syndrome product over labels rebuilt from
    # the generators
    rng = np.random.default_rng(seed)
    codes = [random_stabilizer_code(n, s, rng) for _ in range(size)]
    got = _missed_counts(codes)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, int64_missed_counts(codes))


def test_cost_limit_keeps_the_character_sum_exact_in_float32():
    # the count's partial sums reach |codes| 2^s <= |codes| 2^n; float32
    # holds every whole number below 2^24 exactly. At each n the guard
    # admits, its largest family must stay below that
    n = 1
    while 4**n * 2 * n <= PTC_COST_LIMIT:
        largest = PTC_COST_LIMIT // 4**n - 2 * n
        assert 4**n * (2 * n + largest) <= PTC_COST_LIMIT < 4**n * (2 * n + largest + 1)
        assert largest * 2**n < 2**24, n
        n += 1
    assert n > PTC_MAX_N
    assert float(np.float32(2**24 - 1)) == 2**24 - 1 and float(np.float32(2**24 + 1)) != 2**24 + 1


def test_search_reproduces_the_committed_fixture():
    # search and verification end to end: the s = 3 benchmark family is what
    # ``qauthlab ptc --m 1 --s 3 --seed 1`` searches, code for code
    fixture = PtcFamily.load(FIXTURE)
    family = search_ptc(1, 3, ptc_epsilon_formula(1, 3), budget=200, seed=1)
    assert family.codes == fixture.codes
    assert family.epsilon_verified == fixture.epsilon_verified == verify_ptc(fixture.codes)
    assert family == fixture


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), data=st.data())
def test_the_detection_count_is_a_sum_of_one_code_counts(seed, n, data):
    # search_ptc grows a family's count by adding each new code's own count,
    # and accepts a code whose own count is 0 at the worst error
    s = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    a = [random_stabilizer_code(n, s, rng) for _ in range(data.draw(st.integers(1, 6)))]
    b = [random_stabilizer_code(n, s, rng) for _ in range(data.draw(st.integers(1, 6)))]
    np.testing.assert_array_equal(_missed_counts(a + b), _missed_counts(a) + _missed_counts(b))
    for code in a:
        one = _missed_counts([code])
        for e in enumerate_paulis(n):
            assert one[(e.x << n) | e.z] == (0 if detects(code, e) else 1)


# sha256 of the sorted-key JSON of families searched while search_ptc still
# recounted the whole family after every repair; the running count must find
# the same families, code for code
@pytest.mark.parametrize(
    "m, s, seed, target, budget, digest",
    [
        (1, 4, 1, None, 200, "33505bdc49d518841b70f55487c3290e7aadc0a19c4e8fcb36529ad08d6f6cb8"),
        (1, 4, 2, None, 200, "b9a59a2993e2a13b4aa88e01bf00ef3c1e107a96d5f6237db7aac5887c7f41b8"),
        (2, 2, 1, None, 200, "764c155805396e105d71b9c5fe2fc6bb36fe91a0a2cad65d8575a5856a87c0d1"),
        (2, 2, 2, None, 200, "76338dc4af2e43500c7f9bdea36ca158511a6eb7773ad8b26093cd13d9e909f0"),
        (2, 3, 1, None, 200, "fe80c2a124ca6a932b17a543d7e66fee790fa368667c95520e0aedb2403a7f69"),
        (2, 3, 2, None, 200, "f3f1e6c1b4d42b9ca3df5391690f0221514f99cfc8ee60d157d4ee216d2b1ccc"),
        (3, 3, 1, None, 200, "380cc6f282d972527c506eb0b6873c87859a3d5a130c4284ce72bdfb95466e56"),
        (3, 3, 2, None, 200, "779dc3d3d90ce9730a19244f481e4eaafb5185897f1204b7a26b4160dafd3c10"),
        # out of budget: eight trials of up to 48 repairs each, best family kept
        (1, 3, 1, 0.0, 8, "c9262df039b35c227b1d56b411c5a7fa19b46c4d266e15a0760c6cb3add765c2"),
    ],
)
def test_searched_families_are_pinned(m, s, seed, target, budget, digest):
    target = ptc_epsilon_formula(m, s) if target is None else target
    family = search_ptc(m, s, target, budget=budget, seed=seed)
    assert family.met_target == (target > 0)
    assert hashlib.sha256(json.dumps(family.to_json(), sort_keys=True).encode()).hexdigest() == digest


def test_worst_error_is_first_maximum_and_never_identity():
    # m = 0: every nontrivial error is flagged or a stabilizer, so every count
    # is 0 and the first nontrivial label (x=0, z=1) is the worst, not I
    codes = [StabilizerCode(1, (0b01,))] * 3
    assert _array_ptc_details(codes) == (0.0, 0b01)
    assert _scalar_ptc_details(codes) == (0.0, 0b01)


def test_verify_ptc_cost_limit_refuses_before_any_work(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started")

    # n = 10: 4^10 * (20 + 1) = 22020096 entries; n = 7 with 1011 codes: just over
    wide = StabilizerCode(10, (1,))
    narrow = StabilizerCode(7, (1,))
    with monkeypatch.context() as patch:
        patch.setattr(codes_module.np, "arange", no_sweep)
        for family, cost in (([wide], 22020096), ([narrow] * 1011, 16793600)):
            with pytest.raises(CodeError, match=f"= {cost} exceeds the limit 2\\^24 = 16777216"):
                verify_ptc(family)
    assert 4**7 * (14 + 1010) == PTC_COST_LIMIT
    # admitted: the benchmark's n = 6, 64-code families (about 2^18) and the
    # largest family a ptc search at n <= 6 builds (64 codes plus 48 repairs)
    assert 4**6 * (12 + 64 + 48) <= PTC_COST_LIMIT
    rng = np.random.default_rng(7)
    assert 0.0 <= verify_ptc([random_stabilizer_code(6, 5, rng) for _ in range(64)]) <= 1.0
