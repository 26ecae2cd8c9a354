import numpy as np
import pytest

from qauthlab.adversary import AttackDescriptor
from qauthlab.hybrid import (
    Branch,
    FinalState,
    HybridState,
    InvariantError,
    key_sweep,
    record_drop,
    record_get,
)
from qauthlab.protocols import _sweep_pieces
from qauthlab.qmath import (
    RegisterError,
    StateVector,
    max_entangled_vector,
    trace_norm,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def phi_state():
    return StateVector(max_entangled_vector(2), (("A", 2), ("B", 2)))


def test_probability_bookkeeping():
    h = HybridState.from_pure(phi_state())
    assert h.total_probability() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        HybridState((("A", 2),), [Branch(0.5, (), np.array([1, 0]))])
    with pytest.raises(RegisterError):
        HybridState((("A", 2),), [Branch(1.0, (), np.array([1, 0, 0]))])


def test_measure_splits_and_records():
    h = HybridState.from_pure(phi_state()).measure("A", "a")
    assert len(h.branches) == 2
    for br in h.branches:
        assert br.probability == pytest.approx(0.5)
        a = record_get(br.record, "a")
        assert np.allclose(br.vector, np.eye(2)[a])
    assert h.registers == (("B", 2),)


def test_apply_by_record():
    h = HybridState.from_pure(phi_state()).measure("A", "a")
    flipped = h.apply_by_record(lambda rec: X if record_get(rec, "a") == 1 else None, ("B",))
    for br in flipped.branches:
        assert np.allclose(br.vector, np.eye(2)[0])  # both collapse to |0>


def test_apply_reorders_to_named_axes():
    # applying a two-register operator with names out of layout order permutes
    # the layout to match the operator's index convention
    h = HybridState.from_pure(phi_state())
    swapped = h.apply(np.eye(4), ("B", "A"))
    assert [name for name, _ in swapped.registers] == ["B", "A"]
    np.testing.assert_allclose(swapped.branches[0].vector, h.branches[0].vector)


def test_isometry_grows_register():
    h = HybridState.from_pure(phi_state())
    iso = np.zeros((4, 2), dtype=complex)
    iso[0, 0] = iso[3, 1] = 1.0  # |b> -> |b>|b>
    grown = h.apply_isometry(iso, ("B",), (("B", 2), ("E", 2)))
    assert grown.registers == (("A", 2), ("B", 2), ("E", 2))
    vec = grown.branches[0].vector
    expect = np.zeros(8)
    expect[0] = expect[7] = 1 / np.sqrt(2)  # |000> + |111>
    np.testing.assert_allclose(vec, expect)


def test_split_register_reads_c_order():
    h = HybridState.from_pure(phi_state())
    split = h.split_register("A", (("A1", 1), ("A2", 2)))
    assert split.registers == (("A1", 1), ("A2", 2), ("B", 2))
    np.testing.assert_allclose(split.branches[0].vector, h.branches[0].vector)
    with pytest.raises(RegisterError):
        h.split_register("A", (("A1", 3),))


def test_instrument_requires_consistent_outputs():
    h = HybridState.from_pure(phi_state())
    ops = [
        (0, np.eye(2), (("B", 2),)),
        (1, np.eye(2), (("Bx", 2),)),
    ]
    with pytest.raises(RegisterError):
        h.apply_instrument(ops, ("B",), "v")


def test_finalize_drop_and_mix():
    h = HybridState.from_pure(phi_state())
    final = h.finalize(lambda rec: (rec, ("B",), ("A",)))
    block = final.blocks[()]
    assert block.registers == (("A", 2),)
    np.testing.assert_allclose(block.matrix, np.eye(2) / 2, atol=1e-14)

    kept = h.finalize()
    mat = kept.blocks[()].matrix
    phi = max_entangled_vector(2)
    np.testing.assert_allclose(mat, np.outer(phi, phi.conj()), atol=1e-14)


def test_finalize_sorts_registers():
    sv = StateVector(np.kron([1, 0], [0, 1]).astype(complex), (("Zz", 2), ("Aa", 2)))
    final = HybridState.from_pure(sv).finalize()
    assert final.blocks[()].registers == (("Aa", 2), ("Zz", 2))
    # |0> on Zz, |1> on Aa -> sorted layout puts Aa first: index 1*2+0=2
    expect = np.zeros((4, 4))
    expect[2, 2] = 1.0
    np.testing.assert_allclose(final.blocks[()].matrix, expect, atol=1e-14)


def test_distance_decomposes_and_embeds():
    h1 = HybridState.from_pure(phi_state()).measure("A", "a")
    h2 = HybridState.from_pure(phi_state()).apply(X, ("A",)).measure("A", "a")
    f1, f2 = h1.finalize(), h2.finalize()
    d = f1.distance(f2)
    # per-record distance equals the distance of the dense block-diagonal
    # embedding over a shared record order
    order = f1.records()
    emb = trace_norm(f1.embed(order) - f2.embed(order))
    assert d == pytest.approx(emb, abs=1e-12)
    # orthogonal conditional states with equal weights: each record
    # contributes 2 * 0.5, and there are two records
    assert d == pytest.approx(2.0)


def test_distance_counts_missing_records():
    h = HybridState.from_pure(phi_state()).measure("A", "a")
    full = h.finalize()
    only0 = FinalState(
        {
            rec: (blk.registers, blk.matrix)
            for rec, blk in full.blocks.items()
            if record_get(rec, "a") == 0
        }
    )
    assert full.distance(only0) == pytest.approx(0.5)


def test_record_helpers():
    rec = (("a", 1), ("b", "x"))
    assert record_get(rec, "b") == "x"
    assert record_drop(rec, ("a",)) == (("b", "x"),)
    with pytest.raises(KeyError):
        record_get(rec, "zz")


def test_map_records_merges_blocks():
    h = HybridState.from_pure(phi_state()).measure("A", "a")
    final = h.finalize().map_records(lambda rec: ())
    assert list(final.blocks) == [()]
    assert final.blocks[()].weight == pytest.approx(1.0)


def test_conditional_where():
    h = HybridState.from_pure(phi_state()).measure("A", "a")
    final = h.finalize()
    blk = final.conditional_where(lambda rec: True)
    assert blk.weight == pytest.approx(1.0)
    cond = blk.conditional()
    assert abs(cond.matrix.trace() - 1.0) < 1e-12
    with pytest.raises(KeyError):
        final.conditional_where(lambda rec: False)


def _verdict_plan(fields):
    return (("verdict", fields["verdict"]),), (), ()


def test_key_sweep_total_weight_and_records(family_s1):
    encoders, attack = _sweep_pieces(family_s1, AttackDescriptor("fixed_pauli", x=1, label="X0"))
    base = StateVector(max_entangled_vector(2), (("A", 2), ("B0", 2)))
    final = key_sweep(encoders, attack, base, "B0", _verdict_plan, ())
    assert final.total_weight() == pytest.approx(1.0, abs=1e-12)
    # X on qubit 0 anticommutes with ZZ and YY: two codes in three reject
    assert final.weight((("verdict", "REJ"),)) == pytest.approx(2.0 / 3.0, abs=1e-12)
    detailed = key_sweep(
        encoders, attack, base, "B0", lambda f: ((("y", f["y"]), ("ysyn", f["ysyn"])), (), ()),
        ("y", "ysyn"),
    )
    # the received syndrome is an explicit field; zero-probability slices are pruned
    assert len(detailed.blocks) == 4


def test_key_sweep_rejects_non_isometric_attack(family_s1):
    encoders, (iso, names, out_regs) = _sweep_pieces(family_s1, AttackDescriptor("identity"))
    base = StateVector(max_entangled_vector(2), (("A", 2), ("B0", 2)))
    with pytest.raises(InvariantError, match="key sweep: final state total weight"):
        key_sweep(encoders, (1.1 * iso, names, out_regs), base, "B0", _verdict_plan, ())
    assert not issubclass(InvariantError, ValueError)
