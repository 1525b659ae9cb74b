import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    bundled_trip_instances,
    complete_uniform,
    exclusive_pairs,
    instance_check_oracle,
    micro_type_count,
    records_instance,
    type_masks_oracle,
    uniform_instance,
)
from sparsematch import instance as instance_module
from sparsematch.generators import FAMILIES, gen_kvv_triangular
from sparsematch.instance import (
    PROB_TOL,
    DemandType,
    RealizedGraph,
    StochasticInstance,
    instance_from_json,
    instance_to_json,
    mask_ints,
    realize,
)
from sparsematch.rng import RngStream


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValueError, match="sum"):
        records_instance(
            resources=("a", "b"),
            types=(DemandType(0.5, (0,)), DemandType(0.4, (1,))),
            arrivals=3,
        )


def test_duplicate_resources_rejected():
    with pytest.raises(ValueError, match="unique"):
        records_instance(resources=("a", "a"), types=(DemandType(1.0, (0,)),), arrivals=1)


def test_compatibility_must_be_sorted_and_in_range():
    with pytest.raises(ValueError, match="ascending"):
        records_instance(resources=("a", "b"), types=(DemandType(1.0, (1, 0)),), arrivals=1)
    with pytest.raises(ValueError, match="references resource"):
        records_instance(resources=("a",), types=(DemandType(1.0, (0, 1)),), arrivals=1)


@pytest.mark.parametrize("ids", [(True, 2), (1.0,), (0, 2.5), ("3",), (np.bool_(False),), (np.float64(1.0),), (None,)])
def test_compatibility_ids_must_be_integers(ids):
    """Rejected where they enter: Python values in an instance file by the
    reader, numpy values as an ids array of no integer dtype by the constructor."""
    if isinstance(ids[0], np.generic):
        with pytest.raises(ValueError, match="not an integer"):
            StochasticInstance(tuple("abcd"), [0, len(ids)], np.array(ids), [1.0], 1)
    else:
        doc = {"resources": list("abcd"), "types": [{"p": 1.0, "compatible": list(ids)}], "n": 1}
        with pytest.raises(ValueError, match="expected a JSON integer"):
            instance_from_json(json.dumps(doc))


def test_compatibility_ids_may_be_python_or_numpy_integers():
    """Python ints from an instance file, or an ids array of any integer dtype;
    the types view holds Python ints either way."""
    doc = {"resources": list("abcde"), "types": [{"p": 1.0, "compatible": [1, 2, 3, 4]}], "n": 1}
    instances = [instance_from_json(json.dumps(doc))]
    instances += [StochasticInstance(tuple("abcde"), [0, 4], np.array([1, 2, 3, 4], dtype=dtype), [1.0], 1)
                  for dtype in (np.int64, np.uint8, np.int32, np.uint64)]
    for inst in instances:
        assert inst.types[0].compatible == (1, 2, 3, 4)
        assert all(type(i) is int for i in inst.types[0].compatible)


def test_compat_masks_hold_each_types_compatibility_set():
    from sparsematch.generators import FAMILIES

    for inst in [family(100) for family in FAMILIES.values()] + bundled_trip_instances():
        masks = inst._compat_masks
        assert len(masks) == inst.type_count
        for t, mask in zip(inst.types, masks):
            assert [i for i in range(inst.resource_count) if mask >> i & 1] == list(t.compatible)
            assert mask >> inst.resource_count == 0


def test_type_masks_equal_the_one_shot_build_in_bounded_blocks(monkeypatch):
    inst = gen_kvv_triangular(2000)
    rank = np.random.default_rng(5).permutation(inst.resource_count)
    tracemalloc.start()
    try:
        masks = inst.type_masks(rank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks == type_masks_oracle(inst, rank)
    assert inst.type_masks() == type_masks_oracle(inst)
    # one 2000 x 2000 matrix with every pair's temporaries at once peaked at 28 MB
    assert peak <= 10e6, f"peak {peak / 1e6:.1f} MB"
    # blocks down to one type each, a block of types without pairs, and no resources at all
    instances = [family(40) for family in FAMILIES.values()] + bundled_trip_instances()
    instances += [records_instance(("a", "b"), (DemandType(0.5, ()), DemandType(0.2, ()), DemandType(0.3, (1,))), 2),
                  records_instance((), (DemandType(1.0, ()),), 1)]
    gen = np.random.default_rng(6)
    for cells in (1, 7, 40, 300):
        monkeypatch.setattr(instance_module, "MASK_CELLS", cells)
        for inst in instances:
            rank = gen.permutation(inst.resource_count)
            assert inst.type_masks(rank) == type_masks_oracle(inst, rank)
            assert inst.type_masks() == type_masks_oracle(inst)


def test_type_masks_of_one_relabeling_equal_the_oracle_in_blocks_of_any_size(monkeypatch):
    # one relabeling's masks, whether a block holds one type, some or all of them
    instances = [family(n) for n in (40, 100) for family in FAMILIES.values()] + bundled_trip_instances()
    instances += [records_instance(("a", "b"), (DemandType(0.5, ()), DemandType(0.2, ()), DemandType(0.3, (1,))), 2),
                  records_instance((), (DemandType(1.0, ()),), 1)]
    gen = np.random.default_rng(7)
    for cells in (1, 300, 4000, instance_module.MASK_CELLS):
        monkeypatch.setattr(instance_module, "MASK_CELLS", cells)
        for inst in instances:
            for _ in range(3):
                rank = gen.permutation(inst.resource_count)
                masks = inst.type_masks(rank)
                assert masks == type_masks_oracle(inst, rank)
                assert len(masks) == inst.type_count


def test_mask_ints_read_packed_rows_in_any_memory_layout():
    # np.packbits of a column-gathered bool matrix comes back F-ordered
    member = np.random.default_rng(8).random((37, 100)) < 0.3
    perm = np.random.default_rng(9).permutation(100)
    f_ordered = np.packbits(member[:, perm], axis=1, bitorder="little")
    c_ordered = np.packbits(member, axis=1, bitorder="little")
    assert f_ordered.flags.f_contiguous and not f_ordered.flags.c_contiguous
    for rows in (f_ordered, c_ordered[:, ::2], c_ordered[::3], np.asfortranarray(c_ordered[:, :0])):
        assert list(mask_ints(rows)) == [int.from_bytes(row.tobytes(), "little") for row in rows]


def test_negative_resource_index_rejected():
    with pytest.raises(ValueError, match="references resource"):
        records_instance(resources=("a", "b"), types=(DemandType(1.0, (-1, 0)),), arrivals=1)


def test_empty_compatibility_is_a_valid_type():
    inst = records_instance(resources=("a",), types=(DemandType(1.0, ()),), arrivals=1)
    assert inst.types[0].compatible == ()
    graph = realize(inst, RngStream(1))
    assert graph.instance.row(graph.type_ids[0]) == []


# one matchable type and one type with no compatible resource
EMPTY_TYPE_DOC = {
    "resources": ["a", "b"],
    "types": [{"p": 0.5, "compatible": [0, 1]}, {"p": 0.5, "compatible": []}],
    "n": 2,
}


def test_json_with_empty_type_loads_and_ignores_the_legacy_key():
    import json

    inst = instance_from_json(json.dumps(EMPTY_TYPE_DOC))
    assert [t.compatible for t in inst.types] == [(0, 1), ()]
    legacy = instance_from_json(json.dumps({**EMPTY_TYPE_DOC, "allow_empty_types": True}))
    assert legacy == inst
    assert instance_from_json(instance_to_json(inst)) == inst


def test_synth_runs_on_an_instance_with_an_empty_type(tmp_path):
    import json

    from sparsematch.cli import main

    path = tmp_path / "inst.json"
    path.write_text(json.dumps(EMPTY_TYPE_DOC))
    out = tmp_path / "rows.csv"
    assert main(["synth", "--instance", str(path), "--trials", "5", "--mc", "5",
                 "--strategies", "offline,kvv,mgs,random:1,varopt:1", "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 1 + 5


def test_realize_degenerate_single_type():
    inst = uniform_instance([(0,)], arrivals=3)
    graph = realize(inst, RngStream(1))
    assert graph.type_ids == (0, 0, 0)
    assert [graph.instance.row(graph.type_ids[i]) for i in range(3)] == [[0], [0], [0]]


def test_realize_binomial_concentration():
    # two types at p = 0.5 each: count of type 0 within 3 sigma of n/2
    inst = uniform_instance([(0,), (1,)], arrivals=10000)
    graph = realize(inst, RngStream(7))
    count0 = sum(1 for j in graph.type_ids if j == 0)
    sigma = math.sqrt(10000 * 0.25)
    assert abs(count0 - 5000) < 3 * sigma


def test_realize_complete_uniform_degrees():
    inst = complete_uniform(12)
    graph = realize(inst, RngStream(3))
    assert all(len(graph.instance.row(graph.type_ids[i])) == 12 for i in range(graph.n))


def test_realize_reproducible():
    inst = exclusive_pairs(20)
    a = realize(inst, RngStream(11, 5))
    b = realize(inst, RngStream(11, 5))
    assert a.type_ids == b.type_ids


def test_realized_edges_match_type_compatibility_exactly():
    inst = uniform_instance([(0, 2), (1,), (0, 1, 2)], arrivals=50)
    graph = realize(inst, RngStream(2))
    assert all(type(j) is int and 0 <= j < inst.type_count for j in graph.type_ids)
    for j in graph.type_ids:
        assert tuple(graph.instance.row(j)) == inst.types[j].compatible


def test_type_frequency_matches_probabilities():
    # 10000 realizations of a small instance: per-type draw counts stay
    # within 4 sigma of the binomial around p_j
    inst = records_instance(
        resources=("a", "b", "c"),
        types=(DemandType(0.6, (0,)), DemandType(0.3, (1,)), DemandType(0.1, (2,))),
        arrivals=5,
    )
    base = RngStream(13)
    counts = np.zeros(3, dtype=int)
    for t in range(10000):
        graph = realize(inst, base.substream(t))
        counts += np.bincount(graph.type_ids, minlength=3)
    draws = 50000
    for j, p in enumerate((0.6, 0.3, 0.1)):
        sigma = math.sqrt(draws * p * (1 - p))
        assert abs(counts[j] - draws * p) < 4 * sigma


def test_micro_type_count():
    inst = uniform_instance([(0,)], arrivals=3)
    graph = realize(inst, RngStream(1))
    assert micro_type_count(graph) == {0: 3}
    empty = RealizedGraph(inst, ())
    assert micro_type_count(empty) == {}


def test_micro_type_count_conserves_n():
    inst = complete_uniform(9)
    graph = realize(inst, RngStream(4))
    assert sum(micro_type_count(graph).values()) == graph.n


def test_json_round_trip():
    inst = uniform_instance([(0, 1), (2,)], arrivals=7)
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert back.resources == inst.resources
    assert back.arrivals == 7
    assert [t.compatible for t in back.types] == [t.compatible for t in inst.types]
    assert all(abs(a.probability - b.probability) < 1e-15 for a, b in zip(back.types, inst.types))
    assert "allow_empty_types" not in text


def test_json_round_trip_every_bundled_trip_interval():
    # trip instances may carry structurally unmatchable types
    instances = bundled_trip_instances()
    assert len(instances) >= 3
    for inst in instances:
        assert instance_from_json(instance_to_json(inst)) == inst



def instance_inputs(st):
    """A hypothesis strategy of (resources, (probability, ids) types, arrival
    count), mostly valid.  Ids come in every kind: in range, negative, >= the
    resource count, bools, floats, numpy integers, ints beyond int64 and
    values that are no number, some in rows that are valid but for their
    ids' type; probability sums sit at the edge of ``PROB_TOL``."""

    @st.composite
    def inputs(draw):
        right = draw(st.integers(0, 6))
        resources = [f"r{i}" for i in range(right)]
        if right > 1 and draw(st.integers(0, 9)) == 0:
            resources[-1] = resources[0]
        in_range = st.lists(st.integers(0, max(0, right - 1)), max_size=right, unique=True)
        odd = st.one_of(
            st.integers(-2, right + 1), st.booleans(), st.floats(-1.0, right + 1.0),
            st.sampled_from([np.int64(0), np.uint8(1), np.intp(2), np.int32(-1)]),
            st.integers(2**62, 2**70), st.integers(-(2**70), -(2**62)),
            st.sampled_from([None, "1", np.bool_(True), np.float64(1.0), 1.0]))
        mixed = st.lists(st.one_of(odd, odd, st.integers(0, max(0, right - 1))), max_size=5)
        disguise = st.sampled_from([float, str, np.int64, lambda i: bool(i) if i < 2 else i])
        disguised = st.builds(lambda row, kind: [kind(i) for i in sorted(row)], in_range, disguise)
        rows = draw(st.lists(st.one_of(in_range.map(sorted), in_range, mixed, disguised), max_size=5))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(rows), max_size=len(rows)))
        probs = [w / sum(weights) for w in weights]
        if probs:
            probs[-1] += draw(st.sampled_from([0.0, 0.0, PROB_TOL, -PROB_TOL, 0.999 * PROB_TOL,
                                               -1.001 * PROB_TOL, 1e-6, -1e-6]))
            if draw(st.integers(0, 7)) == 0:
                probs[draw(st.integers(0, len(probs) - 1))] = draw(st.sampled_from(
                    [-0.1, 1.5, math.nan, -0.0, 1.0 + PROB_TOL, 1.0 + 2 * PROB_TOL]))
        return resources, list(zip(probs, rows)), draw(st.integers(-1, 3))

    return inputs()


def outcome(build):
    """What ``build()`` returns, or the message of the ValueError it raises."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def test_vectorized_check_accepts_and_rejects_as_the_per_type_oracle(tmp_path):
    """The constructor, where every id is an int64, accepts exactly the inputs
    the per-type Python checks accept, with the same rows, and rejects the
    others with the same message.  The JSON reader, on every input a file can
    hold, accepts exactly the same inputs with the same rows; where both
    reject, it raises a ValueError too."""
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path / "instance.json"

    def rows(inst):
        return [(t.probability, t.compatible) for t in inst.types]

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hypothesis.given(instance_inputs(hypothesis.strategies))
    def check(case):
        resources, types, arrivals = case
        expected = outcome(lambda: instance_check_oracle(resources, types, arrivals))
        flat = [i for _, ids in types for i in ids]
        if all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) and -2**63 <= i < 2**63 for i in flat):
            offsets = np.cumsum([0, *(len(ids) for _, ids in types)])
            got = outcome(lambda: StochasticInstance(
                resources, offsets, np.array(flat, dtype=np.int64), [p for p, _ in types], arrivals))
            if isinstance(expected, str):
                assert got == expected
            else:
                assert rows(got) == expected
        if all(type(i) in (int, float, bool, str, type(None)) for i in flat):
            path.write_text(json.dumps({"resources": resources, "n": arrivals,
                                        "types": [{"p": p, "compatible": list(ids)} for p, ids in types]}))
            if isinstance(expected, str):
                with pytest.raises(ValueError):
                    instance_from_json(path.read_text())
            else:
                assert rows(instance_from_json(path.read_text())) == expected

    check()


@pytest.mark.parametrize("ids", [np.array([0.0]), np.array([True]), np.array(["0"])])
def test_store_ids_must_have_an_integer_dtype(ids):
    with pytest.raises(ValueError, match="not an integer"):
        StochasticInstance(("a",), [0, 1], ids, [1.0], 1)


def test_store_is_read_only_and_types_are_tuples_of_ints():
    inst = StochasticInstance(("a", "b"), [0, 2, 2], np.array([0, 1]), [0.5, 0.5], 2)
    assert inst.offsets.tolist() == [0, 2, 2] and inst.ids.tolist() == [0, 1] and inst.probs.tolist() == [0.5, 0.5]
    assert (inst.offsets.dtype, inst.ids.dtype, inst.probs.dtype) == (np.int32, np.int32, np.float64)
    for array in (inst.offsets, inst.ids, inst.probs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert inst.types == (DemandType(0.5, (0, 1)), DemandType(0.5, ()))
    assert all(type(i) is int for i in inst.types[0].compatible)


def test_lp_synth_path_never_builds_the_types_view(tmp_path, monkeypatch):
    """Set-up and trials of ``synth --weights lp --strategies offline,varopt:5``
    (the benchmark's large-lp unit, at a small n) read the store alone."""
    from sparsematch.cli import main

    monkeypatch.setattr(StochasticInstance, "types", property(lambda self: pytest.fail("types view built")))
    for family in ("block", "triangular", "bahmani", "tsm"):
        assert main(["synth", "--family", family, "--n", "40", "--trials", "3", "--weights", "lp",
                     "--strategies", "offline,varopt:5", "--out", str(tmp_path / f"{family}.csv")]) == 0


DATA = Path(__file__).resolve().parents[1] / "data"


@pytest.mark.parametrize("args", [["synth", "--family", family, "--n", "40"]
                                  for family in ("block", "triangular", "bahmani", "tsm")]
                         + [["nyc", "--trips", str(DATA / "nyc_sample_trips.csv"),
                             "--zones", str(DATA / "nyc_sample_zones.csv")]],
                         ids=["block", "triangular", "bahmani", "tsm", "nyc"])
def test_default_strategies_never_build_the_types_view(args, tmp_path, monkeypatch):
    """Set-up and trials of every default strategy, kvv's ranking and the mgs
    uniform fallback included, read the store alone."""
    from sparsematch.cli import main

    monkeypatch.setattr(StochasticInstance, "types", property(lambda self: pytest.fail("types view built")))
    assert main([*args, "--trials", "3", "--mc", "5", "--out", str(tmp_path / "rows.csv")]) == 0
