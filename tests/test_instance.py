import math

import numpy as np
import pytest

from helpers import bundled_trip_instances, complete_uniform, exclusive_pairs, micro_type_count, uniform_instance
from sparsematch.instance import (
    DemandType,
    RealizedGraph,
    StochasticInstance,
    instance_from_json,
    instance_to_json,
    realize,
)
from sparsematch.rng import RngStream


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValueError, match="sum"):
        StochasticInstance(
            resources=("a", "b"),
            types=(DemandType(0.5, (0,)), DemandType(0.4, (1,))),
            arrivals=3,
        )


def test_duplicate_resources_rejected():
    with pytest.raises(ValueError, match="unique"):
        StochasticInstance(resources=("a", "a"), types=(DemandType(1.0, (0,)),), arrivals=1)


def test_compatibility_must_be_sorted_and_in_range():
    with pytest.raises(ValueError, match="ascending"):
        DemandType(1.0, (1, 0))
    with pytest.raises(ValueError, match="references resource"):
        StochasticInstance(resources=("a",), types=(DemandType(1.0, (0, 1)),), arrivals=1)


@pytest.mark.parametrize("ids", [(True, 2), (1.0,), (0, 2.5), ("3",), (np.bool_(False),), (np.float64(1.0),), (None,)])
def test_compatibility_ids_must_be_integers(ids):
    with pytest.raises(ValueError, match="not an integer"):
        DemandType(1.0, ids)


def test_compatibility_ids_may_be_python_or_numpy_integers():
    t = DemandType(1.0, [np.int64(1), np.uint8(2), 3, np.intp(4)])
    assert t.compatible == (1, 2, 3, 4)
    assert all(type(i) is int for i in t.compatible)


def test_compat_masks_hold_each_types_compatibility_set():
    from sparsematch.generators import FAMILIES

    for inst in [family(100) for family in FAMILIES.values()] + bundled_trip_instances():
        masks = inst._compat_masks
        assert len(masks) == inst.type_count
        for t, mask in zip(inst.types, masks):
            assert [i for i in range(inst.resource_count) if mask >> i & 1] == list(t.compatible)
            assert mask >> inst.resource_count == 0


def test_negative_resource_index_rejected():
    with pytest.raises(ValueError, match="references resource"):
        StochasticInstance(resources=("a", "b"), types=(DemandType(1.0, (-1, 0)),), arrivals=1)


def test_empty_compatibility_is_a_valid_type():
    inst = StochasticInstance(resources=("a",), types=(DemandType(1.0, ()),), arrivals=1)
    assert inst.types[0].compatible == ()
    assert realize(inst, RngStream(1)).edges_for(0) == ()


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
    assert [graph.edges_for(i) for i in range(3)] == [(0,), (0,), (0,)]


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
    assert all(len(graph.edges_for(i)) == 12 for i in range(graph.n))


def test_realize_reproducible():
    inst = exclusive_pairs(20)
    a = realize(inst, RngStream(11, 5))
    b = realize(inst, RngStream(11, 5))
    assert a.type_ids == b.type_ids


def test_realized_edges_match_type_compatibility_exactly():
    inst = uniform_instance([(0, 2), (1,), (0, 1, 2)], arrivals=50)
    graph = realize(inst, RngStream(2))
    assert all(type(j) is int and 0 <= j < inst.type_count for j in graph.type_ids)
    for i, j in enumerate(graph.type_ids):
        assert graph.edges_for(i) == inst.types[j].compatible


def test_type_frequency_matches_probabilities():
    # 10000 realizations of a small instance: per-type draw counts stay
    # within 4 sigma of the binomial around p_j
    inst = StochasticInstance(
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
