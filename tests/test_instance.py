import math

import numpy as np
import pytest

from helpers import complete_uniform, exclusive_pairs, micro_type_count, uniform_instance
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
            types=(DemandType(0, 0.5, (0,)), DemandType(1, 0.4, (1,))),
            arrivals=3,
        )


def test_duplicate_resources_rejected():
    with pytest.raises(ValueError, match="unique"):
        StochasticInstance(resources=("a", "a"), types=(DemandType(0, 1.0, (0,)),), arrivals=1)


def test_compatibility_must_be_sorted_and_in_range():
    with pytest.raises(ValueError, match="ascending"):
        DemandType(0, 1.0, (1, 0))
    with pytest.raises(ValueError, match="references resource"):
        StochasticInstance(resources=("a",), types=(DemandType(0, 1.0, (0, 1)),), arrivals=1)


def test_negative_resource_index_rejected():
    with pytest.raises(ValueError, match="references resource"):
        StochasticInstance(resources=("a", "b"), types=(DemandType(0, 1.0, (-1, 0)),), arrivals=1)


def test_empty_compatibility_rejected_unless_allowed():
    with pytest.raises(ValueError, match="empty"):
        StochasticInstance(resources=("a",), types=(DemandType(0, 1.0, ()),), arrivals=1)
    inst = StochasticInstance(
        resources=("a",), types=(DemandType(0, 1.0, ()),), arrivals=1, allow_empty_types=True
    )
    assert inst.types[0].compatible == ()


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
        types=(DemandType(0, 0.6, (0,)), DemandType(1, 0.3, (1,)), DemandType(2, 0.1, (2,))),
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
    from pathlib import Path

    from sparsematch.generators import EmptyWindow, build_nyc_instance, ingest_trips
    from sparsematch.harness import default_interval_starts

    data = Path(__file__).resolve().parents[1] / "data"
    trips, zones = ingest_trips(str(data / "nyc_sample_trips.csv"), str(data / "nyc_sample_zones.csv"))
    built = 0
    for j, start in enumerate(default_interval_starts(trips)):
        try:
            inst, _ = build_nyc_instance(trips, zones, start, RngStream(0).substream("supply", j))
        except EmptyWindow:
            continue
        built += 1
        assert instance_from_json(instance_to_json(inst)) == inst, start
    assert built >= 3
