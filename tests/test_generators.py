import logging
import math
import tracemalloc
from datetime import datetime
from itertools import chain

import numpy as np
import pytest

from helpers import FAMILY_ORACLES, bundled_trip_instances, nyc_instance_oracle
from sparsematch import generators
from sparsematch.generators import (
    FAMILIES,
    EmptyWindow,
    ZoneModel,
    build_nyc_instance,
    gen_bahmani,
    gen_kvv_triangular,
    gen_partitioned_block,
    gen_tsm_tight,
    ingest_trips,
)
from sparsematch.rng import RngStream


def edge_count(instance) -> int:
    return sum(len(t.compatible) for t in instance.types)


def block_expected_edges(n):
    b1, b2 = 3 * n // 10, 4 * n // 10
    return n + b1 * b2 + b2 * (n - b1 - b2)


def bahmani_expected_edges(n):
    m = int(math.floor(n / (1 + 1 / math.e) + 0.5))
    a1 = n - m
    return m * (1 + a1) + a1 * m


def tsm_expected_edges(n):
    c = n // 4
    return c * ((2 + c) + 2 + 2) + c * c


@pytest.mark.parametrize("n", [10, 20, 100])
def test_block_edge_count(n):
    inst = gen_partitioned_block(n)
    assert inst.resource_count == n
    assert inst.type_count == n
    assert inst.arrivals == n
    assert edge_count(inst) == block_expected_edges(n)


def test_block_small_example():
    # n=10: blocks (3,4,3); edges = 10 + 3*4 + 4*3 = 34
    assert edge_count(gen_partitioned_block(10)) == 34


def test_block_every_type_nonempty():
    inst = gen_partitioned_block(20)
    assert all(t.compatible for t in inst.types)


def test_block_bad_size():
    with pytest.raises(ValueError, match="needs n divisible by 10, got 15"):
        gen_partitioned_block(15)


@pytest.mark.parametrize("n", [1, 3, 20, 100])
def test_triangular_structure(n):
    inst = gen_kvv_triangular(n)
    assert edge_count(inst) == n * (n + 1) // 2
    assert inst.types[n - 1].compatible == (n - 1,)
    assert inst.types[0].compatible == tuple(range(n))


@pytest.mark.parametrize("n", [10, 20, 100])
def test_bahmani_structure(n):
    inst = gen_bahmani(n)
    m = int(math.floor(n / (1 + 1 / math.e) + 0.5))
    assert inst.resource_count == n
    assert inst.type_count == n
    assert inst.arrivals == n
    assert edge_count(inst) == bahmani_expected_edges(n)
    # I1 types: private partner plus the whole A1 block
    assert inst.types[0].compatible == tuple(sorted((0,) + tuple(range(m, n))))
    # I2 types: all of A2
    assert inst.types[n - 1].compatible == tuple(range(m))


def test_bahmani_at_100_splits_73_27():
    inst = gen_bahmani(100)
    i2 = [t for t in inst.types if t.compatible == tuple(range(73))]
    assert len(i2) == 27


@pytest.mark.parametrize("n", [4, 20, 100])
def test_tsm_structure(n):
    c = n // 4
    inst = gen_tsm_tight(n)
    assert inst.resource_count == n
    assert inst.type_count == n
    assert inst.arrivals == n
    assert edge_count(inst) == tsm_expected_edges(n)
    # cycle types: x sees u, v and the K block; y sees v, w; z sees u, w
    block = tuple(range(3 * c, 4 * c))
    assert inst.types[0].compatible == tuple(sorted((0, 1) + block))
    assert inst.types[1].compatible == (1, 2)
    assert inst.types[2].compatible == (0, 2)
    # L types see every w node
    assert inst.types[3 * c].compatible == tuple(3 * i + 2 for i in range(c))


def test_tsm_minimum_size_edges():
    # one cycle: 6 cycle edges plus one K-block edge and one L-block edge
    assert edge_count(gen_tsm_tight(4)) == 8


def test_tsm_bad_size():
    with pytest.raises(ValueError, match="needs n divisible by 4, got 6"):
        gen_tsm_tight(6)


@pytest.mark.parametrize("family", sorted(FAMILY_ORACLES))
def test_generator_store_equals_the_tuple_oracle(family):
    """Every valid n in 10, 20, ..., 1000: the same resources, rows in the same
    order and the same probability floats as the tuple-building generator."""
    for n in range(10, 1001, 10):
        if family == "tsm" and n % 4:
            continue
        inst = FAMILIES[family](n)
        resources, rows = FAMILY_ORACLES[family](n)
        assert inst.resources == resources and inst.arrivals == n
        assert inst.offsets.tolist() == np.cumsum([0, *map(len, rows)]).tolist()
        assert np.array_equal(inst.ids, np.fromiter(chain.from_iterable(rows), np.int64))
        assert inst.probs.tolist() == [1.0 / len(rows)] * len(rows)


def test_triangular_5000_peaks_under_150_mb():
    # 12.5M compatibility entries; as per-type tuples of ints they peaked at 601 MB
    tracemalloc.start()
    try:
        inst = gen_kvv_triangular(5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(inst.ids) == 5000 * 5001 // 2
    assert peak <= 150e6, f"peak {peak / 1e6:.1f} MB"


def test_generators_deterministic():
    for gen_fn, n in ((gen_partitioned_block, 20), (gen_kvv_triangular, 13),
                      (gen_bahmani, 17), (gen_tsm_tight, 16)):
        assert gen_fn(n) == gen_fn(n)


def test_zone_model_compatibility():
    zones = ZoneModel({"1": frozenset({"2"}), "2": frozenset({"1"}), "3": frozenset()})
    assert zones.compatible("1", "1")
    assert zones.compatible("1", "2")
    assert zones.compatible("2", "1")
    assert not zones.compatible("1", "3")


def test_ingest_zone_self_pair_gives_symmetric_neighbour_sets(tmp_path):
    trips_path, zones_path = _write_files(
        tmp_path, ["2025-05-14 08:00:00,2025-05-14 08:10:00,3,2"], ["3,3", "1,2"]
    )
    trips, zones = ingest_trips(trips_path, zones_path)
    assert len(trips) == 1
    assert zones.neighbors == {"3": frozenset(), "1": frozenset({"2"}), "2": frozenset({"1"})}
    assert zones.compatible("3", "3")
    assert not any(zones.compatible("3", z) or zones.compatible(z, "3") for z in ("1", "2"))


def _write_files(tmp_path, trips_rows, zone_rows):
    trips = tmp_path / "trips.csv"
    zones = tmp_path / "zones.csv"
    trips.write_text(
        "tpep_pickup_datetime,tpep_dropoff_datetime,PULocationID,DOLocationID\n"
        + "".join(r + "\n" for r in trips_rows)
    )
    zones.write_text("zone_a,zone_b\n" + "".join(r + "\n" for r in zone_rows))
    return str(trips), str(zones)


def test_ingest_well_formed(tmp_path):
    trips_path, zones_path = _write_files(
        tmp_path,
        [
            "2025-05-14 08:00:00,2025-05-14 08:10:00,1,2",
            "2025-05-14 08:01:00,2025-05-14 08:11:00,2,1",
            "2025-05-14 08:02:00,2025-05-14 08:12:00,1,1",
        ],
        ["1,2"],
    )
    trips, zones = ingest_trips(trips_path, zones_path)
    assert len(trips) == 3
    assert zones.neighbors == {"1": frozenset({"2"}), "2": frozenset({"1"})}


def test_ingest_drops_unknown_zone_with_warning(tmp_path, caplog):
    trips_path, zones_path = _write_files(
        tmp_path,
        [
            "2025-05-14 08:00:00,2025-05-14 08:10:00,1,9",
            "2025-05-14 08:01:00,2025-05-14 08:11:00,2,1",
        ],
        ["1,2"],
    )
    with caplog.at_level(logging.WARNING):
        trips, _ = ingest_trips(trips_path, zones_path)
    assert len(trips) == 1
    assert "dropped 1" in caplog.text


def test_ingest_drops_bad_timestamps(tmp_path):
    trips_path, zones_path = _write_files(
        tmp_path,
        ["not-a-time,2025-05-14 08:10:00,1,2"],
        ["1,2"],
    )
    trips, _ = ingest_trips(trips_path, zones_path)
    assert trips == []


def test_ingest_malformed_header(tmp_path):
    trips = tmp_path / "trips.csv"
    trips.write_text("pickup,dropoff\n")
    zones = tmp_path / "zones.csv"
    zones.write_text("zone_a,zone_b\n1,2\n")
    with pytest.raises(ValueError, match="trips.csv: expected columns"):
        ingest_trips(str(trips), str(zones))
    bad_zones = tmp_path / "badzones.csv"
    bad_zones.write_text("a,b\n1,2\n")
    good_trips = tmp_path / "good.csv"
    good_trips.write_text("tpep_pickup_datetime,tpep_dropoff_datetime,PULocationID,DOLocationID\n")
    with pytest.raises(ValueError, match="badzones.csv: expected columns"):
        ingest_trips(str(good_trips), str(bad_zones))


def _zone_model():
    return ZoneModel({"5": frozenset({"6"}), "6": frozenset({"5"}), "7": frozenset()})


def _trip(pick, drop, pu, do):
    from sparsematch.generators import TripRecord

    return TripRecord(datetime.fromisoformat(pick), datetime.fromisoformat(drop), pu, do)


def test_nyc_single_event_window():
    trips = [
        _trip("2025-05-14 07:40:00", "2025-05-14 07:58:00", "5", "5"),  # drop in [t-5, t)
        _trip("2025-05-14 08:01:00", "2025-05-14 08:30:00", "5", "6"),  # pick in [t, t+5)
    ]
    t = datetime.fromisoformat("2025-05-14 08:00:00")
    instance = build_nyc_instance(trips, _zone_model(), t, RngStream(1))
    assert instance.arrivals == 1
    assert instance.resources == ("car0@5",)
    assert instance.type_count == 1
    assert instance.types[0].compatible == (0,)


def test_nyc_isolated_rider_keeps_empty_type():
    trips = [
        _trip("2025-05-14 07:40:00", "2025-05-14 07:58:00", "5", "5"),
        _trip("2025-05-14 08:01:00", "2025-05-14 08:30:00", "7", "6"),  # isolated zone rider
    ]
    t = datetime.fromisoformat("2025-05-14 08:00:00")
    instance = build_nyc_instance(trips, _zone_model(), t, RngStream(1))
    assert instance.types[0].compatible == ()


def test_nyc_balanced_sides():
    trips = []
    for i in range(12):
        trips.append(_trip("2025-05-14 07:30:00", f"2025-05-14 07:5{5 + i % 5}:00", "5", "5" if i % 2 else "6"))
        trips.append(_trip(f"2025-05-14 08:0{i % 5}:00", "2025-05-14 08:40:00", "6", "5"))
    t = datetime.fromisoformat("2025-05-14 08:00:00")
    instance = build_nyc_instance(trips, _zone_model(), t, RngStream(2))
    assert instance.arrivals == instance.resource_count == 12


def test_nyc_empty_window_raises():
    trips = [_trip("2025-05-14 07:40:00", "2025-05-14 07:58:00", "5", "5")]
    t = datetime.fromisoformat("2025-05-14 08:00:00")
    with pytest.raises(EmptyWindow):
        build_nyc_instance(trips, _zone_model(), t, RngStream(1))
    with pytest.raises(EmptyWindow):
        build_nyc_instance(
            [_trip("2025-05-14 08:01:00", "2025-05-14 08:30:00", "5", "6")],
            _zone_model(), t, RngStream(1),
        )


def test_nyc_supply_sampling_deterministic():
    trips = [
        _trip("2025-05-14 07:30:00", "2025-05-14 07:56:00", "5", "5"),
        _trip("2025-05-14 07:30:00", "2025-05-14 07:57:00", "5", "6"),
        _trip("2025-05-14 07:30:00", "2025-05-14 07:58:00", "5", "6"),
        _trip("2025-05-14 08:02:00", "2025-05-14 08:30:00", "6", "5"),
    ]
    t = datetime.fromisoformat("2025-05-14 08:00:00")
    a = build_nyc_instance(trips, _zone_model(), t, RngStream(9, 4))
    b = build_nyc_instance(trips, _zone_model(), t, RngStream(9, 4))
    assert a == b


def test_trip_builder_equals_the_records_oracle(monkeypatch):
    """On every bundled trip interval, the CSR arrays built from the per-zone
    rows give the instance that ``DemandType`` records of those rows give."""
    built = bundled_trip_instances()
    monkeypatch.setattr(generators, "build_nyc_instance", nyc_instance_oracle)
    assert len(built) >= 3 and bundled_trip_instances() == built


def test_tsm_offline_optimum_matches_closed_form():
    # the expected offline maximum matching sits near n * (1 - 1/(2e))
    import numpy as np

    from helpers import full_matching
    from sparsematch.instance import realize
    from sparsematch.rng import RngStream

    n = 100
    inst = gen_tsm_tight(n)
    base = RngStream(61)
    sizes = [
        full_matching(realize(inst, base.substream(t))).size for t in range(300)
    ]
    expected = n * (1 - 1 / (2 * math.e))
    stderr = float(np.std(sizes, ddof=1) / math.sqrt(len(sizes)))
    assert abs(float(np.mean(sizes)) - expected) < 1.0 + 4 * stderr


def test_ingest_header_only_file(tmp_path):
    trips_path, zones_path = _write_files(tmp_path, [], ["1,2"])
    trips, zones = ingest_trips(trips_path, zones_path)
    assert trips == []
