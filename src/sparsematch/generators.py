"""Benchmark instance families and taxi-trip graph construction.

The four synthetic families are adversarial constructions from the online
matching literature; each is a deterministic function of its size parameter,
with uniform type probabilities and balanced supply/demand.  Their rows are
ranges and blocks, built with numpy straight into the CSR arrays that the
instance's constructor checks once.  The trip-data path turns a window of
pick-up / drop-off events into a stochastic instance: drop-offs define the
sampled car supply, pick-up zones define the demand type distribution, and
edges connect same-zone or neighbouring-zone pairs.  Its per-zone rows are
flattened into the same CSR arrays.  A pick-up zone with no car in reach
becomes a type with no compatible resource.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import chain

import numpy as np

from .instance import StochasticInstance
from .rng import RngStream

log = logging.getLogger(__name__)

TRIP_COLUMNS = ("tpep_pickup_datetime", "tpep_dropoff_datetime", "PULocationID", "DOLocationID")
ZONE_COLUMNS = ("zone_a", "zone_b")
HALF_WINDOW = timedelta(minutes=5)


class EmptyWindow(ValueError):
    """A half-window around the requested time contains no trip events."""


def _uniform_instance(resources: tuple[str, ...], sizes: np.ndarray, ids: np.ndarray) -> StochasticInstance:
    """Uniform types, type j compatible with the next ``sizes[j]`` entries of
    ``ids``, and one expected arrival per resource."""
    m = len(sizes)
    return StochasticInstance(resources, np.cumsum([0, *sizes]), ids, np.full(m, 1.0 / m), len(resources))


def gen_partitioned_block(n: int) -> StochasticInstance:
    """Block-diagonal adversarial graph: diagonal plus two dense cross blocks.

    Rows (resources) and columns (types) split into blocks of sizes
    0.3n / 0.4n / 0.3n; edges are the diagonal, rows 1 x columns 2 complete,
    and rows 2 x columns 3 complete.
    """
    if n <= 0 or n % 10 != 0:
        raise ValueError(f"partitioned block needs n divisible by 10, got {n}")
    b1 = 3 * n // 10
    b2 = 4 * n // 10
    b3 = n - b1 - b2
    r = np.arange(n, dtype=np.int32)
    # a column of block 1 sees its own row; one of block 2 (3) all rows of block 1 (2), then its own
    ids = np.concatenate((r[:b1],
                          np.column_stack((np.tile(r[:b1], (b2, 1)), r[b1:b1 + b2])).ravel(),
                          np.column_stack((np.tile(r[b1:b1 + b2], (b3, 1)), r[b1 + b2:])).ravel()))
    return _uniform_instance(tuple(f"v{i}" for i in range(n)), np.repeat([1, b1 + 1, b2 + 1], [b1, b2, b3]), ids)


def gen_kvv_triangular(n: int) -> StochasticInstance:
    """Upper-triangular graph: type i is compatible with resources i..n-1."""
    if n < 1:
        raise ValueError(f"triangular needs n >= 1, got {n}")
    r = np.arange(n, dtype=np.int32)
    return _uniform_instance(tuple(f"v{i}" for i in range(n)), n - r, np.concatenate([r[j:] for j in range(n)]))


def gen_bahmani(n: int) -> StochasticInstance:
    """Online upper-bound construction: a hidden perfect matching under two dense blocks.

    ``n`` is the number of vertices per side.  The offline side splits into A2
    (m nodes) and A1 (n - m nodes) with m chosen so that |A1| is about m/e.
    Types I1 (m of them) see their private A2 partner plus all of A1; types I2
    (n - m) see all of A2.  All types are uniform and the arrival count is n,
    so supply and demand balance.
    """
    if n < 3:
        raise ValueError(f"bahmani needs n >= 3, got {n}")
    m = int(math.floor(n / (1.0 + 1.0 / math.e) + 0.5))
    a1 = n - m
    r = np.arange(n, dtype=np.int32)  # A2 is r[:m], A1 is r[m:]
    ids = np.concatenate((np.column_stack((r[:m], np.tile(r[m:], (m, 1)))).ravel(), np.tile(r[:m], a1)))
    resources = tuple(f"a2_{i}" for i in range(m)) + tuple(f"a1_{i}" for i in range(a1))
    return _uniform_instance(resources, np.repeat([a1 + 1, m], [m, a1]), ids)


def gen_tsm_tight(n: int) -> StochasticInstance:
    """Disjoint 6-cycles plus two dense blocks, tight for two-suggestion guidance.

    ``n`` is the number of vertices per side.  Each of the n/4 cycles
    u-x-v-y-w-z alternates offline/online starting with u offline, so u, v, w
    are resources and x, y, z are demand types.  A block of n/4 extra offline
    nodes (K) is seen by every x type, and n/4 extra online types (L) see
    every w node.  All types are uniform and the arrival count is n; the
    expected offline optimum sits near n * (1 - 1/(2e)) because extra copies
    of the degree-two y and z types have nowhere to overflow.
    """
    if n <= 0 or n % 4 != 0:
        raise ValueError(f"tsm tight needs n divisible by 4, got {n}")
    cycles = n // 4
    u = 3 * np.arange(cycles, dtype=np.int32)  # cycle c's resources are u, v, w = 3c, 3c + 1, 3c + 2
    block = np.arange(3 * cycles, 4 * cycles, dtype=np.int32)  # K nodes
    # per cycle the rows x_c = (u, v, K...), y_c = (v, w) and z_c = (u, w); then the L group
    xyz = np.column_stack((u, u + 1, np.tile(block, (cycles, 1)), u + 1, u + 2, u, u + 2))
    ids = np.concatenate((xyz.ravel(), np.tile(u + 2, cycles)))
    sizes = np.concatenate((np.tile([cycles + 2, 2, 2], cycles), np.full(cycles, cycles)))
    resources = []
    for c in range(cycles):
        resources.extend((f"u{c}", f"v{c}", f"w{c}"))
    resources.extend(f"k{c}" for c in range(cycles))
    return _uniform_instance(tuple(resources), sizes, ids)


FAMILIES = {
    "block": gen_partitioned_block,
    "triangular": gen_kvv_triangular,
    "bahmani": gen_bahmani,
    "tsm": gen_tsm_tight,
}


@dataclass(frozen=True)
class ZoneModel:
    """Spatial zones: every known zone maps to the zones it borders (never
    itself); the relation is symmetric."""

    neighbors: dict[str, frozenset[str]]

    def compatible(self, zone_a: str, zone_b: str) -> bool:
        """Same zone or sharing a boundary."""
        return zone_a == zone_b or zone_b in self.neighbors.get(zone_a, ())


@dataclass(frozen=True)
class TripRecord:
    pickup_time: datetime
    dropoff_time: datetime
    pickup_zone: str
    dropoff_zone: str


def ingest_trips(path: str, zone_path: str) -> tuple[list[TripRecord], ZoneModel]:
    """Load trip records and the zone adjacency model from CSV files.

    Trip rows with a missing field, unknown zones, unparseable timestamps or
    timestamps with a UTC offset (trip times are local) are dropped and
    counted in a warning.

    Raises:
        ValueError: if a header lacks a required column or a zone row lacks a value
            (a missing or empty field).
        OSError: if a file cannot be read.
    """
    with open(zone_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(ZONE_COLUMNS) <= set(reader.fieldnames):
            raise ValueError(f"{zone_path}: expected columns {ZONE_COLUMNS}")
        bordering: dict[str, set[str]] = {}
        for row in reader:
            a, b = ((row[c] or "").strip() for c in ZONE_COLUMNS)  # None: DictReader's fill for a short row
            if not (a and b):
                raise ValueError(f"{zone_path}:{reader.line_num}: expected a value for each of {ZONE_COLUMNS}")
            bordering.setdefault(a, set()).add(b)
            bordering.setdefault(b, set()).add(a)
    zones = ZoneModel({z: frozenset(near - {z}) for z, near in bordering.items()})

    trips = []
    dropped = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(TRIP_COLUMNS) <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected columns {TRIP_COLUMNS}")
        for row in reader:
            values = [row[c] for c in TRIP_COLUMNS]
            if None in values:  # DictReader's fill for a short row
                dropped += 1
                continue
            pickup_text, dropoff_text, pu, do = (v.strip() for v in values)
            try:
                pickup = datetime.fromisoformat(pickup_text)
                dropoff = datetime.fromisoformat(dropoff_text)
                if pickup.tzinfo is not None or dropoff.tzinfo is not None:
                    raise ValueError("trip times are local, with no UTC offset")
            except ValueError:
                dropped += 1
                continue
            if pu not in zones.neighbors or do not in zones.neighbors:
                dropped += 1
                continue
            trips.append(TripRecord(pickup, dropoff, pu, do))
    if dropped:
        log.warning("dropped %d malformed, UTC-offset or unknown-zone trip rows", dropped)
    return trips, zones


def build_nyc_instance(
    trips: list[TripRecord], zones: ZoneModel, t: datetime, rng: RngStream
) -> StochasticInstance:
    """Interval graph construction: sampled car supply and zone-typed demand.

    Drop-offs in [t-5m, t) set the supply size n and the car zone distribution;
    pick-ups in [t, t+5m) set the demand zone distribution.  n cars are sampled
    with replacement from the supply distribution and become the resources,
    named ``car{i}@{zone}``; each pick-up zone with positive probability
    becomes a demand type whose compatibility set is the cars in the same or
    a neighbouring zone (possibly empty: such demand is structurally
    unmatchable and still counts).

    Raises:
        EmptyWindow: if either half-window contains no events.
    """
    drop_zones = [trip.dropoff_zone for trip in trips if t - HALF_WINDOW <= trip.dropoff_time < t]
    pick_zones = [trip.pickup_zone for trip in trips if t <= trip.pickup_time < t + HALF_WINDOW]
    if not drop_zones:
        raise EmptyWindow(f"no drop-off events in [{t - HALF_WINDOW}, {t})")
    if not pick_zones:
        raise EmptyWindow(f"no pick-up events in [{t}, {t + HALF_WINDOW})")

    n = len(drop_zones)
    car_zone_ids = sorted(set(drop_zones))
    car_probs = [drop_zones.count(z) / n for z in car_zone_ids]
    sampled = rng.generator.choice(len(car_zone_ids), size=n, replace=True, p=car_probs)
    car_zones = tuple(car_zone_ids[s] for s in sampled)

    rider_zone_ids = sorted(set(pick_zones))
    rows = [[i for i, cz in enumerate(car_zones) if zones.compatible(zone, cz)] for zone in rider_zone_ids]
    return StochasticInstance(tuple(f"car{i}@{z}" for i, z in enumerate(car_zones)), np.cumsum([0, *map(len, rows)]),
                              np.fromiter(chain.from_iterable(rows), dtype=np.int64),
                              [pick_zones.count(zone) / len(pick_zones) for zone in rider_zone_ids], n)
