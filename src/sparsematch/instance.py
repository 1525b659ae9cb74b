"""Stochastic instance model: resources, typed demand, realized graphs.

An instance is a triple of resources, a demand-type distribution and an
arrival count.  A demand type is its position in that distribution; it has a
probability and a compatibility set, which may be empty (such demand counts
but cannot be matched).  Realizing an instance draws that many i.i.d. typed
arrivals and induces the bipartite graph in which each arrival is connected
to every resource compatible with its type.

The types are stored once, as read-only CSR arrays: type j's compatibility
set is ``ids[offsets[j]:offsets[j + 1]]``, strictly ascending, and its
probability ``probs[j]``.  The one constructor takes these arrays from the
generators, the JSON reader and the trip builder alike, and checks them once,
vectorized.  The ``types`` view of ``DemandType`` records and the type
bitmasks are derived from the store.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Iterator

import numpy as np

from .rng import RngStream

PROB_TOL = 1e-9
MASK_CELLS = 1 << 19  # type x resource cells per block of ``type_masks``, which bounds its temporaries


def mask_ints(rows: np.ndarray) -> Iterator[int]:
    """Each row of a 2-D uint8 array of little-endian packed bits, in any memory
    layout, as a Python int."""
    if not (width := rows.shape[1]):  # a zero-width void dtype views no rows
        return repeat(0, len(rows))
    return map(int.from_bytes, np.ascontiguousarray(rows).view(f"V{width}").ravel().tolist(), repeat("little"))


def _check_types(offsets: np.ndarray, ids: np.ndarray, probs: np.ndarray) -> None:
    """Raise for the first type whose probability is outside [0, 1] or, failing
    that, whose ids do not strictly ascend."""
    bad = ~((probs >= 0.0) & (probs <= 1.0 + PROB_TOL))  # NaN too
    falls = np.flatnonzero(ids[1:] <= ids[:-1]) + 1  # entries not above the one before ...
    rows = np.searchsorted(offsets, falls, side="right") - 1
    bad[rows[falls > offsets[rows]]] = True  # ... in their own row
    if bad.any():
        j = int(bad.argmax())
        if not 0.0 <= probs[j] <= 1.0 + PROB_TOL:
            raise ValueError(f"probability {probs[j]} outside [0, 1]")
        row = tuple(ids[offsets[j]:offsets[j + 1]].tolist())
        raise ValueError(f"compatibility list {row} must be strictly ascending")


@dataclass(frozen=True)
class DemandType:
    """One demand type as a record of the ``types`` view: its draw probability
    and compatible resource indices."""

    probability: float
    compatible: tuple[int, ...]


@dataclass(frozen=True, eq=False, init=False)
class StochasticInstance:
    """Immutable instance: resource identifiers, arrival count and the read-only
    CSR store of the demand types (see the module docstring)."""

    resources: tuple[str, ...]
    arrivals: int
    offsets: np.ndarray  # int32: type j's ids are ids[offsets[j]:offsets[j + 1]]
    ids: np.ndarray  # int32 resource indices
    probs: np.ndarray  # float64 type probabilities

    def __init__(self, resources: Iterable[str], offsets: np.ndarray, ids: np.ndarray, probs: np.ndarray,
                 arrivals: int):
        """Type j has compatibility set ``ids[offsets[j]:offsets[j + 1]]`` and
        probability ``probs[j]``, with ``offsets`` rising from 0 to ``len(ids)``.

        ValueError for ids of no integer dtype; then, in type order, for a
        probability outside [0, 1] or ids that do not strictly ascend; then for
        repeated resources, a negative arrival count, no types, an id outside
        the resources or probabilities that do not sum to 1 within ``PROB_TOL``.
        Else the arrays become the store, read-only."""
        if (ids := np.asarray(ids)).dtype.kind not in "iu":
            raise ValueError(f"compatibility ids of dtype {ids.dtype} hold an id that is not an integer")
        resources, offsets, probs = tuple(resources), np.asarray(offsets), np.asarray(probs, dtype=float)
        _check_types(offsets, ids, probs)
        if len(set(resources)) != len(resources):
            raise ValueError("resource identifiers must be unique")
        if arrivals < 0:
            raise ValueError("arrival count must be nonnegative")
        if not len(probs):
            raise ValueError("at least one demand type is required")
        if len(outside := np.flatnonzero((ids < 0) | (ids >= len(resources)))):
            raise ValueError(f"type {np.searchsorted(offsets, outside[0], side='right') - 1} references "
                             f"resource indices outside [0, {len(resources)})")
        cumulative = np.cumsum(probs)  # in type order, as a Python loop from 0.0 sums
        if abs((total := cumulative[-1] + 0.0) - 1.0) > PROB_TOL:  # + 0.0: that loop never ends at -0.0
            raise ValueError(f"type probabilities sum to {total}, not 1")
        store = {"offsets": offsets.astype(np.int32), "ids": ids.astype(np.int32, copy=False), "probs": probs,
                 "_cumulative_probs": cumulative}
        for array in store.values():
            array.flags.writeable = False
        self.__dict__.update(store, resources=resources, arrivals=arrivals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StochasticInstance):
            return NotImplemented
        return (self.resources, self.arrivals) == (other.resources, other.arrivals) and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in ("offsets", "ids", "probs"))

    @property
    def resource_count(self) -> int:
        return len(self.resources)

    @property
    def type_count(self) -> int:
        return len(self.probs)

    def row(self, j: int) -> list[int]:
        """Type j's compatibility set, ascending."""
        return self.ids[self.offsets[j]:self.offsets[j + 1]].tolist()

    @cached_property
    def types(self) -> tuple[DemandType, ...]:
        """Type j as a ``DemandType`` with a tuple of ints, derived on first use.
        No strategy, learning step or file writer reads it; tests and the
        benchmark's per-trial matching check do."""
        return tuple(DemandType(p, tuple(self.row(j))) for j, p in enumerate(self.probs.tolist()))

    def compat_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each type's degree, then each compatible (type, resource) pair's type and
        resource, type after type (int32): the resources are the store's ids."""
        degree = np.diff(self.offsets)
        return degree, np.repeat(np.arange(self.type_count, dtype=np.int32), degree), self.ids

    def type_masks(self, relabel: np.ndarray | None = None) -> list[int]:
        """Each type's compatibility set as a bitmask: bit i for resource i, or bit
        ``relabel[i]`` under a relabeling of the resources.  Built a block of types
        at a time, each of at most ``MASK_CELLS`` type x resource cells."""
        r = self.resource_count
        labels = None if relabel is None else relabel.astype(np.int32)  # int32 halves each block's gather
        step = max(1, MASK_CELLS // max(r, 1))
        masks: list[int] = []
        for a in range(0, self.type_count, step):
            offsets = self.offsets[a:a + step + 1]
            ids = self.ids[offsets[0]:offsets[-1]]
            member = np.zeros((len(offsets) - 1, r), dtype=bool)
            member[np.repeat(np.arange(len(offsets) - 1, dtype=np.int32), np.diff(offsets)),
                   ids if labels is None else labels[ids]] = True
            masks += mask_ints(np.packbits(member, axis=1, bitorder="little"))
        return masks

    @cached_property
    def _compat_masks(self) -> tuple[int, ...]:
        return tuple(self.type_masks())


@dataclass(frozen=True)
class RealizedGraph:
    """A realization: ``n`` typed arrivals and their induced compatibility edges.
    Arrival i's edges are its type's row, ``instance.row(type_ids[i])``."""

    instance: StochasticInstance
    type_ids: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.type_ids)


def realize(instance: StochasticInstance, rng: RngStream) -> RealizedGraph:
    """Draw ``instance.arrivals`` i.i.d. types by inverse CDF over the type probabilities."""
    n = instance.arrivals
    if n == 0:
        return RealizedGraph(instance, ())
    u = rng.generator.random(n)
    cum = instance._cumulative_probs
    ids = np.searchsorted(cum, u, side="right")
    # Guard against u landing beyond a cumulative total slightly below 1.
    np.clip(ids, 0, instance.type_count - 1, out=ids)
    return RealizedGraph(instance, tuple(ids.tolist()))


def instance_to_json(instance: StochasticInstance) -> str:
    return json.dumps({
        "resources": list(instance.resources),
        "types": [{"p": p, "compatible": instance.row(j)} for j, p in enumerate(instance.probs.tolist())],
        "n": instance.arrivals,
    }, indent=2)


_JSON_TYPES = {"array": list, "integer": int, "number": (int, float), "string": str}


def json_value(value, kind: str):
    """``value`` if it is a JSON ``kind`` ("array", "integer", "number" or "string"),
    else ValueError: file readers coerce nothing, a bool is no number, and
    neither is the NaN or Infinity that ``json.loads`` accepts."""
    if (isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind])
            or kind == "number" and not -math.inf < value < math.inf):
        raise ValueError(f"malformed JSON: expected a JSON {kind}, got {value!r}")
    return value


def instance_from_json(text: str) -> StochasticInstance:
    """Parse an instance; a missing key or a value of the wrong JSON type raises ValueError.

    Other keys are ignored, so files that still carry the retired
    ``allow_empty_types`` key load unchanged."""
    doc = json.loads(text)
    try:
        rows, probs = [], []
        for t in json_value(doc["types"], "array"):
            rows.append([json_value(i, "integer") for i in json_value(t["compatible"], "array")])
            probs.append(float(json_value(t["p"], "number")))
        resources = tuple(json_value(r, "string") for r in json_value(doc["resources"], "array"))
        arrivals = json_value(doc["n"], "integer")
        ids = np.fromiter(chain.from_iterable(rows), dtype=np.int64)  # OverflowError at 2**63 and beyond
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed instance JSON: {exc!r}") from None
    return StochasticInstance(resources, np.cumsum([0, *map(len, rows)]), ids, probs, arrivals)
