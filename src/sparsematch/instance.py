"""Stochastic instance model: resources, typed demand, realized graphs.

An instance is a triple of resources, a demand-type distribution and an
arrival count.  A demand type is its position in that distribution; it has a
probability and a compatibility set, which may be empty (such demand counts
but cannot be matched).  Realizing an instance draws that many i.i.d. typed
arrivals and induces the bipartite graph in which each arrival is connected
to every resource compatible with its type.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
import numpy as np

from .rng import RngStream

PROB_TOL = 1e-9


def integer_ids(ids) -> tuple[int, ...]:
    """``ids`` as Python ints, or TypeError: Python and numpy integers pass;
    bools, floats, strings, None and numpy bools do not."""
    if bool in map(type, ids):
        raise TypeError("a bool is not an integer id")
    return tuple(map(operator.index, ids))


@dataclass(frozen=True)
class DemandType:
    """One demand type: its draw probability and compatible resource indices."""

    probability: float
    compatible: tuple[int, ...]

    def __post_init__(self):
        ids = tuple(self.compatible)
        try:
            object.__setattr__(self, "compatible", integer_ids(ids))
        except TypeError:
            raise ValueError(f"compatibility list {ids!r} holds an id that is not an integer") from None
        if not 0.0 <= self.probability <= 1.0 + PROB_TOL:
            raise ValueError(f"probability {self.probability} outside [0, 1]")
        if any(b <= a for a, b in zip(self.compatible, self.compatible[1:])):
            raise ValueError(f"compatibility list {self.compatible} must be strictly ascending")


@dataclass(frozen=True)
class StochasticInstance:
    """Immutable instance: resource identifiers, demand types (type j is
    ``types[j]``), arrival count."""

    resources: tuple[str, ...]
    types: tuple[DemandType, ...]
    arrivals: int

    def __post_init__(self):
        object.__setattr__(self, "resources", tuple(self.resources))
        object.__setattr__(self, "types", tuple(self.types))
        if len(set(self.resources)) != len(self.resources):
            raise ValueError("resource identifiers must be unique")
        if self.arrivals < 0:
            raise ValueError("arrival count must be nonnegative")
        if not self.types:
            raise ValueError("at least one demand type is required")
        total = 0.0
        for j, t in enumerate(self.types):
            if t.compatible and not (0 <= t.compatible[0] and t.compatible[-1] < len(self.resources)):
                raise ValueError(f"type {j} references resource indices outside [0, {len(self.resources)})")
            total += t.probability
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"type probabilities sum to {total}, not 1")

    @property
    def resource_count(self) -> int:
        return len(self.resources)

    @property
    def type_count(self) -> int:
        return len(self.types)

    @cached_property
    def _cumulative_probs(self) -> np.ndarray:
        return np.cumsum([t.probability for t in self.types])

    def compat_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each type's degree, then each compatible (type, resource) pair's type and
        resource, type after type, as int32 arrays built per call (not kept)."""
        degree = np.array([len(t.compatible) for t in self.types], dtype=np.int32)
        resources = np.fromiter(chain.from_iterable(t.compatible for t in self.types), np.int32, int(degree.sum()))
        return degree, np.repeat(np.arange(self.type_count, dtype=np.int32), degree), resources

    @cached_property
    def _compat_masks(self) -> tuple[int, ...]:
        """Each type's compatibility set as a bitmask: bit i for resource i."""
        _, types, resources = self.compat_pairs()
        member = np.zeros((self.type_count, self.resource_count), dtype=bool)
        member[types, resources] = True
        rows = np.packbits(member, axis=1, bitorder="little")
        return tuple(int.from_bytes(row.tobytes(), "little") for row in rows)


@dataclass(frozen=True)
class RealizedGraph:
    """A realization: ``n`` typed arrivals and their induced compatibility edges."""

    instance: StochasticInstance
    type_ids: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.type_ids)

    def edges_for(self, arrival_index: int) -> tuple[int, ...]:
        """Compatibility set of one arrival (resource indices)."""
        return self.instance.types[self.type_ids[arrival_index]].compatible


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
        "types": [{"p": t.probability, "compatible": list(t.compatible)} for t in instance.types],
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
        types = []
        for t in json_value(doc["types"], "array"):
            compatible = tuple(json_value(i, "integer") for i in json_value(t["compatible"], "array"))
            types.append(DemandType(float(json_value(t["p"], "number")), compatible))
        resources = tuple(json_value(r, "string") for r in json_value(doc["resources"], "array"))
        arrivals = json_value(doc["n"], "integer")
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed instance JSON: {exc!r}") from None
    return StochasticInstance(resources=resources, types=types, arrivals=arrivals)
