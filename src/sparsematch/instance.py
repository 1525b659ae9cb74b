"""Stochastic instance model: resources, typed demand, realized graphs.

An instance is a triple of resources, a demand-type distribution and an
arrival count.  Realizing an instance draws that many i.i.d. typed arrivals
and induces the bipartite graph in which each arrival is connected to every
resource compatible with its type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .rng import RngStream

PROB_TOL = 1e-9


@dataclass(frozen=True)
class DemandType:
    """One demand type: its draw probability and compatible resource indices."""

    type_id: int
    probability: float
    compatible: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "compatible", tuple(int(i) for i in self.compatible))
        if not 0.0 <= self.probability <= 1.0 + PROB_TOL:
            raise ValueError(f"type {self.type_id}: probability {self.probability} outside [0, 1]")
        if any(b <= a for a, b in zip(self.compatible, self.compatible[1:])):
            raise ValueError(f"type {self.type_id}: compatibility list must be strictly ascending")


@dataclass(frozen=True)
class StochasticInstance:
    """Immutable instance: resource identifiers, demand types, arrival count.

    ``allow_empty_types`` relaxes the nonempty-compatibility rule for data-driven
    instances where some demand is structurally unmatchable (it still counts as
    demand).  Synthetic generators never set it.
    """

    resources: tuple[str, ...]
    types: tuple[DemandType, ...]
    arrivals: int
    allow_empty_types: bool = False

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
            if t.type_id != j:
                raise ValueError(f"type_id {t.type_id} at position {j}: ids must be positional")
            if not t.compatible and not self.allow_empty_types:
                raise ValueError(f"type {j} has an empty compatibility list")
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
    doc = {
        "resources": list(instance.resources),
        "types": [{"p": t.probability, "compatible": list(t.compatible)} for t in instance.types],
        "n": instance.arrivals,
    }
    if instance.allow_empty_types:
        doc["allow_empty_types"] = True
    return json.dumps(doc, indent=2)


def instance_from_json(text: str) -> StochasticInstance:
    """Parse an instance; a missing key or a value of the wrong type raises ValueError."""
    doc = json.loads(text)
    try:
        types = tuple(DemandType(type_id=j, probability=float(t["p"]), compatible=tuple(t["compatible"]))
                      for j, t in enumerate(doc["types"]))
        resources, arrivals = tuple(str(r) for r in doc["resources"]), int(doc["n"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance JSON: {exc!r}") from None
    return StochasticInstance(resources=resources, types=types, arrivals=arrivals,
                              allow_empty_types=bool(doc.get("allow_empty_types", False)))
