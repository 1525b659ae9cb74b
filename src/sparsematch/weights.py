"""Fractional solutions guiding local edge selection.

Two sources are implemented: the exact expected-instance linear program,
solved as a max-flow after substituting y_ij = n * p_j * x_ij (source ->
type arcs of capacity n * p_j, type -> resource arcs, resource -> sink arcs
of capacity 1, so max flow equals the LP optimum), and a Monte Carlo
estimator that averages matched-edge incidences of shuffled offline optima
over simulated realizations.  Helpers split a solution into heavy and light
mass relative to a budget and spread mass uniformly across interchangeable
resources.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from .instance import RealizedGraph, StochasticInstance, realize
from .matching import MatchingResult, full_edge_list, max_matching, max_matching_shuffled
from .rng import RngStream

RESOURCE_CAP_TOL = 1e-7
TYPE_LIMIT_TOL = 1e-9
_FLOW_EPS = 1e-12


class DegenerateType(ValueError):
    """A zero-probability type was passed to the LP; drop such types first."""


@dataclass(frozen=True)
class FractionalSolution:
    """Per (type, resource) fractional values with their LP objective.

    ``x[(j, i)]`` is the conditional probability that a type-j arrival is
    matched to resource i; ``arrival_mass[j] = n * p_j`` converts it to
    expected matched mass.  Only positive entries are stored.
    """

    x: dict[tuple[int, int], float]
    objective: float
    arrival_mass: dict[int, float]
    _by_type: dict[int, tuple[tuple[int, ...], np.ndarray]] = field(repr=False, default_factory=dict)

    @classmethod
    def build(cls, instance: StochasticInstance, x: Mapping[tuple[int, int], float]) -> "FractionalSolution":
        """Validate feasibility against ``instance`` and compute the objective."""
        n = instance.arrivals
        mass = {j: n * t.probability for j, t in enumerate(instance.types)}
        clean: dict[tuple[int, int], float] = {}
        type_sum = dict.fromkeys(mass, 0.0)
        load = dict.fromkeys(range(instance.resource_count), 0.0)
        for (j, i), value in x.items():
            if value < -1e-12:
                raise ValueError(f"x[{j},{i}] = {value} is negative")
            if value <= 0.0:
                continue
            if not 0 <= j < instance.type_count:
                raise ValueError(f"x[{j},{i}]: type {j} out of range")
            if i not in instance.types[j].compatible:
                raise ValueError(f"x[{j},{i}] positive outside the compatibility set")
            clean[(j, i)] = float(value)
            type_sum[j] += value
            load[i] += mass[j] * value
        for j, s in type_sum.items():
            if s > 1.0 + TYPE_LIMIT_TOL:
                raise ValueError(f"type {j} fractional mass {s} exceeds 1")
        for i, y in load.items():
            if y > 1.0 + RESOURCE_CAP_TOL:
                raise ValueError(f"resource {i} expected load {y} exceeds 1")
        objective = sum(mass[j] * v for (j, _), v in clean.items())
        by_type: dict[int, list] = {}
        for (j, i), v in sorted(clean.items()):
            by_type.setdefault(j, []).append((i, v))
        prepared = {
            j: (tuple(i for i, _ in pairs), np.asarray([v for _, v in pairs]))
            for j, pairs in by_type.items()
        }
        return cls(x=clean, objective=objective, arrival_mass=mass, _by_type=prepared)

    def support_of(self, type_id: int) -> tuple[tuple[int, ...], np.ndarray]:
        """Positively weighted resources of one type and their values."""
        return self._by_type.get(type_id, ((), np.empty(0)))


@dataclass(frozen=True)
class HeavyLightSplit:
    """The objective shares of support values above and at most 1/k."""

    k: int
    z_heavy: float
    z_light: float


@dataclass(frozen=True)
class CopyMarginals:
    """Matched-resource distributions of the first and second realized copy of each type.

    ``first[j]`` and ``second[j]`` hold (resources, match counts) for type j,
    estimated from simulated offline optima.  Types absent from a map were
    never matched in that copy position.
    """

    first: dict[int, tuple[tuple[int, ...], np.ndarray]]
    second: dict[int, tuple[tuple[int, ...], np.ndarray]]

    @cached_property
    def sampling(self) -> tuple[dict, dict]:
        """Per copy, type -> (resources, values, probabilities), normalized once per experiment."""
        return tuple({j: (ids, values, values / values.sum()) for j, (ids, values) in copy.items()}
                     for copy in (self.first, self.second))

    @classmethod
    def of_solution(cls, x: FractionalSolution) -> "CopyMarginals":
        """Both copies guided by the per-type support of one fractional solution."""
        return cls(first=x._by_type, second=x._by_type)


def _simulated_optima(instance: StochasticInstance, simulations: int, rng: RngStream,
                      shuffled: bool) -> Iterator[tuple[RealizedGraph, MatchingResult]]:
    """Each nonempty realization of ``rng.substream("sim", s)`` with its offline maximum
    matching, ties broken on ``rng.substream("shuffle", s)`` if ``shuffled``."""
    if simulations < 1:
        raise ValueError("simulation count must be >= 1")
    for sim in range(simulations):
        graph = realize(instance, rng.substream("sim", sim))
        if graph.n == 0:
            continue
        edge_list = full_edge_list(graph)
        if shuffled:
            yield graph, max_matching_shuffled(edge_list, rng.substream("shuffle", sim))
        else:
            yield graph, max_matching(edge_list)


def per_copy_marginals(instance: StochasticInstance, simulations: int, rng: RngStream) -> CopyMarginals:
    """Estimate where the offline optimum sends the first and second copy of each type.

    Used as guidance for the two-suggestion baseline, which treats a type's
    realized copies by position.  Ties are broken by the deterministic solver;
    the randomizing shuffle is specific to the spread-seeking weights of the
    guided sparsifier.
    """
    counts: tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]] = ({}, {})
    for graph, result in _simulated_optima(instance, simulations, rng, shuffled=False):
        match_of = dict(result.pairs)
        copies_seen: dict[int, int] = {}
        for l, type_id in enumerate(graph.type_ids):
            copy = copies_seen.get(type_id, 0) + 1
            copies_seen[type_id] = copy
            if copy <= 2 and l in match_of:
                bucket = counts[copy - 1]
                key = (type_id, match_of[l])
                bucket[key] = bucket.get(key, 0) + 1

    def collect(bucket: dict[tuple[int, int], int]) -> dict[int, tuple[tuple[int, ...], np.ndarray]]:
        grouped: dict[int, list[tuple[int, int]]] = {}
        for (j, i), c in sorted(bucket.items()):
            grouped.setdefault(j, []).append((i, c))
        return {
            j: (tuple(i for i, _ in pairs), np.asarray([c for _, c in pairs], dtype=float))
            for j, pairs in grouped.items()
        }

    return CopyMarginals(first=collect(counts[0]), second=collect(counts[1]))


class _FlowNetwork:
    """Max flow with real capacities by shortest augmenting paths (Edmonds-Karp)."""

    def __init__(self, nodes: int):
        self.adj: list[list[int]] = [[] for _ in range(nodes)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add_edge(self, u: int, v: int, capacity: float) -> int:
        index = len(self.to)
        self.adj[u].append(index)
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[v].append(index + 1)
        self.to.append(u)
        self.cap.append(0.0)
        return index

    def flow_on(self, edge_index: int) -> float:
        return self.cap[edge_index ^ 1]

    def max_flow(self, source: int, sink: int) -> float:
        total = 0.0
        nodes = len(self.adj)
        while True:
            parent_edge = [-1] * nodes
            parent_edge[source] = -2
            queue = deque([source])
            while queue and parent_edge[sink] == -1:
                u = queue.popleft()
                for e in self.adj[u]:
                    v = self.to[e]
                    if parent_edge[v] == -1 and self.cap[e] > _FLOW_EPS:
                        parent_edge[v] = e
                        queue.append(v)
            if parent_edge[sink] == -1:
                return total
            bottleneck = float("inf")
            v = sink
            while v != source:
                e = parent_edge[v]
                bottleneck = min(bottleneck, self.cap[e])
                v = self.to[e ^ 1]
            v = sink
            while v != source:
                e = parent_edge[v]
                self.cap[e] -= bottleneck
                self.cap[e ^ 1] += bottleneck
                v = self.to[e ^ 1]
            total += bottleneck


def solve_expected_lp(instance: StochasticInstance) -> FractionalSolution:
    """Exact optimum of the expected-instance LP.

    Raises:
        DegenerateType: if any type has probability zero.
    """
    if instance.arrivals < 1:
        raise ValueError("the LP needs at least one expected arrival")
    m = instance.type_count
    nres = instance.resource_count
    for j, t in enumerate(instance.types):
        if t.probability == 0.0:
            raise DegenerateType(f"type {j} has probability 0")

    source = 0
    sink = 1 + m + nres
    net = _FlowNetwork(sink + 1)
    edge_arc = {}
    for j, t in enumerate(instance.types):
        mass = instance.arrivals * t.probability
        net.add_edge(source, 1 + j, mass)
        for i in t.compatible:
            edge_arc[(j, i)] = net.add_edge(1 + j, 1 + m + i, mass)
    for i in range(nres):
        net.add_edge(1 + m + i, sink, 1.0)

    net.max_flow(source, sink)
    x = {}
    for (j, i), arc in edge_arc.items():
        mass = instance.arrivals * instance.types[j].probability
        value = net.flow_on(arc) / mass
        if value > _FLOW_EPS:
            x[(j, i)] = value
    return FractionalSolution.build(instance, x)


def monte_carlo_weights(instance: StochasticInstance, simulations: int, rng: RngStream) -> FractionalSolution:
    """Fractional weights from matched-edge incidences of simulated offline optima.

    Runs ``simulations`` fresh realizations, solves each, and sets
    x_ij = (matches of type j at resource i) / (arrivals of type j).  Every
    simulation shuffles the vertex order first, which spreads mass across
    interchangeable resources (the deterministic solver would concentrate it
    on its canonical optima).  Types never seen or never matched fall back to
    uniform weights over their compatibility set.  Resources whose empirical
    expected load exceeds capacity are scaled back to exactly 1 so the result
    is always feasible.
    """
    m = instance.type_count
    arrivals_of = np.zeros(m, dtype=np.int64)
    match_count: dict[tuple[int, int], int] = {}
    for graph, result in _simulated_optima(instance, simulations, rng, shuffled=True):
        arrivals_of += np.bincount(graph.type_ids, minlength=m)
        for l, r in result.pairs:
            key = (graph.type_ids[l], r)
            match_count[key] = match_count.get(key, 0) + 1

    matched_total = np.zeros(m, dtype=np.int64)
    for (j, _), c in match_count.items():
        matched_total[j] += c

    x: dict[tuple[int, int], float] = {}
    for j, t in enumerate(instance.types):
        if not t.compatible:
            continue
        if matched_total[j] > 0:
            for i in t.compatible:
                c = match_count.get((j, i), 0)
                if c:
                    x[(j, i)] = c / float(arrivals_of[j])
        else:
            uniform = 1.0 / len(t.compatible)
            for i in t.compatible:
                x[(j, i)] = uniform

    # Finite-sample noise (and the uniform fallback) can overload a resource;
    # project back by scaling each overloaded resource's column.
    load = dict.fromkeys(range(instance.resource_count), 0.0)
    for (j, i), v in x.items():
        load[i] += instance.arrivals * instance.types[j].probability * v
    scale = {i: (1.0 / y if y > 1.0 else 1.0) for i, y in load.items()}
    x = {(j, i): v * scale[i] for (j, i), v in x.items()}
    return FractionalSolution.build(instance, x)


def heavy_light(x: FractionalSolution, k: int) -> HeavyLightSplit:
    """Split the objective between support values above 1/k and the rest."""
    if k < 1:
        raise ValueError(f"budget k must be >= 1, got {k}")
    threshold = 1.0 / k
    z_heavy = z_light = 0.0
    for (j, _), value in sorted(x.x.items()):
        mass = x.arrival_mass[j] * value
        if value > threshold:
            z_heavy += mass
        else:
            z_light += mass
    return HeavyLightSplit(k=k, z_heavy=z_heavy, z_light=z_light)


def spread_equivalence_classes(instance: StochasticInstance, x: FractionalSolution) -> FractionalSolution:
    """Average fractional values across interchangeable resources.

    Resources with identical type membership form an equivalence class; within
    a class of size l the averaged values are at most 1/l by the type limit.
    The objective and feasibility are preserved exactly.
    """
    membership: list[list[int]] = [[] for _ in range(instance.resource_count)]
    for j, t in enumerate(instance.types):
        for i in t.compatible:
            membership[i].append(j)
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, types_of_i in enumerate(membership):
        classes.setdefault(tuple(types_of_i), []).append(i)

    new_x = dict(x.x)
    for types_of_class, members in classes.items():
        if len(members) < 2:
            continue
        for j in types_of_class:
            average = sum(x.x.get((j, i), 0.0) for i in members) / len(members)
            for i in members:
                if average > 0.0:
                    new_x[(j, i)] = average
                else:
                    new_x.pop((j, i), None)
    return FractionalSolution.build(instance, new_x)


def solution_to_json(x: FractionalSolution, arrivals: int) -> str:
    entries = [
        {"type": j, "resource": i, "x": value}
        for (j, i), value in sorted(x.x.items())
    ]
    return json.dumps({"entries": entries, "n": arrivals}, indent=2)


def solution_from_json(instance: StochasticInstance, text: str) -> FractionalSolution:
    """Parse cached weights; a missing key or a value of the wrong type raises ValueError."""
    doc = json.loads(text)
    try:
        n = int(doc["n"])
        x = {(int(e["type"]), int(e["resource"])): float(e["x"]) for e in doc["entries"]}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed weights JSON: {exc!r}") from None
    if n != instance.arrivals:
        raise ValueError(f"cached weights were learned for n={n}, instance has n={instance.arrivals}")
    return FractionalSolution.build(instance, x)
