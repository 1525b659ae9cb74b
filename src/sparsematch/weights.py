"""Fractional solutions guiding local edge selection.

Two sources are implemented: the exact expected-instance linear program,
solved as a max-flow by Dinic's blocking flows after substituting
y_ij = n * p_j * x_ij (source -> type arcs of capacity n * p_j, type ->
resource arcs, resource -> sink arcs of capacity 1, so max flow equals the
LP optimum), and a Monte Carlo estimator that averages matched-edge
incidences of shuffled offline optima over simulated realizations.  Helpers
split a solution into heavy and light mass relative to a budget and spread
mass uniformly across interchangeable resources.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from .bounds import BoundInputs
from .instance import RealizedGraph, StochasticInstance, json_value, realize
from .matching import MatchingResult, full_matching, max_matching_shuffled
from .rng import RngStream, choice_cdf

RESOURCE_CAP_TOL = 1e-7
TYPE_LIMIT_TOL = 1e-9
_FLOW_EPS = 1e-12


# One type's (resources, weights, weights normalized to probabilities).
TypeWeights = tuple[tuple[int, ...], np.ndarray, np.ndarray]


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
    _by_type: dict[int, TypeWeights] = field(repr=False, default_factory=dict)

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
        return cls(x=clean, objective=objective, arrival_mass=mass, _by_type=_group_by_type(clean))

    def support_of(self, type_id: int) -> tuple[tuple[int, ...], np.ndarray]:
        """Positively weighted resources of one type and their values."""
        ids, values, _ = self._by_type.get(type_id, ((), np.empty(0), None))
        return ids, values


def _group_by_type(values: Mapping[tuple[int, int], float]) -> dict[int, TypeWeights]:
    """type -> (resources ascending, their weights, weights normalized to
    probabilities) of a positive ``(type, resource) -> weight`` map."""
    grouped: dict[int, list[tuple[int, float]]] = {}
    for (j, i), v in sorted(values.items()):
        grouped.setdefault(j, []).append((i, v))
    by_type = {}
    for j, pairs in grouped.items():
        weights = np.asarray([v for _, v in pairs], dtype=float)
        by_type[j] = (tuple(i for i, _ in pairs), weights, weights / weights.sum())
    return by_type


@dataclass(frozen=True)
class CopyMarginals:
    """Matched-resource distributions of the first and second realized copy of each type.

    ``first[j]`` and ``second[j]`` hold (resources, weights, probabilities)
    for type j, normalized once when the guidance is built.  Types absent
    from a map were never matched in that copy position.
    """

    first: dict[int, TypeWeights]
    second: dict[int, TypeWeights]

    @cached_property
    def cdfs(self) -> tuple[dict[int, list[float]], dict[int, list[float]]]:
        """Per copy, each type's ``choice_cdf`` of its probabilities, built once."""
        return tuple({j: choice_cdf(probs) for j, (_, _, probs) in copy.items()}
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
        if shuffled:
            yield graph, max_matching_shuffled(graph, rng.substream("shuffle", sim))
        else:
            yield graph, full_matching(graph)


def per_copy_marginals(instance: StochasticInstance, simulations: int, rng: RngStream) -> CopyMarginals:
    """Estimate where the offline optimum sends the first and second copy of each type.

    Used as guidance for the two-suggestion baseline, which treats a type's
    realized copies by position; a copy's weights are its match counts.  Ties
    are broken by the deterministic solver; the randomizing shuffle is
    specific to the spread-seeking weights of the guided sparsifier.
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
    return CopyMarginals(first=_group_by_type(counts[0]), second=_group_by_type(counts[1]))


def _max_flow(adj: list[list[int]], to: list[int], cap: list[float], source: int, sink: int) -> None:
    """Dinic's blocking flows on residual arcs ``to``/``cap``; arc ``e ^ 1`` reverses arc ``e``."""
    while True:
        level = [-1] * len(adj)
        level[source] = 0
        queue = [source]
        for u in queue:
            for e in adj[u]:
                if level[to[e]] < 0 and cap[e] > _FLOW_EPS:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[sink] < 0:
            return
        next_arc = [0] * len(adj)
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                bottleneck = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= bottleneck
                    cap[e ^ 1] += bottleneck
                path.clear()
                u = source
            arcs, i, deeper = adj[u], next_arc[u], level[u] + 1
            while i < len(arcs) and not (cap[arcs[i]] > _FLOW_EPS and level[to[arcs[i]]] == deeper):
                i += 1
            next_arc[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = to[arcs[i]]
            elif u == source:
                break
            else:
                u = to[path.pop() ^ 1]
                next_arc[u] += 1


def solve_expected_lp(instance: StochasticInstance) -> FractionalSolution:
    """Exact optimum of the expected-instance LP.

    Raises:
        DegenerateType: if any type has probability zero.
    """
    if instance.arrivals < 1:
        raise ValueError("the LP needs at least one expected arrival")
    m = instance.type_count
    for j, t in enumerate(instance.types):
        if t.probability == 0.0:
            raise DegenerateType(f"type {j} has probability 0")

    # Arc pairs per type: source -> type, then type -> resource in compatibility order;
    # then resource -> sink.  Node 0 is the source, 1 + j type j, 1 + m + i resource i.
    sink = 1 + m + instance.resource_count
    adj: list[list[int]] = [[] for _ in range(sink + 1)]
    to: list[int] = []
    cap: list[float] = []
    masses = [instance.arrivals * t.probability for t in instance.types]
    type_arcs = []
    for j, (t, mass) in enumerate(zip(instance.types, masses)):
        e = len(to)
        arcs = range(e + 2, e + 2 + 2 * len(t.compatible), 2)
        type_arcs.append(arcs)
        adj[0].append(e)
        adj[1 + j] = [e + 1, *arcs]
        to += [1 + j, 0]
        for a, i in zip(arcs, t.compatible):
            adj[1 + m + i].append(a + 1)
            to += [1 + m + i, 1 + j]
        cap += [mass, 0.0] * (1 + len(t.compatible))
    for i in range(instance.resource_count):
        adj[1 + m + i].append(len(to))
        adj[sink].append(len(to) + 1)
        to += [sink, 1 + m + i]
        cap += [1.0, 0.0]

    _max_flow(adj, to, cap, 0, sink)
    x = {}
    for j, (t, mass, arcs) in enumerate(zip(instance.types, masses, type_arcs)):
        for a, i in zip(arcs, t.compatible):
            value = cap[a ^ 1] / mass
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

    matched = _group_by_type(match_count)
    x: dict[tuple[int, int], float] = {}
    for j, t in enumerate(instance.types):
        if j in matched:
            ids, counts, _ = matched[j]
            x.update({(j, i): c / arrivals_of[j] for i, c in zip(ids, counts)})
        else:  # never matched: uniform over the compatibility set
            x.update({(j, i): 1.0 / len(t.compatible) for i in t.compatible})

    # Finite-sample noise (and the uniform fallback) can overload a resource;
    # project back by scaling each overloaded resource's column.
    load = dict.fromkeys(range(instance.resource_count), 0.0)
    for (j, i), v in x.items():
        load[i] += instance.arrivals * instance.types[j].probability * v
    scale = {i: (1.0 / y if y > 1.0 else 1.0) for i, y in load.items()}
    x = {(j, i): v * scale[i] for (j, i), v in x.items()}
    return FractionalSolution.build(instance, x)


def heavy_light(x: FractionalSolution, k: int) -> BoundInputs:
    """Split the objective Z = Z_H + Z_L between support values above 1/k and the rest."""
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
    return BoundInputs(z=x.objective, z_heavy=z_heavy, z_light=z_light, k=k)


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
    """Parse cached weights; a missing key or a value of the wrong JSON type raises ValueError."""
    doc = json.loads(text)
    try:
        n = json_value(doc["n"], "integer")
        x = {(json_value(e["type"], "integer"), json_value(e["resource"], "integer")):
             float(json_value(e["x"], "number")) for e in json_value(doc["entries"], "array")}
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed weights JSON: {exc!r}") from None
    if n != instance.arrivals:
        raise ValueError(f"cached weights were learned for n={n}, instance has n={instance.arrivals}")
    return FractionalSolution.build(instance, x)
