"""Fractional solutions guiding local edge selection.

Two sources are implemented: the exact expected-instance linear program,
solved as a max-flow by Dinic's blocking flows after substituting
y_ij = n * p_j * x_ij (source -> type arcs of capacity n * p_j, type ->
resource arcs, resource -> sink arcs of capacity 1, so max flow equals the
LP optimum), and a Monte Carlo estimator that averages matched-edge
incidences of shuffled offline optima over simulated realizations.  The
flow runs on numpy residual arrays, its first phase as a bitset greedy pass.
Helpers split a solution into heavy and light mass relative to a budget and
spread mass uniformly across interchangeable resources.
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
        mass = dict(enumerate((instance.arrivals * instance.probs).tolist()))
        masks, right = instance._compat_masks, instance.resource_count
        clean: dict[tuple[int, int], float] = {}
        type_sum = dict.fromkeys(mass, 0.0)
        load = dict.fromkeys(range(right), 0.0)
        for (j, i), value in x.items():
            if value < -1e-12:
                raise ValueError(f"x[{j},{i}] = {value} is negative")
            if value <= 0.0:
                continue
            if not 0 <= j < instance.type_count:
                raise ValueError(f"x[{j},{i}]: type {j} out of range")
            if not (0 <= i < right and masks[j] >> i & 1):
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
    _second_without: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def cdfs(self) -> tuple[dict[int, list[float]], dict[int, list[float]]]:
        """Per copy, each type's ``choice_cdf`` of its probabilities, built once."""
        return tuple({j: choice_cdf(probs) for j, (_, _, probs) in copy.items()}
                     for copy in (self.first, self.second))

    def second_choices(self, j: int, exclude: int | None) -> tuple[tuple[int, ...], list[float] | None]:
        """Type j's second-copy resources other than ``exclude`` and the ``choice_cdf``
        of their renormalized weights, built once per (type, excluded resource)."""
        key = (j, exclude)
        if key not in self._second_without:
            ids, values, _ = self.second.get(j, ((), None, None))
            cdf = self.cdfs[1].get(j)
            if exclude in ids:
                keep = [p for p, i in enumerate(ids) if i != exclude]
                ids = tuple(ids[p] for p in keep)
                cdf = choice_cdf(values[keep] / values[keep].sum()) if ids else None
            self._second_without[key] = ids, cdf
        return self._second_without[key]

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


def _first_phase(masks: tuple[int, ...], masses: list[float], type_arcs: np.ndarray,
                 cap: np.ndarray, sink_arcs: np.ndarray) -> None:
    """Dinic's first blocking flow on the fresh network, as one greedy pass.

    Its level graph is source -> types -> resources -> sink and compatibility
    lists ascend, so the DFS takes each type with mass in order and pushes
    ``min(cap[s->j], cap[j->i], cap[i->t])`` to its lowest compatible resource
    still alive, until the type runs dry.  Each push saturates s->j or i->t,
    so no type -> resource arc carries two pushes.
    """
    source_cap, source_back = list(masses), [0.0] * len(masses)
    sink_cap, sink_back = [1.0] * len(sink_arcs), [0.0] * len(sink_arcs)
    pushed_arcs, pushed = [], []
    alive = (1 << len(sink_arcs)) - 1
    for j, (mask, mass, arc) in enumerate(zip(masks, masses, type_arcs.tolist())):
        while source_cap[j] > _FLOW_EPS and mask & alive:
            low = mask & alive & -(mask & alive)
            i = low.bit_length() - 1
            b = min(source_cap[j], mass, sink_cap[i])
            source_cap[j] -= b
            source_back[j] += b
            sink_cap[i] -= b
            sink_back[i] += b
            pushed_arcs.append(arc + 2 + 2 * (mask & (low - 1)).bit_count())
            pushed.append(b)
            if sink_cap[i] <= _FLOW_EPS:
                alive ^= low
    cap[type_arcs], cap[type_arcs + 1] = source_cap, source_back
    cap[sink_arcs], cap[sink_arcs + 1] = sink_cap, sink_back
    pushed_arcs = np.array(pushed_arcs, dtype=np.intp)
    cap[pushed_arcs] -= pushed
    cap[pushed_arcs + 1] = pushed


def _levels(to: np.ndarray, tail: np.ndarray, cap: np.ndarray, sink: int) -> np.ndarray:
    """BFS distances from the source, node 0, over arcs with residual > ``_FLOW_EPS``,
    one numpy pass per frontier; -1 where unreached, and beyond the sink's level."""
    live = cap > _FLOW_EPS
    heads, tails = to[live], tail[live]
    level = np.full(sink + 1, -1, dtype=np.int32)
    level[0] = depth = 0
    while level[sink] < 0 and len(tails):
        from_level = level[tails]
        reached = heads[from_level == depth]
        if not len(reached):
            break
        depth += 1
        level[reached[level[reached] < 0]] = depth
        heads, tails = heads[from_level < 0], tails[from_level < 0]
    return level


def _blocking_flow(to: np.ndarray, tail: np.ndarray, cap: np.ndarray, level: np.ndarray, sink: int) -> None:
    """One Dinic phase from the source, node 0, on ``level``'s admissible arcs.

    Within a phase an arc leaves admissibility only by saturating and none
    enters it (reverse arcs point a level down), so each node's pointer over
    its admissible arcs, in adjacency order, picks the arc that a scan of its
    full adjacency would.  A node whose pointer ran out is skipped, not
    entered and left.  Reverse residuals change only on augmenting paths, so
    a dict holds them until the write-back.
    """
    arcs = np.flatnonzero((cap > _FLOW_EPS) & (level[to] == level[tail] + 1))
    arcs = arcs[np.argsort(tail[arcs], kind="stable")]  # adjacency order: by tail, then arc id
    tails, nodes = tail[arcs], np.arange(len(level))
    ptr, end = np.searchsorted(tails, nodes).tolist(), np.searchsorted(tails, nodes, side="right").tolist()
    arc_to, arc_cap = to[arcs].tolist(), cap[arcs].tolist()
    back: dict[int, float] = {}
    dead = [False] * len(level)
    path: list[int] = []
    u = 0
    while True:
        if u == sink:
            bottleneck = min(arc_cap[p] for p in path)
            for p in path:
                arc_cap[p] -= bottleneck
                back[p] = (back[p] if p in back else cap[arcs[p] ^ 1]) + bottleneck
            path.clear()
            u = 0
        p, stop = ptr[u], end[u]
        while p < stop and (arc_cap[p] <= _FLOW_EPS or dead[arc_to[p]]):
            p += 1
        ptr[u] = p
        if p < stop:
            path.append(p)
            u = arc_to[p]
        elif u == 0:
            break
        else:
            dead[u] = True
            u = int(tails[path.pop()])
    touched = arcs[list(back)]
    cap[touched] = [arc_cap[p] for p in back]
    cap[touched ^ 1] = list(back.values())


def solve_expected_lp(instance: StochasticInstance) -> FractionalSolution:
    """Exact optimum of the expected-instance LP: the flow, and so ``x``, of
    Dinic's method scanning each node's full adjacency list, to the bit.

    Raises:
        ValueError: if any type has probability zero.
    """
    if instance.arrivals < 1:
        raise ValueError("the LP needs at least one expected arrival")
    m, r = instance.type_count, instance.resource_count
    if (zero := np.flatnonzero(instance.probs == 0.0)).size:
        raise ValueError(f"type {zero[0]} has probability 0")

    # Arc pairs (arc e ^ 1 reverses arc e) per type: source -> type, then type ->
    # resource in compatibility order; then resource -> sink.  Node 0 is the
    # source, 1 + j type j, 1 + m + i resource i.  Each node's adjacency is its
    # out-arcs in arc order.
    mass = instance.arrivals * instance.probs
    _, edge_type, edge_resource = instance.compat_pairs()
    edges = len(edge_type)
    type_arcs = 2 * (np.arange(m, dtype=np.int32) + instance.offsets[:-1])
    edge_arcs = 2 * (edge_type + np.arange(edges, dtype=np.int32) + 1)
    sink_arcs = 2 * (m + edges + np.arange(r, dtype=np.int32))
    sink = 1 + m + r
    to = np.empty(2 * (m + edges + r), dtype=np.int32)
    to[type_arcs], to[type_arcs + 1] = np.arange(1, m + 1), 0
    to[edge_arcs], to[edge_arcs + 1] = 1 + m + edge_resource, 1 + edge_type
    to[sink_arcs], to[sink_arcs + 1] = sink, np.arange(1 + m, sink)
    tail = to.reshape(-1, 2)[:, ::-1].ravel()  # tail[e] = to[e ^ 1]
    cap = np.zeros(len(to))
    cap[edge_arcs] = mass[edge_type]

    _first_phase(instance._compat_masks, mass.tolist(), type_arcs, cap, sink_arcs)
    while (level := _levels(to, tail, cap, sink))[sink] >= 0:
        _blocking_flow(to, tail, cap, level, sink)
    values = cap[edge_arcs + 1] / mass[edge_type]
    kept = np.flatnonzero(values > _FLOW_EPS)
    x = dict(zip(zip(edge_type[kept].tolist(), edge_resource[kept].tolist()), values[kept].tolist()))
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
    for j in range(m):
        if j in matched:
            ids, counts, _ = matched[j]
            x.update({(j, i): c / arrivals_of[j] for i, c in zip(ids, counts)})
        else:  # never matched: uniform over the compatibility set
            ids = instance.row(j)
            x.update({(j, i): 1.0 / len(ids) for i in ids})

    # Finite-sample noise (and the uniform fallback) can overload a resource;
    # project back by scaling each overloaded resource's column.
    mass = (instance.arrivals * instance.probs).tolist()
    load = dict.fromkeys(range(instance.resource_count), 0.0)
    for (j, i), v in x.items():
        load[i] += mass[j] * v
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
    _, pair_types, ids = instance.compat_pairs()
    by_resource = np.argsort(ids, kind="stable")  # each resource's types stay ascending
    ends = np.cumsum(np.bincount(ids, minlength=instance.resource_count))
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, types_of_i in enumerate(np.split(pair_types[by_resource], ends[:-1])):
        classes.setdefault(tuple(types_of_i.tolist()), []).append(i)

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
    """Parse cached weights; a missing key, a value of the wrong JSON type or a
    repeated (type, resource) entry raises ValueError."""
    doc = json.loads(text)
    try:
        n = json_value(doc["n"], "integer")
        entries = json_value(doc["entries"], "array")
        x = {(json_value(e["type"], "integer"), json_value(e["resource"], "integer")):
             float(json_value(e["x"], "number")) for e in entries}
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed weights JSON: {exc!r}") from None
    if len(x) != len(entries):
        raise ValueError(f"malformed weights JSON: {len(entries) - len(x)} repeated (type, resource) entries")
    if n != instance.arrivals:
        raise ValueError(f"cached weights were learned for n={n}, instance has n={instance.arrivals}")
    return FractionalSolution.build(instance, x)
