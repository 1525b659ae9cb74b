"""Fractional solutions guiding local edge selection.

Two sources are implemented: the exact expected-instance linear program,
solved as a max-flow by Dinic's blocking flows after substituting
y_ij = n * p_j * x_ij (source -> type arcs of capacity n * p_j, type ->
resource arcs, resource -> sink arcs of capacity 1, so max flow equals the
LP optimum), and a Monte Carlo estimator that averages matched-edge
incidences of shuffled offline optima over simulated realizations.  The
simulations run in blocks: one numpy pass relabels a block's type masks and
rows, Hopcroft-Karp's partner list (``matching.partners``) is read once per
simulation, and one numpy pass maps the partners back.  The flow runs on
numpy residual arrays, its first phase as a bitset greedy pass and each
later phase's DFS on flat buffers of the admissible arcs its BFS collects;
the phases stop once the source's or the sink's arcs are all saturated.
A solution is stored as the instance stores its types, a CSR store of its
support, and ``FractionalSolution.build`` is the one place that checks one,
whatever produced its (type, resource, value) entries.  Helpers split a
solution into heavy and light mass relative to a budget and spread mass
uniformly across interchangeable resources.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .bounds import BoundInputs
from .instance import MASK_CELLS, StochasticInstance, json_value, realize
from .matching import partners
from .rng import RngStream, choice_cdf

RESOURCE_CAP_TOL = 1e-7
TYPE_LIMIT_TOL = 1e-9
_FLOW_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class FractionalSolution:
    """A feasible fractional solution of ``instance``, stored as the instance
    stores its types: type j's support is ``ids[offsets[j]:offsets[j + 1]]``,
    ascending, and ``values`` holds each x_ji, positive, at the same position.

    x_ji is the conditional probability that a type-j arrival is matched to
    resource i, and ``n * p_j * x_ji`` its expected matched mass; ``objective``
    adds those masses left to right in (type, resource) order.
    """

    instance: StochasticInstance
    offsets: np.ndarray  # type j's entries are positions offsets[j]:offsets[j + 1]
    ids: np.ndarray  # int64 resources
    values: np.ndarray  # float64 x_ji
    objective: float

    @classmethod
    def build(cls, instance: StochasticInstance, types, ids, values) -> FractionalSolution:
        """The solution with ``x[types[e], ids[e]] = values[e]``, the entries in any
        order; values that are not positive are dropped.

        Raises:
            ValueError: for a repeated (type, resource) pair, a type or resource
                out of range, a negative value, a positive value outside the
                compatibility set, a type whose values sum past 1 or a resource
                whose expected load exceeds 1.
        """
        order = np.lexsort((ids, types))
        types, ids = np.asarray(types, np.int64)[order], np.asarray(ids, np.int64)[order]
        values = np.asarray(values, float)[order]
        if repeated := int(((types[1:] == types[:-1]) & (ids[1:] == ids[:-1])).sum()):
            raise ValueError(f"{repeated} repeated (type, resource) entries")
        m, r = instance.type_count, instance.resource_count
        for what, index, count in (("type", types, m), ("resource", ids, r)):
            if (bad := (index < 0) | (index >= count)).any():
                e = bad.argmax()
                raise ValueError(f"x[{types[e]},{ids[e]}]: {what} {index[e]} out of range")
        if (negative := values < -1e-12).any():
            e = negative.argmax()
            raise ValueError(f"x[{types[e]},{ids[e]}] = {values[e]} is negative")
        positive = values > 0.0
        types, ids, values = types[positive], ids[positive], values[positive]
        masks = instance._compat_masks
        for j, i in zip(types.tolist(), ids.tolist()):
            if not masks[j] >> i & 1:
                raise ValueError(f"x[{j},{i}] positive outside the compatibility set")
        type_sum = np.bincount(types, weights=values, minlength=m)
        if (over := type_sum > 1.0 + TYPE_LIMIT_TOL).any():
            raise ValueError(f"type {over.argmax()} fractional mass {type_sum[over.argmax()]} exceeds 1")
        mass = (instance.arrivals * instance.probs)[types] * values
        load = np.bincount(ids, weights=mass, minlength=r)  # each resource's sum, in (type, resource) order
        if (over := load > 1.0 + RESOURCE_CAP_TOL).any():
            raise ValueError(f"resource {over.argmax()} expected load {load[over.argmax()]} exceeds 1")
        offsets = np.searchsorted(types, np.arange(m + 1))
        for array in (offsets, ids, values):
            array.flags.writeable = False
        # added left to right on every Python version: the builtin sum compensates from 3.12 on
        return cls(instance, offsets, ids, values, float(np.cumsum(mass)[-1]) if len(mass) else 0.0)

    @property
    def types(self) -> np.ndarray:
        """The type of every entry, the row of ``ids`` it sits in."""
        return np.repeat(np.arange(len(self.offsets) - 1), np.diff(self.offsets))


# One type's (resources ascending, weights, ``choice_cdf`` of the weights normalized).
TypeChoices = tuple[tuple[int, ...], np.ndarray, list[float]]


def _choices(offsets: np.ndarray, ids: np.ndarray, weights: np.ndarray) -> dict[int, TypeChoices]:
    """Every type j with entries ``offsets[j]:offsets[j + 1]`` of positive ``weights``
    at resources ``ids``: its resources, weights and draw cdf."""
    bounds = offsets.tolist()
    return {j: (tuple(ids[a:b].tolist()), weights[a:b], choice_cdf(weights[a:b] / weights[a:b].sum()))
            for j, (a, b) in enumerate(zip(bounds, bounds[1:])) if b > a}


@dataclass(frozen=True)
class CopyMarginals:
    """Matched-resource distributions of the first and second realized copy of each type.

    ``first[j]`` and ``second[j]`` hold type j's resources, weights and draw
    cdf, built once when the guidance is built.  Types absent from a map were
    never matched in that copy position.
    """

    first: dict[int, TypeChoices]
    second: dict[int, TypeChoices]
    _second_without: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def second_choices(self, j: int, exclude: int | None) -> tuple[tuple[int, ...], list[float] | None]:
        """Type j's second-copy resources other than ``exclude`` and the ``choice_cdf``
        of their renormalized weights, built once per (type, excluded resource)."""
        key = (j, exclude)
        if key not in self._second_without:
            ids, values, cdf = self.second.get(j, ((), None, None))
            if exclude in ids:
                keep = [p for p, i in enumerate(ids) if i != exclude]
                ids = tuple(ids[p] for p in keep)
                cdf = choice_cdf(values[keep] / values[keep].sum()) if ids else None
            self._second_without[key] = ids, cdf
        return self._second_without[key]

    @classmethod
    def of_solution(cls, x: FractionalSolution) -> CopyMarginals:
        """Both copies guided by the per-type support of one fractional solution."""
        choices = _choices(x.offsets, x.ids, x.values)
        return cls(first=choices, second=choices)


def _simulated_optima(instance: StochasticInstance, simulations: int, rng: RngStream,
                      shuffled: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The realizations of ``rng.substream("sim", s)``, s < ``simulations``, a block at
    a time: two (block, n) arrays of each arrival's type and its resource in an offline
    maximum matching, or -1.

    If ``shuffled``, simulation s first relabels both sides by ``permutation(n)``,
    then ``permutation(R)``, of ``rng.substream("shuffle", s)``: arrival a becomes
    row ``perm_l[a]`` and resource i bit ``perm_r[i]``, which randomizes the
    tie-breaking among optimal matchings, and the partners are mapped back.  A
    block's relabeled type masks hold at most ``MASK_CELLS`` bits, or one
    simulation's where those alone hold more; only the matching runs once per
    simulation.
    """
    if simulations < 1:
        raise ValueError("simulation count must be >= 1")
    m, r, n = instance.type_count, instance.resource_count, instance.arrivals
    if n == 0:
        return
    step = max(1, MASK_CELLS // (m * max(r, 1)))
    compat = None if shuffled else np.array(instance._compat_masks, dtype=object)
    for start in range(0, simulations, step):
        sims = range(start, min(start + step, simulations))
        type_ids = np.array([realize(instance, rng.substream("sim", s)).type_ids for s in sims], dtype=np.int64)
        if shuffled:
            gens = [rng.substream("shuffle", s).generator for s in sims]
            perm_l, perm_r = map(np.array, zip(*[(gen.permutation(n), gen.permutation(r)) for gen in gens]))
            masks = np.array(instance.type_masks(perm_r), dtype=object)  # shuffle b's type j at b * m + j
            rows = np.empty_like(type_ids)
            np.put_along_axis(rows, perm_l, type_ids + m * np.arange(len(sims))[:, None], axis=1)
        else:
            masks, rows = compat, type_ids
        partner = np.array([partners(row, r) for row in masks[rows].tolist()], dtype=np.int64)
        if shuffled:
            partner = np.take_along_axis(partner, perm_l, axis=1)
            matched = np.nonzero(partner >= 0)
            partner[matched] = np.argsort(perm_r, axis=1)[matched[0], partner[matched]]
        yield type_ids, partner


def per_copy_marginals(instance: StochasticInstance, simulations: int, rng: RngStream) -> CopyMarginals:
    """Estimate where the offline optimum sends the first and second copy of each type.

    Used as guidance for the two-suggestion baseline, which treats a type's
    realized copies by position; a copy's weights are its match counts.  Ties
    are broken by the deterministic solver; the randomizing shuffle is
    specific to the spread-seeking weights of the guided sparsifier.
    """
    m, r = instance.type_count, instance.resource_count
    keys: tuple[list, list] = ([], [])  # type * r + resource of each first and second copy matched
    for type_ids, resource in _simulated_optima(instance, simulations, rng, shuffled=False):
        key = (type_ids + m * np.arange(len(type_ids))[:, None]).ravel()  # (simulation, type)
        by_key = np.argsort(key, kind="stable")
        copy = np.empty_like(by_key)  # how many earlier arrivals of its simulation share the type
        copy[by_key] = np.arange(len(key)) - np.searchsorted(key[by_key], key[by_key])
        copy = np.where(resource >= 0, copy.reshape(resource.shape), -1)  # -1 where unmatched
        for c, bucket in enumerate(keys):
            at = copy == c
            bucket.append(type_ids[at] * r + resource[at])
    counted = (np.unique(np.concatenate([np.empty(0, np.int64), *bucket]), return_counts=True) for bucket in keys)
    return CopyMarginals(*(_choices(np.searchsorted(k // r, np.arange(m + 1)), k % r, counts.astype(float))
                           for k, counts in counted))


def _first_phase(masks: tuple[int, ...], masses: list[float], starts: list[int], from_source: np.ndarray,
                 to_resource: np.ndarray, to_sink: np.ndarray) -> None:
    """Dinic's first blocking flow on the fresh network, as one greedy pass.

    Its level graph is source -> types -> resources -> sink and compatibility
    lists ascend, so the DFS takes each type with mass in order and pushes
    ``min(cap[s->j], cap[j->i], cap[i->t])`` to its lowest compatible resource
    still alive, until the type runs dry.  Each push saturates s->j or i->t,
    so no type -> resource arc carries two pushes.  The three arrays hold the
    (forward, reverse) residuals of the source's arcs by type, of type j's
    resource arcs from row ``starts[j]`` on, and of the sink's arcs by resource.
    """
    source_cap, source_back = list(masses), [0.0] * len(masses)
    sink_cap, sink_back = [1.0] * len(to_sink), [0.0] * len(to_sink)
    pushed_rows, pushed = [], []
    alive = (1 << len(to_sink)) - 1
    for j, (mask, mass, start) in enumerate(zip(masks, masses, starts)):
        while source_cap[j] > _FLOW_EPS and mask & alive:
            low = mask & alive & -(mask & alive)
            i = low.bit_length() - 1
            b = min(source_cap[j], mass, sink_cap[i])
            source_cap[j] -= b
            source_back[j] += b
            sink_cap[i] -= b
            sink_back[i] += b
            pushed_rows.append(start + (mask & (low - 1)).bit_count())
            pushed.append(b)
            if sink_cap[i] <= _FLOW_EPS:
                alive ^= low
    from_source[:, 0], from_source[:, 1] = source_cap, source_back
    to_sink[:, 0], to_sink[:, 1] = sink_cap, sink_back
    pushed_rows = np.array(pushed_rows, dtype=np.intp)
    to_resource[pushed_rows, 0] -= pushed
    to_resource[pushed_rows, 1] = pushed


def _levels(to: np.ndarray, cap: np.ndarray, sink: int) -> tuple[np.ndarray, np.ndarray]:
    """BFS distances from the source, node 0, over arcs with residual > ``_FLOW_EPS``,
    one numpy pass per frontier (-1 where unreached, and beyond the sink's level),
    and the admissible arcs, those that reach a level one deeper than their tail's:
    frontier by frontier, each frontier's in arc order."""
    live = np.flatnonzero(cap > _FLOW_EPS).astype(np.int32)  # int32 halves every index array below
    heads, tails = to[live], to[live ^ 1]  # arc e runs from to[e ^ 1] to to[e]
    level = np.full(sink + 1, -1, dtype=np.int32)
    level[0] = depth = 0
    admissible = [live[:0]]
    while level[sink] < 0 and len(tails):
        from_level = level[tails]
        frontier = from_level == depth
        reached = heads[frontier]
        if not len(reached):
            break
        depth += 1
        fresh = level[reached] < 0  # the arcs into the next level
        level[reached[fresh]] = depth
        admissible.append(live[frontier][fresh])
        rest = from_level < 0
        live, heads, tails = live[rest], heads[rest], tails[rest]
    return level, np.concatenate(admissible)


def _blocking_flow(to: np.ndarray, cap: np.ndarray, level: np.ndarray, arcs: np.ndarray, sink: int) -> None:
    """One Dinic phase from the source, node 0, on ``level``'s admissible ``arcs``.

    Within a phase an arc leaves admissibility only by saturating and none
    enters it (reverse arcs point a level down), so each node's pointer over
    its admissible arcs, in adjacency order, picks the arc that a scan of its
    full adjacency would.  A node whose pointer ran out is skipped, not
    entered and left.  The admissible arcs' heads and residuals are read
    through memoryviews of two flat arrays, not copied into Python lists, so
    a phase holds no object per arc.  Reverse residuals change only on
    augmenting paths, so a dict holds them until the write-back.
    """
    tails = to[arcs ^ 1]
    order = np.argsort(tails, kind="stable")  # adjacency order: by tail, then arc id
    arcs, tails, nodes = arcs[order], tails[order], np.arange(len(level))
    ptr, end = np.searchsorted(tails, nodes).tolist(), np.searchsorted(tails, nodes, side="right").tolist()
    arc_to, arc_cap = memoryview(to[arcs]), memoryview(cap[arcs])
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

    # Arc pair q is arcs 2q and 2q + 1, arc e ^ 1 reversing arc e: pair j is
    # source -> type j, pair m + e type -> resource for compatible pair e (type
    # after type), and the last r pairs resource i -> sink.  Node 0 is the
    # source, 1 + j type j, 1 + m + i resource i.  A node's adjacency is its
    # out-arcs in arc order: a type's reverse source arc, then its resources
    # ascending; a resource's reverse arcs by type, then its sink arc.
    mass = instance.arrivals * instance.probs
    _, edge_type, edge_resource = instance.compat_pairs()
    sink = 1 + m + r
    sources, resources, sinks = slice(0, m), slice(m, m + len(edge_type)), slice(m + len(edge_type), None)
    heads = np.empty((m + len(edge_type) + r, 2), dtype=np.int32)  # to[2q], to[2q + 1] of pair q
    heads[sources, 0], heads[sources, 1] = np.arange(1, m + 1), 0
    heads[resources, 0], heads[resources, 1] = 1 + m + edge_resource, 1 + edge_type
    heads[sinks, 0], heads[sinks, 1] = sink, np.arange(1 + m, sink)
    to = heads.ravel()
    cap = np.zeros(len(to))
    residual = cap.reshape(-1, 2)  # residual[q] = cap[2q], cap[2q + 1]
    residual[resources, 0] = mass[edge_type]

    _first_phase(instance._compat_masks, mass.tolist(), instance.offsets[:-1].tolist(),
                 residual[sources], residual[resources], residual[sinks])
    # the source's out-arcs and the sink's in-arcs are the forward arcs of their
    # pairs: once either side is saturated, no BFS can reach the sink
    while ((residual[sources, 0] > _FLOW_EPS).any() and (residual[sinks, 0] > _FLOW_EPS).any()
           and (phase := _levels(to, cap, sink))[0][sink] >= 0):
        _blocking_flow(to, cap, *phase, sink)
    values = residual[resources, 1] / mass[edge_type]
    kept = np.flatnonzero(values > _FLOW_EPS)
    return FractionalSolution.build(instance, edge_type[kept], edge_resource[kept], values[kept])


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
    m, r = instance.type_count, instance.resource_count
    arrivals_of = np.zeros(m, dtype=np.int64)
    keys = [np.empty(0, np.int64)]  # type * r + resource of every match
    for type_ids, resource in _simulated_optima(instance, simulations, rng, shuffled=True):
        arrivals_of += np.bincount(type_ids.ravel(), minlength=m)
        at = resource >= 0
        keys.append(type_ids[at] * r + resource[at])
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    matched = keys // r

    # types never matched: uniform over the compatibility set
    degree, pair_types, pair_ids = instance.compat_pairs()
    fallback = (np.bincount(matched, minlength=m) == 0)[pair_types]
    types = np.concatenate([matched, pair_types[fallback]])
    ids = np.concatenate([keys % r, pair_ids[fallback]])
    values = np.concatenate([counts / arrivals_of[matched], 1.0 / degree[pair_types[fallback]]])
    order = np.lexsort((ids, types))
    types, ids, values = types[order], ids[order], values[order]

    # Finite-sample noise (and the uniform fallback) can overload a resource;
    # project back by scaling each overloaded resource's column.
    load = np.bincount(ids, weights=(instance.arrivals * instance.probs)[types] * values, minlength=r)
    return FractionalSolution.build(instance, types, ids, values * (1.0 / np.maximum(load, 1.0))[ids])


def heavy_light(x: FractionalSolution, k: int) -> BoundInputs:
    """Split the objective Z = Z_H + Z_L between support values above 1/k and the rest."""
    if k < 1:
        raise ValueError(f"budget k must be >= 1, got {k}")
    threshold = 1.0 / k
    masses = (x.instance.arrivals * x.instance.probs)[x.types] * x.values
    z_heavy = z_light = 0.0
    for value, mass in zip(x.values.tolist(), masses.tolist()):
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

    # x over every compatible pair, then each class's pairs of one type set to their average
    keys = pair_types.astype(np.int64) * instance.resource_count + ids
    values = np.zeros(len(keys))
    values[np.searchsorted(keys, x.types * instance.resource_count + x.ids)] = x.values
    for types_of_class, members in classes.items():
        if len(members) < 2:
            continue
        for j in types_of_class:
            at = np.searchsorted(keys, j * instance.resource_count + np.array(members))
            values[at] = np.cumsum(values[at])[-1] / len(members)  # summed left to right
    return FractionalSolution.build(instance, pair_types, ids, values)


def solution_to_json(x: FractionalSolution, arrivals: int) -> str:
    entries = [{"type": j, "resource": i, "x": value}
               for j, i, value in zip(x.types.tolist(), x.ids.tolist(), x.values.tolist())]
    return json.dumps({"entries": entries, "n": arrivals}, indent=2)


def solution_from_json(instance: StochasticInstance, text: str) -> FractionalSolution:
    """Parse cached weights; a missing key or a value of the wrong JSON type raises
    ValueError, and so does every entry ``FractionalSolution.build`` rejects."""
    doc = json.loads(text)
    try:
        n, entries = json_value(doc["n"], "integer"), json_value(doc["entries"], "array")
        types, ids = (np.array([json_value(e[key], "integer") for e in entries], dtype=np.int64)
                      for key in ("type", "resource"))
        values = np.array([json_value(e["x"], "number") for e in entries], dtype=float)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed weights JSON: {exc!r}") from None
    if n != instance.arrivals:
        raise ValueError(f"cached weights were learned for n={n}, instance has n={instance.arrivals}")
    return FractionalSolution.build(instance, types, ids, values)
