"""Fractional solutions guiding local edge selection.

Two sources are implemented: the exact expected-instance linear program,
solved as a max-flow by Dinic's blocking flows after substituting
y_ij = n * p_j * x_ij (source -> type arcs of capacity n * p_j, type ->
resource arcs, resource -> sink arcs of capacity 1, so max flow equals the
LP optimum), and a Monte Carlo estimator that averages matched-edge
incidences of shuffled offline optima over simulated realizations.  The
simulations run in blocks: one numpy pass relabels a block's type masks and
rows, Hopcroft-Karp's partner list (``matching.partners``) is read once per
simulation, and one numpy pass maps the partners back.  The flow's phases run
on Python-int bitmasks of the arcs with residual, as ``matching.partners``
does, its first as a greedy pass; they stop once the source's or the sink's
arcs are all saturated.
A solution is stored as the instance stores its types, a CSR store of its
support, and ``FractionalSolution.build`` is the one place that checks one,
whatever produced its (type, resource, value) entries.  Helpers split a
solution into heavy and light mass relative to a budget and spread mass
uniformly across interchangeable resources.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bounds import BoundInputs
from .instance import MASK_CELLS, StochasticInstance, json_value, realize
from .matching import partners
from .rng import RngStream

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


# One type's (resources ascending, weights, weighted-choice cdf: ``choice_cdf`` in tests/helpers.py).
TypeChoices = tuple[tuple[int, ...], np.ndarray, list[float]]


def _choices(offsets: np.ndarray, ids: np.ndarray, weights: np.ndarray) -> dict[int, TypeChoices]:
    """Every type j with entries ``offsets[j]:offsets[j + 1]`` of positive ``weights``
    at resources ``ids``: its resources, weights and draw cdf.  The cdfs of the
    types with one number of entries are one (types, entries) pass, whose row
    sums and cumulative sums are each row's own, as numpy's weighted choice's are."""
    bounds, resources, sizes = offsets.tolist(), ids.tolist(), np.diff(offsets)
    cdfs = {}
    for size in set(sizes.tolist()) - {0}:
        types = np.flatnonzero(sizes == size)
        rows = weights[offsets[types][:, None] + np.arange(size)]
        cdf = (rows / rows.sum(axis=1)[:, None]).cumsum(axis=1)
        cdfs.update(zip(types.tolist(), (cdf / cdf[:, -1:]).tolist()))
    return {j: (tuple(resources[a:b]), weights[a:b], cdfs[j])
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


class _Residuals:
    """The expected-instance flow network's residuals, as the phases leave them.

    ``source[j]`` and ``sink[i]`` are the residuals of s -> j and i -> t, and
    ``pairs[j * r + i]`` holds [residual of j -> i, flow on it] for each pair
    that ever carried flow; the others keep their capacity ``mass[j]``.  The
    masks hold the arcs with residual > ``_FLOW_EPS``, so a node's adjacency
    in the list-built network's order is a mask's bits ascending:
    ``forward[j]``, type j's resources; ``flow[i]``, the types resource i can
    push flow back to; ``sources``, the types s reaches; ``sinks``, the
    resources that reach t.  No phase uses the reverse arcs of s and t.
    """

    __slots__ = ("mass", "r", "source", "sink", "pairs", "forward", "flow", "sources", "sinks")

    def __init__(self, masks: tuple[int, ...], mass: list[float], r: int):
        """Dinic's first blocking flow on the fresh network, as one greedy pass: its
        level graph is source -> types -> resources -> sink and compatibility
        lists ascend, so the DFS takes each type with mass in order and pushes
        ``min(cap[s->j], cap[j->i], cap[i->t])`` to its lowest compatible
        resource still alive, until the type runs dry.  Each push saturates
        s->j or i->t, so no type -> resource arc carries two pushes."""
        forward = [mask if w > _FLOW_EPS else 0 for mask, w in zip(masks, mass)]
        source, sink, pairs, flow = list(mass), [1.0] * r, {}, [0] * r
        sources, alive = 0, (1 << r) - 1
        for j, mask in enumerate(forward):
            while source[j] > _FLOW_EPS and (open_ := mask & alive):
                low = open_ & -open_
                i = low.bit_length() - 1
                b = min(source[j], mass[j], sink[i])
                source[j] -= b
                sink[i] -= b
                pairs[j * r + i] = [mass[j] - b, b]
                flow[i] |= 1 << j
                if mass[j] - b <= _FLOW_EPS:
                    forward[j] ^= low
                if sink[i] <= _FLOW_EPS:
                    alive ^= low
            if source[j] > _FLOW_EPS:
                sources |= 1 << j
        self.mass, self.r, self.source, self.sink, self.pairs = mass, r, source, sink, pairs
        self.forward, self.flow, self.sources, self.sinks = forward, flow, sources, alive


def _levels(net: _Residuals) -> list[int] | None:
    """Dinic's BFS from the source, as one mask of nodes per level after it:
    types at even positions, resources at odd ones.  Each layer is the OR of
    the masks of the previous layer's members, less the nodes reached before.
    The last is the first resource layer that meets the sink's residuals, kept
    to the resources that do (nodes at or past the sink's level are dead
    ends); None where a layer comes up empty first: the sink is unreachable."""
    layers, seen = [net.sources], [net.sources, 0]  # the types, the resources reached
    while True:
        side = len(layers) % 2  # 1 where the next layer holds resources
        members, masks, reach = layers[-1], net.forward if side else net.flow, 0
        while members:
            low = members & -members
            reach |= masks[low.bit_length() - 1]
            members ^= low
        if not (layer := reach & ~seen[side]):
            return None
        seen[side] |= layer
        if side and layer & net.sinks:
            return layers + [layer & net.sinks]
        layers.append(layer)


def _blocking_flow(net: _Residuals, layers: list[int]) -> None:
    """One Dinic phase on ``_levels``' layers, which it uses up.

    The DFS runs from the source along ``path``, the types and resources it
    entered, and takes the lowest bit in the next layer of the current node's
    mask: the source's is ``layers[0]``, a type's its ``forward`` mask and a
    resource's its ``flow`` mask; a last-layer resource goes to the sink.  A
    node left with no such bit is dead and leaves its layer, as does a type
    whose source arc or a resource whose sink arc saturates.  Within a phase
    arcs only leave admissibility (reverse arcs point a level down) and nodes
    only die, so that bit is where the pointer of Dinic's method scanning the
    full adjacency stops; the dead ends it enters and leaves move no flow.
    Each augmentation subtracts the bottleneck from every residual on the
    path, then adds it to the reverse arc's.
    """
    r, source, sink, pairs, forward, flow = net.r, net.source, net.sink, net.pairs, net.forward, net.flow
    path: list[int] = []  # the types at even positions, the resources at odd ones
    while True:
        if len(path) == len(layers):
            types, resources = path[::2], path[1::2]
            ahead = [pairs.setdefault(j * r + i, [net.mass[j], 0.0]) for j, i in zip(types, resources)]
            back = [pairs[j * r + i] for j, i in zip(types[1:], resources)]
            b = min(source[types[0]], *(arc[0] for arc in ahead), *(arc[1] for arc in back), sink[resources[-1]])
            j, i = types[0], resources[-1]
            source[j] -= b
            if source[j] <= _FLOW_EPS:
                layers[0] ^= 1 << j
                net.sources ^= 1 << j
            sink[i] -= b
            if sink[i] <= _FLOW_EPS:
                layers[-1] ^= 1 << i
                net.sinks ^= 1 << i
            for j, i, arc in zip(types, resources, ahead):
                arc[0] -= b
                arc[1] += b
                if arc[0] <= _FLOW_EPS:
                    forward[j] ^= 1 << i
                flow[i] |= 1 << j
            for j, i, arc in zip(types[1:], resources, back):
                arc[1] -= b
                arc[0] += b
                if arc[1] <= _FLOW_EPS:
                    flow[i] ^= 1 << j
                if arc[0] > _FLOW_EPS:
                    forward[j] |= 1 << i
            path.clear()
        d = len(path)
        options = layers[0] if d == 0 else (forward if d % 2 else flow)[path[-1]] & layers[d]
        if options:
            path.append((options & -options).bit_length() - 1)
        elif d == 0:
            return
        else:
            layers[d - 1] ^= 1 << path.pop()


def solve_expected_lp(instance: StochasticInstance) -> FractionalSolution:
    """Exact optimum of the expected-instance LP: the flow, and so ``x``, of
    Dinic's method scanning each node's full adjacency list, to the bit, with
    its phases run on the bitmasks of ``_Residuals``.

    Raises:
        ValueError: if any type has probability zero.
    """
    if instance.arrivals < 1:
        raise ValueError("the LP needs at least one expected arrival")
    if (zero := np.flatnonzero(instance.probs == 0.0)).size:
        raise ValueError(f"type {zero[0]} has probability 0")
    mass = instance.arrivals * instance.probs
    net = _Residuals(instance._compat_masks, mass.tolist(), instance.resource_count)
    # once the source's or the sink's arcs are all saturated, no BFS can reach the sink
    while net.sources and net.sinks and (layers := _levels(net)) is not None:
        _blocking_flow(net, layers)
    types, ids = np.divmod(np.fromiter(net.pairs, np.int64, len(net.pairs)), net.r)
    values = np.fromiter((arc[1] for arc in net.pairs.values()), float, len(types)) / mass[types]
    kept = values > _FLOW_EPS
    return FractionalSolution.build(instance, types[kept], ids[kept], values[kept])


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
