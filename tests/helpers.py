"""Independent oracles and instance builders shared across tests.

The oracles deliberately avoid the library's own algorithms: matching is
solved by exhaustive bitmask dynamic programming, the sampling threshold by
bisection, and the expected-instance program by a generic LP solver.  The
fractional-load diagnostics at the end scale an IPW-weighted subgraph down to
a fractional matching.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from sparsematch.instance import DemandType, RealizedGraph, StochasticInstance
from sparsematch.matching import BipartiteEdgeList

ARRIVAL_WEIGHT_TOL = 1e-9


def brute_force_matching(left_count: int, right_count: int, edges) -> int:
    """Exhaustive maximum matching via DP over subsets of right vertices."""
    assert right_count <= 16, "oracle is exponential in the right side"
    masks = [0] * left_count
    for l, r in edges:
        masks[l] |= 1 << r
    best = {0: 0}
    for l in range(left_count):
        nxt = dict(best)
        for used, size in best.items():
            free = masks[l] & ~used
            while free:
                bit = free & -free
                free ^= bit
                key = used | bit
                if nxt.get(key, -1) < size + 1:
                    nxt[key] = size + 1
        best = nxt
    return max(best.values())


def bisect_threshold(weights, k: int, tol: float = 1e-13) -> float:
    """Solve sum(min(1, tau * w)) = min(k, #positive) for tau by bisection."""
    positive = [w for w in weights if w > 0]
    target = min(k, len(positive))
    lo, hi = 0.0, 2.0 / min(positive)
    while sum(min(1.0, hi * w) for w in positive) < target:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if sum(min(1.0, mid * w) for w in positive) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return (lo + hi) / 2.0


def uniform_instance(compat_lists, arrivals: int) -> StochasticInstance:
    p = 1.0 / len(compat_lists)
    types = tuple(
        DemandType(type_id=j, probability=p, compatible=tuple(sorted(c)))
        for j, c in enumerate(compat_lists)
    )
    resources = tuple(f"v{i}" for i in range(1 + max(max(c) for c in compat_lists if c)))
    return StochasticInstance(resources=resources, types=types, arrivals=arrivals)


def complete_uniform(n: int) -> StochasticInstance:
    """n uniform types all compatible with all n resources."""
    full = tuple(range(n))
    return uniform_instance([full] * n, arrivals=n)


def exclusive_pairs(n: int) -> StochasticInstance:
    """n uniform types, each compatible with its private resource."""
    return uniform_instance([(j,) for j in range(n)], arrivals=n)


def random_bipartite(gen: np.random.Generator, left: int, right: int, p: float):
    edges = [(l, r) for l in range(left) for r in range(right) if gen.random() < p]
    return edges


def heavy_light_edges(x, k: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The support edges of ``x`` with value above 1/k, and the rest."""
    heavy = [edge for edge, value in sorted(x.x.items()) if value > 1.0 / k]
    return heavy, [edge for edge in sorted(x.x) if edge not in heavy]


def varopt_ipw(graph, x, k: int, rng, rows) -> dict[tuple[int, int], float]:
    """IPW weight ``x / pi`` of every (arrival, resource) edge in the rows
    ``varopt_sparsify`` reported, one row per arrival.

    Each arrival's sample is redrawn from the same ``rng.substream("arrival", i)``
    the sparsifier used, so it must select exactly the reported resources.
    Every realized type needs support in ``x`` (no uniform fallback).
    """
    from sparsematch.varopt import VarOptSampler

    samplers = {}
    ipw = {}
    for i, row in enumerate(rows):
        type_id = graph.type_ids[i]
        if type_id not in samplers:
            ids, weights = x.support_of(type_id)
            sampler = VarOptSampler(ids, weights, k)
            samplers[type_id] = sampler, dict(zip(ids, weights)), sampler.probabilities()
        sampler, weight, prob = samplers[type_id]
        assert sampler.draw(rng.substream("arrival", i)) == row
        ipw.update({(i, r): weight[r] / prob[r] for r in row})
    return ipw


def micro_type_count(graph: RealizedGraph) -> dict[int, int]:
    """Histogram of realized arrivals per type id (absent types omitted)."""
    return dict(Counter(graph.type_ids))


class ArrivalOverflow(ValueError):
    """An arrival's edge weights sum past 1; the upstream sparsifier is broken."""


@dataclass(frozen=True)
class FractionalLoadReport:
    """Per-resource loads of an IPW-weighted subgraph and the value after scaling.

    ``scaled_value`` is the total weight minus the excess above unit capacity,
    i.e. the size of the fractional matching obtained by scaling down the edges
    at every overloaded resource.
    """

    per_resource_load: dict[int, float]
    excess: float
    scaled_value: float


def fractional_scaled_matching(
    graph_s: BipartiteEdgeList, ipw: Mapping[tuple[int, int], float]
) -> FractionalLoadReport:
    """Resource loads and the fractional matching value after unit-capacity scaling.

    Every edge of ``graph_s`` must carry a weight, and each arrival's weights
    must sum to at most one; resource-side overload (the only violation a
    per-arrival sampler can cause) is scaled away and reported as excess.

    Raises:
        ArrivalOverflow: if some arrival's weights exceed 1 + 1e-9.
    """
    left_total = [0.0] * graph_s.left_count
    load = dict.fromkeys(range(graph_s.right_count), 0.0)
    total = 0.0
    for edge in graph_s.edges:
        try:
            w = float(ipw[edge])
        except KeyError:
            raise ValueError(f"edge {edge} has no weight") from None
        left_total[edge[0]] += w
        load[edge[1]] += w
        total += w
    for l, s in enumerate(left_total):
        if s > 1.0 + ARRIVAL_WEIGHT_TOL:
            raise ArrivalOverflow(f"arrival {l} carries weight {s} > 1")
    excess = sum(max(0.0, y - 1.0) for y in load.values())
    return FractionalLoadReport(
        per_resource_load=load,
        excess=excess,
        scaled_value=total - excess,
    )
