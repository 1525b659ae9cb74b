"""Independent oracles and instance builders shared across tests.

The oracles deliberately avoid the library's own algorithms: matching is
solved by exhaustive bitmask dynamic programming, the sampling threshold by
bisection, and the expected-instance program by a generic LP solver.
"""

from __future__ import annotations

import numpy as np

from sparsematch.instance import DemandType, StochasticInstance


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
