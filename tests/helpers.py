"""Independent oracles and instance builders shared across tests.

The oracles deliberately avoid the library's own algorithms: matching is
solved by exhaustive bitmask dynamic programming, the sampling threshold by
bisection, and the expected-instance program by a generic LP solver or by
shortest augmenting paths (Edmonds-Karp) on the library's flow network.  A
VarOpt draw is checked against the numpy array version it was written from.  The
fractional-load diagnostics at the end scale an IPW-weighted subgraph down to
a fractional matching.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from sparsematch.instance import DemandType, RealizedGraph, StochasticInstance
from sparsematch.matching import BipartiteEdgeList
from sparsematch.weights import _FLOW_EPS

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


def varopt_draw_oracle(sampler, rng) -> tuple[int, ...]:
    """``VarOptSampler.draw`` as numpy array code: the version whose bytes the
    list-based draw keeps, reading the sampler's threshold solution."""
    ids = np.asarray(sampler._det_ids, dtype=np.int64)
    light_ids = np.asarray(sampler._light_ids, dtype=np.int64)
    light_probs = np.asarray(sampler._light_probs, dtype=float)
    m = sampler._light_draws
    if m > 0:
        gen = rng.generator
        perm = gen.permutation(len(light_ids))
        cum = np.cumsum(light_probs[perm])
        # Light probabilities sum to m by construction; rescale away float
        # residue so the systematic point set always lands inside.
        cum *= m / cum[-1]
        points = gen.random() + np.arange(m)
        picks = np.searchsorted(cum, points, side="left")  # ascending, as the points are
        picks = picks[np.concatenate(([True], picks[1:] != picks[:-1]))]
        picks = picks[picks < len(cum)]
        if len(picks) < m:
            # Sub-ulp boundary collision; complete the sample greedily.
            chosen = set(picks.tolist())
            missing = [i for i in np.argsort(-light_probs[perm]) if i not in chosen]
            picks = np.sort(np.concatenate([picks, missing[: m - len(picks)]]).astype(int))
        ids = np.concatenate([ids, light_ids[perm[picks]]])
    return tuple(sorted(ids.tolist()))


class FlowNetwork:
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

    def max_flow(self, source: int, sink: int) -> None:
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
                return
            path = []
            v = sink
            while v != source:
                path.append(parent_edge[v])
                v = self.to[parent_edge[v] ^ 1]
            bottleneck = min(self.cap[e] for e in path)
            for e in path:
                self.cap[e] -= bottleneck
                self.cap[e ^ 1] += bottleneck


def edmonds_karp_lp(instance: StochasticInstance) -> dict[tuple[int, int], float]:
    """The expected-instance LP's ``x`` from Edmonds-Karp on the same flow network,
    arcs added in the same order as ``solve_expected_lp`` lays them out."""
    m = instance.type_count
    sink = 1 + m + instance.resource_count
    net = FlowNetwork(sink + 1)
    edge_arc = {}
    for j, t in enumerate(instance.types):
        mass = instance.arrivals * t.probability
        net.add_edge(0, 1 + j, mass)
        for i in t.compatible:
            edge_arc[(j, i)] = net.add_edge(1 + j, 1 + m + i, mass)
    for i in range(instance.resource_count):
        net.add_edge(1 + m + i, sink, 1.0)
    net.max_flow(0, sink)
    x = {}
    for (j, i), arc in edge_arc.items():
        value = net.cap[arc ^ 1] / (instance.arrivals * instance.types[j].probability)
        if value > _FLOW_EPS:
            x[(j, i)] = value
    return x


def uniform_instance(compat_lists, arrivals: int) -> StochasticInstance:
    p = 1.0 / len(compat_lists)
    types = tuple(DemandType(p, tuple(sorted(c))) for c in compat_lists)
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
