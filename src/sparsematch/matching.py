"""Exact maximum bipartite matching and fractional-load diagnostics.

Hopcroft-Karp is the workhorse for both the offline optimum and the matching
on sparsified subgraphs.  Tie-breaking is deterministic given the input edge
order; randomized tie-breaking is obtained by relabeling both sides uniformly
at random and mapping the result back (`max_matching_shuffled`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .instance import RealizedGraph
from .rng import RngStream

_DEAD = -1  # BFS layer marker for exhausted vertices

ARRIVAL_WEIGHT_TOL = 1e-9


class ArrivalOverflow(ValueError):
    """An arrival's edge weights sum past 1; the upstream sparsifier is broken."""


@dataclass(frozen=True)
class BipartiteEdgeList:
    """Duplicate-free bipartite edge list over index ranges [0, left) x [0, right)."""

    left_count: int
    right_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(l), int(r)) for l, r in self.edges))
        if self.left_count < 0 or self.right_count < 0:
            raise ValueError("vertex counts must be nonnegative")
        seen = set()
        for l, r in self.edges:
            if not (0 <= l < self.left_count and 0 <= r < self.right_count):
                raise ValueError(f"edge ({l}, {r}) out of range")
            if (l, r) in seen:
                raise ValueError(f"duplicate edge ({l}, {r})")
            seen.add((l, r))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.left_count)]
        for l, r in self.edges:
            adj[l].append(r)
        return tuple(tuple(a) for a in adj)


@dataclass(frozen=True)
class MatchingResult:
    size: int
    pairs: tuple[tuple[int, int], ...]


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


def full_edge_list(graph: RealizedGraph) -> BipartiteEdgeList:
    """All compatibility edges of a realization, arrivals on the left."""
    edges = []
    for i in range(graph.n):
        edges.extend((i, r) for r in graph.edges_for(i))
    return BipartiteEdgeList(graph.n, graph.instance.resource_count, tuple(edges))


def max_matching(graph: BipartiteEdgeList) -> MatchingResult:
    """Maximum-cardinality matching via Hopcroft-Karp.

    Deterministic for a fixed edge order; O(E sqrt(V)).
    """
    left, right = graph.left_count, graph.right_count
    adj = graph.adjacency
    pair_l = [-1] * left
    pair_r = [-1] * right
    layer = [0] * left
    unlayered = left + 1

    def bfs() -> bool:
        queue = deque()
        for l in range(left):
            if pair_l[l] == -1:
                layer[l] = 0
                queue.append(l)
            else:
                layer[l] = unlayered
        frontier = unlayered
        while queue:
            l = queue.popleft()
            if layer[l] >= frontier:
                continue
            for r in adj[l]:
                nl = pair_r[r]
                if nl == -1:
                    frontier = min(frontier, layer[l] + 1)
                elif layer[nl] == unlayered:
                    layer[nl] = layer[l] + 1
                    queue.append(nl)
        return frontier != unlayered

    def dfs(root: int) -> bool:
        # Iterative alternating DFS along BFS layers; recursion would overflow
        # on long augmenting paths.
        stack = [(root, iter(adj[root]))]
        path: list[int] = []
        while stack:
            l, neighbors = stack[-1]
            advanced = False
            for r in neighbors:
                nl = pair_r[r]
                if nl == -1:
                    path.append(r)
                    for (ll, _), rr in zip(stack, path):
                        pair_l[ll] = rr
                        pair_r[rr] = ll
                    return True
                if layer[nl] == layer[l] + 1:
                    path.append(r)
                    stack.append((nl, iter(adj[nl])))
                    advanced = True
                    break
            if not advanced:
                layer[l] = _DEAD
                stack.pop()
                if path:
                    path.pop()
        return False

    size = 0
    while bfs():
        for l in range(left):
            if pair_l[l] == -1 and dfs(l):
                size += 1
    pairs = tuple((l, pair_l[l]) for l in range(left) if pair_l[l] != -1)
    return MatchingResult(size=size, pairs=pairs)


def max_matching_shuffled(graph: BipartiteEdgeList, rng: RngStream) -> MatchingResult:
    """Maximum matching after a uniform random relabeling of both sides.

    The relabeled graph is solved canonically and the matching mapped back, so
    the result is a maximum matching of the input whose tie-breaking among
    optimal matchings is randomized by the relabeling.
    """
    gen = rng.generator
    perm_l = gen.permutation(graph.left_count)
    perm_r = gen.permutation(graph.right_count)
    relabeled = BipartiteEdgeList(
        graph.left_count,
        graph.right_count,
        tuple(sorted((int(perm_l[l]), int(perm_r[r])) for l, r in graph.edges)),
    )
    result = max_matching(relabeled)
    inv_l = np.argsort(perm_l)
    inv_r = np.argsort(perm_r)
    pairs = tuple(sorted((int(inv_l[l]), int(inv_r[r])) for l, r in result.pairs))
    return MatchingResult(size=result.size, pairs=pairs)


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
