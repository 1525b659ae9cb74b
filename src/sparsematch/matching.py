"""Exact maximum bipartite matching.

A graph is stored as neighbour rows, one per left vertex: an arrival's
compatibility set, or the edges it reports.  Hopcroft-Karp reads the rows
directly; edge pairs from outside the package enter through the validating
constructor.  Tie-breaking is deterministic given the row order;
`max_matching_shuffled` randomizes it by relabeling both sides uniformly at
random and mapping the result back.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .instance import RealizedGraph
from .rng import RngStream

_DEAD = -1  # BFS layer marker for exhausted vertices


class BipartiteEdgeList:
    """Bipartite graph over [0, left) x [0, right): ``adjacency[l]`` holds the
    right neighbours of left vertex l.

    The constructor takes edge pairs from outside the package and rejects pairs
    out of range and duplicates; ``from_rows`` wraps rows the package built.
    """

    __slots__ = ("right_count", "adjacency")

    def __init__(self, left_count: int, right_count: int, edges: Iterable[tuple[int, int]]):
        if left_count < 0 or right_count < 0:
            raise ValueError("vertex counts must be nonnegative")
        rows: list[list[int]] = [[] for _ in range(left_count)]
        seen = set()
        for l, r in edges:
            l, r = int(l), int(r)
            if not (0 <= l < left_count and 0 <= r < right_count):
                raise ValueError(f"edge ({l}, {r}) out of range")
            if (l, r) in seen:
                raise ValueError(f"duplicate edge ({l}, {r})")
            seen.add((l, r))
            rows[l].append(r)
        self.right_count, self.adjacency = right_count, tuple(map(tuple, rows))

    @classmethod
    def from_rows(cls, right_count: int, rows: Sequence[Sequence[int]]) -> BipartiteEdgeList:
        """Rows of distinct right vertices in [0, right_count), kept without checks or copies."""
        graph = cls.__new__(cls)
        graph.right_count, graph.adjacency = right_count, rows
        return graph

    @property
    def left_count(self) -> int:
        return len(self.adjacency)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every (left, right) pair, row by row."""
        return tuple((l, r) for l, row in enumerate(self.adjacency) for r in row)


@dataclass(frozen=True)
class MatchingResult:
    size: int
    pairs: tuple[tuple[int, int], ...]


def full_edge_list(graph: RealizedGraph) -> BipartiteEdgeList:
    """All compatibility edges of a realization, arrivals on the left: each
    arrival's row is its type's compatibility tuple."""
    types = graph.instance.types
    return BipartiteEdgeList.from_rows(graph.instance.resource_count,
                                       [types[j].compatible for j in graph.type_ids])


def max_matching(graph: BipartiteEdgeList) -> MatchingResult:
    """Maximum-cardinality matching via Hopcroft-Karp.

    Deterministic for a fixed row order; O(E sqrt(V)).
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
            nxt = layer[l] + 1  # <= frontier, so min(frontier, nxt) is nxt
            for r in adj[l]:
                nl = pair_r[r]
                if nl == -1:
                    frontier = nxt
                elif layer[nl] == unlayered:
                    layer[nl] = nxt
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
    perm_r = gen.permutation(graph.right_count).tolist()
    inv_l, inv_r = np.argsort(perm_l).tolist(), np.argsort(perm_r).tolist()
    # relabeled vertex l is inv_l[l]; its row is sorted like a sorted edge list's
    rows = [sorted([perm_r[r] for r in graph.adjacency[l]]) for l in inv_l]
    result = max_matching(BipartiteEdgeList.from_rows(graph.right_count, rows))
    pairs = tuple(sorted((inv_l[l], inv_r[r]) for l, r in result.pairs))
    return MatchingResult(size=result.size, pairs=pairs)
