"""Exact maximum bipartite matching.

A graph is stored as neighbour rows, one per left vertex: an arrival's
compatibility set, or the edges it reports; edge pairs from outside the
package enter through the validating constructor.  Hopcroft-Karp's first
phase, where every left vertex is free, is run as one greedy pass in row
order, which yields the same pairs.  Tie-breaking is deterministic given the
row order; `max_matching_shuffled` randomizes it by relabeling both sides
uniformly at random and mapping the result back.

`max_matching` scans the rows of any graph, such as the coordinator's sparse
reported rows.  A bitset kernel serves full realizations (`full_matching`, on
the instance's type bitmasks) and `max_matching_shuffled`'s relabeled graphs.
Their rows ascend, so the first neighbour in row order that passes a test is
the lowest set bit of the row's mask and the passing set: both kernels return
the same pairs.
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

    The constructor takes edge pairs from outside the package and rejects ids
    that are not integers (bools and floats included), pairs out of range and
    duplicates; ``from_rows`` wraps rows the package built.
    """

    __slots__ = ("right_count", "adjacency")

    def __init__(self, left_count: int, right_count: int, edges: Iterable[tuple[int, int]]):
        if left_count < 0 or right_count < 0:
            raise ValueError("vertex counts must be nonnegative")
        rows: list[list[int]] = [[] for _ in range(left_count)]
        seen = set()
        for l, r in edges:
            if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (l, r)):
                raise ValueError(f"edge ({l!r}, {r!r}) is not a pair of integers")
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

    Deterministic for a fixed row order; O(E sqrt(V)).  Phase 1 is a greedy
    pass in row order: with every left vertex free at layer 0, no path can pass
    a matched vertex, so each row's search takes its first free right vertex.
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
            nxt = layer[l] + 1
            advanced = False
            for r in neighbors:
                nl = pair_r[r]
                if nl == -1:
                    path.append(r)
                    for (ll, _), rr in zip(stack, path):
                        pair_l[ll] = rr
                        pair_r[rr] = ll
                    return True
                if layer[nl] == nxt:
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
    for l in range(left):
        for r in adj[l]:
            if pair_r[r] == -1:
                pair_l[l], pair_r[r] = r, l
                size += 1
                break
    while size and bfs():
        for l in range(left):
            if pair_l[l] == -1 and dfs(l):
                size += 1
    pairs = tuple((l, pair_l[l]) for l in range(left) if pair_l[l] != -1)
    return MatchingResult(size=size, pairs=pairs)


def _bitset_matching(masks: Sequence[int], right: int) -> MatchingResult:
    """``max_matching`` of the ascending rows whose bitmasks are ``masks``.

    The BFS runs level by level.  ``good[d]`` holds the matched right vertices
    whose partners are alive at layer d + 1; within one search these classes
    only shrink, so the lowest candidate bit is the row scan's next neighbour.
    """
    left = len(masks)
    pair_l, pair_r = [-1] * left, [-1] * right
    free = (1 << right) - 1  # unmatched right vertices

    def bfs() -> list[int]:
        """The classes ``good[d]`` by layer d, or [] if no free right vertex is reachable."""
        level = [l for l in range(left) if pair_l[l] == -1]
        seen, good = free, []
        while level:
            reach = 0
            for l in level:
                reach |= masks[l]
            new = reach & ~seen  # matched right vertices first reached here
            seen |= new
            good.append(new)
            if reach & free:
                return good + [0]  # the frontier layer is not expanded
            level = []
            while new:
                low = new & -new
                level.append(pair_r[low.bit_length() - 1])
                new ^= low
        return []

    def dfs(root: int, good: list[int]) -> None:
        nonlocal free
        stack, path = [root], []
        while stack:
            d = len(stack) - 1
            candidates = masks[stack[-1]] & (free | good[d])
            if not candidates:  # the vertex dies: its partner leaves good[d - 1]
                stack.pop()
                if path:
                    good[d - 1] &= ~(1 << path.pop())
                continue
            low = candidates & -candidates
            r = low.bit_length() - 1
            path.append(r)
            if low & free:
                for l, rr in zip(stack, path):
                    pair_l[l], pair_r[rr] = rr, l
                free ^= low
                for i in range(len(path) - 1):  # path[i + 1]'s partner is now at layer i + 1
                    good[i] ^= (1 << path[i]) | (1 << path[i + 1])
                return
            stack.append(pair_r[r])

    for l, mask in enumerate(masks):
        if low := mask & free & -(mask & free):
            free ^= low
            pair_l[l] = r = low.bit_length() - 1
            pair_r[r] = l
    while good := bfs():
        for l in range(left):
            if pair_l[l] == -1:
                dfs(l, good)
    pairs = tuple((l, r) for l, r in enumerate(pair_l) if r != -1)
    return MatchingResult(len(pairs), pairs)


def full_matching(graph: RealizedGraph) -> MatchingResult:
    """``max_matching(full_edge_list(graph))``, solved on the instance's type bitmasks."""
    masks = graph.instance._compat_masks
    return _bitset_matching([masks[j] for j in graph.type_ids], graph.instance.resource_count)


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
    # relabeled vertex l is inv_l[l]; its mask is its sorted relabeled row's
    bits = [1 << r for r in perm_r]
    masks = [sum(map(bits.__getitem__, graph.adjacency[l])) for l in inv_l]
    result = _bitset_matching(masks, graph.right_count)
    pairs = tuple(sorted((inv_l[l], inv_r[r]) for l, r in result.pairs))
    return MatchingResult(size=result.size, pairs=pairs)
