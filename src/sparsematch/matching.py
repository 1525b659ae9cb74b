"""Exact maximum bipartite matching.

A graph is one bitmask per left vertex, bit r for right vertex r: an
arrival's type mask in a full realization, or the resources a sparsifier
reports for it.  Edge pairs from outside the package enter through the
validating ``BipartiteEdgeList``, whose ids ``integer_ids`` checks and whose
rows ``max_matching`` turns into masks.

``partners`` is the one Hopcroft-Karp; it returns each left vertex's
partner, which weight learning reads directly.  Its first phase, where every
left vertex is free, is one greedy pass.  Each later phase is a layered BFS,
a backward pass that drops the dead ends (the vertices from which no layered
path reaches a free vertex), then a search from each free root; every search
takes the lowest candidate bit, so its pairs are those of Hopcroft-Karp
scanning the ascending rows (tests/helpers.py keeps that version as the
oracle).  Two more readers:
``bitset_matching`` builds the pairs, for edge lists and the tests;
``matching_size`` counts the matched left vertices and builds no pair, which
the trial kernel scores with.  Both ``partners`` and ``matching_size`` take
an optional ``most``, a bound the caller knows the maximum cannot exceed
(the coordinator's is the trial's offline size): the phases stop as soon as
the matching reaches it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence


def integer_ids(ids) -> tuple[int, ...]:
    """``ids`` as Python ints, or TypeError: Python and numpy integers pass;
    bools, floats, strings, None and numpy bools do not."""
    if bool in map(type, ids):
        raise TypeError("a bool is not an integer id")
    return tuple(map(operator.index, ids))


class BipartiteEdgeList:
    """Bipartite graph over [0, left) x [0, right): ``adjacency[l]`` holds the
    right neighbours of left vertex l.

    The constructor takes edge pairs from outside the package and rejects ids
    that are not integers (bools and floats included), pairs out of range and
    duplicates.
    """

    __slots__ = ("right_count", "adjacency")

    def __init__(self, left_count: int, right_count: int, edges: Iterable[tuple[int, int]]):
        if left_count < 0 or right_count < 0:
            raise ValueError("vertex counts must be nonnegative")
        rows: list[list[int]] = [[] for _ in range(left_count)]
        seen = set()
        for l, r in edges:
            try:
                l, r = integer_ids((l, r))
            except TypeError:
                raise ValueError(f"edge ({l!r}, {r!r}) is not a pair of integers") from None
            if not (0 <= l < left_count and 0 <= r < right_count):
                raise ValueError(f"edge ({l}, {r}) out of range")
            if (l, r) in seen:
                raise ValueError(f"duplicate edge ({l}, {r})")
            seen.add((l, r))
            rows[l].append(r)
        self.right_count, self.adjacency = right_count, tuple(map(tuple, rows))

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


def partners(masks: Sequence[int], right: int, most: int | None = None) -> list[int]:
    """Each left vertex's partner in a maximum-cardinality matching, or -1; left
    vertex l's neighbours are the set bits of ``masks[l]``, all below ``right``.
    With ``most``, a bound the caller knows the maximum cannot exceed, the
    phases stop as soon as the matching reaches it: the matching is maximum if
    the bound holds, and of at least ``most`` pairs in any case.

    Deterministic; O(E sqrt(V)) word operations.  Phase 1 is a greedy pass: with
    every left vertex free at layer 0, no path can pass a matched vertex, so
    each search takes its lowest free bit.  Then the BFS runs level by level from
    ``roots``, the free left vertices in ascending order.  ``good[d]`` holds the
    matched right vertices whose partners are alive at layer d + 1; within one
    search these classes only shrink, so the lowest candidate bit is the
    neighbour a scan of the ascending row takes next.  Only a root's own search
    can match it, so a root leaves ``roots`` when it augments and stays when it
    fails: a longer path may start there in a later phase.

    Before the searches, a backward pass drops a phase's dead ends: from the
    frontier layer t down to 0, a right vertex stays in ``good[d]`` only if its
    partner's mask meets ``free`` or the pruned ``good[d + 1]`` (``good[t + 1]``
    is empty), and a root whose mask meets neither ``free`` nor ``good[0]``
    fails with no search.  The pairs are unchanged.  What a vertex at depth d
    can use, ``free | good[d]``, only shrinks within a phase: an augmentation
    moves ``path[i + 1]`` into ``good[i]``, but that bit was free, or first
    reached past layer i, so no vertex at depth i gains it as a candidate; all
    else removes bits.  So a vertex that cannot reach a free vertex at the
    start of a phase never can; a search would enter it only to fail and drop
    it, and dropping it first changes no lowest live bit, no augmentation and
    no order of the failed roots.
    """
    left = len(masks)
    pair_l, pair_r = [-1] * left, [-1] * right
    free, roots = (1 << right) - 1, []  # unmatched right vertices, free left ones
    for l, mask in enumerate(masks):
        if c := mask & free:
            low = c & -c
            free ^= low
            pair_l[l] = r = low.bit_length() - 1
            pair_r[r] = l
        else:
            roots.append(l)
    size = left - len(roots)
    if free == (1 << right) - 1 or most is not None and size >= most:  # no edge, or the bound is met
        return pair_l
    while True:
        level, seen, good, levels = roots, free, [], []
        while level:
            reach = 0
            for l in level:
                reach |= masks[l]
            new = reach & ~seen  # matched right vertices first reached here
            seen |= new
            good.append(new)
            level = []
            while new:
                low = new & -new
                level.append(pair_r[low.bit_length() - 1])
                new ^= low
            levels.append(level)  # levels[d] holds the partners of good[d]
            if reach & free:
                break
        else:  # no free right vertex is reachable: the matching is maximum
            return pair_l
        live = free  # good[t + 1] is empty: the frontier layer is not expanded
        for d in range(len(good) - 1, -1, -1):  # dead ends leave, deepest layer first
            for l in levels[d]:
                if not masks[l] & live:
                    good[d] ^= 1 << pair_l[l]
            live = free | good[d]
        good.append(0)
        failed = []
        for root in roots:
            if not masks[root] & live:
                failed.append(root)
                continue
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
                    size += 1
                    if size == most:
                        return pair_l
                    break
                stack.append(pair_r[r])
            else:
                failed.append(root)
        roots = failed


def bitset_matching(masks: Sequence[int], right: int) -> MatchingResult:
    """Maximum-cardinality matching; left vertex l's neighbours are the set bits
    of ``masks[l]``, all below ``right``."""
    pairs = tuple((l, r) for l, r in enumerate(partners(masks, right)) if r != -1)
    return MatchingResult(len(pairs), pairs)


def matching_size(masks: Sequence[int], right: int, most: int | None = None) -> int:
    """``bitset_matching(masks, right).size``, without building its pairs; with
    ``most``, the size of ``partners``' matching bounded by it."""
    pair_l = partners(masks, right, most)
    return len(pair_l) - pair_l.count(-1)


def max_matching(graph: BipartiteEdgeList) -> MatchingResult:
    """``bitset_matching`` of an edge list's rows."""
    return bitset_matching([sum(1 << r for r in row) for row in graph.adjacency], graph.right_count)
