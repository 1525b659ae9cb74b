"""Independent oracles and instance builders shared across tests.

The oracles deliberately avoid the library's own algorithms: matching is
solved by exhaustive bitmask dynamic programming, the sampling threshold by
bisection and by the one-set scalar solve that the batched solve replays
(``varopt_threshold_oracle``), and the expected-instance program by a generic
LP solver, by shortest augmenting paths (Edmonds-Karp) on the library's flow
network, or by the list-built Dinic whose augmentations the library's solver
replays.  The batch's VarOpt draws (``varopt_draws``) are checked against the
numpy array draw they were written from (``varopt_draw_oracle``), a random
subset against numpy's Floyd algorithm replayed on Python ints, the batched
mgs suggestions against the per-trial scalar mgs on each trial's own
generator (``mgs_suggestions_oracle`` and ``mgs_oracle``, which commits
arrival by arrival), and Hopcroft-Karp's pairs against the version without
the greedy first phase.
An instance's vectorized check is held to the per-type Python checks it
replaced (``instance_check_oracle``), the numpy generators to the
tuple-building ones (``FAMILY_ORACLES``), the trip builder to the
record-building one (``nyc_instance_oracle``), the type masks built in blocks
to one membership matrix of every pair (``type_masks_oracle``), the
shuffled matching's type masks to the bit-by-bit build
(``max_matching_shuffled_oracle``), and
ranking on rank-relabeled masks to the scan of every arrival's row
(``kvv_oracle``).  The learning steps' CSR solutions are held to the
dict-built versions they replaced (``monte_carlo_oracle``,
``per_copy_marginals_oracle``, ``group_by_type_oracle``,
``heavy_light_oracle`` and ``objective_oracle``), the first two on the
per-simulation loop that learning ran before its simulation blocks
(``simulated_optima``, on ``full_matching`` and ``max_matching_shuffled``);
``solution`` and ``solution_dict`` turn a ``(type, resource) -> value`` dict
into a solution and back, ``batch`` builds a ``BatchSampler`` from (ids, weights) rows,
``draw_and_score`` draws for one graph and scores the draw, and ``choice_cdf`` is
the cdf numpy's weighted choice looks its uniform up in.
``records_instance`` builds an instance from ``DemandType`` records.
``VarOptSampler`` is the batch's one-row form with its
input checked, which the single-set sampling tests build.  The
fractional-load diagnostics at the end scale an IPW-weighted subgraph down to
a fractional matching.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from functools import reduce
from itertools import count
from typing import Mapping

import numpy as np

from sparsematch.instance import PROB_TOL, DemandType, RealizedGraph, StochasticInstance, realize
from sparsematch.matching import BipartiteEdgeList, MatchingResult, bitset_matching, integer_ids
from sparsematch.rng import RngStream, StreamRows, substream_ids
from sparsematch.strategies import StrategyOutcome, draw, run_strategy
from sparsematch.varopt import BatchSampler
from sparsematch.weights import _FLOW_EPS, CopyMarginals, FractionalSolution

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


def choice_without_replacement(gen: np.random.Generator, d: int, k: int) -> set[int]:
    """The set ``gen.choice(d, k, replace=False)`` picks, 0 < k < d, if ``gen`` holds no
    unused 32-bit half.  For d <= 10000 numpy runs Floyd's algorithm, each index
    in [0, j] drawn by Lemire's method on ``next_uint32`` (a 64-bit word's low
    half, then its high half); this replays it on Python ints, pulling words as
    rejections need them.  numpy's final shuffle only reorders the set."""
    if d > 10000:  # where numpy may take a tail shuffle instead
        return set(gen.choice(d, k, replace=False).tolist())
    raw = gen.bit_generator.random_raw
    halves = (half for _ in count() for word in raw((k + 1) // 2).tolist()
              for half in (word & 0xFFFFFFFF, word >> 32))
    chosen: set[int] = set()
    for j in range(d - k, d):
        m = next(halves) * (j + 1)
        if m & 0xFFFFFFFF < j + 1:  # maybe biased: reject below 2^32 mod (j + 1)
            threshold = (0xFFFFFFFF - j) % (j + 1)
            while m & 0xFFFFFFFF < threshold:
                m = next(halves) * (j + 1)
        chosen.add(j if m >> 32 in chosen else m >> 32)
    return chosen


def arrival_rows(rng: RngStream, n: int) -> StreamRows:
    """The streams ``rng.substream("arrival", i)``, i < n, as rows."""
    ids = substream_ids(np.full(n, rng.stream_id, dtype=np.uint64), "arrival", np.arange(n))
    return StreamRows(np.full(n, rng.seed, dtype=np.uint64), ids)


def one_block_at_a_time(monkeypatch) -> None:
    """Make stream rows compute one Philox block per request, so that every row
    runs past its words and takes the path that computes more."""
    reserve = StreamRows._reserve
    monkeypatch.setattr(StreamRows, "_reserve", lambda self, rows, blocks:
                        reserve(self, rows, np.minimum(blocks, self.blocks[rows] + 1)))


def varopt_threshold_oracle(item_ids, weights, k: int) -> tuple[float, list[int], list[float]]:
    """The one-set threshold solve that ``varopt._solve`` runs for many rows at
    once, with its scalar split search: the threshold, and the positively
    weighted ids, by descending weight, ties by id, with their inclusion
    probabilities."""
    w = np.asarray(weights, dtype=float)
    pos_ids, pos_w = np.asarray(item_ids, dtype=np.int64)[w > 0], w[w > 0]
    order = np.lexsort((pos_ids, -pos_w))
    pos_ids, pos_w = pos_ids[order], pos_w[order]
    if k >= len(pos_ids):  # the budget covers the support: everything is deterministic
        return 1.0 / float(pos_w[-1]), pos_ids.tolist(), [1.0] * len(pos_ids)
    # Find how many leading items cap at probability one: the split is the
    # smallest h with (k - h) * w[h] <= sum(w[h:]).
    suffix = np.cumsum(pos_w[::-1])[::-1]
    h = 0
    while (k - h) * pos_w[h] > suffix[h]:
        h += 1
    threshold = (k - h) / float(suffix[h])
    return threshold, pos_ids.tolist(), np.minimum(1.0, threshold * pos_w).tolist()


class VarOptSampler(BatchSampler):
    """The threshold solution of one item set: the batch of that one row, with
    its input checked.  Solving costs a sort; drawing, a permutation plus a
    single uniform."""

    def __init__(self, item_ids, weights, k: int):
        if k < 1:
            raise ValueError(f"budget k must be >= 1, got {k}")
        self._item_ids = [int(i) for i in item_ids]
        if len(set(self._item_ids)) != len(self._item_ids) or min(self._item_ids, default=0) < 0:
            raise ValueError("item ids must be unique and >= 0")
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(self._item_ids),):
            raise ValueError("weights must align with item ids")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not (w > 0).any():
            raise ValueError("all item weights are zero")
        super().__init__(np.zeros(len(w), dtype=np.intp), np.array(self._item_ids, dtype=np.int64), w, 1, k)
        self.threshold = float(self.thresholds[0])

    @property
    def fixed_mask(self) -> int:
        """The ids at probability one as a bitmask, bit i for id i."""
        return self.fixed_masks[0]

    def probabilities(self) -> dict[int, float]:
        """Inclusion probability per item id, zero-weight items included at 0."""
        light = dict(zip(self.ids[0, :self.lengths[0]].tolist(), self.probs[0, :self.lengths[0]].tolist()))
        return {i: light.get(i, float(self.fixed_mask >> i & 1)) for i in self._item_ids}


def light_row(batch, q: int = 0) -> tuple[list[int], list[float]]:
    """Row q's light ids and probabilities, in the order the batch draws them from."""
    n = int(batch.lengths[q])
    return batch.ids[q, :n].tolist(), batch.probs[q, :n].tolist()


def batch_items(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The item arrays (row, ids, weights) and row count of item sets ``rows``, each (ids, weights)."""
    sizes = [len(ids) for ids, _ in rows]
    ids = np.array([i for ids, _ in rows for i in ids], dtype=np.int64)
    weights = np.array([w for _, weights in rows for w in weights], dtype=float)
    return np.repeat(np.arange(len(rows)), sizes), ids, weights, len(rows)


def batch(rows, k: int) -> BatchSampler:
    """The budget-k batch whose row q samples ``rows[q]``, an (ids, weights) pair."""
    return BatchSampler(*batch_items(rows), k)


def stacked(samplers):
    """One batch whose row q is the one row of ``samplers[q]``, whatever their budgets."""
    batch = BatchSampler(*batch_items([]), 1)
    batch.lengths = np.concatenate([s.lengths for s in samplers])
    batch.draws = np.concatenate([s.draws for s in samplers])
    batch.fixed_masks = [s.fixed_mask for s in samplers]
    batch.probs = np.zeros((len(samplers), max(1, batch.lengths.max())))
    batch.ids = np.zeros(batch.probs.shape, np.int64)
    for q, s in enumerate(samplers):
        n = s.lengths[0]
        batch.probs[q, :n], batch.ids[q, :n] = s.probs[0, :n], s.ids[0, :n]
    return batch


def varopt_draws(samplers, rng: RngStream) -> list[tuple[int, ...]]:
    """The ids, ascending, that ``varopt_sparsify`` reports for arrival i of a
    type with sampler ``samplers[i]``: drawn in one ``BatchSampler`` batch from
    ``rng.substream("arrival", i)``, or, for a sampler that draws no light
    item, its fixed ids with no stream.  A repeated sampler enters the batch
    once."""
    distinct = list({id(s): s for s in samplers}.values())
    slot = {id(s): q for q, s in enumerate(distinct)}
    batch, which = stacked(distinct), np.array([slot[id(s)] for s in samplers], dtype=np.int64)
    draws = [ids_of(s.fixed_mask) for s in samplers]
    rows = np.flatnonzero(batch.draws[which] > 0)
    if len(rows):
        streams = StreamRows(np.full(len(rows), rng.seed, dtype=np.uint64),
                             substream_ids(np.full(len(rows), rng.stream_id, dtype=np.uint64), "arrival", rows))
        for i, light in zip(rows.tolist(), batch.draw(which[rows], streams).tolist()):
            draws[i] = tuple(sorted(draws[i] + tuple(x for x in light if x >= 0)))
    return draws


def varopt_draw_oracle(sampler, rng) -> tuple[int, ...]:
    """A VarOpt draw as numpy array code, reading the sampler's threshold
    solution: the reference whose bytes ``BatchSampler.draw`` keeps."""
    ids = np.asarray(ids_of(sampler.fixed_mask), dtype=np.int64)
    light_ids, light_probs = (np.asarray(a) for a in light_row(sampler))
    m = sampler.draws[0]
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


_DEAD = -1  # BFS layer marker for exhausted vertices


def hopcroft_karp_oracle(graph: BipartiteEdgeList) -> MatchingResult:
    """``max_matching`` as it was before its first phase became a greedy pass:
    every phase, the first included, runs the layered BFS and then the DFS from
    each free left vertex.  Its (size, pairs) are the ones the kernel keeps."""
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


def _max_flow(adj: list[list[int]], to: list[int], cap: list[float], source: int, sink: int) -> None:
    """Dinic's blocking flows on residual arcs ``to``/``cap``; arc ``e ^ 1`` reverses arc ``e``."""
    while True:
        level = [-1] * len(adj)
        level[source] = 0
        queue = [source]
        for u in queue:
            for e in adj[u]:
                if level[to[e]] < 0 and cap[e] > _FLOW_EPS:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[sink] < 0:
            return
        next_arc = [0] * len(adj)
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                bottleneck = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= bottleneck
                    cap[e ^ 1] += bottleneck
                path.clear()
                u = source
            arcs, i, deeper = adj[u], next_arc[u], level[u] + 1
            while i < len(arcs) and not (cap[arcs[i]] > _FLOW_EPS and level[to[arcs[i]]] == deeper):
                i += 1
            next_arc[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = to[arcs[i]]
            elif u == source:
                break
            else:
                u = to[path.pop() ^ 1]
                next_arc[u] += 1


def dinic_lp(instance: StochasticInstance) -> dict[tuple[int, int], float]:
    """``solve_expected_lp``'s ``x`` as it was before its bitset first phase and
    numpy residual arrays: Dinic's blocking flows on Python lists, every phase
    scanning each node's full adjacency.  Its values, and the objective they
    give (``objective_oracle``), are the ones the library's solver keeps to
    the bit."""
    m = instance.type_count
    # Arc pairs per type: source -> type, then type -> resource in compatibility order;
    # then resource -> sink.  Node 0 is the source, 1 + j type j, 1 + m + i resource i.
    sink = 1 + m + instance.resource_count
    adj: list[list[int]] = [[] for _ in range(sink + 1)]
    to: list[int] = []
    cap: list[float] = []
    masses = [instance.arrivals * t.probability for t in instance.types]
    type_arcs = []
    for j, (t, mass) in enumerate(zip(instance.types, masses)):
        e = len(to)
        arcs = range(e + 2, e + 2 + 2 * len(t.compatible), 2)
        type_arcs.append(arcs)
        adj[0].append(e)
        adj[1 + j] = [e + 1, *arcs]
        to += [1 + j, 0]
        for a, i in zip(arcs, t.compatible):
            adj[1 + m + i].append(a + 1)
            to += [1 + m + i, 1 + j]
        cap += [mass, 0.0] * (1 + len(t.compatible))
    for i in range(instance.resource_count):
        adj[1 + m + i].append(len(to))
        adj[sink].append(len(to) + 1)
        to += [sink, 1 + m + i]
        cap += [1.0, 0.0]

    _max_flow(adj, to, cap, 0, sink)
    x = {}
    for j, (t, mass, arcs) in enumerate(zip(instance.types, masses, type_arcs)):
        for a, i in zip(arcs, t.compatible):
            value = cap[a ^ 1] / mass
            if value > _FLOW_EPS:
                x[(j, i)] = value
    return x


def instance_check_oracle(resources, types, arrivals: int) -> list[tuple[float, tuple[int, ...]]]:
    """The checks an instance made before its CSR store, one type at a time in
    Python: each (probability, ids) of ``types`` as ``DemandType`` checked itself
    when built, then the instance's loop.  The checked (probability, ids) rows,
    or the ValueError the vectorized check must raise."""
    rows = []
    for probability, compatible in types:
        ids = tuple(compatible)
        try:
            ids = integer_ids(ids)
        except TypeError:
            raise ValueError(f"compatibility list {ids!r} holds an id that is not an integer") from None
        if not 0.0 <= probability <= 1.0 + PROB_TOL:
            raise ValueError(f"probability {probability} outside [0, 1]")
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ValueError(f"compatibility list {ids} must be strictly ascending")
        rows.append((probability, ids))
    resources = tuple(resources)
    if len(set(resources)) != len(resources):
        raise ValueError("resource identifiers must be unique")
    if arrivals < 0:
        raise ValueError("arrival count must be nonnegative")
    if not rows:
        raise ValueError("at least one demand type is required")
    total = 0.0
    for j, (probability, ids) in enumerate(rows):
        if ids and not (0 <= ids[0] and ids[-1] < len(resources)):
            raise ValueError(f"type {j} references resource indices outside [0, {len(resources)})")
        total += probability
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"type probabilities sum to {total}, not 1")
    return rows


def block_oracle(n: int) -> tuple[tuple[str, ...], list[tuple[int, ...]]]:
    """``gen_partitioned_block``'s resources and rows, built as tuples."""
    b1 = 3 * n // 10
    b2 = 4 * n // 10
    rows_1 = tuple(range(b1))
    rows_2 = tuple(range(b1, b1 + b2))
    compat = []
    for j in range(n):
        if j < b1:
            edges = (j,)
        elif j < b1 + b2:
            edges = tuple(sorted(set(rows_1) | {j}))
        else:
            edges = tuple(sorted(set(rows_2) | {j}))
        compat.append(edges)
    return tuple(f"v{i}" for i in range(n)), compat


def triangular_oracle(n: int) -> tuple[tuple[str, ...], list[tuple[int, ...]]]:
    """``gen_kvv_triangular``'s resources and rows, built as tuples."""
    return tuple(f"v{i}" for i in range(n)), [tuple(range(j, n)) for j in range(n)]


def bahmani_oracle(n: int) -> tuple[tuple[str, ...], list[tuple[int, ...]]]:
    """``gen_bahmani``'s resources and rows, built as tuples."""
    m = int(math.floor(n / (1.0 + 1.0 / math.e) + 0.5))
    a1 = n - m
    a1_nodes = tuple(range(m, m + a1))
    a2_nodes = tuple(range(m))
    compat = [tuple(sorted((j,) + a1_nodes)) for j in range(m)]
    compat.extend([a2_nodes] * a1)
    return tuple(f"a2_{i}" for i in range(m)) + tuple(f"a1_{i}" for i in range(a1)), compat


def tsm_oracle(n: int) -> tuple[tuple[str, ...], list[tuple[int, ...]]]:
    """``gen_tsm_tight``'s resources and rows, built as tuples."""
    cycles = n // 4
    block = tuple(range(3 * cycles, 4 * cycles))  # K nodes
    compat = []
    for c in range(cycles):
        u, v, w = 3 * c, 3 * c + 1, 3 * c + 2
        compat.append(tuple(sorted((u, v) + block)))  # x_c
        compat.append(tuple(sorted((v, w))))  # y_c
        compat.append(tuple(sorted((u, w))))  # z_c
    compat.extend([tuple(3 * c + 2 for c in range(cycles))] * cycles)  # L group
    resources = []
    for c in range(cycles):
        resources.extend((f"u{c}", f"v{c}", f"w{c}"))
    resources.extend(f"k{c}" for c in range(cycles))
    return tuple(resources), compat


# The generators as they were before they built the CSR store with numpy; every
# type is uniform, at probability 1 / len(rows).
FAMILY_ORACLES = {"block": block_oracle, "triangular": triangular_oracle, "bahmani": bahmani_oracle,
                  "tsm": tsm_oracle}


def type_masks_oracle(instance: StochasticInstance, relabel: np.ndarray | None = None) -> list[int]:
    """``StochasticInstance.type_masks`` in one pass: the m x R membership matrix
    of every compatible pair at once, each row packed into an int."""
    _, types, ids = instance.compat_pairs()
    member = np.zeros((instance.type_count, instance.resource_count), dtype=bool)
    member[types, ids if relabel is None else relabel[ids]] = True
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(member, axis=1, bitorder="little")]


def max_matching_shuffled_oracle(graph: RealizedGraph, rng: RngStream) -> MatchingResult:
    """``max_matching_shuffled`` with every arrival's relabeled mask built bit by
    bit from its type's ``compatible`` tuple."""
    right = graph.instance.resource_count
    gen = rng.generator
    perm_l = gen.permutation(graph.n)
    perm_r = gen.permutation(right).tolist()
    inv_l, inv_r = np.argsort(perm_l).tolist(), np.argsort(perm_r).tolist()
    bits = [1 << r for r in perm_r]
    types, type_ids = graph.instance.types, graph.type_ids
    masks = [sum(map(bits.__getitem__, types[type_ids[l]].compatible)) for l in inv_l]
    result = bitset_matching(masks, right)
    return MatchingResult(result.size, tuple(sorted((inv_l[l], inv_r[r]) for l, r in result.pairs)))


def full_matching(graph: RealizedGraph) -> MatchingResult:
    """Maximum matching of a full realization: each arrival's mask is its type's."""
    masks = graph.instance._compat_masks
    return bitset_matching([masks[j] for j in graph.type_ids], graph.instance.resource_count)


def max_matching_shuffled(graph: RealizedGraph, rng: RngStream) -> MatchingResult:
    """Maximum matching of a full realization after a uniform random
    relabeling of both sides.

    The relabeled graph is solved canonically and the matching mapped back, so
    the result is a maximum matching of the realization whose tie-breaking
    among optimal matchings is randomized by the relabeling.
    """
    right = graph.instance.resource_count
    gen = rng.generator
    perm_l = gen.permutation(graph.n)
    perm_r = gen.permutation(right)
    inv_l, inv_r = np.argsort(perm_l).tolist(), np.argsort(perm_r).tolist()
    # relabeled vertex l is arrival inv_l[l]; its mask is its type's row with resource i at bit perm_r[i]
    type_masks, type_ids = graph.instance.type_masks(perm_r), graph.type_ids
    masks = [type_masks[type_ids[l]] for l in inv_l]
    result = bitset_matching(masks, right)
    pairs = tuple(sorted((inv_l[l], inv_r[r]) for l, r in result.pairs))
    return MatchingResult(size=result.size, pairs=pairs)


def simulated_optima(instance: StochasticInstance, simulations: int, rng: RngStream,
                     shuffled: bool):
    """The learning steps' simulations one at a time, as ``weights._simulated_optima``
    ran them before its blocks: each nonempty realization of ``rng.substream("sim",
    s)``, as its arrivals' type ids, with the arrivals and resources of its offline
    maximum matching's pairs, ties broken on ``rng.substream("shuffle", s)`` if
    ``shuffled``."""
    if simulations < 1:
        raise ValueError("simulation count must be >= 1")
    for sim in range(simulations):
        graph = realize(instance, rng.substream("sim", sim))
        if graph.n == 0:
            continue
        result = max_matching_shuffled(graph, rng.substream("shuffle", sim)) if shuffled else full_matching(graph)
        yield np.array(graph.type_ids, dtype=np.int64), *np.array(result.pairs, dtype=np.int64).reshape(-1, 2).T


def kvv_oracle(graph: RealizedGraph, rng: RngStream) -> int:
    """The size of ``kvv_ranking``'s matching, scanning each arrival's row for
    its best-ranked free resource under the same ``permutation`` draw."""
    rank = rng.generator.permutation(graph.instance.resource_count).tolist()
    taken = [False] * graph.instance.resource_count
    matched = 0
    for j in graph.type_ids:
        free = [r for r in graph.instance.row(j) if not taken[r]]
        if free:  # ranks are distinct, so the best is unique
            taken[min(free, key=rank.__getitem__)] = True
            matched += 1
    return matched


def choice_cdf(p: np.ndarray) -> list[float]:
    """The cdf in which ``gen.choice(len(p), p=p)`` looks up ``bisect_right(cdf, gen.random())``."""
    cdf = p.cumsum()
    return (cdf / cdf[-1]).tolist()


def second_choices(guidance: CopyMarginals, j: int, exclude: int | None):
    """Type j's second-copy resources other than ``exclude`` and the ``choice_cdf``
    of their renormalized weights, for the scalar mgs oracle."""
    ids, values, cdf = guidance.second.get(j, ((), None, None))
    if exclude in ids:
        keep = [p for p, i in enumerate(ids) if i != exclude]
        ids = tuple(ids[p] for p in keep)
        cdf = choice_cdf(values[keep] / values[keep].sum()) if ids else None
    return ids, cdf


def sample_weighted(ids, cdf, gen: np.random.Generator) -> int | None:
    """The resource of ``ids`` that ``gen.choice(len(ids), p=probs)`` draws, from
    one uniform looked up in ``cdf``, the ``choice_cdf`` of ``probs``."""
    return ids[bisect_right(cdf, gen.random())] if ids else None


def mgs_suggestions_oracle(instance: StochasticInstance, guidance: CopyMarginals,
                           rng: RngStream) -> tuple[list[int], list[int]]:
    """Every type's (first, second) suggestion, -1 for none, drawn one scalar
    draw at a time on ``rng.substream("guidance")``'s own numpy generator: the
    per-trial mgs that ``strategies.mgs`` replays for many trials at once."""
    gen = rng.substream("guidance").generator
    first, second = [], []
    for j in range(instance.type_count):
        ids, _, cdf = guidance.first.get(j, ((), None, None))
        chosen = sample_weighted(ids, cdf, gen)
        if chosen is None:
            compatible = instance.row(j)
            if compatible:
                chosen = compatible[gen.choice(len(compatible))]
        other = sample_weighted(*second_choices(guidance, j, chosen), gen)
        first.append(-1 if chosen is None else int(chosen))
        second.append(-1 if other is None else int(other))
    return first, second


def mgs_oracle(graph: RealizedGraph, guidance: CopyMarginals, rng: RngStream) -> StrategyOutcome:
    """The per-trial mgs, arrival by arrival: the c-th realized copy of a type
    commits to its c-th suggestion if that resource is still free; copies
    beyond the second go unmatched."""
    suggestions = mgs_suggestions_oracle(graph.instance, guidance, rng)
    taken = [False] * graph.instance.resource_count
    copies_seen: Counter = Counter()
    matched = 0
    for type_id in graph.type_ids:
        copies_seen[type_id] += 1
        copy = copies_seen[type_id]
        choice = suggestions[copy - 1][type_id] if copy <= 2 else -1
        if choice >= 0 and not taken[choice]:
            taken[choice] = True
            matched += 1
    return StrategyOutcome(matched, matched)


def records_instance(resources, types, arrivals: int) -> StochasticInstance:
    """The instance whose type j is the ``DemandType`` record ``types[j]``: the
    records flattened into CSR arrays for the one constructor."""
    types = tuple(types)
    return StochasticInstance(resources, np.cumsum([0, *(len(t.compatible) for t in types)]),
                              np.fromiter((i for t in types for i in t.compatible), dtype=np.int64),
                              [t.probability for t in types], arrivals)


def nyc_instance_oracle(trips, zones, t, rng: RngStream) -> StochasticInstance:
    """``build_nyc_instance`` as it was before it built CSR arrays: the same
    supply draw, then one ``DemandType`` record per pick-up zone."""
    from sparsematch.generators import HALF_WINDOW, EmptyWindow

    drop_zones = [trip.dropoff_zone for trip in trips if t - HALF_WINDOW <= trip.dropoff_time < t]
    pick_zones = [trip.pickup_zone for trip in trips if t <= trip.pickup_time < t + HALF_WINDOW]
    if not (drop_zones and pick_zones):
        raise EmptyWindow(f"no events around {t}")
    car_zone_ids = sorted(set(drop_zones))
    car_probs = [drop_zones.count(z) / len(drop_zones) for z in car_zone_ids]
    sampled = rng.generator.choice(len(car_zone_ids), size=len(drop_zones), replace=True, p=car_probs)
    car_zones = tuple(car_zone_ids[s] for s in sampled)
    types = [DemandType(pick_zones.count(zone) / len(pick_zones),
                        tuple(i for i, cz in enumerate(car_zones) if zones.compatible(zone, cz)))
             for zone in sorted(set(pick_zones))]
    return records_instance(tuple(f"car{i}@{z}" for i, z in enumerate(car_zones)), types, len(drop_zones))


def uniform_instance(compat_lists, arrivals: int) -> StochasticInstance:
    p = 1.0 / len(compat_lists)
    types = tuple(DemandType(p, tuple(sorted(c))) for c in compat_lists)
    resources = tuple(f"v{i}" for i in range(1 + max(max(c) for c in compat_lists if c)))
    return records_instance(resources, types, arrivals)


def bundled_trip_instances() -> list[StochasticInstance]:
    """The instance of every buildable interval on the bundled trip sample's default grid."""
    from pathlib import Path

    from sparsematch.generators import EmptyWindow, build_nyc_instance, ingest_trips
    from sparsematch.harness import default_interval_starts
    from sparsematch.rng import RngStream

    data = Path(__file__).resolve().parents[1] / "data"
    trips, zones = ingest_trips(str(data / "nyc_sample_trips.csv"), str(data / "nyc_sample_zones.csv"))
    instances = []
    for j, start in enumerate(default_interval_starts(trips)):
        try:
            instances.append(build_nyc_instance(trips, zones, start, RngStream(0).substream("supply", j)))
        except EmptyWindow:
            continue
    return instances


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
    heavy = [edge for edge, value in sorted(solution_dict(x).items()) if value > 1.0 / k]
    return heavy, [edge for edge in sorted(solution_dict(x)) if edge not in heavy]


def solution(instance: StochasticInstance, x: Mapping[tuple[int, int], float]) -> FractionalSolution:
    """The checked solution with ``x[(j, i)]`` at type j and resource i."""
    return FractionalSolution.build(instance, [j for j, _ in x], [i for _, i in x], list(x.values()))


def solution_dict(x: FractionalSolution) -> dict[tuple[int, int], float]:
    """A solution's entries as ``(type, resource) -> value``, in (type, resource) order."""
    return dict(zip(zip(x.types.tolist(), x.ids.tolist()), x.values.tolist()))


def support_of(x: FractionalSolution, type_id: int) -> tuple[list[int], np.ndarray]:
    """Type ``type_id``'s resources in the support of ``x``, ascending, and their values."""
    a, b = x.offsets[type_id], x.offsets[type_id + 1]
    return x.ids[a:b].tolist(), x.values[a:b]


def group_by_type_oracle(values: Mapping[tuple[int, int], float]):
    """type -> (resources ascending, their weights, weights normalized to
    probabilities) of a positive ``(type, resource) -> weight`` map: the
    per-type regrouping that solutions and copy marginals were read through
    before their CSR store."""
    grouped: dict[int, list[tuple[int, float]]] = {}
    for (j, i), v in sorted(values.items()):
        grouped.setdefault(j, []).append((i, v))
    by_type = {}
    for j, pairs in grouped.items():
        weights = np.asarray([v for _, v in pairs], dtype=float)
        by_type[j] = (tuple(i for i, _ in pairs), weights, weights / weights.sum())
    return by_type


def objective_oracle(instance: StochasticInstance, x: Mapping[tuple[int, int], float]) -> float:
    """The objective of ``x``, added left to right in the map's order as the
    dict-built solution did on Python 3.11 (the builtin sum compensates from 3.12 on)."""
    mass = (instance.arrivals * instance.probs).tolist()
    return reduce(operator.add, (mass[j] * v for (j, _), v in x.items()), 0.0)


def monte_carlo_oracle(instance: StochasticInstance, simulations: int,
                       rng: RngStream) -> dict[tuple[int, int], float]:
    """``monte_carlo_weights``'s ``x`` as it was built in dicts: match counts per
    (type, resource), grouped by type, the uniform fallback, then each
    overloaded resource's column scaled back."""
    m = instance.type_count
    arrivals_of = np.zeros(m, dtype=np.int64)
    match_count: dict[tuple[int, int], int] = {}
    for type_ids, arrival, resource in simulated_optima(instance, simulations, rng, shuffled=True):
        type_ids = type_ids.tolist()
        arrivals_of += np.bincount(type_ids, minlength=m)
        for l, r in zip(arrival.tolist(), resource.tolist()):
            key = (type_ids[l], r)
            match_count[key] = match_count.get(key, 0) + 1

    matched = group_by_type_oracle(match_count)
    x: dict[tuple[int, int], float] = {}
    for j in range(m):
        if j in matched:
            ids, counts, _ = matched[j]
            x.update({(j, i): c / arrivals_of[j] for i, c in zip(ids, counts)})
        else:
            ids = instance.row(j)
            x.update({(j, i): 1.0 / len(ids) for i in ids})
    mass = (instance.arrivals * instance.probs).tolist()
    load = dict.fromkeys(range(instance.resource_count), 0.0)
    for (j, i), v in x.items():
        load[i] += mass[j] * v
    scale = {i: (1.0 / y if y > 1.0 else 1.0) for i, y in load.items()}
    return {(j, i): float(v * scale[i]) for (j, i), v in x.items()}


def per_copy_marginals_oracle(instance: StochasticInstance, simulations: int, rng: RngStream):
    """``per_copy_marginals``'s first and second copy as they were built in dicts,
    each through ``group_by_type_oracle``."""
    counts: tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]] = ({}, {})
    for type_ids, arrival, resource in simulated_optima(instance, simulations, rng, shuffled=False):
        match_of = dict(zip(arrival.tolist(), resource.tolist()))
        copies_seen: dict[int, int] = {}
        for l, type_id in enumerate(type_ids.tolist()):
            copy = copies_seen.get(type_id, 0) + 1
            copies_seen[type_id] = copy
            if copy <= 2 and l in match_of:
                bucket = counts[copy - 1]
                key = (type_id, match_of[l])
                bucket[key] = bucket.get(key, 0) + 1
    return group_by_type_oracle(counts[0]), group_by_type_oracle(counts[1])


def heavy_light_oracle(instance: StochasticInstance, x: Mapping[tuple[int, int], float],
                       k: int) -> tuple[float, float]:
    """``heavy_light``'s (Z_H, Z_L) as it summed a dict-built solution."""
    mass = (instance.arrivals * instance.probs).tolist()
    z_heavy = z_light = 0.0
    for (j, _), value in sorted(x.items()):
        if value > 1.0 / k:
            z_heavy += mass[j] * value
        else:
            z_light += mass[j] * value
    return z_heavy, z_light


def ids_of(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending: the resources a sparsifier's bitmask reports."""
    return tuple(r for r in range(mask.bit_length()) if mask >> r & 1)


def row_graph(rows, right: int) -> BipartiteEdgeList:
    """The edge list whose row l is ``rows[l]``, entries in the given order."""
    return BipartiteEdgeList(len(rows), right, [(l, r) for l, row in enumerate(rows) for r in row])


def draw_and_score(graph: RealizedGraph, config, rng: RngStream, guidance=None) -> StrategyOutcome:
    """``run_strategy`` on what ``draw`` draws for one graph alone."""
    (drawn,) = draw([graph], config, [rng], guidance)
    return run_strategy(graph, config, drawn)


def realized_edge_list(graph: RealizedGraph) -> BipartiteEdgeList:
    """Every compatibility edge of a realization, arrivals on the left: each
    arrival's row is its type's ascending row of the store."""
    return row_graph([graph.instance.row(j) for j in graph.type_ids], graph.instance.resource_count)


def varopt_ipw(graph, x, k: int, rng, masks) -> dict[tuple[int, int], float]:
    """IPW weight ``x / pi`` of every (arrival, resource) edge in the bitmasks
    ``varopt_sparsify`` reported, one per arrival.

    Each arrival's sample is redrawn by ``varopt_draw_oracle`` from the same
    ``rng.substream("arrival", i)`` the sparsifier used, so it must select
    exactly the reported resources.  Every realized type needs support in
    ``x`` (no uniform fallback).
    """
    samplers = {}
    ipw = {}
    for i, mask in enumerate(masks):
        row, type_id = ids_of(mask), graph.type_ids[i]
        if type_id not in samplers:
            ids, weights = support_of(x, type_id)
            sampler = VarOptSampler(ids, weights, k)
            samplers[type_id] = sampler, dict(zip(ids, weights)), sampler.probabilities()
        sampler, weight, prob = samplers[type_id]
        assert varopt_draw_oracle(sampler, rng.substream("arrival", i)) == row
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
