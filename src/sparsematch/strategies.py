"""The evaluated matching strategies: the one place each draws, and its scoring.

Local sparsifiers (guided fixed-size sampling and uniform random subsets)
prune each arrival's edges independently and report the kept resources as one
bitmask per arrival, whose maximum matching's size a central coordinator
reads (``matching.matching_size`` on the reports in ascending popcount order,
its phases stopped at the trial's offline size when the kernel passes it as
``most``, or the size of the reports' union when no arrival reports two
resources, as every LP-guided VarOpt report does);
online baselines (ranking, two-suggestion guidance) commit irrevocably per
arrival; the offline optimum, which sees the whole realization, is the trial
kernel's own matching size (``harness.score_trials``).  Per-arrival
randomness is drawn from substreams keyed by arrival index, so one arrival's
selection never depends on the other arrivals.

A trial has two stages, as in the paper: ``draw`` is the one place a strategy
draws, for many trials of one instance at once, and ``run_strategy`` only
scores one trial's draw.  The two sparsifiers draw every drawing arrival as a
row of ``rng.StreamRows``, in chunks of ``CHUNK_ROWS``, and arrivals whose
report is fixed get no stream; mgs draws on each trial's guidance stream as a
row of ``rng.StreamRows``; kvv keeps numpy's ``permutation`` and draws its
type masks relabeled by those ranks, one ``type_masks`` call per block of
trials that ``MASK_CELLS`` cells hold, handed out as they are scored.  kvv is
scored by ranking on its relabeled masks, mgs by committing to its
suggestions and a budgeted strategy by the coordinator's matching of its
reports.  Every strategy reads the instance's CSR store and type masks alone,
never its ``types`` view.

``STRATEGY_NAMES`` declares the strategies; those in ``BUDGETED`` take a
budget k and the others take none, those in ``GUIDED`` read guidance learned
once per experiment, which ``draw`` requires.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .instance import MASK_CELLS, RealizedGraph, StochasticInstance, mask_ints
from .matching import matching_size
from .rng import RngStream, StreamRows, substream_ids
from .varopt import BatchSampler
from .weights import CopyMarginals, FractionalSolution


STRATEGY_NAMES = ("offline", "kvv", "random", "mgs", "varopt")
BUDGETED = {"random", "varopt"}
GUIDED = {"mgs", "varopt"}


@dataclass(frozen=True)
class StrategyOutcome:
    """Matched count and number of reported (or committed) edges."""

    matched: int
    sparsified_edges: int


@dataclass(frozen=True, order=True)
class StrategyConfig:
    """One strategy and its budget k, given exactly for the budgeted ones, so
    configs sort by name, then budget."""

    strategy: str
    k: int | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGY_NAMES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if (self.k is not None) != (self.strategy in BUDGETED) or self.k is not None and self.k < 1:
            raise ValueError(f"strategy {self.strategy!r} with k={self.k}: a budget k >= 1 goes "
                             f"with {' and '.join(sorted(BUDGETED))}, and only with them")

    @property
    def label(self) -> str:
        return self.strategy if self.k is None else f"{self.strategy} k={self.k}"


def varopt_samplers(instance: StochasticInstance, x: FractionalSolution, k: int) -> BatchSampler:
    """The budget-k samplers of every type, row q for type q, solved in one
    batch once for every trial of an experiment.

    A type samples its support in ``x`` with probabilities proportional (after
    thresholding) to the fractional values x_tj; a type without support falls
    back to uniform weights over its compatibility set, and a type with
    neither gets an empty row.
    """
    degree, types, ids = instance.compat_pairs()
    fallback = (np.diff(x.offsets) == 0)[types]
    return BatchSampler(np.concatenate([x.types, types[fallback]]), np.concatenate([x.ids, ids[fallback]]),
                        np.concatenate([x.values, 1.0 / degree[types[fallback]]]), instance.type_count, k)


CHUNK_ROWS = 1024  # arrival draws per vectorized pass, which bounds the batch's memory


def _reports(graphs: Sequence[RealizedGraph], rngs: Sequence[RngStream], masks: list[int],
             width: np.ndarray, draw: Callable[[np.ndarray, StreamRows], np.ndarray]) -> list[list[int]]:
    """Per graph, one resource bitmask per arrival: its type's entry of ``masks``,
    and for an arrival whose type draws (``width[type_id] > 0`` columns of ids)
    that entry with the bits of the ids ``draw(type_ids, streams)`` picks from
    its stream ``rngs[g].substream("arrival", i)``.  The drawing arrivals of all
    graphs are drawn widest first, in chunks of at most ``CHUNK_ROWS``."""
    sizes = np.array([graph.n for graph in graphs], dtype=np.int64)
    ends = np.cumsum(sizes)
    types = np.fromiter(chain.from_iterable(graph.type_ids for graph in graphs), np.int64, int(sizes.sum()))
    flat = np.array(masks, dtype=object)[types]  # every arrival's report, graph after graph
    cells = np.flatnonzero(width[types] > 0)
    cells = cells[np.argsort(-width[types[cells]], kind="stable")]
    if len(cells):
        size = graphs[0].instance.resource_count // 8 + 1  # bytes of a mask
        base = np.frombuffer(b"".join(m.to_bytes(size, "little") for m in masks), np.uint8).reshape(-1, size)
        seeds = np.array([rng.seed for rng in rngs], dtype=np.uint64)
        parents = np.array([rng.stream_id for rng in rngs], dtype=np.uint64)
    for s in range(0, len(cells), CHUNK_ROWS):
        cell = cells[s:s + CHUNK_ROWS]
        g = np.searchsorted(ends, cell, side="right")
        i = cell - (ends - sizes)[g]
        ids = draw(types[cell], StreamRows(seeds[g], substream_ids(parents[g], "arrival", i)))
        bits, (row, col) = base[types[cell]], np.nonzero(ids >= 0)
        # a row's drawn ids are distinct, so the bits they set in a byte sum to their OR
        bits |= np.bincount(row * size + (ids[row, col] >> 3), 1 << (ids[row, col] & 7),
                            bits.size).astype(np.uint8).reshape(bits.shape)
        flat[cell] = np.fromiter(mask_ints(bits), dtype=object, count=len(cell))
    return [flat[end - n:end].tolist() for n, end in zip(sizes.tolist(), ends.tolist())]


def varopt_sparsify(graphs: Sequence[RealizedGraph], samplers: BatchSampler,
                    rngs: Sequence[RngStream]) -> list[list[int]]:
    """Guided local sparsifier for many trials of one instance at once: per graph,
    one resource bitmask per arrival, drawn by its type's row of ``samplers``
    from ``rngs[g].substream("arrival", i)``; an arrival whose row draws no
    light id reports its fixed mask (nothing for an empty row), with no stream."""
    return _reports(graphs, rngs, samplers.fixed_masks, np.where(samplers.draws > 0, samplers.lengths, 0),
                    samplers.draw)


def random_subgraph(graphs: Sequence[RealizedGraph], k: int, rngs: Sequence[RngStream]) -> list[list[int]]:
    """Naive sparsifier for many trials of one instance at once: per graph, one
    resource bitmask per arrival, a uniform subset of at most k compatible
    edges drawn from ``rngs[g].substream("arrival", i)``."""
    if not graphs:
        return []
    instance = graphs[0].instance
    sizes, _, compatible = instance.compat_pairs()
    starts = instance.offsets[:-1]
    kept_whole = [0 if d > k else m for d, m in zip(sizes.tolist(), instance._compat_masks)]
    return _reports(graphs, rngs, kept_whole, k * (sizes > k),
                    lambda t, streams: compatible[starts[t][:, None] + streams.choice(sizes[t], k)])


def kvv_ranking(graph: RealizedGraph, masks: list[int]) -> StrategyOutcome:
    """Classic online ranking: arrivals greedily take their best-ranked free neighbor.

    ``masks`` are the type masks with resource r relabeled to its rank, bit
    ``ranks[r]`` (``instance.type_masks(ranks)``), so an arrival's best-ranked
    free neighbor is the lowest set bit of its mask outside ``taken``, the
    taken resources in rank space."""
    taken = 0
    for type_id in graph.type_ids:
        free = masks[type_id] & ~taken
        taken |= free & -free  # ranks are distinct, so the best is unique
    matched = taken.bit_count()
    return StrategyOutcome(matched, matched)


def _kvv_masks(graphs: Sequence[RealizedGraph], rngs: Sequence[RngStream]) -> Iterator[list[int]]:
    """Per graph, the type masks relabeled by the ranks of the resources, a fresh
    ``rngs[g].generator.permutation``: ``instance.type_masks(ranks)``, built by
    one ``type_masks`` call per block of as many trials as ``MASK_CELLS``
    type x resource cells hold, and handed out as they are reached, so at
    most one block of masks is held."""
    if not graphs:
        return
    instance = graphs[0].instance
    m, r = instance.type_count, instance.resource_count
    per = max(1, MASK_CELLS // max(m * r, 1))
    for b in range(0, len(graphs), per):
        masks = instance.type_masks(np.array([rng.generator.permutation(r) for rng in rngs[b:b + per]]))
        for q in range(0, len(masks), m):
            yield masks[q:q + m]


def _renormalized_cdfs(values: np.ndarray, cdf: list[float], at: np.ndarray, excluded: np.ndarray) -> np.ndarray:
    """Row r: ``cdf``, the weighted-choice cdf of the weights ``values``, or
    where ``excluded[r]``, that of ``values`` without entry ``at[r]``,
    renormalized and padded with inf.  Such a row drops the entry before its
    sum and cumulative sum, as ``values[keep]`` does, so every float is the
    same."""
    width = len(values)
    cdfs = np.tile(cdf, (len(at), 1))
    if width > 1 and excluded.any():
        out = np.flatnonzero(excluded)
        kept = np.broadcast_to(values, (len(out), width))[np.arange(width) != at[out, None]]
        kept = kept.reshape(len(out), width - 1)
        kept = (kept / kept.sum(axis=1)[:, None]).cumsum(axis=1)
        cdfs[out, :-1] = kept / kept[:, -1:]
        cdfs[out, -1] = np.inf
    return cdfs


def mgs(graphs: Sequence[RealizedGraph], guidance: CopyMarginals,
        rngs: Sequence[RngStream]) -> list[tuple[list[int], list[int]]]:
    """Two-suggestion online baseline guided by offline marginals: per graph, the
    first and second suggestion of every type (-1 for none), drawn for many
    trials of one instance at once from ``rngs[g].substream("guidance")``.

    Per type j in order, a first-choice resource is sampled proportionally to
    the marginals of the first realized copy, as ``gen.choice(len(ids), p=probs)``
    does: one ``random()`` looked up in the cdf that choice builds.  A type
    without first-copy support falls back to a uniform ``choice`` over its
    compatibility set (none for an empty set, no draw for one resource).  An
    independent second choice is sampled the same way from the marginals of
    the second copy, renormalized without the first choice, if any remain.
    Every trial's stream is a row of ``rng.StreamRows`` and each type is one
    pass over the rows; a uniform's entry is the count of cdf values at or
    below it, which is ``bisect_right``'s.
    """
    if not graphs:
        return []
    instance = graphs[0].instance
    sizes, offsets, ids = np.diff(instance.offsets), instance.offsets, instance.ids
    streams = StreamRows(np.array([rng.seed for rng in rngs], dtype=np.uint64),
                         substream_ids(np.array([rng.stream_id for rng in rngs], dtype=np.uint64), "guidance"))
    streams.reserve(2 * instance.type_count)  # two draws a type, short only of rejected halves
    rows = streams.rows
    first = np.full((instance.type_count, len(rows)), -1)
    second = np.full_like(first, -1)
    for j in range(instance.type_count):
        if j in guidance.first:
            support, _, cdf = guidance.first[j]
            first[j] = np.array(support)[np.searchsorted(cdf, streams.random(), side="right")]
        elif sizes[j]:
            first[j] = ids[offsets[j] + streams.integers(int(sizes[j]), rows)]
        if j not in guidance.second:
            continue
        support, values, cdf = guidance.second[j]
        support, width = np.array(support), len(support)
        hit = support == first[j][:, None]
        excluded, at = hit.any(axis=1), hit.argmax(axis=1)  # the first choice's entry, if it has one
        draw = rows if width > 1 else np.flatnonzero(~excluded)
        cdfs = _renormalized_cdfs(values, cdf, at[draw], excluded[draw])
        below = (cdfs <= streams.random(draw)[:, None]).sum(axis=1)
        second[j, draw] = support[below + (excluded[draw] & (below >= at[draw]))]
    return list(zip(first.T.tolist(), second.T.tolist()))


def _committed(graph: RealizedGraph, suggestions: tuple[list[int], list[int]]) -> StrategyOutcome:
    """mgs's matches: the c-th realized copy of a type commits to its c-th
    suggestion if that resource is still free, and copies beyond the second go
    unmatched.  The first request for a resource always finds it free and
    every later one finds it taken, so the matches are the distinct resources
    requested, in any arrival order."""
    first, second = suggestions
    copies = Counter(graph.type_ids)
    requested = {first[j] for j in copies} | {second[j] for j, c in copies.items() if c > 1}
    matched = len(requested - {-1})
    return StrategyOutcome(matched, matched)


def _coordinate(graph: RealizedGraph, masks: list[int], most: int | None = None) -> StrategyOutcome:
    """Central maximum matching's size on the reported resource bitmasks, one per
    arrival, matched in ascending popcount order (the size does not depend on
    the order); ``most``, a bound on that size such as the trial's offline
    size, stops its phases once reached.  When no arrival reports two
    resources, a maximum matching takes each reported resource once, so its
    size is that of the reports' union."""
    counts = list(map(int.bit_count, masks))
    if max(counts, default=0) <= 1:
        matched = reduce(or_, masks, 0).bit_count()
    else:
        matched = matching_size(sorted(masks, key=int.bit_count), graph.instance.resource_count, most)
    return StrategyOutcome(matched, sum(counts))


def draw(graphs: Sequence[RealizedGraph], config: StrategyConfig, rngs: Sequence[RngStream],
         guidance: object = None) -> Iterable:
    """What a strategy other than offline draws for many trials of one instance,
    per graph from ``rngs[g]``, in graph order: kvv its type masks relabeled by
    the ranks of the resources, one ``permutation`` (``_kvv_masks``, handed out
    a block at a time); mgs its suggestions (``mgs``, from the ``CopyMarginals`` in
    ``guidance``); a budgeted strategy its reports, one resource bitmask per
    arrival (``random_subgraph``, or ``varopt_sparsify`` from the samplers in
    ``guidance``)."""
    if config.strategy in GUIDED and guidance is None:
        raise ValueError(f"strategy {config.strategy!r} needs guidance learned from a "
                         "fractional solution: VarOpt samplers or copy marginals")
    if config.strategy == "kvv":
        return _kvv_masks(graphs, rngs)
    if config.strategy == "mgs":
        return mgs(graphs, guidance, rngs)
    if config.strategy == "random":
        return random_subgraph(graphs, config.k, rngs)
    return varopt_sparsify(graphs, guidance, rngs)


def run_strategy(graph: RealizedGraph, config: StrategyConfig, drawn: object,
                 most: int | None = None) -> StrategyOutcome:
    """Score one configured strategy on a realization from what ``draw`` drew
    for it; offline is the trial kernel's own maximum matching and never comes
    here.  kvv and mgs are scored by their own irrevocable matches, ranking on
    the ``drawn`` rank-relabeled masks and committing to the ``drawn``
    suggestions, and a budgeted strategy by the coordinator's maximum matching
    of the ``drawn`` reports, bounded by ``most`` (see ``_coordinate``)."""
    if config.strategy == "kvv":
        return kvv_ranking(graph, drawn)
    if config.strategy == "mgs":
        return _committed(graph, drawn)
    return _coordinate(graph, drawn, most)
