"""The evaluated matching strategies and their one dispatch.

Local sparsifiers (guided fixed-size sampling and uniform random subsets)
prune each arrival's edges independently and report the kept resources as one
bitmask per arrival, which a central maximum matching reads;
online baselines (ranking, two-suggestion guidance) commit irrevocably per
arrival; the offline optimum, which sees the whole realization, is the trial
kernel's own matching (``harness.score_trials``).  Per-arrival
randomness is drawn from substreams keyed by arrival index, so one arrival's
selection never depends on the other arrivals.  The two sparsifiers draw the
reports of many trials at once: every drawing arrival becomes a row of
``rng.StreamRows``, in chunks of ``CHUNK_ROWS``, and arrivals whose report
is fixed get no stream.  mgs suggestions draw through a cdf lookup; kvv keeps
numpy's ``permutation``, mgs its uniform fallback ``choice``.  Every strategy
reads the instance's CSR store and type masks alone, never its ``types`` view.

``STRATEGY_NAMES`` declares the strategies; those in ``BUDGETED`` take a
budget k and the others take none, those in ``GUIDED`` read guidance learned
once per experiment.  ``sparsify`` is the local pruning, the batch of a
budgeted strategy's reports for many trials, and ``run_strategy`` only scores:
kvv and mgs by their own matches, a budgeted strategy by the coordinator's
matching of the reports ``sparsify`` drew.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .instance import RealizedGraph, StochasticInstance
from .matching import bitset_matching
from .rng import RngStream, StreamRows, arrival_stream_ids
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
        ids = draw(types[cell], StreamRows(seeds[g], arrival_stream_ids(parents[g], i)))
        bits, (row, col) = base[types[cell]], np.nonzero(ids >= 0)
        np.bitwise_or.at(bits, (row, ids[row, col] >> 3), (1 << (ids[row, col] & 7)).astype(np.uint8))
        data = bits.tobytes()
        drawn = (int.from_bytes(data[o:o + size], "little") for o in range(0, len(data), size))
        flat[cell] = np.fromiter(drawn, dtype=object, count=len(cell))
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


def kvv_ranking(graph: RealizedGraph, rng: RngStream) -> StrategyOutcome:
    """Classic online ranking: arrivals greedily take their best-ranked free neighbor.

    Resource r is relabeled to its rank, bit ``rank[r]`` of its type's mask, so
    an arrival's best-ranked free neighbor is the lowest set bit of its mask
    outside ``taken``, the taken resources in rank space."""
    masks = graph.instance.type_masks(rng.generator.permutation(graph.instance.resource_count))
    taken = 0
    for type_id in graph.type_ids:
        free = masks[type_id] & ~taken
        taken |= free & -free  # ranks are distinct, so the best is unique
    matched = taken.bit_count()
    return StrategyOutcome(matched, matched)


def _sample_weighted(ids: Sequence[int], cdf: list[float] | None, gen) -> int | None:
    """The resource of ``ids`` that ``gen.choice(len(ids), p=probs)`` draws, from
    one uniform looked up in ``cdf``, the ``choice_cdf`` of ``probs``."""
    return ids[bisect_right(cdf, gen.random())] if ids else None


def mgs(graph: RealizedGraph, guidance: CopyMarginals, rng: RngStream) -> StrategyOutcome:
    """Two-suggestion online baseline guided by offline marginals.

    Per type, a first-choice resource is sampled proportionally to the
    marginals of the first realized copy and an independent second choice
    from the renormalized marginals of the second copy, excluding the first.
    The c-th realized copy of a type commits to its c-th suggestion if that
    resource is still free; copies beyond the second go unmatched (both
    suggestions are necessarily taken by then).  Types without first-copy
    support fall back to a uniform first choice over their compatibility set.
    """
    gen = rng.substream("guidance").generator
    suggestions: dict[int, tuple[int | None, int | None]] = {}
    for j in range(graph.instance.type_count):
        ids, _, cdf = guidance.first.get(j, ((), None, None))
        first = _sample_weighted(ids, cdf, gen)
        if first is None:
            compatible = graph.instance.row(j)
            if compatible:
                first = compatible[gen.choice(len(compatible))]
        second = _sample_weighted(*guidance.second_choices(j, first), gen)
        suggestions[j] = (first, second)

    taken = [False] * graph.instance.resource_count
    copies_seen: dict[int, int] = {}
    matched = 0
    for type_id in graph.type_ids:
        copy = copies_seen.get(type_id, 0) + 1
        copies_seen[type_id] = copy
        choice = suggestions[type_id][copy - 1] if copy <= 2 else None
        if choice is not None and not taken[choice]:
            taken[choice] = True
            matched += 1
    return StrategyOutcome(matched, matched)


def _coordinate(graph: RealizedGraph, masks: list[int]) -> StrategyOutcome:
    """Central matching on the union of reported resource bitmasks, one per arrival."""
    matched = bitset_matching(masks, graph.instance.resource_count).size
    return StrategyOutcome(matched, sum(map(int.bit_count, masks)))


def _require_guidance(config: StrategyConfig, guidance: object) -> None:
    if config.strategy in GUIDED and guidance is None:
        raise ValueError(f"strategy {config.strategy!r} needs guidance learned from a "
                         "fractional solution: VarOpt samplers or copy marginals")


def sparsify(
    graphs: Sequence[RealizedGraph], config: StrategyConfig, rngs: Sequence[RngStream], guidance: object = None
) -> list[list[int]]:
    """A budgeted strategy's reports for many trials at once: per graph, one
    resource bitmask per arrival, drawn from ``rngs[g]``."""
    _require_guidance(config, guidance)
    if config.strategy == "random":
        return random_subgraph(graphs, config.k, rngs)
    return varopt_sparsify(graphs, guidance, rngs)


def run_strategy(
    graph: RealizedGraph, config: StrategyConfig, rng: RngStream, guidance: object = None,
    reports: list[int] | None = None,
) -> StrategyOutcome:
    """Score one configured strategy on a realization; offline is the trial
    kernel's own maximum matching and never comes here.

    Online strategies are scored by their own irrevocable matches, mgs guided
    by the ``CopyMarginals`` in ``guidance``.  A budgeted strategy is scored by
    the maximum matching of ``reports``, the masks ``sparsify`` drew for this
    graph and ``rng``.
    """
    if config.strategy == "kvv":
        return kvv_ranking(graph, rng)
    if config.strategy == "mgs":
        _require_guidance(config, guidance)
        return mgs(graph, guidance, rng)
    return _coordinate(graph, reports)
