"""The evaluated matching strategies and their one dispatch.

Local sparsifiers (guided fixed-size sampling and uniform random subsets)
prune each arrival's edges independently before a central maximum matching;
online baselines (ranking, two-suggestion guidance) commit irrevocably per
arrival; the offline optimum sees the whole realization.  Per-arrival
randomness is drawn from substreams keyed by arrival index, so one arrival's
selection never depends on the other arrivals.  Random subsets and the mgs
suggestions draw through the numpy replays in ``rng``; kvv keeps numpy's
``permutation``, mgs its uniform fallback ``choice``.

``STRATEGY_NAMES`` declares the strategies; those in ``BUDGETED`` take a
budget k and the others take none, those in ``GUIDED`` read guidance learned
once per experiment.  ``run_strategy`` is the one entry point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .instance import RealizedGraph, StochasticInstance
from .matching import BipartiteEdgeList, full_edge_list, max_matching
from .rng import ArrivalStreams, RngStream, choice_cdf, choice_without_replacement
from .varopt import VarOptSampler
from .weights import CopyMarginals, FractionalSolution


STRATEGY_NAMES = ("offline", "kvv", "random", "mgs", "varopt")
BUDGETED = {"random", "varopt"}
GUIDED = {"mgs", "varopt"}


class UnknownStrategy(ValueError):
    """Strategy name outside the supported set."""


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
            raise UnknownStrategy(f"unknown strategy {self.strategy!r}")
        if (self.k is not None) != (self.strategy in BUDGETED) or self.k is not None and self.k < 1:
            raise ValueError(f"strategy {self.strategy!r} with k={self.k}: a budget k >= 1 goes "
                             f"with {' and '.join(sorted(BUDGETED))}, and only with them")

    @property
    def label(self) -> str:
        return self.strategy if self.k is None else f"{self.strategy} k={self.k}"


def varopt_samplers(
    instance: StochasticInstance, x: FractionalSolution, k: int
) -> tuple[VarOptSampler | None, ...]:
    """One budget-k sampler per type id, built once for every trial of an experiment.

    A type samples its support in ``x`` with probabilities proportional (after
    thresholding) to the fractional values x_tj; a type without support falls
    back to uniform weights over its compatibility set, and a type with
    neither gets ``None``.
    """
    samplers = []
    for type_id, demand_type in enumerate(instance.types):
        ids, values = x.support_of(type_id)
        if not ids:  # no support: uniform over the compatibility set
            ids = demand_type.compatible
            values = [1.0 / len(ids)] * len(ids) if ids else []
        samplers.append(VarOptSampler(ids, values, k) if ids else None)
    return tuple(samplers)


def varopt_sparsify(
    graph: RealizedGraph, samplers: Sequence[VarOptSampler | None], rng: RngStream
) -> list[tuple[int, ...]]:
    """Guided local sparsifier: one row per arrival, drawn by its type's sampler
    from ``rng.substream("arrival", i)``; an arrival whose type has no sampler
    reports nothing."""
    streams = ArrivalStreams(rng, graph.n)
    return [() if sampler is None else sampler.draw(streams[i])
            for i, sampler in enumerate([samplers[t] for t in graph.type_ids])]


def random_subgraph(graph: RealizedGraph, k: int, rng: RngStream) -> list[tuple[int, ...]]:
    """Naive sparsifier: one row per arrival, a uniform subset of at most k compatible edges."""
    streams = ArrivalStreams(rng, graph.n)
    rows = []
    for i in range(graph.n):
        compatible = graph.edges_for(i)
        if len(compatible) > k:
            picks = choice_without_replacement(streams[i].generator, len(compatible), k)
            compatible = tuple([compatible[p] for p in sorted(picks)])
        rows.append(compatible)
    return rows


def kvv_ranking(graph: RealizedGraph, rng: RngStream) -> StrategyOutcome:
    """Classic online ranking: arrivals greedily take their best-ranked free neighbor."""
    rank = rng.generator.permutation(graph.instance.resource_count).tolist()
    taken = [False] * graph.instance.resource_count
    matched = 0
    for i in range(graph.n):
        free = [r for r in graph.edges_for(i) if not taken[r]]
        if free:  # ranks are distinct, so the best is unique
            taken[min(free, key=rank.__getitem__)] = True
            matched += 1
    return StrategyOutcome(matched, matched)


def _sample_weighted(type_weights, cdf, gen, exclude: int | None = None) -> int | None:
    """A resource drawn as ``gen.choice(len(ids), p=probs)`` draws it, from one uniform."""
    ids, values, _ = type_weights or ((), None, None)
    if exclude in ids:  # renormalize over the rest
        keep = [p for p, i in enumerate(ids) if i != exclude]
        ids = [ids[p] for p in keep]
        cdf = choice_cdf(values[keep] / values[keep].sum()) if ids else None
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
    first_cdfs, second_cdfs = guidance.cdfs
    suggestions: dict[int, tuple[int | None, int | None]] = {}
    for j in range(graph.instance.type_count):
        first = _sample_weighted(guidance.first.get(j), first_cdfs.get(j), gen)
        if first is None:
            compatible = graph.instance.types[j].compatible
            if compatible:
                first = int(compatible[gen.choice(len(compatible))])
        second = _sample_weighted(guidance.second.get(j), second_cdfs.get(j), gen, exclude=first)
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


def _coordinate(graph: RealizedGraph, rows: list[tuple[int, ...]]) -> StrategyOutcome:
    """Central matching on the union of reported rows, one per arrival."""
    subgraph = BipartiteEdgeList.from_rows(graph.instance.resource_count, rows)
    return StrategyOutcome(max_matching(subgraph).size, sum(map(len, rows)))


def _offline(graph: RealizedGraph) -> StrategyOutcome:
    """Full-information maximum matching of the realization."""
    edge_list = full_edge_list(graph)
    return StrategyOutcome(max_matching(edge_list).size, sum(map(len, edge_list.adjacency)))


def run_strategy(
    graph: RealizedGraph, config: StrategyConfig, rng: RngStream, guidance: object = None
) -> StrategyOutcome:
    """Run one configured strategy on a realization.

    A guided strategy reads ``guidance``: ``varopt_samplers(...)`` for varopt,
    ``CopyMarginals`` for mgs.  Sparsifier strategies are scored by the
    maximum matching of the reported subgraph; online strategies by their own
    irrevocable matches; offline is the full-information maximum matching.
    """
    if config.strategy in GUIDED and guidance is None:
        raise ValueError(f"strategy {config.strategy!r} needs guidance learned from a "
                         "fractional solution: VarOpt samplers or copy marginals")
    if config.strategy == "offline":
        return _offline(graph)
    if config.strategy == "kvv":
        return kvv_ranking(graph, rng)
    if config.strategy == "mgs":
        return mgs(graph, guidance, rng)
    if config.strategy == "random":
        return _coordinate(graph, random_subgraph(graph, config.k, rng))
    return _coordinate(graph, varopt_sparsify(graph, guidance, rng))
