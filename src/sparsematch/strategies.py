"""The evaluated matching strategies and the table that dispatches them.

Local sparsifiers (guided fixed-size sampling and uniform random subsets)
prune each arrival's edges independently before a central maximum matching;
online baselines (ranking, two-suggestion guidance) commit irrevocably per
arrival; the offline optimum sees the whole realization.  Per-arrival
randomness is drawn from substreams keyed by arrival index, so one arrival's
selection never depends on the other arrivals.

``STRATEGIES`` maps each strategy name to its runner and to whether it needs
a budget k or guidance learned once per experiment; ``run_strategy`` is the
one entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .instance import RealizedGraph, StochasticInstance
from .matching import BipartiteEdgeList, full_edge_list, max_matching
from .rng import ArrivalStreams, RngStream
from .varopt import VarOptSampler
from .weights import CopyMarginals, FractionalSolution


class UnknownStrategy(ValueError):
    """Strategy name outside the supported set."""


@dataclass(frozen=True)
class StrategyOutcome:
    """Matched count and number of reported (or committed) edges."""

    matched: int
    sparsified_edges: int


@dataclass(frozen=True)
class StrategyConfig:
    """One strategy plus its parameters (budget k, weight source for guided ones)."""

    strategy: str
    k: int | None = None
    weights: str | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise UnknownStrategy(f"unknown strategy {self.strategy!r}")
        if STRATEGIES[self.strategy].budgeted and (self.k is None or self.k < 1):
            raise ValueError(f"strategy {self.strategy!r} needs a budget k >= 1")

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
    rows = []
    for i, type_id in enumerate(graph.type_ids):
        sampler = samplers[type_id]
        rows.append(() if sampler is None else sampler.draw(streams[i]))
    return rows


def random_subgraph(graph: RealizedGraph, k: int, rng: RngStream) -> list[tuple[int, ...]]:
    """Naive sparsifier: one row per arrival, a uniform subset of at most k compatible edges."""
    if k < 1:
        raise ValueError(f"budget k must be >= 1, got {k}")
    streams = ArrivalStreams(rng, graph.n)
    rows = []
    for i in range(graph.n):
        compatible = graph.edges_for(i)
        if len(compatible) > k:
            picks = streams[i].generator.choice(len(compatible), size=k, replace=False)
            compatible = tuple(compatible[p] for p in sorted(picks))
        rows.append(compatible)
    return rows


def kvv_ranking(graph: RealizedGraph, rng: RngStream) -> StrategyOutcome:
    """Classic online ranking: arrivals greedily take their best-ranked free neighbor."""
    rank = rng.generator.permutation(graph.instance.resource_count)
    taken = np.zeros(graph.instance.resource_count, dtype=bool)
    matched = 0
    for i in range(graph.n):
        best = -1
        best_rank = None
        for r in graph.edges_for(i):
            if not taken[r] and (best_rank is None or rank[r] < best_rank):
                best = r
                best_rank = rank[r]
        if best >= 0:
            taken[best] = True
            matched += 1
    return StrategyOutcome(matched, matched)


def _sample_weighted(ids, values, probs, gen, exclude: int | None = None) -> int | None:
    if exclude in ids:  # renormalize over the rest
        keep = [p for p, i in enumerate(ids) if i != exclude]
        ids, probs = [ids[p] for p in keep], values[keep] / values[keep].sum()
    return int(ids[gen.choice(len(ids), p=probs)]) if ids else None


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
        first = _sample_weighted(*guidance.sampling[0].get(j, ((), (), ())), gen)
        if first is None:
            compatible = graph.instance.types[j].compatible
            if compatible:
                first = int(compatible[gen.choice(len(compatible))])
        second = _sample_weighted(*guidance.sampling[1].get(j, ((), (), ())), gen, exclude=first)
        suggestions[j] = (first, second)

    taken = np.zeros(graph.instance.resource_count, dtype=bool)
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


@dataclass(frozen=True)
class Strategy:
    """A table entry: ``run(graph, config, rng, guidance)``, whether the
    strategy needs a budget k, and whether it is guided by learned weights."""

    run: Callable[..., StrategyOutcome]
    budgeted: bool = False
    guided: bool = False


# Runners look the strategy functions up when called, so a function replaced
# on this module (say, by a tracer) is the one that runs.
STRATEGIES: dict[str, Strategy] = {
    "offline": Strategy(lambda graph, config, rng, guidance: _offline(graph)),
    "kvv": Strategy(lambda graph, config, rng, guidance: kvv_ranking(graph, rng)),
    "random": Strategy(
        lambda graph, config, rng, guidance: _coordinate(graph, random_subgraph(graph, config.k, rng)),
        budgeted=True,
    ),
    "mgs": Strategy(lambda graph, config, rng, guidance: mgs(graph, guidance, rng), guided=True),
    "varopt": Strategy(
        lambda graph, config, rng, guidance: _coordinate(graph, varopt_sparsify(graph, guidance, rng)),
        budgeted=True,
        guided=True,
    ),
}
STRATEGY_NAMES = tuple(STRATEGIES)


def run_strategy(
    graph: RealizedGraph, config: StrategyConfig, rng: RngStream, guidance: object = None
) -> StrategyOutcome:
    """Run one configured strategy on a realization.

    A guided strategy reads ``guidance``: ``varopt_samplers(...)`` for varopt,
    ``CopyMarginals`` for mgs.  Sparsifier strategies are scored by the
    maximum matching of the reported subgraph; online strategies by their own
    irrevocable matches; offline is the full-information maximum matching.
    """
    entry = STRATEGIES.get(config.strategy)
    if entry is None:
        raise UnknownStrategy(f"unknown strategy {config.strategy!r}")
    if entry.guided and guidance is None:
        raise ValueError(f"strategy {config.strategy!r} needs guidance learned from a "
                         "fractional solution: VarOpt samplers or copy marginals")
    return entry.run(graph, config, rng, guidance)
