"""Experiment orchestration: one trial kernel behind efficiency tables,
unmet-demand series and bound reports.

``score_trials`` is the only loop that realizes instances for scoring and the
one offline scorer.  It realizes each trial once from
``realize_stream.substream(t)`` and solves the offline maximum matching when
the caller scores against it.  Every other strategy is scored on the same
realizations by ``run_strategy`` with ``strategy_stream.substream(t, key)``, a
budgeted one on the reports ``sparsify`` drew for all those trials in one
batch.  It returns the offline sizes and each label's matched counts in trial
order.  Every stream is keyed by the trial index alone, never by position in
the loop, so results are reproducible from (config, seed) and independent of
trial scheduling.  Guided strategies read guidance learned once per experiment
from a dedicated substream, keyed by strategy label.  An experiment has one
weight source, ``ExperimentConfig.weights``, and ``solution_for_source`` is the
one place it becomes a solution.  An efficiency summary holds its
``StrategyConfig``, and summaries are reported in that config's order: by
strategy name, then budget.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from datetime import datetime
from itertools import repeat
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .bounds import theorem_bound
from .generators import FAMILIES, HALF_WINDOW, EmptyWindow, TripRecord, ZoneModel, build_nyc_instance
from .instance import StochasticInstance, instance_from_json, realize
from .matching import full_matching
from .rng import RngStream
from .strategies import BUDGETED, GUIDED, StrategyConfig, run_strategy, sparsify, varopt_samplers
from .weights import (
    CopyMarginals,
    FractionalSolution,
    heavy_light,
    monte_carlo_weights,
    per_copy_marginals,
    solution_from_json,
    solve_expected_lp,
)

log = logging.getLogger(__name__)

WEIGHT_SOURCES = ("lp", "montecarlo", "file")
INTERVAL = 2 * HALF_WINDOW  # consecutive intervals' half-windows tile the timeline


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: instance source, strategies, trial counts, seed,
    and the one weight source that guides every guided strategy."""

    strategies: tuple[StrategyConfig, ...]
    family: str | None = None
    n: int | None = None
    instance_path: str | None = None
    trials: int = 100
    mc: int = 100
    seed: int = 0
    weights: str = "montecarlo"
    weights_in: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.mc < 1:
            raise ValueError("Monte Carlo simulation count must be >= 1")
        # rng.philox_key rounds a seed within 2^10 of 2^64 to seed 0's key
        if not 0 <= self.seed < 2**64 - 2**10:
            raise ValueError(f"seed must be in [0, 2^64 - 2^10), got {self.seed}")
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        if self.weights not in WEIGHT_SOURCES:
            raise ValueError(f"unknown weight source {self.weights!r} (choose from {WEIGHT_SOURCES})")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError("duplicate strategy entries in the configuration")
        if self.family is not None and self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r} (choose from {sorted(FAMILIES)})")
        if self.instance_path is not None and (self.family is not None or self.n is not None):
            raise ValueError("give either an instance file or family + n, not both")
        if (self.weights_in is not None) != (self.weights == "file"):
            raise ValueError("a weights file (--weights-in) goes with weight source 'file', and only with it")


@dataclass(frozen=True)
class EfficiencySummary:
    """Mean per-trial efficiency of one configured strategy with its 95% CI halfwidth."""

    config: StrategyConfig
    mean: float
    ci95: float
    trials: int


@dataclass(frozen=True)
class UnmetDemandSeries:
    """Cumulative unmatched riders per strategy across simulation intervals."""

    timestamps: tuple[datetime, ...]
    cumulative: dict[str, tuple[float, ...]]


def ci95(samples: Sequence[float]) -> tuple[float, float]:
    """Sample mean and 1.96 * std / sqrt(T); a single sample has halfwidth 0."""
    if len(samples) == 0:
        raise ValueError("ci95 needs at least one sample")
    arr = np.asarray(samples, dtype=float)
    if len(arr) == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(1.96 * arr.std(ddof=1) / math.sqrt(len(arr)))


def resolve_instance(config: ExperimentConfig) -> StochasticInstance:
    if config.instance_path is not None:
        with open(config.instance_path) as fh:
            return instance_from_json(fh.read())
    if config.family is None or config.n is None:
        raise ValueError("either an instance file or family + n is required")
    return FAMILIES[config.family](config.n)


def solution_for_source(
    instance: StochasticInstance, config: ExperimentConfig, base: RngStream
) -> FractionalSolution:
    """The fractional solution ``config.weights`` stands for: the exact LP,
    Monte Carlo marginals learned on ``base.substream("weights")``, or the
    cached file ``config.weights_in``."""
    if config.weights == "lp":
        return solve_expected_lp(instance)
    if config.weights == "montecarlo":
        return monte_carlo_weights(instance, config.mc, base.substream("weights"))
    with open(config.weights_in) as fh:
        return solution_from_json(instance, fh.read())


def learn_weight_sources(
    instance: StochasticInstance, config: ExperimentConfig, base: RngStream
) -> dict[str, object]:
    """The guidance each guided strategy reads, by label, learned once per experiment.

    The solution of ``config.weights`` is solved once, and only when some
    strategy reads it.  varopt reads the batch of its per-type samplers from that
    solution; mgs reads the solution's support as copy marginals, except with
    Monte Carlo weights, where it is guided by per-copy marginals estimated
    with deterministic tie-breaking: the spread-promoting shuffle belongs to
    the guided sparsifier's weight construction, not to that baseline.
    """
    x = None
    guidance: dict[str, object] = {}
    for cfg in config.strategies:
        if cfg.strategy not in GUIDED:
            continue
        if cfg.strategy == "mgs" and config.weights == "montecarlo":
            guidance[cfg.label] = per_copy_marginals(instance, config.mc, base.substream("weights", "mgs"))
            continue
        if x is None:
            x = solution_for_source(instance, config, base)
        guidance[cfg.label] = (CopyMarginals.of_solution(x) if cfg.strategy == "mgs"
                               else varopt_samplers(instance, x, cfg.k))
    return guidance


def score_trials(
    instance: StochasticInstance,
    strategies: Sequence[StrategyConfig],
    guidance: Mapping[str, object],
    trials: Iterable[int],
    realize_stream: RngStream,
    strategy_stream: RngStream,
    stream_key: Callable[[StrategyConfig], int | str] = lambda cfg: cfg.label,
    with_offline: bool = True,
) -> tuple[list[int] | None, dict[str, list[int]]]:
    """Realize and score each trial in ``trials``: the offline maximum matching
    sizes in trial order (None without ``with_offline``) and, by label, every
    strategy's matched counts in trial order.

    Every trial is realized first.  With ``with_offline``, which the offline
    strategy needs, the offline maximum matching is solved once per trial and
    is that strategy's score; a trial whose offline matching is empty has no
    edges, so every strategy scores 0 there without running.  Each other
    strategy is scored by ``run_strategy`` on every other trial, a budgeted one
    on the reports of all those trials, drawn first in one batch (``sparsify``).
    Each guided strategy reads ``guidance[label]``.
    """
    trials = list(trials)
    graphs = [realize(instance, realize_stream.substream(t)) for t in trials]
    offline = [full_matching(graph).size for graph in graphs] if with_offline else None
    run = range(len(graphs)) if offline is None else [q for q, size in enumerate(offline) if size]
    matched: dict[str, list[int]] = {}
    for cfg in strategies:
        if cfg.strategy == "offline":
            matched[cfg.label] = list(offline)
            continue
        counts = matched[cfg.label] = [0] * len(trials)
        rngs = [strategy_stream.substream(trials[q], stream_key(cfg)) for q in run]
        guide = guidance.get(cfg.label)
        reports = repeat(None)  # dropping the last strategy's reports before the next batch
        if cfg.strategy in BUDGETED and run:
            reports = sparsify([graphs[q] for q in run], cfg, rngs, guide)
        for q, rng, report in zip(run, rngs, reports):
            counts[q] = run_strategy(graphs[q], cfg, rng, guide, report).matched
    return offline, matched


def run_experiment(
    config: ExperimentConfig, instance: StochasticInstance | None = None
) -> list[EfficiencySummary]:
    """Score every configured strategy over seeded trials of one instance."""
    if instance is None:
        instance = resolve_instance(config)
    base = RngStream(config.seed)
    guidance = learn_weight_sources(instance, config, base)
    offline, matched = score_trials(instance, config.strategies, guidance, range(config.trials),
                                    base.substream("realize"), base.substream("strategy"))
    scored = [q for q, size in enumerate(offline) if size > 0]
    degenerate = len(offline) - len(scored)
    if degenerate:
        log.warning("%d trials had an empty offline matching and were skipped", degenerate)
    if not scored:
        raise ValueError("every trial had an empty offline matching; nothing to score")

    return [EfficiencySummary(cfg, *ci95([matched[cfg.label][q] / offline[q] for q in scored]), len(scored))
            for cfg in sorted(config.strategies)]


@dataclass(frozen=True)
class BoundRow:
    family: str
    k: int
    z: float
    heavy_fraction: float
    bound: float
    empirical_mean: float
    stderr: float
    vacuous: bool
    sound: bool


def bound_report(instance: StochasticInstance, family: str, config: ExperimentConfig) -> list[BoundRow]:
    """Theorem bound against the guided sparsifier's empirical matching size,
    per budget of the varopt strategies of ``config``, both from the solution
    of ``config.weights``."""
    base = RngStream(config.seed)
    x = solution_for_source(instance, config, base)
    guidance = {cfg.label: varopt_samplers(instance, x, cfg.k) for cfg in config.strategies}
    _, matched = score_trials(instance, config.strategies, guidance,
                              range(config.trials), base.substream("realize"), base.substream("bound"),
                              stream_key=lambda cfg: cfg.k, with_offline=False)
    rows = []
    for cfg in config.strategies:
        split = heavy_light(x, cfg.k)
        bound = theorem_bound(split)
        mean, halfwidth = ci95(matched[cfg.label])
        stderr = halfwidth / 1.96
        rows.append(BoundRow(
            family=family,
            k=cfg.k,
            z=x.objective,
            heavy_fraction=split.z_heavy / split.z,
            bound=bound,
            empirical_mean=mean,
            stderr=stderr,
            vacuous=bound < 0,
            sound=bound <= mean + 4 * stderr,
        ))
    return rows


def default_interval_starts(trips: Sequence[TripRecord], start: datetime | None = None) -> list[datetime]:
    """10-minute grid through the last trip event, from ``start`` or offset so
    windows align with events."""
    if not trips:
        return []
    latest = max(max(t.pickup_time, t.dropoff_time) for t in trips)
    if start is None:
        earliest = min(min(t.pickup_time, t.dropoff_time) for t in trips)
        floor = earliest.replace(minute=earliest.minute - earliest.minute % 10, second=0, microsecond=0)
        start = floor + INTERVAL / 2
    out = []
    t = start
    while t - INTERVAL / 2 <= latest:
        out.append(t)
        t += INTERVAL
    return out


def run_nyc_day(
    trips: Sequence[TripRecord],
    zones: ZoneModel,
    config: ExperimentConfig,
    start: datetime | None = None,
    intervals: int | None = None,
) -> UnmetDemandSeries:
    """Replay trip data in 10-minute intervals and accumulate unmet demand.

    The grid starts at ``start`` (default: aligned to the data) and runs
    through the last trip event, or for ``intervals`` steps.  Each interval
    builds its own instance and fractional weights; unmatched riders per
    strategy are averaged over ``config.trials`` realizations and
    accumulated.  Intervals with an empty half-window contribute zero.
    """
    if intervals is not None and intervals < 1:
        raise ValueError(f"intervals must be >= 1, got {intervals}")
    if start is not None and intervals is not None:
        times = [start + j * INTERVAL for j in range(intervals)]
    else:
        times = default_interval_starts(list(trips), start)
        if intervals is not None:
            times = times[:intervals]
    if not times:
        raise ValueError("no simulation intervals: no trip event at or after the start")

    base = RngStream(config.seed)
    cumulative: dict[str, list[float]] = {cfg.label: [] for cfg in config.strategies}
    for j, t in enumerate(times):
        matched = dict.fromkeys(cumulative, ())
        try:
            instance = build_nyc_instance(list(trips), zones, t, base.substream("supply", j))
        except EmptyWindow as exc:
            log.info("interval %s skipped: %s", t.isoformat(), exc)
        else:
            guidance = learn_weight_sources(instance, config, base.substream("interval", j))
            _, matched = score_trials(instance, config.strategies, guidance, range(config.trials),
                                      base.substream("nyc-realize", j), base.substream("nyc-strategy", j))
        for cfg in config.strategies:
            unmet = 0.0
            for count in matched[cfg.label]:
                unmet += (instance.arrivals - count) / config.trials
            series = cumulative[cfg.label]
            series.append((series[-1] if series else 0.0) + unmet)
    return UnmetDemandSeries(
        timestamps=tuple(times),
        cumulative={label: tuple(values) for label, values in cumulative.items()},
    )


def _fmt(value: float) -> str:
    return format(value, ".12g")


def render_results(results: list[EfficiencySummary] | UnmetDemandSeries, fmt: str) -> str:
    """Serialize summaries (in the order given) or a series (by label) as CSV or JSON text."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    if isinstance(results, UnmetDemandSeries):
        labels = sorted(results.cumulative)
        if fmt == "csv":
            lines = ["timestamp,strategy,cumulative_unmet"]
            for idx, t in enumerate(results.timestamps):
                for label in labels:
                    lines.append(f"{t.isoformat()},{label},{_fmt(results.cumulative[label][idx])}")
            payload = "\n".join(lines) + "\n"
        else:
            payload = json.dumps(
                {
                    "timestamps": [t.isoformat() for t in results.timestamps],
                    "cumulative_unmet": {label: list(results.cumulative[label]) for label in labels},
                },
                indent=2,
            )
    else:
        if fmt == "csv":
            lines = ["strategy,k,mean,ci95,trials"]
            for s in results:
                k = "" if s.config.k is None else str(s.config.k)
                lines.append(f"{s.config.strategy},{k},{_fmt(s.mean)},{_fmt(s.ci95)},{s.trials}")
            payload = "\n".join(lines) + "\n"
        else:
            payload = json.dumps(
                [
                    {"strategy": s.config.strategy, "k": s.config.k, "mean": s.mean, "ci95": s.ci95,
                     "trials": s.trials}
                    for s in results
                ],
                indent=2,
            )
    return payload

