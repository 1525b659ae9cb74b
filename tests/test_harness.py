import json
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from helpers import complete_uniform, realized_edge_list, records_instance
from sparsematch.generators import ingest_trips
from sparsematch.harness import (
    EfficiencySummary,
    ExperimentConfig,
    UnmetDemandSeries,
    _trial_streams,
    bound_report,
    ci95,
    learn_weight_sources,
    render_results,
    resolve_instance,
    run_experiment,
    run_nyc_day,
    score_trials,
)
from sparsematch.instance import instance_to_json, realize
from sparsematch.matching import max_matching
from sparsematch.rng import RngStream
from sparsematch.strategies import BUDGETED, StrategyConfig

REPO_ROOT = Path(__file__).resolve().parents[1]
TRIPS = str(REPO_ROOT / "data" / "nyc_sample_trips.csv")
ZONES = str(REPO_ROOT / "data" / "nyc_sample_zones.csv")
START = datetime.fromisoformat("2025-05-14T08:05:00")


def small_config(**overrides):
    defaults = dict(
        strategies=(
            StrategyConfig("offline"),
            StrategyConfig("kvv"),
            StrategyConfig("random", k=3),
            StrategyConfig("varopt", k=3),
        ),
        family="block",
        n=20,
        trials=20,
        mc=20,
        seed=0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_ci95_examples():
    assert ci95([1.0, 1.0, 1.0]) == (1.0, 0.0)
    mean, half = ci95([0.0, 1.0])
    assert mean == pytest.approx(0.5)
    assert half == pytest.approx(0.98, abs=1e-9)
    assert ci95([0.7]) == (0.7, 0.0)


def test_config_validation():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        small_config(trials=0)
    with pytest.raises(ValueError, match="Monte Carlo simulation count must be >= 1"):
        small_config(mc=0)
    with pytest.raises(ValueError, match="at least one strategy"):
        small_config(strategies=())
    with pytest.raises(ValueError, match="unknown family 'nope'"):
        small_config(family="nope")
    with pytest.raises(ValueError, match="unknown weight source 'psychic'"):
        small_config(weights="psychic")


@pytest.mark.parametrize("source", [dict(weights_in="w.json"),  # a file the run would not read
                                    dict(weights="lp", weights_in="w.json"),
                                    dict(weights="file")])  # no file to read
def test_weights_file_goes_with_weight_source_file_only(source):
    with pytest.raises(ValueError, match="weights-in"):
        small_config(**source)
    assert small_config(weights="file", weights_in="w.json").weights_in == "w.json"


@pytest.mark.parametrize("source", [dict(n=None), dict(family=None), dict()])
def test_instance_file_excludes_family_and_n(source):
    with pytest.raises(ValueError, match="not both"):
        small_config(**source, instance_path="inst.json")


def test_offline_strategy_scores_one():
    summaries = run_experiment(small_config())
    offline = next(s for s in summaries if s.config.strategy == "offline")
    assert offline.mean == pytest.approx(1.0)
    assert offline.ci95 == 0.0
    assert offline.trials == 20


def test_efficiencies_at_most_one():
    for s in run_experiment(small_config()):
        assert 0.0 <= s.mean <= 1.0 + 1e-9


def test_run_experiment_deterministic():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    assert a == b


def test_resolve_instance_from_file(tmp_path):
    inst = complete_uniform(5)
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(inst))
    config = small_config(family=None, n=None, instance_path=str(path))
    resolved = resolve_instance(config)
    assert resolved.arrivals == 5
    assert resolved.resource_count == 5
    with pytest.raises(ValueError, match="family"):
        resolve_instance(small_config(family=None, n=None))


def test_summary_csv_schema():
    summaries = run_experiment(small_config())
    lines = render_results(summaries, "csv").strip().split("\n")
    assert lines[0] == "strategy,k,mean,ci95,trials"
    assert len(lines) == 1 + len(summaries)
    # bit-stable ordering: strategy then k
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == sorted(names)


def test_summary_json_round_trip():
    summaries = run_experiment(small_config())
    doc = json.loads(render_results(summaries, "json"))
    rebuilt = [
        EfficiencySummary(StrategyConfig(d["strategy"], d["k"]), d["mean"], d["ci95"], d["trials"])
        for d in doc
    ]
    assert rebuilt == sorted(
        summaries, key=lambda s: (s.config.strategy, s.config.k if s.config.k is not None else -1)
    )


def test_series_csv_schema():
    series = UnmetDemandSeries(
        timestamps=(START,),
        cumulative={"offline": (1.5,), "kvv": (2.0,)},
    )
    lines = render_results(series, "csv").strip().split("\n")
    assert lines[0] == "timestamp,strategy,cumulative_unmet"
    assert lines[1] == "2025-05-14T08:05:00,kvv,2"
    assert lines[2] == "2025-05-14T08:05:00,offline,1.5"


def test_bad_format_rejected():
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        render_results([], "xml")


def test_nyc_day_series_monotone_and_ordered():
    trips, zones = ingest_trips(TRIPS, ZONES)
    config = ExperimentConfig(
        strategies=(
            StrategyConfig("offline"),
            StrategyConfig("random", k=5),
            StrategyConfig("varopt", k=5),
        ),
        trials=20,
        mc=50,
        seed=3,
    )
    series = run_nyc_day(trips, zones, config, start=START, intervals=3)
    assert len(series.timestamps) == 3
    for label, values in series.cumulative.items():
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), label
    # offline dominates pointwise
    for a, b in zip(series.cumulative["offline"], series.cumulative["random k=5"]):
        assert a <= b + 1e-9


def test_nyc_day_empty_intervals_contribute_zero(caplog):
    trips, zones = ingest_trips(TRIPS, ZONES)
    config = ExperimentConfig(
        strategies=(StrategyConfig("offline"),), trials=5, mc=10, seed=0
    )
    late = datetime.fromisoformat("2025-05-14T12:00:00")
    series = run_nyc_day(trips, zones, config, start=late, intervals=2)
    assert series.cumulative["offline"] == (0.0, 0.0)


def test_nyc_default_interval_derivation():
    trips, zones = ingest_trips(TRIPS, ZONES)
    config = ExperimentConfig(
        strategies=(StrategyConfig("offline"),), trials=2, mc=5, seed=0
    )
    series = run_nyc_day(trips, zones, config)
    assert len(series.timestamps) >= 3
    assert series.timestamps[0].minute % 10 == 5


def test_all_degenerate_trials_rejected():
    from sparsematch.instance import DemandType

    unmatchable = records_instance(
        resources=("a",),
        types=(DemandType(1.0, ()),),
        arrivals=2,
    )
    config = small_config(family=None, n=None)
    with pytest.raises(ValueError, match="empty offline matching"):
        run_experiment(config, instance=unmatchable)


def test_series_json_round_trip():
    series = UnmetDemandSeries(
        timestamps=(START, datetime.fromisoformat("2025-05-14T08:15:00")),
        cumulative={"offline": (1.0, 2.5), "kvv": (2.0, 4.0)},
    )
    doc = json.loads(render_results(series, "json"))
    rebuilt = UnmetDemandSeries(
        timestamps=tuple(datetime.fromisoformat(t) for t in doc["timestamps"]),
        cumulative={k: tuple(v) for k, v in doc["cumulative_unmet"].items()},
    )
    assert rebuilt == series


def test_duplicate_strategies_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        small_config(strategies=(StrategyConfig("kvv"), StrategyConfig("kvv")))


def test_empty_series_renders_header_only():
    series = UnmetDemandSeries(timestamps=(), cumulative={})
    assert render_results(series, "csv") == "timestamp,strategy,cumulative_unmet\n"


def kernel_scores(config, trials, **kwargs):
    """The kernel's lists regrouped by trial: t -> (offline size or None, matched counts by label)."""
    inst = resolve_instance(config)
    base = RngStream(config.seed)
    learned = learn_weight_sources(inst, config, base)
    offline, matched = score_trials(inst, config.strategies, learned, trials,
                                    base.substream("realize"), base.substream("strategy"), **kwargs)
    return {t: (None if offline is None else offline[q], {label: counts[q] for label, counts in matched.items()})
            for q, t in enumerate(trials)}


def test_trial_results_independent_of_scheduling(monkeypatch):
    # Both sparsifiers draw on this instance (random:3 and varopt:3 come with
    # small_config).  With 7 arrival rows per chunk every subset of trials
    # straddles chunk boundaries, and the bound report's path (no offline,
    # streams keyed by k) is held to the same.
    from sparsematch import strategies

    config = small_config(strategies=small_config().strategies + (StrategyConfig("mgs"),
                                                                  StrategyConfig("varopt", k=5)))
    bounds = small_config(strategies=(StrategyConfig("varopt", k=3), StrategyConfig("varopt", k=5)))
    by_k = dict(with_offline=False, stream_key=lambda cfg: cfg.k)
    in_order = kernel_scores(config, list(range(12)))
    bound_order = kernel_scores(bounds, list(range(12)), **by_k)
    for chunk in (strategies.CHUNK_ROWS, 7):
        monkeypatch.setattr(strategies, "CHUNK_ROWS", chunk)
        assert kernel_scores(config, list(reversed(range(12)))) == in_order
        assert kernel_scores(bounds, list(reversed(range(12))), **by_k) == bound_order
        for subset in ([9, 2, 5], [4, 11], [7]):
            assert kernel_scores(config, subset) == {t: in_order[t] for t in subset}
            assert kernel_scores(bounds, subset, **by_k) == {t: bound_order[t] for t in subset}


@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1, 2**63, 2**64 - 2**10 - 1])
def test_trial_streams_in_one_pass_equal_substreams_one_by_one(seed):
    """The kernel's one-pass streams are ``stream.substream(t, *keys)`` taken one
    by one: no key (the realizations), str keys (labels) and int keys (the bound
    report keys by k), for parent stream ids on both sides of 2^63 and trial ids
    up to 2^64 - 1."""
    trials = [0, 1, 2, 99, 2**32, 2**63 - 1, 2**63, 2**64 - 1]
    for stream_id in (0, 5, 2**63 - 1, 2**63, 2**64 - 1):
        stream = RngStream(seed, stream_id)
        for keys in ((), ("kvv",), ("varopt k=3",), (3,), (10,), (0,)):
            got = list(_trial_streams(stream, np.array(trials, dtype=np.uint64), *keys))
            expected = [stream.substream(t, *keys) for t in trials]
            assert [(s.seed, s.stream_id) for s in got] == [(s.seed, s.stream_id) for s in expected], keys
        assert list(_trial_streams(stream, np.array([], dtype=np.uint64), "kvv")) == []


def test_kernel_scores_offline_only_when_asked():
    config = small_config()
    with_offline = kernel_scores(config, [0, 1, 2])
    without = kernel_scores(small_config(strategies=config.strategies[1:]), [0, 1, 2], with_offline=False)
    for t, (offline, matched) in with_offline.items():
        assert matched["offline"] == offline > 0
        # the other strategies' streams are keyed by label, so dropping offline changes none of them
        assert without[t] == (None, {label: count for label, count in matched.items() if label != "offline"})


def test_kernel_skips_strategies_when_offline_matching_is_empty():
    from sparsematch.instance import DemandType

    unmatchable = records_instance(
        resources=("a",), types=(DemandType(1.0, ()),), arrivals=2
    )
    # varopt without weights would raise if it ran
    strategies = (StrategyConfig("offline"), StrategyConfig("varopt", k=2))
    offline, matched = score_trials(unmatchable, strategies, {}, range(3),
                                    RngStream(0), RngStream(1))
    assert (offline, matched) == ([0] * 3, {"offline": [0] * 3, "varopt k=2": [0] * 3})


def test_kernel_offline_equals_max_matching():
    inst = complete_uniform(15)
    offline, matched = score_trials(inst, (StrategyConfig("offline"),), {}, [4], RngStream(9), RngStream(10))
    graph = realize(inst, RngStream(9).substream(4))
    assert offline == matched["offline"] == [max_matching(realized_edge_list(graph)).size]


def test_kernel_draws_once_per_strategy_and_scores_only_its_draws(monkeypatch):
    # draw runs exactly once per strategy of a run other than offline;
    # run_strategy never scores offline, every budgeted call gets one report
    # per arrival, every mgs call its two suggestions per type, and every kvv
    # call the type masks relabeled by a permutation of the resources as their ranks
    from sparsematch import harness, strategies

    drawn, scored, ranks = [], [], {}
    draw, run_strategy = strategies.draw, strategies.run_strategy

    def tracked_draw(graphs, config, rngs, guidance=None):
        drawn.append(config)
        if config.strategy == "kvv":  # the ranks a fresh generator on each graph's stream draws
            ranks.update({id(graph): RngStream(rng.seed, rng.stream_id).generator.permutation(
                graph.instance.resource_count) for graph, rng in zip(graphs, rngs)})
        return draw(graphs, config, rngs, guidance)

    def tracked_run_strategy(graph, config, draws, most=None):
        scored.append((config, graph, draws))
        return run_strategy(graph, config, draws, most=most)

    for module in (strategies, harness):
        monkeypatch.setattr(module, "draw", tracked_draw)
        monkeypatch.setattr(module, "run_strategy", tracked_run_strategy)

    def check(configs, trials):
        assert drawn == [cfg for cfg in configs if cfg.strategy != "offline"]
        assert sorted(cfg.label for cfg, _, _ in scored) == sorted(
            cfg.label for cfg in configs if cfg.strategy != "offline" for _ in range(trials))
        for cfg, graph, draws in scored:
            if cfg.strategy in BUDGETED:
                assert len(draws) == graph.n
            elif cfg.strategy == "mgs":
                assert [len(suggestions) for suggestions in draws] == [graph.instance.type_count] * 2
            else:
                assert sorted(ranks[id(graph)].tolist()) == list(range(graph.instance.resource_count))
                assert draws == graph.instance.type_masks(ranks[id(graph)])
        drawn.clear()
        scored.clear()
        ranks.clear()

    config = small_config(strategies=(StrategyConfig("offline"), StrategyConfig("kvv"), StrategyConfig("mgs"),
                                      StrategyConfig("random", k=3), StrategyConfig("varopt", k=3)), trials=5)
    summaries = run_experiment(config)
    assert all(s.trials == 5 for s in summaries)
    check(config.strategies, 5)
    bounds = small_config(strategies=(StrategyConfig("varopt", k=3), StrategyConfig("varopt", k=5)), trials=4)
    bound_report(resolve_instance(bounds), "block", bounds)
    check(bounds.strategies, 4)


def test_kernel_scores_sizes_without_building_pairs(monkeypatch, tmp_path):
    # Inside score_trials no MatchingResult is built and the pair kernel never
    # runs, under any name a package module binds it to; learning, outside the
    # kernel, still reads the partner lists.
    import sys

    from sparsematch import harness, matching, weights
    from sparsematch.cli import main

    inside, built = [False], {"inside": 0, "outside": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            built["inside" if inside[0] else "outside"] += 1
            return fn(*args, **kwargs)
        return wrapper

    originals = {attr: getattr(matching, attr) for attr in ("MatchingResult", "bitset_matching")}
    for name, module in list(sys.modules.items()):
        if name.startswith("sparsematch") and module is not None:
            for attr, original in originals.items():
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, counted(original))
    monkeypatch.setattr(weights, "partners", counted(weights.partners))  # the control: learning's reader
    score = harness.score_trials

    def scoring(*args, **kwargs):
        inside[0] = True
        try:
            return score(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(harness, "score_trials", scoring)
    out = tmp_path / "synth.csv"
    assert main(["synth", "--family", "block", "--n", "20", "--trials", "5", "--mc", "5",
                 "--strategies", "offline,random:3,varopt:3", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4
    assert built["inside"] == 0
    assert built["outside"] > 0


@pytest.mark.parametrize("trials", [3, 12])
def test_varopt_samplers_built_once_per_experiment(trials, monkeypatch):
    # one batch solve per budget, whatever the trial count
    from sparsematch import varopt

    built = []
    solve = varopt._solve
    monkeypatch.setattr(varopt, "_solve", lambda row, ids, w, size, k: built.append((size, k))
                        or solve(row, ids, w, size, k))
    config = small_config(strategies=(StrategyConfig("varopt", k=3), StrategyConfig("varopt", k=5)),
                          weights="lp", trials=trials)
    inst = resolve_instance(config)
    assert all(t.compatible for t in inst.types)
    run_experiment(config, instance=inst)
    assert built == [(inst.type_count, 3), (inst.type_count, 5)]


def test_nyc_start_without_intervals_runs_through_the_last_event():
    from sparsematch.harness import default_interval_starts

    trips, zones = ingest_trips(TRIPS, ZONES)
    config = ExperimentConfig(strategies=(StrategyConfig("offline"),), trials=2, mc=5, seed=0)
    series = run_nyc_day(trips, zones, config, start=START)
    assert series.timestamps[0] == START
    assert series.timestamps == tuple(t for t in default_interval_starts(trips) if t >= START)


@pytest.mark.parametrize("intervals", [0, -1])
def test_nyc_interval_count_below_one_rejected(intervals):
    trips, zones = ingest_trips(TRIPS, ZONES)
    config = ExperimentConfig(strategies=(StrategyConfig("offline"),), trials=2, mc=5, seed=0)
    with pytest.raises(ValueError, match="intervals must be >= 1"):
        run_nyc_day(trips, zones, config, intervals=intervals)


@pytest.mark.parametrize("strategies, weights, solves", [
    ("varopt:3,varopt:5", "montecarlo", {"montecarlo": 1}),
    ("mgs", "montecarlo", {}),
    ("mgs", "lp", {"lp": 1}),
])
def test_weight_source_solved_once_and_only_when_read(monkeypatch, strategies, weights, solves):
    from sparsematch import harness
    from sparsematch.cli import parse_strategies

    calls = []
    for source, name in (("lp", "solve_expected_lp"), ("montecarlo", "monte_carlo_weights")):
        solve = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *args, solve=solve, source=source: calls.append(source) or solve(*args))
    config = small_config(strategies=parse_strategies(strategies), weights=weights)
    learned = learn_weight_sources(resolve_instance(config), config, RngStream(0))
    assert set(learned) == {cfg.label for cfg in config.strategies}
    assert {source: calls.count(source) for source in calls} == solves
