"""Command-line harness.

Subcommands:
  synth    score strategies on a synthetic family (or an instance JSON file)
  nyc      replay trip data in 10-minute intervals, cumulative unmet demand
  bounds   evaluate the theoretical guarantee against empirical sparsifier runs
  weights  learn fractional weights and cache them as JSON

Flags may also come from a flat ``key = value`` config file (--config);
command-line values win.  Exit codes: 0 success, 2 configuration error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from datetime import datetime

from .generators import FAMILIES, ingest_trips
from .harness import (
    ConfigError,
    EfficiencySummary,
    ExperimentConfig,
    UnmetDemandSeries,
    bound_report,
    render_results,
    resolve_instance,
    run_experiment,
    run_nyc_day,
    solution_for_source,
)
from .rng import RngStream
from .strategies import STRATEGIES, StrategyConfig
from .weights import solution_to_json

log = logging.getLogger(__name__)

DEFAULT_STRATEGIES = "offline,kvv,mgs,random:3,random:5,random:10,varopt:3,varopt:5,varopt:10"
DEFAULT_NYC_STRATEGIES = "offline,kvv,mgs,random:5,varopt:5,varopt:10"


def parse_strategies(text: str, weight_source: str) -> tuple[StrategyConfig, ...]:
    """Parse 'offline,kvv,random:3,varopt:5' into strategy configs."""
    configs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, k_text = token.partition(":")
        k = int(k_text) if k_text else None
        guided = name in STRATEGIES and STRATEGIES[name].guided
        configs.append(StrategyConfig(name, k=k, weights=weight_source if guided else None))
    if not configs:
        raise ConfigError("empty strategy list")
    return tuple(configs)


def load_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            values[key.strip()] = value.strip()
    return values


class _Resolver:
    """CLI value if given, else config-file value, else built-in default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = load_config_file(args.config) if args.config else {}
        known = {dest.replace("_", "-") for dest in vars(args)} - {"command", "config"}
        unknown = sorted(set(self.file_values) - known)
        if unknown:
            raise ConfigError(f"{args.config}: {', '.join(unknown)} names no flag of {args.command}")

    def get(self, key: str, default=None, convert=str):
        cli_value = getattr(self.args, key.replace("-", "_"), None)
        if cli_value is not None:
            return cli_value
        if key in self.file_values:
            return convert(self.file_values[key])
        return default


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file; CLI flags override it")
    parser.add_argument("--seed", type=int, help="base seed (default 0)")
    parser.add_argument("--mc", type=int, help="Monte Carlo simulations for weight learning (default 100)")
    parser.add_argument("--weights", choices=("lp", "montecarlo", "file"),
                        help="weight source for guided strategies (default montecarlo)")


def _add_trial_flags(parser: argparse.ArgumentParser, formats: bool) -> None:
    """Flags of the subcommands that run trials and report on them."""
    parser.add_argument("--trials", type=int, help="trial count (default 100)")
    parser.add_argument("--weights-in", help="cached weights JSON (for --weights file)")
    parser.add_argument("--out", help="output path (default: stdout)")
    if formats:
        parser.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=sorted(FAMILIES), help="synthetic family")
    parser.add_argument("--n", type=int, help="family size parameter")
    parser.add_argument("--instance", help="instance JSON file (alternative to --family)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsematch",
                                     description="Local sparsification benchmarks for stochastic matching")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="run strategies on a synthetic family")
    _add_shared_flags(synth)
    _add_trial_flags(synth, formats=True)
    _add_instance_flags(synth)
    synth.add_argument("--strategies", help=f"comma list, name[:k] (default {DEFAULT_STRATEGIES})")

    nyc = sub.add_parser("nyc", help="replay trip data in 10-minute intervals")
    _add_shared_flags(nyc)
    _add_trial_flags(nyc, formats=True)
    nyc.add_argument("--trips", required=True, help="trip CSV (TLC schema)")
    nyc.add_argument("--zones", required=True, help="zone adjacency CSV (zone_a,zone_b)")
    nyc.add_argument("--start", "--interval", dest="start",
                     help="first interval time, RFC3339 (default: derived from data)")
    nyc.add_argument("--intervals", type=int, help="number of 10-minute intervals")
    nyc.add_argument("--strategies", help=f"comma list (default {DEFAULT_NYC_STRATEGIES})")

    bounds_cmd = sub.add_parser("bounds", help="theoretical bound vs empirical sparsifier")
    _add_shared_flags(bounds_cmd)
    _add_trial_flags(bounds_cmd, formats=False)
    _add_instance_flags(bounds_cmd)
    bounds_cmd.add_argument("--k-values", help="comma list of budgets (default 3,5,10)")

    weights_cmd = sub.add_parser("weights", help="learn and cache fractional weights")
    _add_shared_flags(weights_cmd)
    _add_instance_flags(weights_cmd)
    weights_cmd.add_argument("--weights-out", required=True, help="where to write the weights JSON")

    return parser


def _experiment_config(res: _Resolver, strategies: tuple[StrategyConfig, ...]) -> ExperimentConfig:
    return ExperimentConfig(
        strategies=strategies,
        family=res.get("family"),
        n=res.get("n", convert=int),
        instance_path=res.get("instance"),
        trials=res.get("trials", 100, int),
        mc=res.get("mc", 100, int),
        seed=res.get("seed", 0, int),
        weights_in=res.get("weights-in"),
    )


def _write(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        with open(out, "w") as fh:
            fh.write(payload)


def _emit(results: list[EfficiencySummary] | UnmetDemandSeries, res: _Resolver) -> None:
    _write(render_results(results, res.get("format", "csv")), res.get("out"))


def _cmd_synth(res: _Resolver) -> int:
    strategies = parse_strategies(res.get("strategies", DEFAULT_STRATEGIES),
                                  res.get("weights", "montecarlo"))
    config = _experiment_config(res, strategies)
    summaries = run_experiment(config)
    _emit(summaries, res)
    return 0


def _cmd_nyc(res: _Resolver) -> int:
    strategies = parse_strategies(res.get("strategies", DEFAULT_NYC_STRATEGIES),
                                  res.get("weights", "montecarlo"))
    config = _experiment_config(res, strategies)
    trips, zones = ingest_trips(res.get("trips"), res.get("zones"))
    start_text = res.get("start")
    start = datetime.fromisoformat(start_text) if start_text else None
    series = run_nyc_day(trips, zones, config, start=start, intervals=res.get("intervals", convert=int))
    _emit(series, res)
    return 0


def _cmd_bounds(res: _Resolver) -> int:
    config = _experiment_config(res, (StrategyConfig("offline"),))
    instance = resolve_instance(config)
    ks = [int(v) for v in res.get("k-values", "3,5,10").split(",")]
    rows = bound_report(instance, res.get("family", "instance"), ks, config,
                        res.get("weights", "montecarlo"))
    lines = ["family,k,z,heavy_fraction,bound,empirical_mean,stderr,vacuous,verdict"]
    for r in rows:
        lines.append(
            f"{r.family},{r.k},{r.z:.12g},{r.heavy_fraction:.12g},{r.bound:.12g},"
            f"{r.empirical_mean:.12g},{r.stderr:.12g},{str(r.vacuous).lower()},"
            f"{'sound' if r.sound else 'violated'}"
        )
    _write("\n".join(lines) + "\n", res.get("out"))
    return 0


def _cmd_weights(res: _Resolver) -> int:
    config = _experiment_config(res, (StrategyConfig("offline"),))
    instance = resolve_instance(config)
    source = res.get("weights", "montecarlo")
    if source == "file":
        raise ConfigError("the weights command learns from 'lp' or 'montecarlo'")
    x = solution_for_source(instance, source, config, RngStream(config.seed))
    _write(solution_to_json(x, instance.arrivals) + "\n", res.get("weights-out"))
    return 0


COMMANDS = {"synth": _cmd_synth, "nyc": _cmd_nyc, "bounds": _cmd_bounds, "weights": _cmd_weights}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](_Resolver(args))
    except OSError as exc:
        log.error("I/O failure: %s", exc)
        return 3
    except (ConfigError, ValueError) as exc:
        log.error("configuration error: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
