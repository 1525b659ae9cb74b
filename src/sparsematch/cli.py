"""Command-line harness.

Subcommands:
  synth    score strategies on a synthetic family (or an instance JSON file)
  nyc      replay trip data in 10-minute intervals, cumulative unmet demand
  bounds   evaluate the theoretical guarantee against empirical sparsifier runs
  weights  learn fractional weights and cache them as JSON

Each flag's default is declared once, in ``build_parser``.  Each line of a
flat ``key = value`` config file (--config) becomes a ``--key=value`` token
ahead of the command line's own, so the one parser checks file values like
flags and command-line values win.  Exit codes: 0 success, 2 rejected input
(a ValueError), 3 I/O error (an OSError).
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from dataclasses import fields
from datetime import datetime

from .generators import FAMILIES, ingest_trips
from .harness import (
    WEIGHT_SOURCES,
    ExperimentConfig,
    bound_report,
    render_results,
    resolve_instance,
    run_experiment,
    run_nyc_day,
    solution_for_source,
)
from .rng import RngStream
from .strategies import StrategyConfig
from .weights import solution_to_json

log = logging.getLogger(__name__)

def parse_strategies(text: str) -> tuple[StrategyConfig, ...]:
    """Parse 'offline,kvv,random:3,varopt:5' into strategy configs; blank entries are skipped."""
    configs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, k_text = token.partition(":")
        configs.append(StrategyConfig(name, k=int(k_text) if k_text else None))
    return tuple(configs)


def load_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            if key in values:
                raise ValueError(f"{path}:{lineno}: {key} is set twice")
            values[key] = value
    return values


def _add_shared_flags(parser: argparse.ArgumentParser, sources: tuple[str, ...] = WEIGHT_SOURCES) -> None:
    parser.add_argument("--config", help="flat key = value config file; CLI flags override it")
    parser.add_argument("--seed", type=int, default=ExperimentConfig.seed,
                        help="base seed (default %(default)s)")
    parser.add_argument("--mc", type=int, default=ExperimentConfig.mc,
                        help="Monte Carlo simulations for weight learning (default %(default)s)")
    parser.add_argument("--weights", choices=sources, default=ExperimentConfig.weights,
                        help="weight source for every guided strategy (default %(default)s)")


def _add_trial_flags(parser: argparse.ArgumentParser, formats: bool) -> None:
    """Flags of the subcommands that run trials and report on them."""
    parser.add_argument("--trials", type=int, default=ExperimentConfig.trials,
                        help="trial count (default %(default)s)")
    parser.add_argument("--weights-in", help="cached weights JSON (for --weights file)")
    parser.add_argument("--out", help="output path (default: stdout)")
    if formats:
        parser.add_argument("--format", choices=("csv", "json"), default="csv",
                            help="output format (default %(default)s)")


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
    synth.add_argument("--strategies", help="comma list, name[:k] (default %(default)s)",
                       default="offline,kvv,mgs,random:3,random:5,random:10,varopt:3,varopt:5,varopt:10")

    nyc = sub.add_parser("nyc", help="replay trip data in 10-minute intervals")
    _add_shared_flags(nyc)
    _add_trial_flags(nyc, formats=True)
    nyc.add_argument("--trips", required=True, help="trip CSV (TLC schema)")
    nyc.add_argument("--zones", required=True, help="zone adjacency CSV (zone_a,zone_b)")
    nyc.add_argument("--start", "--interval", dest="start",
                     help="first interval time, local with no UTC offset (default: derived from data)")
    nyc.add_argument("--intervals", type=int, help="number of 10-minute intervals")
    nyc.add_argument("--strategies", help="comma list (default %(default)s)",
                     default="offline,kvv,mgs,random:5,varopt:5,varopt:10")

    bounds_cmd = sub.add_parser("bounds", help="theoretical bound vs empirical sparsifier")
    _add_shared_flags(bounds_cmd)
    _add_trial_flags(bounds_cmd, formats=False)
    _add_instance_flags(bounds_cmd)
    bounds_cmd.add_argument("--k-values", default="3,5,10", help="comma list of budgets (default %(default)s)")

    weights_cmd = sub.add_parser("weights", help="learn and cache fractional weights")
    _add_shared_flags(weights_cmd, sources=("lp", "montecarlo"))
    _add_instance_flags(weights_cmd)
    weights_cmd.add_argument("--weights-out", required=True, help="where to write the weights JSON")
    return parser


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The --config pre-parser and ``build_parser()``, built once per process:
    parsing leaves a parser as it was, so every ``main`` call shares them."""
    pre = argparse.ArgumentParser(prog="sparsematch", add_help=False)
    pre.add_argument("--config")
    return pre, build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with the --config file's lines as flags ahead of the
    command line's own, so that command-line values win."""
    pre, parser = _parsers()
    path = pre.parse_known_args(argv)[0].config
    file_values = load_config_file(path) if path else {}
    tokens = [f"--{key}={value}" for key, value in file_values.items()]
    args = parser.parse_args([*argv[:1], *tokens, *argv[1:]])
    # argparse accepts abbreviations and aliases; a key must be a flag's exact name
    known = {dest.replace("_", "-") for dest in vars(args)} - {"command", "config"}
    unknown = sorted(set(file_values) - known)
    if unknown:
        raise ValueError(f"{path}: {', '.join(unknown)} names no flag of {args.command}")
    return args


def _experiment_config(args: argparse.Namespace, strategies: tuple[StrategyConfig, ...]) -> ExperimentConfig:
    """The run's config from the flags its subcommand takes; the fields of
    flags it lacks keep their ``ExperimentConfig`` defaults."""
    given = {**vars(args), "instance_path": getattr(args, "instance", None), "strategies": strategies}
    return ExperimentConfig(**{f.name: given[f.name] for f in fields(ExperimentConfig) if f.name in given})


def _write(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        with open(out, "w") as fh:
            fh.write(payload)


def _cmd_synth(args: argparse.Namespace) -> int:
    summaries = run_experiment(_experiment_config(args, parse_strategies(args.strategies)))
    _write(render_results(summaries, args.format), args.out)
    return 0


def _cmd_nyc(args: argparse.Namespace) -> int:
    config = _experiment_config(args, parse_strategies(args.strategies))
    start = datetime.fromisoformat(args.start) if args.start else None
    if start is not None and start.tzinfo is not None:
        raise ValueError(f"--start {args.start} carries a UTC offset; give local time, like the trip data")
    trips, zones = ingest_trips(args.trips, args.zones)
    series = run_nyc_day(trips, zones, config, start=start, intervals=args.intervals)
    _write(render_results(series, args.format), args.out)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    budgets = tuple(StrategyConfig("varopt", int(k)) for k in args.k_values.split(","))
    config = _experiment_config(args, budgets)
    rows = bound_report(resolve_instance(config), args.family or "instance", config)
    lines = ["family,k,z,heavy_fraction,bound,empirical_mean,stderr,vacuous,verdict"]
    for r in rows:
        lines.append(
            f"{r.family},{r.k},{r.z:.12g},{r.heavy_fraction:.12g},{r.bound:.12g},"
            f"{r.empirical_mean:.12g},{r.stderr:.12g},{str(r.vacuous).lower()},"
            f"{'sound' if r.sound else 'violated'}"
        )
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_weights(args: argparse.Namespace) -> int:
    config = _experiment_config(args, (StrategyConfig("offline"),))
    instance = resolve_instance(config)
    x = solution_for_source(instance, config, RngStream(config.seed))
    _write(solution_to_json(x, instance.arrivals) + "\n", args.weights_out)
    return 0


COMMANDS = {"synth": _cmd_synth, "nyc": _cmd_nyc, "bounds": _cmd_bounds, "weights": _cmd_weights}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        return COMMANDS[args.command](args)
    except OSError as exc:
        log.error("I/O failure: %s", exc)
        return 3
    except ValueError as exc:
        log.error("configuration error: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
