"""sparsematch benchmark: the paper table and trip replay, and an n=500 LP scale point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {paper,large-lp} --seed N \\
        --seconds S --trace {0,1}

One process runs one workload, single-threaded, by calling
``sparsematch.cli.main`` in-process with ``--out`` files.  It repeats whole
units of the workload (see workloads.py) until ``--seconds`` would be
exceeded, at least once, all at the same seed.  With ``--trace 0`` the last
stdout line is a JSON object with the end-to-end metrics (medians over
units, at nominal host speed: see hostspeed.py); with ``--trace 1`` it runs one more unit with every layer boundary
wrapped (see layers.py) and reports the per-layer metrics instead, writing
that unit's spans to ``.bench_out/``.  Every output is checked; the counts of
checks run and failed are the result's ``attempted`` and ``failed``.
Exit code 2, with no result printed, when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
END_TO_END_UNITS = {"total_s": "s", "setup_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB"}
PROBE_EVERY_S = 0.3  # wall time between host-speed probes in untraced units
RATIO_METRICS = {"varopt.builds_per_draw", "strategies.matched_per_reported_edge"}


class MissingSource(RuntimeError):
    """The checkout holds no sparsematch source to benchmark."""


def load_package(root: Path):
    """Import ``sparsematch.cli`` from ``root/src``; return it and the import time.

    Thread pools of numerical libraries are pinned to one thread first, so the
    workload runs on one core.
    """
    if not (root / "src" / "sparsematch" / "__init__.py").is_file():
        raise MissingSource(f"no package source under {root / 'src'}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    cli = importlib.import_module("sparsematch.cli")
    return cli, time.perf_counter() - start


@dataclass
class Unit:
    total_s: float
    setup_s: float
    recorder: layers.Recorder
    outputs: dict[str, bytes]
    exit_codes: list[int]


def run_unit(cli, cmds: list[workloads.Command], targets, import_s: float,
             sampler: hostspeed.Sampler) -> Unit:
    """Run the unit's CLI calls with ``targets`` wrapped and ``sampler``
    probing the host's speed; the probes are left out of every time.

    The package import is charged to every unit's total and set-up time,
    since a user pays it once per result.
    """
    gc.collect()
    recorder = layers.Recorder()
    recorder.install(targets)
    codes, spans = [], []
    try:
        with sampler:
            for cmd in cmds:
                begin = time.perf_counter()
                codes.append(cli.main(cmd.argv))
                spans.append((begin, time.perf_counter()))
    finally:
        recorder.restore()
    outputs = {cmd.key: cmd.out.read_bytes() if cmd.out.exists() else b"" for cmd in cmds}
    for cmd in cmds:
        cmd.out.unlink(missing_ok=True)
    return Unit(import_s + sum(sampler.active(begin, finish) for begin, finish in spans),
                import_s + recorder.setup_seconds(sampler.active), recorder, outputs, codes)


def source_fingerprint(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "sparsematch").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_repeats(units: list[Unit], cmds: list[workloads.Command], digest_file: Path,
                  checks: workloads.Checks) -> None:
    """Every unit of a run, and every earlier run of the same package source
    and CLI calls, wrote byte-identical outputs."""
    key = hashlib.sha256(json.dumps([source_fingerprint(ROOT), *(c.args for c in cmds)]).encode()).hexdigest()
    first = units[0].outputs
    for number, unit in enumerate(units[1:], start=2):
        for name, data in unit.outputs.items():
            checks.add(f"unit {number} {name} identical to unit 1", data == first[name])
    digest = hashlib.sha256(b"".join(first[name] for name in sorted(first))).hexdigest()
    known = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    if key in known:
        checks.add("outputs identical to an earlier run", known[key] == digest,
                   f"{digest} vs {known[key]}")
    else:
        known[key] = digest
        partial = digest_file.with_suffix(".tmp")
        partial.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(partial, digest_file)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: workloads.Sizes = workloads.FULL, out_root: Path | None = None) -> dict:
    """Run one workload and return the result object (see the module docstring)."""
    cli, import_s = load_package(ROOT)
    out_root = out_root or ROOT / ".bench_out"
    out_root.mkdir(parents=True, exist_ok=True)
    units: list[Unit] = []
    sampler = hostspeed.Sampler(PROBE_EVERY_S)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        cmds = workloads.commands(workload, ROOT, seed, Path(tmp), sizes)
        begin = time.perf_counter()
        while True:
            units.append(run_unit(cli, cmds, layers.PROBE_TARGETS, import_s, sampler))
            if len(units) == 1:
                # Later units run while the first one's kept realizations
                # (and their instances) are still alive for the checks.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            spent = time.perf_counter() - begin
            if spent + spent / len(units) > seconds:
                break
        traced = run_unit(cli, cmds, layers.TRACE_TARGETS, import_s, hostspeed.Sampler(None)) if trace else None

    checks = workloads.Checks()
    every = units + ([traced] if traced else [])
    for unit in every:
        for cmd, code in zip(cmds, unit.exit_codes):
            checks.add(f"{cmd.key} exit code", code == 0, f"exit code {code}")
    trials = workloads.check_outputs(workload, seed, units[0].outputs, units[0].recorder, sizes, checks)
    workloads.check_per_trial(units[0].recorder.kept.get("strategy", []), checks)
    check_repeats(every, cmds, out_root / "digests.json", checks)
    missing = sorted(set(ref for unit in every for ref in unit.recorder.missing))
    if missing:
        print(f"warning: not in the package, not wrapped: {', '.join(missing)}", file=sys.stderr)
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)

    totals = [u.total_s for u in units]
    slowdown = sampler.slowdown()
    raw = {"total_s": statistics.median(totals),
           "setup_s": statistics.median(u.setup_s for u in units),
           "trials_per_s": statistics.median(trials / (u.total_s - u.setup_s) for u in units)}
    print(f"{workload} seed={seed}: {len(units)} unit(s), total_s {[round(t, 3) for t in totals]}, "
          f"{trials} scored trials per unit, check_fail_frac {checks.failed}/{checks.attempted}, "
          f"{len(sampler.probe_s)} probes, host slowdown {slowdown:.4f}, unscaled "
          + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    if traced is None:
        metrics = {
            "total_s": raw["total_s"] / slowdown,
            "setup_s": raw["setup_s"] / slowdown,
            "trials_per_s": raw["trials_per_s"] * slowdown,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: metric(value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    else:
        traced.recorder.write_spans(out_root / f"spans-{workload}-seed{seed}.json")
        values = layers.layer_metrics(traced.recorder)
        values["trace.overhead_s"] = traced.total_s - statistics.median(totals)
        metrics = {name: metric(value, "ratio" if name in RATIO_METRICS
                                else "s" if name.endswith("_s") else "count")
                   for name, value in values.items()}
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
