"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload table --seeds 100-109 --seconds 20 \\
        [--trace 0] [--json FILE]

Runs are made one after another, each in its own process.  The spread of a
metric is the distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median, the
quantity the bounds in BENCHMARK.json are compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma list of seeds or ranges, e.g. 100-109")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    checks = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                               "--seconds", args.seconds, "--trace", args.trace],
                              capture_output=True, text=True, cwd=RUN.parent.parent)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        checks.append({"seed": seed, "correct": result["correct"],
                       "attempted": result["attempted"], "failed": result["failed"]})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    summary = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "checks": checks,
               "metrics": {name: summarize(v) for name, v in values.items()}}
    for name, s in summary["metrics"].items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name}: median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
