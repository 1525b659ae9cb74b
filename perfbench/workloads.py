"""The two workloads: the CLI calls of one unit and the checks on their outputs.

A unit is everything one workload result needs, run in-process through
``sparsematch.cli.main`` with ``--out`` files:

- ``paper``: the paper's table, ``synth`` with the default nine strategies
  and Monte Carlo weights on all four families at n=100, T=100, M=100, then
  the trip replay, ``nyc`` on the bundled sample with default strategies and
  intervals at T=100, M=100 (many small calls; tiny graphs with weights
  relearned per interval);
- ``large-lp``: ``synth --weights lp --strategies offline,varopt:5`` at
  n=500, T=10 on the four families (LP and dense-graph regime).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

NAMES = ("paper", "large-lp")
FAMILY_NAMES = ("block", "triangular", "bahmani", "tsm")
MEAN_TOL = 1e-12
LP_REL_TOL = 1e-9

# Criterion 7 of tests/test_acceptance.py: reference (mean %, 95% CI
# half-width) per cell, with bands of +-4 for mgs and +-max(2.5, 3 * ci)
# elsewhere, a 98.5% floor for varopt k=10 and five named bands.
# test_perfbench.py checks that this copy matches the test module.
# The mgs bands are checked only at the suite's seed: the package's mgs means
# sit 3-3.5 points above the reference on block, triangular and tsm, so seed
# noise (sd 0.3-0.6) puts one of them out of band at 4 of seeds 0-15.
REFERENCE_SEED = 0
REFERENCE_TABLE = {
    "block": {
        "kvv": (82.82, 0.54), "mgs": (70.07, 1.07),
        "random k=3": (74.16, 0.65), "random k=5": (77.48, 0.73), "random k=10": (83.47, 0.55),
        "varopt k=3": (93.61, 0.50), "varopt k=5": (98.44, 0.27), "varopt k=10": (99.97, 0.04),
    },
    "triangular": {
        "kvv": (91.28, 0.45), "mgs": (68.53, 0.89),
        "random k=3": (76.27, 0.53), "random k=5": (84.53, 0.56), "random k=10": (93.33, 0.42),
        "varopt k=3": (95.21, 0.40), "varopt k=5": (99.11, 0.16), "varopt k=10": (99.98, 0.03),
    },
    "bahmani": {
        "kvv": (83.40, 0.53), "mgs": (68.78, 0.72),
        "random k=3": (61.77, 0.77), "random k=5": (66.49, 0.87), "random k=10": (76.80, 0.84),
        "varopt k=3": (89.69, 0.44), "varopt k=5": (95.11, 0.40), "varopt k=10": (99.26, 0.17),
    },
    "tsm": {
        "kvv": (94.58, 0.42), "mgs": (74.93, 0.95),
        "random k=3": (98.13, 0.44), "random k=5": (99.61, 0.20), "random k=10": (99.93, 0.08),
        "varopt k=3": (97.54, 0.50), "varopt k=5": (99.58, 0.19), "varopt k=10": (99.96, 0.05),
    },
}
VAROPT10_FLOOR = 98.5
NAMED_BANDS = (
    ("bahmani", "varopt k=3", 87.2, 92.2),
    ("bahmani", "random k=3", 59.3, 64.3),
    ("triangular", "kvv", 88.8, 93.8),
    ("block", "varopt k=5", 97.44, 99.44),
    ("triangular", "random k=10", 91.83, 94.83),
)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the workloads; ``FULL`` is what the benchmark runs."""

    table_n: int = 100
    table_trials: int = 100
    table_mc: int = 100
    lp_n: int = 500
    lp_trials: int = 10
    nyc_trials: int = 100
    nyc_mc: int = 100

    @property
    def paper_table(self) -> bool:
        return (self.table_n, self.table_trials, self.table_mc) == (100, 100, 100)


FULL = Sizes()


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments apart from ``--out``, and the output path."""

    key: str
    args: tuple[str, ...]
    out: Path

    @property
    def argv(self) -> list[str]:
        return [*self.args, "--out", str(self.out)]


def commands(workload: str, root: Path, seed: int, out_dir: Path, sizes: Sizes) -> list[Command]:
    """The CLI calls of one unit of ``workload``, writing into ``out_dir``."""
    if workload == "paper":
        table = [Command(f, ("synth", "--family", f, "--n", str(sizes.table_n),
                             "--trials", str(sizes.table_trials), "--mc", str(sizes.table_mc),
                             "--seed", str(seed)),
                         out_dir / f"table-{f}.csv")
                 for f in FAMILY_NAMES]
        return table + [Command("nyc", ("nyc", "--trips", str(root / "data" / "nyc_sample_trips.csv"),
                                        "--zones", str(root / "data" / "nyc_sample_zones.csv"),
                                        "--trials", str(sizes.nyc_trials), "--mc", str(sizes.nyc_mc),
                                        "--seed", str(seed)),
                                out_dir / "nyc.csv")]
    if workload == "large-lp":
        return [Command(f, ("synth", "--family", f, "--n", str(sizes.lp_n),
                            "--trials", str(sizes.lp_trials), "--weights", "lp",
                            "--strategies", "offline,varopt:5", "--seed", str(seed)),
                        out_dir / f"lp-{f}.csv")
                for f in FAMILY_NAMES]
    raise ValueError(f"unknown workload {workload!r}")


class Checks:
    """Counts output checks and keeps every failure for the report."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _rows(text: str, header: list[str], checks: Checks, where: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    checks.add(f"{where} header", reader.fieldnames == header, f"got {reader.fieldnames}")
    return list(reader)


def parse_summary(text: str, checks: Checks, where: str) -> dict[str, tuple[float, float, int]]:
    """``synth`` summary CSV as label -> (mean, ci95, trials)."""
    cells = {}
    for row in _rows(text, ["strategy", "k", "mean", "ci95", "trials"], checks, where):
        label = row["strategy"] if not row["k"] else f"{row['strategy']} k={row['k']}"
        cells[label] = (float(row["mean"]), float(row["ci95"]), int(row["trials"]))
    return cells


def check_summary(cells: dict, labels: list[str], checks: Checks, where: str) -> None:
    """Offline is the 100% reference and no strategy beats it on average."""
    checks.add(f"{where} labels", sorted(cells) == sorted(labels), f"got {sorted(cells)}")
    offline = cells.get("offline")
    checks.add(f"{where} offline is 1", offline is not None and offline[:2] == (1.0, 0.0), f"{offline}")
    for label, (mean, _, trials) in cells.items():
        if label != "offline":
            checks.add(f"{where} {label} mean <= 1", mean <= 1.0 + MEAN_TOL, f"{mean}")
            checks.add(f"{where} {label} trials", offline is not None and trials == offline[2],
                       f"{trials} vs offline {offline}")


def check_table_bands(tables: dict[str, dict], seed: int, checks: Checks) -> None:
    for family, cells in REFERENCE_TABLE.items():
        for label, (mean, ci) in cells.items():
            if label == "mgs" and seed != REFERENCE_SEED:
                continue
            half = 4.0 if label == "mgs" else max(2.5, 3.0 * ci)
            got = tables[family].get(label, (math.nan,))[0] * 100.0
            checks.add(f"paper {family} {label} band", mean - half <= got <= mean + half,
                       f"{got:.2f} outside [{mean - half:.2f}, {mean + half:.2f}]")
    for family in FAMILY_NAMES:
        got = tables[family].get("varopt k=10", (math.nan,))[0] * 100.0
        checks.add(f"paper {family} varopt k=10 floor", got >= VAROPT10_FLOOR, f"{got:.2f}")
    for family, label, lo, hi in NAMED_BANDS:
        got = tables[family].get(label, (math.nan,))[0] * 100.0
        checks.add(f"paper {family} {label} named band", lo <= got <= hi, f"{got:.2f} outside [{lo}, {hi}]")


def check_nyc(text: str, labels: list[str], checks: Checks) -> None:
    """Every interval lists every strategy; offline's cumulative unmet demand is
    the lowest and every series is non-decreasing."""
    series: dict[str, dict[str, float]] = {}
    for row in _rows(text, ["timestamp", "strategy", "cumulative_unmet"], checks, "nyc"):
        series.setdefault(row["timestamp"], {})[row["strategy"]] = float(row["cumulative_unmet"])
    checks.add("nyc intervals", len(series) > 0, "no rows")
    previous: dict[str, float] = {}
    for stamp, values in series.items():
        checks.add(f"nyc {stamp} labels", sorted(values) == sorted(labels), f"{sorted(values)}")
        offline = values.get("offline", math.inf)
        for label, value in values.items():
            checks.add(f"nyc {stamp} offline <= {label}", offline <= value, f"{offline} > {value}")
            checks.add(f"nyc {stamp} {label} non-decreasing", value >= previous.get(label, 0.0),
                       f"{value} < {previous.get(label)}")
            previous[label] = value


SYNTH_LABELS = {
    "paper": ["offline", "kvv", "mgs", "random k=3", "random k=5", "random k=10",
              "varopt k=3", "varopt k=5", "varopt k=10"],
    "large-lp": ["offline", "varopt k=5"],
}
NYC_LABELS = ["offline", "kvv", "mgs", "random k=5", "varopt k=5", "varopt k=10"]


def check_outputs(workload: str, seed: int, outputs: dict[str, bytes], recorder, sizes: Sizes,
                  checks: Checks) -> int:
    """Check one unit's output files and the results its recorder kept; return
    the unit's scored trials.

    A scored trial is one realization with every strategy run on it: for
    ``synth`` the offline row's trial count, for ``nyc`` the trial count times
    the intervals whose instance could be built.
    """
    trials = 0
    if workload == "paper":
        check_nyc(outputs["nyc"].decode(), NYC_LABELS, checks)
        trials += sizes.nyc_trials * recorder.counters["nyc.intervals_built"]
    tables = {}
    for family in FAMILY_NAMES:
        cells = parse_summary(outputs[family].decode(), checks, f"{workload} {family}")
        check_summary(cells, SYNTH_LABELS[workload], checks, f"{workload} {family}")
        tables[family] = cells
    if workload == "paper" and sizes.paper_table:
        check_table_bands(tables, seed, checks)
    if workload == "large-lp":
        solved = recorder.kept.get("lp", [])
        checks.add("large-lp one LP per family", len(solved) == len(FAMILY_NAMES), f"{len(solved)} LPs")
        for n, objective in solved:
            checks.add("large-lp LP objective is n", abs(objective - n) <= LP_REL_TOL * n,
                       f"objective {objective!r} for n={n}")
    return trials + sum(tables[f].get("offline", (0, 0, 0))[2] for f in FAMILY_NAMES)


def _matching_size(graph) -> int:
    """Maximum matching size of a realized graph, by scipy if present, else by
    the package's own Hopcroft-Karp."""
    instance = graph.instance
    rows = [instance.types[int(j)].compatible for j in graph.type_ids]
    try:
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching
    except ImportError:
        from sparsematch.matching import BipartiteEdgeList, max_matching
        edges = tuple((i, r) for i, row in enumerate(rows) for r in row)
        return max_matching(BipartiteEdgeList(len(rows), instance.resource_count, edges)).size
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indices = np.fromiter((r for row in rows for r in row), dtype=np.int32, count=int(indptr[-1]))
    matrix = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr),
                        shape=(len(rows), instance.resource_count))
    return int((maximum_bipartite_matching(matrix, perm_type="column") >= 0).sum())


def check_per_trial(records: list, checks: Checks) -> None:
    """No strategy matches more than a maximum matching of its realization,
    i.e. offline's matched count is at least every other strategy's in every
    trial."""
    optimum: dict[int, int] = {}
    for graph, label, matched in records:
        if id(graph) not in optimum:
            optimum[id(graph)] = _matching_size(graph)
        checks.add(f"per-trial {label} <= offline", matched <= optimum[id(graph)],
                   f"{matched} > {optimum[id(graph)]}")
