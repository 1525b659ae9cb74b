"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[acceptance] ... PASS/FAIL` line (run with `-s` to see
them live).  Table-style criteria share one set of seeded experiment runs via
module-scoped fixtures.
"""

import math
import subprocess
import sys
import time
from pathlib import Path
from datetime import datetime

import numpy as np
import pytest

from helpers import (VarOptSampler, brute_force_matching, complete_uniform, full_matching, random_bipartite, solution,
                     solution_dict, varopt_draws)
from sparsematch.bounds import sandwich_check, theorem_bound
from sparsematch.generators import FAMILIES, ingest_trips
from sparsematch.harness import ExperimentConfig, run_experiment, run_nyc_day
from sparsematch.instance import realize
from sparsematch.matching import BipartiteEdgeList, max_matching
from sparsematch.rng import RngStream
from sparsematch.strategies import StrategyConfig, draw, run_strategy, varopt_samplers
from sparsematch.weights import (
    heavy_light,
    monte_carlo_weights,
    solve_expected_lp,
    spread_equivalence_classes,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FAMILY_NAMES = ("block", "triangular", "bahmani", "tsm")

# Reference efficiency results the suite reproduces: (mean, 95% CI half-width) per cell.
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

TABLE_STRATEGIES = tuple(
    [StrategyConfig("offline"), StrategyConfig("kvv"), StrategyConfig("mgs")]
    + [StrategyConfig("random", k=k) for k in (3, 5, 10)]
    + [StrategyConfig("varopt", k=k) for k in (3, 5, 10)]
)


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def table1_results():
    """One full benchmark run per family: n=100, T=100, M=100, seed 0."""
    start = time.perf_counter()
    results = {}
    for family in FAMILY_NAMES:
        config = ExperimentConfig(
            strategies=TABLE_STRATEGIES, family=family, n=100, trials=100, mc=100, seed=0
        )
        results[family] = {s.config.label: s for s in run_experiment(config)}
    return results, time.perf_counter() - start


def test_criterion_1_varopt_exactness():
    start = time.perf_counter()
    gen = np.random.default_rng(1001)
    cases = []
    for _ in range(1000):
        size = int(gen.integers(1, 51))
        weights = gen.random(size) * float(gen.choice([0.2, 1.0, 5.0]))
        weights[gen.random(size) < 0.15] = 0.0
        if not (weights > 0).any():
            weights[int(gen.integers(size))] = 0.4
        k = int(gen.integers(1, 21))
        cases.append((weights, k, VarOptSampler(range(size), weights, k)))
    # sampler i draws arrival i: one batch of rows of unequal lengths
    samples = varopt_draws([sampler for _, _, sampler in cases], RngStream(1001))
    ok = True
    for (weights, k, sampler), sample in zip(cases, samples):
        positive = int((weights > 0).sum())
        probs = sampler.probabilities()
        ok &= abs(sum(probs.values()) - min(k, positive)) <= 1e-9
        ok &= len(sample) == min(k, positive)
        ok &= abs(sum(weights[i] / probs[i] for i in sample) - float(weights.sum())) <= 1e-9
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(1, "varopt exactness", ok and elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_2_varopt_marginals():
    start = time.perf_counter()
    sampler = VarOptSampler([0, 1, 2], [0.5, 0.3, 0.2], k=2)
    trials = 100000
    counts = np.zeros(3)
    for sample in varopt_draws([sampler] * trials, RngStream(1002)):
        for item in sample:
            counts[item] += 1
    freq = counts / trials
    ok = (
        abs(freq[0] - 1.0) <= 0.006
        and abs(freq[1] - 0.6) <= 0.006
        and abs(freq[2] - 0.4) <= 0.006
    )
    elapsed = time.perf_counter() - start
    report(2, "varopt marginals", ok and elapsed < 5,
           f"freqs {freq.round(4).tolist()}, {elapsed:.1f}s")


def test_criterion_3_matching_oracle():
    start = time.perf_counter()
    gen = np.random.default_rng(1003)
    ok = True
    for _ in range(500):
        left = int(gen.integers(1, 9))
        right = int(gen.integers(1, 9))
        edges = tuple(random_bipartite(gen, left, right, 0.4))
        got = max_matching(BipartiteEdgeList(left, right, edges)).size
        if got != brute_force_matching(left, right, edges):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(3, "matching oracle", ok and elapsed < 5, f"{elapsed:.1f}s")


def test_criterion_4_lp_correctness():
    from helpers import exclusive_pairs, records_instance
    from sparsematch.instance import DemandType

    n = 20
    hand_checks = [
        (solve_expected_lp(exclusive_pairs(n)).objective, float(n)),
        (solve_expected_lp(complete_uniform(n)).objective, float(n)),
        (
            solve_expected_lp(
                records_instance(("a",), (DemandType(1.0, (0,)),), arrivals=5)
            ).objective,
            1.0,
        ),
    ]
    ok = all(abs(got - want) <= 1e-6 * max(1.0, want) for got, want in hand_checks)
    for family in FAMILY_NAMES:
        # FractionalSolution.build raises if the LP output violates feasibility
        solution = solve_expected_lp(FAMILIES[family](100))
        ok &= solution.objective > 0
    report(4, "LP correctness", ok, f"hand values {[round(g, 9) for g, _ in hand_checks]}")


def test_criterion_5_offline_mean_sandwich():
    start = time.perf_counter()
    failures = []
    for family in FAMILY_NAMES:
        n = 48 if family == "tsm" else 50  # tsm block size needs n divisible by 4
        instance = FAMILIES[family](n)
        opt = solve_expected_lp(instance).objective
        base = RngStream(1005)
        sizes = [
            full_matching(realize(instance, base.substream(family, t))).size
            for t in range(2000)
        ]
        mean = float(np.mean(sizes))
        stderr = float(np.std(sizes, ddof=1) / math.sqrt(len(sizes)))
        verdict = sandwich_check(opt, mean, stderr)
        if not verdict.passed:
            failures.append((family, opt, mean))
    elapsed = time.perf_counter() - start
    report(5, "offline-mean sandwich", not failures and elapsed < 120,
           f"{elapsed:.1f}s{' ' + str(failures) if failures else ''}")


def test_criterion_6_preservation_bound_soundness():
    start = time.perf_counter()
    failures = []
    for family in FAMILY_NAMES:
        instance = FAMILIES[family](100)
        base = RngStream(1006)
        x = monte_carlo_weights(instance, 100, base.substream("weights", family))
        for k in (3, 5, 10):
            bound = theorem_bound(heavy_light(x, k))
            config = StrategyConfig("varopt", k=k)
            samplers = varopt_samplers(instance, x, k)
            graphs = [realize(instance, base.substream("trial", family, t)) for t in range(200)]
            rngs = [base.substream("s", family, t, k) for t in range(200)]
            reports = draw(graphs, config, rngs, samplers)
            sizes = [run_strategy(graph, config, masks).matched for graph, masks in zip(graphs, reports)]
            mean = float(np.mean(sizes))
            stderr = float(np.std(sizes, ddof=1) / math.sqrt(len(sizes)))
            if bound > mean + 4 * stderr:
                failures.append((family, k, bound, mean))
    elapsed = time.perf_counter() - start
    report(6, "preservation bound soundness", not failures and elapsed < 180,
           f"{elapsed:.1f}s{' ' + str(failures) if failures else ''}")


def test_criterion_7_benchmark_table(table1_results):
    results, elapsed = table1_results
    failures = []
    for family, cells in REFERENCE_TABLE.items():
        for label, (mean, ci) in cells.items():
            half = 4.0 if label == "mgs" else max(2.5, 3.0 * ci)
            got = results[family][label].mean * 100.0
            if not (mean - half <= got <= mean + half):
                failures.append((family, label, round(got, 2), (mean - half, mean + half)))
    for family in FAMILY_NAMES:
        got = results[family]["varopt k=10"].mean * 100.0
        if got < 98.5:
            failures.append((family, "varopt k=10 floor", round(got, 2), ">=98.5"))
    named = [
        ("bahmani", "varopt k=3", 87.2, 92.2),
        ("bahmani", "random k=3", 59.3, 64.3),
        ("triangular", "kvv", 88.8, 93.8),
        ("block", "varopt k=5", 97.44, 99.44),
        ("triangular", "random k=10", 91.83, 94.83),
    ]
    for family, label, lo, hi in named:
        got = results[family][label].mean * 100.0
        if not lo <= got <= hi:
            failures.append((family, label, round(got, 2), (lo, hi)))
    report(7, "benchmark table reproduction", not failures and elapsed < 900,
           f"{elapsed:.0f}s{' ' + str(failures) if failures else ''}")


def test_criterion_8_online_barrier_bypass(table1_results):
    results, _ = table1_results
    details = []
    ok = True
    for label in ("varopt k=5", "varopt k=10"):
        row = results["bahmani"][label]
        stderr = row.ci95 / 1.96 if row.ci95 else 1e-12
        margin_sigmas = (row.mean - 0.901) / stderr
        details.append(f"{label}: {row.mean * 100:.2f}% ({margin_sigmas:.0f} sigma)")
        ok &= margin_sigmas >= 2.0
    report(8, "online barrier bypass", ok, "; ".join(details))


def test_criterion_9_corollary_budget():
    n = 100
    epsilon = 0.25
    k = 16
    instance = complete_uniform(n)
    x = spread_equivalence_classes(instance, solve_expected_lp(instance))
    split = heavy_light(x, k)
    assert split.z_heavy == 0.0
    base = RngStream(1009)
    config = StrategyConfig("varopt", k=k)
    samplers = varopt_samplers(instance, x, k)
    graphs = [realize(instance, base.substream(t)) for t in range(500)]
    rngs = [base.substream("s", t) for t in range(500)]
    reports = draw(graphs, config, rngs, samplers)
    sizes = [run_strategy(graph, config, masks).matched for graph, masks in zip(graphs, reports)]
    z = x.objective
    mean = float(np.mean(sizes))
    stderr = float(np.std(sizes, ddof=1) / math.sqrt(len(sizes)))
    floor = 1.0 - epsilon - 1.0 / z - 4.0 * stderr / z
    ratio = mean / z
    report(9, "Corollary 1 budget", ratio >= floor, f"ratio {ratio:.4f} >= {floor:.4f}")


def test_criterion_10_equivalence_class_spreading():
    failures = []
    for n in (5, 20, 100):
        instance = complete_uniform(n)
        concentrated = solution(instance, {(j, j): 1.0 for j in range(n)})
        spread = spread_equivalence_classes(instance, concentrated)
        if max(solution_dict(spread).values()) > 1.0 / n + 1e-9:
            failures.append((n, "max", max(solution_dict(spread).values())))
        if abs(spread.objective - concentrated.objective) > 1e-9:
            failures.append((n, "objective", spread.objective))
    report(10, "equivalence-class spreading", not failures, str(failures) if failures else "")


def test_criterion_11_cli_determinism(tmp_path):
    outs = []
    for run in range(2):
        out = tmp_path / f"run{run}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "sparsematch.cli", "synth", "--family", "bahmani",
             "--n", "100", "--seed", "7", "--trials", "20", "--out", str(out)],
            capture_output=True, text=True, cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    report(11, "CLI determinism", outs[0] == outs[1], f"{len(outs[0])} bytes")


def test_criterion_12_nyc_pipeline():
    trips, zones = ingest_trips(str(REPO_ROOT / "data" / "nyc_sample_trips.csv"),
                                str(REPO_ROOT / "data" / "nyc_sample_zones.csv"))
    strategies = (
        StrategyConfig("offline"),
        StrategyConfig("random", k=5),
        StrategyConfig("varopt", k=5),
        StrategyConfig("varopt", k=10),
    )
    config = ExperimentConfig(strategies=strategies, trials=50, mc=100, seed=0)
    series = run_nyc_day(
        trips, zones, config,
        start=datetime.fromisoformat("2025-05-14T08:05:00"), intervals=3,
    )
    offline = series.cumulative["offline"]
    v5 = series.cumulative["varopt k=5"]
    v10 = series.cumulative["varopt k=10"]
    r5 = series.cumulative["random k=5"]
    ordered = all(a <= b + 1e-9 and b <= c + 1e-9 for a, b, c in zip(offline, v5, r5))
    near = abs(v10[-1] - offline[-1]) <= 0.10 * offline[-1]
    report(12, "NYC pipeline ordinal", ordered and near,
           f"final unmet offline {offline[-1]:.2f}, varopt10 {v10[-1]:.2f}, "
           f"varopt5 {v5[-1]:.2f}, random5 {r5[-1]:.2f}")
