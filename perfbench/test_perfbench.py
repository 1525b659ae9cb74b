"""Self-tests of the benchmark at tiny sizes: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import importlib
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import hostspeed
import layers
import run
import workloads

TINY = workloads.Sizes(table_n=20, table_trials=4, table_mc=4, lp_n=20, lp_trials=2,
                       nyc_trials=4, nyc_mc=4)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def reported(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_checks_pass_and_reports_end_to_end_metrics(workload, tmp_path):
    result = run.run(workload, seed=5, seconds=0, trace=False, sizes=TINY, out_root=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert reported(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def package_snapshot() -> dict:
    """Every module attribute, class member and module-level dict item of the package."""
    snapshot = {}
    for module in layers.package_modules():
        for attr, value in vars(module).items():
            snapshot[module.__name__, attr] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for member, raw in vars(value).items():
                    snapshot[module.__name__, attr, member] = raw
            elif type(value) is dict:
                for key, item in value.items():
                    snapshot[module.__name__, attr, "item", key] = item
    return snapshot


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_runs_repeat_counts_and_restore_the_package(workload, tmp_path):
    run.load_package(run.ROOT)
    before = package_snapshot()
    first = run.run(workload, seed=5, seconds=0, trace=True, sizes=TINY, out_root=tmp_path)
    after = package_snapshot()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []

    second = run.run(workload, seed=5, seconds=0, trace=True, sizes=TINY, out_root=tmp_path)
    assert first["correct"] and second["correct"]
    assert reported(first) == declared("per_layer")
    counts = [name for name, unit in reported(first).items() if unit in ("count", "ratio")]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}
    spans = json.loads((tmp_path / f"spans-{workload}-seed5.json").read_text())
    assert len(spans["start"]) == len(spans["end"]) == len(spans["parent"]) > 0


def test_traced_run_wraps_every_target():
    run.load_package(run.ROOT)
    recorder = layers.Recorder()
    recorder.install(layers.TRACE_TARGETS)
    recorder.restore()
    assert recorder.missing == []


def test_sampler_probes_leave_durations_and_restore_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler(0.02)
    with sampler:
        begin = time.perf_counter()
        while time.perf_counter() - begin < 0.3:
            pass
        finish = time.perf_counter()
    assert len(sampler.probe_s) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # The first probe ran before ``begin``; the last may have run after ``finish``.
    elapsed, active = finish - begin, sampler.active(begin, finish)
    assert elapsed - sum(sampler.probe_s[1:]) - 1e-3 <= active <= elapsed - sum(sampler.probe_s[1:-1]) + 1e-3
    assert sampler.slowdown() > 0


def test_reference_bands_match_the_acceptance_suite():
    run.load_package(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "tests"))
    acceptance = importlib.import_module("test_acceptance")
    assert workloads.REFERENCE_TABLE == acceptance.REFERENCE_TABLE


def test_exits_without_result_when_the_checkout_has_no_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
