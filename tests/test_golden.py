"""Byte-exact CLI outputs at fixed seeds.

Every case runs ``sparsematch.cli.main`` with its output going to a temporary
directory and compares the file byte for byte with ``tests/golden/<name>``.
Each expected file was written by the code before the refactor it was added
to guard, so any refactor that keeps them passing keeps the seeded results
the package reports.  The goldens run at n=20; the paper's full-size table
(n=100, where a VarOpt support reaches 35-61 items) and the default trip
replay are pinned by the sha256 prefixes of their outputs, and so are the
four n=500 LP runs of perfbench's ``large-lp`` workload.  After an
intended output change, regenerate the goldens from the root of a checkout
with:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from sparsematch import rng, strategies
from sparsematch.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
TRIPS = str(REPO_ROOT / "data" / "nyc_sample_trips.csv")
ZONES = str(REPO_ROOT / "data" / "nyc_sample_zones.csv")

SMALL = ("--n", "20", "--trials", "10", "--mc", "10", "--seed", "0")

# name -> (arguments, flag that names the output file)
CASES = {
    **{f"synth-{family}.csv": (("synth", "--family", family, *SMALL), "--out")
       for family in ("block", "triangular", "bahmani", "tsm")},
    "synth-bahmani.json": (("synth", "--family", "bahmani", *SMALL, "--format", "json"), "--out"),
    # A seed >= 2^63 puts numpy's Philox key conversion on its exact-uint64 branch.
    "synth-bahmani-bigseed.csv": (("synth", "--family", "bahmani", "--n", "20", "--trials", "10",
                                   "--mc", "10", "--seed", "13835058055282163729"), "--out"),
    "synth-lp-triangular.csv": (("synth", "--family", "triangular", "--n", "20", "--trials", "10",
                                 "--weights", "lp", "--strategies", "offline,random:3,varopt:5",
                                 "--seed", "0"), "--out"),
    "synth-lp-block.csv": (("synth", "--family", "block", "--n", "20", "--trials", "10",
                            "--weights", "lp", "--strategies", "offline,kvv,mgs,varopt:3,varopt:10",
                            "--seed", "0"), "--out"),
    "synth-file-block.csv": (("synth", "--family", "block", "--n", "20", "--trials", "10",
                              "--weights", "file", "--weights-in", str(GOLDEN / "weights-lp.json"),
                              "--strategies", "mgs,varopt:5", "--seed", "0"), "--out"),
    "nyc.csv": (("nyc", "--trips", TRIPS, "--zones", ZONES, "--trials", "5", "--mc", "5",
                 "--seed", "0"), "--out"),
    "nyc-lp.csv": (("nyc", "--trips", TRIPS, "--zones", ZONES, "--weights", "lp", "--trials", "5",
                    "--mc", "5", "--seed", "0"), "--out"),
    **{f"bounds-{source}.csv": (("bounds", "--family", "block", *SMALL, "--k-values", "3,5",
                                 "--weights", source), "--out")
       for source in ("lp", "montecarlo")},
    **{f"weights-{source}.json": (("weights", "--family", "block", "--n", "20", "--mc", "10",
                                   "--seed", "0", "--weights", source), "--weights-out")
       for source in ("lp", "montecarlo")},
    # bahmani and tsm have tied LP optima, so these pin the max-flow's tie-breaking.
    **{f"weights-lp-{family}.json": (("weights", "--family", family, "--n", "20", "--mc", "10",
                                      "--seed", "0", "--weights", "lp"), "--weights-out")
       for family in ("bahmani", "tsm")},
}


def run_case(name: str, out_dir: Path) -> bytes:
    args, out_flag = CASES[name]
    out = out_dir / name
    assert main([*args, out_flag, str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert run_case(name, tmp_path) == (GOLDEN / name).read_bytes()


FULL = ("--trials", "100", "--mc", "100", "--seed", "0")
# name -> (arguments, sha256 prefix of the output), as listed in CHANGES.md
FULL_SIZE = {
    **{f"synth-{family}-100.csv": (("synth", "--family", family, "--n", "100", *FULL), sha)
       for family, sha in (("block", "3f922c12ad121a5d"), ("triangular", "3a4d9a7e6748beeb"),
                           ("bahmani", "74f249ff42e205fd"), ("tsm", "7a28a2f5b7d7e684"))},
    "nyc-default.csv": (("nyc", "--trips", TRIPS, "--zones", ZONES, *FULL), "581181c3c5831f2b"),
    # perfbench's large-lp unit: the LP's tie-breaking at n=500
    **{f"synth-lp-{family}-500.csv": (("synth", "--family", family, "--n", "500", "--trials", "10",
                                       "--weights", "lp", "--strategies", "offline,varopt:5",
                                       "--seed", "0"), sha)
       for family, sha in (("block", "5446feacf6413b55"), ("triangular", "934ae290b052a86a"),
                           ("bahmani", "4a342fec71c510db"), ("tsm", "11051e90bae11340"))},
}


@pytest.mark.parametrize("name", sorted(FULL_SIZE))
def test_full_size_output_sha256(name, tmp_path):
    args, sha = FULL_SIZE[name]
    out = tmp_path / name
    assert main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == sha


def test_lp_varopt_on_block_builds_no_philox_for_its_draws(monkeypatch, tmp_path):
    # The LP puts each block type on one resource, so every VarOpt draw is
    # deterministic: the sparsifier's one batch over the trials computes no
    # Philox words and builds no generator (the realizations do).
    inside, philox_builds, sparsify_calls, words = [False], [], [], []
    philox, sparsify, blocks = np.random.Philox, strategies.varopt_sparsify, rng.philox_blocks

    def counting_philox(*args, **kwargs):
        philox_builds.append(inside[0])
        return philox(*args, **kwargs)

    def counting_blocks(keys, counters):
        words.append(4 * len(counters))
        return blocks(keys, counters)

    def tracked_sparsify(*args):
        sparsify_calls.append(args)
        inside[0] = True
        try:
            return sparsify(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    monkeypatch.setattr(rng, "philox_blocks", counting_blocks)
    monkeypatch.setattr(strategies, "varopt_sparsify", tracked_sparsify)
    assert main(["synth", "--family", "block", "--n", "100", "--trials", "10", "--weights", "lp",
                 "--strategies", "varopt:5", "--seed", "0", "--out", str(tmp_path / "out.csv")]) == 0
    assert [len(graphs) for graphs, _, _ in sparsify_calls] == [10]
    assert philox_builds and not any(philox_builds)
    assert words == []



def test_mgs_draws_every_trial_on_philox_words_and_builds_no_philox(monkeypatch, tmp_path):
    # mgs's one batch over the trials draws its suggestions from Philox words
    # computed in numpy: it builds no generator (the realizations do).
    inside, philox_builds, mgs_calls, words = [False], [], [], []
    philox, mgs, blocks = np.random.Philox, strategies.mgs, rng.philox_blocks

    def counting_philox(*args, **kwargs):
        philox_builds.append(inside[0])
        return philox(*args, **kwargs)

    def counting_blocks(keys, counters):
        words.append(inside[0])
        return blocks(keys, counters)

    def tracked_mgs(*args):
        mgs_calls.append(args)
        inside[0] = True
        try:
            return mgs(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    monkeypatch.setattr(rng, "philox_blocks", counting_blocks)
    monkeypatch.setattr(strategies, "mgs", tracked_mgs)
    assert main(["synth", "--family", "block", "--n", "100", "--trials", "10", "--mc", "10",
                 "--strategies", "mgs", "--seed", "0", "--out", str(tmp_path / "out.csv")]) == 0
    assert [len(graphs) for graphs, _, _ in mgs_calls] == [10]
    assert philox_builds and not any(philox_builds)
    assert any(words)

if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        run_case(case, GOLDEN)
        print(f"wrote {GOLDEN / case}")
