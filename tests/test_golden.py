"""Byte-exact CLI outputs at fixed seeds.

Every case runs ``sparsematch.cli.main`` with its output going to a temporary
directory and compares the file byte for byte with ``tests/golden/<name>``.
Each expected file was written by the code before the refactor it was added
to guard, so any refactor that keeps them passing keeps the seeded results
the package reports.  After an intended output change, regenerate them from the root of
a checkout with:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

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
}


def run_case(name: str, out_dir: Path) -> bytes:
    args, out_flag = CASES[name]
    out = out_dir / name
    assert main([*args, out_flag, str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert run_case(name, tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        run_case(case, GOLDEN)
        print(f"wrote {GOLDEN / case}")
