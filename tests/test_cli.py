import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from sparsematch.cli import build_parser, load_config_file, main, parse_strategies

REPO_ROOT = Path(__file__).resolve().parents[1]
TRIPS = str(REPO_ROOT / "data" / "nyc_sample_trips.csv")
ZONES = str(REPO_ROOT / "data" / "nyc_sample_zones.csv")


def run_cli(args, cwd=str(REPO_ROOT)):
    return subprocess.run(
        [sys.executable, "-m", "sparsematch.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_parse_strategies():
    configs = parse_strategies("offline,kvv,random:3,varopt:5")
    assert [c.label for c in configs] == ["offline", "kvv", "random k=3", "varopt k=5"]
    assert parse_strategies(" , ") == ()
    assert main(["synth", "--family", "block", "--n", "20", "--trials", "2", "--strategies", " , "]) == 2


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("# comment\nfamily = block\nn = 20\ntrials = 5\n")
    values = load_config_file(str(path))
    assert values == {"family": "block", "n": "20", "trials": "5"}
    bad = tmp_path / "bad.conf"
    bad.write_text("family block\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        load_config_file(str(bad))


def test_synth_runs_and_is_deterministic(tmp_path):
    args = ["synth", "--family", "bahmani", "--n", "20", "--seed", "7", "--trials", "5",
            "--mc", "10", "--strategies", "offline,random:3,varopt:3"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stdout.startswith("strategy,k,mean,ci95,trials")


def test_synth_json_output(tmp_path):
    out = tmp_path / "rows.json"
    code = main(["synth", "--family", "block", "--n", "20", "--seed", "1", "--trials", "4",
                 "--mc", "8", "--strategies", "offline,kvv", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert {d["strategy"] for d in doc} == {"offline", "kvv"}


def test_config_file_with_cli_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("family = block\nn = 20\ntrials = 3\nmc = 8\nstrategies = offline,kvv\n")
    out1 = tmp_path / "a.csv"
    code = main(["synth", "--config", str(conf), "--seed", "2", "--out", str(out1)])
    assert code == 0
    rows = out1.read_text().strip().split("\n")
    assert len(rows) == 3  # header + offline + kvv
    assert rows[1].endswith(",3")  # trials from the file
    out2 = tmp_path / "b.csv"
    code = main(["synth", "--config", str(conf), "--seed", "2", "--trials", "5", "--out", str(out2)])
    assert code == 0
    assert out2.read_text().strip().split("\n")[1].endswith(",5")  # CLI wins


def test_weights_round_trip(tmp_path):
    cache = tmp_path / "w.json"
    code = main(["weights", "--family", "block", "--n", "20", "--seed", "3", "--mc", "15",
                 "--weights-out", str(cache)])
    assert code == 0
    doc = json.loads(cache.read_text())
    assert doc["n"] == 20
    assert doc["entries"]
    out = tmp_path / "rows.csv"
    code = main(["synth", "--family", "block", "--n", "20", "--seed", "3", "--trials", "4",
                 "--strategies", "offline,varopt:5", "--weights", "file",
                 "--weights-in", str(cache), "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 3


def test_bounds_subcommand(tmp_path):
    out = tmp_path / "bounds.csv"
    code = main(["bounds", "--family", "block", "--n", "20", "--seed", "1", "--trials", "10",
                 "--mc", "10", "--k-values", "3,5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("family,k,z,heavy_fraction,bound,empirical_mean")
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.split(",")[-1] in ("sound", "violated")


def test_nyc_subcommand(tmp_path):
    out = tmp_path / "series.csv"
    code = main(["nyc", "--trips", TRIPS, "--zones", ZONES, "--seed", "1", "--trials", "3",
                 "--mc", "10", "--start", "2025-05-14T08:05:00", "--intervals", "2",
                 "--strategies", "offline,random:5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "timestamp,strategy,cumulative_unmet"
    assert len(lines) == 1 + 2 * 2


def test_exit_code_2_on_config_error():
    assert main(["synth", "--family", "block", "--n", "15", "--trials", "2"]) == 2
    assert main(["synth", "--trials", "2"]) == 2  # no instance source
    assert main(["synth", "--family", "block", "--n", "20",
                 "--strategies", "warp:3"]) == 2


def test_exit_code_3_on_io_error(tmp_path):
    assert main(["nyc", "--trips", "/nonexistent/trips.csv", "--zones", ZONES]) == 3
    assert main(["synth", "--family", "block", "--n", "20", "--trials", "2", "--mc", "5",
                 "--strategies", "offline", "--out", "/nonexistent/dir/out.csv"]) == 3


def test_parser_rejects_unknown_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["transmogrify"])


def test_synth_from_instance_file(tmp_path):
    from helpers import complete_uniform
    from sparsematch.instance import instance_to_json

    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(complete_uniform(6)))
    out = tmp_path / "rows.csv"
    code = main(["synth", "--instance", str(inst_path), "--seed", "4", "--trials", "3",
                 "--mc", "5", "--strategies", "offline,random:2", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 3


def test_bad_start_timestamp_is_config_error():
    assert main(["nyc", "--trips", TRIPS, "--zones", ZONES, "--trials", "2", "--mc", "5",
                 "--strategies", "offline", "--start", "not-a-time"]) == 2


def test_start_with_a_utc_offset_exits_2(monkeypatch, capsys):
    import sparsematch.cli as cli

    monkeypatch.setattr(cli, "run_nyc_day", refuse_to_run)
    assert main(["nyc", "--trips", TRIPS, "--zones", ZONES, "--trials", "2", "--mc", "5",
                 "--strategies", "offline", "--start", "2025-05-14T08:05:00+00:00"]) == 2
    assert capsys.readouterr().out == ""


def assert_trip_row_is_dropped(tmp_path, caplog, capsys, row):
    """A run on the bundled trips with ``row`` added prints what a run without it
    prints, and the row is counted in the warning."""
    lines = Path(TRIPS).read_text().splitlines(keepends=True)
    with_row = tmp_path / "trips.csv"
    with_row.write_text("".join([lines[0], row + "\n", *lines[1:]]))
    outputs = []
    for trips in (TRIPS, str(with_row)):
        assert main(["nyc", "--trips", trips, "--zones", ZONES, "--seed", "3", "--trials", "2", "--mc", "5",
                     "--start", "2025-05-14T08:05:00", "--intervals", "2",
                     "--strategies", "offline,varopt:5"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "dropped 1 malformed, UTC-offset or unknown-zone trip rows" in caplog.text


def test_trip_row_with_a_utc_offset_is_dropped(tmp_path, caplog, capsys):
    # Read as local time, the extra trip would add demand at 08:05 and supply
    # at 08:15; with its offset it is dropped, and the output is the bundled file's.
    assert_trip_row_is_dropped(tmp_path, caplog, capsys, "2025-05-14 08:06:00+00:00,2025-05-14 08:12:00,4,8")


def test_trip_row_with_a_missing_field_is_dropped(tmp_path, caplog, capsys):
    assert_trip_row_is_dropped(tmp_path, caplog, capsys, "2025-05-14 08:01:00,2025-05-14 08:09:00")


def test_zone_row_with_a_missing_field_exits_2(tmp_path, caplog, capsys):
    zones = tmp_path / "zones.csv"
    zones.write_text(Path(ZONES).read_text() + "161\n")  # the file's 9th line
    assert main(["nyc", "--trips", TRIPS, "--zones", str(zones), "--trials", "2", "--mc", "5",
                 "--strategies", "offline"]) == 2
    assert f"{zones}:9: expected a value for each of" in caplog.text
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("line", ["161,", ",161", "161, "])
def test_zone_row_with_an_empty_field_exits_2(tmp_path, caplog, capsys, line):
    # An empty zone name would make a trip row's empty location a known zone.
    zones = tmp_path / "zones.csv"
    zones.write_text(Path(ZONES).read_text() + line + "\n")  # the file's 9th line
    assert main(["nyc", "--trips", TRIPS, "--zones", str(zones), "--trials", "2", "--mc", "5",
                 "--strategies", "offline"]) == 2
    assert f"{zones}:9: expected a value for each of" in caplog.text
    assert capsys.readouterr().out == ""


def test_csv_header_without_a_required_column_exits_2(tmp_path, caplog, capsys):
    short = tmp_path / "short.csv"
    short.write_text("tpep_pickup_datetime,tpep_dropoff_datetime,PULocationID\n")
    for trips, zones in ((str(short), ZONES), (TRIPS, str(short))):
        caplog.clear()
        assert main(["nyc", "--trips", trips, "--zones", zones, "--trials", "2", "--mc", "5",
                     "--strategies", "offline"]) == 2
        assert f"{short}: expected columns" in caplog.text
    assert capsys.readouterr().out == ""


def test_bounds_file_weights_use_the_cached_file(tmp_path):
    cache = tmp_path / "lp.json"
    assert main(["weights", "--family", "block", "--n", "20", "--seed", "3", "--weights", "lp",
                 "--weights-out", str(cache)]) == 0
    common = ["bounds", "--family", "block", "--n", "20", "--seed", "3", "--trials", "10",
              "--k-values", "3,5"]
    lp_out, file_out = tmp_path / "lp.csv", tmp_path / "file.csv"
    assert main([*common, "--weights", "lp", "--out", str(lp_out)]) == 0
    assert main([*common, "--weights", "file", "--weights-in", str(cache), "--out", str(file_out)]) == 0
    rows = [line.split(",") for line in file_out.read_text().strip().split("\n")[1:]]
    assert [row[2] for row in rows] == ["20", "20"]  # z of the cached LP, not Monte Carlo
    assert file_out.read_text() == lp_out.read_text()
    assert main([*common, "--weights", "file"]) == 2  # no --weights-in


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_negative_resource_index_is_config_error(tmp_path):
    inst = write_json(tmp_path / "inst.json",
                      {"resources": ["a", "b"], "types": [{"p": 1.0, "compatible": [-1, 0]}], "n": 2})
    assert main(["weights", "--instance", inst, "--weights", "lp",
                 "--weights-out", str(tmp_path / "w.json")]) == 2
    assert not (tmp_path / "w.json").exists()


def test_instance_without_arrival_count_is_config_error(tmp_path):
    inst = write_json(tmp_path / "inst.json", {"resources": ["a"], "types": [{"p": 1.0, "compatible": [0]}]})
    assert main(["synth", "--instance", inst, "--trials", "2", "--strategies", "offline"]) == 2


@pytest.mark.parametrize("entry", [{"type": 999, "resource": 0, "x": 0.1},  # type out of range
                                   {"type": 0, "resource": 0}])  # no "x"
def test_malformed_cached_weights_are_config_errors(tmp_path, entry):
    weights = write_json(tmp_path / "w.json", {"entries": [entry], "n": 20})
    assert main(["synth", "--family", "block", "--n", "20", "--trials", "2",
                 "--strategies", "offline,varopt:3", "--weights", "file", "--weights-in", weights]) == 2


def test_bounds_rejects_format_flag(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--family", "block", "--n", "20", "--trials", "2", "--mc", "5",
              "--format", "json", "--out", str(out)])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


def test_weights_rejects_out_and_format_flags(tmp_path, capsys):
    cache, out = tmp_path / "w.json", tmp_path / "ignored.csv"
    with pytest.raises(SystemExit) as exc:
        main(["weights", "--family", "block", "--n", "20", "--mc", "5",
              "--weights-out", str(cache), "--out", str(out), "--format", "csv"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not cache.exists() and not out.exists()


def refuse_to_run(*args, **kwargs):
    raise AssertionError("the experiment ran with an invalid config")


@pytest.mark.parametrize("strategies", ["kvv:3", "offline:7", "mgs:2", "offline,kvv,kvv:3,offline:7"])
def test_budget_on_an_unbudgeted_strategy_exits_2(monkeypatch, capsys, strategies):
    import sparsematch.cli as cli

    monkeypatch.setattr(cli, "run_experiment", refuse_to_run)
    assert main(["synth", "--family", "block", "--n", "20", "--trials", "2", "--mc", "5",
                 "--strategies", strategies]) == 2
    assert capsys.readouterr().out == ""


# a three-resource instance with one type, and weights cached for it; each
# test below breaks one field of one of them
INSTANCE_DOC = {"resources": ["a", "b", "c"], "types": [{"p": 1.0, "compatible": [0, 1, 2]}], "n": 3}
WEIGHTS_DOC = {"entries": [{"type": 0, "resource": 1, "x": 0.3}], "n": 3}


def with_field(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` (keys and list indices) replaced."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize("path, value", [
    (("resources",), "abc"),  # a string, not an array
    (("n",), 3.7),
    (("n",), True),
    (("types", 0, "p"), "1.0"),
    (("types", 0, "p"), True),
    (("types", 0, "compatible"), [0.9, 1, 2]),
    (("types", 0, "compatible"), [False, 1, 2]),
    (("types", 0, "compatible"), ""),
    (("types", 0, "p"), 10**400),  # a JSON number beyond float range
    (("resources", 0), 1),  # resource names are JSON strings
    (("resources", 1), None),
    (("types", 0, "compatible", 2), 2**64),  # ids beyond int64, in ascending rows
    (("types", 0, "compatible", 0), -(2**64)),
], ids=["resources-string", "n-float", "n-bool", "p-string", "p-bool", "compatible-float", "compatible-bool",
        "compatible-string", "p-huge", "resource-integer", "resource-null", "compatible-huge",
        "compatible-huge-negative"])
def test_instance_file_with_a_wrong_json_type_exits_2(tmp_path, path, value):
    inst = write_json(tmp_path / "inst.json", INSTANCE_DOC)
    assert main(["weights", "--instance", inst, "--weights", "lp", "--weights-out", str(tmp_path / "ok.json")]) == 0
    inst = write_json(tmp_path / "bad.json", with_field(INSTANCE_DOC, path, value))
    out = tmp_path / "w.json"
    assert main(["weights", "--instance", inst, "--weights", "lp", "--weights-out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("path, value", [
    (("n",), 3.9),
    (("entries",), {}),  # an object, not an array
    (("entries", 0, "type"), 0.7),
    (("entries", 0, "resource"), 1.2),
    (("entries", 0, "resource"), True),
    (("entries", 0, "x"), "0.3"),
    (("entries", 0, "x"), False),
    (("entries", 0, "x"), 10**400),
], ids=["n-float", "entries-object", "type-float", "resource-float", "resource-bool", "x-string", "x-bool",
        "x-huge"])
def test_weights_file_with_a_wrong_json_type_exits_2(tmp_path, capsys, path, value):
    inst = write_json(tmp_path / "inst.json", INSTANCE_DOC)
    run = ["synth", "--instance", inst, "--trials", "2", "--strategies", "offline,varopt:1", "--weights", "file"]
    assert main([*run, "--weights-in", write_json(tmp_path / "ok.json", WEIGHTS_DOC)]) == 0
    capsys.readouterr()
    assert main([*run, "--weights-in", write_json(tmp_path / "w.json", with_field(WEIGHTS_DOC, path, value))]) == 2
    assert capsys.readouterr().out == ""


def test_lp_on_a_zero_probability_type_exits_2(tmp_path, caplog):
    doc = {**INSTANCE_DOC, "types": [*INSTANCE_DOC["types"], {"p": 0.0, "compatible": [0]}]}
    inst = write_json(tmp_path / "inst.json", doc)
    out = tmp_path / "w.json"
    assert main(["weights", "--instance", inst, "--weights", "lp", "--weights-out", str(out)]) == 2
    assert "type 1 has probability 0" in caplog.text
    assert not out.exists()


def test_weights_file_with_a_repeated_entry_exits_2(tmp_path, caplog, capsys):
    cache = tmp_path / "lp.json"
    assert main(["weights", "--family", "block", "--n", "20", "--weights", "lp", "--weights-out", str(cache)]) == 0
    run = ["synth", "--family", "block", "--n", "20", "--trials", "2", "--strategies", "offline,varopt:3",
           "--weights", "file", "--weights-in"]
    assert main([*run, str(cache)]) == 0
    capsys.readouterr()
    doc = json.loads(cache.read_text())
    doc["entries"].append({"type": 0, "resource": 0, "x": 0.0})  # type 0 already has x = 1.0 at resource 0
    assert main([*run, write_json(tmp_path / "twice.json", doc)]) == 2
    assert "1 repeated (type, resource) entries" in caplog.text
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("entry", [{"type": 999, "resource": -5, "x": 0.0},
                                   {"type": 0, "resource": 20, "x": 0.0},
                                   {"type": -1, "resource": 0, "x": -0.0}])
def test_weights_file_with_an_out_of_range_zero_entry_exits_2(tmp_path, caplog, capsys, entry):
    # A zero value does not make an entry outside the instance's types and resources valid.
    run = ["synth", "--family", "block", "--n", "20", "--trials", "2", "--strategies", "offline,varopt:3",
           "--weights", "file", "--weights-in"]
    doc = json.loads((REPO_ROOT / "tests" / "golden" / "weights-lp.json").read_text())
    doc["entries"].append(entry)
    assert main([*run, write_json(tmp_path / "w.json", doc)]) == 2
    assert "out of range" in caplog.text
    assert capsys.readouterr().out == ""


def test_weights_file_with_a_nan_value_exits_2(tmp_path, capsys):
    inst = write_json(tmp_path / "inst.json", INSTANCE_DOC)
    entries = [WEIGHTS_DOC["entries"][0], {"type": 0, "resource": 2, "x": math.nan}]
    weights = write_json(tmp_path / "w.json", {**WEIGHTS_DOC, "entries": entries})
    assert main(["bounds", "--instance", inst, "--trials", "2", "--k-values", "1",
                 "--weights", "file", "--weights-in", weights]) == 2
    assert capsys.readouterr().out == ""


def test_config_key_naming_no_flag_of_the_subcommand_is_config_error(tmp_path, monkeypatch, capsys):
    import sparsematch.cli as cli

    monkeypatch.setattr(cli, "bound_report", refuse_to_run)
    conf = tmp_path / "bounds.conf"
    conf.write_text("family = block\nn = 20\ntrials = 2\nmc = 5\nformat = json\n")
    out = tmp_path / "bounds.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--config", str(conf), "--out", str(out)])
    assert exc.value.code == 2
    assert "format" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["se = 5",  # an abbreviation of seed
                                  "interval = 2025-05-14T08:05:00",  # an alias of start
                                  "config = other.conf"])
def test_config_key_must_be_a_flags_exact_name(tmp_path, monkeypatch, caplog, line):
    import sparsematch.cli as cli

    monkeypatch.setattr(cli, "run_nyc_day", refuse_to_run)
    conf = tmp_path / "nyc.conf"
    conf.write_text(f"trips = {TRIPS}\nzones = {ZONES}\ntrials = 2\nmc = 5\nintervals = 1\n{line}\n")
    out = tmp_path / "series.csv"
    assert main(["nyc", "--config", str(conf), "--out", str(out)]) == 2
    assert f": {line.split(' =')[0]} names no flag of nyc" in caplog.text
    assert not out.exists()


def test_duplicate_bounds_budgets_exit_2(tmp_path, caplog):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--family", "block", "--n", "20", "--trials", "2", "--mc", "5",
                 "--k-values", "3,3", "--out", str(out)]) == 2
    assert "duplicate" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--weights-in", "/nonexistent.json"),  # Monte Carlo would ignore it
                                   ("--weights", "lp", "--weights-in", "/nonexistent.json")])
def test_weights_file_without_weight_source_file_exits_2(tmp_path, caplog, flags):
    out = tmp_path / "rows.csv"
    assert main(["synth", "--family", "block", "--n", "20", "--trials", "2", "--mc", "5",
                 "--strategies", "offline,varopt:3", *flags, "--out", str(out)]) == 2
    assert "weights-in" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("source", [("--family", "block", "--n", "20"), ("--family", "block"), ("--n", "20")])
def test_instance_file_with_family_or_n_exits_2(tmp_path, caplog, source):
    from sparsematch.generators import FAMILIES
    from sparsematch.instance import instance_to_json

    inst = tmp_path / "tri.json"
    inst.write_text(instance_to_json(FAMILIES["triangular"](20)))
    out = tmp_path / "bounds.csv"
    assert main(["bounds", *source, "--instance", str(inst), "--trials", "2", "--mc", "5",
                 "--out", str(out)]) == 2
    assert "not both" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("flag", [("--trials", "7"), ("--weights-in", "/nonexistent.json"),
                                  ("--weights", "file")])  # weights learns; it reads no weights
def test_weights_rejects_trials_and_weights_in_flags(tmp_path, capsys, flag):
    cache = tmp_path / "w.json"
    with pytest.raises(SystemExit) as exc:
        main(["weights", "--family", "block", "--n", "20", "--mc", "5", *flag,
              "--weights-out", str(cache)])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert not cache.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 - 1), str(2**64 - 1024)])
def test_out_of_range_seed_is_config_error(tmp_path, caplog, seed):
    out = tmp_path / "out.csv"
    assert main(["synth", "--family", "block", "--n", "20", "--trials", "2", "--mc", "5",
                 "--strategies", "offline", "--seed", seed, "--out", str(out)]) == 2
    assert "seed" in caplog.text
    assert not out.exists()


GOLDEN_WEIGHTS = str(REPO_ROOT / "tests" / "golden" / "weights-lp.json")

# subcommand case -> (subcommand, flag -> value); "{inst}" stands for an
# instance JSON file written by the test.  The output flag is added to each.
PARITY_CASES = {
    "synth": ("synth", {"family": "block", "n": "20", "seed": "3", "mc": "6", "trials": "4",
                        "weights": "lp", "format": "json", "strategies": "offline,mgs,varopt:3"}),
    "synth-file": ("synth", {"instance": "{inst}", "seed": "1", "trials": "3", "weights": "file",
                             "weights-in": GOLDEN_WEIGHTS, "strategies": "mgs,varopt:5"}),
    "nyc": ("nyc", {"trips": TRIPS, "zones": ZONES, "seed": "2", "mc": "5", "trials": "3",
                    "weights": "montecarlo", "format": "json", "start": "2025-05-14T08:05:00",
                    "intervals": "2", "strategies": "offline,mgs,varopt:5"}),
    "bounds": ("bounds", {"family": "block", "n": "20", "seed": "4", "mc": "5", "trials": "4",
                          "weights": "file", "weights-in": GOLDEN_WEIGHTS, "k-values": "3,5"}),
    "weights": ("weights", {"family": "tsm", "n": "20", "seed": "5", "mc": "5", "weights": "montecarlo"}),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_config_file_values_match_command_line_flags(tmp_path, case):
    from sparsematch.generators import FAMILIES
    from sparsematch.instance import instance_to_json

    inst = tmp_path / "inst.json"
    inst.write_text(instance_to_json(FAMILIES["block"](20)))
    command, values = PARITY_CASES[case]
    values = {key: value.format(inst=inst) for key, value in values.items()}
    out_key = "weights-out" if command == "weights" else "out"  # required flags come from the file too
    by_flag, by_file = tmp_path / "flags.out", tmp_path / "file.out"
    flags = {**values, out_key: str(by_flag)}
    assert main([command, *(token for key, value in flags.items() for token in (f"--{key}", value))]) == 0
    conf = tmp_path / "run.conf"
    conf.write_text("".join(f"{key} = {value}\n" for key, value in {**values, out_key: str(by_file)}.items()))
    assert main([command, "--config", str(conf)]) == 0
    assert by_file.read_bytes() == by_flag.read_bytes()


def test_config_value_outside_choices_exits_2_before_any_trial(tmp_path, monkeypatch, capsys):
    import sparsematch.cli as cli

    monkeypatch.setattr(cli, "run_experiment", refuse_to_run)
    conf = tmp_path / "run.conf"
    conf.write_text("family = block\nn = 20\ntrials = 2\nmc = 5\nformat = xml\n")
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--config", str(conf), "--out", str(out)])
    assert exc.value.code == 2
    assert "xml" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_with_a_repeated_key_exits_2(tmp_path, monkeypatch, caplog):
    import sparsematch.cli as cli

    monkeypatch.setattr(cli, "run_experiment", refuse_to_run)
    conf = tmp_path / "run.conf"
    conf.write_text("family = block\nn = 20\ntrials = 3\nmc = 5\ntrials = 5\n")
    out = tmp_path / "out.csv"
    assert main(["synth", "--config", str(conf), "--out", str(out)]) == 2
    assert f"{conf}:5: trials is set twice" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("line", ["trials = abc", "weights = psychic", "format = xml"])
def test_malformed_config_value_exits_2(tmp_path, line):
    conf = tmp_path / "run.conf"
    trials = "" if line.startswith("trials") else "trials = 2\n"
    conf.write_text(f"family = block\nn = 20\nmc = 5\nstrategies = offline,varopt:3\n{trials}{line}\n")
    out = tmp_path / "out.csv"
    proc = run_cli(["synth", "--config", str(conf), "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert not out.exists()


def test_parsers_built_once_write_what_fresh_parsers_write(tmp_path):
    # main shares one pre-parser and one parser per process; call after call,
    # the runs write what runs on freshly built parsers write, and the --config
    # run's file values reach no later run
    from sparsematch import cli

    conf = tmp_path / "run.conf"
    conf.write_text("family = triangular\nn = 24\ntrials = 3\nmc = 5\nseed = 7\nweights = lp\n")
    runs = [
        ["synth", "--config", str(conf), "--strategies", "offline,varopt:3"],
        ["synth", "--family", "block", "--n", "20", "--trials", "2", "--mc", "5", "--strategies", "offline,varopt:3"],
        ["nyc", "--trips", TRIPS, "--zones", ZONES, "--trials", "2", "--mc", "5", "--start", "2025-05-14T08:05:00",
         "--intervals", "2", "--strategies", "offline,random:5"],
        ["bounds", "--family", "block", "--n", "20", "--trials", "3"],
        ["weights", "--family", "block", "--n", "20", "--mc", "5"],
    ]

    def outputs(fresh: bool, tag: str) -> list[bytes]:
        written = []
        for q, argv in enumerate(runs):
            if fresh:
                cli._parsers.cache_clear()
            out = tmp_path / f"{tag}{q}"
            flag = "--weights-out" if argv[0] == "weights" else "--out"
            assert main([*argv, flag, str(out)]) == 0
            written.append(out.read_bytes())
        return written

    fresh = outputs(True, "fresh")
    cli._parsers.cache_clear()
    shared = outputs(False, "shared")
    assert cli._parsers.cache_info().misses == 1
    assert shared == fresh
    with pytest.raises(SystemExit):
        main(["synth", "--family", "block", "--n", "20", "--no-such-flag"])
    assert outputs(False, "after") == fresh
    assert cli._parsers.cache_info().misses == 1
    parsed = vars(cli._parse_args(runs[1]))
    cli._parsers.cache_clear()
    assert parsed == vars(cli._parse_args(runs[1]))
    assert (parsed["family"], parsed["n"], parsed["seed"], parsed["weights"], parsed["config"]) == (
        "block", 20, 0, "montecarlo", None)
