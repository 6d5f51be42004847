"""Command-line interface: argument handling, report files, exit codes."""

import argparse
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hartogs import cli
from hartogs.checks import CheckRow, RunParams
from hartogs.cli import COMMANDS, _parse_floats, build_parser, main
from hartogs.reports import CSV_COLUMNS

README = Path(__file__).resolve().parent.parent / "README.md"
FIELDS = [f.name for f in dataclasses.fields(RunParams)]

FAST = [
    "--pairs", "50", "--polar-pairs", "1000",
    "--level", "8", "--seed", "3",
]


def run_uniform(tmp_path, extra=(), fmt="json"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / f"report.{fmt}"
    code = main(["uniform", "--domain", "T", *FAST, *extra,
                 "--out", str(out), "--format", fmt])
    return code, out


def test_uniform_json_run(tmp_path, capsys):
    code, out = run_uniform(tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"command", "config", "generated_at", "all_passed", "checks"}
    assert payload["command"] == "uniform"
    assert payload["all_passed"] is True
    assert all(row["passed"] for row in payload["checks"])
    text = capsys.readouterr().out
    assert "PASS" in text
    assert "checks passed" in text


def test_csv_report_columns(tmp_path):
    code, out = run_uniform(tmp_path, fmt="csv")
    assert code == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) > 1
    for row in rows[1:]:
        assert row[-1] in ("true", "false")


def test_csv_runs_are_byte_identical(tmp_path):
    _, out1 = run_uniform(tmp_path / "a", fmt="csv")
    _, out2 = run_uniform(tmp_path / "b", fmt="csv")
    assert out1.read_bytes() == out2.read_bytes()


def test_json_runs_identical_modulo_timestamp(tmp_path):
    _, out1 = run_uniform(tmp_path / "a")
    _, out2 = run_uniform(tmp_path / "b")
    p1 = json.loads(out1.read_text())
    p2 = json.loads(out2.read_text())
    p1.pop("generated_at")
    p2.pop("generated_at")
    assert p1 == p2


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["uniform", "--no-such-flag", "1"])
    assert exc.value.code == 2


def test_removed_curve_samples_exits_2(tmp_path, capsys):
    # the uniform suprema are exact, so the sample count is no longer an option
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["uniform", "--curve-samples", "256"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pairs": 50, "curve_samples": 256}))
    assert main(["uniform", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert "curve_samples" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_removed_count_exits_2(tmp_path, capsys):
    # the spectrum battery reads exactly two eigenvalues, so their number is no longer an option
    for argv in (["spectrum", "--count", "0"], ["spectrum", "--count", "2000", "--grid", "8"],
                 ["spectrum", "--count", "28", "--grid", "8"]):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2, argv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 16, "count": 6}))
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert "count" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["frobnicate"])
    assert exc.value.code == 2


def test_unwritable_output_exits_2(tmp_path, capsys):
    code = main(["uniform", "--domain", "T", *FAST,
                 "--out", str(tmp_path / "missing_dir" / "r.json")])
    assert code == 2
    assert "error" in capsys.readouterr().err.lower()


def test_bad_config_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code = main(["uniform", "--config", str(cfg)])
    assert code == 2


def test_out_of_range_flag_exits_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    for argv in (
        ["adr", "--surface-cells", "4"],
        ["adr", "--surface-cells", "32"],
        ["uniform", "--pairs", "0"],
        ["spectrum", "--grid", "4"],
        ["spectrum", "--poincare-grid", "4"],
        ["spectrum", "--mode-cut", "0"],
        ["uniform", "--seed", "-1"],
        ["uniform", "--polar-pairs", "0"],
        ["adr", "--centers", "0"],
        ["adr", "--rho-set", "5"],
        ["adr", "--rho-set", "nan"],
        ["adr", "--dilation-cases", "0"],
        ["bergman", "--jmax", "-1"],
        ["bergman", "--kmax", "-2"],
        ["dbar", "--deltas", "2"],
        ["spectrum", "--n-fields", "0"],
    ):
        code = main([*argv, "--out", str(out)])
        assert code == 2, argv
        assert "error:" in capsys.readouterr().err, argv
        assert not out.exists(), argv


def test_out_of_range_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "r.json"
    for command, values in (
        ("uniform", {"domain": "X"}), ("adr", {"rho_set": []}), ("dbar", {"deltas": []}),
        ("uniform", {"seed": "7"}), ("uniform", {"pairs": 2.5}), ("spectrum", {"grid": 16.5}),
        ("uniform", {"pairs": True}), ("bergman", {"level": 8.0}), ("adr", {"surface_cells": "512"}),
        ("dbar", {"shell_level": [96]}), ("dbar", {"deltas": [True]}), ("adr", {"rho_set": [False]}),
        ("dbar", {"deltas": [None]}),
    ):
        cfg.write_text(json.dumps(values))
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code == 2, values
        assert "error:" in capsys.readouterr().err, values
        assert not out.exists(), values


def test_bad_out_in_config_exits_2_before_any_battery(tmp_path, monkeypatch, capsys):
    # a config "out" of true once reached open(True), i.e. fd 1: the report went to stdout and closed it
    def battery_ran(command, params):
        raise AssertionError("a battery ran")

    monkeypatch.setattr(cli, "run_command", battery_ran)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    for out in (True, 1, "", ["r.json"], {"path": "r.json"}):
        cfg.write_text(json.dumps({"out": out, "jmax": 0, "kmax": 0}))
        assert main(["dbar", "--config", str(cfg)]) == 2, out
        captured = capsys.readouterr()
        assert "error:" in captured.err, out
        assert captured.out == "", out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"], out


def test_flags_are_the_runparams_fields():
    assert COMMANDS == ("uniform", "adr", "bergman", "dbar", "spectrum", "all")
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    subparsers = action.choices
    assert tuple(subparsers) == COMMANDS
    for command in COMMANDS:
        options = [a for a in subparsers[command]._actions if a.option_strings and a.dest != "help"]
        assert [a.option_strings for a in options[:3]] == [["--config"], ["--out"], ["--format"]]
        assert [a.option_strings for a in options[3:]] == [["--" + name.replace("_", "-")] for name in FIELDS]
        assert all(a.help for a in options), command


def test_report_config_keys_are_the_runparams_fields(tmp_path):
    code, out = run_uniform(tmp_path)
    assert code == 0
    assert list(json.loads(out.read_text())["config"]) == sorted([*FIELDS, "command"])  # the report sorts keys


def test_readme_lists_the_flags():
    sentence = re.search(r"The flags are the `RunParams` fields.*?\.\s", README.read_text(), re.S).group(0)
    assert re.findall(r"`(--[a-z-]+)`", sentence) == ["--" + name.replace("_", "-") for name in FIELDS]


def test_python_m_hartogs_matches_main(tmp_path):
    code, expected = run_uniform(tmp_path / "main", fmt="csv")
    assert code == 0
    out = tmp_path / "module.csv"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "hartogs", "uniform", "--domain", "T", *FAST,
         "--out", str(out), "--format", "csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == expected.read_bytes()


def test_config_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pairs": 50, "bogus_option": 1}))
    code = main(["uniform", "--config", str(cfg)])
    assert code == 2


def test_config_must_be_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([1, 2, 3]))
    code = main(["uniform", "--config", str(cfg)])
    assert code == 2


def test_missing_config_file_exits_2(tmp_path):
    code = main(["uniform", "--config", str(tmp_path / "nope.json")])
    assert code == 2


def test_config_supplies_parameters(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "domain": "T", "pairs": 50,
        "polar_pairs": 1000, "level": 8, "seed": 3,
        "out": str(tmp_path / "from_cfg.json"),
    }))
    code = main(["uniform", "--config", str(cfg)])
    assert code == 0
    payload = json.loads((tmp_path / "from_cfg.json").read_text())
    assert payload["config"]["pairs"] == 50


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "T", "pairs": 50,
                               "polar_pairs": 1000, "level": 8, "seed": 3}))
    out = tmp_path / "r.json"
    code = main(["uniform", "--config", str(cfg), "--pairs", "75",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["pairs"] == 75


def test_failing_check_exits_1(tmp_path, monkeypatch, capsys):
    def fake_run(command, params):
        return [CheckRow(
            check_id="uniform.cone.length",
            claim="synthetic failure",
            parameter_json="{}",
            observed=99.0,
            expected=12.0,
            tolerance=0.0,
            passed=False,
        )]

    monkeypatch.setattr(cli, "run_command", fake_run)
    code = main(["uniform", "--out", str(tmp_path / "r.json")])
    assert code == 1
    text = capsys.readouterr().out
    assert "FAIL" in text
    assert "0/1 checks passed" in text


def test_deltas_flag_parses_tuple(tmp_path):
    out = tmp_path / "r.json"
    code = main(["dbar", "--deltas", "0.5,0.25", "--jmax", "1",
                 "--shell-level", "48", "--level", "8", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["deltas"] == [0.5, 0.25]


def test_shell_level_sets_only_the_shell_theta_nodes(tmp_path):
    # the profile and gap integrals take no size from --shell-level, so their rows are byte-identical
    lines = {}
    for level in ("4", "192"):
        out = tmp_path / f"dbar-{level}.csv"
        assert main(["dbar", "--format", "csv", "--shell-level", level, "--out", str(out)]) == 0
        lines[level] = [line for line in out.read_bytes().splitlines()
                        if line.startswith((b"dbar.norm.anchor,", b"dbar.scaling,", b"dbar.gap."))]
    assert len(lines["4"]) == 4
    assert lines["4"] == lines["192"]


def test_parse_floats():
    assert _parse_floats("0.5,0.1") == (0.5, 0.1)
    assert _parse_floats(" 1 , 2 ") == (1.0, 2.0)
    with pytest.raises(ValueError):
        _parse_floats("")
    with pytest.raises(ValueError):
        _parse_floats("a,b")


def test_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["uniform", "--domain", "T", *FAST])
    assert code == 0
    assert (tmp_path / "hartogs_report.json").exists()
