"""Command line runner for the verification batteries.

Subcommands are the batteries of ``checks._RUNNERS`` plus ``all``.  Every
RunParams field ``a_b`` is one flag ``--a-b`` and one config key ``a_b``; its
help text and bounds live on the field, so nothing here lists the options.
Values come from flags, from a JSON config file, or from the RunParams
defaults, in that order of precedence.  Exactly one report file is written
per run.  Exit status: 0 when every check passes, 1 when any check fails,
2 on usage errors, invalid values or unwritable output (no report written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .checks import _RUNNERS, RunParams, run_command
from .reports import write_csv, write_json

__all__ = ["build_parser", "main", "entrypoint"]

COMMANDS = (*_RUNNERS, "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hartogs", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} battery")
        p.add_argument("--config", type=str, default=None, help="JSON file with RunParams fields")
        p.add_argument("--out", type=str, default=None, help="report path (default hartogs_report.<format>)")
        p.add_argument("--format", choices=("json", "csv"), default=None, help="report format (default json)")
        for f in dataclasses.fields(RunParams):
            p.add_argument("--" + f.name.replace("_", "-"), type=int if f.type == "int" else str, default=None,
                           choices=f.metadata.get("choices"), help=f.metadata["help"])
    return parser


def _parse_floats(text) -> tuple:
    if isinstance(text, (list, tuple)):
        if not all(type(x) in (int, float) for x in text):  # no bool, string or null entries
            raise ValueError(f"expected a list of numbers, got {list(text)!r}")
        return tuple(float(x) for x in text)
    parts = [chunk.strip() for chunk in str(text).split(",") if chunk.strip()]
    if not parts:
        raise ValueError("empty number list")
    return tuple(float(x) for x in parts)


def _given(args: argparse.Namespace, file_cfg: dict, name: str, default=None):
    """The flag's value, else the config file's (null counts as absent), else ``default``."""
    value = getattr(args, name)
    if value is None:
        value = file_cfg.get(name)
    return default if value is None else value


def _merge_params(args: argparse.Namespace) -> tuple[RunParams, str, str]:
    """The run's parameters, report format and report path; ValueError on any bad value."""
    file_cfg = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_cfg) - {f.name for f in dataclasses.fields(RunParams)} - {"out", "format"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")

    values = {}
    for f in dataclasses.fields(RunParams):
        given = _given(args, file_cfg, f.name)
        if given is None:
            continue
        try:
            values[f.name] = _parse_floats(given) if f.type == "tuple" else given
        except ValueError as exc:
            raise ValueError(f"{f.name}: {exc}") from None
    fmt = _given(args, file_cfg, "format", "json")
    if fmt not in ("json", "csv"):
        raise ValueError(f"format must be json or csv, got {fmt!r}")
    out = _given(args, file_cfg, "out", f"hartogs_report.{fmt}")
    if not isinstance(out, str) or not out:
        raise ValueError(f"out must be a non-empty path, got {out!r}")
    return RunParams(**values), fmt, out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params, fmt, out = _merge_params(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = run_command(args.command, params)
    config_dict = dataclasses.asdict(params)
    config_dict["command"] = args.command
    try:
        if fmt == "json":
            write_json(out, args.command, config_dict, rows)
        else:
            write_csv(out, rows)
    except OSError as exc:
        print(f"error: cannot write report to {out!r}: {exc}", file=sys.stderr)
        return 2

    n_fail = sum(not r.passed for r in rows)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.check_id} observed={r.observed:.6g} expected={r.expected:.6g}")
    print(f"{len(rows) - n_fail}/{len(rows)} checks passed; report written to {out}")
    return 0 if n_fail == 0 else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
