"""Command line runner for the verification batteries.

Subcommands select a battery (uniform, adr, bergman, dbar, spectrum, all);
sizes and seeds come from flags, from a JSON config file, or from the
RunParams defaults, in that order of precedence.  Exactly one report file is
written per run.  Exit status: 0 when every check passes, 1 when any check
fails, 2 on usage errors or unwritable output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .checks import RunParams, run_command
from .reports import write_csv, write_json

__all__ = ["build_parser", "main", "entrypoint"]

COMMANDS = ("uniform", "adr", "bergman", "dbar", "spectrum", "all")

# flag name -> (RunParams field, parser kwargs)
_OPTIONS = {
    "--seed": ("seed", dict(type=int, help="base RNG seed (sub-seeds are fixed offsets)")),
    "--level": ("level", dict(type=int, help="tensor quadrature level per axis of the bergman battery; no other battery reads it")),
    "--surface-cells": ("surface_cells", dict(type=int, help="ceiling on nodes per piece of the boundary-ball rules (>= 64)")),
    "--shell-level": ("shell_level", dict(type=int, help="cutoff-shell theta nodes, max(16, n // 3); no other size reads it")),
    "--domain": ("domain", dict(choices=("T", "T_infinity", "both"), help="domain for the uniform battery")),
    "--pairs": ("pairs", dict(type=int, help="random endpoint pairs for curve verification")),
    "--polar-pairs": ("polar_pairs", dict(type=int, help="random pairs for the polar distance bound")),
    "--centers": ("centers", dict(type=int, help="random boundary centers for the regularity scan")),
    "--rho-set": ("rho_set", dict(type=str, help="comma-separated ball radii for the regularity scan")),
    "--dilation-cases": ("dilation_cases", dict(type=int, help="random (center, radius) dilation tests")),
    "--jmax": ("jmax", dict(type=int, help="largest j in the basis block")),
    "--kmax": ("kmax", dict(type=int, help="largest k in the basis block")),
    "--deltas": ("deltas", dict(type=str, help="comma-separated delta values for the scaling check")),
    "--grid": ("grid", dict(type=int, help="cells per axis for the eigenvalue grid")),
    "--mode-cut": ("mode_cut", dict(type=int, help="angular mode bound for the lowest-eigenvalue search")),
    "--poincare-grid": ("poincare_grid", dict(type=int, help="grid for the Poincare constant")),
    "--n-fields": ("n_fields", dict(type=int, help="random fields for the Poincare validation")),
}

_TUPLE_FIELDS = {"rho_set", "deltas"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hartogs", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} battery")
        p.add_argument("--config", type=str, default=None, help="JSON file with RunParams fields")
        p.add_argument("--out", type=str, default=None, help="report path (default hartogs_report.<format>)")
        p.add_argument("--format", choices=("json", "csv"), default=None, help="report format (default json)")
        for flag, (_, kwargs) in _OPTIONS.items():
            p.add_argument(flag, default=None, **kwargs)
    return parser


def _parse_floats(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(float(x) for x in text)
    parts = [chunk.strip() for chunk in str(text).split(",") if chunk.strip()]
    if not parts:
        raise ValueError("empty number list")
    return tuple(float(x) for x in parts)


def _merge_params(args: argparse.Namespace) -> tuple[RunParams, dict]:
    file_cfg = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        known = {f.name for f in dataclasses.fields(RunParams)}
        unknown = set(file_cfg) - known - {"out", "format"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")

    values = {}
    for flag, (fieldname, _) in _OPTIONS.items():
        given = getattr(args, fieldname)
        if given is None:
            given = file_cfg.get(fieldname)
        if given is None:
            continue
        if fieldname in _TUPLE_FIELDS:
            given = _parse_floats(given)
        values[fieldname] = given
    return RunParams(**values), file_cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params, file_cfg = _merge_params(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    fmt = args.format or file_cfg.get("format") or "json"
    out = args.out or file_cfg.get("out") or f"hartogs_report.{fmt}"
    if fmt not in ("json", "csv"):
        print(f"error: format must be json or csv, got {fmt!r}", file=sys.stderr)
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
