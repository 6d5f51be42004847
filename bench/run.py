"""Benchmark of the hartogs verifier: time to a verified result, per workload.

    python3 bench/run.py --workload desk_all --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (``src/hartogs`` is imported from
there; nothing is installed).  One operation is a pass: a fresh interpreter
imports ``hartogs``, runs the workload's calls once, and checks every output
against the references in ``bench/oracles.py``.  Passes run one at a time, in
rounds of two with the same seeded inputs, whose outputs must agree exactly.
Rounds repeat until the next one would end after ``--seconds``.

With ``--trace 0`` every pass runs untraced and the last stdout line reports
the medians of ``wall_s``, ``cpu_s``, ``setup_s`` and ``peak_rss_mb``.  With
``--trace 1`` the second pass of each round runs traced and the line reports
the medians of the per-layer metrics, plus ``trace.overhead_s`` (traced minus
untraced median wall time).  Raw pass records and spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("desk_all", "boundary_sweep", "fine_grids")
MIN_ROUNDS = 2
MAX_RUN_S = 150.0  # stop starting rounds past this, whatever --seconds says
PASS_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(metric: str) -> str:
    if metric.endswith(("_s", ".s", ".s_per_ball")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def run_pass(workload: str, seed: int, round_: int, traced: bool, env: dict) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(round_), "1" if traced else "0", str(OUT)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"round": round_, "traced": traced, "error": f"timed out after {PASS_TIMEOUT_S} s", "failures": []}
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        return {"round": round_, "traced": traced, "failures": [],
                "error": f"worker exited {proc.returncode}: {(first + rest + err)[-2000:]}"}
    record = json.loads(lines[-1])
    record.update(round=round_, traced=traced, setup_s=setup_s)
    return record


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "hartogs" / "__init__.py").is_file():
        print(f"error: no hartogs sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # compile and cache the sources once, so set-up is timed as a user sees it
    # on later runs, whether or not the caller's environment disables the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    warm = subprocess.run([sys.executable, "-c", "import hartogs, tracer, workloads"], cwd=BENCH, env=env,
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"error: cannot import the program:\n{warm.stderr}", file=sys.stderr)
        return 2

    passes, mismatches = [], []
    start = time.perf_counter()
    round_ = 0
    while True:
        pair = [run_pass(args.workload, args.seed, round_, args.trace == 1 and i == 1, env) for i in range(2)]
        passes.extend(pair)
        if all(p.get("digest") for p in pair) and pair[0]["digest"] != pair[1]["digest"]:
            mismatches.append(f"round {round_}: outputs of the two passes differ")
        round_ += 1
        elapsed = time.perf_counter() - start
        if round_ >= MIN_ROUNDS and (elapsed * (round_ + 1) / round_ > args.seconds or elapsed > MAX_RUN_S):
            break

    for p in passes:
        for msg in ([p["error"]] if p.get("error") else []) + p["failures"]:
            print(f"round {p['round']}{' traced' if p['traced'] else ''}: {msg}", file=sys.stderr)
    for msg in mismatches:
        print(msg, file=sys.stderr)
    ok = [p for p in passes if not p.get("error") and not p["failures"]]
    plain = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        units = {name: layer_unit(name) for name in metrics}
        spans = [{"round": p["round"], "spans": p.pop("spans")} for p in traced]
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    else:
        metrics = {
            "wall_s": median_of(plain, "wall_s"),
            "cpu_s": median_of(plain, "cpu_s"),
            "setup_s": median_of(ok, "setup_s"),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        }
        units = END_TO_END_UNITS
    (OUT / f"passes-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(passes, indent=1))

    failed = len(passes) - len(ok)
    correct = not mismatches and not any(p["failures"] for p in passes)
    result = {
        "correct": correct,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
