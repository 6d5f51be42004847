"""Every function defined in src/hartogs has a caller outside the tests.

The callers are the benchmark workloads, run and checked (``desk_all`` is
``hartogs all --format csv``), a JSON CLI run with a list flag, and the
scripts, with ``curve_gallery.py`` on both domains.  A fresh interpreter
traces them with ``sys.setprofile``, installed before ``hartogs`` is imported
so that calls at import time count, and prints the functions no call reached:

    PYTHONPATH=src python tests/test_reach.py OUT_DIR
"""

import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hartogs"

# Reached by no caller on purpose: the sampled uniformity sweep is the reference that
# acceptance criteria 01-02 hold the exact suprema against (and a name the benchmark's
# tracer patches); the error's constructor runs only on nan/inf input; the console
# script entry point runs only when installed.
UNREACHED = [
    ["cli.py", "entrypoint"],
    ["geometry.py", "_piece_ratios"],
    ["geometry.py", "_sampled_suprema"],
    ["geometry.py", "verify_uniform"],
    ["quadrature.py", "NonFiniteIntegrandError.__init__"],
]


def defined_functions() -> set:
    """(file name, qualified name) of every def in src/hartogs."""
    found = set()

    def walk(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((file, prefix + child.name))
                walk(child, file, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, file, prefix + child.name + ".")
            else:
                walk(child, file, prefix)

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text()), path.name, "")
    return found


def trace(out: Path) -> list:
    """Run every caller with a profile hook; return the unreached functions, sorted."""
    reached = set()

    def hook(frame, event, arg):
        if event == "call" and Path(frame.f_code.co_filename).parent == SRC:
            reached.add((Path(frame.f_code.co_filename).name, frame.f_code.co_qualname))

    sys.path[:0] = [str(SRC.parent), str(ROOT / "bench")]
    sys.setprofile(hook)
    try:
        import workloads
        from hartogs import cli

        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["adr", "--rho-set", "0.5,1", "--format", "json", "--out", str(out / "adr.json")]) == 0
            for name, wl in workloads.WORKLOADS.items():
                inputs = wl.inputs(1, 0)
                assert wl.check(inputs, wl.run(inputs, str(out))) == [], name
            for argv in (
                ["boundary_profile.py", "--t-steps", "5", "--centers", "2", "--out-dir", str(out)],
                ["curve_gallery.py", "--pairs", "2", "--samples", "5", "--domain", "T", "--out", str(out / "c.csv")],
                ["curve_gallery.py", "--pairs", "2", "--samples", "5", "--domain", "T_infinity",
                 "--out", str(out / "c.csv")],
                ["spectrum_table.py", "--grid", "8", "--mode-cut", "1", "--count", "2", "--out", str(out / "s.csv")],
            ):
                sys.argv = argv
                runpy.run_path(str(ROOT / "scripts" / argv[0]), run_name="__main__")
    finally:
        sys.setprofile(None)
    return sorted(list(key) for key in defined_functions() - reached)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11")
def test_every_function_has_a_caller(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == UNREACHED


if __name__ == "__main__":
    print(json.dumps(trace(Path(sys.argv[1]))))
