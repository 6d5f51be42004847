"""The package runs on numpy alone and loads numpy's BLAS pool with one thread."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hartogs"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(code: str, **setting) -> str:
    """stdout of ``code`` in a fresh interpreter without BLAS thread variables, plus ``setting``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(PYTHONPATH=str(ROOT / "src"), **setting)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_scipy_import_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def test_hartogs_all_leaves_scipy_unloaded(tmp_path):
    out = tmp_path / "small.csv"
    code = (
        "import contextlib, io, sys\n"
        "from hartogs import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['all', '--level', '10', '--surface-cells', '128', '--pairs', '20', '--polar-pairs', '1000',\n"
        "              '--centers', '2', '--dilation-cases', '3', '--jmax', '2', '--kmax', '2', '--grid', '16',\n"
        f"              '--poincare-grid', '8', '--n-fields', '3', '--format', 'csv', '--out', {str(out)!r}])\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    assert run_python(code).split() == ["[]"]
    assert len(out.read_text().splitlines()) == 1 + 33


# threads of this process before and after `import numpy` (when asked for) and after `import hartogs`
_THREAD_PROBE = """
import os, sys
tasks = lambda: len(os.listdir("/proc/self/task"))
env, start = dict(os.environ), tasks()
if sys.argv[1] == "numpy":
    import numpy
mid = tasks()
import hartogs
print(mid - start, tasks() - mid, dict(os.environ) == env)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs /proc/self/task to count threads and two cores for a BLAS worker")
@pytest.mark.parametrize("first, setting, workers", [
    ("hartogs", {}, "0 0"),  # one BLAS thread: no worker
    ("hartogs", {"OPENBLAS_NUM_THREADS": "2"}, "0 1"),  # a set thread count is kept
    ("numpy", {}, "1 0"),  # numpy imported first keeps its pool
], ids=["hartogs-first", "count-set", "numpy-first"])
def test_numpy_blas_pool_is_one_thread_unless_set(first, setting, workers):
    code = _THREAD_PROBE.replace("sys.argv[1]", repr(first))
    assert run_python(code, **setting).split() == [*workers.split(), "True"]
