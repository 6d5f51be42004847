"""The benchmark's output checks pass on the program and reject perturbed outputs.

    PYTHONPATH=src python3 -m pytest bench

Each perturbation is a monkeypatch of one program function for the length of
one test; workloads run at reduced sizes.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles as O
import run
import tracer
import workloads as W
from hartogs import bergman, boundary, dbar, quadrature, spectral

SWEEP = W.sweep_inputs(3, 0, cells=256, dilation_draws=4, scan_centers=4)
# the dbar and spectrum checks hold to their tolerances only at resolved sizes
FINE = W.fine_inputs(3, 0, level=24, kernel_order=32, kernel_pairs=3, shell_level=192, grid=64)


def failed_checks(name, inputs, tmp_path):
    wl = W.WORKLOADS[name]
    failures = wl.check(inputs, wl.run(inputs, str(tmp_path)))
    return {f.split(":")[0].split("(")[0] for f in failures}


def scaled(fn, factor):
    return lambda *a, **k: factor * fn(*a, **k)


def test_sweep_passes_unperturbed(tmp_path):
    assert failed_checks("boundary_sweep", SWEEP, tmp_path) == set()


@pytest.mark.parametrize("target, factor, expected", [
    ("_cone_ball", 1.02, {"sweep.f_apex", "sweep.f_mc", "sweep.dilation_mc", "sweep.adr_mc"}),
    ("_cyl_ball", 1.05, {"sweep.adr_mc", "sweep.total"}),
    ("f_profile", 1.05, {"sweep.f_apex", "sweep.dilation"}),
])
def test_sweep_rejects(monkeypatch, tmp_path, target, factor, expected):
    monkeypatch.setattr(boundary, target, scaled(getattr(boundary, target), factor))
    assert expected <= failed_checks("boundary_sweep", SWEEP, tmp_path)


def test_sweep_rejects_ratio_outside_window(monkeypatch, tmp_path):
    orig = boundary.sigma_ball_bT
    monkeypatch.setattr(boundary, "sigma_ball_bT", lambda p, rho, spec: orig(p, rho, spec) * (50.0 if rho < 0.1 else 1.0))
    assert {"sweep.adr_window", "sweep.adr_mc"} & failed_checks("boundary_sweep", SWEEP, tmp_path)


def test_fine_passes_unperturbed(tmp_path):
    assert failed_checks("fine_grids", FINE, tmp_path) == set()


def _perturbed_rule(fn):
    def rule(n):
        x, w = fn(n)
        return x, w * (1.0 + 1e-7)
    return rule


def _norms_off(idx):
    return 1.001 * O.laurent_norm_sq(idx.j, idx.k)


def _swap_low_modes(fn):
    def spectrum(l, m, n, count):
        res = fn(l, m, n, count)
        return spectral.SpectrumResult(res.mode, tuple(0.5 * v for v in res.eigenvalues), res.grid, res.converged) \
            if (l, m) == (1, 1) else res
    return spectrum


@pytest.mark.parametrize("module, target, patch, expected", [
    (bergman, "_gl_unit", _perturbed_rule, {"fine.gram_norms", "fine.project_norm"}),
    (quadrature, "_gl_unit", _perturbed_rule, {"fine.integrate_T_norm"}),
    (bergman, "v_norm_sq", lambda fn: _norms_off, {"fine.kernel", "fine.project_identity"}),
    (dbar, "_s_profile_integral", lambda fn: scaled(fn, 1.0 + 1e-8), {"fine.dbar_norm"}),
    (dbar, "l2_gap", lambda fn: scaled(fn, 1.0 + 1e-7), {"fine.l2_gap"}),
    (dbar, "smoothstep_deriv", lambda fn: scaled(fn, 1.0 + 1e-4), {"fine.cutoff_energy", "fine.cutoff_first_factor"}),
    (spectral, "neumann_spectrum", _swap_low_modes, {"fine.spectrum_monotone"}),
    (spectral, "poincare_constant", lambda fn: scaled(fn, 1.0 + 1e-6), {"fine.poincare"}),
    (spectral, "solve_neumann", lambda fn: scaled(fn, 1.0 + 1e-5), {"fine.galerkin"}),
])
def test_fine_rejects(monkeypatch, tmp_path, module, target, patch, expected):
    monkeypatch.setattr(module, target, patch(getattr(module, target)))
    assert expected <= failed_checks("fine_grids", FINE, tmp_path)


def test_desk_passes_and_repeats(tmp_path):
    wl = W.WORKLOADS["desk_all"]
    inputs = wl.inputs(3, 0)
    first, second = (wl.run(inputs, str(tmp_path)) for _ in range(2))
    assert wl.check(inputs, first) == []
    assert wl.digest(first) == wl.digest(second)


def test_desk_rejects(monkeypatch, tmp_path):
    monkeypatch.setattr(boundary, "f_profile", scaled(boundary.f_profile, 1.001))
    failed = failed_checks("desk_all", W.desk_inputs(3, 0), tmp_path)
    assert {"desk.exit_status", "desk.all_pass", "desk.adr.profile.origin"} <= failed


def test_oracles_agree_with_closed_forms():
    rng = np.random.default_rng(0)
    est, se = O.mc_ball_measure(0j, 0j, 1.0, "cone", 200_000, rng)
    assert abs(est - O.F_APEX) <= 6 * se + 1e-12
    est, se = O.mc_ball_measure(complex(1e3), complex(1e3), 1.0, "cone", 200_000, rng)
    assert abs(est - O.F_LIMIT) <= 6 * se + 1e-3
    # a ball of radius diam T around a point of bT holds all of bT
    cone, se1 = O.mc_ball_measure(0.5 + 0j, 0.5 + 0j, O.DIAM_T, "cone_bT", 200_000, rng)
    cyl, se2 = O.mc_ball_measure(0.5 + 0j, 0.5 + 0j, O.DIAM_T, "cylinder", 200_000, rng)
    assert abs(cone + cyl - O.SIGMA_BT) <= 6 * math.hypot(se1, se2)
    z, w = 0.1 + 0.2j, 0.3 - 0.4j  # in T
    k = O.bergman_kernel(z, w, z, w)
    assert abs(k.imag) < 1e-12 * abs(k) and k.real > 0
    assert O.bergman_truncation_tolerance(z, w, z, w, 200, 200) < 1e-12


def test_trace_counts_calls():
    code = (
        "import sys, json; sys.path.insert(0, 'bench'); import tracer\n"
        "from hartogs import checks\n"
        "t = tracer.Tracer(); t.install()\n"
        "checks.run_command('spectrum', checks.RunParams(grid=16, poincare_grid=16, n_fields=2))\n"
        "print(json.dumps(tracer.layer_metrics(t.spans)))\n"
    )
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    m = json.loads(proc.stdout.strip().splitlines()[-1])
    # neumann_spectrum twice (n, 2n each) and 9 Poincare modes: 13 eigensolves, one bordered solve
    assert m["spectral.eigsh.calls"] == 13
    assert m["spectral.spsolve.calls"] == 1
    assert m["checks.spectrum.s"] > 0.0 and m["checks.adr.s"] == 0.0
    assert m["quadrature.integrate_T.calls"] == 3 * 2


def test_benchmark_json_matches_runner():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(layers) == set(tracer.LAYER_METRICS) | {"trace.overhead_s"}
    assert all(run.layer_unit(name) == unit for name, unit in layers.items())


def test_refuses_without_sources(tmp_path):
    root = Path(__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk_all", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
