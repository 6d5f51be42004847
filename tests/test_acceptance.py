"""End-to-end acceptance battery.

Each test enforces one headline claim at its stated tolerance and budget,
printing one [PASS]/[FAIL] line in the terminal summary (see conftest.py).
The two dbar criteria assert the laws derived in the ``hartogs.dbar`` module
docstring:

* ``test_criterion_09_delta_scaling`` asserts the gradient-norm ratio
  ``|dbar u_delta| / |dbar u_1| = sqrt(delta)``: the squared norm is
  pi^2 delta / (4(j+1)), linear in delta, so the norm scales like
  sqrt(delta) while ``u_delta -> u`` in L^2.
* ``test_criterion_10_cutoff_estimate`` asserts that the shell energy
  ``int |dbar chi_delta|^2 |f|^2`` decays for f = 1 and, for the borderline
  field f = 1/w, is the delta-independent constant 15 pi^2 ln 2 / 14: that
  integrand is exactly scale-invariant, and |f|^4 is not integrable.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hartogs import cli
from hartogs.bergman import (
    LaurentIndex,
    basis_gram,
    block_indices,
    project,
    v_field,
    v_norm_sq,
)
from hartogs.boundary import ADR_WINDOW, adr_scan, f_profile, sigma_ball_Tinf, sigma_ball_Tinf_direct
from hartogs.checks import poincare_field_check
from hartogs.dbar import (
    DeltaFamilySpec,
    cutoff_commutator_check,
    dbar_u_delta_norm,
    l2_gap,
)
from hartogs.geometry import C_T, C_TINF, certify_uniform, verify_uniform
from hartogs.points import PolarPoint, angle_diff, euclid
from hartogs.quadrature import QuadratureSpec
from hartogs.spectral import neumann_spectrum, poincare_constant

SURFACE = QuadratureSpec(surface_cells=768)


def test_criterion_01_cone_uniformity():
    t0 = time.perf_counter()
    rep = verify_uniform("T_infinity", n_pairs=10_000, n_curve_samples=256, seed=7)
    assert rep.max_length_ratio <= 12.0, (
        f"curve length / pair distance reached {rep.max_length_ratio:.4f} > 12"
    )
    assert rep.max_dist_ratio <= 12.0, (
        f"cigar ratio reached {rep.max_dist_ratio:.4f} > 12"
    )
    assert rep.min_boundary_dist > 0.0
    exact = certify_uniform("T_infinity", n_pairs=10_000, seed=7)
    assert exact.max_length_ratio <= C_TINF and exact.max_dist_ratio <= C_TINF, (
        f"exact suprema {exact.max_length_ratio:.6f}, {exact.max_dist_ratio:.6f} exceed 5 + 2 pi"
    )
    assert exact.max_length_ratio >= rep.max_length_ratio and exact.max_dist_ratio >= rep.max_dist_ratio, (
        f"a sampled value exceeds its exact supremum: {rep.max_dist_ratio!r} > {exact.max_dist_ratio!r}"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_02_triangle_uniformity():
    t0 = time.perf_counter()
    rep = verify_uniform("T", n_pairs=10_000, n_curve_samples=256, seed=7)
    assert rep.max_length_ratio <= 80.0, (
        f"curve length / pair distance reached {rep.max_length_ratio:.4f} > 80"
    )
    assert rep.max_dist_ratio <= 80.0, (
        f"cigar ratio reached {rep.max_dist_ratio:.4f} > 80"
    )
    assert rep.min_boundary_dist > 0.0
    exact = certify_uniform("T", n_pairs=10_000, seed=7)
    assert exact.max_length_ratio <= C_T and exact.max_dist_ratio <= C_T, (
        f"exact suprema {exact.max_length_ratio:.6f}, {exact.max_dist_ratio:.6f} exceed c"
    )
    assert exact.max_length_ratio >= rep.max_length_ratio and exact.max_dist_ratio >= rep.max_dist_ratio, (
        f"a sampled value exceeds its exact supremum: {rep.max_dist_ratio!r} > {exact.max_dist_ratio!r}"
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_03_polar_distance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 1_000_000
    r1, r2, s1, s2 = rng.uniform(0.0, 2.0, (4, n))
    a1, a2, b1, b2 = rng.uniform(-np.pi, np.pi, (4, n))
    lhs = (
        np.abs(r1 - r2)
        + np.abs(s1 - s2)
        + np.minimum(r1, r2) * np.abs(angle_diff(a1, a2))
        + np.minimum(s1, s2) * np.abs(angle_diff(b1, b2))
    )
    dist = euclid(r1, a1, s1, b1, r2, a2, s2, b2)
    violations = int(np.sum(lhs > 3.0 * dist + 1e-12))
    assert violations == 0, f"{violations} of {n} pairs violated lhs <= 3|p1-p2|"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_04_boundary_profile():
    t0 = time.perf_counter()
    f0 = f_profile(0.0, SURFACE)
    apex = 2.0 * np.pi**2 / 3.0
    assert abs(f0 - apex) <= 1e-4 * apex, f"f(0) = {f0!r}, expected {apex!r}"
    f200 = f_profile(200.0, SURFACE)
    limit = 4.0 * np.pi / 3.0
    assert abs(f200 - limit) <= 1e-2 * limit, f"f(200) = {f200!r}, limit {limit!r}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_05_dilation_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0.1, 1.4)
        p = PolarPoint(t, rng.uniform(-np.pi, np.pi), t, rng.uniform(-np.pi, np.pi))
        rho = math.exp(rng.uniform(math.log(0.05), math.log(1.0)))
        scaled = sigma_ball_Tinf(p, rho, SURFACE)
        direct = sigma_ball_Tinf_direct(p, rho, SURFACE)
        rel = abs(scaled - direct) / direct
        worst = max(worst, rel)
        assert rel <= 1e-2, (
            f"profile form {scaled!r} vs direct {direct!r} at |p|={np.hypot(p.r, p.s):.3f}, "
            f"rho={rho:.3f}: relative gap {rel:.2e} > 1%"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s (worst gap {worst:.2e})"


def test_criterion_06_adr_scan():
    t0 = time.perf_counter()
    rho_set = (1.0, 0.5, 0.25, 0.125, 0.0625)
    report = adr_scan(24, rho_set, seed=7, spec=SURFACE)
    lo, hi = ADR_WINDOW
    assert report.passed, (
        f"ratios sigma/rho^3 spanned [{report.min_ratio:.4f}, {report.max_ratio:.4f}], "
        f"outside the frozen window [{lo}, {hi}]"
    )
    # refinement: halving rho moves sigma/rho^3 by a bounded factor only
    by_center: dict[int, list[tuple[float, float]]] = {}
    for p, rho, sig in report.samples:
        by_center.setdefault(id(p), []).append((rho, sig / rho**3))
    for group in by_center.values():
        group.sort(reverse=True)
        for (rho_a, rat_a), (rho_b, rat_b) in zip(group, group[1:]):
            factor = rat_a / rat_b
            assert 1.0 / 16.0 <= factor <= 16.0, (
                f"refinement {rho_a:.3f} -> {rho_b:.3f} changed sigma/rho^3 "
                f"by {factor:.3f}, outside [1/16, 16]"
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0, f"took {elapsed:.1f}s, budget 180s"


def test_criterion_07_bergman_orthogonality():
    t0 = time.perf_counter()
    idxs, G = basis_gram(8, 8, QuadratureSpec(level=24))
    assert len(idxs) == 90  # 9 values of j times 10 values of k
    diag = np.real(np.diag(G))
    scale = np.sqrt(np.outer(diag, diag))
    off = np.abs(G - np.diag(np.diag(G))) / scale
    assert off.max() <= 1e-8, f"largest relative off-diagonal entry {off.max():.2e}"
    for idx, g in zip(idxs, diag):
        closed = v_norm_sq(idx)
        assert abs(g - closed) <= 1e-6 * closed, (
            f"norm^2 of (j={idx.j}, k={idx.k}): quadrature {g!r} vs closed {closed!r}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_08_projection_identities():
    t0 = time.perf_counter()
    spec = QuadratureSpec(level=16)
    for idx in block_indices(8, 8):
        co = project(v_field(idx), 8, 8, spec)
        for other in block_indices(8, 8):
            c = co.get(other.j, other.k)
            want = 1.0 if other == idx else 0.0
            assert abs(c - want) <= 1e-6, (
                f"projecting (j={idx.j}, k={idx.k}) gave coefficient {c!r} "
                f"at (j={other.j}, k={other.k}), expected {want}"
            )
    zbar = project(lambda r, a, s, b: r * np.exp(-1j * a) * np.ones_like(s), 8, 8, spec)
    worst = max(abs(c) for c in zbar.entries.values())
    assert worst <= 1e-8, f"projection of conj(z) has coefficient {worst:.2e} > 1e-8"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_09_delta_scaling():
    t0 = time.perf_counter()
    quad = QuadratureSpec()

    # gap clause: ||u_delta - u|| strictly decreasing, final < 10% of first
    for j in (0, 1, 2):
        gaps = [l2_gap(DeltaFamilySpec(j, 2.0**-i), quad) for i in range(1, 9)]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), (
            f"gap sequence not strictly decreasing for j={j}: {gaps}"
        )
        assert gaps[-1] < 0.1 * gaps[0], (
            f"gap at delta=2^-8 is {gaps[-1]:.3e}, not below 10% of {gaps[0]:.3e}"
        )

    # ratio clause: ||dbar u_delta||^2 = pi^2 delta / (4(j+1)), so
    # ||dbar u_delta|| / ||dbar u_1|| = sqrt(delta)
    for j in (0, 1, 2):
        base = dbar_u_delta_norm(DeltaFamilySpec(j, 1.0), quad)
        for delta in (0.5, 0.1, 0.01):
            ratio = dbar_u_delta_norm(DeltaFamilySpec(j, delta), quad) / base
            want = math.sqrt(delta)
            assert abs(ratio - want) <= 1e-6 * want, (
                f"|dbar u_delta|/|dbar u_1| = {ratio:.8f} for j={j}, "
                f"delta={delta}, expected sqrt(delta) = {want:.8f}"
            )

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_10_cutoff_estimate():
    t0 = time.perf_counter()
    quad = QuadratureSpec()
    deltas = [2.0**-i for i in range(2, 9)]
    ones = lambda r, a, s, b: np.ones_like(s) * np.ones_like(r)
    borderline = v_field(LaurentIndex(0, -1))

    smooth = [cutoff_commutator_check(ones, d, quad) for d in deltas]
    rough = [cutoff_commutator_check(borderline, d, quad) for d in deltas]

    # Cauchy-Schwarz on every tested pair
    for rep in (*smooth, *rough):
        assert rep.lhs <= rep.first_factor * rep.second_factor * (1 + 1e-12), (
            f"lhs {rep.lhs!r} exceeded factor product "
            f"{rep.first_factor * rep.second_factor!r} at delta={rep.delta}"
        )

    # first factor bounded: variation < 10% across delta = 2^-2 .. 2^-8
    firsts = [rep.first_factor for rep in smooth]
    variation = (max(firsts) - min(firsts)) / min(firsts)
    assert variation < 0.1, f"first factor varied by {variation:.2%} over delta"

    # decreasing shell energy for the smooth field
    lhs_smooth = [rep.lhs for rep in smooth]
    assert all(a > b for a, b in zip(lhs_smooth, lhs_smooth[1:])), (
        f"shell energy for f = 1 not decreasing: {lhs_smooth}"
    )

    # borderline field f = 1/w: in shell coordinates the lhs factors as
    # 4 pi^2 * (1/4) int_0^1 S'(x)^2 (1+x) dx * int_{pi/4}^{pi/2} cot(theta)
    # = 4 pi^2 * (15/28) * (ln 2)/2 for every delta, and |f|^4 diverges
    lhs_rough = [rep.lhs for rep in rough]
    assert max(lhs_rough) / min(lhs_rough) - 1 <= 1e-9, (
        f"shell energy for f = 1/w varied over delta = 2^-2 .. 2^-8: "
        f"{[f'{v:.10f}' for v in lhs_rough]}"
    )
    closed = 15.0 * math.pi**2 * math.log(2.0) / 14.0
    for rep in rough:
        assert abs(rep.lhs - closed) <= 1e-12 * closed, (
            f"shell energy for f = 1/w is {rep.lhs!r} at delta={rep.delta}, "
            f"expected 15 pi^2 ln 2 / 14 = {closed!r}"
        )
        assert rep.l4_diverges, f"|1/w|^4 not flagged divergent at delta={rep.delta}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_11_neumann_spectrum():
    t0 = time.perf_counter()
    res = neumann_spectrum(0, 0, 64, 4)
    assert res.eigenvalues[0] <= 1e-8, f"zero mode eigenvalue {res.eigenvalues[0]:.2e}"
    assert res.eigenvalues[1] > 1.0, (
        f"kernel not one-dimensional: second eigenvalue {res.eigenvalues[1]:.2e}"
    )
    lam64 = res.eigenvalues[1]
    lam128 = neumann_spectrum(0, 0, 128, 2).eigenvalues[1]
    drift = abs(lam64 - lam128) / lam128
    assert drift < 0.01, f"first nonzero eigenvalue drifted {drift:.2%} from n=64 to 128"

    C = poincare_constant(64, 2)
    worst, ok = poincare_field_check(C, 2, 100, seed=11)
    assert ok, f"a test field reached Rayleigh ratio {worst:.4f} against C = {C:.6f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"


def test_criterion_12_determinism(tmp_path):
    t0 = time.perf_counter()
    payloads = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.json"
        code = cli.main(["all", "--seed", "7", "--out", str(out)])
        assert code == 0, f"battery run {tag} exited {code}"
        payloads.append(json.loads(out.read_text()))
    for payload in payloads:
        payload.pop("generated_at")
    assert payloads[0] == payloads[1], "identical configs produced different reports"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"


def _has_avx512_kernels() -> bool:
    from numpy._core._multiarray_umath import __cpu_features__

    return bool(__cpu_features__.get("X86_V4"))


ROOT = Path(__file__).resolve().parent.parent

#: the variables OpenBLAS reads for its thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _subprocess_csv(tmp_path, name, args, **env_vars):
    """Rows of ``hartogs <args> --format csv`` run in a fresh interpreter with no BLAS thread
    count set except those in ``env_vars``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(PYTHONPATH=str(ROOT / "src"), **env_vars)
    proc = subprocess.run([sys.executable, "-m", "hartogs", *args, "--format", "csv", "--out", str(tmp_path / name)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return _read_csv(tmp_path / name)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_same_report(default, other):
    """Cell for cell: every cell equal, observed values to rounding (adr.dilation is pure roundoff)."""
    assert [r["check_id"] for r in other] == [r["check_id"] for r in default]
    for a, b in zip(default, other):
        for cell in ("claim", "parameter_json", "expected", "tolerance", "pass"):
            assert a[cell] == b[cell], f"{a['check_id']}: {cell} {a[cell]!r} vs {b[cell]!r}"
        x, y = float(a["observed"]), float(b["observed"])
        assert abs(x - y) <= max(1e-12 * abs(x), 1e-15), f"{a['check_id']}: observed {x!r} vs {y!r}"


@pytest.mark.skipif(not _has_avx512_kernels(), reason="numpy runs no X86_V4 (AVX-512) kernels here, so "
                    "NPY_DISABLE_CPU_FEATURES=X86_V4 cannot change the SIMD target")
def test_determinism_across_simd_targets(tmp_path):
    # the seed-7 report without numpy's AVX-512 kernels and with two BLAS threads agrees
    # with the default run
    other = _subprocess_csv(tmp_path, "x86_v3.csv", ["all", "--seed", "7"],
                            NPY_DISABLE_CPU_FEATURES="X86_V4", OPENBLAS_NUM_THREADS="2")
    assert cli.main(["all", "--seed", "7", "--format", "csv", "--out", str(tmp_path / "default.csv")]) == 0
    default = _read_csv(tmp_path / "default.csv")
    assert len(default) == 33
    _assert_same_report(default, other)


def test_spectrum_independent_of_blas_threads(tmp_path):
    # numpy's BLAS pool loads with one thread by default; an explicit count of two threads
    # gives the same spectrum rows
    default = _subprocess_csv(tmp_path, "default.csv", ["spectrum", "--seed", "7"])
    threaded = _subprocess_csv(tmp_path, "threaded.csv", ["spectrum", "--seed", "7"], OPENBLAS_NUM_THREADS="2")
    assert len(default) == 5
    _assert_same_report(default, threaded)
