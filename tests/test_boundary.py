"""Boundary-measure engine: cone profile, ball measures, regularity scan."""

import tracemalloc

import numpy as np
import pytest

from hartogs.boundary import (
    ADR_WINDOW,
    DIAM_T,
    SIGMA_BT_TOTAL,
    _cone_ball,
    adr_scan,
    f_profile,
    sigma_ball_Tinf,
    sigma_ball_Tinf_direct,
    sigma_ball_bT,
)
from hartogs.points import PolarPoint
from hartogs.quadrature import QuadratureSpec

SPEC = QuadratureSpec(surface_cells=768)
SQ2 = np.sqrt(2.0)


def cone_point(t, alpha=0.0, beta=0.0):
    return PolarPoint(t / SQ2, alpha, t / SQ2, beta)


def test_profile_apex():
    assert f_profile(0.0, SPEC) == pytest.approx(2 * np.pi**2 / 3, rel=1e-5)


def test_profile_far_limit():
    assert f_profile(200.0, SPEC) == pytest.approx(4 * np.pi / 3, rel=1e-2)


def test_profile_positive_and_bounded():
    ts = np.linspace(0.0, 200.0, 41)
    vals = np.array([f_profile(float(t), SPEC) for t in ts])
    assert np.all(vals > 0)
    assert vals.max() < 10.0


def test_profile_continuity():
    for t in (0.5, 1.0, 2.0):
        base = f_profile(t, SPEC)
        d_coarse = abs(f_profile(t + 1e-2, SPEC) - base)
        d_fine = abs(f_profile(t + 1e-3, SPEC) - base)
        assert d_coarse <= 0.05  # small increment in value
        assert d_fine <= d_coarse / 3  # and shrinking with h


def test_profile_invalid():
    with pytest.raises(ValueError):
        f_profile(-0.5, SPEC)


def test_dilation_law_against_direct():
    rng = np.random.default_rng(3)
    for _ in range(25):
        t = rng.uniform(0.05, 2.0)
        rho = rng.uniform(0.05, 2.0)
        p = cone_point(t, rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        via = sigma_ball_Tinf(p, rho, SPEC)
        direct = sigma_ball_Tinf_direct(p, rho, SPEC)
        assert via == pytest.approx(direct, rel=1e-2)


def test_ball_measure_monte_carlo():
    # independent oracle: MC integration of the cone parametrization weight
    p = cone_point(0.9, 0.3, -1.2)
    rho = 0.6
    rng = np.random.default_rng(12)
    n = 4_000_000
    t_lo, t_hi = p.norm() - rho, p.norm() + rho
    t = rng.uniform(t_lo, t_hi, n)
    da = rng.uniform(-np.pi, np.pi, n)
    db = rng.uniform(-np.pi, np.pi, n)
    # squared distance from p to the cone point at radius t and angle offsets
    d2 = (
        p.r**2 + t**2 / 2 - 2 * p.r * (t / SQ2) * np.cos(da)
        + p.s**2 + t**2 / 2 - 2 * p.s * (t / SQ2) * np.cos(db)
    )
    inside = d2 < rho**2
    box = (t_hi - t_lo) * (2 * np.pi) ** 2
    mc = box * np.mean(np.where(inside, t**2 / 2, 0.0))
    assert sigma_ball_Tinf(p, rho, SPEC) == pytest.approx(mc, rel=5e-3)


def test_scaling_identity():
    p = cone_point(1.1, 0.4, 0.9)
    rho = 0.8
    assert sigma_ball_Tinf(p, rho, SPEC) == pytest.approx(
        8 * sigma_ball_Tinf(p.scaled(0.5), rho / 2, SPEC), rel=1e-10
    )


def test_origin_ball():
    origin = PolarPoint(0, 0, 0, 0)
    assert sigma_ball_Tinf(origin, 2.0, SPEC) == pytest.approx(8 * f_profile(0.0, SPEC), rel=1e-12)
    # on bT the cylinder stratum is out of reach for rho <= 1
    assert sigma_ball_bT(origin, 0.8, SPEC) == pytest.approx(0.8**3 * f_profile(0.0, SPEC), rel=1e-9)


def test_small_rho_far_from_apex():
    p = cone_point(1.0, 0.0, 0.0)
    rho = p.norm() / 100
    ratio = sigma_ball_Tinf(p, rho, SPEC) / rho**3
    assert ratio == pytest.approx(4 * np.pi / 3, rel=2e-2)


def test_total_measure():
    for p in (cone_point(0.4, 0.3, -1.1), PolarPoint(0.5, 0.0, 1.0, 0.7)):
        assert sigma_ball_bT(p, DIAM_T, SPEC) == pytest.approx(SIGMA_BT_TOTAL, rel=1e-3)
    assert SIGMA_BT_TOTAL == pytest.approx((4 * SQ2 / 3) * np.pi**2 + 2 * np.pi**2)


def test_cylinder_center_flat_limit():
    # away from the edges the cylinder stratum is locally flat 3-space,
    # so small balls carry measure close to (4/3) pi rho^3
    p = PolarPoint(0.3, 0.2, 1.0, -0.5)
    rho = 0.05
    assert sigma_ball_bT(p, rho, SPEC) == pytest.approx(4 * np.pi / 3 * rho**3, rel=2e-2)


def test_cylinder_lower_bound_order_rho_cubed():
    p = PolarPoint(0.0, 0.0, 1.0, 0.0)
    for rho in (0.1, 0.2, 0.4):
        lower = (np.pi / 2) * (rho / SQ2) ** 2 * (2 * rho / (2 * SQ2))
        assert sigma_ball_bT(p, rho, SPEC) >= lower


def test_ball_input_validation():
    interior = PolarPoint(0.2, 0, 0.6, 0)
    with pytest.raises(ValueError):
        sigma_ball_Tinf(interior, 0.5, SPEC)
    with pytest.raises(ValueError):
        sigma_ball_bT(interior, 0.5, SPEC)
    with pytest.raises(ValueError):
        sigma_ball_bT(cone_point(0.4), 0.0, SPEC)
    with pytest.raises(ValueError):
        sigma_ball_bT(cone_point(0.4), 3.0, SPEC)
    with pytest.raises(ValueError):
        sigma_ball_Tinf(cone_point(0.4), -1.0, SPEC)


def test_adr_scan_window_and_determinism():
    rho_set = [0.05, 0.2, 0.8]
    rep1 = adr_scan(10, rho_set, seed=11, spec=SPEC)
    rep2 = adr_scan(10, rho_set, seed=11, spec=SPEC)
    assert rep1.min_ratio == rep2.min_ratio and rep1.max_ratio == rep2.max_ratio
    assert rep1.passed
    assert ADR_WINDOW[0] <= rep1.min_ratio <= rep1.max_ratio <= ADR_WINDOW[1]
    assert len(rep1.samples) == 10 * len(rho_set)
    assert np.all(rep1.ratios() > 0)


def test_adr_scan_cone_centers_match_profile():
    # a pure cone center at small rho has ratio exactly f(|p|/rho)
    p = cone_point(0.5, 1.0, 2.0)
    rho = 0.01
    ratio = sigma_ball_bT(p, rho, SPEC) / rho**3
    assert ratio == pytest.approx(f_profile(0.5 / rho, SPEC), rel=1e-6)


def cone_ball_unfolded(az, aw, rho, r_hi, n):
    """The cone-ball midpoint rule summed over the full n x n (r, alpha) grid."""
    R = float(np.hypot(az, aw))
    lo, hi = max(0.0, R - rho), R + rho
    if r_hi is not None:
        hi = min(hi, r_hi)
    if hi <= lo:
        return 0.0
    r = lo + (np.arange(n) + 0.5) / n * (hi - lo)
    base = r * r + R * R - rho * rho
    q = base - SQ2 * r * aw
    den = SQ2 * r * az
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(den > 1e-300, q / den, np.where(q < 0.0, -np.inf, np.inf))
    halfw = np.arccos(np.clip(g, -1.0, 1.0))
    u = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    num = base[:, None] - SQ2 * r[:, None] * az * np.cos(halfw[:, None] * u[None, :])
    denb = SQ2 * r * aw
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(denb[:, None] > 1e-300, num / denb[:, None], np.where(num < 0.0, -np.inf, np.inf))
    blen = 2.0 * np.arccos(np.clip(c, -1.0, 1.0))
    alpha_int = blen.sum(axis=1) * (2.0 * halfw / n)
    return float(np.sum(0.5 * r * r * alpha_int) * (hi - lo) / n)


def _kernel_balls():
    rng = np.random.default_rng(5)
    balls = [
        (0.0, 0.0, 1.0, None),  # apex
        (0.0, 0.0, 0.8, SQ2),
        (200 / SQ2, 200 / SQ2, 1.0, None),  # far field, t = 200
        (3.0, 3.0, 0.5, SQ2),  # empty: the ball misses r <= sqrt 2
        (0.2, 0.0, 0.7, None),  # aw = 0, az > 0: each beta-fiber is empty or the full circle
    ]
    for _ in range(4):
        t = rng.uniform(0.0, 2.0)
        balls.append((t / SQ2, t / SQ2, rng.uniform(0.01, 2.0), None))  # cone centres
    for _ in range(4):
        balls.append((np.sqrt(rng.random()), 1.0, rng.uniform(0.01, DIAM_T), SQ2))  # cylinder centres
    return balls


@pytest.mark.parametrize("n", [768, 767, 64, 33])
def test_cone_ball_matches_unfolded_sum(n):
    for az, aw, rho, r_hi in _kernel_balls():
        ref = cone_ball_unfolded(az, aw, rho, r_hi, n)
        got = _cone_ball(az, aw, rho, r_hi, n)
        if ref == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(ref, rel=1e-11, abs=0.0), (az, aw, rho, r_hi)


def test_cone_ball_memory_stays_blocked():
    tracemalloc.start()
    try:
        _cone_ball(0.3, 1.0, 1.0, SQ2, 768)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000  # one 768 x 768 float grid alone is 4.7 MB
