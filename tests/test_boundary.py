"""Boundary-measure engine: cone profile, ball measures, regularity scan."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from hartogs import boundary
from hartogs.boundary import (
    ADR_WINDOW,
    DIAM_T,
    SIGMA_BT_TOTAL,
    _cone_ball,
    _cyl_ball,
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
    assert f_profile(0.0, SPEC) == pytest.approx(2 * np.pi**2 / 3, rel=1e-12)


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
    t_lo, t_hi = np.hypot(p.r, p.s) - rho, np.hypot(p.r, p.s) + rho
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
    rho = np.hypot(p.r, p.s) / 100
    ratio = sigma_ball_Tinf(p, rho, SPEC) / rho**3
    assert ratio == pytest.approx(4 * np.pi / 3, rel=2e-2)


def test_total_measure():
    for p in (cone_point(0.4, 0.3, -1.1), PolarPoint(0.5, 0.0, 1.0, 0.7)):
        assert sigma_ball_bT(p, DIAM_T, SPEC) == pytest.approx(SIGMA_BT_TOTAL, rel=1e-10)
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
    assert np.all(rep1.ratios > 0)


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


@pytest.fixture(scope="module")
def unfolded_768():
    return [cone_ball_unfolded(az, aw, rho, r_hi, 768) for az, aw, rho, r_hi in _kernel_balls()]


@pytest.mark.parametrize("n", [768, 767, 64])
def test_cone_ball_matches_unfolded_sum(n, unfolded_768):
    # n is the ceiling of the measured rule; the midpoint reference keeps 768
    # cells per axis, where its n^-1.5 error is at most 2.9e-5
    for (az, aw, rho, r_hi), ref in zip(_kernel_balls(), unfolded_768):
        got = _cone_ball(az, aw, rho, r_hi, n)
        if ref == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(ref, rel=5e-5, abs=0.0), (az, aw, rho, r_hi)
        assert got == _cone_ball(az, aw, rho, r_hi, 768)  # every kernel ball converges at the first pair


def test_closed_forms():
    assert _cone_ball(0.0, 0.0, 1.0, None, 768) == pytest.approx(2 * np.pi**2 / 3, rel=1e-12, abs=0.0)
    # a ball of radius diam T holds all of bT, whatever its center
    for az, aw in ((0.0, 0.0), (0.25, 0.25), (1.0, 1.0), (0.0, 1.0), (0.5, 1.0), (0.999999, 1.0)):
        total = _cone_ball(az, aw, DIAM_T, SQ2, 768) + _cyl_ball(az, aw, DIAM_T, 768)
        assert total == pytest.approx(SIGMA_BT_TOTAL, rel=1e-10, abs=0.0), (az, aw)


def _degenerate_reference(a, rho):
    """Cone ball about (0, a) or (a, 0): the fiber length is 2 arccos(k/a) in
    beta (az = 0) or 2 pi on an alpha-arc of 2 arccos(k/a) (aw = 0); either way
    int r^2 2 pi arccos(k/a) dr, here by adaptive quadrature in r."""
    def integrand(r):
        k = (r * r + a * a - rho * rho) / (SQ2 * r)
        return r * r * 2.0 * np.pi * np.arccos(np.clip(k / a, -1.0, 1.0))

    lo, hi = max(0.0, a / SQ2 - np.sqrt(rho**2 - a**2 / 2)), a / SQ2 + np.sqrt(rho**2 - a**2 / 2)
    kinks = [x for x in (-a / SQ2 + np.sqrt(rho**2 - a**2 / 2),) if lo < x < hi]
    return integrate.quad(integrand, lo, hi, points=kinks or None, epsabs=0.0, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("a, rho", [(0.7, 0.6), (0.7, 1.2), (2.0, 1.5), (0.05, 0.04)])
def test_degenerate_centres_closed_form(a, rho):
    ref = _degenerate_reference(a, rho)
    z_only = _cone_ball(a, 0.0, rho, None, 768)
    w_only = _cone_ball(0.0, a, rho, None, 768)
    assert z_only == pytest.approx(ref, rel=1e-11, abs=0.0)
    assert w_only == pytest.approx(ref, rel=1e-11, abs=0.0)
    # the general rule approaches the closed forms as the other modulus vanishes
    assert _cone_ball(a, 1e-9, rho, None, 768) == pytest.approx(ref, rel=1e-9)
    assert _cone_ball(1e-9, a, rho, None, 768) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("az, aw", [(0.3, 1.1), (0.62, 0.4), (1.3, 0.9)])
def test_cone_ball_symmetric_in_z_and_w(az, aw):
    # the cone |z| = |w| is invariant under (z, w) -> (w, z); the alpha and
    # beta axes of the rule are not, so the swap is a real test of the window
    for rho in (0.05, 0.6, 1.9):
        assert _cone_ball(az, aw, rho, None, 768) == pytest.approx(_cone_ball(aw, az, rho, None, 768), rel=1e-12)


def cyl_ball_midpoint(az, aw, rho, n):
    """Cylinder-ball measure: midpoint rule over the beta-window, with the
    textbook lens area (arccos of the cosine law)."""
    if aw == 0.0:
        if rho <= 1.0:
            return 0.0
        halfw = np.pi
    else:
        g = (1.0 + aw * aw - rho * rho) / (2.0 * aw)
        if g >= 1.0:
            return 0.0
        halfw = np.arccos(max(-1.0, g))
    beta = (np.arange(n) + 0.5) / n * 2.0 * halfw - halfw
    r = np.sqrt(np.maximum(rho * rho - (1.0 + aw * aw - 2.0 * aw * np.cos(beta)), 0.0))
    d = az
    area = np.where(d <= np.abs(1.0 - r), np.pi * np.minimum(1.0, r) ** 2, 0.0)
    mid = (d > np.abs(1.0 - r)) & (d < 1.0 + r)
    rm = r[mid]
    area[mid] = (
        np.arccos(np.clip((d * d + 1.0 - rm * rm) / (2.0 * d), -1.0, 1.0))
        + rm * rm * np.arccos(np.clip((d * d + rm * rm - 1.0) / (2.0 * d * rm), -1.0, 1.0))
        - 0.5 * np.sqrt(np.maximum((-d + rm + 1.0) * (d + rm - 1.0) * (d - rm + 1.0) * (d + rm + 1.0), 0.0))
    )
    return float(area.sum() * 2.0 * halfw / n)


def test_cyl_ball_matches_midpoint_sum():
    n = 768
    rng = np.random.default_rng(9)
    balls = [(0.0, 0.0, 1.5), (0.5, 0.5, 0.7), (0.0, 1.0, 0.3), (0.999, 1.0, 0.01)]
    balls += [(float(np.sqrt(rng.random())), 1.0, float(rng.uniform(0.01, DIAM_T))) for _ in range(6)]
    for az, aw, rho in balls:
        ref = cyl_ball_midpoint(az, aw, rho, 4 * n)
        got = _cyl_ball(az, aw, rho, n)
        assert ref > 0.0 and got == pytest.approx(ref, rel=1e-6, abs=0.0), (az, aw, rho)


# cone parts of cylinder-centred balls near the axis whose 32-node Gauss value differs from its 65-node
# Kronrod value by 8.6e-10 relative, and the 64-node one from its 129-node one by 3e-12, so that they
# need the second pair (a ceiling of 128) where the kernel balls stop at the first
SLOW_BALLS = [(0.0002559646930663882, 1.0, 0.9364237739945253), (0.00023207320868730928, 1.0, 0.9164105679102298)]


def test_ceiling_too_small_raises():
    az, aw, rho = SLOW_BALLS[0]
    value = _cone_ball(az, aw, rho, SQ2, 128)
    with pytest.raises(boundary.BallNotConvergedError, match=f"az={az!r}, aw={aw!r}, rho={rho!r}") as err:
        _cone_ball(az, aw, rho, SQ2, 64)
    assert "pair of 32 and 65 nodes per piece" in str(err.value) and isinstance(err.value, ValueError)
    # invalid input is a plain ValueError, which callers do not take for an unresolved ball
    with pytest.raises(ValueError) as err:
        _cone_ball(np.nan, aw, rho, SQ2, 768)
    assert type(err.value) is ValueError
    assert _cone_ball(az, aw, rho, SQ2, 768) == value
    for rule in (lambda n: _cone_ball(0.3, 1.0, 1.0, SQ2, n), lambda n: _cyl_ball(0.3, 1.0, 1.0, n),
                 lambda n: _cyl_ball(0.3, 0.3, 0.1, n)):  # the last misses the cylinder
        with pytest.raises(ValueError, match="node ceiling of 63 per piece admits no Gauss-Kronrod pair") as err:
            rule(63)  # the first pair replaces the 64-node rule, so it needs a ceiling of 64
        assert type(err.value) is ValueError


def test_unconverged_ball_names_its_last_rule(monkeypatch):
    # pair n runs while 2n is at most the ceiling, so under 768 the last pair has 256 and 513 nodes
    monkeypatch.setattr(boundary, "_AGREE_REL", 0.0)
    for rule in (lambda n: _cone_ball(0.3, 1.0, 1.0, SQ2, n), lambda n: _cyl_ball(0.3, 1.0, 1.0, n)):
        with pytest.raises(boundary.BallNotConvergedError,
                           match="pair of 256 and 513 nodes per piece: Gauss and Kronrod values "):
            rule(768)


def _is_float(x):
    return type(x) is float


def _is_batch(x, n):
    return type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (n,)


def test_numbers_give_a_float_and_arrays_one_value_per_ball():
    az, aw, rho = np.array([0.0, 0.3, 0.5, 3.0]), np.array([0.0, 0.3, 1.0, 3.0]), np.array([1.0, 0.5, 0.2, 0.5])
    assert _is_float(_cone_ball(0.3, 0.3, 0.5, SQ2, 768)) and _is_float(_cone_ball(0, 0, 1, None, 768))
    assert _is_float(_cyl_ball(0.5, 1.0, 0.3, 768)) and _is_float(_cyl_ball(np.float64(0.5), 1, 0.3, 768))
    assert _is_batch(_cone_ball(az, aw, rho, SQ2, 768), 4) and _is_batch(_cyl_ball(az, aw, rho, 768), 4)
    assert _is_batch(_cone_ball(az[:1], 0.0, 1.0, None, 768), 1)
    # empty balls: a number gives the float 0.0, an all-empty batch zeros
    for empty in (_cone_ball(3.0, 3.0, 0.5, SQ2, 768), _cyl_ball(0.3, 0.1, 0.01, 768)):
        assert _is_float(empty) and empty == 0.0
    far = np.array([3.0, 4.0, 5.0])
    for batch in (_cone_ball(far, far, 0.5, SQ2, 768), _cyl_ball(np.full(3, 0.3), 0.1, far / 500.0, 768)):
        assert _is_batch(batch, 3) and np.all(batch == 0.0)
    assert _is_float(f_profile(0.4, SPEC)) and _is_float(f_profile(np.float64(0.0), SPEC))
    assert _is_batch(f_profile(np.array([0.0, 0.4, 50.0]), SPEC), 3)
    p, cyl = cone_point(0.6, 0.2, -1.0), PolarPoint(0.4, 0.3, 1.0, 0.1)
    for fn in (sigma_ball_Tinf, sigma_ball_Tinf_direct):
        assert _is_float(fn(p, 0.3, SPEC)) and _is_batch(fn([p, cone_point(0.2)], [0.3, 0.1], SPEC), 2)
    assert _is_float(sigma_ball_bT(p, 0.05, SPEC)) and _is_float(sigma_ball_bT(cyl, 0.3, SPEC))
    assert _is_batch(sigma_ball_bT([p, cyl, p], 0.3, SPEC), 3)


def test_parts_without_pieces_make_no_pass(monkeypatch):
    # one _piece_sums call per pass for each part with pieces: the closed-form part runs only
    # for a batch holding a nonempty apex or axis ball, and a batch that converges at its first
    # pair makes one pass
    calls = []
    original = boundary._piece_sums
    monkeypatch.setattr(boundary, "_piece_sums", lambda *a: calls.append(a[4].keywords["h"].__name__) or original(*a))
    for az, aw, parts in (([0.3, 0.5], [0.3, 0.5], ["_cone_h"]),
                          ([0.3, 0.0], [0.3, 0.0], ["_cone_h", "_cone_h_closed"]),
                          ([0.3, 3.0], [0.3, 0.0], ["_cone_h"])):  # the axis ball (3, 0) is empty
        calls.clear()
        _cone_ball(np.array(az), np.array(aw), 0.5, SQ2, 768)
        assert calls == parts  # every ball converges at the first pair


def test_cone_ball_memory_stays_blocked():
    tracemalloc.start()
    try:
        _cone_ball(0.3, 1.0, 1.0, SQ2, 768)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000  # one 768 x 768 float grid alone is 4.7 MB


def _columns(balls):
    az, aw, rho = (np.array([b[i] for b in balls]) for i in range(3))
    r_hi = np.array([np.inf if b[3] is None else b[3] for b in balls])
    return az, aw, rho, r_hi


def test_batch_matches_each_ball_alone():
    balls = _kernel_balls()
    balls.insert(3, (*SLOW_BALLS[0], SQ2))
    az, aw, rho, r_hi = _columns(balls)
    for ball in balls[:3] + balls[4:]:
        _cone_ball(*ball, 64)  # converged at the first pair
    with pytest.raises(ValueError):
        _cone_ball(*balls[3], 64)  # the slow ball needs the second: convergence in the batch is mixed
    cone = _cone_ball(az, aw, rho, r_hi, 768)
    cyl = _cyl_ball(az, aw, rho, 768)
    assert cone.shape == cyl.shape == (len(balls),)
    alone = np.array([_cone_ball(*ball, 768) for ball in balls])
    np.testing.assert_allclose(cone, alone, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(cyl, [_cyl_ball(a, w, r, 768) for a, w, r, _ in balls], rtol=1e-15, atol=0.0)
    assert np.count_nonzero(cone == 0.0) == np.count_nonzero(alone == 0.0) > 0  # the empty ball stays exactly 0


def test_public_functions_take_a_sequence_of_points():
    rng = np.random.default_rng(21)
    cone = [cone_point(t, *rng.uniform(-np.pi, np.pi, 2)) for t in rng.uniform(0.05, 1.4, 5)]
    cyl = [PolarPoint(float(np.sqrt(rng.random())), 0.3, 1.0, -0.2) for _ in range(3)]
    radii = rng.uniform(0.05, 1.5, 5)
    ts = np.array([0.0, 0.4, 3.0, 200.0])
    np.testing.assert_allclose(f_profile(ts, SPEC), [f_profile(float(t), SPEC) for t in ts], rtol=1e-15, atol=0.0)
    for fn in (sigma_ball_Tinf, sigma_ball_Tinf_direct):
        np.testing.assert_allclose(fn(cone, radii, SPEC), [fn(p, float(r), SPEC) for p, r in zip(cone, radii)],
                                   rtol=1e-15, atol=0.0)
    points = cone[:3] + cyl
    np.testing.assert_allclose(sigma_ball_bT(points, 0.7, SPEC), [sigma_ball_bT(p, 0.7, SPEC) for p in points],
                               rtol=1e-15, atol=0.0)
    each = [*radii[:3], 0.01, DIAM_T, 0.9]
    np.testing.assert_allclose(sigma_ball_bT(points, each, SPEC),
                               [sigma_ball_bT(p, float(r), SPEC) for p, r in zip(points, each)], rtol=1e-15, atol=0.0)
    with pytest.raises(ValueError, match="r=0.2, s=0.6"):
        sigma_ball_bT(points + [PolarPoint(0.2, 0.0, 0.6, 0.0)], 0.7, SPEC)
    for bad in (0.0, 3.0, np.nan):
        with pytest.raises(ValueError, match="rho must lie"):
            sigma_ball_bT(points, [*each[:3], bad, *each[4:]], SPEC)


def test_unconverged_ball_in_a_batch_is_named():
    balls = [(0.3, 0.3, 0.5, SQ2), (0.5, 1.0, 0.2, SQ2), (*SLOW_BALLS[1], SQ2), (0.0, 0.0, 1.0, None),
             (*SLOW_BALLS[0], SQ2)]
    az, aw, rho, r_hi = _columns(balls)
    a, w, r = SLOW_BALLS[1]
    with pytest.raises(ValueError, match=f"az={a!r}, aw={w!r}, rho={r!r}") as err:
        _cone_ball(az, aw, rho, r_hi, 64)
    assert "pair of 32 and 65 nodes per piece: Gauss and Kronrod values [" in str(err.value)
    np.testing.assert_allclose(_cone_ball(az, aw, rho, r_hi, 128), [_cone_ball(*b, 128) for b in balls],
                               rtol=1e-15, atol=0.0)


def test_near_tangent_cone_balls_converge():
    # centre (c, 1) and rho = (c + 1)/(sqrt2 (1 + eps)): for (s1, s2) = (1, -1) the roots
    # r = -e +- sqrt(rho^2 - f^2) are a near-double pair, complex for eps > 0 with a near-kink
    # at their real part -e, which Gauss resolved only algebraically until it became a cut
    c, eps = np.meshgrid(np.linspace(0.05, 0.95, 7), np.concatenate([np.logspace(-1, -9, 9), -np.logspace(-9, -1, 9)]))
    rho = (c + 1.0) / (SQ2 * (1.0 + eps))  # increasing down each column
    values = _cone_ball(c.ravel(), 1.0, rho.ravel(), SQ2, 128).reshape(c.shape)
    assert np.all(values > 0.0) and np.all(np.diff(values, axis=0) > 0.0)
    # continuous across tangency: rho at eps = +-1e-9 differ by 2e-9 relative
    np.testing.assert_allclose(values[8], values[9], rtol=1e-6, atol=0.0)


def _oracle_balls():
    """A seeded battery of 20,002 balls (az, aw, rho): centres on the cone and on the cylinder with
    rho log-uniform in (0.005, 2 sqrt 2], near-tangent cone parts (as in the test above), cylinder
    centres near the axis, and both SLOW_BALLS."""
    rng = np.random.default_rng(31)
    c = rng.uniform(0.0, 1.0, 6000)
    z = np.sqrt(rng.random(10000))
    rho = np.exp(rng.uniform(np.log(0.005), np.log(DIAM_T), 16000))
    tangent = rng.uniform(0.05, 0.95, 2000)
    eps = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-9.0, -1.0, 2000)
    axis = 10.0 ** rng.uniform(-12.0, np.log10(0.3), 2000)
    slow_az, slow_aw, slow_rho = np.array(SLOW_BALLS).T
    az = np.concatenate([c, z, tangent, axis, slow_az])
    aw = np.concatenate([c, np.ones(14000), slow_aw])
    rho = np.concatenate([rho, (tangent + 1.0) / (SQ2 * (1.0 + eps)), rng.uniform(0.05, 2.5, 2000), slow_rho])
    return az, aw, rho


def test_returned_values_agree_with_the_next_pair(monkeypatch):
    # the oracle for the pair's error estimate: each returned value, mostly the first pair's
    # Kronrod value, lies within 1e-10 of the value that a battery starting one pair later returns
    az, aw, rho = _oracle_balls()
    assert az.size >= 20000
    first = _cone_ball(az, aw, rho, SQ2, 768), _cyl_ball(az, aw, rho, 768)
    monkeypatch.setattr(boundary, "_FIRST_NODES", 64)
    later = _cone_ball(az, aw, rho, SQ2, 768), _cyl_ball(az, aw, rho, 768)
    for got, ref in zip(first, later):
        assert np.array_equal(got == 0.0, ref == 0.0)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0.0)


def test_batch_memory_stays_blocked():
    rng = np.random.default_rng(8)
    c = np.sqrt(rng.random(64))
    on_cone = np.arange(64) % 2 == 0
    az = np.where(on_cone, rng.uniform(0.0, 1.0, 64), c)
    aw = np.where(on_cone, az, 1.0)
    rho = np.exp(rng.uniform(np.log(0.005), np.log(DIAM_T), 64))
    for batch in (lambda: _cone_ball(az, aw, rho, SQ2, 768), lambda: _cyl_ball(az, aw, rho, 768)):
        batch()  # the rules are cached on first use
        tracemalloc.start()
        try:
            batch()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


@pytest.mark.parametrize("name", ["_cone_ball", "_cyl_ball", "sigma_ball_bT"])
def test_adr_scan_reaches_the_kernels_by_name(monkeypatch, name):
    # the module-level names are looked up at call time, so a patched kernel shows in the scan
    base = adr_scan(4, [0.05, 0.5], seed=2, spec=SPEC)
    original = getattr(boundary, name)
    monkeypatch.setattr(boundary, name, lambda *a: 2.0 * original(*a))
    doubled = adr_scan(4, [0.05, 0.5], seed=2, spec=SPEC)
    for (p, rho, sig), (q, rho2, sig2) in zip(base.samples, doubled.samples):
        assert (p, rho) == (q, rho2)
        part = {"_cone_ball": lambda: original(p.r, p.s, rho, SQ2, SPEC.surface_cells),
                "_cyl_ball": lambda: original(p.r, p.s, rho, SPEC.surface_cells),
                "sigma_ball_bT": lambda: sig}[name]()
        assert sig2 == pytest.approx(sig + part, rel=1e-15, abs=0.0)
    assert any(sig2 != sig for (_, _, sig), (_, _, sig2) in zip(base.samples, doubled.samples))


def test_adr_scan_rejects_empty_radii():
    with pytest.raises(ValueError, match="rho_set"):
        adr_scan(4, [], seed=1, spec=SPEC)


def test_non_finite_balls_raise():
    # a NaN ball would otherwise look empty and read 0
    with pytest.raises(ValueError, match="finite"):
        _cone_ball(np.array([0.3, np.nan]), 0.3, 0.5, None, 768)
    with pytest.raises(ValueError, match="finite"):
        _cyl_ball(0.3, 1.0, np.inf, 768)
    for t in (np.array([0.5, np.nan]), np.inf):
        with pytest.raises(ValueError):
            f_profile(t, SPEC)
