"""Curve construction, boundary distances, and uniformity verification."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hartogs.geometry import (
    C_T,
    C_TINF,
    connect_T,
    connect_Tinf,
    dist_bT,
    dist_bTinf,
    polar_lhs,
    verify_uniform,
)
from hartogs.points import PolarPoint
from hartogs.quadrature import sample_T


def test_constants():
    assert C_TINF == pytest.approx(5 + 2 * np.pi)
    assert C_TINF < 12
    assert C_T == pytest.approx((1 + 4 * np.sqrt(2)) * (5 + 2 * np.pi + 4 * np.sqrt(2)) / np.sqrt(2))
    assert C_T < 80


def test_dist_bTinf_values():
    assert dist_bTinf(PolarPoint(0, 0, 1, 0)) == pytest.approx(1 / np.sqrt(2))
    assert dist_bTinf(PolarPoint(0.4, 1.0, 0.4, 2.0)) == 0.0
    assert dist_bTinf(PolarPoint(0.2, 0, 0.6, 0)) == pytest.approx(0.4 / np.sqrt(2))
    assert type(dist_bTinf(PolarPoint(0.2, 0, 0.6, 0))) is float


def test_dist_bT_values():
    assert dist_bT(PolarPoint(0.2, 0, 0.6, 0)) == pytest.approx(0.4 / np.sqrt(2))
    assert type(dist_bT(PolarPoint(0.2, 0, 0.6, 0))) is float  # the cone term is the minimum
    assert dist_bT(PolarPoint(0.0, 0, 0.99, 0)) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        dist_bT(PolarPoint(0.7, 0, 0.5, 0))


def _min_over_box(fun, los, his, iters=3, n=32):
    # coarse grid scan followed by window zooms around the running argmin
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    best = np.inf
    for _ in range(iters):
        axes = [np.linspace(lo, hi, n) for lo, hi in zip(los, his)]
        grids = np.meshgrid(*axes, indexing="ij")
        vals = fun(*grids)
        k = np.unravel_index(np.argmin(vals), vals.shape)
        best = float(vals[k])
        center = np.array([g[k] for g in grids])
        span = 2.0 * (his - los) / (n - 1)
        los, his = center - span, center + span
    return best


def test_dist_bT_brute_force():
    # oracle: minimize the distance over both boundary strata numerically
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = rng.uniform(0.1, 0.99)
        p = PolarPoint(rng.uniform(0, s * 0.98), rng.uniform(-np.pi, np.pi), s, rng.uniform(-np.pi, np.pi))

        def on_cone(t, th, ph):
            return np.sqrt(
                p.r**2 + t**2 - 2 * p.r * t * np.cos(th - p.alpha)
                + p.s**2 + t**2 - 2 * p.s * t * np.cos(ph - p.beta)
            )

        def on_cylinder(u, ps, ph):
            return np.sqrt(
                p.r**2 + u**2 - 2 * p.r * u * np.cos(ps - p.alpha)
                + p.s**2 + 1.0 - 2 * p.s * np.cos(ph - p.beta)
            )

        d_cone = _min_over_box(on_cone, [0, p.alpha - np.pi, p.beta - np.pi],
                               [1, p.alpha + np.pi, p.beta + np.pi])
        d_cyl = _min_over_box(on_cylinder, [0, p.alpha - np.pi, p.beta - np.pi],
                              [1, p.alpha + np.pi, p.beta + np.pi])
        assert dist_bT(p) == pytest.approx(min(d_cone, d_cyl), abs=2e-3)


def test_polar_lhs_examples():
    p = PolarPoint(1.0, 0.0, 1.0, 0.0)
    q = PolarPoint(1.0, np.pi, 1.0, 0.0)
    assert polar_lhs(p, q) == pytest.approx(np.pi)
    assert 3 * p.dist(q) == pytest.approx(6.0)
    assert polar_lhs(p, p) == 0.0


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0, 2), st.floats(-10, 10), st.floats(0, 2), st.floats(-10, 10),
    st.floats(0, 2), st.floats(-10, 10), st.floats(0, 2), st.floats(-10, 10),
)
def test_polar_lhs_bound_fuzz(r1, a1, s1, b1, r2, a2, s2, b2):
    p, q = PolarPoint(r1, a1, s1, b1), PolarPoint(r2, a2, s2, b2)
    assert polar_lhs(p, q) <= 3 * p.dist(q) + 1e-12


def test_connect_Tinf_degenerate_arc():
    # both z-components at the origin: the arc collapses, length is exact
    p1 = PolarPoint(0, 0, 1, 0)
    p2 = PolarPoint(0, 0, 2, 0)
    c = connect_Tinf(p1, p2)
    assert c.length() == pytest.approx(3.0)  # up 1->3, arc 0, down 3->2
    rr, aa, ss, bb = c.sample(64)
    assert np.all(rr < ss)


def test_connect_rejects_bad_input():
    p = PolarPoint(0.2, 0, 0.5, 0)
    with pytest.raises(ValueError):
        connect_Tinf(p, p)
    with pytest.raises(ValueError):
        connect_T(p, PolarPoint(0.9, 0, 0.5, 0))  # second point not in T
    with pytest.raises(ValueError):
        connect_Tinf(p, PolarPoint(0.9, 0, 0.5, 0))


def test_curve_endpoints_and_containment():
    pts = sample_T(40, seed=2)
    for i in range(0, 40, 2):
        p1, p2 = pts[i], pts[i + 1]
        c = connect_T(p1, p2)
        rr, aa, ss, bb = c.sample(128)
        assert rr[0] == pytest.approx(p1.r, abs=1e-12) and bb[0] == pytest.approx(p1.beta, abs=1e-12)
        assert rr[-1] == pytest.approx(p2.r, abs=1e-12) and bb[-1] == pytest.approx(p2.beta, abs=1e-12)
        assert np.all(rr < ss) and np.all(ss < 1.0)


def test_curve_length_closed_form_vs_polyline():
    pts = sample_T(20, seed=9)
    for i in range(0, 20, 2):
        c = connect_T(pts[i], pts[i + 1])
        rr, aa, ss, bb = c.sample(1024)
        x1, y1 = rr * np.cos(aa), rr * np.sin(aa)
        x2, y2 = ss * np.cos(bb), ss * np.sin(bb)
        poly = np.sqrt(np.diff(x1) ** 2 + np.diff(y1) ** 2 + np.diff(x2) ** 2 + np.diff(y2) ** 2).sum()
        assert c.length() == pytest.approx(poly, rel=1e-6)


def test_curve_reversal_symmetry():
    pts = sample_T(10, seed=4)
    for i in range(0, 10, 2):
        fwd = connect_T(pts[i], pts[i + 1])
        rev = connect_T(pts[i + 1], pts[i])
        assert fwd.length() == pytest.approx(rev.length(), abs=1e-12)
        assert fwd.arc_length() == pytest.approx(rev.arc_length(), abs=1e-12)


def test_curve_shrinks_to_segment():
    # as |p1 - p2| -> 0 the curve approaches the straight segment
    base = PolarPoint(0.3, 0.5, 0.7, -0.8)
    for d in (1e-2, 1e-3):
        p2 = PolarPoint(base.r + d / 2, base.alpha, base.s + d / 2, base.beta)
        c = connect_T(base, p2)
        rr, aa, ss, bb = c.sample(256)
        z = rr * np.exp(1j * aa)
        w = ss * np.exp(1j * bb)
        z1, w1 = base.z, base.w
        z2, w2 = p2.z, p2.w
        ts = np.linspace(0, 1, 801)
        seg_z = z1 + np.subtract.outer(ts, [0]) * (z2 - z1)
        seg_w = w1 + np.subtract.outer(ts, [0]) * (w2 - w1)
        dev = np.sqrt(
            np.abs(z[None, :] - seg_z) ** 2 + np.abs(w[None, :] - seg_w) ** 2
        ).min(axis=0).max()
        assert dev <= C_T * d


def test_verify_uniform_reports():
    rep = verify_uniform("T_infinity", 800, 128, seed=1)
    assert rep.passed and rep.max_length_ratio <= C_TINF and rep.max_dist_ratio <= C_TINF
    assert rep.constant_bound == pytest.approx(C_TINF)
    assert rep.min_boundary_dist > 0

    rep2 = verify_uniform("T", 800, 128, seed=1)
    assert rep2.passed and rep2.max_length_ratio <= C_T and rep2.max_dist_ratio <= C_T


def test_verify_uniform_deterministic():
    a = verify_uniform("T", 50, 64, seed=42)
    b = verify_uniform("T", 50, 64, seed=42)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_verify_uniform_ratio_monotone_in_sampling():
    # denser parameter sampling can only raise the observed supremum
    lo = verify_uniform("T", 200, 64, seed=6)
    hi = verify_uniform("T", 200, 256, seed=6)
    assert hi.max_dist_ratio >= lo.max_dist_ratio - 1e-12


def test_verify_uniform_validation():
    with pytest.raises(ValueError):
        verify_uniform("bad_domain", 10, 16, seed=0)
    with pytest.raises(ValueError):
        verify_uniform("T", 0, 16, seed=0)
    with pytest.raises(ValueError):
        verify_uniform("T", 10, 1, seed=0)
