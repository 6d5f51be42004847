"""Polar point arithmetic: wrapping, distances, membership."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hartogs.points import PolarPoint, angle_diff, angle_wrap

finite_angles = st.floats(-50.0, 50.0, allow_nan=False)
radii = st.floats(0.0, 3.0, allow_nan=False)


def test_angle_wrap_branch():
    assert angle_wrap(np.pi) == pytest.approx(np.pi)
    assert angle_wrap(-np.pi) == pytest.approx(np.pi)  # branch is (-pi, pi]
    assert angle_wrap(0.0) == 0.0
    assert angle_wrap(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert angle_wrap(2 * np.pi) == pytest.approx(0.0, abs=1e-12)


def test_angle_wrap_vectorized():
    a = np.array([0.0, np.pi, -np.pi, 5 * np.pi, -0.1])
    out = angle_wrap(a)
    assert out.shape == a.shape
    assert np.all(out > -np.pi) and np.all(out <= np.pi)


@given(finite_angles)
def test_angle_wrap_range(a):
    w = angle_wrap(a)
    assert -np.pi < w <= np.pi


@given(finite_angles, st.integers(-5, 5))
def test_angle_wrap_periodic(a, k):
    d = abs(angle_wrap(a + 2 * np.pi * k) - angle_wrap(a))
    # distance on the circle: near the branch cut the representatives may
    # land on opposite ends, which is still the same angle
    assert min(d, 2 * np.pi - d) <= 1e-9


@given(finite_angles, finite_angles)
def test_angle_diff_skew(a, b):
    d1, d2 = angle_diff(a, b), angle_diff(b, a)
    # equal magnitude, opposite sign, except on the branch cut where both are pi
    assert abs(d1) == pytest.approx(abs(d2), abs=1e-9)


def test_polar_point_validation():
    with pytest.raises(ValueError):
        PolarPoint(-0.1, 0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        PolarPoint(0.1, np.nan, 0.5, 0.0)
    with pytest.raises(ValueError):
        PolarPoint(0.1, 0.0, np.inf, 0.0)


@given(radii, finite_angles, radii, finite_angles)
def test_cartesian_roundtrip(r, a, s, b):
    p = PolarPoint(r, a, s, b)
    q = PolarPoint.from_cartesian(p.z, p.w)
    assert abs(q.z - p.z) <= 1e-12 and abs(q.w - p.w) <= 1e-12


def test_dist_matches_cartesian():
    rng = np.random.default_rng(0)
    for _ in range(200):
        r1, s1, r2, s2 = rng.uniform(0, 2, 4)
        a1, b1, a2, b2 = rng.uniform(-np.pi, np.pi, 4)
        p, q = PolarPoint(r1, a1, s1, b1), PolarPoint(r2, a2, s2, b2)
        direct = np.sqrt(abs(p.z - q.z) ** 2 + abs(p.w - q.w) ** 2)
        assert p.dist(q) == pytest.approx(direct, abs=1e-12)


def test_dist_keeps_relative_precision_for_nearby_points():
    # the law-of-cosines form returned 0.0 here: cos(7.6e-9) rounds to 1
    for da in (7.645070624947843e-09, 1e-12):
        assert PolarPoint(1.0, 0.0, 0.0, 0.0).dist(PolarPoint(1.0, da, 0.0, 0.0)) == pytest.approx(da, rel=1e-12)
    p, q = PolarPoint(0.5, 1.0, 0.8, -2.0), PolarPoint(0.5 + 1e-10, 1.0 + 1e-10, 0.8, -2.0 - 1e-10)
    direct = np.hypot(abs(p.z - q.z), abs(p.w - q.w))
    assert p.dist(q) == pytest.approx(direct, rel=1e-5)


def test_dist_identity_and_symmetry():
    p = PolarPoint(0.3, 1.0, 0.7, -2.0)
    q = PolarPoint(0.1, -0.5, 0.9, 0.4)
    assert p.dist(p) == 0.0
    assert p.dist(q) == pytest.approx(q.dist(p), abs=1e-15)


def test_membership():
    assert PolarPoint(0.2, 0.0, 0.5, 0.0).in_T()
    assert not PolarPoint(0.6, 0.0, 0.5, 0.0).in_T()
    assert not PolarPoint(0.2, 0.0, 1.0, 0.0).in_T()
    assert PolarPoint(0.2, 0.0, 1.5, 0.0).in_Tinf()
    assert not PolarPoint(1.5, 0.0, 1.5, 0.0).in_Tinf()


def test_scaled():
    p = PolarPoint(0.2, 1.0, 0.5, -1.0)
    q = p.scaled(2.0)
    assert q.r == pytest.approx(0.4) and q.s == pytest.approx(1.0)
    assert q.alpha == p.alpha and q.beta == p.beta
    assert np.hypot(q.r, q.s) == pytest.approx(2.0 * np.hypot(p.r, p.s))
    with pytest.raises(ValueError):
        p.scaled(-1.0)
