"""Curve construction, boundary distances, and uniformity verification."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hartogs import geometry
from hartogs.checks import RunParams, run_uniform
from hartogs.geometry import (
    _polar,
    C_T,
    C_TINF,
    certify_uniform,
    connect_T,
    connect_Tinf,
    dist_bT,
    dist_bTinf,
    polar_lhs_arrays,
    verify_uniform,
)
from hartogs.points import PolarPoint, euclid
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
    assert polar_lhs_arrays(*_polar(p), *_polar(q)) == pytest.approx(np.pi)
    assert 3 * p.dist(q) == pytest.approx(6.0)
    assert polar_lhs_arrays(*_polar(p), *_polar(p)) == 0.0


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0, 2), st.floats(-10, 10), st.floats(0, 2), st.floats(-10, 10),
    st.floats(0, 2), st.floats(-10, 10), st.floats(0, 2), st.floats(-10, 10),
)
def test_polar_lhs_bound_fuzz(r1, a1, s1, b1, r2, a2, s2, b2):
    p, q = PolarPoint(r1, a1, s1, b1), PolarPoint(r2, a2, s2, b2)
    assert polar_lhs_arrays(*_polar(p), *_polar(q)) <= 3 * p.dist(q) + 1e-12


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
        # piece by piece: the arcs agree and the segments swap
        seg1, arc, seg2 = geometry._length(*fwd._parts())
        assert np.allclose(geometry._length(*rev._parts()), (seg2, arc, seg1), rtol=0.0, atol=1e-12)


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


# ------------------------------------------------- exact curve suprema --

PI_OVER_3_SQRT2 = np.pi / (3.0 * np.sqrt(2.0))


def _piece_ratios_at(c1, c2, cap, t, pieces=(0, 1, 2)):
    """Cigar ratios of the chosen pieces at parameters t of shape (pairs, n)."""
    c1, c2 = (tuple(x[:, None] for x in c) for c in (c1, c2))
    _, arc = geometry._arc(c1, c2, cap)
    out = []
    for i, piece in enumerate(geometry._pieces(c1, c2, arc, t)):
        if i in pieces:
            dmin = np.minimum(euclid(*piece, *c1), euclid(*piece, *c2))
            out.append(dmin / geometry.dist_boundary(piece[0], piece[2], cap))
    return out


def _dense_reference(c1, c2, cap, n):
    """Sampled cigar supremum per pair: n equispaced parameters per piece,
    then n more across the two cells around each piece's best sample.

    One equispaced sweep is only first-order accurate at a maximum where
    min(d1, d2) has a kink: at n = 2^16 it stays up to 1.2e-5 below the
    supremum, so the second sweep refines the spacing to 2/(n - 1)^2.
    """
    pairs = c1[0].size
    grid = np.linspace(0.0, 1.0, n)
    best = []
    for i, coarse in enumerate(_piece_ratios_at(c1, c2, cap, np.broadcast_to(grid, (pairs, n)))):
        k = np.argmax(coarse, axis=1)
        lo, hi = grid[np.maximum(k - 1, 0)], grid[np.minimum(k + 1, n - 1)]
        (fine,) = _piece_ratios_at(c1, c2, cap, lo[:, None] + (hi - lo)[:, None] * grid, pieces=(i,))
        best.append(np.maximum(coarse.max(axis=1), fine.max(axis=1)))
    return np.max(best, axis=0)


@pytest.mark.parametrize("domain", ["T_infinity", "T"])
def test_sampled_suprema_approach_exact_from_below(domain):
    for seed in (1, 2, 3):
        c1, c2, cap, _ = geometry._endpoints(domain, 250, seed)
        length, cigar, bdist = geometry._exact_suprema(c1, c2, cap)
        gaps = []
        for n in (64, 256, 2048):
            s_length, s_cigar, s_bdist = geometry._sampled_suprema(c1, c2, cap, n)
            assert np.array_equal(s_length, length)
            assert np.all(s_cigar <= cigar * (1.0 + 1e-12)), (seed, n)
            # both sweeps include p1, q1, q2 and p2, where the minimum lies
            np.testing.assert_allclose(s_bdist, bdist, rtol=1e-10)
            gaps.append(float(np.sum(cigar - s_cigar)))
        assert gaps[0] > gaps[1] > gaps[2] > 0.0, (seed, gaps)
        assert gaps[2] < gaps[0] / 8.0, (seed, gaps)


@pytest.mark.parametrize("domain", ["T_infinity", "T"])
def test_exact_suprema_match_dense_reference(domain):
    c1, c2, cap, _ = geometry._endpoints(domain, 20, 11)
    _, cigar, _ = geometry._exact_suprema(c1, c2, cap)
    ref = _dense_reference(c1, c2, cap, 2**16)
    assert np.all(ref <= cigar * (1.0 + 1e-12))
    np.testing.assert_allclose(ref, cigar, rtol=1e-6)


def _adversarial_pairs(name):
    """Endpoint tuples (c1, c2) and the domain cap of one adversarial family."""
    rng = np.random.default_rng(17)
    c1, c2, _, _ = geometry._endpoints("T", 8, 19)
    (r1, a1, s1, b1), (r2, a2, s2, b2) = c1, c2
    if name.startswith("apex"):
        scale = float(name.split("_")[1])
        return (scale * r1, a1, scale * s1, b1), (scale * r2, a2, scale * s2, b2)
    if name.startswith("cone_edge"):  # r = s (1 - eps) at both endpoints
        eps = float(name.split("_")[2])
        return (s1 * (1.0 - eps), a1, s1, b1), (s2 * (1.0 - eps * rng.uniform(0.5, 2.0, 8)), a2, s2, b2)
    if name.startswith("cylinder"):  # s = 1 - eps at both endpoints, on T
        eps = float(name.split("_")[1])
        return (r1, a1, np.full(8, 1.0 - eps), b1), (r2, a2, 1.0 - eps * rng.uniform(0.5, 2.0, 8), b2)
    # antipodal: |da| and |db| within 1e-9 of pi, on either side of the wrap
    off = rng.choice([-1e-9, 1e-9, 0.0], (2, 8))
    return (r1, a1, s1, b1), (r2, a1 + np.pi + off[0], s2, b1 - np.pi + off[1])


ADVERSARIAL = [f"apex_{x}" for x in ("1e-3", "1e-6", "1e-9")] + [
    "cone_edge_1e-3", "cone_edge_1e-6", "cone_edge_1e-9", "cylinder_1e-6", "cylinder_1e-9", "antipodal",
]


@pytest.mark.parametrize("domain", ["T_infinity", "T"])
@pytest.mark.parametrize("family", ADVERSARIAL)
def test_exact_suprema_on_adversarial_pairs(domain, family):
    cap = domain == "T"
    c1, c2 = (tuple(np.asarray(x, dtype=float) for x in c) for c in _adversarial_pairs(family))
    length, cigar, bdist = geometry._exact_suprema(c1, c2, cap)
    bound = C_T if cap else C_TINF
    assert np.all(length <= bound) and np.all(cigar <= bound) and np.all(bdist > 0.0)
    _, s_cigar, s_bdist = geometry._sampled_suprema(c1, c2, cap, 2048)
    assert np.all(s_cigar <= cigar * (1.0 + 1e-12))
    # the same points up to the rounding of their radii, which (s - r)/sqrt 2 can amplify near r = s
    np.testing.assert_allclose(bdist, s_bdist, rtol=1e-10, atol=4e-16 * max(np.max(c1[2]), np.max(c2[2])))
    ref = _dense_reference(c1, c2, cap, 2**12)
    assert np.all(ref <= cigar * (1.0 + 1e-12))
    np.testing.assert_allclose(ref, cigar, rtol=1e-6)


def test_boundary_minimum_can_lie_on_the_arc():
    # far-apart points of T: the factor 1/(1 + 2d) pulls the arc toward the cone,
    # closer to bT than either endpoint
    c1 = tuple(np.array([x]) for x in (0.08, 0.0, 0.62, 0.0))
    c2 = tuple(np.array([x]) for x in (0.08, 3.0, 0.62, -3.0))
    _, _, bdist = geometry._exact_suprema(c1, c2, True)
    _, _, s_bdist = geometry._sampled_suprema(c1, c2, True, 2048)
    assert bdist[0] < 0.96 * dist_bT(PolarPoint(0.08, 0.0, 0.62, 0.0))
    assert bdist[0] == pytest.approx(s_bdist[0], rel=1e-12)


def test_cone_suprema_are_dilation_invariant():
    c1, c2, _, _ = geometry._endpoints("T_infinity", 200, 5)
    base = geometry._exact_suprema(c1, c2, False)
    for scale in (1e-3, 1e-6, 1e-9):
        scaled = [tuple(scale * x if i in (0, 2) else x for i, x in enumerate(c)) for c in (c1, c2)]
        length, cigar, bdist = geometry._exact_suprema(*scaled, False)
        np.testing.assert_allclose(length, base[0], rtol=1e-9)
        np.testing.assert_allclose(cigar, base[1], rtol=1e-9)
        np.testing.assert_allclose(bdist, scale * base[2], rtol=1e-9)


def test_certify_uniform_reports():
    for domain, bound in (("T_infinity", C_TINF), ("T", C_T)):
        exact = certify_uniform(domain, 500, seed=4)
        sampled = verify_uniform(domain, 500, 256, seed=4)
        assert exact.passed and exact.n_curve_samples is None and exact.n_pairs == 500
        assert exact.constant_bound == pytest.approx(bound)
        assert exact.max_length_ratio == sampled.max_length_ratio
        assert sampled.max_dist_ratio <= exact.max_dist_ratio <= bound
        assert 0.0 < exact.min_boundary_dist <= sampled.min_boundary_dist * (1.0 + 1e-10)
        assert dataclasses.asdict(exact) == dataclasses.asdict(certify_uniform(domain, 500, seed=4))
    with pytest.raises(ValueError):
        certify_uniform("bad_domain", 10, seed=0)
    with pytest.raises(ValueError):
        certify_uniform("T", 0, seed=0)


def test_polar_lemma_one_coordinate():
    # |r1 - r2| + min(r1, r2)|da| <= (pi/2)|z1 - z2|, with equality at r1 = r2, |da| = pi
    rng = np.random.default_rng(3)
    r1, r2 = rng.uniform(0.0, 2.0, (2, 200_000))
    a1, a2 = rng.uniform(-np.pi, np.pi, (2, 200_000))
    lhs = polar_lhs_arrays(r1, a1, 0.0, 0.0, r2, a2, 0.0, 0.0)
    assert np.all(lhs <= 0.5 * np.pi * euclid(r1, a1, 0.0, 0.0, r2, a2, 0.0, 0.0) * (1.0 + 1e-12))
    assert polar_lhs_arrays(0.7, 0.2, 0.0, 0.0, 0.7, 0.2 + np.pi, 0.0, 0.0) == pytest.approx(0.7 * np.pi, rel=1e-15)


def test_polar_bound_extremal_pair_attains_sharp_constant():
    for r in (1e-6, 0.3, 1.7):
        p, q = PolarPoint(r, 0.4, r, -2.0), PolarPoint(r, 0.4 + np.pi, r, -2.0 + np.pi)
        ratio = polar_lhs_arrays(*_polar(p), *_polar(q)) / (3.0 * p.dist(q))
        assert ratio == pytest.approx(PI_OVER_3_SQRT2, rel=1e-12, abs=0.0)
    assert PI_OVER_3_SQRT2 == pytest.approx(0.7404804897, abs=1e-10)


def test_polar_bound_battery_maximum_below_sharp_constant():
    row = [r for r in run_uniform(RunParams(domain="T")) if r.check_id == "uniform.polar_bound"][0]
    assert row.passed and row.observed <= PI_OVER_3_SQRT2
    assert row.observed == pytest.approx(0.713802, abs=1e-6)  # 2e5 draws at seed 7 stay 3.6% short
