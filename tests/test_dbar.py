"""The u_delta approximation family and the chi_delta cutoffs."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hartogs import quadrature
from hartogs.bergman import v_eval, v_eval_arrays, LaurentIndex
from hartogs.dbar import (
    CutoffReport,
    DeltaFamilySpec,
    chi_delta,
    cutoff_commutator_check,
    dbar_u_delta_eval,
    dbar_u_delta_norm,
    dchi_delta,
    l2_gap,
    smoothstep,
    smoothstep_deriv,
    u_delta_eval,
    w1_energy_u_delta,
    w1_energy_u_raw,
)
from hartogs.points import PolarPoint
from hartogs.quadrature import NonFiniteIntegrandError, QuadratureSpec, _angular_nodes, _gl_unit, sample_T

SPEC = QuadratureSpec(level=24)
ONE = lambda r, a, s, b: np.ones(np.broadcast(r, s).shape)
WINV = lambda r, a, s, b: 1.0 / (s * np.exp(1j * b))
# Mn = int_0^1 S'(x)^n (1+x)^3 dx for the quintic smoothstep, exact rationals
M2, M4 = 765.0 / 154.0, 587250.0 / 46189.0
SKEW = lambda r, a, s, b: (r * np.exp(1j * a) + 0.3) / (s * np.exp(1j * b)) + 1j * r * s * np.cos(2 * b - a)


def test_family_spec_validation():
    with pytest.raises(ValueError):
        DeltaFamilySpec(j=-1, delta=0.5)
    with pytest.raises(ValueError):
        DeltaFamilySpec(j=0, delta=0.0)
    with pytest.raises(ValueError):
        DeltaFamilySpec(j=0, delta=1.5)


def test_u_delta_piecewise_definition():
    fam = DeltaFamilySpec(j=1, delta=0.4)
    inside = PolarPoint(0.05, 0.3, 0.2, -0.7)  # s < delta
    outside = PolarPoint(0.3, 0.3, 0.8, -0.7)  # s >= delta
    u = lambda p: v_eval(LaurentIndex(1, -1), p)
    assert u_delta_eval(fam, inside) == pytest.approx(
        (inside.s / 0.4) ** 0.4 * u(inside), abs=1e-15
    )
    assert u_delta_eval(fam, outside) == pytest.approx(u(outside), abs=1e-15)


def test_u_delta_interface_continuity():
    # one-sided limits at s = delta agree; keep the offset small enough that
    # the smooth variation of u itself (|du/ds| ~ 1/delta^2) stays below 1e-12
    fam = DeltaFamilySpec(j=0, delta=0.3)
    eps = 1e-14
    below = PolarPoint(0.1, 0.2, 0.3 - eps, 1.0)
    above = PolarPoint(0.1, 0.2, 0.3 + eps, 1.0)
    assert abs(u_delta_eval(fam, below) - u_delta_eval(fam, above)) <= 1e-12


def test_u_delta_dominated():
    fam = DeltaFamilySpec(j=0, delta=0.25)
    for p in sample_T(10_000, seed=1):
        assert abs(u_delta_eval(fam, p)) <= abs(v_eval(LaurentIndex(0, -1), p)) + 1e-15


def test_u_delta_one_at_delta_one():
    fam = DeltaFamilySpec(j=0, delta=1.0)
    for p in sample_T(50, seed=2):
        assert u_delta_eval(fam, p) == pytest.approx(p.s * v_eval(LaurentIndex(0, -1), p), abs=1e-14)


def test_u_delta_requires_membership():
    with pytest.raises(ValueError):
        u_delta_eval(DeltaFamilySpec(j=0, delta=0.5), PolarPoint(0.9, 0, 0.5, 0))


def test_dbar_norm_anchor():
    val = dbar_u_delta_norm(DeltaFamilySpec(j=0, delta=1.0), SPEC)
    assert val == pytest.approx(np.pi / 2, rel=1e-12)


def test_dbar_norm_closed_form():
    # squared norm is pi^2 * delta / (4 (j+1)) for every delta in (0,1]
    for j in (0, 1, 2, 5):
        for delta in (1.0, 0.5, 0.1, 0.01, 0.001):
            val = dbar_u_delta_norm(DeltaFamilySpec(j=j, delta=delta), SPEC)
            assert val**2 == pytest.approx(np.pi**2 * delta / (4 * (j + 1)), rel=1e-12)


def test_dbar_norm_squared_ratio_is_delta():
    for j in (0, 1, 2):
        base = dbar_u_delta_norm(DeltaFamilySpec(j=j, delta=1.0), SPEC)
        for delta in (0.5, 0.1, 0.01):
            val = dbar_u_delta_norm(DeltaFamilySpec(j=j, delta=delta), SPEC)
            assert val**2 / base**2 == pytest.approx(delta, rel=1e-9)


@pytest.mark.parametrize("shell_level", [4, 96, 192])
def test_dbar_norm_two_level_agreement(shell_level):
    # the log layer takes no size from the spec: every shell level gives the same values
    fam, ref, spec = DeltaFamilySpec(j=1, delta=0.05), QuadratureSpec(), QuadratureSpec(shell_level=shell_level)
    for fn in (dbar_u_delta_norm, l2_gap, w1_energy_u_delta):
        assert fn(fam, spec) == fn(fam, ref)


def test_dbar_closed_form_matches_finite_differences():
    # Wirtinger conjugate derivative of u_delta at interior points of {s < delta}
    fam = DeltaFamilySpec(j=1, delta=0.6)
    h = 1e-7
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 1000:
        s = rng.uniform(0.05, 0.55)
        r = rng.uniform(0.0, s * 0.95)
        p = PolarPoint(r, rng.uniform(-np.pi, np.pi), s, rng.uniform(-np.pi, np.pi))
        z, w = p.z, p.w
        u = lambda zz, ww: u_delta_eval(fam, PolarPoint.from_cartesian(zz, ww))
        fd = (u(z, w + h) - u(z, w - h)) / (2 * h) / 2 + 1j * (
            u(z, w + 1j * h) - u(z, w - 1j * h)
        ) / (2 * h) / 2
        closed = dbar_u_delta_eval(fam, p)
        assert abs(fd - closed) <= 1e-6 * max(1.0, abs(closed))
        checked += 1


def test_dbar_vanishes_outside_shell():
    fam = DeltaFamilySpec(j=0, delta=0.3)
    assert dbar_u_delta_eval(fam, PolarPoint(0.2, 0.1, 0.8, 0.4)) == 0.0


def test_gap_closed_forms():
    assert l2_gap(DeltaFamilySpec(j=0, delta=1.0), SPEC) == pytest.approx(np.pi / np.sqrt(6), rel=1e-10)
    assert l2_gap(DeltaFamilySpec(j=0, delta=0.5), SPEC) == pytest.approx(np.pi / np.sqrt(60), rel=1e-10)


@pytest.mark.parametrize("j", [0, 1, 2])
@pytest.mark.parametrize("delta", [1e-3, 2.0**-8, 0.01, 0.1, 0.5, 1.0])
def test_gap_factored_closed_form(j, delta):
    # the squared gap pi^2 delta^4 / ((j+1)(1+delta)(2+delta)): 1/(2d+2) - 2/(d+2) + 1/2 factored, no cancellation
    exact = np.pi * delta**2 / np.sqrt((j + 1) * (1.0 + delta) * (2.0 + delta))
    assert l2_gap(DeltaFamilySpec(j=j, delta=delta), SPEC) == pytest.approx(exact, rel=1e-13)


def test_gap_monotone_decay():
    gaps = [l2_gap(DeltaFamilySpec(j=0, delta=2.0**-k), SPEC) for k in range(1, 9)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.1 * gaps[0]


def test_gap_small_delta_asymptote():
    delta = 2.0**-8
    gap = l2_gap(DeltaFamilySpec(j=0, delta=delta), SPEC)
    assert gap == pytest.approx(np.pi * delta**2 / np.sqrt(2), rel=2e-2)


def test_w1_energy_finite_vs_raw_divergence():
    finite = w1_energy_u_delta(DeltaFamilySpec(j=0, delta=0.25), SPEC)
    assert np.isfinite(finite) and finite > 0
    raw = [w1_energy_u_raw(0, n) for n in (16, 32, 64)]
    assert raw[1] > raw[0] * 1.05 and raw[2] > raw[1] * 1.05  # log-divergent growth


def test_smoothstep_shape():
    xs = np.linspace(-1, 2, 100_001)
    vals = smoothstep(xs)
    assert np.all(vals >= 0) and np.all(vals <= 1)
    assert smoothstep(0.0) == 0.0 and smoothstep(1.0) == 1.0
    assert smoothstep_deriv(0.0) == 0.0 and smoothstep_deriv(1.0) == 0.0
    d = smoothstep_deriv(xs)
    assert d.max() == pytest.approx(15 / 8, abs=1e-9)
    assert np.all(np.diff(vals) >= 0)


@settings(max_examples=200)
@given(st.floats(0, 1), st.floats(0, 1))
def test_smoothstep_monotone(x, y):
    if x <= y:
        assert smoothstep(x) <= smoothstep(y) + 1e-15


def test_chi_profile():
    delta = 0.2
    inner = PolarPoint(0.05, 0.0, 0.1, 0.0)
    outer = PolarPoint(0.3, 0.0, 0.5, 0.0)
    mid = PolarPoint(0.15, 1.0, 0.25, -1.0)
    assert chi_delta(delta, inner) == 0.0
    assert chi_delta(delta, outer) == 1.0
    assert 0.0 < chi_delta(delta, mid) < 1.0
    # radial: value depends only on |p|
    t = mid.norm()
    other = PolarPoint(t / np.sqrt(2), 2.0, t / np.sqrt(2), 0.5)
    assert chi_delta(delta, other) == pytest.approx(chi_delta(delta, mid), abs=1e-15)


def test_chi_gradient_bound_and_support():
    delta = 0.2
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(2000):
        t = rng.uniform(0.0, 3 * delta)
        a, b = rng.uniform(-np.pi, np.pi, 2)
        frac = rng.uniform(0, 1)
        p = PolarPoint(t * np.sqrt(frac) / np.sqrt(2), a, t * np.sqrt(2 - frac) / np.sqrt(2), b)
        g = np.asarray(dchi_delta(delta, p))
        mag = float(np.linalg.norm(g))
        worst = max(worst, mag * delta)
        if p.norm() <= delta or p.norm() >= 2 * delta:
            assert mag == 0.0
    assert worst <= 15 / 8 + 1e-9


def test_chi_gradient_matches_finite_differences():
    delta = 0.3
    h = 1e-7
    p = PolarPoint(0.25, 0.7, 0.33, -0.2)  # norm in (delta, 2 delta)
    g = np.asarray(dchi_delta(delta, p))
    z, w = p.z, p.w
    chi = lambda zz, ww: chi_delta(delta, PolarPoint.from_cartesian(zz, ww))
    fd = np.array(
        [
            (chi(z + h, w) - chi(z - h, w)) / (2 * h),
            (chi(z + 1j * h, w) - chi(z - 1j * h, w)) / (2 * h),
            (chi(z, w + h) - chi(z, w - h)) / (2 * h),
            (chi(z, w + 1j * h) - chi(z, w - 1j * h)) / (2 * h),
        ]
    )
    assert np.allclose(g, fd, atol=1e-6)


def test_cutoff_cauchy_schwarz_holds():
    for delta in (0.25, 0.1, 0.05, 2.0**-8):
        for f in (ONE, WINV, lambda r, a, s, b: s * np.exp(1j * b) * np.ones_like(r)):
            rep = cutoff_commutator_check(f, delta, SPEC)
            assert isinstance(rep, CutoffReport)
            assert rep.lhs <= rep.rhs + 1e-15


def test_cutoff_smooth_field_quadratic_decay():
    reps = {d: cutoff_commutator_check(ONE, d, SPEC) for d in (0.2, 0.1, 0.05)}
    assert reps[0.1].lhs / reps[0.2].lhs == pytest.approx(0.25, rel=2e-2)
    assert reps[0.05].lhs / reps[0.1].lhs == pytest.approx(0.25, rel=2e-2)
    # closed form: (pi^2 delta^2 / 4) M2, M2 = int_0^1 S'^2 (1+x)^3 dx = 765/154 for the quintic cutoff
    assert reps[0.1].lhs == pytest.approx((np.pi**2 / 4) * 0.1**2 * M2, rel=1e-12)


def test_cutoff_first_factor_constant():
    vals = [cutoff_commutator_check(ONE, 2.0**-k, SPEC).first_factor for k in range(2, 9)]
    assert max(vals) / min(vals) - 1 < 1e-9  # scale-invariant by construction
    assert vals[0] == pytest.approx(np.pi / 4 * np.sqrt(M4), rel=1e-13)


def test_cutoff_borderline_field_constant_lhs():
    vals = [cutoff_commutator_check(WINV, 2.0**-k, SPEC).lhs for k in range(2, 9)]
    assert max(vals) / min(vals) - 1 <= 1e-9
    # 4 pi^2 * (1/4) int_0^1 S'^2 (1+x) dx * int_{pi/4}^{pi/2} cot = 4 pi^2 (15/28) (ln 2)/2
    assert vals[0] == pytest.approx(15 * np.pi**2 * np.log(2) / 14, rel=1e-12)


def test_cutoff_l4_divergence_flag():
    assert not cutoff_commutator_check(ONE, 0.1, SPEC).l4_diverges
    assert cutoff_commutator_check(WINV, 0.1, SPEC).l4_diverges


@pytest.mark.parametrize("k", range(2, 9))
def test_cutoff_probe_spares_bounded_singular_field(k):
    # |f| = |w|^{-1/2}: |f|^4 = 1/|w|^2 is integrable, its log-layer tail is e^{-2Y}
    rep = cutoff_commutator_check(lambda r, a, s, b: s**-0.5 * np.ones_like(r), 2.0**-k, SPEC)
    assert not rep.l4_diverges


@pytest.mark.parametrize("k", range(2, 9))
def test_cutoff_one_field_closed_forms(k):
    # int over B_{2 delta} cap T of 1 = 4 pi^2 (2 delta)^4/4 * int_{pi/4}^{pi/2} sin cos = 4 pi^2 delta^4,
    # and lhs/rhs = (pi^2 delta^2/4) M2 / ((pi/4) sqrt(M4) * 2 pi delta^2) = M2/(2 sqrt(M4))
    delta = 2.0**-k
    rep = cutoff_commutator_check(ONE, delta, SPEC)
    assert rep.second_factor == pytest.approx(2.0 * np.pi * delta**2, rel=1e-13)
    assert M2 / (2.0 * np.sqrt(M4)) == pytest.approx(0.6965759658922468, rel=1e-15)
    assert rep.lhs / rep.rhs == pytest.approx(0.6965759658922468, rel=1e-13)


def test_cutoff_outer_rule_rejects_kinked_field():
    # |f|^2 = |s - 1.5 delta| has a kink inside (delta, 2 delta): the 10- and 20-node outer rules disagree
    delta = 0.1
    kink = lambda r, a, s, b: np.sqrt(np.abs(s - 1.5 * delta)) * np.ones_like(r)
    with pytest.raises(ValueError, match=r"delta=0\.1: lhs is .* at 10 outer t-nodes and .* at 20"):
        cutoff_commutator_check(kink, delta, SPEC)


def test_cutoff_delta_range():
    with pytest.raises(ValueError):
        cutoff_commutator_check(ONE, 0.75, SPEC)  # shell would poke out of T
    with pytest.raises(ValueError):
        cutoff_commutator_check(ONE, 0.0, SPEC)


def test_cutoff_slabs_match_one_slab(monkeypatch):
    spec = QuadratureSpec(level=24, shell_level=24)  # 78 x 16 x 12 x 12 nodes: one slab by default
    whole = {(f, d): cutoff_commutator_check(f, d, spec) for f in (ONE, WINV) for d in (0.3, 2.0**-6)}
    monkeypatch.setattr(quadrature, "_SLAB_NODES", 5 * 16 * 12 * 12)  # t-slabs of 5 rows, ragged last
    for (f, d), ref in whole.items():
        rep = cutoff_commutator_check(f, d, spec)
        assert rep.l4_diverges == ref.l4_diverges
        for name in ("lhs", "rhs", "first_factor", "second_factor"):
            assert getattr(rep, name) == pytest.approx(getattr(ref, name), rel=1e-14, abs=0.0)


def test_cutoff_memory_is_slab_bound():
    # at shell level 192 the 78 t-rows make 78 x 64 x 12 x 12 = 7.2e5 nodes, one slab:
    # traced peak 18.2 MB
    spec = QuadratureSpec(shell_level=192)
    winv = lambda r, a, s, b: v_eval_arrays(0, -1, r, a, s, b)
    tracemalloc.start()
    try:
        cutoff_commutator_check(winv, 2.0**-5, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 26_000_000


def shell_nodes(delta, nth, nang):
    """The cutoff check's node set: t in four blocks (t = delta (1 + x) at 10 and
    20 Gauss nodes, t = delta e^{-y} at 24 Gauss nodes on y in (0, 12) and on
    (12, 24)), their dt-weights, theta and angle nodes."""
    blocks = []
    for n in (10, 20):
        x, wx = _gl_unit(n)
        blocks.append((delta * (1.0 + x), delta * wx))
    u, wu = _gl_unit(24)
    for y in (12.0 * u, 12.0 * (1.0 + u)):
        t = delta * np.exp(-y)
        blocks.append((t, 12.0 * wu * t))
    th, wth = _gl_unit(nth)
    ang, wang = _angular_nodes(nang)
    return blocks, np.pi / 4.0 + th * np.pi / 4.0, wth * np.pi / 4.0, ang, wang


def cutoff_broadcast_reference(f, delta, quad):
    """Reference cutoff check: each block of the shell grid at once, with the
    weight and |dbar chi|^2 broadcast to every (t, theta, a, b) node."""
    nth, nang = max(16, quad.shell_level // 3), 12
    blocks, th, wth, ang, wang = shell_nodes(delta, nth, nang)

    def pieces(t, wt):
        T, TH = t[:, None, None, None], th[None, :, None, None]
        A, B = ang[None, None, :, None], ang[None, None, None, :]
        shape = (t.size, nth, nang, nang)
        W = (wt * t**3)[:, None, None, None] * (wth * np.sin(th) * np.cos(th))[None, :, None, None] * wang * wang
        W = np.broadcast_to(W, shape)
        dchi2 = np.broadcast_to((smoothstep_deriv((T - delta) / delta) / (2.0 * delta)) ** 2, shape)
        f2 = np.abs(np.broadcast_to(np.asarray(f(T * np.cos(TH), A, T * np.sin(TH), B)), shape)) ** 2
        return float(np.sum(dchi2 * f2 * W)), float(np.sum(dchi2**2 * W)), float(np.sum(f2**2 * W))

    (lhs, quart, outer), _, (_, _, inner), (_, _, tail) = [pieces(*b) for b in blocks]
    fquart = outer + inner
    first, second = np.sqrt(quart), np.sqrt(fquart)
    return CutoffReport(delta, lhs, float(first * second), float(first), float(second),
                        bool(tail > 0.01 * max(fquart, 1e-300)))


@pytest.mark.parametrize("shell_level", [24, 96])
def test_cutoff_matches_broadcast_reference(shell_level):
    spec = QuadratureSpec(shell_level=shell_level)
    for f in (ONE, WINV, SKEW):
        for delta in (0.3, 2.0**-6):
            rep = cutoff_commutator_check(f, delta, spec)
            ref = cutoff_broadcast_reference(f, delta, spec)
            assert rep.l4_diverges == ref.l4_diverges
            for name in ("lhs", "rhs", "first_factor", "second_factor"):
                assert getattr(rep, name) == pytest.approx(getattr(ref, name), rel=1e-14, abs=0.0)


# t-row of the NaN in the 78 rows (slabs of 5): the first slab, the 20-node outer block,
# the first log layer, and the ragged last slab in the second log layer
@pytest.mark.parametrize("row", [0, 1, 23, 41, 77])
def test_cutoff_non_finite_names_shell_node(monkeypatch, row):
    spec = QuadratureSpec(shell_level=24)
    monkeypatch.setattr(quadrature, "_SLAB_NODES", 5 * 16 * 12 * 12)
    delta = 0.3
    blocks, th, _, ang, _ = shell_nodes(delta, 16, 12)
    t = np.concatenate([b[0] for b in blocks])
    node = (float(t[row] * np.cos(th[5])), float(ang[7]), float(t[row] * np.sin(th[5])), float(ang[2]))

    def bad(r, a, s, b):
        hit = (r == node[0]) & (a == node[1]) & (s == node[2]) & (b == node[3])
        return np.where(hit, np.nan, SKEW(r, a, s, b))

    with pytest.raises(NonFiniteIntegrandError) as err:
        cutoff_commutator_check(bad, delta, spec)
    assert err.value.node == node
    assert np.isnan(err.value.value)
