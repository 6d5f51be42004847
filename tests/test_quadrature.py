"""Tensor quadrature over T and the rejection sampler."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hartogs import quadrature
from hartogs.bergman import v_eval_arrays
from hartogs.points import PolarPoint
from hartogs.quadrature import (
    VOL_T,
    NonFiniteIntegrandError,
    QuadratureSpec,
    _angular_nodes,
    _gl_unit,
    gauss_legendre,
    integrate_T,
    sample_T,
    sample_T_arrays,
)


def test_gauss_legendre_basics():
    x1, w1 = gauss_legendre(1)
    assert x1 == pytest.approx([0.0]) and w1 == pytest.approx([2.0])
    x2, w2 = gauss_legendre(2)
    assert x2 == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)])
    assert w2 == pytest.approx([1.0, 1.0])
    # degree-3 exactness of the 2-point rule
    assert float(w2 @ x2**2) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_gauss_legendre_properties():
    x, w = gauss_legendre(17)
    assert np.all(np.diff(x) > 0)
    assert np.allclose(x, -x[::-1])
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(2.0, abs=1e-14)


def test_gauss_legendre_cached_read_only():
    x, w = gauss_legendre(9)
    again = gauss_legendre(9)
    assert again[0] is x and again[1] is w
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert gauss_legendre(10)[0] is not x


def test_gauss_legendre_invalid():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(level=0)
    with pytest.raises(ValueError):
        QuadratureSpec(surface_cells=2)
    with pytest.raises(ValueError, match="surface_cells must be >= 64"):
        QuadratureSpec(surface_cells=63)  # no room for one doubling from 32 nodes per piece
    assert QuadratureSpec(surface_cells=64).surface_cells == 64


def test_volume(spec24):
    val = integrate_T(lambda r, a, s, b: np.ones(np.broadcast(r, s).shape), spec24)
    assert isinstance(val, complex)
    assert val.real == pytest.approx(VOL_T, abs=1e-12)
    assert abs(val.imag) <= 1e-14


def test_w_inverse_square(spec24):
    val = integrate_T(lambda r, a, s, b: 1.0 / s**2, spec24)
    assert val.real == pytest.approx(np.pi**2, abs=1e-12)


def test_closed_form_moments(spec24):
    # int |z|^2 dV = pi^2/6 and int |w|^2 dV = pi^2/3 by polar integration
    z2 = integrate_T(lambda r, a, s, b: (r * np.ones_like(s)) ** 2, spec24)
    w2 = integrate_T(lambda r, a, s, b: (s * np.ones_like(r)) ** 2, spec24)
    assert z2.real == pytest.approx(np.pi**2 / 6, abs=1e-12)
    assert w2.real == pytest.approx(np.pi**2 / 3, abs=1e-12)


def test_angular_modes_vanish(spec24):
    v01 = integrate_T(lambda r, a, s, b: s * np.exp(1j * b), spec24)
    rez = integrate_T(lambda r, a, s, b: r * np.cos(a) * np.ones_like(s), spec24)
    assert abs(v01) <= 1e-13
    assert abs(rez) <= 1e-13


def test_refinement_battery():
    battery = [
        lambda r, a, s, b: np.ones(np.broadcast(r, s).shape),
        lambda r, a, s, b: 1.0 / s**2,
        lambda r, a, s, b: r * np.cos(a) * np.ones_like(s),
        lambda r, a, s, b: (r * np.ones_like(s)) ** 2,
    ]
    for f in battery:
        lo = integrate_T(f, QuadratureSpec(level=16))
        hi = integrate_T(f, QuadratureSpec(level=32))
        assert abs(lo - hi) <= 1e-12


def test_determinism(spec24):
    f = lambda r, a, s, b: np.exp(-(r**2)) * np.ones_like(s) / (1 + s)
    v1 = integrate_T(f, spec24)
    v2 = integrate_T(f, spec24)
    assert v1 == v2  # bit identical


def test_non_finite_integrand(spec24):
    def bad(r, a, s, b):
        vals = np.ones(np.broadcast(r, s).shape) * np.ones_like(a) * np.ones_like(b)
        return np.where(s > 0.5, np.inf, vals)

    with pytest.raises(NonFiniteIntegrandError):
        integrate_T(bad, spec24)


def tensor_values_whole(f, xs, ss, ang):
    """Reference: f on the whole (x, s, alpha, beta) grid at once, r = x*s;
    NonFiniteIntegrandError names the first nan/inf node."""
    X = xs[:, None, None, None]
    S = ss[None, :, None, None]
    A = ang[None, None, :, None]
    B = ang[None, None, None, :]
    vals = np.asarray(f(X * S, A, S, B), dtype=complex)
    vals = np.broadcast_to(vals, (xs.size, ss.size, ang.size, ang.size))
    finite = np.isfinite(vals)
    if not finite.all():
        i, j, k, l = np.argwhere(~finite)[0]
        node = (float(xs[i] * ss[j]), float(ang[k]), float(ss[j]), float(ang[l]))
        raise NonFiniteIntegrandError(node, vals[i, j, k, l])
    return vals


def integrate_T_whole(f, spec):
    """Reference integrate_T: one whole-grid evaluation, angular sums, radial weights."""
    n = spec.level
    xs, wxs = _gl_unit(n)
    ss, wss = _gl_unit(n)
    ang, wang = _angular_nodes(n)
    vals = tensor_values_whole(f, xs, ss, ang)
    w_rad = (wxs * xs)[:, None] * (wss * ss**3)[None, :]
    return complex(np.sum(np.einsum("ijkl->ij", vals) * w_rad) * wang * wang)


SLAB_FIELDS = [
    lambda r, a, s, b: np.ones(np.broadcast(r, s).shape),
    lambda r, a, s, b: 1.0 / s**2,
    lambda r, a, s, b: np.exp(-(r**2)) * np.cos(3 * a) / (1 + s) + 1j * r * s * np.sin(b - a),
    lambda r, a, s, b: 1.0 / (s * np.exp(1j * b) - 2.0) + r * np.exp(-1j * a),
    lambda r, a, s, b: np.abs(v_eval_arrays(2, 3, r, a, s, b)) ** 2,
]


# (level, rows per slab): several slabs with a ragged last one, and one row per slab
@pytest.mark.parametrize("level, rows", [(7, 2), (9, 4), (9, 1)])
def test_integrate_T_slabs_match_whole_grid(monkeypatch, level, rows):
    monkeypatch.setattr(quadrature, "_SLAB_NODES", rows * level**3)
    spec = QuadratureSpec(level=level)
    for f in SLAB_FIELDS:
        calls = []

        def counted(r, a, s, b):
            calls.append(np.broadcast(r, a, s, b).shape[0])
            return f(r, a, s, b)

        assert integrate_T(counted, spec) == integrate_T_whole(f, spec)  # bitwise
        assert calls == [min(rows, level - lo) for lo in range(0, level, rows)]


@pytest.mark.parametrize("level, rows", [(7, 2), (9, 4)])
def test_non_finite_in_last_slab_names_node(monkeypatch, level, rows):
    monkeypatch.setattr(quadrature, "_SLAB_NODES", rows * level**3)
    spec = QuadratureSpec(level=level)
    xs, _ = _gl_unit(level)
    ss, _ = _gl_unit(level)
    ang, _ = _angular_nodes(level)
    node = (float(xs[-1] * ss[2]), float(ang[3]), float(ss[2]), float(ang[level - 2]))

    def bad(r, a, s, b):
        hit = (r == node[0]) & (a == node[1]) & (s == node[2]) & (b == node[3])
        return np.where(hit, np.nan, 1.0)

    with pytest.raises(NonFiniteIntegrandError) as slabbed:
        integrate_T(bad, spec)
    with pytest.raises(NonFiniteIntegrandError) as whole:
        integrate_T_whole(bad, spec)
    assert slabbed.value.node == whole.value.node == node
    assert np.isnan(slabbed.value.value)


def test_integrate_T_memory_is_slab_bound():
    # the whole level-64 grid is 268 MB complex; one slab is 16 MB
    f = lambda r, a, s, b: np.abs(v_eval_arrays(3, 5, r, a, s, b)) ** 2
    tracemalloc.start()
    try:
        integrate_T(f, QuadratureSpec(level=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000_000


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 4))
def test_pure_angular_mode_integrates_to_zero(pa, pb, mode):
    # structural orthogonality: any nonzero angular frequency integrates to 0
    spec = QuadratureSpec(level=8)
    val = integrate_T(lambda r, a, s, b: r**pa * s**pb * np.exp(1j * mode * a), spec)
    assert abs(val) <= 1e-13


def test_sampler_membership_and_determinism():
    r, a, s, b = sample_T_arrays(50_000, seed=7)
    assert np.all(r < s) and np.all(s < 1.0) and np.all(r >= 0)
    assert np.all(a > -np.pi) and np.all(a <= np.pi)
    r2, a2, s2, b2 = sample_T_arrays(50_000, seed=7)
    assert np.array_equal(r, r2) and np.array_equal(b, b2)
    r3 = sample_T_arrays(50_000, seed=8)[0]
    assert not np.array_equal(r, r3)


def test_sampler_marginals():
    # s-marginal CDF is s^4; second moment of s is 2/3
    _, _, s, _ = sample_T_arrays(1_000_000, seed=7)
    assert (s**2).mean() == pytest.approx(2.0 / 3.0, abs=0.005)
    sorted_s = np.sort(s)
    grid = (np.arange(s.size) + 0.5) / s.size
    ks = np.abs(sorted_s**4 - grid).max()
    assert ks < 0.002


def test_sample_T_objects():
    pts = sample_T(5, seed=0)
    assert len(pts) == 5
    assert all(isinstance(p, PolarPoint) and p.in_T() for p in pts)
    assert sample_T(0, seed=0) == []
    with pytest.raises(ValueError):
        sample_T(-1, seed=0)
