"""Tensor quadrature over T and the rejection sampler."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hartogs import quadrature
from hartogs.bergman import project, v_eval_arrays
from hartogs.points import PolarPoint
from hartogs.quadrature import (
    VOL_T,
    NonFiniteIntegrandError,
    QuadratureSpec,
    _angular_nodes,
    _gl_unit,
    _tensor_rule,
    gauss_kronrod,
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


# QUADPACK's 15-point Kronrod rule QK15 (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
# QUADPACK, Springer 1983): its nonnegative nodes from the largest, their Kronrod weights, and the
# weights of the 7-point Gauss rule at every second of them, from 0.949...
QK15_NODES = [0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
              0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
              0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
              0.207784955007898467600689403773245, 0.0]
QK15_WEIGHTS = [0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                0.204432940075298892414161999234649, 0.209482141084727828012999174891714]
QG7_WEIGHTS = [0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
               0.381830050505118944950369775488975, 0.417959183673469387755102040816327]


def test_gauss_kronrod_matches_quadpack_15_point_rule():
    x, w = gauss_kronrod(7)
    assert x.shape == (15,) and w.shape == (2, 15)
    np.testing.assert_allclose(x[7:][::-1], QK15_NODES, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w[0, 7:][::-1], QK15_WEIGHTS, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w[1, 7:][::-1][1::2], QG7_WEIGHTS, rtol=0.0, atol=1e-15)
    assert np.all(w[1, ::2] == 0.0)


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_gauss_kronrod_exact_through_degree_3n_plus_1(monkeypatch, n):
    def no_eigenvectors(*args, **kwargs):
        raise AssertionError("the rule is built without eigenvectors")

    monkeypatch.setattr(np.linalg, "eigh", no_eigenvectors)
    x, w = gauss_kronrod.__wrapped__(n)  # built afresh, past the cache
    gauss, gauss_weights = gauss_legendre(n)
    assert np.array_equal(x[1::2], gauss) and np.array_equal(w[1, 1::2], gauss_weights)  # bitwise
    assert np.all(w[1, ::2] == 0.0) and np.all(w[0] > 0.0)
    assert np.all(np.diff(x) > 0.0) and np.array_equal(x, -x[::-1]) and np.array_equal(w[0], w[0, ::-1])
    # Legendre polynomials integrate to 2 (degree 0) and 0: the Kronrod rule through degree 3n + 1,
    # not at 3n + 2, and the Gauss column through 2n - 1 (leggauss's weights err by up to 1.3e-14
    # at n = 128)
    moments = np.polynomial.legendre.legvander(x, 3 * n + 2).T @ w.T
    exact = np.zeros(3 * n + 3)
    exact[0] = 2.0
    np.testing.assert_allclose(moments[:3 * n + 2, 0], exact[:3 * n + 2], rtol=0.0, atol=1e-14)
    assert abs(moments[3 * n + 2, 0]) > 1e-8
    np.testing.assert_allclose(moments[:2 * n, 1], exact[:2 * n], rtol=0.0, atol=5e-14)


def test_gauss_kronrod_cached_read_only():
    x, w = gauss_kronrod(9)
    again = gauss_kronrod(9)
    assert again[0] is x and again[1] is w
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(ValueError):
        gauss_kronrod(0)


def test_no_kronrod_rule_is_built_at_import():
    code = "import hartogs\nprint(hartogs.quadrature.gauss_kronrod.cache_info().currsize)\n"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


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
    """Reference: f on the whole (x, s, alpha, beta) grid at once, r = x*s,
    float64 where f is real and complex otherwise; NonFiniteIntegrandError
    names the first nan/inf node."""
    X = xs[:, None, None, None]
    S = ss[None, :, None, None]
    A = ang[None, None, :, None]
    B = ang[None, None, None, :]
    vals = np.asarray(f(X * S, A, S, B))
    vals = vals.astype(float if vals.dtype.kind in "biuf" else complex)  # real values stay real
    vals = np.broadcast_to(vals, (xs.size, ss.size, ang.size, ang.size))
    finite = np.isfinite(vals)
    if not finite.all():
        i, j, k, l = np.argwhere(~finite)[0]
        node = (float(xs[i] * ss[j]), float(ang[k]), float(ss[j]), float(ang[l]))
        raise NonFiniteIntegrandError(node, vals[i, j, k, l])
    return vals


@pytest.mark.parametrize("n", [2, 9, 24, 64])
def test_tensor_rule(n):
    t, w = _gl_unit(n)
    rule = _tensor_rule(t, w)
    assert rule.nodes is t
    assert 0.0 < t[0] and t[-1] < 1.0 and np.all(np.diff(t) > 0)
    assert rule.R.shape == rule.S.shape == rule.W.shape == (n, n)
    assert np.all(rule.R < rule.S)  # every node in the triangle r < s
    # Gauss is exact for x and s^3 from n = 2: int x dx = 1/2, int s^3 ds = 1/4
    assert abs(rule.wx.sum() - 0.5) < 1e-15 and abs(rule.ws.sum() - 0.25) < 1e-15
    assert abs(rule.W.sum() - 0.125) < 1e-15
    assert n * rule.wang == pytest.approx(2.0 * np.pi, rel=1e-15)
    assert rule.ang.shape == (n,)


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


def tensor_node(level, i, j, k, l):
    """Node (r, alpha, s, beta) of the level^4 grid at x-row i, s-column j, angles k, l."""
    xs, _ = _gl_unit(level)
    ss, _ = _gl_unit(level)
    ang, _ = _angular_nodes(level)
    return (float(xs[i] * ss[j]), float(ang[k]), float(ss[j]), float(ang[l]))


def spoil(base, values):
    """base with values[node] at each listed grid node (r, alpha, s, beta)."""

    def f(r, a, s, b):
        out = np.asarray(base(r, a, s, b), dtype=complex)
        for (nr, na, ns, nb), v in values.items():
            out = np.where((r == nr) & (a == na) & (s == ns) & (b == nb), v, out)
        return out

    return f


TENSOR_CALLERS = {"integrate_T": integrate_T, "project": lambda f, spec: project(f, 3, 3, spec)}

# level 9 in slabs of 4 x-rows (the last slab is ragged, one row); the expected
# node is the grid's first nan/inf one in (i, j, k, l) order
TENSOR_SPOILS = {
    "imag-nan": ({(5, 2, 3, 6): complex(1.0, np.nan)}, (5, 2, 3, 6)),
    # +inf and -inf in one angular row: the angular sum of f is nan
    "inf-pair": ({(5, 2, 3, 6): np.inf, (5, 2, 1, 7): -np.inf}, (5, 2, 1, 7)),
    "last-slab": ({(8, 4, 7, 0): np.nan}, (8, 4, 7, 0)),
}


@pytest.mark.parametrize("caller", TENSOR_CALLERS)
@pytest.mark.parametrize("case", TENSOR_SPOILS)
def test_reduction_finite_check_names_whole_grid_node(monkeypatch, caller, case):
    level = 9
    monkeypatch.setattr(quadrature, "_SLAB_NODES", 4 * level**3)
    spec = QuadratureSpec(level=level)
    spoilt, first = TENSOR_SPOILS[case]
    base = SLAB_FIELDS[3]
    bad = spoil(base, {tensor_node(level, *idx): v for idx, v in spoilt.items()})
    calls = []

    def counted(r, a, s, b):
        calls.append(r.shape[0])
        return bad(r, a, s, b)

    with pytest.raises(NonFiniteIntegrandError) as slabbed:
        TENSOR_CALLERS[caller](counted, spec)
    assert len(calls) == first[0] // 4 + 1  # no slab after the one holding the first bad node
    with pytest.raises(NonFiniteIntegrandError) as whole:
        integrate_T_whole(bad, spec)
    assert slabbed.value.node == whole.value.node == tensor_node(level, *first)
    np.testing.assert_equal(slabbed.value.value, whole.value.value)
    np.testing.assert_equal(slabbed.value.value, complex(spoilt[first]))


@pytest.mark.parametrize("big", [1e200, 1e308])
def test_integrate_T_overflow_is_not_an_error(monkeypatch, big):
    # finite nodes: 1e200 sums to a finite value, 1e308 overflows the angular sums
    # of the rows with x > 0.8 (the last two of nine, one per slab) to inf
    monkeypatch.setattr(quadrature, "_SLAB_NODES", 4 * 9**3)
    spec = QuadratureSpec(level=9)
    f = lambda r, a, s, b: np.where(r > 0.8 * s, big, 1.0) * np.exp(1j * (a - b))
    value = integrate_T(f, spec)
    np.testing.assert_equal(value, integrate_T_whole(f, spec))  # bitwise, nan where the reference has nan
    assert np.isfinite(value) == (big == 1e200)


# f's values as the reductions receive them: real kinds as float64, the rest as complex128
SLAB_DTYPES = {
    "float64": (lambda r, a, s, b: r * s + np.cos(a - b), np.float64),
    "float32": (lambda r, a, s, b: (r * s + np.cos(a - b)).astype(np.float32), np.float64),
    "int": (lambda r, a, s, b: np.floor(8 * r / s).astype(np.int64), np.float64),
    "bool": (lambda r, a, s, b: r < s * np.cos(a - b), np.float64),
    "complex128": (lambda r, a, s, b: r * np.exp(1j * a) + s, np.complex128),
    "complex64": (lambda r, a, s, b: (r * np.exp(1j * a) + s).astype(np.complex64), np.complex128),
}


@pytest.mark.parametrize("caller", TENSOR_CALLERS)
@pytest.mark.parametrize("case", SLAB_DTYPES)
def test_slab_dtype_follows_f(slab_dtypes, caller, case):
    f, dtype = SLAB_DTYPES[case]
    value = TENSOR_CALLERS[caller](f, QuadratureSpec(level=5))
    assert slab_dtypes == [dtype]  # one slab at level 5
    if caller == "integrate_T":
        assert type(value) is complex


def test_integer_valued_f_integrates_as_its_float_version(monkeypatch, slab_dtypes):
    monkeypatch.setattr(quadrature, "_SLAB_NODES", 2 * 7**3)
    spec = QuadratureSpec(level=7)
    counts = lambda r, a, s, b: np.floor(16 * r / s) * np.round(4 * np.cos(a - 2 * b)) + 3
    as_int = lambda r, a, s, b: counts(r, a, s, b).astype(np.int64)
    value = integrate_T(as_int, spec)
    assert slab_dtypes == [np.float64] * 4  # rows 2, 2, 2, 1: summed as reals
    assert value == integrate_T(counts, spec) == integrate_T_whole(counts, spec)  # bitwise


def test_abs2_sums_match_abs_squared():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(3, 4, 64, 64)) + 1j * rng.normal(size=(3, 4, 64, 64))
    slabs = {
        "contiguous": z,
        "broadcast": np.broadcast_to(z[:1, :, :, :1], z.shape),
        "transposed": z.transpose(0, 1, 3, 2),
        "real": z.real.copy(),
        "real broadcast": np.broadcast_to(z.real[:, :1, :1, :], z.shape),
    }
    for name, vals in slabs.items():
        want = (np.abs(vals) ** 2).sum(axis=(2, 3))
        got = quadrature._abs2_sums(vals)
        assert got.dtype == np.float64 and got.shape == want.shape, name
        assert np.max(np.abs(got - want) / want) <= 1e-13, name


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("value", [1e200, -1e200, 1e200j, 1e-200 + 1e200j, complex(1e200, 1e200)])
def test_abs2_sums_overflow_to_inf(value):
    vals = np.full((1, 2, 3, 3), value)
    vals[0, 0] = 1.0
    np.testing.assert_equal(quadrature._abs2_sums(vals), [[9.0, np.inf]])


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("f", [lambda r, a, s, b: 1e200 * (r + s), lambda r, a, s, b: (1e-200 + 1e200j) * (r + s)])
def test_project_norm_overflow_with_real_or_imaginary_values(monkeypatch, f):
    # |f|^2 overflows in the float64 parts: f_norm_sq is inf, the coefficients are finite
    monkeypatch.setattr(quadrature, "_SLAB_NODES", 4 * 9**3)
    co = project(f, 3, 3, QuadratureSpec(level=9))
    assert co.f_norm_sq == np.inf
    assert all(np.isfinite(a) for a in co.entries.values())
    assert abs(co.get(0, 0)) > 1e199


@pytest.mark.parametrize("caller", TENSOR_CALLERS)
def test_real_field_nan_node_is_named(monkeypatch, caller):
    level = 9
    monkeypatch.setattr(quadrature, "_SLAB_NODES", 4 * level**3)
    node = tensor_node(level, 6, 2, 3, 5)

    def bad(r, a, s, b):
        hit = (r == node[0]) & (a == node[1]) & (s == node[2]) & (b == node[3])
        return np.where(hit, np.nan, r * s + np.cos(a))

    with pytest.raises(NonFiniteIntegrandError) as slabbed:
        TENSOR_CALLERS[caller](bad, QuadratureSpec(level=level))
    assert slabbed.value.node == node
    assert np.isnan(slabbed.value.value)


def test_integrate_T_memory_is_slab_bound():
    # the whole level-64 grid is 268 MB complex; one slab is one x-row, 4.2 MB; traced peak 6.4 MB
    f = lambda r, a, s, b: np.abs(v_eval_arrays(3, 5, r, a, s, b)) ** 2
    tracemalloc.start()
    try:
        integrate_T(f, QuadratureSpec(level=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


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
