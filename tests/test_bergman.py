"""Orthogonal Laurent basis, Gram matrix, projection, truncated kernel."""

import tracemalloc

import numpy as np
import pytest

from hartogs import quadrature
from hartogs.bergman import (
    LaurentCoefficients,
    LaurentIndex,
    _inverse_norms,
    basis_gram,
    block_indices,
    inner_product,
    kernel_truncated,
    project,
    reconstruct,
    reconstruct_field,
    v_eval,
    v_eval_arrays,
    v_field,
    v_norm_sq,
)
from hartogs.points import PolarPoint
from hartogs.quadrature import QuadratureSpec, _angular_nodes, _gl_unit, sample_T

SPEC = QuadratureSpec(level=24)


def test_index_validation():
    with pytest.raises(ValueError):
        LaurentIndex(-1, 0)
    with pytest.raises(ValueError):
        LaurentIndex(0, -2)
    idx = LaurentIndex(2, 3)
    assert idx.modes == (2, 1)


def test_block_indices_size():
    idxs = block_indices(3, 4)
    assert len(idxs) == 4 * 6  # j in 0..3, k in -1..4
    assert LaurentIndex(0, -1) in idxs and LaurentIndex(3, 4) in idxs


def test_v_eval_examples():
    p = PolarPoint(0.3, 0.8, 0.7, -0.4)
    assert v_eval(LaurentIndex(0, 0), p) == pytest.approx(1.0)
    assert v_eval(LaurentIndex(1, 1), p) == pytest.approx(p.z, abs=1e-15)
    q = PolarPoint.from_cartesian(0.0, 0.5)
    assert v_eval(LaurentIndex(0, -1), q) == pytest.approx(2.0)


def test_v_eval_rejects_zero_w():
    with pytest.raises(ValueError):
        v_eval_arrays(0, -1, np.array([0.0]), np.array([0.0]), np.array([0.0]), np.array([0.0]))


def test_norm_closed_forms():
    assert v_norm_sq(LaurentIndex(0, -1)) == pytest.approx(np.pi**2)
    assert v_norm_sq(LaurentIndex(0, 0)) == pytest.approx(np.pi**2 / 2)
    assert v_norm_sq(LaurentIndex(1, 1)) == pytest.approx(np.pi**2 / 6)


def test_norms_match_quadrature():
    for idx in (LaurentIndex(0, -1), LaurentIndex(0, 0), LaurentIndex(1, 1), LaurentIndex(3, 5)):
        quad = inner_product(v_field(idx), v_field(idx), SPEC)
        assert quad.real == pytest.approx(v_norm_sq(idx), rel=1e-10)
        assert abs(quad.imag) <= 1e-12


def test_inner_product_conjugate_symmetry():
    f = v_field(LaurentIndex(1, 2))
    g = lambda r, a, s, b: (r * np.exp(1j * a)) ** 2 + 0.5 / (s * np.exp(1j * b))
    fg = inner_product(f, g, SPEC)
    gf = inner_product(g, f, SPEC)
    assert fg == pytest.approx(np.conj(gf), abs=1e-12)


def test_gram_orthogonality_and_match_generic_quadrature():
    idxs, G = basis_gram(5, 5, SPEC)
    norms = np.sqrt(np.real(np.diag(G)))
    off = np.abs(G) / np.outer(norms, norms)
    np.fill_diagonal(off, 0.0)
    assert off.max() <= 1e-12

    # factorized Gram equals the generic pairing on random index pairs
    rng = np.random.default_rng(8)
    for _ in range(8):
        ia, ib = rng.integers(0, len(idxs), 2)
        generic = inner_product(v_field(idxs[ia]), v_field(idxs[ib]), SPEC)
        assert abs(G[ia, ib] - generic) <= 1e-12 * max(1.0, abs(generic))


def gram_pair_loop(jmax, kmax, spec):
    """Reference Gram: one angular and one radial sum per index pair."""
    idxs = block_indices(jmax, kmax)
    n = spec.level
    xs, wxs = _gl_unit(n)
    ss, wss = _gl_unit(n)
    ang, wang = _angular_nodes(n)
    W = (wxs * xs)[:, None] * (wss * ss**3)[None, :]

    def ang_sum(nu):
        return complex(np.sum(np.exp(1j * nu * ang)) * wang)

    G = np.zeros((len(idxs), len(idxs)), dtype=complex)
    for a, ia in enumerate(idxs):
        for b, ib in enumerate(idxs[: a + 1]):
            la, ma = ia.modes
            lb, mb = ib.modes
            ang_part = ang_sum(la - lb) * ang_sum(ma - mb)
            val = 0.0
            if ang_part != 0.0:
                val = ang_part * np.sum(xs[:, None] ** (ia.j + ib.j) * ss[None, :] ** (ia.k + ib.k) * W)
            G[a, b] = val
            G[b, a] = np.conj(val)
    return idxs, G


@pytest.mark.parametrize("jmax, kmax, level", [(8, 8, 24), (3, 0, 7), (0, -1, 4), (8, 8, 8)])
def test_gram_matches_pair_loop(jmax, kmax, level):
    spec = QuadratureSpec(level=level)
    idxs, G = basis_gram(jmax, kmax, spec)
    ref_idxs, ref = gram_pair_loop(jmax, kmax, spec)
    assert idxs == ref_idxs
    assert np.abs(G - ref).max() <= 1e-15 * np.abs(ref).max()
    assert np.array_equal(G, G.conj().T)


def project_whole_grid(f, jmax, kmax, spec):
    """Reference project: the whole level^4 grid at once and one einsum;
    returns (entries, f_norm_sq)."""
    idxs = block_indices(jmax, kmax)
    n = spec.level
    xs, wxs = _gl_unit(n)
    ss, wss = _gl_unit(n)
    ang, wang = _angular_nodes(n)
    X, S = xs[:, None, None, None], ss[None, :, None, None]
    A, B = ang[None, None, :, None], ang[None, None, None, :]
    vals = np.broadcast_to(np.asarray(f(X * S, A, S, B), dtype=complex), (n, n, n, n))
    W = (wxs * xs)[:, None] * (wss * ss**3)[None, :]
    norm_sq = float(np.sum((np.abs(vals) ** 2).sum(axis=(2, 3)) * W) * wang * wang)
    ls = sorted({idx.modes[0] for idx in idxs})
    ms = sorted({idx.modes[1] for idx in idxs})
    El = np.exp(-1j * np.outer(ls, ang)) * wang
    Em = np.exp(-1j * np.outer(ms, ang)) * wang
    F = np.einsum("xsab,la,mb->lmxs", vals, El, Em, optimize=True)
    entries = {}
    for idx in idxs:
        l, m = idx.modes
        rad = xs[:, None] ** idx.j * ss[None, :] ** idx.k * W
        entries[(idx.j, idx.k)] = complex(np.sum(F[ls.index(l), ms.index(m)] * rad)) / v_norm_sq(idx)
    return entries, norm_sq


# (level, rows per slab): several slabs with a ragged last one, and one row per slab
@pytest.mark.parametrize("level, rows", [(7, 2), (9, 4), (9, 1)])
def test_project_slabs_match_whole_grid(monkeypatch, level, rows):
    monkeypatch.setattr(quadrature, "_SLAB_NODES", rows * level**3)
    spec = QuadratureSpec(level=level)
    fields = [
        v_field(LaurentIndex(2, 3)),
        lambda r, a, s, b: 1.0 / (s * np.exp(1j * b) - 2.0) + r * np.exp(-1j * a),
        lambda r, a, s, b: np.exp(-(r**2)) * np.cos(3 * a) / (1 + s) + 1j * r * s * np.sin(b - a),
    ]
    for f in fields:
        co = project(f, 3, 3, spec)
        ref, ref_norm_sq = project_whole_grid(f, 3, 3, spec)
        assert co.f_norm_sq == ref_norm_sq  # bitwise
        assert co.entries.keys() == ref.keys()
        scale = max(abs(v) for v in ref.values())
        assert scale > 0.1
        assert max(abs(co.entries[key] - ref[key]) for key in ref) <= 1e-15 * scale


def test_project_memory_is_slab_bound():
    # the whole level-64 grid is 268 MB complex; one slab is 16 MB
    tracemalloc.start()
    try:
        project(v_field(LaurentIndex(2, 3)), 8, 8, QuadratureSpec(level=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000_000


def test_projection_identity_on_basis():
    co = project(v_field(LaurentIndex(2, 3)), 5, 5, SPEC)
    assert co.get(2, 3) == pytest.approx(1.0, abs=1e-10)
    for (j, k), a in co.entries.items():
        if (j, k) != (2, 3):
            assert abs(a) <= 1e-10


def test_projection_annihilates_antiholomorphic():
    co = project(lambda r, a, s, b: r * np.exp(-1j * a) * np.ones_like(s), 5, 5, SPEC)
    assert max(abs(a) for a in co.entries.values()) <= 1e-10


def test_projection_linearity():
    f = lambda r, a, s, b: (
        3.0 * v_eval_arrays(0, -1, r, a, s, b) + 2j * v_eval_arrays(1, 0, r, a, s, b)
    )
    co = project(f, 4, 4, SPEC)
    assert co.get(0, -1) == pytest.approx(3.0, abs=1e-8)
    assert co.get(1, 0) == pytest.approx(2j, abs=1e-8)


def test_projection_idempotent():
    entries = {(0, -1): 1.5 + 0.5j, (2, 2): -0.75j, (1, 3): 0.25}
    co = LaurentCoefficients(entries=entries, jmax=4, kmax=4)
    back = project(reconstruct_field(co), 4, 4, SPEC)
    for key, a in entries.items():
        assert back.get(*key) == pytest.approx(a, abs=1e-10)


def test_reconstruct_pointwise():
    co = project(v_field(LaurentIndex(1, 1)), 4, 4, SPEC)
    for p in sample_T(100, seed=3):
        assert reconstruct(co, p) == pytest.approx(p.z, abs=1e-8)
    empty = LaurentCoefficients(entries={}, jmax=2, kmax=2)
    assert reconstruct(empty, PolarPoint(0.1, 0, 0.5, 0)) == 0


def test_partial_sums_converge_for_rational_function():
    # f = 1/(w-2) = -sum_k w^k / 2^{k+1}: only j=0 modes, geometric decay
    f = lambda r, a, s, b: 1.0 / (s * np.exp(1j * b) - 2.0)
    fine = QuadratureSpec(level=48)  # resolve the slow angular tail of 1/(w-2)
    prev = None
    for kmax in (4, 8, 16):
        co = project(f, 2, kmax, fine)
        resid = co.bessel_residual()
        for k in range(0, kmax + 1):
            assert co.get(0, k) == pytest.approx(-(0.5 ** (k + 1)), abs=1e-10)
        assert co.get(1, 2) == pytest.approx(0.0, abs=1e-10)
        if prev is not None:
            assert resid < prev
        prev = resid
    # residual matches the analytic tail sum_{k > kmax} |a_k|^2 pi^2/(k+2)
    tail = sum(0.25 ** (k + 1) * np.pi**2 / (k + 2) for k in range(17, 400))
    assert prev == pytest.approx(tail, rel=1e-6)


def test_bessel_inequality():
    f = lambda r, a, s, b: 1.0 / (s * np.exp(1j * b) - 2.0) + r * np.exp(-1j * a)
    co = project(f, 3, 6, SPEC)
    assert co.bessel_residual() >= -1e-10
    assert co.weighted_energy() <= co.f_norm_sq + 1e-10


def test_kernel_two_term_example():
    p = PolarPoint(0.25, 1.2, 0.65, -0.3)
    val = kernel_truncated(p, p, 0, 0)
    assert val.real == pytest.approx(1.0 / (np.pi**2 * p.s**2) + 2.0 / np.pi**2, rel=1e-12)
    assert abs(val.imag) <= 1e-15


def kernel_index_loop(p, q, jmax, kmax):
    """Reference kernel: one term v_jk(p) conj(v_jk(q)) / ||v_jk||^2 per index."""
    total = 0j
    for idx in block_indices(jmax, kmax):
        total += v_eval(idx, p) * np.conj(v_eval(idx, q)) / v_norm_sq(idx)
    return total


@pytest.mark.parametrize("jmax, kmax", [(0, -1), (3, 0), (8, 8), (32, 32), (5, 40)])
def test_inverse_norm_table_is_the_per_index_division(jmax, kmax):
    per_index = np.array([1.0 / v_norm_sq(idx) for idx in block_indices(jmax, kmax)]).reshape(jmax + 1, kmax + 2)
    table = _inverse_norms(jmax, kmax)
    assert table.shape == per_index.shape and np.array_equal(table, per_index)  # bitwise, not approximate


def test_inverse_norm_table_validates_the_block():
    for jmax, kmax in ((-1, 0), (0, -2)):
        with pytest.raises(ValueError, match="need jmax >= 0 and kmax >= -1"):
            _inverse_norms(jmax, kmax)


@pytest.mark.parametrize("jmax, kmax", [(0, -1), (8, 8), (32, 32)])
def test_kernel_matches_index_loop(jmax, kmax):
    rng = np.random.default_rng(jmax + 11)
    for _ in range(40):
        p, q = (PolarPoint(float(r), float(rng.uniform(-np.pi, np.pi)), float(rng.uniform(r + 0.05, 1.0)),
                           float(rng.uniform(-np.pi, np.pi))) for r in rng.uniform(0.0, 0.9, 2))
        ref = kernel_index_loop(p, q, jmax, kmax)
        val = kernel_truncated(p, q, jmax, kmax)
        assert abs(val - ref) <= 1e-11 * abs(ref)
        assert val == np.conj(kernel_truncated(q, p, jmax, kmax))


def test_kernel_rejects_zero_w():
    p = PolarPoint(0.2, 0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        kernel_truncated(p, PolarPoint(0.0, 0.0, 0.0, 0.0), 2, 2)
    with pytest.raises(ValueError):
        kernel_truncated(PolarPoint(0.0, 0.0, 0.0, 0.0), p, 2, 2)


def test_kernel_hermitian_and_monotone():
    rng = np.random.default_rng(2)
    pts = sample_T(40, seed=2)
    for i in range(0, 40, 2):
        p, q = pts[i], pts[i + 1]
        assert kernel_truncated(p, q, 6, 6) == pytest.approx(
            np.conj(kernel_truncated(q, p, 6, 6)), abs=1e-12
        )
    p = pts[0]
    diag = [kernel_truncated(p, p, m, m).real for m in (2, 4, 8)]
    assert diag[0] > 0
    assert diag[0] <= diag[1] <= diag[2]


def test_kernel_reproduces_basis():
    q = PolarPoint(0.35, 0.9, 0.75, -1.1)
    jmax = kmax = 4

    def K_field(r, a, s, b):
        total = np.zeros(np.broadcast(r, a, s, b).shape, dtype=complex)
        for idx in block_indices(jmax, kmax):
            total += (
                v_eval_arrays(idx.j, idx.k, r, a, s, b)
                * np.conj(v_eval(idx, q))
                / v_norm_sq(idx)
            )
        return total

    for idx in (LaurentIndex(0, -1), LaurentIndex(1, 1), LaurentIndex(3, 2)):
        val = inner_product(K_field, v_field(idx), SPEC)
        assert val == pytest.approx(np.conj(v_eval(idx, q)), abs=1e-5)


def test_basis_satisfies_cauchy_riemann():
    # centered finite differences of the conjugate Wirtinger derivatives
    h = 1e-6
    for idx in (LaurentIndex(0, -1), LaurentIndex(2, 1), LaurentIndex(1, 3)):
        for p in sample_T(20, seed=6):
            z, w = p.z, p.w
            f = lambda zz, ww: v_eval(idx, PolarPoint.from_cartesian(zz, ww))
            dbar_z = (f(z + h, w) - f(z - h, w)) / (2 * h) / 2 + 1j * (
                f(z + 1j * h, w) - f(z - 1j * h, w)
            ) / (2 * h) / 2
            dbar_w = (f(z, w + h) - f(z, w - h)) / (2 * h) / 2 + 1j * (
                f(z, w + 1j * h) - f(z, w - 1j * h)
            ) / (2 * h) / 2
            scale = max(1.0, abs(f(z, w)))
            assert abs(dbar_z) <= 1e-6 * scale
            assert abs(dbar_w) <= 1e-6 * scale


def test_project_rejects_non_finite():
    bad = lambda r, a, s, b: np.where(s > 0.5, np.nan, 1.0) * np.ones_like(r) * np.ones_like(a) * np.ones_like(b)
    with pytest.raises(ValueError):
        project(bad, 2, 2, SPEC)


def test_coefficients_validate_block():
    with pytest.raises(ValueError):
        LaurentCoefficients(entries={(5, 1): 1.0}, jmax=3, kmax=3)
