"""Per-mode Neumann eigenvalue problems, Poincare constant, discrete solver."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from hartogs import bergman, spectral
from hartogs.checks import poincare_field_check
from hartogs.quadrature import VOL_T, QuadratureSpec, integrate_T
from hartogs.spectral import (
    EigenSolverError,
    _lowest_eigenvalues,
    build_mode,
    neumann_spectrum,
    poincare_constant,
    solve_neumann,
)


def test_build_mode_validation():
    with pytest.raises(ValueError):
        build_mode(0, 0, 4)


def stiffness_matrix(K) -> sp.csr_matrix:
    """The stiffness form as a scipy matrix, assembled from its edges and potential."""
    size = K.potential.size
    rows = np.concatenate([K.heads, K.tails, K.heads, K.tails, np.arange(size)])
    cols = np.concatenate([K.heads, K.tails, K.tails, K.heads, np.arange(size)])
    vals = np.concatenate([K.weights, K.weights, -K.weights, -K.weights, K.potential])
    return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(size, size)))


def max_asymmetry(K) -> float:
    asym = sp.csr_matrix(K - K.T)
    return float(abs(asym).max()) if asym.nnz else 0.0


def test_forms_are_symmetric_and_sized():
    prob = build_mode(1, 2, 32)
    assert prob.size == 32 * 31 // 2
    K = stiffness_matrix(prob.stiffness)
    assert max_asymmetry(K) <= 1e-12
    assert np.all(prob.mass.diagonal() > 0)
    # the measure itself must see a small asymmetry
    perturbed = K.tolil()
    perturbed[3, 4] += 1e-3
    assert max_asymmetry(perturbed) > 1e-12


def test_forms_apply_as_their_matrices():
    # each edge joins two active neighbours, and the form's product and diagonal
    # are those of its assembled matrix
    prob = build_mode(2, 1, 24)
    K = prob.stiffness
    assert np.all(K.heads != K.tails) and np.all((0 <= K.tails) & (K.tails < prob.size))
    # all cells but the 23 with j = i + 1 have a neighbour (i+1, j), all but the 23 with j = 23 one at (i, j+1)
    assert K.weights.size == 2 * (prob.size - 23)
    u = np.random.default_rng(3).normal(size=prob.size)
    ref = stiffness_matrix(K)
    assert np.allclose(K @ u, ref @ u, rtol=0.0, atol=1e-13 * np.abs(ref @ u).max())
    assert np.allclose(K.diagonal(), ref.diagonal(), rtol=1e-15, atol=0.0)
    assert np.array_equal(prob.mass @ u, prob.mass.diagonal() * u)


def test_modes_at_one_grid_share_its_read_only_edges():
    a, b = build_mode(0, 0, 20), build_mode(2, 1, 20)
    assert a.stiffness.heads is b.stiffness.heads
    assert a.stiffness.tails is b.stiffness.tails
    for edges in (a.stiffness.heads, a.stiffness.tails):
        with pytest.raises(ValueError):
            edges[0] = 1


def test_factors_at_one_grid_share_their_layout():
    factors = []
    for l, m in ((0, 0), (1, 0)):
        prob = build_mode(l, m, 20)
        K = prob.stiffness
        factors.append(spectral._Factor(prob, K.diagonal() + 1.0, -K.weights))
    for name in ("odd", "even", "nbr", "bounds"):
        assert getattr(factors[0], name) is getattr(factors[1], name)


def test_results_do_not_depend_on_the_grid_cache():
    def run():
        f = lambda r, s: np.cos(np.pi * s) + r * r  # noqa: E731
        return (neumann_spectrum(0, 1, 17, 3), neumann_spectrum(0, 0, 17, 3),
                solve_neumann(f, 0, 0, 17), solve_neumann(f, 1, 1, 34))

    spectral._grid.cache_clear()
    cold = run()
    build_mode(2, 1, 17), build_mode(2, 1, 34)  # layouts now built by another mode
    warm = run()
    assert cold[:2] == warm[:2]
    assert all(np.array_equal(u, v) for u, v in zip(cold[2:], warm[2:]))


def test_constants_are_harmonic_in_zero_mode():
    prob = build_mode(0, 0, 48)
    ones = np.ones(prob.size)
    assert float(ones @ (prob.stiffness @ ones)) <= 1e-10
    assert np.abs(prob.stiffness @ ones).max() <= 1e-10


def test_mass_approximates_volume():
    vols = []
    for n in (32, 64, 128):
        prob = build_mode(0, 0, n)
        total = float(prob.mass.diagonal().sum())
        assert abs(total - VOL_T) <= 12.0 / n  # staircase boundary, O(1/n)
        vols.append(abs(total - VOL_T))
    assert vols[2] < vols[1] < vols[0]


def test_stiffness_positive_semidefinite():
    prob = build_mode(0, 1, 24)
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=prob.size)
        assert float(v @ (prob.stiffness @ v)) >= -1e-10


def test_zero_mode_spectrum():
    res = neumann_spectrum(0, 0, 64, 3)
    assert res.mode == (0, 0)
    assert res.eigenvalues[0] <= 1e-8
    assert res.eigenvalues[1] > 1.0  # simple kernel: gap bounded away from 0
    assert list(res.eigenvalues) == sorted(res.eigenvalues)
    assert res.converged


def test_frozen_eigenvalues():
    # grid values at n=64, frozen from refinement studies of this discretization
    expectations = {
        (0, 0): 14.610610,  # first nonzero
        (0, 1): 1.840082,
        (1, 0): 5.381598,
        (1, 1): 6.842141,
    }
    for (l, m), expected in expectations.items():
        res = neumann_spectrum(l, m, 64, 2)
        lam = res.eigenvalues[1] if (l, m) == (0, 0) else res.eigenvalues[0]
        assert lam == pytest.approx(expected, rel=1e-5)


@pytest.mark.parametrize("n", [16, 17, 24, 25, 32])  # odd n changes the parity of the anti-diagonals
@pytest.mark.parametrize("l, m", [(0, 0), (1, 0), (0, 1), (2, 1)])
def test_lowest_eigenvalues_match_dense_pencil(l, m, n):
    # independent reference: LAPACK on the dense generalized pencil (K, M)
    prob = build_mode(l, m, n)
    ref = scipy.linalg.eigh(stiffness_matrix(prob.stiffness).toarray(), np.diag(prob.mass.diagonal()),
                            eigvals_only=True, subset_by_index=[0, 5])
    got = _lowest_eigenvalues(prob, 6)
    assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(np.abs(ref), 1.0))


@pytest.mark.parametrize("n", [12, 17, 24])
@pytest.mark.parametrize("l, m", [(1, 0), (0, 1), (1, 1), (2, 1)])
def test_angular_modes_lie_above_the_zero_mode(l, m, n):
    # r_c, s_c < 1 makes the potential at least (l^2 + m^2) times the mass in
    # every cell, so by min-max lambda_k(l, m) >= lambda_k(0, 0) + l^2 + m^2
    prob = build_mode(l, m, n)
    assert np.all(prob.stiffness.potential >= (l * l + m * m) * prob.mass.values)
    base = _lowest_eigenvalues(build_mode(0, 0, n), 4)
    assert np.all(_lowest_eigenvalues(prob, 4) >= base + l * l + m * m)


@pytest.mark.parametrize("l, m", [(0, 0), (1, 0)])
def test_lowest_eigenvalues_rejects_nan_stiffness(monkeypatch, l, m):
    # the factor checks its entries before it factors
    prob = build_mode(l, m, 16)
    prob.stiffness.weights[7] = np.nan
    with pytest.raises(EigenSolverError, match=rf"mode \({l},{m}\) at n=16 is not finite"):
        _lowest_eigenvalues(prob, 2)
    monkeypatch.setattr(spectral, "build_mode", lambda *args: prob)
    with pytest.raises(EigenSolverError, match=rf"mode \({l},{m}\) at n=16 is not finite"):
        solve_neumann(lambda r, s: r + s, l, m, 16)


def test_factor_names_a_singular_block():
    # odd cells on the diagonal and nothing coupling them leave S = 0 on the even cells
    prob, g = build_mode(0, 0, 16), spectral._grid(16)
    diag = ((g.ci + g.cj) % 2).astype(float)  # 1 on the odd cells, 0 on the even ones
    with pytest.raises(EigenSolverError, match=r"factor of mode \(0,0\) at n=16 is singular"):
        spectral._Factor(prob, diag, np.zeros(prob.stiffness.weights.size))


def test_lowest_eigenvalues_fail_at_the_step_cap(monkeypatch):
    # count 2 at n = 16 takes more than three Lanczos steps
    monkeypatch.setattr(spectral, "_LANCZOS_STEPS", 3)
    with pytest.raises(EigenSolverError, match=r"within 3 steps for mode \(0,0\) at n=16"):
        _lowest_eigenvalues(build_mode(0, 0, 16), 2)


def test_lanczos_basis_grows_to_the_steps_taken(monkeypatch):
    # from room for one step the basis doubles as Lanczos goes on, to the bit the same solve
    prob = build_mode(0, 0, 64)
    want = _lowest_eigenvalues(prob, 2)
    assert want[1] == pytest.approx(14.610610, rel=1e-5)  # the frozen first nonzero value
    monkeypatch.setattr(spectral, "_FIRST_STEPS", 1)
    assert np.array_equal(_lowest_eigenvalues(prob, 2), want)
    monkeypatch.setattr(spectral, "_LANCZOS_STEPS", 3)
    with pytest.raises(EigenSolverError, match=r"within 3 steps"):
        _lowest_eigenvalues(prob, 2)


def test_lanczos_memory_follows_the_steps_taken():
    prob = build_mode(0, 0, 96)
    _lowest_eigenvalues(prob, 2)
    tracemalloc.start()
    try:
        _lowest_eigenvalues(prob, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000  # a basis with room for all 300 steps alone is 11 MB; this solve takes 4.3


def test_eigenvalues_grow():
    res = neumann_spectrum(0, 0, 64, 10)
    assert res.eigenvalues[9] > res.eigenvalues[1] * 1.5
    assert np.all(np.diff(res.eigenvalues) >= -1e-10)


def test_grid_stability():
    res = neumann_spectrum(0, 0, 64, 2)
    lam64, lam128 = res.eigenvalues[1], res.fine_eigenvalues[1]
    assert abs(lam64 - lam128) / lam128 < 0.01
    # the kept grid-2n eigenvalues are those of a separate solve at 2n
    assert res.fine_eigenvalues == neumann_spectrum(0, 0, 128, 2).eigenvalues


def test_mode_monotonicity():
    # enlarging the angular potential cannot lower the ground state
    lam01 = neumann_spectrum(0, 1, 48, 1).eigenvalues[0]
    lam02 = neumann_spectrum(0, 2, 48, 1).eigenvalues[0]
    lam11 = neumann_spectrum(1, 1, 48, 1).eigenvalues[0]
    assert lam02 >= lam01
    assert lam11 >= lam01


def test_poincare_constant_value_and_stability():
    C64 = poincare_constant(64, 2)
    assert C64 == pytest.approx(1.0 / 1.840082, rel=1e-5)
    C96 = poincare_constant(96, 2)
    assert abs(C64 - C96) / C96 < 0.02
    with pytest.raises(ValueError):
        poincare_constant(64, 0)


@pytest.mark.parametrize("mode_cut", [1, 2, 3])
def test_poincare_constant_equals_full_mode_scan(mode_cut):
    n = 24
    lam = min(
        float(_lowest_eigenvalues(build_mode(l, m, n), 2 if (l, m) == (0, 0) else 1)[-1])
        for l in range(mode_cut + 1)
        for m in range(mode_cut + 1)
    )
    assert poincare_constant(n, mode_cut) == 1.0 / lam


def test_poincare_on_random_fields():
    C = poincare_constant(64, 2)
    worst, ok = poincare_field_check(C, 2, 30, seed=15)
    assert ok, f"worst Rayleigh ratio {worst} exceeded slack 1.1"
    assert worst <= 1.1


def _poincare_by_quadrature(C, mode_cut, n_fields, seed, spec):
    """The Rayleigh check with every integral done by the tensor rule: the
    same seeded draws, then the mean, the variance and the energy density
    |dg/dz|^2 + |dg/dw|^2 of each field integrated over T."""
    rng = np.random.default_rng(seed)
    pool = [
        (j, k)
        for j in range(0, mode_cut + 1)
        for k in range(max(0, j - mode_cut), j + mode_cut + 1)
        if (j, k) != (0, 0)
    ]
    ratios = []
    for _ in range(n_fields):
        size = int(rng.integers(2, 5))
        picks = rng.choice(len(pool), size=size, replace=False)
        coeffs = {pool[i]: complex(rng.normal(), rng.normal()) for i in picks}

        def g(r, a, s, b):
            return sum(c * bergman.v_eval_arrays(j, k, r, a, s, b) for (j, k), c in coeffs.items())

        def energy_density(r, a, s, b):
            gz = gw = 0j
            for (j, k), c in coeffs.items():
                if j > 0:
                    gz = gz + c * j * bergman.v_eval_arrays(j - 1, k - 1, r, a, s, b)
                if k != j:
                    gw = gw + c * (k - j) * bergman.v_eval_arrays(j, k - 1, r, a, s, b)
            return np.abs(gz) ** 2 + np.abs(gw) ** 2

        mean = complex(integrate_T(g, spec)).real / VOL_T
        variance = integrate_T(lambda r, a, s, b: (np.real(g(r, a, s, b)) - mean) ** 2, spec).real
        ratios.append(variance / (C * integrate_T(energy_density, spec).real))
    return float(np.max(ratios))


@pytest.mark.parametrize("mode_cut", [1, 2, 3])
@pytest.mark.parametrize("seed", [5, 12, 15])
def test_poincare_closed_form_matches_quadrature(mode_cut, seed):
    # the tensor rule at level 16 is exact on these polynomial-trigonometric integrands
    C = 0.5434540599802758
    worst, _ = poincare_field_check(C, mode_cut, 10, seed)
    assert worst == pytest.approx(_poincare_by_quadrature(C, mode_cut, 10, seed, QuadratureSpec(level=16)), rel=1e-13)


def test_solve_neumann_zero_mode():
    n = 48
    u = solve_neumann(lambda r, s: np.cos(np.pi * s) + r, 0, 0, n)
    prob = build_mode(0, 0, n)
    w = prob.mass.diagonal()
    # enforced mean-zero constraint
    assert abs(float(w @ u)) <= 1e-10 * float(w.sum())
    # Galerkin identity against random test vectors
    fhat = np.cos(np.pi * prob.s_centers) + prob.r_centers
    fhat = fhat - float(w @ fhat) / float(w.sum())
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = rng.normal(size=prob.size)
        lhs = float(v @ (prob.stiffness @ u))
        rhs = float(v @ (prob.mass @ fhat))
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)


def test_solve_neumann_constant_source():
    u = solve_neumann(lambda r, s: np.ones_like(r) * np.ones_like(s), 0, 0, 32)
    assert np.abs(u).max() <= 1e-10


def test_solve_neumann_nonzero_mode():
    n = 48
    u = solve_neumann(lambda r, s: r * s, 1, 1, n)
    prob = build_mode(1, 1, n)
    fhat = prob.r_centers * prob.s_centers
    resid = prob.stiffness @ u - prob.mass @ fhat
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(prob.mass @ fhat)


@pytest.mark.parametrize("l, m", [(0, 0), (1, 0)])
def test_solve_neumann_rejects_nan_source(l, m):
    # a NaN residual must fail the residual guard, not return NaN silently
    def f(r, s):
        values = np.ones_like(r)
        values[3] = np.nan
        return values

    with pytest.raises(EigenSolverError, match=rf"mode \({l},{m}\)"):
        solve_neumann(f, l, m, 16)


ROOT = Path(__file__).resolve().parent.parent


def run_spectrum_table(tmp_path, *flags):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "spectrum_table.py"), *flags, "--out", str(tmp_path / "s.csv")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def test_spectrum_table_reads_constant_from_scan(tmp_path):
    proc = run_spectrum_table(tmp_path, "--grid", "16", "--mode-cut", "1", "--count", "2")
    assert proc.returncode == 0, proc.stderr
    C = float(re.search(r"C = (\S+) ", proc.stdout).group(1))
    assert C == pytest.approx(poincare_constant(16, 1), rel=1e-12)
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 1 + 4 * 2


@pytest.mark.parametrize("flags", [("--mode-cut", "0"), ("--count", "1")])
def test_spectrum_table_rejects_sizes_without_constant(tmp_path, flags):
    proc = run_spectrum_table(tmp_path, *flags)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert not (tmp_path / "s.csv").exists()


# the n = 192 results of the benchmark's fine grids and a solve there, one per line
_AT_192 = """
import hashlib
import numpy as np
from hartogs import spectral
for l, m, count in ((0, 0, 6), (0, 1, 1), (1, 0, 1), (1, 1, 1)):
    print(repr(spectral.neumann_spectrum(l, m, 96, count).fine_eigenvalues))
print(repr(spectral.poincare_constant(192, 2)))
u = spectral.solve_neumann(lambda r, s: np.cos(np.pi * s) + r, 0, 0, 192)
print(hashlib.sha256(u.tobytes()).hexdigest())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for a second BLAS thread")
def test_results_at_n192_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product of more than 10,000 entries between threads, and the
    # n = 192 grid has 18,336 cells
    outputs = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _AT_192], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 6
    assert outputs[0] == outputs[1]
