"""Variational Neumann problem on T by Fourier-mode decoupling.

Writing a field on T as a sum of angular modes u = g(r, s) e^{i(l alpha +
m beta)}, the Dirichlet energy and L^2 norm decouple into independent 2D
problems on the triangle {0 < r < s < 1}:

    E_{l,m}(g) = (2 pi)^2 double-int [ |g_r|^2 + |g_s|^2
                 + (l^2/r^2 + m^2/s^2) |g|^2 ] r s dr ds,
    N(g)       = (2 pi)^2 double-int |g|^2 r s dr ds.

Discretization: cell-centered finite volumes on the uniform n x n grid,
active cells (i, j) with i < j, node coordinates ((i+1/2)/n, (j+1/2)/n).
The stiffness matrix sums edge terms w_e (g_a - g_b)^2 with w_e = (2 pi)^2
r_e s_e evaluated at the edge midpoint (so constants are annihilated
exactly in the (0, 0) mode) plus the diagonal potential; the mass matrix is
diagonal.  Cell-centering keeps the singular potentials l^2/r^2 and m^2/s^2
evaluated strictly inside the domain; no boundary condition is imposed,
which is the natural (Neumann) variational setting.

Eigenvalues come from shift-invert Lanczos on the symmetric standard form
A = M^{-1/2} K M^{-1/2} of the pencil (stiffness K, diagonal mass M).  Each
mode factors A + I/2 once, with SuperLU's symmetric minimum-degree ordering
and diagonal pivots (A is an SPD 5-point stencil), and ARPACK applies that
factor as its inverse operator.  The zero mode of (0, 0) is reproduced at
roundoff level and the Poincare constant is estimated as 1/lambda-hat with
lambda-hat the smallest nonzero eigenvalue over modes |l|, |m| <= mode_cut
(modes enter through l^2, m^2, so nonnegative l, m suffice).  For
mode_cut >= 1 that minimum is attained on the three modes (0, 0), (1, 0)
and (0, 1), which are the only ones solved; see :func:`poincare_constant`.

scipy's own OpenBLAS pool is loaded with one thread unless OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS is set; the results do not depend on it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# scipy's wheels carry their own OpenBLAS, which starts one worker per extra core when
# scipy.sparse.linalg loads scipy.linalg.  The SuperLU factors and ARPACK solves run at up to
# n = 192, 18,336 dofs, where a second thread adds no speed, and the idle worker busy-waits
# after loading and after each threaded product, which costs CPU.  So scipy loads with one
# BLAS thread unless a thread count is set; the environment is restored at once, so child
# processes still see the caller's and numpy's pool is untouched.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_ONE_BLAS_THREAD = not any(var in os.environ for var in _BLAS_THREAD_VARS)
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
finally:
    if _ONE_BLAS_THREAD:
        del os.environ["OPENBLAS_NUM_THREADS"]

__all__ = [
    "ModeProblem",
    "SpectrumResult",
    "EigenSolverError",
    "build_mode",
    "neumann_spectrum",
    "poincare_constant",
    "solve_neumann",
]

_W4 = (2.0 * np.pi) ** 2


class EigenSolverError(RuntimeError):
    """Eigen- or linear-solver failure, with the (l, m, n) context."""


@dataclass
class ModeProblem:
    """Discrete forms of one angular mode on the triangle {0 < r < s < 1}."""

    l: int
    m: int
    n: int
    stiffness: sp.csr_matrix
    mass: sp.dia_matrix
    r_centers: np.ndarray
    s_centers: np.ndarray

    @property
    def size(self) -> int:
        return self.stiffness.shape[0]


def build_mode(l: int, m: int, n: int) -> ModeProblem:
    """Assemble stiffness and mass of mode (l, m) at grid resolution n."""
    if n < 8:
        raise ValueError("grid resolution must be >= 8")
    h = 1.0 / n
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    active = ii < jj
    index = -np.ones((n, n), dtype=np.int64)
    index[active] = np.arange(active.sum())
    ci, cj = ii[active], jj[active]
    rc = (ci + 0.5) * h
    sc = (cj + 0.5) * h
    N = ci.size

    mass = sp.diags(_W4 * rc * sc * h * h)

    rows, cols, vals = [], [], []

    def add_edges(ka, kb, w):
        rows.extend([ka, kb, ka, kb])
        cols.extend([ka, kb, kb, ka])
        vals.extend([w, w, -w, -w])

    # horizontal neighbors (i, j) - (i+1, j): edge midpoint ((i+1)h, s_j)
    ok = (ci + 1 < cj)  # neighbor must stay strictly below the diagonal
    ka = index[ci[ok], cj[ok]]
    kb = index[ci[ok] + 1, cj[ok]]
    add_edges(ka, kb, _W4 * (ci[ok] + 1.0) * h * sc[ok])
    # vertical neighbors (i, j) - (i, j+1): edge midpoint (r_i, (j+1)h)
    ok = cj + 1 < n
    ka = index[ci[ok], cj[ok]]
    kb = index[ci[ok], cj[ok] + 1]
    add_edges(ka, kb, _W4 * rc[ok] * (cj[ok] + 1.0) * h)

    pot = _W4 * (l * l / rc**2 + m * m / sc**2) * rc * sc * h * h
    rows = np.concatenate(rows + [np.arange(N)])
    cols = np.concatenate(cols + [np.arange(N)])
    vals = np.concatenate(vals + [pot])
    stiffness = sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(N, N)))
    return ModeProblem(l=l, m=m, n=n, stiffness=stiffness, mass=mass, r_centers=rc, s_centers=sc)


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest eigenvalues of one mode at grid n; ``fine_eigenvalues`` are the
    same count at grid 2n, against which ``converged`` was judged."""

    mode: tuple[int, int]
    eigenvalues: tuple[float, ...]
    grid: int
    converged: bool
    fine_eigenvalues: tuple[float, ...] = ()


def _lowest_eigenvalues(problem: ModeProblem, count: int) -> np.ndarray:
    if count < 1:
        raise ValueError("count must be >= 1")
    if count >= problem.size:
        raise ValueError("count must be smaller than the problem size")
    # fixed generic starting vector: ARPACK otherwise draws a random one per
    # call, which perturbs converged eigenvalues at the last-ulp level
    v0 = np.random.default_rng(1234).standard_normal(problem.size)
    # A = M^{-1/2} K M^{-1/2}: same eigenvalues as the pencil (K, M), and
    # exactly symmetric because each entry is scaled by the product d_i d_j
    K = problem.stiffness.tocoo()
    d = 1.0 / np.sqrt(problem.mass.diagonal())
    A = sp.csc_matrix((K.data * (d[K.row] * d[K.col]), (K.row, K.col)), shape=K.shape)
    try:
        # SPD 5-point stencil: a symmetric minimum-degree ordering with
        # diagonal pivots has about half the fill of SuperLU's default
        # (COLAMD, partial pivoting), so factor and solves are cheaper
        lu = spla.splu(
            A + 0.5 * sp.identity(problem.size, format="csc"),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
        vals = spla.eigsh(
            A,
            k=count,
            sigma=-0.5,
            which="LM",
            v0=v0,
            OPinv=spla.LinearOperator(A.shape, matvec=lu.solve, dtype=float),
            return_eigenvectors=False,
        )
    except Exception as exc:  # superlu and arpack failures carry little context
        raise EigenSolverError(
            f"eigensolver failed for mode ({problem.l},{problem.m}) at n={problem.n}: {exc}"
        ) from exc
    return np.sort(np.real(vals))


def neumann_spectrum(l: int, m: int, n: int, count: int) -> SpectrumResult:
    """Lowest eigenvalues of mode (l, m); converged compares n against 2n."""
    coarse = _lowest_eigenvalues(build_mode(l, m, n), count)
    fine = _lowest_eigenvalues(build_mode(l, m, 2 * n), count)
    both_zero = (np.abs(coarse) <= 1e-8) & (np.abs(fine) <= 1e-8)
    close = np.abs(coarse - fine) <= 0.01 * np.maximum(np.abs(coarse), np.abs(fine))
    return SpectrumResult(mode=(l, m), eigenvalues=tuple(float(v) for v in coarse), grid=n,
                          converged=bool(np.all(both_zero | close)), fine_eigenvalues=tuple(float(v) for v in fine))


def poincare_constant(n: int, mode_cut: int) -> float:
    """One-sided Poincare estimate 1/lambda-hat over modes |l|,|m| <= cut.

    lambda-hat is the smallest nonzero eigenvalue: index 1 for (0, 0) whose
    kernel is the constants, index 0 for every other mode.

    C does not depend on mode_cut for mode_cut >= 1: with the mass shared,
    the stiffness of (l, m) is that of (1, 0) or (0, 1) plus a nonnegative
    diagonal, so no mode undercuts (0, 0), (1, 0) and (0, 1).  Only those
    three modes are solved.  At n = 64, C = 0.5434540599802758 for mode_cut
    1, 2 and 3.
    """
    if mode_cut < 1:
        raise ValueError("mode_cut must be >= 1")
    modes = ((0, 0, 2), (1, 0, 1), (0, 1, 1))
    return 1.0 / min(float(_lowest_eigenvalues(build_mode(l, m, n), count)[-1]) for l, m, count in modes)


def solve_neumann(f, l: int, m: int, n: int) -> np.ndarray:
    """Solve stiffness u = mass f-hat for mode (l, m) on the n-grid.

    ``f`` is the mode amplitude: a callable f(r, s) evaluated at the cell
    centers, or a vector of nodal values.  For the (0, 0) mode the data is
    always replaced by f - mean(f) (mass-weighted), the compatible part of
    any source, and the solution is pinned to mean zero via a Lagrange
    multiplier.
    """
    return _solve_mode(build_mode(l, m, n), f)


def _solve_mode(problem: ModeProblem, f) -> np.ndarray:
    """:func:`solve_neumann` on an assembled mode problem."""
    l, m, n = problem.l, problem.m, problem.n
    if callable(f):
        fhat = np.asarray(f(problem.r_centers, problem.s_centers), dtype=float)
        fhat = np.broadcast_to(fhat, (problem.size,)).copy()
    else:
        fhat = np.asarray(f, dtype=float)
        if fhat.shape != (problem.size,):
            raise ValueError(f"expected {problem.size} nodal values, got {fhat.shape}")
    K = problem.stiffness
    M = problem.mass

    if (l, m) == (0, 0):
        w = M.diagonal()
        fhat = fhat - float(w @ fhat) / float(w.sum())
        b = M @ fhat
        # bordered system pins (u, 1)_M = 0 while keeping symmetry
        one = w.reshape(-1, 1)
        A = sp.bmat([[K, one], [one.T, None]], format="csc")
        rhs = np.concatenate([b, [0.0]])
    else:
        b = M @ fhat
        A, rhs = sp.csc_matrix(K), b
    try:
        u = spla.spsolve(A, rhs)[: problem.size]
    except Exception as exc:
        raise EigenSolverError(f"linear solve failed for mode ({l},{m}) at n={n}: {exc}") from exc

    residual = float(np.linalg.norm(K @ u - b))
    # absolute floor keeps a numerically-zero right-hand side (e.g. demeaned
    # constant data) from turning roundoff into a spurious relative failure
    scale = float(np.linalg.norm(b))
    if not residual <= 1e-8 * scale + 1e-12:  # a NaN residual fails too
        raise EigenSolverError(
            f"solver residual {residual:.3e} exceeds 1e-8 relative for mode ({l},{m})"
        )
    return u
