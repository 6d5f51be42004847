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
A = M^{-1/2} K M^{-1/2} of the pencil (stiffness K, diagonal mass M), with
numpy alone.  Each mode factors A + I/2 once (:class:`_Factor`): every edge
joins a cell on an odd anti-diagonal i + j to one on an even anti-diagonal,
so the odd cells are eliminated by one diagonal solve, and the Schur
complement on the even cells is block tridiagonal once consecutive even
anti-diagonals are grouped into blocks.  Each block keeps its dense inverse,
so a solve is one forward and one backward sweep of small matrix-vector
products; :func:`solve_neumann` factors K itself the same way, with one cell
pinned in the (0, 0) mode.  The cells, edges and elimination layout depend
on n alone: :func:`_grid` builds them once per n, reading ``_BLOCK`` then,
and every mode and factor at that n shares them, so a factor computes only
values.  Lanczos reorthogonalises every step against all earlier vectors
(two classical Gram-Schmidt passes) and stops when every wanted Ritz value
has a residual estimate below 1e-14 of itself.  The zero mode of (0, 0) is
reproduced at roundoff level and the Poincare constant is estimated as
1/lambda-hat with lambda-hat the smallest nonzero eigenvalue over modes
|l|, |m| <= mode_cut (modes enter through l^2, m^2, so nonnegative l, m
suffice).  For mode_cut >= 1 that minimum is attained on the three modes
(0, 0), (1, 0) and (0, 1), which are the only ones solved; see
:func:`poincare_constant`.

Up to n = 192 every BLAS call stays below the sizes at which numpy's
OpenBLAS starts a second thread, and dot products over the cells are summed
from pieces of at most 10,000 entries, so the results do not depend on the
thread count there (see ``_GEMV_ENTRIES``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeProblem",
    "Stiffness",
    "Mass",
    "SpectrumResult",
    "EigenSolverError",
    "build_mode",
    "neumann_spectrum",
    "poincare_constant",
    "solve_neumann",
]

_W4 = (2.0 * np.pi) ** 2

#: Lanczos runs on (A + _SHIFT I)^{-1}, which is SPD since A is positive semidefinite.
_SHIFT = 0.5
#: Most cells in a block of several anti-diagonals; a longer anti-diagonal is
#: a block of its own.  Read when a grid's layout is built (:func:`_grid`).
#: On 2 vCPUs (numpy 2.4.6), with the layouts built, the spectrum battery and
#: the benchmark's fine-grid spectral calls took 24.2 and 221 ms with 48, the
#: same within 4% from 32 to 64, and 29.4 and 244 ms with 96, where ``inv``
#: costs 1.7 us per cell against 0.8 us at 48.
_BLOCK = 48
# In a two-thread pool on 2 vCPUs, numpy 2.4.6's OpenBLAS 0.3.31 kept ``inv``
# up to 97 x 97, ``@`` of two matrices up to 100 x 100, a 31 x 14000
# matrix-vector product and a 10,000-entry dot product on one thread (31 x
# 16000 and 10,001 entries took two; a split dot product rounds differently).
# Blocks stay within that up to n = 192, where an anti-diagonal holds 96
# cells; reorthogonalisation products are cut into column chunks of at most
# _GEMV_ENTRIES entries and _DOT_ENTRIES columns, as a one-row one is a dot.
_GEMV_ENTRIES = 2**18
_DOT_ENTRIES = 10_000
#: Lanczos steps before giving up; 10 eigenvalues take about 45 on these grids.
_LANCZOS_STEPS = 300
#: Steps the Lanczos basis first has room for; it doubles when a solve needs
#: more, so a 45-step solve does not hold 301 rows (11 MB at n = 96).
_FIRST_STEPS = 64
#: Lanczos stops when every wanted Ritz value theta has |beta s_m| <= _RITZ_TOL theta.
_RITZ_TOL = 1e-14


class EigenSolverError(RuntimeError):
    """Eigen- or linear-solver failure, with the (l, m, n) context."""


@dataclass(frozen=True)
class Stiffness:
    """The form sum_e w_e (g_a - g_b)^2 + sum_k p_k g_k^2: edge e joins cells
    ``heads[e]`` and ``tails[e]`` with weight ``weights[e]``; ``potential`` is p."""

    heads: np.ndarray
    tails: np.ndarray
    weights: np.ndarray
    potential: np.ndarray

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        flux = self.weights * (u[self.heads] - u[self.tails])
        size = self.potential.size
        return self.potential * u + np.bincount(self.heads, flux, size) - np.bincount(self.tails, flux, size)

    def diagonal(self) -> np.ndarray:
        size = self.potential.size
        return (self.potential + np.bincount(self.heads, self.weights, size)
                + np.bincount(self.tails, self.weights, size))


@dataclass(frozen=True)
class Mass:
    """Diagonal mass form with entries ``values``."""

    values: np.ndarray

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return self.values * np.asarray(u, dtype=float)

    def diagonal(self) -> np.ndarray:
        return self.values.copy()


@dataclass
class ModeProblem:
    """Discrete forms of one angular mode on the triangle {0 < r < s < 1}."""

    l: int
    m: int
    n: int
    stiffness: Stiffness
    mass: Mass
    r_centers: np.ndarray
    s_centers: np.ndarray

    @property
    def size(self) -> int:
        return self.r_centers.size


class _Grid:
    """What depends on the resolution n alone: the active cells, their edges
    and the elimination layout of :class:`_Factor`.  Built once per n by
    :func:`_grid` and shared by every mode at that n, so its arrays are
    read-only."""

    def __init__(self, n: int):
        ci, cj = np.triu_indices(n, 1)  # active cells i < j, row by row
        cells = np.arange(ci.size)
        index = np.full((n, n), -1)
        index[ci, cj] = cells
        # horizontal neighbors (i, j) - (i+1, j), kept strictly below the
        # diagonal, and vertical ones (i, j) - (i, j+1)
        right = ci + 1 < cj
        up = cj + 1 < n
        heads = np.concatenate([cells[right], cells[up]])
        tails = np.concatenate([index[ci[right] + 1, cj[right]], index[ci[up], cj[up] + 1]])
        self.ci, self.cj, self.right, self.up, self.heads, self.tails = ci, cj, right, up, heads, tails

        anti = ci + cj
        odd_cell = anti % 2 == 1
        odd = np.flatnonzero(odd_cell)
        even = np.flatnonzero(~odd_cell)
        even = even[np.lexsort((ci[even], anti[even]))]  # by anti-diagonal, then by i
        position = np.empty(ci.size, dtype=np.int64)  # in odd, or in the even order
        position[odd] = np.arange(odd.size)
        position[even] = np.arange(even.size)
        self.odd, self.even = odd, even

        # the up to four edges of each odd cell as (even position, entry)
        # slots: edge edge_order[t] fills flat slot slots[t] of nbr
        odd_end = np.where(odd_cell[heads], heads, tails)
        self.edge_order = np.argsort(odd_end, kind="stable")
        owner = position[odd_end[self.edge_order]]
        slot = np.arange(owner.size) - np.searchsorted(owner, owner)
        self.slots = owner * 4 + slot
        self.nbr = np.zeros((odd.size, 4), dtype=np.int64)
        self.nbr[owner, slot] = position[(heads + tails - odd_end)[self.edge_order]]
        filled = np.zeros((odd.size, 4), dtype=bool)
        filled[owner, slot] = True

        # blocks of whole even anti-diagonals
        lengths = np.bincount(anti[even] // 2)
        lengths = lengths[lengths > 0]
        sizes = [0]
        for length in lengths.tolist():
            if sizes[-1] and sizes[-1] + length > _BLOCK:
                sizes.append(0)
            sizes[-1] += length
        self.sizes = tuple(sizes)
        self.widths = tuple(size + after for size, after in zip(sizes, sizes[1:] + [0]))  # of [D_k | C_k]
        self.bounds = np.concatenate([[0], np.cumsum(sizes)])
        block = np.repeat(np.arange(len(sizes)), sizes)

        # entries of S on and above the block diagonal, grouped by the block of
        # their row: the diagonal first, then the pairs of filled slots of each
        # odd cell, gathered from [diag[even], pair.ravel()]; block k's rows
        # [D_k | C_k] start at its first cell in both blocks' columns, so a
        # row's offset there is cols - bounds[k].  Block k's entries end at ends[k]
        shape = (odd.size, 4, 4)
        rows = np.broadcast_to(self.nbr[:, :, None], shape).ravel()
        cols = np.broadcast_to(self.nbr[:, None, :], shape).ravel()
        kept = np.flatnonzero((filled[:, :, None] & filled[:, None, :]).ravel() & (block[cols] >= block[rows]))
        diagonal = np.arange(even.size)
        rows = np.concatenate([diagonal, rows[kept]])
        cols = np.concatenate([diagonal, cols[kept]])
        gather = np.concatenate([diagonal, even.size + kept])
        order = np.argsort(block[rows], kind="stable")
        rows, cols, self.gather = rows[order], cols[order], gather[order]
        first = self.bounds[block[rows]]
        self.flat = (rows - first) * np.asarray(self.widths)[block[rows]] + cols - first
        self.ends = np.cumsum(np.bincount(block[rows], minlength=len(sizes)))

        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False


# the n-grid's layout, built once per n with the ``_BLOCK`` of that moment
_grid = functools.lru_cache(maxsize=None)(_Grid)


def build_mode(l: int, m: int, n: int) -> ModeProblem:
    """Assemble stiffness and mass of mode (l, m) at grid resolution n."""
    if n < 8:
        raise ValueError("grid resolution must be >= 8")
    h = 1.0 / n
    g = _grid(n)
    ci, cj, right, up = g.ci, g.cj, g.right, g.up
    rc = (ci + 0.5) * h
    sc = (cj + 0.5) * h
    # edge midpoints ((i+1)h, s_j) on the right edges and (r_i, (j+1)h) on the up ones
    stiffness = Stiffness(
        heads=g.heads,
        tails=g.tails,
        weights=np.concatenate([_W4 * (ci[right] + 1.0) * h * sc[right], _W4 * rc[up] * (cj[up] + 1.0) * h]),
        potential=_W4 * (l * l / rc**2 + m * m / sc**2) * rc * sc * h * h,
    )
    mass = Mass(_W4 * rc * sc * h * h)
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


class _Factor:
    """Solver of the SPD system with diagonal ``diag`` and entry ``off[e]`` at
    the cells of stiffness edge e, for a mode problem's cell layout.

    Odd cells (i + j odd) neighbour only even ones, so with u_o = D_o^{-1}
    (f_o - B^T u_e) what remains is S u_e = f_e - B D_o^{-1} f_o, where
    S = D_e - B D_o^{-1} B^T couples even cells two anti-diagonals apart at
    most.  Even cells are ordered by anti-diagonal, then by i, and consecutive
    anti-diagonals are grouped into blocks of at most ``_BLOCK`` cells (one
    anti-diagonal per block when it is longer), which makes S block
    tridiagonal with diagonal blocks D_k and couplings C_k.  Block LDL^T:
    T_k = (D_k - G_{k-1} C_{k-1})^{-1} and G_k = C_k^T T_k.

    That layout depends on n alone and is the n-grid's :class:`_Grid`, built
    once per n with the ``_BLOCK`` of that moment and shared by every mode
    and factor there.  A factor computes only values: the slot entries, the
    pairings through each odd cell, one bincount per block row [D_k | C_k],
    the inverses and the couplings.  It is the one entry into the
    factorisation: EigenSolverError, naming the mode and n, when an entry of
    ``diag`` or ``off`` is not finite or a Schur block is singular.
    """

    def __init__(self, problem: ModeProblem, diag: np.ndarray, off: np.ndarray):
        context = f"mode ({problem.l},{problem.m}) at n={problem.n}"
        if not (np.isfinite(diag).all() and np.isfinite(off).all()):
            raise EigenSolverError(f"a factor entry of {context} is not finite")
        g = _grid(problem.n)
        self.odd, self.even, self.nbr, self.bounds = g.odd, g.even, g.nbr, g.bounds
        val = np.zeros(g.nbr.size)
        val[g.slots] = off[g.edge_order]
        self.val = val.reshape(g.nbr.shape)
        self.odd_diag = diag[self.odd]
        pair = -(self.val[:, :, None] * self.val[:, None, :]) / self.odd_diag[:, None, None]
        vals = np.concatenate([diag[self.even], pair.ravel()])[g.gather]

        self.inverses, self.couplings = [], []  # T_k and G_k
        for k, (size, width) in enumerate(zip(g.sizes, g.widths)):
            lo = g.ends[k - 1] if k else 0
            R = np.bincount(g.flat[lo:g.ends[k]], vals[lo:g.ends[k]], size * width).reshape(size, width)
            D = R[:, :size]
            if k:
                D = D - self.couplings[-1] @ C
            try:
                self.inverses.append(np.linalg.inv(D))
            except np.linalg.LinAlgError as exc:
                raise EigenSolverError(f"block {k} of the factor of {context} is singular: {exc}") from exc
            C = R[:, size:]  # C_k, used again at k + 1
            if C.size:
                self.couplings.append(C.T @ self.inverses[-1])

    def solve(self, f: np.ndarray) -> np.ndarray:
        fo = f[self.odd] / self.odd_diag
        y = f[self.even] - np.bincount(self.nbr.ravel(), (self.val * fo[:, None]).ravel(), self.even.size)
        blocks = [y[a:b] for a, b in zip(self.bounds[:-1], self.bounds[1:])]  # views into y
        for k, G in enumerate(self.couplings):
            blocks[k + 1] -= G @ blocks[k]
        for block, T in zip(blocks, self.inverses):
            block[:] = T @ block
        for k in range(len(self.couplings) - 1, -1, -1):
            blocks[k] -= self.couplings[k].T @ blocks[k + 1]
        u = np.empty(f.size)
        u[self.even] = y
        u[self.odd] = fo - (self.val * y[self.nbr]).sum(axis=1) / self.odd_diag
        return u


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x @ y summed from dot products of at most _DOT_ENTRIES entries, each on one BLAS thread."""
    return sum(x[a:a + _DOT_ENTRIES] @ y[a:a + _DOT_ENTRIES] for a in range(0, x.size, _DOT_ENTRIES))


def _lowest_eigenvalues(problem: ModeProblem, count: int) -> np.ndarray:
    if count < 1:
        raise ValueError("count must be >= 1")
    if count >= problem.size:
        raise ValueError("count must be smaller than the problem size")
    context = f"mode ({problem.l},{problem.m}) at n={problem.n}"
    # A + shift I with A = M^{-1/2} K M^{-1/2}, which has the eigenvalues of the pencil (K, M)
    K = problem.stiffness
    d = 1.0 / np.sqrt(problem.mass.values)
    factor = _Factor(problem, K.diagonal() * d * d + _SHIFT, -K.weights * (d[K.heads] * d[K.tails]))

    # fixed generic starting vector, so every run takes the same steps
    v = np.random.default_rng(1234).standard_normal(problem.size)
    steps = min(_LANCZOS_STEPS, problem.size)
    basis = np.empty((min(_FIRST_STEPS, steps) + 1, problem.size))
    basis[0] = v / np.sqrt(_dot(v, v))
    alpha, beta = np.empty(steps), np.empty(steps)
    for j in range(steps):
        w = factor.solve(basis[j])
        V = basis[: j + 1]
        width = max(1, min(_DOT_ENTRIES, _GEMV_ENTRIES // (j + 1)))
        chunks = [slice(a, a + width) for a in range(0, problem.size, width)]
        alpha[j] = 0.0
        for _ in range(2):  # classical Gram-Schmidt, twice
            h = sum(V[:, c] @ w[c] for c in chunks)
            for c in chunks:
                w[c] -= h @ V[:, c]
            alpha[j] += h[j]
        beta[j] = np.sqrt(_dot(w, w))
        if j + 1 >= count:
            theta, s = np.linalg.eigh(np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1))
            theta, last = theta[-count:], s[-1, -count:]
            if np.all(np.abs(beta[j] * last) <= _RITZ_TOL * theta):
                return np.sort(1.0 / theta - _SHIFT)
        if not beta[j] > 0.0:
            raise EigenSolverError(f"Lanczos broke down at step {j + 1} for {context}")
        if j + 1 == len(basis):
            basis = np.concatenate([basis, np.empty((min(len(basis) - 1, steps - j), problem.size))])
        basis[j + 1] = w / beta[j]
    raise EigenSolverError(f"Lanczos did not converge within {steps} steps for {context}")


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
    three modes are solved.  At n = 64, C = 0.5434540599802488 for mode_cut
    1, 2 and 3.

    Against (0, 0) the bound is explicit: cell by cell the potential of
    (l, m) is (l^2/r_c^2 + m^2/s_c^2) times the mass, at least (l^2 + m^2)
    times it since r_c, s_c < 1, so by min-max
    lambda_k(l, m) >= lambda_k(0, 0) + l^2 + m^2 for every k.
    """
    if mode_cut < 1:
        raise ValueError("mode_cut must be >= 1")
    modes = ((0, 0, 2), (1, 0, 1), (0, 1, 1))
    return 1.0 / min(float(_lowest_eigenvalues(build_mode(l, m, n), count)[-1]) for l, m, count in modes)


def solve_neumann(f, l: int, m: int, n: int) -> np.ndarray:
    """Solve stiffness u = mass f-hat for mode (l, m) on the n-grid.

    ``f`` is the mode amplitude, a callable f(r, s) evaluated at the cell
    centers (arrays r_centers and s_centers) and broadcast to one value per
    cell.  For the (0, 0) mode the data is always replaced by f - mean(f)
    (mass-weighted), the compatible part of any source, and the solution has
    mass-weighted mean zero.
    """
    problem = build_mode(l, m, n)
    fhat = np.broadcast_to(np.asarray(f(problem.r_centers, problem.s_centers), dtype=float), (problem.size,))
    K = problem.stiffness
    w = problem.mass.values
    diag = K.diagonal()
    if (l, m) == (0, 0):
        fhat = fhat - _dot(w, fhat) / float(w.sum())
        # K + kappa e_p e_p^T is SPD; for compatible data its solution solves
        # K u = b with u_p = 0, and is shifted to mean zero below.  p is the
        # outermost cell, whose diagonal is the largest: pinned at the apex
        # cell instead, the residual grows a hundredfold
        diag[-1] += diag[-1]
    b = w * fhat
    u = _Factor(problem, diag, -K.weights).solve(b)
    if (l, m) == (0, 0):
        u -= _dot(w, u) / float(w.sum())

    residual, scale = (float(np.sqrt(_dot(x, x))) for x in (K @ u - b, b))
    # absolute floor keeps a numerically-zero right-hand side (e.g. demeaned
    # constant data) from turning roundoff into a spurious relative failure
    if not residual <= 1e-8 * scale + 1e-12:  # a NaN residual fails too
        raise EigenSolverError(
            f"solver residual {residual:.3e} exceeds 1e-8 relative for mode ({l},{m})"
        )
    return u
