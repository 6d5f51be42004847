"""Deterministic quadrature and sampling on the Hartogs triangle.

Integrals over T = {|z| < |w| < 1} are computed in polar coordinates,

    integral_T f dV = int_0^1 int_0^s int_{-pi}^{pi} int_{-pi}^{pi}
                      f(r, alpha, s, beta) r s  dalpha dbeta dr ds,

with the inner radius mapped affinely to the fixed square, r = s*x for
x in (0,1).  That substitution turns the triangle {0 < r < s < 1} into a
tensor-product square with smooth weight x*s^3 and removes the corner at the
origin (the Jacobian weight rs vanishes there anyway).

Rule layout per axis, all sizes equal to ``QuadratureSpec.level``:

* x and s: Gauss-Legendre, exact for the polynomial radial profiles of the
  Laurent basis pairings (powers of r and s times the weight are polynomial
  in (x, s), including the |w|^{-2} pairing);
* alpha and beta: midpoint rule on equispaced periodic nodes, exact for
  trigonometric polynomials of degree < level.  This makes angular-mode
  orthogonality an identity of the discrete rule, not a tolerance race.

Memory: no 4-D grid is held whole.  One slab evaluator, ``_grid_slabs``,
takes 2-D radial node arrays R[i, j], S[i, j] and the angular nodes, and
yields the integrand on consecutive row-slabs of at most ``_SLAB_NODES``
nodes, finite-checked.  It serves ``integrate_T`` and ``bergman.project``
(x-slabs of the tensor grid, (R, S) = (x s, s)) and
``dbar.cutoff_commutator_check`` (t-slabs of the shell grid,
(R, S) = (t cos theta, t sin theta)).  Each caller keeps only per-(i, j)
angular reductions, so memory is O(level^3).  Each slab is evaluated and
finite-checked exactly as the whole grid would be, row for row, so
``integrate_T`` does not depend on the slab size; ``project``'s angular
transform may round differently in the last bits.

Randomness: ``sample_T`` rejection-samples the unit bidisk (accept |z| < |w|,
acceptance rate 1/2) using numpy's default_rng, i.e. the PCG64 generator.
The generator choice is part of the package contract: changing it changes
frozen expected values and requires a major version bump.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .points import PolarPoint

__all__ = [
    "QuadratureSpec",
    "NonFiniteIntegrandError",
    "gauss_legendre",
    "integrate_T",
    "sample_T",
    "sample_T_arrays",
]

#: Volume of T: int_T dV = (2 pi)^2 * int_0^1 s^3/2 ds = pi^2 / 2.
VOL_T = np.pi**2 / 2.0

#: Nodes per slab of ``_grid_slabs``, for all three of its users: the level^4
#: grids of integrate_T and bergman.project and the shell grid of
#: dbar.cutoff_commutator_check.  2^20 complex values are 16 MB,
#: four x-rows at level 64.  Over the three level-64 grid calls of the
#: benchmark's fine_grids workload (2 vCPUs), the traced peak is 602 MB for
#: the whole grid (2^24 nodes), 48 MB at 2^20 and 24 MB at 2^18; time is
#: lowest near 2^19-2^20 and rises on both sides (per-slab overhead below).
#: These slabs set that workload's resident peak: in one process the RSS is
#: 61 MB after import, the level-64 project calls take it to 112 MB, and the
#: spectral part alone peaks at 86 MB.  Slabs of 2^18 nodes lower the peak
#: but cost wall time, so 2^20 stays.
_SLAB_NODES = 2**20


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls every integral in the package; the determinism anchor.

    level: per-axis node count of the tensor rule on T.
    surface_cells: ceiling on the nodes per piece of the boundary-ball rules.
        Each ball measures its own node count, doubling from 32 until two
        rules agree (see :mod:`hartogs.boundary`); at least 64, so that one
        doubling fits.
    shell_level: theta nodes of the cutoff shell, max(16, shell_level // 3)
        Gauss nodes (each angle 12 nodes), and nothing else.  The shell's
        t-rule is fixed (see :func:`hartogs.dbar.cutoff_commutator_check`),
        and the dbar profile and gap integrals use the fixed log layer of
        :mod:`hartogs.dbar`.
    """

    level: int = 32
    surface_cells: int = 768
    shell_level: int = 96

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.surface_cells < 64:
            raise ValueError("surface_cells must be >= 64")
        if self.shell_level < 4:
            raise ValueError("shell_level must be >= 4")


class NonFiniteIntegrandError(ValueError):
    """Integrand returned a non-finite sample; carries the offending node."""

    def __init__(self, node: tuple[float, float, float, float], value):
        self.node = node
        self.value = value
        r, alpha, s, beta = node
        super().__init__(
            f"non-finite integrand value {value!r} at node "
            f"(r={r:.6g}, alpha={alpha:.6g}, s={s:.6g}, beta={beta:.6g})"
        )


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1].

    Nodes strictly increasing and symmetric about 0; weights positive and
    summing to 2.  Built once per node count; the arrays are shared between
    callers and therefore read-only.
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    nodes, weights = np.polynomial.legendre.leggauss(int(n))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _gl_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped to (0, 1)."""
    x, w = gauss_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _angular_nodes(n: int) -> tuple[np.ndarray, float]:
    """Equispaced midpoint nodes on (-pi, pi); exact for trig polynomials."""
    nodes = -np.pi + (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    return nodes, 2.0 * np.pi / n


def _grid_slabs(f: Callable, R: np.ndarray, S: np.ndarray, ang: np.ndarray):
    """Yield (rows, vals): f on consecutive row-slabs (at least one row, at
    most ``_SLAB_NODES`` nodes) of the 4-D grid (r, alpha, s, beta) =
    (R[i, j], ang[k], S[i, j], ang[l]), broadcast to full complex slab shape.

    NonFiniteIntegrandError names the first nan/inf node of the grid.
    """
    A = ang[None, None, :, None]
    B = ang[None, None, None, :]
    n, m = R.shape
    step = max(1, _SLAB_NODES // (m * ang.size * ang.size))
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        vals = np.asarray(f(R[rows, :, None, None], A, S[rows, :, None, None], B), dtype=complex)
        vals = np.broadcast_to(vals, (rows.stop - lo, m, ang.size, ang.size))
        finite = np.isfinite(vals)
        if not finite.all():
            i, j, k, l = np.argwhere(~finite)[0]
            node = (float(R[rows][i, j]), float(ang[k]), float(S[rows][i, j]), float(ang[l]))
            raise NonFiniteIntegrandError(node, vals[i, j, k, l])
        yield rows, vals
        del vals, finite  # with the caller's del, slab k is freed before f runs on slab k + 1


def integrate_T(f: Callable, spec: QuadratureSpec) -> complex:
    """Integrate f over T with respect to dV = r s dr ds dalpha dbeta.

    ``f`` is called as ``f(r, alpha, s, beta)`` on broadcastable arrays and
    must return values (numpy semantics).  The result is always complex;
    real-valued callers take the real part themselves.

    Raises NonFiniteIntegrandError if any sampled value is nan/inf, carrying
    the first offending node.

    f is called once per x-slab (see ``_SLAB_NODES``), so memory is
    O(level^3); each slab is reduced to its angular sums before the next.
    """
    n = spec.level
    xs, wxs = _gl_unit(n)  # inner radius fraction x = r/s
    ss, wss = _gl_unit(n)  # outer radius s
    ang, wang = _angular_nodes(n)

    # the angular rule has constant weight, so sum angles then weight radially
    radial = np.empty((n, n), dtype=complex)
    for rows, vals in _grid_slabs(f, xs[:, None] * ss, np.broadcast_to(ss, (n, n)), ang):
        radial[rows] = np.einsum("ijkl->ij", vals)
        del vals
    # weight: (x s^3) dx ds dalpha dbeta
    w_rad = (wxs * xs)[:, None] * (wss * ss**3)[None, :]
    total = np.sum(radial * w_rad) * wang * wang
    return complex(total)


def sample_T_arrays(count: int, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized uniform sampler on T; returns (r, alpha, s, beta) arrays.

    Rejection from the unit bidisk: draw |z|, |w| with the area-uniform
    sqrt law, accept |z| < |w|.  Deterministic given the seed.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(seed)
    r = np.empty(count)
    alpha = np.empty(count)
    s = np.empty(count)
    beta = np.empty(count)
    filled = 0
    while filled < count:
        chunk = max(1024, int(2.2 * (count - filled)))
        rz = np.sqrt(rng.random(chunk))
        rw = np.sqrt(rng.random(chunk))
        az = rng.uniform(-np.pi, np.pi, chunk)
        bw = rng.uniform(-np.pi, np.pi, chunk)
        keep = rz < rw
        k = min(int(keep.sum()), count - filled)
        sel = np.flatnonzero(keep)[:k]
        r[filled : filled + k] = rz[sel]
        alpha[filled : filled + k] = az[sel]
        s[filled : filled + k] = rw[sel]
        beta[filled : filled + k] = bw[sel]
        filled += k
    return r, alpha, s, beta


def sample_T(count: int, seed) -> list[PolarPoint]:
    """i.i.d. uniform points of T with respect to dV, as PolarPoint objects."""
    r, alpha, s, beta = sample_T_arrays(count, seed)
    return [PolarPoint(float(a), float(b), float(c), float(d)) for a, b, c, d in zip(r, alpha, s, beta)]
