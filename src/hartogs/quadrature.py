"""Deterministic quadrature and sampling on the Hartogs triangle.

Integrals over T = {|z| < |w| < 1} are computed in polar coordinates,

    integral_T f dV = int_0^1 int_0^s int_{-pi}^{pi} int_{-pi}^{pi}
                      f(r, alpha, s, beta) r s  dalpha dbeta dr ds,

with the inner radius mapped affinely to the fixed square, r = s*x for
x in (0,1).  That substitution turns the triangle {0 < r < s < 1} into a
tensor-product square with smooth weight x*s^3 and removes the corner at the
origin (the Jacobian weight rs vanishes there anyway).

Rule layout per axis, all sizes ``QuadratureSpec.level``, from ``_tensor_rule``:

* x and s: Gauss-Legendre, exact for the polynomial radial profiles of the
  Laurent basis pairings (powers of r and s times the weight are polynomial
  in (x, s), including the |w|^{-2} pairing);
* alpha and beta: midpoint rule on equispaced periodic nodes, exact for
  trigonometric polynomials of degree < level.  This makes angular-mode
  orthogonality an identity of the discrete rule, not a tolerance race.

Memory: no 4-D grid is held whole.  ``_slab_sums`` evaluates f in row-slabs
of at most ``_SLAB_NODES`` nodes, one x-row at level 64, and keeps only the
caller's per-row reductions; it also holds the finite check.  Its callers are
``integrate_T`` and ``bergman.project`` (x-slabs of the tensor grid, (R, S) =
(x s, s)) and ``dbar.cutoff_commutator_check`` (t-slabs of the shell grid,
(R, S) = (t cos theta, t sin theta)).  ``integrate_T`` and the cutoff check
keep one angular sum per (i, j); ``project`` keeps the angular sums of
|f|^2 and reduces each slab to its pairings with the block, one per row and
block index, so every pass holds about one slab.  A slab keeps f's values as
float64 when they are real (bool, integer or float) and as complex128
otherwise, so a real integrand is summed as reals, from half the bytes;
``project`` takes its sums of |f|^2 from ``_abs2_sums``, re^2 + im^2 per
node over the float64 parts.  Each slab is evaluated
exactly as the whole grid would be, row for row, so ``integrate_T`` does not
depend on the slab size; ``project``'s transform may round differently in
the last bits.

Randomness: ``sample_T`` rejection-samples the unit bidisk (accept |z| < |w|,
acceptance rate 1/2) using numpy's default_rng, i.e. the PCG64 generator.
The generator choice is part of the package contract: changing it changes
frozen expected values and requires a major version bump.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np
import numpy.polynomial.legendre  # noqa: F401  (numpy loads these two lazily: at import here,
import numpy.random  # noqa: F401  not inside the first Gauss rule or the first draw)

from .points import PolarPoint

__all__ = [
    "QuadratureSpec",
    "NonFiniteIntegrandError",
    "gauss_kronrod",
    "gauss_legendre",
    "integrate_T",
    "sample_T",
    "sample_T_arrays",
]

#: Volume of T: int_T dV = (2 pi)^2 * int_0^1 s^3/2 ds = pi^2 / 2.
VOL_T = np.pi**2 / 2.0

#: Nodes per slab of ``_slab_sums``, for all three of its callers: the level^4
#: grids of integrate_T and bergman.project and the shell grid of
#: dbar.cutoff_commutator_check.  2^18 complex values are 4 MB, one x-row at
#: level 64; the whole grid (2^24 nodes) is 268 MB in one complex array alone.
#: At level 64 (2 vCPUs, numpy 2.4.6) the traced peak of integrate_T(|v_35|^2)
#: is 6.4 MB and that of project 5.3 MB, for v_23 and for the broadcast conj z
#: alike; with 2^20-node slabs, and project holding its whole angular
#: transform, they were 25.3 and 35.2 MB.  Over the three level-64 grid calls
#: of the benchmark's fine_grids workload (project of v_23 and of conj z,
#: integrate_T of |v_35|^2), in two runs of five repetitions with sizes
#: interleaved, the median time was 0.20 s at 2^18 nodes, 0.19 s at 2^20 and
#: 0.21-0.22 s at 2^22.  When 2^18 replaced 2^20 the workload's wall time
#: did not move, and its resident peak fell from 104.1 MB to 91.7 MB (medians
#: of ten runs each).  That peak is set by the Neumann eigensolves: in one
#: process the RSS is 38 MB after import, and the workload's spectral calls
#: alone take it to 61 MB (a 63 MB peak), so a smaller slab would not lower
#: it further.
_SLAB_NODES = 2**18


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls every integral in the package; the determinism anchor.

    level: per-axis node count of the tensor rule on T.
    surface_cells: ceiling on the nodes per piece of the boundary-ball rules.
        Each ball runs Gauss-Kronrod pairs, n Gauss nodes inside 2n + 1
        Kronrod nodes for n = 32, 64, ..., until a pair's two values agree
        (see :mod:`hartogs.boundary`).  Pair n runs while 2n is at most the
        ceiling, the count of the Gauss rule that would check its n-node
        rule by doubling; so at least 64, for the first pair.  The last pair
        that runs has 256 and 513 nodes under both this default, 768, and
        the 512 of :class:`hartogs.checks.RunParams`.
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


@functools.lru_cache(maxsize=None)
def gauss_kronrod(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule inside its (2n + 1)-node Kronrod
    extension on [-1, 1].

    Returns the 2n + 1 nodes, strictly increasing and symmetric about 0, and
    their weights as two rows: the Kronrod rule's, positive and exact through
    degree 3n + 1, and the Gauss rule's, 0 at the n + 1 added nodes.
    The Gauss nodes are ``nodes[1::2]``; they and their weights are
    ``gauss_legendre(n)``'s, bit for bit.  Built once per node count, on
    first use; the arrays are shared between callers and therefore read-only.

    Laurie's algorithm (Math. Comp. 66, 1997) gives the Jacobi-Kronrod
    matrix, whose diagonal is 0 for the symmetric Legendre weight; each inner
    loop of its mixed-moment recurrence is a cumulative sum over entries of
    the previous step.  The added nodes are that matrix's eigenvalues, and
    each Kronrod weight is the Christoffel number 1 / sum_k p_k(x)^2 of the
    matrix's orthonormal polynomials (p_0 = 1/sqrt 2), so no eigenvector is
    formed.
    """
    gauss, gauss_weights = gauss_legendre(n)
    # b[k]: squared off-diagonal entries; b[1 .. (3n + 1) // 2] are Legendre's k^2/(4k^2 - 1)
    k = np.arange((3 * n + 1) // 2 + 1, dtype=float)
    b = np.zeros(2 * n + 1)
    b[1:k.size] = k[1:] ** 2 / (4.0 * k[1:] ** 2 - 1.0)
    s, t = np.zeros(n // 2 + 3), np.zeros(n // 2 + 3)  # mixed moments of two steps, offset by one
    t[1] = b[n + 1]
    for m in range(n - 1):
        top = (m + 1) // 2  # k = top, ..., 0 and l = m - k
        s[top + 1:0:-1] = np.cumsum(b[n + 1 + top:n:-1] * s[top::-1] - b[m - top:m + 1] * s[top + 1:0:-1])
        s, t = t, s
    s[1:] = s[:-1].copy()  # the second phase indexes the moments one place further on
    for m in range(n - 1, 2 * n - 2):
        top = (m - 1) // 2 - (m + 1 - n)  # j = 0, ..., top for k = m + 1 - n + j and l = n - 1 - j
        s[1:top + 2] = np.cumsum(b[n - 1:n - 2 - top:-1] * s[2:top + 3] - b[m + 2:m + 3 + top] * s[1:top + 2])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[top + 1] / s[top + 2]
        s, t = t, s
    nodes = np.linalg.eigvalsh(np.diag(np.sqrt(b[1:]), -1))
    nodes = 0.5 * (nodes - nodes[::-1])
    nodes[1::2] = gauss  # the added nodes interlace the Gauss nodes, so these are every second one
    # Christoffel numbers from the three-term recurrence of the orthonormal polynomials
    root = np.sqrt(b)
    prev, p = np.zeros(nodes.size), np.full(nodes.size, 1.0 / np.sqrt(2.0))
    total = p * p
    for j in range(1, 2 * n + 1):
        prev, p = p, (nodes * p - root[j - 1] * prev) / root[j]
        total += p * p
    weights = np.zeros((2, nodes.size))
    weights[0] = 1.0 / total
    weights[1, 1::2] = gauss_weights
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


def _tensor_rule(t: np.ndarray, w: np.ndarray) -> SimpleNamespace:
    """Tensor rule on T from a Gauss rule (t, w) on (0, 1) in x = r/s and s,
    and n = len(t) midpoint angles: nodes t, weight factors wx = x w_x and
    ws = s^3 w_s, their (n, n) product W, the (n, n) nodes R = x s and S = s
    for ``_slab_sums``, and angles ang of weight wang.  Each caller passes
    ``_gl_unit(level)`` by its own module's name, so a patched rule stays local."""
    n = t.size
    ang, wang = _angular_nodes(n)
    wx, ws = w * t, w * t**3
    return SimpleNamespace(nodes=t, wx=wx, ws=ws, W=wx[:, None] * ws[None, :], R=t[:, None] * t,
                           S=np.broadcast_to(t, (n, n)), ang=ang, wang=wang)


def _slab_sums(f: Callable, R: np.ndarray, S: np.ndarray, ang: np.ndarray, reduce: Callable) -> list:
    """Per-row reductions of f over the 4-D grid (r, alpha, s, beta) =
    (R[i, j], ang[k], S[i, j], ang[l]), evaluated in row-slabs.

    f is called once per slab of consecutive rows (at least one row, at most
    ``_SLAB_NODES`` nodes), its values broadcast to the slab shape
    (rows, m, len(ang), len(ang)): float64 when f returns real values (bool,
    integer or float), complex128 otherwise.  A broadcast slab may be a
    read-only view with zero strides.  ``reduce(vals)`` is an iterable of
    the slab's reductions, each an array whose first axis is the slab's rows
    i; the other axes are the caller's (the angular sums keep j, and
    ``bergman.project`` reduces j too).  The slabs' reductions k are joined
    along that first axis into whole-grid array k, and the list of these
    arrays is returned.  Each slab is freed before f runs on the next, so
    memory is one slab plus the reductions.

    The finite check is on the first reduction, which must be a sum of f or
    of |f|^2 over the angles: a sum is nan/inf whenever one of its nodes is,
    so only a non-finite first reduction makes the slab be scanned.  The
    check runs before the next reduction is taken, so a generator computes
    no later reduction on a bad slab.  NonFiniteIntegrandError then names
    the slab's first nan/inf node, which is the grid's first, since every
    earlier slab had finite sums, and f runs on no later slab.  A non-finite
    sum of finite values (overflow) raises nothing.
    """
    A = ang[None, None, :, None]
    B = ang[None, None, None, :]
    n, m = R.shape
    step = max(1, _SLAB_NODES // (m * ang.size * ang.size))
    slabs = []
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        vals = np.asarray(f(R[rows, :, None, None], A, S[rows, :, None, None], B))
        vals = vals.astype(float if vals.dtype.kind in "biuf" else complex, copy=False)
        vals = np.broadcast_to(vals, (rows.stop - lo, m, ang.size, ang.size))
        sums = iter(reduce(vals))
        first = next(sums)
        if not np.isfinite(first).all():
            bad = np.argwhere(~np.isfinite(vals))
            if bad.size:
                i, j, a, b = bad[0]
                node = (float(R[lo + i, j]), float(ang[a]), float(S[lo + i, j]), float(ang[b]))
                raise NonFiniteIntegrandError(node, vals[i, j, a, b])
        slabs.append([first, *sums])
        del vals  # before f runs on the next slab
    return [np.concatenate(parts) for parts in zip(*slabs)]


def _abs2_sums(vals: np.ndarray) -> np.ndarray:
    """Sums of |vals|^2 over the last two axes of a 4-D slab, one per (i, j).

    One einsum over the float64 parts: a complex slab is read as its
    interleaved (re, im) pairs, so each node adds re^2 + im^2, with no square
    root taken and undone; a real slab adds its squares.  A slab that is not
    C-contiguous (a broadcast field) is copied first; a caller that reads the
    slab again makes it contiguous itself and passes that copy.
    """
    parts = np.ascontiguousarray(vals).view(np.float64)
    return np.einsum("ijkl,ijkl->ij", parts, parts)


def integrate_T(f: Callable, spec: QuadratureSpec) -> complex:
    """Integrate f over T with respect to dV = r s dr ds dalpha dbeta.

    ``f`` is called as ``f(r, alpha, s, beta)`` on broadcastable arrays and
    must return values (numpy semantics).  Real values are summed as
    float64, complex ones as complex128.  The result is always complex;
    real-valued callers take the real part themselves.

    f is evaluated on the ``_tensor_rule`` grid in x-slabs by ``_slab_sums``,
    whose finite check runs on the angular sums of f: NonFiniteIntegrandError
    names the first node where f is nan/inf, and a sum that overflows gives
    an inf or nan result.
    """
    rule = _tensor_rule(*_gl_unit(spec.level))
    # the angular rule has constant weight, so sum angles, then weight radially by W = x s^3 w_x w_s
    (radial,) = _slab_sums(f, rule.R, rule.S, rule.ang, lambda vals: [np.einsum("ijkl->ij", vals)])
    return complex(np.sum(radial * rule.W) * rule.wang * rule.wang)


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
