"""Surface measure on the boundaries of T_inf and T; Ahlfors-David checks.

The cone boundary bT_inf = {|z| = |w|} is parametrized by

    p(r, alpha, beta) = (r e^{i alpha}, r e^{i beta}) / sqrt(2),   r >= 0,

whose 3D surface Jacobian is r^2/2, and |p(r, alpha, beta)| = r.  The ball
membership |p - p0| < rho reduces, for a center with coordinate moduli
(az, aw) = (|z0|, |w0|) and norm R, to

    r^2 + R^2 - sqrt(2) r (az cos(alpha - a0) + aw cos(beta - b0)) < rho^2,

so the beta-fiber of the indicator is an arc of exactly computable length
2 arccos(.), and the alpha-window where that length is positive is another
arccos.  The measure of a boundary ball is therefore a 2D integral over
(r, alpha) of a piecewise-smooth closed form; midpoint rules on the window
(Gauss rules are wrong for the kinked integrand) converge fast enough for
the 1e-4 / 1% tolerances used here.  By the separate rotation invariance in
z and w the result depends on the center only through (az, aw).

The cone rule uses n = surface_cells midpoint cells per axis: in r over the
ball's radial range, and in the alpha offset scaled to u in (-1, 1) over the
window.  Each distinct node is evaluated once.  The integrand is even in u,
so the nodes u >= 0 carry weight 2 (the node u = 0 of odd n keeps weight 1);
rows with an empty alpha-window are skipped; and the live rows are evaluated
in fixed blocks of rows with in-place ufuncs, so memory stays O(n) and no
n x n array is allocated.

The normalized profile f(t) = sigma(B_1(p) cap bT_inf) at |p| = t gives the
dilation law sigma(B_rho(p) cap bT_inf) = rho^3 f(|p|/rho), with

    f(0) = 2 pi^2 / 3,      f(t) -> 4 pi / 3   (t -> infinity).

bT splits into the cone part {|z| = |w| <= 1} (parameter r <= sqrt(2)) and
the cylinder part {|z| < 1, |w| = 1} with measure dA(z) dbeta; on the
cylinder the ball's beta-fiber is a disk of radius sqrt(rho^2 - |e^{i b} -
w0|^2) around z0, clipped to the unit disk: a two-circle lens with a closed
area formula.  Total measure: sigma(bT) = (4 sqrt(2)/3) pi^2 + 2 pi^2, and
diam(T) = 2 sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .points import PolarPoint
from .quadrature import QuadratureSpec

__all__ = [
    "ADRReport",
    "ADR_WINDOW",
    "SIGMA_BT_TOTAL",
    "DIAM_T",
    "f_profile",
    "sigma_ball_Tinf",
    "sigma_ball_Tinf_direct",
    "sigma_ball_bT",
    "adr_scan",
]

_SQ2 = np.sqrt(2.0)
_BLOCK_ROWS = 64  # r-rows of the (r, alpha) midpoint grid evaluated per block

SIGMA_BT_TOTAL = (4.0 * _SQ2 / 3.0) * np.pi**2 + 2.0 * np.pi**2
DIAM_T = 2.0 * _SQ2
ADR_WINDOW = (0.3, 30.0)  # frozen bounds on sigma(B_rho(p) cap bT)/rho^3


def _cone_ball(az: float, aw: float, rho: float, r_hi: float | None, n: int) -> float:
    """Measure of B_rho(center) on the cone surface, parameter r < r_hi.

    az, aw: center coordinate moduli; the center norm is R = hypot(az, aw).
    Exact beta-fiber length and alpha-window; midpoint over (r, alpha-scaled).
    """
    R = float(np.hypot(az, aw))
    lo, hi = max(0.0, R - rho), R + rho
    if r_hi is not None:
        hi = min(hi, r_hi)
    if hi <= lo:
        return 0.0
    r = lo + (np.arange(n) + 0.5) / n * (hi - lo)
    dr = (hi - lo) / n
    base = r * r + R * R - rho * rho

    # alpha half-window: fiber nonempty iff sqrt2 r az cos(da) > base - sqrt2 r aw
    q = base - _SQ2 * r * aw
    den = _SQ2 * r * az
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(den > 1e-300, q / den, np.where(q < 0.0, -np.inf, np.inf))
    halfw = np.arccos(np.clip(g, -1.0, 1.0))  # 0 when the window is empty

    live = halfw > 0.0
    r, base, halfw = r[live], base[live], halfw[live]
    # the integrand is even in the scaled alpha offset u_j = (2j + 1 - n)/n:
    # evaluate u >= 0 at weight 2 (the node u = 0 of odd n at weight 1)
    u = (2.0 * np.arange((n + 1) // 2) + (1 - n % 2)) / n
    weight = np.full(u.size, 2.0)
    weight[0] -= n % 2
    # beta-fiber argument c = A - B cos(halfw u); at aw = 0 only the sign of
    # A - B cos(.) matters: the fiber is the full circle where it is negative
    flat = aw < 1e-300
    if flat:
        A, B = base, _SQ2 * r * az
    else:
        A, B = base / (_SQ2 * r * aw), np.full(r.size, az / aw)

    half_blen = np.empty(r.size)  # per row: sum_j weight_j arccos(clip(c_j))
    buf = np.empty((min(_BLOCK_ROWS, r.size), u.size))
    for start in range(0, r.size, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, r.size))
        c = buf[: rows.stop - start]
        np.multiply(halfw[rows, None], u, out=c)
        np.cos(c, out=c)
        c *= -B[rows, None]
        c += A[rows, None]
        if flat:
            half_blen[rows] = np.pi * ((c < 0.0) @ weight)
        else:
            np.clip(c, -1.0, 1.0, out=c)
            np.arccos(c, out=c)
            half_blen[rows] = c @ weight
    alpha_int = 2.0 * half_blen * (2.0 * halfw / n)
    return float(np.sum(0.5 * r * r * alpha_int) * dr)


def _lens_area(big: float, small: np.ndarray, dist: float) -> np.ndarray:
    """Intersection area of a disk of radius ``big`` at 0 and disks of radii
    ``small`` centered at distance ``dist``; vectorized over ``small``."""
    small = np.asarray(small, dtype=float)
    out = np.zeros_like(small)
    pos = small > 0.0
    if not pos.any():
        return out
    r = small[pos]
    full = dist <= np.abs(big - r)  # one disk inside the other
    none = dist >= big + r
    mid = ~(full | none)
    vals = np.zeros_like(r)
    vals[full] = np.pi * np.minimum(big, r[full]) ** 2
    if mid.any():
        rm = r[mid]
        c1 = np.clip((dist**2 + big**2 - rm**2) / (2.0 * dist * big), -1.0, 1.0)
        c2 = np.clip((dist**2 + rm**2 - big**2) / (2.0 * dist * rm), -1.0, 1.0)
        tri = (-dist + rm + big) * (dist + rm - big) * (dist - rm + big) * (dist + rm + big)
        vals[mid] = (
            big**2 * np.arccos(c1)
            + rm**2 * np.arccos(c2)
            - 0.5 * np.sqrt(np.maximum(tri, 0.0))
        )
    out[pos] = vals
    return out


def _cyl_ball(az: float, aw: float, rho: float, n: int) -> float:
    """Measure of B_rho(center) on the cylinder {|z| < 1, |w| = 1}."""
    if aw < 1e-300:
        if rho * rho <= 1.0:
            return 0.0
        halfw = np.pi
    else:
        g = (1.0 + aw * aw - rho * rho) / (2.0 * aw)
        if g >= 1.0:
            return 0.0
        halfw = np.arccos(max(-1.0, g))
    db = (np.arange(n) + 0.5) / n * 2.0 * halfw - halfw
    fiber_sq = rho * rho - (1.0 + aw * aw - 2.0 * aw * np.cos(db))
    radii = np.sqrt(np.maximum(fiber_sq, 0.0))
    areas = _lens_area(1.0, radii, az)
    return float(areas.sum() * (2.0 * halfw / n))


def f_profile(t: float, spec: QuadratureSpec) -> float:
    """Normalized cone profile f(t) = sigma(B_1(p) cap bT_inf), |p| = t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    n = spec.surface_cells
    return _cone_ball(t / _SQ2, t / _SQ2, 1.0, None, n)


def _require_on_cone(p: PolarPoint, tol: float = 1e-9):
    if abs(p.r - p.s) > tol:
        raise ValueError(f"point (r={p.r}, s={p.s}) is not on the cone boundary")


def sigma_ball_Tinf(p: PolarPoint, rho: float, spec: QuadratureSpec) -> float:
    """sigma(B_rho(p) cap bT_inf) via the dilation law rho^3 f(|p|/rho)."""
    _require_on_cone(p)
    if rho <= 0:
        raise ValueError("rho must be > 0")
    return rho**3 * f_profile(p.norm() / rho, spec)


def sigma_ball_Tinf_direct(p: PolarPoint, rho: float, spec: QuadratureSpec) -> float:
    """Same measure by direct integration at the actual center and radius."""
    _require_on_cone(p)
    if rho <= 0:
        raise ValueError("rho must be > 0")
    return _cone_ball(p.r, p.s, rho, None, spec.surface_cells)


def sigma_ball_bT(p: PolarPoint, rho: float, spec: QuadratureSpec) -> float:
    """sigma(B_rho(p) cap bT): cone part (r <= sqrt 2) plus cylinder part."""
    on_cone = abs(p.r - p.s) <= 1e-9
    on_cyl = abs(p.s - 1.0) <= 1e-9 and p.r <= p.s + 1e-9
    if not (on_cone and p.s <= 1.0 + 1e-9) and not on_cyl:
        raise ValueError(f"point (r={p.r}, s={p.s}) is not on bT")
    if not 0.0 < rho <= DIAM_T:
        raise ValueError("rho must lie in (0, 2*sqrt(2)]")
    n = spec.surface_cells
    cone = _cone_ball(p.r, p.s, rho, _SQ2, n)
    cyl = _cyl_ball(p.r, p.s, rho, 4 * n)
    return cone + cyl


@dataclass(frozen=True)
class ADRReport:
    """Scan of sigma(B_rho(p) cap bT)/rho^3 over boundary centers and radii."""

    samples: tuple  # of (PolarPoint, rho, sigma)
    min_ratio: float
    max_ratio: float
    passed: bool

    def ratios(self) -> np.ndarray:
        return np.array([sig / rho**3 for (_, rho, sig) in self.samples])


def adr_scan(
    n_centers: int,
    rho_set,
    seed,
    spec: QuadratureSpec,
) -> ADRReport:
    """Tabulate boundary-ball ratios over random centers on both strata.

    Centers: half uniform in the cone parametrization (r in [0, sqrt 2],
    angles uniform), half uniform on the cylinder (z area-uniform in the
    unit disk, beta uniform).  pass requires every ratio inside ADR_WINDOW.
    """
    if n_centers < 1:
        raise ValueError("n_centers must be >= 1")
    rho_set = [float(x) for x in rho_set]
    if any(not 0.0 < x <= DIAM_T for x in rho_set):
        raise ValueError("radii must lie in (0, 2*sqrt(2)]")
    rng = np.random.default_rng(seed)
    n_cone = n_centers // 2
    centers = []
    for _ in range(n_cone):
        rc = rng.uniform(0.0, _SQ2)
        a, b = rng.uniform(-np.pi, np.pi, 2)
        centers.append(PolarPoint(rc / _SQ2, a, rc / _SQ2, b))
    for _ in range(n_centers - n_cone):
        rz = np.sqrt(rng.random())
        a, b = rng.uniform(-np.pi, np.pi, 2)
        centers.append(PolarPoint(rz, a, 1.0, b))

    samples = []
    for p in centers:
        for rho in rho_set:
            samples.append((p, rho, sigma_ball_bT(p, rho, spec)))
    ratios = np.array([sig / rho**3 for (_, rho, sig) in samples])
    lo, hi = float(ratios.min()), float(ratios.max())
    return ADRReport(
        samples=tuple(samples),
        min_ratio=lo,
        max_ratio=hi,
        passed=ADR_WINDOW[0] <= lo and hi <= ADR_WINDOW[1],
    )
