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
(r, alpha) of a piecewise-smooth closed form.  By the separate rotation
invariance in z and w the result depends on the center only through
(az, aw).

Rules.  Every integral below is a Gauss rule on pieces whose ends are the
integrand's kinks, each piece mapped by x = (1 - cos phi)/2 with phi Gauss
on (0, pi); the map absorbs the square-root edges at the piece ends.

* alpha: the integrand is even, so integrate over (0, pi) and double.  With
  k(r) = (r^2 + R^2 - rho^2)/(sqrt(2) r) the beta-fiber is the full circle
  for alpha < a2 = arccos((k + aw)/az) and empty beyond
  a1 = arccos((k - aw)/az) (arguments clipped to [-1, 1]), so (0, a2)
  contributes 2 pi a2 exactly and one mapped piece covers (a2, a1).  For
  az = 0 or aw = 0 the alpha-integral is closed form.
* r: the support, where a1 > 0, is (r - (az + aw)/sqrt(2))^2 < rho^2 -
  (az - aw)^2/2, cut at r_hi; it splits at the other roots of
  r^2 - sqrt(2) c r + R^2 - rho^2 for c in {+-(az + aw), +-(az - aw)}, where
  a1 or a2 reaches 0 or pi.
* cylinder: beta over (0, halfw), doubled, splits where the fiber radius
  below equals |1 - az| or 1 + az (the lens changes type); those points are
  closed form in sin(beta/2).

The quantities near a kink are differences of nearly equal numbers when a
ball is small or its center near the rim |z| = |w| = 1, so the code never
forms them as such: k + s1 az + s2 aw is a product of differences, each
arccos near an end of [-1, 1] becomes an arcsin of the distance to that end,
and the lens area is two circular segments from atan2 and Heron's product.
Without this, roundoff of order 1e-9 relative kept successive rules from
agreeing.

The node count is measured, not chosen: each ball runs its rule with 32
nodes per piece and doubles while two successive values differ by more than
1e-10 relative, returning the finer one.  ``QuadratureSpec.surface_cells``
is the ceiling; a ball that reaches it without agreement raises ValueError.
At 32 and 64 nodes the apex profile f(0) and the total sigma(bT) meet their
closed forms to about 1e-15.

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

import functools
from dataclasses import dataclass

import numpy as np

from .points import PolarPoint
from .quadrature import QuadratureSpec, gauss_legendre

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
_FIRST_NODES = 32  # nodes per piece of the first rule; doubled until two values agree
_AGREE_REL = 1e-10  # relative agreement of two successive rules that ends the doubling

SIGMA_BT_TOTAL = (4.0 * _SQ2 / 3.0) * np.pi**2 + 2.0 * np.pi**2
DIAM_T = 2.0 * _SQ2
ADR_WINDOW = (0.3, 30.0)  # frozen bounds on sigma(B_rho(p) cap bT)/rho^3


@functools.lru_cache(maxsize=None)
def _cosine_gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node rule on (0, 1): x = (1 - cos phi)/2 with phi Gauss on (0, pi).

    Read-only arrays shared between callers, like ``gauss_legendre``'s.
    """
    t, w = gauss_legendre(n)
    phi = 0.5 * np.pi * (t + 1.0)
    x = 0.5 * (1.0 - np.cos(phi))
    wx = (0.25 * np.pi) * w * np.sin(phi)
    x.flags.writeable = False
    wx.flags.writeable = False
    return x, wx


def _split_rule(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node cosine-mapped rule on each piece
    [edges[i], edges[i + 1]] of a sorted breakpoint list, concatenated."""
    edges = np.asarray(edges, dtype=float)
    x, wx = _cosine_gauss(n)
    a, width = edges[:-1, None], np.diff(edges)[:, None]
    return (a + width * x).ravel(), (width * wx).ravel()


def _measured(rule, ceiling: int, ball: tuple) -> float:
    """rule(m) at m = 32, 64, ... nodes per piece, doubled until two successive
    values agree to 1e-10 relative; returns the finer of the two.

    ValueError names the ball and the last two values when the next doubling
    would pass ``ceiling`` first.
    """
    m = _FIRST_NODES
    values = [rule(m)]
    while 2 * m <= ceiling:
        m *= 2
        values.append(rule(m))
        if abs(values[-1] - values[-2]) <= _AGREE_REL * abs(values[-1]):
            return values[-1]
    az, aw, rho = map(float, ball)
    raise ValueError(
        f"boundary ball (az={az!r}, aw={aw!r}, rho={rho!r}) not converged within {ceiling} nodes "
        f"per piece: last values {values[-2:]!r}"
    )


def _arccos_from_ends(u, v):
    """arccos(1 - u) for u + v = 2, from the smaller of u and v, so that it
    loses no digits near either end; 0 where u <= 0 and pi where v <= 0."""
    a = 2.0 * np.arcsin(np.sqrt(np.clip(0.5 * np.minimum(u, v), 0.0, 1.0)))
    return np.where(u <= v, a, np.pi - a)


def _cone_rule(az: float, aw: float, rho: float, lo: float, hi: float, n: int) -> float:
    """One cone-ball value with n nodes per piece (see the module docstring)."""
    # t = k + s1 az + s2 aw = ((r + e)^2 + f^2 - rho^2)/(sqrt2 r), e and f = (s1 az +- s2 aw)/sqrt2,
    # in a form that loses no digits away from its root; the alpha-window edges
    # reach 0 or pi at the roots r = -e +- sqrt(rho^2 - f^2)
    ef = [((s1 * az + s2 * aw) / _SQ2, (s1 * az - s2 * aw) / _SQ2) for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    cuts = [lo, hi]
    for e, f in ef:
        if rho > abs(f):
            half = np.sqrt((rho - f) * (rho + f))
            cuts += [x for x in (-e - half, -e + half) if lo < x < hi]
    r, wr = _split_rule(sorted(set(cuts)), n)
    t_pp, t_pm, t_mp, t_mm = (((r + e - rho) * (r + e + rho) + f * f) / (_SQ2 * r) for e, f in ef)

    # half-range alpha integral h(r) of the beta-fiber length 2 arccos((k - az cos alpha)/aw)
    if min(az, aw) < 1e-300:
        # the fiber length is constant in alpha (az = 0) or 0 / 2 pi (aw = 0): 2 arccos(k/a);
        # at the apex (a = 0) every r < rho has k < 0 and the full torus
        a = az + aw
        h = 2.0 * np.pi * (_arccos_from_ends(-t_mm / a, t_pp / a) if a > 0.0 else np.pi)
    else:
        a2 = _arccos_from_ends(-t_mp / az, t_pp / az)  # arccos((k + aw)/az): full circle on (0, a2)
        a1 = _arccos_from_ends(-t_mm / az, t_pm / az)  # arccos((k - aw)/az): empty beyond a1
        # on (a2, a1) the half fiber arccos(1 - u) = 2 arcsin(sqrt(u/2)), with
        # u/2 = (az + aw - k - 2 az sin^2(alpha/2))/(2 aw); exact in relative terms
        # for short arcs, and for arcs near pi its absolute error is harmless
        x, wx = _cosine_gauss(n)
        q = np.multiply(0.5 * (a1 - a2)[:, None], x)
        q += 0.5 * a2[:, None]
        np.sin(q, out=q)
        q *= q
        q *= -az / aw
        q -= (0.5 / aw) * t_mm[:, None]
        np.clip(q, 0.0, 1.0, out=q)
        np.sqrt(q, out=q)
        half_fiber = np.arcsin(q, out=q)
        h = 2.0 * np.pi * a2 + 4.0 * (a1 - a2) * (half_fiber @ wx)
    # Jacobian r^2/2 times 2 h (alpha over (-pi, pi))
    return float(np.sum(wr * r * r * h))


def _cone_ball(az: float, aw: float, rho: float, r_hi: float | None, n: int) -> float:
    """Measure of B_rho(center) on the cone surface, parameter r < r_hi.

    az, aw: center coordinate moduli.  n: ceiling on the measured node count
    per piece.
    """
    # some beta-fiber is nonempty iff (r - (az + aw)/sqrt2)^2 < rho^2 - (az - aw)^2/2
    dm = abs(az - aw) / _SQ2
    if rho <= dm:
        return 0.0
    cp, half = (az + aw) / _SQ2, np.sqrt((rho - dm) * (rho + dm))
    lo, hi = max(0.0, cp - half), cp + half
    if r_hi is not None:
        hi = min(hi, r_hi)
    if hi <= lo:
        return 0.0
    return _measured(lambda m: _cone_rule(az, aw, rho, lo, hi, m), n, (az, aw, rho))


def _segment(x: np.ndarray) -> np.ndarray:
    """x - sin(x) for x in [0, 2 pi]; below 1 by its Taylor series, which
    does not cancel."""
    out = x - np.sin(x)
    small = x < 1.0
    if small.any():
        xs = x[small]
        x2 = xs * xs
        term = xs * x2 / 6.0
        total = term.copy()
        for k in range(5, 18, 2):  # the first omitted term is below 1e-16 of the sum
            term *= -x2 / ((k - 1) * k)
            total += term
        out[small] = total
    return out


def _lens_area(big: float, small: np.ndarray, dist: float) -> np.ndarray:
    """Intersection area of a disk of radius ``big`` at 0 and disks of radii
    ``small`` centered at distance ``dist``; vectorized over ``small``.

    A lens is two circular segments, big^2 (2a - sin 2a)/2 + r^2 (2b - sin 2b)/2
    with a, b the half-angles at the two centers, from atan2 and Heron's
    product; no step cancels, so thin lenses keep their relative accuracy.
    """
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
        tri = ((big - dist) + rm) * ((dist - big) + rm) * ((dist + big) - rm) * (dist + big + rm)
        root = np.sqrt(np.maximum(tri, 0.0))
        a = np.arctan2(root, (dist - rm) * (dist + rm) + big * big)
        b = np.arctan2(root, (dist - big) * (dist + big) + rm * rm)
        vals[mid] = 0.5 * (big * big * _segment(2.0 * a) + rm * rm * _segment(2.0 * b))
    out[pos] = vals
    return out


def _cyl_rule(az: float, aw: float, base: float, halfw: float, n: int) -> float:
    """One cylinder-ball value with n nodes per piece of beta in (0, halfw);
    the squared fiber radius rho^2 - |e^{i beta} - aw|^2 is base - 4 aw sin^2(beta/2)."""
    cuts = [0.0, halfw]
    if aw > 0.0:
        # the lens changes type where the fiber radius is |1 - az| or 1 + az
        for edge in (abs(1.0 - az), 1.0 + az):
            q = (base - edge * edge) / (4.0 * aw)  # sin^2(beta/2) there
            if 0.0 < q < 1.0:
                cuts.append(2.0 * float(np.arcsin(np.sqrt(q))))
    cuts = [b for b in cuts if b <= halfw]
    beta, wb = _split_rule(sorted(set(cuts)), n)
    radii = np.sqrt(np.maximum(base - 4.0 * aw * np.sin(0.5 * beta) ** 2, 0.0))
    return float(2.0 * (_lens_area(1.0, radii, az) @ wb))  # the integrand is even in beta


def _cyl_ball(az: float, aw: float, rho: float, n: int) -> float:
    """Measure of B_rho(center) on the cylinder {|z| < 1, |w| = 1}.

    n: ceiling on the measured node count per piece.
    """
    base = (rho - abs(1.0 - aw)) * (rho + abs(1.0 - aw))  # squared fiber radius at beta = 0
    if base <= 0.0:
        return 0.0
    q = base / (4.0 * aw) if aw > 0.0 else np.inf  # sin^2(halfw/2)
    halfw = 2.0 * float(np.arcsin(np.sqrt(q))) if q < 1.0 else np.pi
    return _measured(lambda m: _cyl_rule(az, aw, base, halfw, m), n, (az, aw, rho))


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
    cyl = _cyl_ball(p.r, p.s, rho, n)
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
