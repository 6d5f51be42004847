"""Uniform-domain geometry of the Hartogs triangle and its model cone.

Boundary distances (exact formulas):

    dist(p, bT_inf) = |s - r| / sqrt(2)                 on the cone |z| < |w|
    dist(p, bT)     = min{(s - r)/sqrt(2), 1 - s}       on T itself

Curve construction joining p1, p2 (polar data (r_j, alpha_j, s_j, beta_j),
angle differences wrapped to (-pi, pi]):

    r_* = min{r1, r2},   s^* = max{s1, s2} + |p1 - p2|,

central arc at constant radii (r_*, s^*) with both angles affine from
(alpha1, beta1) to (alpha2, beta2); endpoints q_j = (r_* e^{i alpha_j},
s^* e^{i beta_j}) joined to p_j by straight segments.  Because q_j keeps the
angles of p_j, each segment interpolates the two radii linearly at fixed
angles, so segment membership in the cone is exact (convex combinations
preserve r < s).  On T the arc is scaled by 1/(1 + 2|p1 - p2|), which pulls
s^* strictly below 1.

The construction certifies uniformity with explicit constants

    c = 5 + 2 pi < 12                                '' on T_inf
    c = (1 + 4 sqrt 2)(5 + 2 pi + 4 sqrt 2)/sqrt 2 < 80   on T

for both the length bound len(gamma) <= c |p1 - p2| and the cigar bound
min{|p - p1|, |p - p2|} <= c dist(p, boundary) along the curve.

The companion polar estimate used by the length bound:

    |r1-r2| + |s1-s2| + min(r1,r2)|a1-a2| + min(s1,s2)|b1-b2| <= 3 |p1-p2|

whenever |a1-a2|, |b1-b2| <= pi.

Each formula has one array implementation (``dist_boundary``,
``polar_lhs_arrays`` and the curve helpers ``_arc``, ``_length``,
``_pieces``), shared by ``verify_uniform``; the point-level functions and
the ``Curve`` methods are scalar views on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .points import PolarPoint, angle_diff, euclid
from .quadrature import sample_T_arrays

__all__ = [
    "C_TINF",
    "C_T",
    "Curve",
    "UniformityReport",
    "dist_boundary",
    "dist_bTinf",
    "dist_bT",
    "polar_lhs_arrays",
    "polar_lhs",
    "connect_Tinf",
    "connect_T",
    "verify_uniform",
]

C_TINF = 5.0 + 2.0 * np.pi
C_T = (1.0 + 4.0 * np.sqrt(2.0)) * (5.0 + 2.0 * np.pi + 4.0 * np.sqrt(2.0)) / np.sqrt(2.0)

_SQ2 = np.sqrt(2.0)


def dist_boundary(r, s, cap: bool):
    """Signed boundary distance on radius arrays: (s - r)/sqrt(2), capped by
    1 - s when cap (domain T).  Positive exactly inside the domain, so a
    nonpositive value flags a point on or outside the boundary."""
    d = (s - r) / _SQ2
    return np.minimum(d, 1.0 - s) if cap else d


def dist_bTinf(p: PolarPoint) -> float:
    """Distance to the cone boundary {|z| = |w|}: |s - r|/sqrt(2)."""
    return float(abs(dist_boundary(p.r, p.s, cap=False)))


def dist_bT(p: PolarPoint) -> float:
    """Distance to bT for p in T: min{(s - r)/sqrt(2), 1 - s}."""
    if not p.in_T():
        raise ValueError(f"point (r={p.r}, s={p.s}) is not in T")
    return float(dist_boundary(p.r, p.s, cap=True))


def polar_lhs_arrays(r1, a1, s1, b1, r2, a2, s2, b2):
    """Polar upper-bound functional on broadcastable arrays; <= 3 |p1 - p2|.

    Angle differences are wrapped to (-pi, pi] before use.
    """
    da = np.abs(angle_diff(a1, a2))
    db = np.abs(angle_diff(b1, b2))
    return np.abs(r1 - r2) + np.abs(s1 - s2) + np.minimum(r1, r2) * da + np.minimum(s1, s2) * db


def polar_lhs(p1: PolarPoint, p2: PolarPoint) -> float:
    """Scalar view of :func:`polar_lhs_arrays`."""
    return float(polar_lhs_arrays(*_polar(p1), *_polar(p2)))


def _polar(p: PolarPoint) -> tuple:
    return (p.r, p.alpha, p.s, p.beta)


# The curve helpers below take endpoints c1, c2 as (r, alpha, s, beta) tuples
# of scalars or of broadcastable arrays, and the arc as (R, S, dalpha, dbeta).


def _arc(c1, c2, rescale: bool):
    """Pair distance d and the arc (R, S, dalpha, dbeta) joining c1 to c2."""
    d = euclid(*c1, *c2)
    kappa = 1.0 / (1.0 + 2.0 * d) if rescale else 1.0
    R = kappa * np.minimum(c1[0], c2[0])
    S = kappa * (np.maximum(c1[2], c2[2]) + d)
    return d, (R, S, angle_diff(c2[1], c1[1]), angle_diff(c2[3], c1[3]))


def _length(c1, c2, arc):
    """Lengths of segment 1, the arc and segment 2.  Each segment keeps its
    endpoint's angles, so its length is the planar distance of the radii."""
    R, S, dal, dbe = arc
    return (np.hypot(c1[0] - R, c1[2] - S), np.hypot(R * dal, S * dbe), np.hypot(c2[0] - R, c2[2] - S))


def _pieces(c1, c2, arc, t):
    """Yield the (r, alpha, s, beta) samples of the three pieces at parameters t."""
    (r1, a1, s1, b1), (r2, a2, s2, b2), (R, S, dal, dbe) = c1, c2, arc
    shape = np.broadcast(r1, t).shape
    const = lambda x: np.broadcast_to(x, shape)
    # segment 1: radii p1 -> (R, S) at angles (alpha1, beta1)
    yield r1 + t * (R - r1), const(a1), s1 + t * (S - s1), const(b1)
    # arc at radii (R, S), both angles affine
    yield const(R), a1 + t * dal, const(S), b1 + t * dbe
    # segment 2: radii (R, S) -> p2 at angles (alpha2, beta2)
    yield R + t * (r2 - R), const(a2), S + t * (s2 - S), const(b2)


@dataclass(frozen=True)
class Curve:
    """Piecewise path p1 -> q1 -> (arc) -> q2 -> p2.

    The arc runs at constant radii (arc_r, arc_s); both angles vary affinely
    by the wrapped increments (dalpha, dbeta) from (alpha1, beta1).  The two
    segments interpolate radii linearly at the fixed angle pairs of their
    endpoints.
    """

    p1: PolarPoint
    p2: PolarPoint
    arc_r: float
    arc_s: float
    dalpha: float
    dbeta: float

    @property
    def q1(self) -> PolarPoint:
        return PolarPoint(self.arc_r, self.p1.alpha, self.arc_s, self.p1.beta)

    @property
    def q2(self) -> PolarPoint:
        return PolarPoint(self.arc_r, self.p2.alpha, self.arc_s, self.p2.beta)

    def _parts(self):
        return _polar(self.p1), _polar(self.p2), (self.arc_r, self.arc_s, self.dalpha, self.dbeta)

    def arc_length(self) -> float:
        return float(_length(*self._parts())[1])

    def length(self) -> float:
        """Closed-form total length |p1-q1| + arc + |q2-p2|."""
        return float(sum(_length(*self._parts())))

    def sample(self, n_per_piece: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(r, alpha, s, beta) arrays of 3*n points, t equispaced per piece."""
        if n_per_piece < 2:
            raise ValueError("need at least 2 samples per piece")
        pieces = _pieces(*self._parts(), np.linspace(0.0, 1.0, n_per_piece))
        return tuple(np.concatenate(coord) for coord in zip(*pieces))


def _connect(p1: PolarPoint, p2: PolarPoint, rescale: bool) -> Curve:
    d, arc = _arc(_polar(p1), _polar(p2), rescale)
    if d == 0.0:
        raise ValueError("endpoints coincide; no curve to construct")
    return Curve(p1, p2, *(float(x) for x in arc))


def connect_Tinf(p1: PolarPoint, p2: PolarPoint) -> Curve:
    """Uniformity curve joining two points of the cone T_inf."""
    for p in (p1, p2):
        if not p.in_Tinf():
            raise ValueError(f"point (r={p.r}, s={p.s}) is not in T_inf")
    return _connect(p1, p2, rescale=False)


def connect_T(p1: PolarPoint, p2: PolarPoint) -> Curve:
    """Uniformity curve joining two points of T (arc rescaled into T)."""
    for p in (p1, p2):
        if not p.in_T():
            raise ValueError(f"point (r={p.r}, s={p.s}) is not in T")
    return _connect(p1, p2, rescale=True)


@dataclass(frozen=True)
class UniformityReport:
    domain: str
    n_pairs: int
    n_curve_samples: int
    max_length_ratio: float
    max_dist_ratio: float
    min_boundary_dist: float
    constant_bound: float
    passed: bool


def _piece_ratios(piece, c1, c2, cap: bool):
    """Max cigar ratio and min boundary distance over one sampled piece.

    A function of its own so that the piece's (pairs, samples) temporaries
    are freed before the next piece is built.
    """
    rr, _, ss, _ = piece
    dmin = np.minimum(euclid(*piece, *c1), euclid(*piece, *c2))
    dist_b = dist_boundary(rr, ss, cap)
    ratio = np.where(dmin == 0.0, 0.0, dmin / dist_b)
    return float(ratio.max()), float(dist_b.min())


def verify_uniform(domain: str, n_pairs: int, n_curve_samples: int = 256, seed=0) -> UniformityReport:
    """Sample point pairs, build curves, certify both uniformity ratios.

    domain: "T" or "T_infinity".  Pairs are drawn uniformly on T, and for the
    cone additionally dilated by 2 (uniform on T_inf intersected with
    {|w| < 2}); the cone's ratios are dilation-invariant, so the window is
    only a parametrization choice.  Suprema are estimated from below by
    n_curve_samples equispaced parameters per piece.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if n_curve_samples < 2:
        raise ValueError("n_curve_samples must be >= 2")
    if domain not in ("T", "T_infinity"):
        raise ValueError(f"unknown domain {domain!r}")
    use_cap = domain == "T"
    bound = C_T if use_cap else C_TINF

    r, a, s, b = sample_T_arrays(2 * n_pairs, seed)
    if not use_cap:
        r, s = 2.0 * r, 2.0 * s

    lengths, ratios, bdists = [], [], []
    t = np.linspace(0.0, 1.0, n_curve_samples)
    chunk = max(1, min(n_pairs, 2_000_000 // n_curve_samples))
    for lo in range(0, n_pairs, chunk):
        hi = min(lo + chunk, n_pairs)
        # endpoints as (pairs, 1) columns against the (samples,) parameters
        c1 = tuple(x[lo:hi, None] for x in (r, a, s, b))
        c2 = tuple(x[n_pairs + lo : n_pairs + hi, None] for x in (r, a, s, b))
        d, arc = _arc(c1, c2, use_cap)
        lengths.append((sum(_length(c1, c2, arc)) / d).max())
        for piece in _pieces(c1, c2, arc, t):
            ratio, bdist = _piece_ratios(piece, c1, c2, use_cap)
            ratios.append(ratio)
            bdists.append(bdist)
    max_len, max_ratio, min_bdist = float(np.max(lengths)), float(np.max(ratios)), float(np.min(bdists))

    passed = max_len <= bound and max_ratio <= bound
    return UniformityReport(
        domain=domain,
        n_pairs=n_pairs,
        n_curve_samples=n_curve_samples,
        max_length_ratio=max_len,
        max_dist_ratio=max_ratio,
        min_boundary_dist=float(min_bdist),
        constant_bound=float(bound),
        passed=bool(passed),
    )
