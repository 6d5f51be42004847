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

whenever |a1-a2|, |b1-b2| <= pi; the sharp constant is pi/sqrt 2 in place
of 3 (see ``polar_lhs_arrays``).

``certify_uniform`` computes the three values of each curve exactly, a few
evaluations per pair:

* length: the closed form of ``_length``;
* cigar supremum: each segment is a straight line in C^2 (its angles are
  fixed).  The distance to its own endpoint is tL and the distance to the
  other endpoint sqrt(C + Bt + L^2 t^2); the two meet only at t* = -C/B.
  Each distance over the boundary distance is quasiconvex (a convex
  function over a positive concave one: affine on T_inf, the minimum of two
  affine functions on T), so the maximum lies at t in {0, t*, 1}.  On the
  arc the boundary distance is constant, the distance to p1 nondecreasing
  and the distance to p2 nonincreasing, so the maximum is at their
  crossing, bracketed by bisection and reported as an upper bound;
* containment: the boundary distance is concave on the segments and
  constant on the arc, so its minimum lies at p1, q1, q2 or p2.

``verify_uniform`` samples each piece at equispaced parameters instead: a
lower estimate of the cigar supremum, kept as the independent comparison.

Each formula has one array implementation (``dist_boundary``,
``polar_lhs_arrays`` and the curve helpers ``_arc``, ``_length``,
``_pieces``), shared by ``certify_uniform`` and ``verify_uniform``; the
point-level functions and the ``Curve`` methods are scalar views on it.
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
    "certify_uniform",
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

    Angle differences are wrapped to (-pi, pi] before use.  The sharp bound
    is lhs <= (pi/sqrt 2) |p1 - p2|, so sup lhs / (3 |p1 - p2|) =
    pi/(3 sqrt 2) = 0.7404804897, from a one-coordinate lemma:

        |r1 - r2| + min(r1, r2) |da| <= (pi/2) |z1 - z2|,   |da| <= pi.

    Proof.  Let r1 <= r2, h = r2 - r1, phi = |da|/2 in [0, pi/2] and
    z' = r1 e^{i a2}.  The chord a = |z1 - z'| = 2 r1 sin(phi) meets the
    radial segment b = |z' - z2| = h at z' at the angle pi/2 + phi, so
    |z1 - z2|^2 = a^2 + b^2 + 2ab sin(phi).  The arc r1 |da| is k a with
    k = phi/sin(phi) in [1, pi/2].  We need (b + k a)^2 <= (pi^2/4)|z1 - z2|^2.
    Since k^2 <= pi^2/4 and, by AM-GM, (pi^2/4 - 1) b^2 + (pi^2/4 - k^2) a^2
    >= 2 m ab with m = sqrt((pi^2/4 - 1)(pi^2/4 - k^2)), it suffices that
    k <= m + (pi^2/4) sin(phi).  For phi >= 1, sin(phi) >= 2 phi/pi gives
    (pi^2/4) sin(phi) >= pi/2 >= k.  For phi < 1, k <= 1/sin(1) < 1.19, so
    m > sqrt(1.4674 * 1.0513) > 1.24 > k.  Equality holds at h = 0,
    |da| = pi.  Adding the z and w lemmas and |z1-z2| + |w1-w2| <=
    sqrt 2 |p1 - p2| gives the sharp bound, attained at r1 = r2 = s1 = s2
    with |da| = |db| = pi.
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
    n_curve_samples: int | None  # None for the exact suprema of certify_uniform
    max_length_ratio: float
    max_dist_ratio: float
    min_boundary_dist: float
    constant_bound: float
    passed: bool


def _endpoints(domain: str, n_pairs: int, seed):
    """The seeded pairs of a uniformity run: (c1, c2, cap, bound).

    c1 and c2 are (r, alpha, s, beta) tuples of (n_pairs,) arrays.  Pairs are
    drawn uniformly on T, and for the cone additionally dilated by 2 (uniform
    on T_inf intersected with {|w| < 2}); the cone's ratios are
    dilation-invariant, so the window is only a parametrization choice.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if domain not in ("T", "T_infinity"):
        raise ValueError(f"unknown domain {domain!r}")
    cap = domain == "T"
    r, a, s, b = sample_T_arrays(2 * n_pairs, seed)
    if not cap:
        r, s = 2.0 * r, 2.0 * s
    c1 = tuple(x[:n_pairs] for x in (r, a, s, b))
    c2 = tuple(x[n_pairs:] for x in (r, a, s, b))
    return c1, c2, cap, (C_T if cap else C_TINF)


def _report(domain: str, n_curve_samples, bound: float, length, cigar, bdist) -> UniformityReport:
    max_len, max_ratio = float(np.max(length)), float(np.max(cigar))
    return UniformityReport(
        domain=domain,
        n_pairs=int(np.size(length)),
        n_curve_samples=n_curve_samples,
        max_length_ratio=max_len,
        max_dist_ratio=max_ratio,
        min_boundary_dist=float(np.min(bdist)),
        constant_bound=float(bound),
        passed=bool(max_len <= bound and max_ratio <= bound),
    )


def _segment_sup(near, far, arc, d, cap: bool):
    """Cigar maximum on the segment from endpoint ``near`` to its arc end q.

    At parameter t the distance to ``near`` is t L and the squared distance
    to ``far`` is C + B t + L^2 t^2, with C = d^2 and B = 2 Re<near - far,
    q - near>; the two are equal only at t* = -C/B.  Each ratio is
    quasiconvex on its side of t*, so the maximum is at t* or t = 1 (t = 0
    gives 0).
    """
    (rn, an, sn, bn), (rf, af, sf, bf), (R, S, _, _) = near, far, arc
    dr, ds = R - rn, S - sn
    L2 = dr * dr + ds * ds
    # Re<near - far, e^{i an}> = rn - rf cos(an - af), without cancellation
    B = 2.0 * (dr * (rn - rf + 2.0 * rf * np.sin(0.5 * (an - af)) ** 2)
               + ds * (sn - sf + 2.0 * sf * np.sin(0.5 * (bn - bf)) ** 2))
    C = d * d
    t_star = np.divide(C, -B, out=np.ones_like(B), where=B < 0.0)  # B >= 0: far is never nearer
    t = np.stack([np.minimum(t_star, 1.0), np.ones_like(t_star)])
    dmin = np.minimum(t * np.sqrt(L2), np.sqrt(np.maximum(C + t * (B + t * L2), 0.0)))
    return np.max(dmin / dist_boundary(rn + t * dr, sn + t * ds, cap), axis=0)


def _arc_sup(c1, c2, arc, cap: bool):
    """Upper bound on the cigar maximum over the arc, and its boundary distance.

    The distance to p1 is nondecreasing along the arc and the distance to p2
    nonincreasing, because every angle moves by t * delta with |delta| <= pi.
    Bisection keeps d1 < d2 left of lo and d1 >= d2 right of hi, so every
    arc point has min(d1, d2) <= min(d1(hi), d2(lo)), which exceeds the
    maximum by at most the Lipschitz bound over a 2^-60 bracket.
    """
    R, S, dal, dbe = arc
    a1, b1 = c1[1], c1[3]

    def at(t):
        return R, a1 + t * dal, S, b1 + t * dbe

    lo, hi = np.zeros_like(R), np.ones_like(R)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left = euclid(*at(mid), *c1) < euclid(*at(mid), *c2)
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    bd = dist_boundary(R, S, cap)
    return np.minimum(euclid(*at(hi), *c1), euclid(*at(lo), *c2)) / bd, bd


def _exact_suprema(c1, c2, cap: bool):
    """Per-pair length ratio, cigar supremum and minimum boundary distance.

    c1, c2 are endpoint tuples of (pairs,) arrays.  The boundary distance is
    concave along each segment and constant on the arc, so its minimum lies
    at p1, p2 or the arc radii (R, S) of q1 and q2.
    """
    d, arc = _arc(c1, c2, cap)
    length = sum(_length(c1, c2, arc)) / d
    seg1 = _segment_sup(c1, c2, arc, d, cap)
    on_arc, arc_bd = _arc_sup(c1, c2, arc, cap)
    seg2 = _segment_sup(c2, c1, arc, d, cap)
    ends = dist_boundary(np.stack([c1[0], c2[0]]), np.stack([c1[2], c2[2]]), cap)
    return length, np.max([seg1, on_arc, seg2], axis=0), np.minimum(arc_bd, np.min(ends, axis=0))


def _piece_ratios(piece, c1, c2, cap: bool):
    """Per-pair max cigar ratio and min boundary distance over one sampled piece.

    A function of its own so that the piece's (pairs, samples) temporaries
    are freed before the next piece is built.
    """
    rr, _, ss, _ = piece
    dmin = np.minimum(euclid(*piece, *c1), euclid(*piece, *c2))
    dist_b = dist_boundary(rr, ss, cap)
    ratio = np.where(dmin == 0.0, 0.0, dmin / dist_b)
    return np.max(ratio, axis=-1), np.min(dist_b, axis=-1)


def _sampled_suprema(c1, c2, cap: bool, n_samples: int):
    """The values of :func:`_exact_suprema` from n_samples equispaced
    parameters per piece: the cigar maximum from below, the boundary
    distance minimum from above."""
    c1, c2 = (tuple(x[:, None] for x in c) for c in (c1, c2))  # (pairs, 1) against (samples,)
    d, arc = _arc(c1, c2, cap)
    length = sum(_length(c1, c2, arc)) / d
    pieces = _pieces(c1, c2, arc, np.linspace(0.0, 1.0, n_samples))
    ratios, bdists = zip(*(_piece_ratios(piece, c1, c2, cap) for piece in pieces))
    return length[:, 0], np.max(ratios, axis=0), np.min(bdists, axis=0)


def certify_uniform(domain: str, n_pairs: int, seed=0) -> UniformityReport:
    """Exact suprema of both uniformity ratios over seeded point pairs.

    domain: "T" or "T_infinity"; the pairs are those of
    :func:`verify_uniform` at the same seed.  The cigar value is an upper
    bound on each curve's supremum, tight to rounding.
    """
    c1, c2, cap, bound = _endpoints(domain, n_pairs, seed)
    return _report(domain, None, bound, *_exact_suprema(c1, c2, cap))


def verify_uniform(domain: str, n_pairs: int, n_curve_samples: int = 256, seed=0) -> UniformityReport:
    """Sampled lower estimate of the suprema that :func:`certify_uniform`
    computes exactly, from n_curve_samples equispaced parameters per piece.

    domain: "T" or "T_infinity".  Kept as the independent comparison for the
    exact values.
    """
    if n_curve_samples < 2:
        raise ValueError("n_curve_samples must be >= 2")
    c1, c2, cap, bound = _endpoints(domain, n_pairs, seed)
    chunk = max(1, 2_000_000 // n_curve_samples)
    parts = [
        _sampled_suprema(*(tuple(x[lo : lo + chunk] for x in c) for c in (c1, c2)), cap, n_curve_samples)
        for lo in range(0, n_pairs, chunk)
    ]
    return _report(domain, n_curve_samples, bound, *(np.concatenate(values) for values in zip(*parts)))
