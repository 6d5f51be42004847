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

Rules.  Every integral below is a quadrature rule on pieces whose ends are
the integrand's kinks, each piece mapped by x = (1 - cos phi)/2 with phi the
rule's nodes on (0, pi); the map absorbs the square-root edges at the piece
ends.

* alpha: the integrand is even, so integrate over (0, pi) and double.  With
  k(r) = (r^2 + R^2 - rho^2)/(sqrt(2) r) the beta-fiber is the full circle
  for alpha < a2 = arccos((k + aw)/az) and empty beyond
  a1 = arccos((k - aw)/az) (arguments clipped to [-1, 1]), so (0, a2)
  contributes 2 pi a2 exactly and one mapped piece covers (a2, a1).  For
  az = 0 or aw = 0 the alpha-integral is closed form.
* r: the support, where a1 > 0, is (r - (az + aw)/sqrt(2))^2 < rho^2 -
  (az - aw)^2/2, cut at r_hi; it splits at the other roots of
  r^2 - sqrt(2) c r + R^2 - rho^2 for c in {+-(az + aw), +-(az - aw)}, where
  a1 or a2 reaches 0 or pi.  Where a pair of those roots is complex it splits
  at their real part c/sqrt(2): near tangency the pair lies close to the
  axis, and without that cut the integrand's near-kink there left Gauss
  converging only algebraically.
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

The node count is measured, not chosen: each piece's rule is a Gauss-Kronrod
pair (``quadrature.gauss_kronrod``), the 32-node Gauss rule inside a 65-node
Kronrod rule, so one pass over 65 nodes gives both values.  Their difference
is the error of the 32-node rule, and a ball whose two values agree to 1e-10
relative returns the Kronrod value; otherwise it runs the next pair, 64 in
129, and so on.  Pair n runs while 2n is at most
``QuadratureSpec.surface_cells``; a ball still unresolved then raises
:class:`BallNotConvergedError`, a ValueError that names its last pair.  The
cone's nested alpha-rule is the same pair, so the estimate covers it too
(``_cone_h``).  At the first pair the apex profile f(0) and the total
sigma(bT) meet their closed forms to better than 1e-15 relative.

Batches.  ``_cone_ball`` and ``_cyl_ball`` take arrays of balls (az, aw,
rho) and return one value per ball; a call with numbers is a batch of one
and returns a float.  The two kernels hold only their geometry: each ball's
breakpoints and piece parameters, and one or more parts, an integrand with
the mask of balls it serves (the cone's balls with min(az, aw) < 1e-300
take the closed-form alpha-integral).  One driver, ``_measured``, measures
every batch.  Each ball's breakpoints are sorted row-wise, repeated and
absent ones give no piece, and the surviving pieces of all balls form one
table with a ball id per piece, so no ball is padded to the widest one;
per-ball values are sums by ball id, and a ball with no pieces is 0.  Each
array pass evaluates one pair, one ``_piece_sums`` call per part that has
pieces, and after the first only for the balls, under a mask, whose pair
still disagreed.  Pieces run in blocks, and the cone's (r-node x
alpha-node) work array in blocks of ``_BLOCK_CELLS`` values, so memory does
not grow with the batch.  The public functions accept a sequence of points
for one such batch, and ``adr_scan`` evaluates every (center, radius) pair
in one ``sigma_ball_bT`` call.

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
from dataclasses import dataclass, field

import numpy as np

from .points import PolarPoint
from .quadrature import QuadratureSpec, gauss_kronrod

__all__ = [
    "ADRReport",
    "BallNotConvergedError",
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
_FIRST_NODES = 32  # Gauss nodes of the first pair, in 2 * 32 + 1 Kronrod nodes per piece
_AGREE_REL = 1e-10  # relative agreement of a pair's Gauss and Kronrod values that ends a ball
#: Values in one block of a rule pass: the cone's (r-node x alpha-node) work
#: array, and the node arrays of a block of pieces.  The blocks keep a pass's
#: memory from growing with the number of balls in it.
_BLOCK_CELLS = 2**14


class BallNotConvergedError(ValueError):
    """A boundary ball whose rules still disagree at the node ceiling."""


SIGMA_BT_TOTAL = (4.0 * _SQ2 / 3.0) * np.pi**2 + 2.0 * np.pi**2
DIAM_T = 2.0 * _SQ2
ADR_WINDOW = (0.3, 30.0)  # frozen bounds on sigma(B_rho(p) cap bT)/rho^3


@functools.lru_cache(maxsize=None)
def _cosine_kronrod(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pair ``gauss_kronrod(n)`` on (0, 1): 2n + 1 nodes x = (1 - cos phi)/2
    with phi the pair's nodes on (0, pi), and their weights as two rows, the
    Kronrod rule's and the n-node Gauss rule's (0 at the added nodes).

    Read-only arrays shared between callers, like ``gauss_kronrod``'s.
    """
    t, w = gauss_kronrod(n)
    phi = 0.5 * np.pi * (t + 1.0)
    x = 0.5 * (1.0 - np.cos(phi))
    wx = (0.25 * np.pi) * w * np.sin(phi)
    x.flags.writeable = False
    wx.flags.writeable = False
    return x, wx


def _balls(az, aw, rho, *more):
    """Ball parameters as rows of one float array, one column per ball, and
    whether every parameter was a number (then ``_measured`` returns a float).

    ValueError if a centre modulus or radius is not finite.
    """
    params = (az, aw, rho, *more)
    shape = np.broadcast(*params).shape
    balls = np.empty((len(params), *shape))
    for i, p in enumerate(params):
        balls[i] = p
    if np.count_nonzero(~np.isfinite(balls[:3])):
        raise ValueError("boundary balls need finite centre moduli and radii")
    return balls.reshape(len(params), -1), not shape


def _pieces(cuts: np.ndarray, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pieces between the sorted breakpoints of each row (ball) of
    ``cuts``, NaN where a breakpoint is absent; repeated cuts give no piece.

    Returns a table with one row per piece, ball-major: left end, width, then
    the ball's row of ``params``; and the ball id of each piece.
    """
    cuts = np.sort(cuts, axis=1)  # NaN sorts last
    width = cuts[:, 1:] - cuts[:, :-1]
    keep = width > 0.0
    ball = np.nonzero(keep)[0]
    table = np.empty((ball.size, 2 + params.shape[1]))
    table[:, 0] = cuts[:, :-1][keep]
    table[:, 1] = width[keep]
    table[:, 2:] = params[ball]
    return table, ball


def _piece_sums(table, ball, n: int, per_node: int, integrand, nballs: int) -> np.ndarray:
    """Per-ball Kronrod and Gauss sums, as a (2, nballs) array, of one part's
    cosine-mapped pair n (``_cosine_kronrod``) over the pieces of ``table``
    (rows as made by ``_pieces``); one pass of ``_measured``.

    integrand(nodes, rows) is the integrand at the (pieces, 2n + 1) nodes of
    those rows of the table: one value per node, which both rules read, or a
    leading (Kronrod, Gauss) axis of two values when the integrand holds a
    nested rule of its own (``_cone_h``).  Each rule is a matrix-vector
    product.  The pieces run in blocks (of at least one piece) whose work
    arrays, about ``per_node`` values for each node, hold at most
    ``_BLOCK_CELLS`` values.
    """
    x, wx = _cosine_kronrod(n)
    sums = np.empty((2, len(table)))
    step = max(1, _BLOCK_CELLS // (per_node * x.size))
    for k in range(0, len(table), step):
        rows = table[k:k + step]
        values = integrand(rows[:, :1] + rows[:, 1:2] * x, rows)
        if values.ndim == 2:
            values = values, values
        for rule in range(2):
            sums[rule, k:k + step] = (values[rule] @ wx[rule]) * rows[:, 1]
    return np.array([np.bincount(ball, weights=rule, minlength=nballs) for rule in sums])


def _check_ceiling(ceiling: int) -> None:
    """ValueError unless a node ceiling per piece admits the first pair, that
    is, unless it is at least 2 * 32."""
    if 2 * _FIRST_NODES > ceiling:
        raise ValueError(f"a node ceiling of {ceiling} per piece admits no Gauss-Kronrod pair: the first, "
                         f"{_FIRST_NODES} Gauss nodes in {2 * _FIRST_NODES + 1}, needs a ceiling of at least "
                         f"{2 * _FIRST_NODES}")


def _measured(cuts, params, parts, ceiling: int, balls, scalar: bool):
    """The one driver of every ball batch: per ball, the sum over the pieces
    between its ``cuts`` (made by ``_pieces`` with ``params``) of the
    Gauss-Kronrod pairs n = 32, 64, ... with 2n <= ``ceiling``: the first
    pair whose n-node Gauss value agrees with its (2n + 1)-node Kronrod value
    to 1e-10 relative ends the ball, and the Kronrod value is returned.  The
    difference estimates the error of the n-node Gauss rule, and the Kronrod
    value is the more accurate of the two.

    parts: (integrand, per_node, ball_mask), each summed by ``_piece_sums``
    over the pieces of the balls in its mask, and dropped if that has none.
    Each pass runs one pair over the balls not yet converged; a ball with no
    pieces is 0.  Returns a float if ``scalar``, else one value per ball.
    ValueError if the ceiling is below 2 * 32, which admits no pair;
    BallNotConvergedError names the first unresolved ball of ``balls`` (az,
    aw, rho), the node counts of its last pair and that pair's two values.
    """
    _check_ceiling(ceiling)
    table, ball = _pieces(cuts, params)
    parts = [(integrand, per_node, on[ball]) for integrand, per_node, on in parts]  # masks of pieces
    parts = [part for part in parts if np.count_nonzero(part[2])]
    nballs = len(cuts)
    todo = np.bincount(ball, minlength=nballs) > 0
    out = np.zeros(nballs)
    n = _FIRST_NODES
    while 2 * n <= ceiling and np.count_nonzero(todo):
        run = todo[ball]
        kronrod, gauss = sum(_piece_sums(table[run & on], ball[run & on], n, per_node, integrand, nballs)
                             for integrand, per_node, on in parts)
        done = todo & (np.abs(kronrod - gauss) <= _AGREE_REL * np.abs(kronrod))
        out[done] = kronrod[done]
        todo &= ~done
        n *= 2
    if np.count_nonzero(todo):
        i = int(np.flatnonzero(todo)[0])
        az, aw, rho = (float(x[i]) for x in balls)
        raise BallNotConvergedError(
            f"boundary ball (az={az!r}, aw={aw!r}, rho={rho!r}) not converged by the Gauss-Kronrod pair of "
            f"{n // 2} and {n + 1} nodes per piece: Gauss and Kronrod values {[float(gauss[i]), float(kronrod[i])]!r}"
        )
    return float(out[0]) if scalar else out


def _arccos_from_ends(u, v):
    """arccos(1 - u) for u + v = 2, from the smaller of u and v (at most 1),
    so that it loses no digits near either end; 0 where u <= 0 and pi where
    v <= 0."""
    a = 2.0 * np.arcsin(np.sqrt(np.maximum(0.5 * np.minimum(u, v), 0.0)))
    return np.where(u <= v, a, np.pi - a)


# columns of the cone piece table after left end and width: e (4), f^2 (4), then these
_RHO, _AZ, _AW, _RATIO, _HALF = range(10, 15)
_S1, _S2 = np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])


def _cone_h(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Half-range alpha integral h(r) of the beta-fiber length 2 arccos((k - az
    cos alpha)/aw) at the (pieces, m) r-nodes of a Gauss-Kronrod pair (m =
    2n + 1 for pair n), by the same pair on the window (a2, a1): one (r-node
    x alpha-node) work array, reduced by the pair's two weight rows, gives
    h_K and h_G, stacked on a leading axis.  The outer Gauss rule reads h_G
    only at its own n r-nodes, so the Gauss value is the plain n x n tensor
    rule and the pair's difference covers the alpha-rule's error as well as
    the r-rule's.

    t[..., s] = k + s1 az + s2 aw for (s1, s2) = (1, 1), (1, -1), (-1, 1),
    (-1, -1); rows: the pieces' rows of the cone table.
    """
    tz = t / rows[:, _AZ, None, None]
    # a2 = arccos((k + aw)/az): full circle on (0, a2); a1 = arccos((k - aw)/az): empty beyond a1
    ends = _arccos_from_ends(-tz[..., 2:], tz[..., :2])
    a2, a1 = ends[..., 0], ends[..., 1]
    window = a1 - a2
    # on (a2, a1) the half fiber arccos(1 - u) = 2 arcsin(sqrt(u/2)), with
    # u/2 = (az + aw - k - 2 az sin^2(alpha/2))/(2 aw); exact in relative terms
    # for short arcs, and for arcs near pi its absolute error is harmless
    # one row per r-node: the half-angle window and the terms of u/2
    m, n = t.shape[1], a2.size
    x, wx = _cosine_kronrod(m // 2)
    start, width = (0.5 * a2).reshape(n), (0.5 * window).reshape(n)
    ratio, offset = np.repeat(rows[:, _RATIO], m), (rows[:, _HALF, None] * t[..., 3]).reshape(n)
    half_fiber = np.empty((2, n))
    step = max(1, _BLOCK_CELLS // m)  # rows per block of the (r-node x alpha-node) work array
    work, denominator = np.empty((2, min(step, n), m))  # reused by every block
    for k in range(0, n, step):
        block = slice(k, k + step)
        q, den = work[:min(step, n - k)], denominator[:min(step, n - k)]
        np.multiply(width[block, None], x, out=q)
        q += start[block, None]
        # sin^2 = tan^2/(1 + tan^2), no cancellation; numpy's float64 tan takes a fifth of
        # the time of its sin (numpy 2.4, x86-64 with AVX-512)
        np.tan(q, out=q)
        q *= q
        np.add(q, 1.0, out=den)
        q /= den
        q *= ratio[block, None]
        q -= offset[block, None]
        np.maximum(q, 0.0, out=q)
        np.minimum(q, 1.0, out=q)
        np.sqrt(q, out=q)
        np.arcsin(q, out=q)
        half_fiber[0, block], half_fiber[1, block] = q @ wx[0], q @ wx[1]
    return 2.0 * np.pi * a2 + 4.0 * window * half_fiber.reshape(2, *a2.shape)


def _cone_h_closed(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """h(r) for a centre with az = 0 or aw = 0, a = az + aw: the fiber length
    is constant in alpha (az = 0) or 0 / 2 pi (aw = 0), 2 arccos(k/a); at the
    apex (a = 0) every r < rho has k < 0 and the full torus."""
    a = rows[:, _AZ, None] + rows[:, _AW, None]
    apex = a == 0.0
    a = np.where(apex, 1.0, a)
    return 2.0 * np.pi * np.where(apex, np.pi, _arccos_from_ends(-t[..., 3] / a, t[..., 0] / a))


def _cone_r2h(r: np.ndarray, rows: np.ndarray, h) -> np.ndarray:
    """The cone integrand r^2 h(r) (the Jacobian r^2/2 times 2 h, alpha over
    (-pi, pi)) at the (pieces, 2n + 1) nodes r of those rows of the cone
    table, with h = _cone_h (Kronrod and Gauss values on a leading axis) or
    _cone_h_closed (one value per node)."""
    # t = k + s1 az + s2 aw = ((r + e)^2 + f^2 - rho^2)/(sqrt2 r), which loses no digits
    # away from its root
    re = r[..., None] + rows[:, None, 2:6]
    rho = rows[:, _RHO, None, None]
    t = (re - rho) * (re + rho)
    t += rows[:, None, 6:10]
    t /= (_SQ2 * r)[..., None]
    return r * r * h(t, rows)


def _cone_ball(az, aw, rho, r_hi, n: int):
    """Measure of B_rho(center) on the cone surface, parameter r < r_hi.

    az, aw, rho, r_hi: centre coordinate moduli, radius and cut (None: no
    cut), numbers or 1-D arrays, one ball each; returns a float for numbers,
    else one value per ball.  n: ceiling on the measured node count per piece.
    """
    (az, aw, rho, r_hi), scalar = _balls(az, aw, rho, np.inf if r_hi is None else r_hi)
    # with e and f = (s1 az +- s2 aw)/sqrt2, t = k + s1 az + s2 aw = ((r + e)^2 + f^2 - rho^2)/(sqrt2 r):
    # the alpha-window edges reach 0 or pi at the roots r = -e +- sqrt(rho^2 - f^2); where
    # those are complex, the vertex r = -e is a near-kink when the ball is near tangency
    sz, sw, rr = az[:, None] * _S1, aw[:, None] * _S2, rho[:, None]
    e, f = (sz + sw) / _SQ2, (sz - sw) / _SQ2
    square = (rr - f) * (rr + f)
    real = square > 0.0
    root = np.sqrt(np.where(real, square, np.nan))  # NaN where that edge never moves
    cuts = np.empty((az.size, 12))
    np.subtract(-e, root, out=cuts[:, :4])
    np.subtract(root, e, out=cuts[:, 4:8])
    cuts[:, 8:] = np.where(real, np.nan, -e)
    # for s1 = s2 = -1 the roots (az + aw)/sqrt2 -+ sqrt(rho^2 - (az - aw)^2/2) bound the
    # support, where some beta-fiber is nonempty; r_hi cuts it, and the other roots
    # are clipped to it, so a root outside repeats an end and an empty ball has no pieces
    lo, hi = np.maximum(cuts[:, 3:4], 0.0), cuts[:, 7:8]
    np.minimum(hi, r_hi[:, None], out=hi)
    np.maximum(hi, lo, out=hi)
    np.minimum(np.maximum(cuts, lo, out=cuts), hi, out=cuts)

    closed = np.minimum(az, aw) < 1e-300  # the closed-form branch, _cone_h_closed
    aw_div = np.where(closed, 1.0, aw)
    params = np.empty((az.size, 13))
    params[:, :4] = e
    np.multiply(f, f, out=params[:, 4:8])
    params[:, 8] = rho
    params[:, 9] = az
    params[:, 10] = aw
    np.divide(-az, aw_div, out=params[:, 11])
    np.divide(0.5, aw_div, out=params[:, 12])
    parts = [(functools.partial(_cone_r2h, h=h), 16, on) for h, on in ((_cone_h, ~closed), (_cone_h_closed, closed))]
    return _measured(cuts, params, parts, n, (az, aw, rho), scalar)


def _segment(x: np.ndarray) -> np.ndarray:
    """x - sin(x) for x in [0, 2 pi]; below 1 by its Taylor series, which
    does not cancel."""
    out = x - np.sin(x)
    small = x < 1.0
    if np.count_nonzero(small):
        xs = x[small]
        x2 = xs * xs
        term = xs * x2 / 6.0
        total = term.copy()
        for k in range(5, 18, 2):  # the first omitted term is below 1e-16 of the sum
            term *= -x2 / ((k - 1) * k)
            total += term
        out[small] = total
    return out


def _lens_area(big: float, small: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Intersection area of a disk of radius ``big`` at 0 and disks of radii
    ``small`` >= 0 centered at distances ``dist``, elementwise.

    A lens is two circular segments, big^2 (2a - sin 2a)/2 + r^2 (2b - sin 2b)/2
    with a, b the half-angles at the two centers, from atan2 and Heron's
    product; no step cancels, so thin lenses keep their relative accuracy.
    """
    out = np.zeros(small.shape)
    full = dist <= np.abs(big - small)  # one disk inside the other
    mid = ~full & (dist < big + small)
    out[full] = np.pi * np.minimum(big, small[full]) ** 2
    if np.count_nonzero(mid):
        rm, d = small[mid], dist[mid]
        tri = ((big - d) + rm) * ((d - big) + rm) * ((d + big) - rm) * (d + big + rm)
        root = np.sqrt(np.maximum(tri, 0.0))
        a = np.arctan2(root, (d - rm) * (d + rm) + big * big)
        b = np.arctan2(root, (d - big) * (d + big) + rm * rm)
        out[mid] = 0.5 * (big * big * _segment(2.0 * a) + rm * rm * _segment(2.0 * b))
    return out


def _cyl_ball(az, aw, rho, n: int):
    """Measure of B_rho(center) on the cylinder {|z| < 1, |w| = 1}.

    az, aw, rho as for ``_cone_ball``.  n: ceiling on the measured node count
    per piece.  beta runs over (0, halfw), doubled; the squared fiber radius
    rho^2 - |e^{i beta} - aw|^2 is base - 4 aw sin^2(beta/2).
    """
    (az, aw, rho), scalar = _balls(az, aw, rho)
    base = (rho - np.abs(1.0 - aw)) * (rho + np.abs(1.0 - aw))  # squared fiber radius at beta = 0
    live = base > 0.0
    params = np.empty((az.size, 3))
    params[:, 0], params[:, 2] = base, az
    four_aw = np.multiply(4.0, aw, out=params[:, 1])
    # sin^2(beta/2) at halfw and where the lens changes type, at the fiber radii |1 - az|
    # and 1 + az; NaN, so neither, for aw = 0
    q = np.empty((az.size, 3))
    q[:, 0], q[:, 1], q[:, 2] = 0.0, np.abs(1.0 - az), 1.0 + az
    q *= q
    np.subtract(base[:, None], q, out=q)
    q /= np.where(aw > 0.0, four_aw, np.nan)[:, None]
    cuts = np.zeros((az.size, 4))
    halfw = cuts[:, 1]
    halfw[:] = np.where(q[:, 0] < 1.0, 2.0 * np.arcsin(np.sqrt(np.minimum(np.maximum(q[:, 0], 0.0), 1.0))), np.pi)
    turns = 2.0 * np.arcsin(np.sqrt(np.where((0.0 < q[:, 1:]) & (q[:, 1:] < 1.0), q[:, 1:], np.nan)))
    cuts[:, 2:] = np.where(turns <= halfw[:, None], turns, np.nan)
    cuts[~live] = np.nan  # an empty ball has no pieces

    def integrand(beta, rows):
        radii = np.sqrt(np.maximum(rows[:, 2:3] - rows[:, 3:4] * np.sin(0.5 * beta) ** 2, 0.0))
        return 2.0 * _lens_area(1.0, radii, np.repeat(rows[:, 4:5], radii.shape[1], axis=1))  # even in beta

    return _measured(cuts, params, [(integrand, 8, live)], n, (az, aw, rho), scalar)


def _moduli(p):
    """(|z|, |w|) of a PolarPoint as numbers, or of a sequence of them as arrays."""
    if isinstance(p, PolarPoint):
        return p.r, p.s
    return np.array([q.r for q in p], dtype=float), np.array([q.s for q in p], dtype=float)


def _first_off(bad, r, s, where: str):
    """ValueError naming the first point (r, s) flagged in ``bad``."""
    if np.count_nonzero(bad):
        i = int(np.flatnonzero(bad)[0])
        rs = (np.atleast_1d(r)[i], np.atleast_1d(s)[i])
        raise ValueError(f"point (r={rs[0]}, s={rs[1]}) is not on {where}")


def f_profile(t, spec: QuadratureSpec):
    """Normalized cone profile f(t) = sigma(B_1(p) cap bT_inf), |p| = t;
    t a number (returns a float) or a 1-D array (one value each)."""
    if not np.all(np.asarray(t) >= 0):
        raise ValueError("t must be >= 0")
    a = np.asarray(t, dtype=float) / _SQ2
    return _cone_ball(a, a, 1.0, None, spec.surface_cells)


def _require_on_cone(r, s, tol: float = 1e-9):
    _first_off(np.abs(np.subtract(r, s)) > tol, r, s, "the cone boundary")


def _require_radius(rho):
    if not np.all(np.asarray(rho) > 0):
        raise ValueError("rho must be > 0")


def sigma_ball_Tinf(p, rho, spec: QuadratureSpec):
    """sigma(B_rho(p) cap bT_inf) via the dilation law rho^3 f(|p|/rho).

    p: a PolarPoint, or a sequence of them with rho a number or one radius
    each; returns a float, or one value per point.
    """
    r, s = _moduli(p)
    _require_on_cone(r, s)
    _require_radius(rho)
    if not isinstance(p, PolarPoint):
        rho = np.asarray(rho, dtype=float)
    return rho**3 * f_profile(np.hypot(r, s) / rho, spec)


def sigma_ball_Tinf_direct(p, rho, spec: QuadratureSpec):
    """Same measure by direct integration at the actual center and radius."""
    r, s = _moduli(p)
    _require_on_cone(r, s)
    _require_radius(rho)
    return _cone_ball(r, s, rho, None, spec.surface_cells)


def sigma_ball_bT(p, rho, spec: QuadratureSpec):
    """sigma(B_rho(p) cap bT): cone part (r <= sqrt 2) plus cylinder part.

    p: a PolarPoint, or a sequence of them with rho a number or one radius
    each; returns a float, or one value per point.
    """
    r, s = _moduli(p)
    on_cone = (np.abs(np.subtract(r, s)) <= 1e-9) & (np.asarray(s) <= 1.0 + 1e-9)
    on_cyl = (np.abs(np.subtract(s, 1.0)) <= 1e-9) & (np.asarray(r) <= np.add(s, 1e-9))
    _first_off(~(on_cone | on_cyl), r, s, "bT")
    radii = np.asarray(rho, dtype=float)
    if not np.all((0.0 < radii) & (radii <= DIAM_T)):
        raise ValueError("rho must lie in (0, 2*sqrt(2)]")
    n = spec.surface_cells
    cone = _cone_ball(r, s, rho, _SQ2, n)
    cyl = _cyl_ball(r, s, rho, n)
    return cone + cyl


@dataclass(frozen=True)
class ADRReport:
    """Scan of sigma(B_rho(p) cap bT)/rho^3 over boundary centers and radii."""

    samples: tuple  # of (PolarPoint, rho, sigma)
    ratios: np.ndarray = field(compare=False)  # sigma/rho^3 per sample, read-only
    min_ratio: float
    max_ratio: float
    passed: bool


def adr_scan(
    n_centers: int,
    rho_set,
    seed,
    spec: QuadratureSpec,
) -> ADRReport:
    """Tabulate boundary-ball ratios over random centers on both strata.

    Centers: half uniform in the cone parametrization (r in [0, sqrt 2],
    angles uniform), half uniform on the cylinder (z area-uniform in the
    unit disk, beta uniform).  One ``sigma_ball_bT`` call takes every
    (center, radius) pair; the samples run center by center.  pass requires
    every ratio inside ADR_WINDOW.
    """
    if n_centers < 1:
        raise ValueError("n_centers must be >= 1")
    rho_set = [float(x) for x in rho_set]
    if not rho_set:
        raise ValueError("rho_set must hold at least one radius")
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

    points, radii = [p for p in centers for _ in rho_set], rho_set * n_centers
    sigma = sigma_ball_bT(points, radii, spec)
    samples = tuple((p, rho, float(sig)) for p, rho, sig in zip(points, radii, sigma))
    ratios = sigma / np.array([rho**3 for rho in radii])
    ratios.flags.writeable = False
    lo, hi = float(ratios.min()), float(ratios.max())
    return ADRReport(
        samples=samples,
        ratios=ratios,
        min_ratio=lo,
        max_ratio=hi,
        passed=ADR_WINDOW[0] <= lo and hi <= ADR_WINDOW[1],
    )
