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

Batches.  ``_cone_ball`` and ``_cyl_ball`` take arrays of balls (az, aw,
rho) and return one value per ball; a call with numbers is a batch of one.
Each ball's breakpoints are sorted row-wise, repeated and absent ones give no
piece, and the surviving pieces of all balls form one table with a ball id
per piece, so no ball is padded to the widest one; per-ball values are sums
by ball id.  One array pass evaluates every ball at 32 and 64 nodes (the two
rules' nodes side by side), and each further doubling evaluates, under a
mask, only the balls whose last two values still disagree.  Balls with
min(az, aw) < 1e-300 take the closed-form alpha-integral by mask.  Pieces run
in blocks, and the cone's (r-node x alpha-node) work array in blocks of
``_BLOCK_CELLS`` values, so memory does not grow with the batch.  The public
functions accept a sequence of points for one such batch, and ``adr_scan``
evaluates all its centers in one ``sigma_ball_bT`` call per radius.

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
#: Values in one block of a rule pass: the cone's (r-node x alpha-node) work
#: array, and the node arrays of a block of pieces.  The blocks keep a pass's
#: memory from growing with the number of balls in it.
_BLOCK_CELLS = 2**14

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


def _rules(ms: tuple) -> tuple[np.ndarray, list]:
    """The cosine-mapped rules with m nodes for each m in ``ms``, side by
    side: all their nodes in one array, and per rule the slice of its nodes,
    its nodes and its weights."""
    parts, start = [], 0
    for m in ms:
        x, wx = _cosine_gauss(m)
        parts.append((slice(start, start + m), x, wx))
        start += m
    return np.concatenate([x for _, x, _ in parts]), parts


def _balls(az, aw, rho, *more):
    """Ball parameters as rows of one float array, one column per ball, and
    whether every parameter was a number (then the caller returns a float).

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


def _piece_sums(table, ball, ms: tuple, per_node: int, integrand, nballs: int) -> list:
    """Per-ball sums of the cosine-mapped rule with m nodes per piece, for
    each m in ``ms``, over the pieces of ``table`` (rows as made by
    ``_pieces``).

    integrand(nodes, rows, ms) is the integrand at the (pieces, sum(ms))
    nodes of those rows of the table, every rule's nodes side by side.  The
    pieces run in blocks (of at least one piece) whose work arrays, about
    ``per_node`` values for each node, hold at most ``_BLOCK_CELLS`` values.
    """
    nodes, rules = _rules(ms)
    sums = np.empty((len(ms), len(table)))
    step = max(1, _BLOCK_CELLS // (per_node * nodes.size))
    for k in range(0, len(table), step):
        rows = table[k:k + step]
        values = integrand(rows[:, :1] + rows[:, 1:2] * nodes, rows, ms)
        for i, (cols, _, wx) in enumerate(rules):
            sums[i, k:k + step] = (values[:, cols] @ wx) * rows[:, 1]
    return [np.bincount(ball, weights=row, minlength=nballs) for row in sums]


def _measured(rule, ceiling: int, balls: tuple, todo: np.ndarray) -> np.ndarray:
    """Per ball, rule(m) at m = 32, 64, ... nodes per piece, doubled until two
    successive values agree to 1e-10 relative; returns the finer of the two.

    rule(ms, mask) gives the values with m nodes for each m in ``ms``, for the
    balls in ``mask`` (None: every ball).  One pass evaluates every ball in
    the mask ``todo`` at 32 and 64 nodes; each later doubling evaluates only
    the balls not yet converged.  Balls outside ``todo`` are 0.  ValueError
    names the first ball, and its last two values, whose next doubling would
    pass ``ceiling`` first.
    """
    out = np.zeros(todo.size)
    if not np.count_nonzero(todo):
        return out
    m = _FIRST_NODES
    pending = rule((m, 2 * m) if 2 * m <= ceiling else (m,), None)
    prev, values = None, pending.pop(0)
    while 2 * m <= ceiling and np.count_nonzero(todo):
        m *= 2
        prev, values = values, pending.pop(0) if pending else rule((m,), todo)[0]
        done = todo & (np.abs(values - prev) <= _AGREE_REL * np.abs(values))
        out[done] = values[done]
        todo = todo & ~done
    if np.count_nonzero(todo):
        i = int(np.flatnonzero(todo)[0])
        az, aw, rho = (float(x[i]) for x in balls)
        last = [float(v[i]) for v in (prev, values) if v is not None]
        raise ValueError(
            f"boundary ball (az={az!r}, aw={aw!r}, rho={rho!r}) not converged within {ceiling} nodes "
            f"per piece: last values {last!r}"
        )
    return out


def _arccos_from_ends(u, v):
    """arccos(1 - u) for u + v = 2, from the smaller of u and v (at most 1),
    so that it loses no digits near either end; 0 where u <= 0 and pi where
    v <= 0."""
    a = 2.0 * np.arcsin(np.sqrt(np.maximum(0.5 * np.minimum(u, v), 0.0)))
    return np.where(u <= v, a, np.pi - a)


# columns of the cone piece table after left end and width: e (4), f^2 (4), then these
_RHO, _AZ, _AW, _RATIO, _HALF = range(10, 15)
_S1, _S2 = np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])


def _cone_h(t: np.ndarray, rows: np.ndarray, ms: tuple) -> np.ndarray:
    """Half-range alpha integral h(r) of the beta-fiber length 2 arccos((k - az
    cos alpha)/aw) at the (pieces, sum(ms)) nodes: on the nodes of each
    m-node rule, by the m-node rule on the window (a2, a1).

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
    shift = rows[:, _HALF, None] * t[..., 3]
    half_fiber = np.empty_like(window)
    for cols, x, wx in _rules(ms)[1]:
        # one row per r-node of this rule: the half-angle window and the terms of u/2
        m, n = x.size, len(rows) * x.size
        start, width = (0.5 * a2[:, cols]).reshape(n), (0.5 * window[:, cols]).reshape(n)
        ratio, offset = np.repeat(rows[:, _RATIO], m), shift[:, cols].reshape(n)
        integral = np.empty(n)
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
            integral[block] = np.arcsin(q, out=q) @ wx
        half_fiber[:, cols] = integral.reshape(len(rows), m)
    return 2.0 * np.pi * a2 + 4.0 * window * half_fiber


def _cone_h_closed(t: np.ndarray, rows: np.ndarray, ms: tuple) -> np.ndarray:
    """h(r) for a centre with az = 0 or aw = 0, a = az + aw: the fiber length
    is constant in alpha (az = 0) or 0 / 2 pi (aw = 0), 2 arccos(k/a); at the
    apex (a = 0) every r < rho has k < 0 and the full torus."""
    a = rows[:, _AZ, None] + rows[:, _AW, None]
    apex = a == 0.0
    a = np.where(apex, 1.0, a)
    return 2.0 * np.pi * np.where(apex, np.pi, _arccos_from_ends(-t[..., 3] / a, t[..., 0] / a))


def _cone_r2h(r: np.ndarray, rows: np.ndarray, ms: tuple, h) -> np.ndarray:
    """The cone integrand r^2 h(r) (the Jacobian r^2/2 times 2 h, alpha over
    (-pi, pi)) at the (pieces, sum(ms)) nodes r of those rows of the cone
    table, with h = _cone_h or _cone_h_closed."""
    # t = k + s1 az + s2 aw = ((r + e)^2 + f^2 - rho^2)/(sqrt2 r), which loses no digits
    # away from its root
    re = r[..., None] + rows[:, None, 2:6]
    rho = rows[:, _RHO, None, None]
    t = (re - rho) * (re + rho)
    t += rows[:, None, 6:10]
    t /= (_SQ2 * r)[..., None]
    return r * r * h(t, rows, ms)


def _cone_ball(az, aw, rho, r_hi, n: int):
    """Measure of B_rho(center) on the cone surface, parameter r < r_hi.

    az, aw, rho, r_hi: centre coordinate moduli, radius and cut (None: no
    cut), numbers or 1-D arrays, one ball each; returns a float for numbers,
    else one value per ball.  n: ceiling on the measured node count per piece.
    """
    (az, aw, rho, r_hi), scalar = _balls(az, aw, rho, np.inf if r_hi is None else r_hi)
    # with e and f = (s1 az +- s2 aw)/sqrt2, t = k + s1 az + s2 aw = ((r + e)^2 + f^2 - rho^2)/(sqrt2 r):
    # the alpha-window edges reach 0 or pi at the roots r = -e +- sqrt(rho^2 - f^2)
    sz, sw, rr = az[:, None] * _S1, aw[:, None] * _S2, rho[:, None]
    e, f = (sz + sw) / _SQ2, (sz - sw) / _SQ2
    square = (rr - f) * (rr + f)
    root = np.sqrt(np.where(square > 0.0, square, np.nan))  # NaN where that edge never moves
    cuts = np.empty((az.size, 8))
    np.subtract(-e, root, out=cuts[:, :4])
    np.subtract(root, e, out=cuts[:, 4:])
    # for s1 = s2 = -1 the roots (az + aw)/sqrt2 -+ sqrt(rho^2 - (az - aw)^2/2) bound the
    # support, where some beta-fiber is nonempty; r_hi cuts it, and the other roots
    # are clipped to it, so a root outside repeats an end and an empty ball has no pieces
    lo, hi = np.maximum(cuts[:, 3:4], 0.0), cuts[:, 7:8]
    np.minimum(hi, r_hi[:, None], out=hi)
    np.maximum(hi, lo, out=hi)
    if not np.count_nonzero(hi > lo):
        return 0.0 if scalar else np.zeros(az.size)
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
    table, ball = _pieces(cuts, params)
    groups = [(_cone_h, table, ball)]
    if np.count_nonzero(closed):
        groups = [(h, table[mask], ball[mask]) for h, mask in ((_cone_h, ~closed[ball]), (_cone_h_closed, closed[ball]))
                  if np.count_nonzero(mask)]

    def rule(ms, todo):
        total = None
        for h, rows, ids in groups:
            if todo is not None:
                rows, ids = rows[todo[ids]], ids[todo[ids]]
            sums = _piece_sums(rows, ids, ms, 16, functools.partial(_cone_r2h, h=h), az.size)
            total = sums if total is None else [a + b for a, b in zip(total, sums)]
        return total

    out = _measured(rule, n, (az, aw, rho), np.bincount(ball, minlength=az.size) > 0)
    return float(out[0]) if scalar else out


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
    if not np.count_nonzero(live):
        return 0.0 if scalar else np.zeros(az.size)
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
    table, ball = _pieces(cuts, params)

    def integrand(beta, rows, ms):
        radii = np.sqrt(np.maximum(rows[:, 2:3] - rows[:, 3:4] * np.sin(0.5 * beta) ** 2, 0.0))
        return 2.0 * _lens_area(1.0, radii, np.repeat(rows[:, 4:5], radii.shape[1], axis=1))  # even in beta

    def rule(ms, todo):
        rows, ids = (table, ball) if todo is None else (table[todo[ball]], ball[todo[ball]])
        return _piece_sums(rows, ids, ms, 8, integrand, az.size)

    out = _measured(rule, n, (az, aw, rho), live)
    return float(out[0]) if scalar else out


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


def sigma_ball_bT(p, rho: float, spec: QuadratureSpec):
    """sigma(B_rho(p) cap bT): cone part (r <= sqrt 2) plus cylinder part.

    p: a PolarPoint (returns a float) or a sequence of them (one value
    each); rho: one radius, a number.
    """
    r, s = _moduli(p)
    on_cone = (np.abs(np.subtract(r, s)) <= 1e-9) & (np.asarray(s) <= 1.0 + 1e-9)
    on_cyl = (np.abs(np.subtract(s, 1.0)) <= 1e-9) & (np.asarray(r) <= np.add(s, 1e-9))
    _first_off(~(on_cone | on_cyl), r, s, "bT")
    if not 0.0 < rho <= DIAM_T:
        raise ValueError("rho must lie in (0, 2*sqrt(2)]")
    n = spec.surface_cells
    cone = _cone_ball(r, s, rho, _SQ2, n)
    cyl = _cyl_ball(r, s, rho, n)
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
    unit disk, beta uniform).  Each radius is one ``sigma_ball_bT`` call over
    all centers; the samples run center by center.  pass requires every
    ratio inside ADR_WINDOW.
    """
    if n_centers < 1:
        raise ValueError("n_centers must be >= 1")
    rho_set = [float(x) for x in rho_set]
    if not rho_set:
        raise ValueError("rho_set must hold at least one radius")
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

    sigma = np.empty((n_centers, len(rho_set)))
    for i, rho in enumerate(rho_set):
        sigma[:, i] = sigma_ball_bT(centers, rho, spec)
    samples = tuple((p, rho, float(sig)) for p, row in zip(centers, sigma) for rho, sig in zip(rho_set, row))
    report_ratios = np.array([sig / rho**3 for (_, rho, sig) in samples])
    lo, hi = float(report_ratios.min()), float(report_ratios.max())
    return ADRReport(
        samples=samples,
        min_ratio=lo,
        max_ratio=hi,
        passed=ADR_WINDOW[0] <= lo and hi <= ADR_WINDOW[1],
    )
