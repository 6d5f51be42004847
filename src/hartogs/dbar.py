"""Approximation families for the Cauchy-Riemann operator on T.

The u_delta family.  Fix u = v_{j,-1} (the basis elements with the w^{-1}
pole) and T_delta = {|z| < |w| < delta}.  Define

    u_delta = (|w|/delta)^delta * u   on T_delta,      u_delta = u  elsewhere.

u_delta is continuous across |w| = delta, |u_delta| <= |u| pointwise, and
u_delta -> u in L^2(T) as delta -> 0.  Since (|w|/delta)^delta is smooth in
w away from 0 and u is holomorphic,

    dbar u_delta = u * d/dwbar (|w|/delta)^delta
                 = u * (delta/2) (|w|/delta)^delta / wbar   on T_delta,

and 0 outside (derivation: d/dwbar (w wbar)^{delta/2} = (delta/2)
(w wbar)^{delta/2 - 1} w).  Reducing the squared norm in polar coordinates
(r-fiber integral s^2/(2j+2), then s-integral of s^{2 delta - 1}) gives

    ||dbar u_delta||^2_{L^2(T)} = pi^2 delta / (4 (j+1)),

so the squared norm is exactly linear in delta and the norm itself scales as
sqrt(delta); at delta = 1, j = 0 the norm is pi/2.

The log layer.  The profile s^{2 delta - 1} is nearly 1/s for small delta
and stalls a plain Gauss rule on (0, delta), so every integral on (0, delta)
uses one rule in y, 24 Gauss nodes on each of (0, Y) and (Y, 2Y), Y = 12, on
e^{-2y} times a bounded factor (tail below e^{-4Y}).  The profile is
(1/delta) int e^{-2y} dy (s = delta e^{-y/delta}); the gap's radial integral
is int e^{-2y} expm1(-delta y)^2 dy (s = delta e^{-y}); the cutoff shell
below takes t = delta e^{-y}.  The r-fibers take j + 1 Gauss nodes, exactly.
``QuadratureSpec.shell_level`` sets only the shell's theta nodes.

The chi_delta cutoff.  chi_delta(p) = S((|p| - delta)/delta) with S the
quintic smoothstep (S = 6x^5 - 15x^4 + 10x^3 on [0,1], clamped outside), so
chi_delta vanishes on B_delta(0), equals 1 outside B_{2 delta}(0), and its
differential obeys |d chi_delta| <= (15/8)/delta, the maximum of S' scaled
by the layer width.  For a real radial function |dbar chi| = |grad chi|/2.

The commutator estimate pairs the cutoff with a field f over the shell:

    int |dbar chi_delta|^2 |f|^2
        <= (int_{B cap T} |dbar chi_delta|^4)^{1/2} (int_{B cap T} |f|^4)^{1/2}.

Both sides are evaluated on one shared positive-weight node set, so the
discrete inequality is an instance of Cauchy-Schwarz and holds identically;
the interesting content is the size of the factors.  In shell coordinates
(r, s) = (t cos theta, t sin theta) the first factor's fourth-power integral
is independent of delta, and for f with |f| ~ |w|^{-1} the left side is also
delta-independent (|w|^{-1} is exactly borderline: its fourth power is not
integrable on T, which the report flags).

The shell's t-rule is split where chi_delta is.  On (delta, 2 delta), with
t = delta (1 + x), |dbar chi|^2 = S'(x)^2 / (4 delta^2) is a polynomial of
degree 8 in x, so the radial factors S'^2 t^3 (f = 1), S'^4 t^3 (the first
factor) and S'^2 t (|f| = 1/|w|) have degrees 11, 19 and 9, and 10 Gauss
nodes integrate each exactly.  d chi_delta vanishes on (0, delta), where only
int |f|^4 is left, on the log layer (dt = t dy).  For |f| = 1/|w| the
integrand t^4 |f|^4 is constant in y, so the sum grows linearly in Y;
comparing the sums to Y and to 2Y is the divergence probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureSpec, _gl_unit, _angular_nodes, _slab_sums

__all__ = [
    "DeltaFamilySpec",
    "CutoffReport",
    "dbar_u_delta_norm",
    "l2_gap",
    "smoothstep_deriv",
    "cutoff_commutator_check",
]


@dataclass(frozen=True)
class DeltaFamilySpec:
    """u = v_{j,-1} regularized at scale delta in (0, 1]."""

    j: int
    delta: float

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("j must be >= 0")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")


#: The t-rules of the module docstring: the shell's outer Gauss nodes, checked
#: against twice as many at relative _OUTER_RTOL; log-layer nodes per panel, Y.
_OUTER_NODES = 10
_OUTER_RTOL = 1e-11
_LOG_NODES = 24
_LOG_DEPTH = 12.0


def _log_layer() -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and weights on (0, Y), then (Y, 2Y)."""
    u, wu = _gl_unit(_LOG_NODES)
    return np.concatenate([u, 1.0 + u]) * _LOG_DEPTH, np.tile(_LOG_DEPTH * wu, 2)


def _x_moment(j: int) -> float:
    """int_0^1 x^{2j+1} dx = 1/(2j+2), the r-fiber in x = r/s, exactly."""
    x, wx = _gl_unit(j + 1)
    return float(np.sum(x ** (2 * j + 1) * wx))


def _s_profile_integral(delta: float) -> float:
    """int_0^delta s^{2 delta - 1} delta^{-2 delta} ds = (1/delta) int_0^oo
    e^{-2y} dy on the log layer, s = delta e^{-y/delta}."""
    y, wy = _log_layer()
    return float(np.sum(np.exp(-2.0 * y) * wy) / delta)


def dbar_u_delta_norm(fspec: DeltaFamilySpec, quad: QuadratureSpec) -> float:
    """L^2(T) norm of dbar u_delta on the log layer; ``quad`` is not read."""
    ix, is_ = _x_moment(fspec.j), _s_profile_integral(fspec.delta)
    return float(np.sqrt((2.0 * np.pi) ** 2 * (fspec.delta / 2.0) ** 2 * ix * is_))


def l2_gap(fspec: DeltaFamilySpec, quad: QuadratureSpec) -> float:
    """||u_delta - u||_{L^2(T)}, whose square is (2 pi)^2 delta^2/(2j+2) times
    int_0^1 sigma (sigma^delta - 1)^2 dsigma (s = delta sigma, the log layer in
    sigma = e^{-y}); ``quad`` is not read."""
    y, wy = _log_layer()
    radial = float(np.sum(np.exp(-2.0 * y) * np.expm1(-fspec.delta * y) ** 2 * wy))
    return float(np.sqrt((2.0 * np.pi) ** 2 * fspec.delta**2 * _x_moment(fspec.j) * radial))


def smoothstep_deriv(x):
    """Derivative of the quintic smoothstep; max 15/8 at x = 1/2."""
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    xx = np.where(inside, x, 0.5)
    return np.where(inside, 30.0 * xx**2 * (1.0 - xx) ** 2, 0.0)


@dataclass(frozen=True)
class CutoffReport:
    """Both sides of the shell Cauchy-Schwarz estimate at one (f, delta)."""

    delta: float
    lhs: float
    rhs: float
    first_factor: float  # (int |dbar chi|^4)^(1/2)
    second_factor: float  # (int |f|^4)^(1/2) on the shared nodes
    l4_diverges: bool | None  # None: a fourth-power sum is not finite, so the probe cannot tell


def cutoff_commutator_check(f, delta: float, quad: QuadratureSpec) -> CutoffReport:
    """Evaluate lhs = int |dbar chi_delta|^2 |f|^2 and its Cauchy-Schwarz
    bound over B_{2 delta}(0) cap T on one shared node set.

    With shared nodes and positive weights, lhs <= rhs is the discrete
    Cauchy-Schwarz inequality and holds for every f; the report carries the
    factor sizes.  A probe flags fields whose fourth power fails to be
    integrable: the log-layer sum over y in (Y, 2Y) exceeds 1% of int |f|^4.
    When that tail sum or int |f|^4 is not finite (|f|^4 overflows, as for
    1e100 / |w|), the two cannot be compared and ``l4_diverges`` is None.

    Nodes: (r, s) = t (cos theta, sin theta) with weight t^3 sin cos, Gauss
    in theta on (pi/4, pi/2) (max(16, ``QuadratureSpec.shell_level`` // 3)
    nodes), 12 midpoint nodes per angle, and four blocks of t-rows, which do
    not depend on ``shell_level``: t = delta (1 + x) at 10 and at 20 Gauss
    x-nodes, and the two log-layer panels.  The report uses the 10-node
    outer rule and the log layer to Y.

    Raises ValueError, naming delta and both values, when lhs or the outer
    int |f|^4 at 10 and 20 nodes differ by more than 1e-11 relative: the
    10-node rule is exact when |f|^2 is radially polynomial on the outer
    layer, and a field for which it is not fails loudly instead of being
    integrated inexactly.  Equal values agree, so a |f|^2 that overflows to
    inf under both rules gives a report carrying inf, as on the log layer.

    ``quadrature._slab_sums`` evaluates f once on all rows, in t-slabs, each
    kept as its angular sums of |f|^2, which carry the finite check, and of
    |f|^4; the weights and the t-only |dbar chi_delta|^2 apply after the loop.
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2] so the shell stays in T")
    nth, nang = max(16, quad.shell_level // 3), 12
    th, wth = _gl_unit(nth)
    th, wth = np.pi / 4.0 + th * np.pi / 4.0, wth * np.pi / 4.0
    wth = wth * np.sin(th) * np.cos(th)
    ang, wang = _angular_nodes(nang)

    outer = [_gl_unit(n) for n in (_OUTER_NODES, 2 * _OUTER_NODES)]
    y, wy = _log_layer()
    t_log = delta * np.exp(-y)
    t = np.concatenate([delta * (1.0 + x) for x, _ in outer] + [t_log])
    wt = np.concatenate([delta * wx for _, wx in outer] + [wy * t_log])

    def reduce(vals):
        a2 = np.abs(vals) ** 2
        yield np.einsum("ijkl->ij", a2)
        yield np.einsum("ijkl,ijkl->ij", a2, a2)

    f2, f4 = _slab_sums(f, t[:, None] * np.cos(th), t[:, None] * np.sin(th), ang, reduce)
    wt = wt * t**3
    W = wt[:, None] * wth * wang * wang

    # row blocks: outer rule, its doubling, log layer to Y, log layer from Y to 2Y
    ends = np.cumsum([_OUTER_NODES, 2 * _OUTER_NODES, _LOG_NODES])
    l4 = [float(np.sum(b)) for b in np.split(f4 * W, ends)]
    dchi2 = [(smoothstep_deriv(x) / (2.0 * delta)) ** 2 for x, _ in outer]
    lhs = [float(np.sum(d[:, None] * b)) for d, b in zip(dchi2, np.split(f2 * W, ends))]
    for name, a, b in (("lhs", *lhs), ("outer int |f|^4", *l4[:2])):
        if not (a == b or abs(a - b) <= _OUTER_RTOL * abs(b)):
            raise ValueError(f"cutoff shell at delta={delta!r}: {name} is {a!r} at {_OUTER_NODES} outer "
                             f"t-nodes and {b!r} at {2 * _OUTER_NODES}; |f|^2 is not radially polynomial "
                             f"on (delta, 2 delta)")
    quart = np.sum(dchi2[0] ** 2 * wt[:_OUTER_NODES]) * np.sum(wth) * (nang * wang) ** 2
    fquart = l4[0] + l4[2]
    diverges = bool(l4[3] > 0.01 * max(fquart, 1e-300)) if np.isfinite([l4[3], fquart]).all() else None
    first, second = np.sqrt(quart), np.sqrt(fquart)
    return CutoffReport(delta=float(delta), lhs=lhs[0], rhs=float(first * second), first_factor=float(first),
                        second_factor=float(second), l4_diverges=diverges)
