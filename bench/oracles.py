"""Reference values computed without the program's numerics.

Everything here is derived from the definitions of the Hartogs triangle
T = {|z| < |w| < 1} and its boundary, not from ``hartogs``:

* closed forms of the constants the program reports;
* a seeded Monte Carlo estimate of the boundary-ball measure
  sigma(B_rho(p) cap bT), sampled in Cartesian coordinates on the cone
  parametrisation (Jacobian r^2/2) and on the cylinder, with its standard
  error;
* the closed-form Bergman kernel of T and a rigorous bound on the tail that a
  truncated Laurent sum leaves out;
* exact rational values of the smoothstep integrals behind the cutoff
  energies.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SQ2 = math.sqrt(2.0)

# --- closed forms ---------------------------------------------------------

F_APEX = 2.0 * math.pi**2 / 3.0  # f(0): unit-ball measure of the cone boundary at the apex
F_LIMIT = 4.0 * math.pi / 3.0  # f(t) as t -> infinity: a flat unit 3-ball
SIGMA_BT = (4.0 * SQ2 / 3.0 + 2.0) * math.pi**2  # sigma(bT): cone part plus cylinder
DIAM_T = 2.0 * SQ2
BORDERLINE_ENERGY = 15.0 * math.pi**2 * math.log(2.0) / 14.0  # shell energy of f = 1/w
ADR_WINDOW = (0.3, 30.0)


def laurent_norm_sq(j: int, k: int) -> float:
    """||(z/w)^j w^k||^2_{L^2(T)} = pi^2 / ((j+1)(k+2))."""
    return math.pi**2 / ((j + 1) * (k + 2))


def dbar_u_delta_norm(j: int, delta: float) -> float:
    """||dbar u_delta|| = sqrt(pi^2 delta / (4 (j+1))) for u = v_{j,-1}."""
    return math.sqrt(math.pi**2 * delta / (4.0 * (j + 1)))


def l2_gap(j: int, delta: float) -> float:
    """||u_delta - u|| for u = v_{j,-1}.

    The difference ((|w|/delta)^delta - 1) u lives on |w| < delta; with the
    r-fiber integral s^{2j+2}/(2j+2) and s = delta*sigma the squared gap is
    (2 pi)^2 delta^2/(2j+2) * int_0^1 sigma (sigma^delta - 1)^2 dsigma, and the
    last integral is 1/(2 delta + 2) - 2/(delta + 2) + 1/2.
    """
    d = delta
    radial = 1.0 / (2.0 * d + 2.0) - 2.0 / (d + 2.0) + 0.5
    return math.sqrt((2.0 * math.pi) ** 2 * d * d / (2.0 * j + 2.0) * radial)


def _beta(a: int, b: int) -> Fraction:
    """int_0^1 x^a (1-x)^b dx = a! b! / (a+b+1)!"""
    return Fraction(math.factorial(a) * math.factorial(b), math.factorial(a + b + 1))


def _smoothstep_moment(power: int, shift: int) -> Fraction:
    """int_0^1 S'(x)^power (1+x)^shift dx, S' = 30 x^2 (1-x)^2, exactly."""
    total = Fraction(0)
    for i in range(shift + 1):
        total += math.comb(shift, i) * _beta(2 * power + i, 2 * power)
    return Fraction(30) ** power * total


def smooth_shell_energy(delta: float) -> float:
    """int over B_{2 delta} cap T of |dbar chi_delta|^2 for f = 1.

    With t = |p| = delta (1 + x) and (r, s) = t (cos theta, sin theta),
    |dbar chi|^2 = S'(x)^2 / (4 delta^2) and dV = 4 pi^2 t^3 sin cos dt dtheta
    on theta in (pi/4, pi/2); the theta integral is 1/4.
    """
    return math.pi**2 * delta**2 / 4.0 * float(_smoothstep_moment(2, 3))


def cutoff_first_factor() -> float:
    """(int over B_{2 delta} cap T of |dbar chi_delta|^4)^(1/2); delta-free."""
    return math.sqrt(math.pi**2 / 16.0 * float(_smoothstep_moment(4, 3)))


# --- Monte Carlo boundary measure -----------------------------------------


def _half_window(modulus: float, rho: float) -> float:
    """Half-angle under which the disk B(c, rho), |c| = modulus, is seen from 0."""
    return math.asin(rho / modulus) if modulus > rho else math.pi


def mc_ball_measure(z0: complex, w0: complex, rho: float, part: str, n: int, rng) -> tuple[float, float]:
    """Monte Carlo sigma(B_rho((z0, w0)) cap S) with its standard error.

    ``part`` selects the surface S:

    * ``"cone"``: the cone boundary {|z| = |w|}, points (r e^{ia}, r e^{ib})/sqrt 2
      with surface element (r^2/2) dr da db;
    * ``"cone_bT"``: the same with |w| <= 1, the cone part of bT;
    * ``"cylinder"``: {|z| < 1, |w| = 1} with surface element dA(z) db.

    Samples are drawn in a box that contains the ball's trace (radii within
    rho of |p|, angles within the window under which the ball is seen), and
    membership is tested in Cartesian coordinates.
    """
    az, aw = abs(z0), abs(w0)
    if part in ("cone", "cone_bT"):
        R = math.hypot(az, aw)
        lo, hi = max(0.0, R - rho), R + rho
        if part == "cone_bT":
            hi = min(hi, SQ2)
        if hi <= lo:
            return 0.0, 0.0
        r = np.cbrt(lo**3 + rng.random(n) * (hi**3 - lo**3))  # density ~ r^2
        ha, hb = _half_window(az, rho), _half_window(aw, rho)
        a = np.angle(z0) + ha * (2.0 * rng.random(n) - 1.0)
        b = np.angle(w0) + hb * (2.0 * rng.random(n) - 1.0)
        z = r * np.exp(1j * a) / SQ2
        w = r * np.exp(1j * b) / SQ2
        box = (hi**3 - lo**3) / 6.0 * (2.0 * ha) * (2.0 * hb)
        inside = np.abs(z - z0) ** 2 + np.abs(w - w0) ** 2 < rho * rho
    elif part == "cylinder":
        hb = _half_window(aw, rho)
        z = z0 + rho * np.sqrt(rng.random(n)) * np.exp(2j * math.pi * rng.random(n))
        b = np.angle(w0) + hb * (2.0 * rng.random(n) - 1.0)
        w = np.exp(1j * b)
        box = math.pi * rho * rho * (2.0 * hb)
        inside = (np.abs(z) < 1.0) & (np.abs(z - z0) ** 2 + np.abs(w - w0) ** 2 < rho * rho)
    else:
        raise ValueError(f"unknown surface part {part!r}")
    p = float(inside.mean())
    return box * p, box * math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


# --- Bergman kernel -------------------------------------------------------


def bergman_kernel(z, w, zeta, eta) -> complex:
    """K(p, q) = w conj(eta) / (pi^2 (1 - w conj(eta))^2 (w conj(eta) - z conj(zeta))^2)."""
    y = w * np.conj(eta)
    return complex(y / (math.pi**2 * (1.0 - y) ** 2 * (y - z * np.conj(zeta)) ** 2))


def _tail(a: float, m: int) -> float:
    """sum_{n > m} (n+1) a^n for 0 <= a < 1."""
    return a ** (m + 1) * ((m + 2) - (m + 1) * a) / (1.0 - a) ** 2


def bergman_truncation_tolerance(z, w, zeta, eta, jmax: int, kmax: int) -> float:
    """Bound on |K - K_{jmax,kmax}| for the block j <= jmax, -1 <= k <= kmax.

    The kernel factors as A(x) B(y)/pi^2 with x = z conj(zeta)/(w conj(eta)),
    y = w conj(eta), A = sum_j (j+1) x^j and B = sum_{k >= -1} (k+2) y^k, so
    the truncation error is at most (|A| |B - B_K| + |A - A_J| |B_K|)/pi^2,
    each factor bounded by its series in |x| or |y|.  Added to that is 1e-13
    of the series' absolute sum, for rounding in the truncated sum.
    """
    y = abs(w * np.conj(eta))
    x = abs(z * np.conj(zeta)) / y
    a_full = 1.0 / (1.0 - x) ** 2
    b_full = 1.0 / (y * (1.0 - y) ** 2)
    b_tail = _tail(y, kmax + 1) / y  # sum_{k > kmax} (k+2) y^k
    return (a_full * b_tail + _tail(x, jmax) * b_full + 1e-13 * a_full * b_full) / math.pi**2


def sample_T(n: int, rng) -> list[tuple[complex, complex]]:
    """Uniform points of T by rejection from the unit bidisk, as (z, w)."""
    out = []
    while len(out) < n:
        z = math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
        w = math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
        if abs(z) < abs(w):
            out.append((complex(z), complex(w)))
    return out
