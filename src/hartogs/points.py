"""Points of the Hartogs triangle in polar coordinates.

The domain under study is T = {(z, w) in C^2 : |z| < |w| < 1} together with
the infinite cone T_inf = {|z| < |w|}.  Every module in this package works in
the bi-polar coordinates

    z = r e^{i alpha},   w = s e^{i beta},

so a point is the quadruple (r, alpha, s, beta) with 0 <= r < s.  The volume
element of C^2 in these coordinates is dV = r s dr ds dalpha dbeta.

Angles are kept in the canonical branch (-pi, pi].  ``angle_diff`` returns the
wrapped difference, which is what every arc construction and every polar
distance estimate in :mod:`hartogs.geometry` expects.  ``euclid`` is the one
implementation of the Euclidean distance from polar data; ``PolarPoint.dist``
is its scalar view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PolarPoint", "angle_wrap", "angle_diff", "euclid"]


def angle_wrap(a):
    """Wrap angle(s) to the branch (-pi, pi]."""
    a = np.asarray(a, dtype=float)
    out = np.mod(-a + np.pi, 2.0 * np.pi)  # maps a = pi to 0, keeps half-open side right
    out = np.pi - out
    if out.ndim == 0:
        return float(out)
    return out


def angle_diff(a, b):
    """Wrapped difference a - b in (-pi, pi]."""
    return angle_wrap(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))


def euclid(r1, a1, s1, b1, r2, a2, s2, b2):
    """Euclidean distance in C^2 between polar points, on broadcastable arrays.

    |z1 - z2|^2 = (r1 - r2)^2 + 4 r1 r2 sin^2((a1 - a2)/2), same in w.  Both
    terms are nonnegative, so nearby points keep full relative precision;
    the law-of-cosines form r1^2 + r2^2 - 2 r1 r2 cos(a1 - a2) cancels to 0
    for z1 = 1, z2 = e^{7.6e-9 i}.
    """
    dz2 = (r1 - r2) ** 2 + 4.0 * r1 * r2 * np.sin(0.5 * (a1 - a2)) ** 2
    dw2 = (s1 - s2) ** 2 + 4.0 * s1 * s2 * np.sin(0.5 * (b1 - b2)) ** 2
    return np.sqrt(dz2 + dw2)


@dataclass(frozen=True)
class PolarPoint:
    """A point (r e^{i alpha}, s e^{i beta}) of C^2, radii nonnegative."""

    r: float
    alpha: float
    s: float
    beta: float

    def __post_init__(self):
        if not all(np.isfinite(c) for c in (self.r, self.alpha, self.s, self.beta)):
            raise ValueError("coordinates must be finite")
        if self.r < 0 or self.s < 0:
            raise ValueError("radii must be nonnegative")
        object.__setattr__(self, "alpha", angle_wrap(self.alpha))
        object.__setattr__(self, "beta", angle_wrap(self.beta))

    @staticmethod
    def from_cartesian(z: complex, w: complex) -> "PolarPoint":
        return PolarPoint(abs(z), float(np.angle(z)), abs(w), float(np.angle(w)))

    def to_cartesian(self) -> tuple[complex, complex]:
        return self.z, self.w

    @property
    def z(self) -> complex:
        return self.r * np.exp(1j * self.alpha)

    @property
    def w(self) -> complex:
        return self.s * np.exp(1j * self.beta)

    def norm(self) -> float:
        """Euclidean norm |(z, w)| = sqrt(r^2 + s^2)."""
        return float(np.hypot(self.r, self.s))

    def dist(self, other: "PolarPoint") -> float:
        """Euclidean distance in C^2, computed from polar data by ``euclid``."""
        return float(euclid(self.r, self.alpha, self.s, self.beta, other.r, other.alpha, other.s, other.beta))

    def in_T(self) -> bool:
        return self.r < self.s < 1.0

    def in_Tinf(self) -> bool:
        return self.r < self.s

    def scaled(self, factor: float) -> "PolarPoint":
        """Dilation p -> factor * p (angles unchanged); factor >= 0."""
        if factor < 0:
            raise ValueError("dilation factor must be nonnegative")
        return PolarPoint(self.r * factor, self.alpha, self.s * factor, self.beta)
