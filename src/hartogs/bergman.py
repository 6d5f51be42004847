"""The orthogonal Laurent basis of the Bergman space of T.

Basis functions, indexed by j >= 0, k >= -1:

    v_jk(z, w) = (z/w)^j w^k = r^j s^{k-j} e^{i(j alpha + (k-j) beta)}.

Each v_jk is holomorphic on T and square-integrable; k = -1 contributes the
w^{-1} pole that distinguishes H(T) from functions smooth up to the origin.
Orthogonality is angular: distinct (j, k) have distinct mode pairs
(l, m) = (j, k-j).  Norms in L^2(T, dV):

    ||v_jk||^2 = (2 pi)^2 int_0^1 int_0^s r^{2j} s^{2(k-j)} r s dr ds
               = pi^2 / ((j+1)(k+2)).

Derivatives stay in the family: d/dz v_jk = j v_{j-1,k-1} and
d/dw v_jk = (k-j) v_{j,k-1}.

Evaluation uses the polar form (powers of r, s and one complex exponential)
to stay stable near w -> 0 for k = -1.  Gram blocks use the factorized form
of the tensor rule on T, ``quadrature._tensor_rule``, which is exact
for these integrands: one table of angular sums per distinct mode difference
and one table of radial sums per distinct power pair, combined entry by entry.

The truncated kernel is a factored power sum: v_jk(p) conj(v_jk(q)) =
X^j Y^k with X = z conj(zeta) / (w conj(eta)) and Y = w conj(eta), so the
block sum is one bilinear form in the powers of X and Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .points import PolarPoint
from .quadrature import QuadratureSpec, _abs2_sums, _gl_unit, _slab_sums, _tensor_rule

__all__ = [
    "LaurentIndex",
    "LaurentCoefficients",
    "v_eval_arrays",
    "v_field",
    "v_norm_sq",
    "basis_gram",
    "block_indices",
    "project",
    "kernel_truncated",
]


@dataclass(frozen=True)
class LaurentIndex:
    j: int
    k: int

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("j must be >= 0")
        if self.k < -1:
            raise ValueError("k must be >= -1")

    @property
    def modes(self) -> tuple[int, int]:
        """Angular mode pair (l, m) = (j, k - j)."""
        return (self.j, self.k - self.j)


def v_eval_arrays(j: int, k: int, r, alpha, s, beta):
    """v_jk on coordinate arrays; stable polar form r^j s^{k-j} e^{i(...)}."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("v_jk requires s > 0")
    return r**j * s ** (k - j) * np.exp(1j * (j * np.asarray(alpha) + (k - j) * np.asarray(beta)))


def v_field(idx: LaurentIndex) -> Callable:
    """v_jk as a field f(r, alpha, s, beta) for the quadrature routines."""
    j, k = idx.j, idx.k
    return lambda r, alpha, s, beta: v_eval_arrays(j, k, r, alpha, s, beta)


def v_norm_sq(idx: LaurentIndex) -> float:
    """Closed-form squared L^2(T) norm pi^2 / ((j+1)(k+2)).

    idx.j and idx.k may be integer arrays that broadcast, as in
    ``_inverse_norms``; the norms are then an array of the same divisions.
    """
    return np.pi**2 / ((idx.j + 1) * (idx.k + 2))


def block_indices(jmax: int, kmax: int) -> list[LaurentIndex]:
    """The truncation rectangle j in [0, jmax], k in [-1, kmax]."""
    if jmax < 0 or kmax < -1:
        raise ValueError("need jmax >= 0 and kmax >= -1")
    return [LaurentIndex(j, k) for j in range(jmax + 1) for k in range(-1, kmax + 1)]


def basis_gram(jmax: int, kmax: int, spec: QuadratureSpec) -> tuple[list[LaurentIndex], np.ndarray]:
    """Gram matrix of the block under the tensor rule, factorized form.

    Returns (indices, G) with G[a, b] = (v_a, v_b) as ``quadrature._tensor_rule``
    would give it.  The 4D tensor sum splits as A(l_a - l_b) A(m_a - m_b)
    R(j_a + j_b, k_a + k_b): A(nu) is the angular midpoint sum of e^{i nu
    alpha}, one per distinct difference, and R(p, q) the radial Gauss sum of
    x^p s^q against the weight W, one per distinct power pair.  G is filled
    from these two tables without materializing the 4D grid.
    """
    idxs = block_indices(jmax, kmax)
    rule = _tensor_rule(*_gl_unit(spec.level))
    t = rule.nodes  # x and s alike
    # mode differences span [-off, off]; radial powers p in [0, 2 jmax], q in [-2, 2 kmax]
    off = jmax + kmax + 1
    A = np.array([complex(np.sum(np.exp(1j * nu * rule.ang)) * rule.wang) for nu in range(-off, off + 1)])
    # radial profile of v_jk in (x, s): r^j s^{k-j} = x^j s^k
    R = np.array([[np.sum(t[:, None] ** p * t[None, :] ** q * rule.W) for q in range(-2, 2 * kmax + 1)]
                  for p in range(2 * jmax + 1)])

    j = np.array([idx.j for idx in idxs])
    k = np.array([idx.k for idx in idxs])
    a, b = np.tril_indices(len(idxs))
    val = A[j[a] - j[b] + off] * A[(k - j)[a] - (k - j)[b] + off] * R[j[a] + j[b], k[a] + k[b] + 2]
    G = np.zeros((len(idxs), len(idxs)), dtype=complex)
    G[a, b] = val
    G[b, a] = np.conj(val)  # the diagonal keeps the conjugate
    return idxs, G


@dataclass(frozen=True)
class LaurentCoefficients:
    """Finite map (j, k) -> complex coefficient over the basis block."""

    entries: dict
    jmax: int
    kmax: int
    f_norm_sq: float | None = None  # ||f||^2 when produced by project

    def __post_init__(self):
        for (j, k) in self.entries:
            if not (0 <= j <= self.jmax and -1 <= k <= self.kmax):
                raise ValueError(f"index ({j},{k}) outside declared block")

    def get(self, j: int, k: int) -> complex:
        return self.entries.get((j, k), 0j)

    def weighted_energy(self) -> float:
        """Sum of |a_jk|^2 ||v_jk||^2 (the Bessel sum)."""
        return float(
            sum(abs(a) ** 2 * v_norm_sq(LaurentIndex(j, k)) for (j, k), a in self.entries.items())
        )


def project(f: Callable, jmax: int, kmax: int, spec: QuadratureSpec) -> LaurentCoefficients:
    """Orthogonal projection coefficients a_jk = (f, v_jk) / ||v_jk||^2.

    Evaluates f once on the grid of ``quadrature._tensor_rule``, in x-slabs
    of ``quadrature._slab_sums``.  A broadcast slab (a field constant in beta,
    say) is made contiguous once, and both reductions read that copy.  Each
    slab gives its angular sums of |f|^2, one einsum over the float64 parts
    (``quadrature._abs2_sums``), which carry the finite check, and its
    pairings with the block reduced over every axis but x.  A real slab is
    paired as complex, as numpy casts it for the products, so the
    coefficients do not depend on whether f returns reals or complexes with
    zero imaginary part.  Two matrix products contract alpha onto the
    jmax + 1 l-modes first and then beta onto the m-modes, and one more
    contracts s with each index's radial weight s^k w_s s^3, so a slab
    leaves a (rows, block size) array and the transform of the whole grid is
    never held.  The x-weights x^j w_x x apply after the loop.  This is the
    plain quadrature pairing, node for node; ``f_norm_sq`` does not depend on
    the slab size, the coefficients to rounding.
    """
    idxs = block_indices(jmax, kmax)
    rule = _tensor_rule(*_gl_unit(spec.level))

    ls = sorted({idx.modes[0] for idx in idxs})
    ms = sorted({idx.modes[1] for idx in idxs})
    El = np.exp(-1j * np.outer(ls, rule.ang)) * rule.wang  # (nl, n)
    EmT = (np.exp(-1j * np.outer(ms, rule.ang)) * rule.wang).T  # (n, nm)
    # index q of the block: its mode pair's positions, and its radial weights in s and in x
    j = np.array([idx.j for idx in idxs])
    k = np.array([idx.k for idx in idxs])
    lq = np.searchsorted(ls, j)
    mq = np.searchsorted(ms, k - j)
    Ws = rule.nodes[:, None] ** k * rule.ws[:, None]  # (n, q)
    Wx = rule.nodes[:, None] ** j * rule.wx[:, None]  # (n, q)

    def reduce(vals):
        vals = np.ascontiguousarray(vals)  # a broadcast slab is copied once, for both reductions
        yield _abs2_sums(vals)
        # F[x, s, l, m] = sum_ab f(x,s,a,b) e^{-i(l a + m b)} w_a w_b; alpha first,
        # onto the fewer modes (nl = jmax + 1 <= nm = jmax + kmax + 2)
        F = (El @ vals) @ EmT
        yield np.einsum("isq,sq->iq", F[:, :, lq, mq], Ws)

    sq, P = _slab_sums(f, rule.R, rule.S, rule.ang, reduce)
    norm_sq = float(np.sum(sq * rule.W) * rule.wang * rule.wang)
    pairings = np.einsum("iq,iq->q", P, Wx)
    entries = {(idx.j, idx.k): complex(a) / v_norm_sq(idx) for idx, a in zip(idxs, pairings)}
    return LaurentCoefficients(entries=entries, jmax=jmax, kmax=kmax, f_norm_sq=norm_sq)


def _inverse_norms(jmax: int, kmax: int) -> np.ndarray:
    """1/||v_jk||^2 over the block, indexed [j, k + 1]: one ``v_norm_sq`` call
    on the index grid, the same divisions as one call per index."""
    if jmax < 0 or kmax < -1:
        raise ValueError("need jmax >= 0 and kmax >= -1")
    grid = SimpleNamespace(j=np.arange(jmax + 1)[:, None], k=np.arange(-1, kmax + 1)[None, :])
    return 1.0 / v_norm_sq(grid)


def kernel_truncated(p: PolarPoint, q: PolarPoint, jmax: int, kmax: int) -> complex:
    """Truncated reproducing kernel sum_jk v_jk(p) conj(v_jk(q)) / ||v_jk||^2,
    summed as sum_jk X^j Y^k / ||v_jk||^2 (see the module docstring)."""
    if p.s <= 0.0 or q.s <= 0.0:
        raise ValueError("v_jk requires s > 0")
    inv = _inverse_norms(jmax, kmax)
    Y = p.w * np.conj(q.w)
    X = p.z * np.conj(q.z) / Y
    return complex(X ** np.arange(jmax + 1) @ inv @ Y ** np.arange(-1, kmax + 1))
