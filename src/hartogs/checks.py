"""Named verification checks over all modules, with machine-readable rows.

Each check produces a CheckRow carrying a stable identifier, a mathematical
claim string, the governing observed scalar, the expected value or bound,
the tolerance, and the pass verdict.  The claim, expected value, tolerance
and comparison of every check live in one registry, ``GATES``, and the
verdict is a function of (observed, expected, tolerance) and the check's
comparison alone (:meth:`Gate.passes`), one of

    rel   |observed - expected| <= tolerance * |expected|
    abs   |observed - expected| <= tolerance
    le    observed <= expected + tolerance
    lt    observed <  expected
    ge    observed >= expected
    gt    observed >  expected

A NaN observed value fails every comparison.  Report serialization lives in
:mod:`hartogs.reports`; the CLI composes these runners.  All randomness is
derived from the single seed in RunParams, so identical parameters give
identical rows.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bergman, boundary, dbar, geometry, spectral
from .points import PolarPoint, euclid
from .quadrature import QuadratureSpec

__all__ = ["CheckRow", "Gate", "RunParams", "GATES", "run_command", "poincare_field_check"]


class Gate(NamedTuple):
    """The claim of one check and the comparison that decides its verdict."""

    claim: str
    comparison: str  # rel, abs, le, lt, ge or gt; see the module docstring
    expected: float
    tolerance: float

    def passes(self, observed: float) -> bool:
        o, e, t = float(observed), self.expected, self.tolerance
        return bool({
            "rel": abs(o - e) <= t * abs(e),
            "abs": abs(o - e) <= t,
            "le": o <= e + t,
            "lt": o < e,
            "ge": o >= e,
            "gt": o > e,
        }[self.comparison])


GATES = {
    "uniform.cone.length": Gate(
        "curve length <= (5+2*pi)*|p1-p2| between cone points; 5+2*pi < 12", "le", geometry.C_TINF, 0.0),
    "uniform.cone.cigar": Gate(
        "min(|p-p1|,|p-p2|) <= (5+2*pi)*dist(p, cone boundary) along the curve", "le", geometry.C_TINF, 0.0),
    "uniform.cone.containment": Gate(
        "constructed curves keep a positive distance to the cone boundary", "gt", 0.0, 0.0),
    "uniform.triangle.length": Gate(
        "curve length <= c*|p1-p2| on T, c = (1+4*sqrt2)*(5+2*pi+4*sqrt2)/sqrt2 < 80", "le", float(geometry.C_T), 0.0),
    "uniform.triangle.cigar": Gate(
        "min(|p-p1|,|p-p2|) <= c*dist(p, bT) along the curve, same c < 80", "le", float(geometry.C_T), 0.0),
    "uniform.triangle.containment": Gate("constructed curves keep a positive distance to bT", "gt", 0.0, 0.0),
    "uniform.polar_bound": Gate(
        "|r1-r2|+|s1-s2|+min(r1,r2)*|da|+min(s1,s2)*|db| <= 3*|p1-p2| for wrapped angle differences",
        "le", 1.0, 0.0),
    "adr.profile.origin": Gate(
        "unit-ball measure of the cone boundary at the apex equals 2*pi^2/3", "rel", 2.0 * np.pi**2 / 3.0, 1e-10),
    "adr.profile.limit": Gate(
        "unit-ball measure of the cone boundary tends to 4*pi/3 far from the apex", "rel", 4.0 * np.pi / 3.0, 1e-2),
    "adr.dilation": Gate("sigma(B_rho(p) cap cone boundary) = rho^3 * f(|p|/rho)", "abs", 0.0, 1e-2),
    "adr.total": Gate(
        "sigma(bT) = (4*sqrt2/3 + 2)*pi^2, attained by any ball of radius diam T = 2*sqrt2",
        "rel", float(boundary.SIGMA_BT_TOTAL), 1e-10),
    "adr.scan.min": Gate(
        "sigma(B_rho(p) cap bT)/rho^3 stays above the frozen window floor (lower regularity)",
        "ge", boundary.ADR_WINDOW[0], 0.0),
    "adr.scan.max": Gate(
        "sigma(B_rho(p) cap bT)/rho^3 stays below the frozen window cap (upper regularity)",
        "le", boundary.ADR_WINDOW[1], 0.0),
    "adr.scan.refinement": Gate(
        "ratios sigma/rho^3 change by a factor in [1/16, 16] when rho is halved", "le", 16.0, 0.0),
    "bergman.orthogonality": Gate(
        "the functions (z/w)^j * w^k are pairwise orthogonal in L^2(T)", "abs", 0.0, 1e-8),
    "bergman.norms": Gate("||(z/w)^j * w^k||^2 = pi^2/((j+1)*(k+2))", "abs", 0.0, 1e-6),
    "bergman.projection.identity": Gate(
        "projection onto the block recovers block elements coefficient-exactly", "abs", 0.0, 1e-6),
    "bergman.projection.antiholo": Gate(
        "the orthogonal projection onto the holomorphic block annihilates conj(z)", "abs", 0.0, 1e-8),
    "bergman.kernel.hermitian": Gate("truncated kernel satisfies K(p,q) = conj(K(q,p))", "abs", 0.0, 1e-12),
    "dbar.norm.anchor": Gate("||dbar u_1||_{L^2(T)} = pi/2 for u = 1/w", "rel", np.pi / 2.0, 1e-12),
    "dbar.scaling": Gate(
        "||dbar u_delta||^2 = pi^2*delta/(4*(j+1)) = delta * ||dbar u_1||^2 (squared norm linear in delta)",
        "abs", 0.0, 1e-12),
    "dbar.gap.monotone": Gate("||u_delta - u|| decreases strictly as delta halves from 1/2 to 2^-8", "lt", 1.0, 0.0),
    "dbar.gap.decay": Gate(
        "||u_delta - u|| -> 0: the delta=2^-8 gap is below 10% of the delta=1/2 gap", "lt", 0.1, 0.0),
    "dbar.cutoff.gradbound": Gate("|d chi_delta| <= (15/8)/delta everywhere", "le", 15.0 / 8.0, 1e-9),
    "dbar.cutoff.cs": Gate(
        "int |dbar chi|^2 |f|^2 <= sqrt(int |dbar chi|^4) * sqrt(int |f|^4): for f = 1 the ratio of the sides is "
        "M2/(2*sqrt(M4)), Mn = int_0^1 S'^n (1+x)^3 dx; for |f| = 1/|w| the bound holds on shared nodes",
        "abs", 0.0, 1e-12),
    "dbar.cutoff.firstfactor": Gate(
        "(int over B_{2 delta} cap T of |dbar chi_delta|^4)^(1/2) = (pi/4)*sqrt(int_0^1 S'^4 (1+x)^3 dx) "
        "for every delta", "abs", 0.0, 1e-12),
    "dbar.cutoff.decay.smooth": Gate(
        "for f = 1 the shell energy int |dbar chi|^2 |f|^2 = (pi^2 delta^2/4) * int_0^1 S'^2 (1+x)^3 dx, "
        "so it decays like delta^2", "abs", 0.0, 1e-12),
    "dbar.cutoff.borderline": Gate(
        "for |f| = 1/|w| the shell energy equals 15*pi^2*ln2/14 for every delta; |f|^4 is not integrable",
        "abs", 0.0, 1e-12),
    "spectrum.zero": Gate("the (0,0) Neumann mode has eigenvalue 0 with constant eigenfunction", "abs", 0.0, 1e-8),
    "spectrum.kernel": Gate(
        "the zero eigenvalue is simple: the second (0,0) eigenvalue stays away from 0", "gt", 1.0, 0.0),
    "spectrum.gap.stability": Gate(
        "the first nonzero Neumann eigenvalue is grid-stable between n and 2n", "abs", 0.0, 0.01),
    "spectrum.poincare": Gate(
        "||f - mean f||^2 <= C * ||df||^2 with C = 1/lambda_min over low modes", "le", 1.0, 0.1),
    "spectrum.galerkin": Gate(
        "discrete Neumann solutions satisfy (du, dv) = (f - mean f, v) for all test vectors", "abs", 0.0, 1e-6),
}


@dataclass(frozen=True)
class CheckRow:
    check_id: str
    claim: str
    parameter_json: str
    observed: float
    expected: float
    tolerance: float
    passed: bool


def _row(check_id: str, params: dict, observed: float) -> CheckRow:
    gate = GATES[check_id]
    return CheckRow(
        check_id=check_id,
        claim=gate.claim,
        parameter_json=json.dumps(params, sort_keys=True),
        observed=float(observed),
        expected=gate.expected,
        tolerance=gate.tolerance,
        passed=gate.passes(observed),
    )


def _option(default, help: str, **bounds):
    """One run option: its default, flag help and bounds (least, top or choices)."""
    return dataclasses.field(default=default, metadata=dict(help=help, **bounds))


@dataclass(frozen=True)
class RunParams:
    """Desk-scale defaults for the check battery, one field per run option.

    Field ``a_b`` is the flag ``--a-b`` and the config key ``a_b``, so adding an
    option means adding one field.  ``least`` bounds an integer from below,
    ``top`` puts every entry of a tuple in (0, top], ``choices`` lists the
    allowed strings; ``level``, ``surface_cells`` and ``shell_level`` are
    bounded by QuadratureSpec alone.
    """

    seed: int = _option(7, "base RNG seed (sub-seeds are fixed offsets)", least=0)
    level: int = _option(24, "tensor quadrature level per axis of the bergman battery; no other battery reads it")
    surface_cells: int = _option(512, "ceiling on nodes per piece of the boundary-ball rules (>= 64)")
    shell_level: int = _option(96, "cutoff-shell theta nodes, max(16, n // 3); no other size reads it")
    domain: str = _option("both", "domain for the uniform battery", choices=("T", "T_infinity", "both"))
    pairs: int = _option(2_000, "random endpoint pairs for curve verification", least=1)
    polar_pairs: int = _option(200_000, "random pairs for the polar distance bound", least=1)
    centers: int = _option(16, "random boundary centers for the regularity scan", least=1)
    rho_set: tuple = _option((0.01, 0.1, 0.5, 1.0, 2.0), "comma-separated ball radii for the regularity scan",
                             top=boundary.DIAM_T)
    dilation_cases: int = _option(40, "random (center, radius) dilation tests", least=1)
    jmax: int = _option(8, "largest j in the basis block", least=0)
    kmax: int = _option(8, "largest k in the basis block", least=-1)
    deltas: tuple = _option((0.5, 0.1, 0.01), "comma-separated delta values for the scaling check", top=1.0)
    grid: int = _option(48, "cells per axis for the eigenvalue grid", least=8)
    mode_cut: int = _option(2, "angular mode bound for the lowest-eigenvalue search", least=1)
    poincare_grid: int = _option(64, "grid for the Poincare constant", least=8)
    n_fields: int = _option(25, "random fields for the Poincare validation", least=1)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value, bounds = getattr(self, f.name), f.metadata
            if f.type == "int" and type(value) is not int:  # bool is not accepted as an int either
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if "least" in bounds and value < bounds["least"]:
                raise ValueError(f"{f.name} must be >= {bounds['least']}, got {value!r}")
            if "choices" in bounds and value not in bounds["choices"]:
                raise ValueError(f"{f.name} must be one of {', '.join(bounds['choices'])}, got {value!r}")
            if "top" in bounds and not (value and all(0.0 < v <= bounds["top"] for v in value)):
                raise ValueError(
                    f"{f.name} must be non-empty with every value in (0, {bounds['top']:.6g}], got {value!r}")
        self.quad()  # out-of-range quadrature sizes fail here, before any battery runs

    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(level=self.level, surface_cells=self.surface_cells, shell_level=self.shell_level)


# ---------------------------------------------------------------- uniform --

#: Pairs drawn and checked per chunk of the polar bound: 8 draws of 128 KB each, so memory
#: does not grow with ``polar_pairs`` (the 200,000 default pairs are 12.8 MB of draws).
_POLAR_CHUNK = 2**14


def run_uniform(params: RunParams) -> list[CheckRow]:
    rows = []
    for domain, key in (("T_infinity", "cone"), ("T", "triangle")):
        if params.domain != "both" and domain != params.domain:
            continue
        rep = geometry.certify_uniform(domain, params.pairs, seed=params.seed)
        base = {"domain": domain, "pairs": params.pairs, "seed": params.seed}
        rows.append(_row(f"uniform.{key}.length", base, rep.max_length_ratio))
        rows.append(_row(f"uniform.{key}.cigar", base, rep.max_dist_ratio))
        rows.append(_row(f"uniform.{key}.containment", base, rep.min_boundary_dist))

    n = params.polar_pairs
    # One stream per variable, in the one-shot draw order r1, r2, s1, s2, a1, a2, b1, b2 of
    # default_rng(seed + 1): each float64 of Generator.uniform is one 64-bit PCG64 step, so the
    # stream of variable v starts v * n steps in and the chunks repeat the one-shot draws bitwise.
    state = np.random.default_rng(params.seed + 1).bit_generator.state
    streams = []
    for v, (lo, hi) in enumerate([(0.0, 2.0)] * 4 + [(-np.pi, np.pi)] * 4):
        bits = np.random.PCG64()
        bits.state = state
        streams.append((np.random.Generator(bits.advance(v * n)), lo, hi))
    # the bound is elementwise, so chunks give the one-shot maxima and counts
    worst, violations = [], 0
    for start in range(0, n, _POLAR_CHUNK):
        size = min(_POLAR_CHUNK, n - start)
        r1, r2, s1, s2, a1, a2, b1, b2 = (gen.uniform(lo, hi, size) for gen, lo, hi in streams)
        pair = (r1, a1, s1, b1, r2, a2, s2, b2)
        lhs = geometry.polar_lhs_arrays(*pair)
        dist = euclid(*pair)
        ratio = np.divide(lhs, 3.0 * dist, out=np.zeros_like(lhs), where=dist > 0)
        worst.append(ratio.max())
        violations += int(np.sum(ratio > 1.0))
    rows.append(_row("uniform.polar_bound", {"pairs": n, "seed": params.seed + 1, "violations": violations},
                     np.max(worst)))
    return rows


# -------------------------------------------------------------------- adr --


def run_adr(params: RunParams) -> list[CheckRow]:
    spec = params.quad()
    rows = []

    for t, check_id in ((0.0, "adr.profile.origin"), (200.0, "adr.profile.limit")):
        rows.append(_row(check_id, {"t": t, "cells": spec.surface_cells}, boundary.f_profile(t, spec)))

    rng = np.random.default_rng(params.seed + 2)
    points, radii = [], []
    for _ in range(params.dilation_cases):
        rc = rng.uniform(0.05, 2.0)
        radii.append(rng.uniform(0.05, 2.0))
        a, b = rng.uniform(-np.pi, np.pi, 2)
        points.append(PolarPoint(rc / np.sqrt(2.0), a, rc / np.sqrt(2.0), b))
    # every case in one batch per side of the law
    via_formula = boundary.sigma_ball_Tinf(points, radii, spec)
    direct = boundary.sigma_ball_Tinf_direct(points, radii, spec)
    errs = np.abs(via_formula - direct) / np.maximum(direct, 1e-300)
    rows.append(_row("adr.dilation", {"cases": params.dilation_cases, "seed": params.seed + 2}, np.max(errs)))

    p_cone = PolarPoint(0.25, 0.3, 0.25, -1.1)
    rows.append(_row("adr.total", {"rho": boundary.DIAM_T}, boundary.sigma_ball_bT(p_cone, boundary.DIAM_T, spec)))

    rho_all = sorted(set(list(params.rho_set) + [x / 2.0 for x in params.rho_set]))
    scan_params = {"centers": params.centers, "rho_set": rho_all, "seed": params.seed + 3}
    try:
        report = boundary.adr_scan(params.centers, rho_all, params.seed + 3, spec)
    except boundary.BallNotConvergedError:
        # a ball that stays unresolved at the node ceiling bounds nothing: the
        # three scan rows fail (-inf below the floor, inf above both caps)
        lo, hi, refinement = -np.inf, np.inf, np.inf
    else:
        # samples run center by center over rho_all, which holds each rho and its rho/2
        table = report.ratios.reshape(params.centers, len(rho_all))
        fac = table[:, [rho_all.index(rho) for rho in params.rho_set]] \
            / table[:, [rho_all.index(rho / 2.0) for rho in params.rho_set]]
        lo, hi, refinement = report.min_ratio, report.max_ratio, np.max(np.maximum(fac, 1.0 / fac))
    rows.append(_row("adr.scan.min", scan_params, lo))
    rows.append(_row("adr.scan.max", scan_params, hi))
    rows.append(_row("adr.scan.refinement", scan_params, refinement))
    return rows


# ---------------------------------------------------------------- bergman --


def run_bergman(params: RunParams) -> list[CheckRow]:
    spec = params.quad()
    rows = []
    idxs, G = bergman.basis_gram(params.jmax, params.kmax, spec)
    norms = np.sqrt(np.real(np.diag(G)))
    offdiag = np.abs(G) / np.outer(norms, norms)
    np.fill_diagonal(offdiag, 0.0)
    block = {"jmax": params.jmax, "kmax": params.kmax, "level": spec.level}
    rows.append(_row("bergman.orthogonality", block, offdiag.max()))

    closed = np.array([bergman.v_norm_sq(i) for i in idxs])
    rel = np.abs(np.real(np.diag(G)) - closed) / closed
    rows.append(_row("bergman.norms", block, rel.max()))

    target = bergman.LaurentIndex(min(2, params.jmax), min(3, params.kmax))
    coeffs = bergman.project(bergman.v_field(target), params.jmax, params.kmax, spec)
    err_self = abs(coeffs.get(target.j, target.k) - 1.0)
    err_cross = [abs(a) for (j, k), a in coeffs.entries.items() if (j, k) != (target.j, target.k)]
    rows.append(_row("bergman.projection.identity", {**block, "target": [target.j, target.k]},
                     np.max([err_self, *err_cross])))

    anti = bergman.project(lambda r, a, s, b: r * np.exp(-1j * a), params.jmax, params.kmax, spec)
    rows.append(_row("bergman.projection.antiholo", block, np.max([abs(v) for v in anti.entries.values()])))

    rng = np.random.default_rng(params.seed + 4)
    asym = []
    for _ in range(50):
        Rr = rng.uniform(0.05, 0.9, 2)
        pts = []
        for base in Rr:
            s = float(rng.uniform(base + 0.05, 1.0))
            pts.append(PolarPoint(base, float(rng.uniform(-np.pi, np.pi)), s, float(rng.uniform(-np.pi, np.pi))))
        p, q = pts
        kpq = bergman.kernel_truncated(p, q, params.jmax, params.kmax)
        kqp = bergman.kernel_truncated(q, p, params.jmax, params.kmax)
        asym.append(abs(kpq - np.conj(kqp)))
    rows.append(_row("bergman.kernel.hermitian", {**block, "pairs": 50, "seed": params.seed + 4}, np.max(asym)))
    return rows


# ------------------------------------------------------------------- dbar --


def run_dbar(params: RunParams) -> list[CheckRow]:
    spec = params.quad()
    rows = []

    anchor = dbar.dbar_u_delta_norm(dbar.DeltaFamilySpec(j=0, delta=1.0), spec)
    rows.append(_row("dbar.norm.anchor", {"j": 0, "delta": 1.0}, anchor))

    # each squared norm against pi^2 delta/(4(j+1)); the ratio to delta = 1 as a consistency sub-check
    errs = []
    for j in (0, 1, 2):
        n1 = dbar.dbar_u_delta_norm(dbar.DeltaFamilySpec(j=j, delta=1.0), spec)
        exact1 = np.pi**2 / (4.0 * (j + 1))
        errs.append(abs(n1**2 - exact1) / exact1)
        for delta in params.deltas:
            nd = dbar.dbar_u_delta_norm(dbar.DeltaFamilySpec(j=j, delta=delta), spec)
            errs.append(abs(nd**2 - delta * exact1) / (delta * exact1))
            errs.append(abs(nd**2 / n1**2 - delta) / delta)
    rows.append(_row("dbar.scaling", {"deltas": list(params.deltas), "j": [0, 1, 2]}, np.max(errs)))

    gaps = [dbar.l2_gap(dbar.DeltaFamilySpec(j=0, delta=2.0**-k), spec) for k in range(1, 9)]
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    rows.append(_row("dbar.gap.monotone", {"deltas": "2^-1..2^-8", "j": 0}, np.max(ratios)))
    rows.append(_row("dbar.gap.decay", {"deltas": "2^-1..2^-8", "j": 0}, gaps[-1] / gaps[0]))

    # S' = 30 x^2 (1-x)^2 is stationary at 0, 1/2 and 1, the ends of its support, so its maximum,
    # the delta-scaled bound, is attained there: 15/8 exactly.  The scan checks that no point exceeds it.
    grad_max = dbar.smoothstep_deriv(np.array([0.0, 0.5, 1.0])).max()
    xs = np.linspace(0.0, 3.0, 200_001)
    if not dbar.smoothstep_deriv(xs).max() <= grad_max:  # NaN-safe
        grad_max = np.inf
    rows.append(_row("dbar.cutoff.gradbound", {"scan_points": xs.size}, grad_max))

    fields = {
        "one": lambda r, a, s, b: np.ones(np.broadcast(r, s).shape),
        "winv": lambda r, a, s, b: bergman.v_eval_arrays(0, -1, r, a, s, b),
    }
    deltas = [2.0**-k for k in range(2, 9)]
    # closed forms, no quadrature: with t = delta (1 + x), |dbar chi| = S'(x)/(2 delta) and
    # dV = t^3 sin cos dt dtheta da db on theta in (pi/4, pi/2), the shell integrals are
    # int |dbar chi|^4 = (pi^2/16) M4, int |dbar chi|^2 = (pi^2 delta^2/4) M2 and vol = 4 pi^2 delta^4,
    # where Mn = int_0^1 S'(x)^n (1+x)^3 dx, S' = 30 x^2 (1-x)^2, integrates exactly as a polynomial
    m2, m4 = 765.0 / 154.0, 587250.0 / 46189.0
    cs_ref = m2 / (2.0 * np.sqrt(m4))  # lhs/rhs for f = 1
    one, winv = zip(*[[dbar.cutoff_commutator_check(f, delta, spec) for f in fields.values()] for delta in deltas])
    cs = [abs(rep.lhs / rep.rhs / cs_ref - 1.0) for rep in one]
    cs += [0.0 if rep.lhs <= rep.rhs else np.inf for rep in winv]  # NaN-safe
    rows.append(_row("dbar.cutoff.cs", {"deltas": "2^-2..2^-8", "fields": sorted(fields)}, np.max(cs)))
    first_ref = np.pi / 4.0 * np.sqrt(m4)
    rows.append(_row("dbar.cutoff.firstfactor", {"deltas": "2^-2..2^-8"},
                     np.max([abs(rep.first_factor / first_ref - 1.0) for rep in one])))
    smooth_ref = np.pi**2 / 4.0 * m2
    rows.append(_row("dbar.cutoff.decay.smooth", {"deltas": "2^-2..2^-8"},
                     np.max([abs(rep.lhs / (smooth_ref * d * d) - 1.0) for rep, d in zip(one, deltas)])))
    # closed form: 4 pi^2 * (1/4) int_0^1 S'(x)^2 (1+x) dx * int_{pi/4}^{pi/2} cot = 4 pi^2 (15/28) (ln 2)/2
    border = 15.0 * np.pi**2 * np.log(2.0) / 14.0
    border_err = np.max([abs(rep.lhs / border - 1.0) for rep in winv])
    # the claim's other half: |1/w|^4 diverges, |1|^4 not; a probe that cannot tell (None) fails too
    if [rep.l4_diverges for rep in winv + one] != [True] * len(deltas) + [False] * len(deltas):
        border_err = np.inf
    rows.append(_row("dbar.cutoff.borderline", {"deltas": "2^-2..2^-8"}, border_err))
    return rows


# --------------------------------------------------------------- spectrum --


def poincare_field_check(C: float, mode_cut: int, n_fields: int, seed):
    """Rayleigh validation of the Poincare estimate on random fields.

    Fields are f = Re g, g a random finite combination of basis v_jk with
    k >= 0 (so first derivatives are square-integrable), (j, k) != (0, 0)
    and both angular modes within mode_cut.  Returns (worst_ratio, all_ok),
    ratio = ||f - mean f||^2 / (C * ||df||^2), all_ok the verdict of the
    ``spectrum.poincare`` gate.  Every term of g and of g^2 has a nonzero
    angular mode, so f has mean 0 and ||f||^2 = ||g||^2 / 2; the energy is
    ||dg/dz||^2 + ||dg/dw||^2 with d/dz v_jk = j v_{j-1,k-1} and d/dw v_jk =
    (k-j) v_{j,k-1}.  Both index maps are injective, so all three norms are
    orthogonal sums over the coefficients, with no quadrature.
    """
    rng = np.random.default_rng(seed)
    pool = [
        (j, k)
        for j in range(0, mode_cut + 1)
        for k in range(max(0, j - mode_cut), j + mode_cut + 1)
        if (j, k) != (0, 0)
    ]
    ratios = []
    for _ in range(n_fields):
        size = int(rng.integers(2, 5))
        picks = rng.choice(len(pool), size=size, replace=False)
        coeffs = {pool[i]: complex(rng.normal(), rng.normal()) for i in picks}
        gz = {(j - 1, k - 1): j * c for (j, k), c in coeffs.items() if j > 0}
        gw = {(j, k - 1): (k - j) * c for (j, k), c in coeffs.items() if k != j}
        norm, norm_z, norm_w = (bergman.LaurentCoefficients(table, jmax=mode_cut, kmax=2 * mode_cut).weighted_energy()
                                for table in (coeffs, gz, gw))
        ratios.append(norm / 2.0 / (C * (norm_z + norm_w)))
    worst = float(np.max(ratios))
    return worst, GATES["spectrum.poincare"].passes(worst)


def run_spectrum(params: RunParams) -> list[CheckRow]:
    rows = []
    res = spectral.neumann_spectrum(0, 0, params.grid, 2)  # lambda_0 and lambda_1 at n and 2n
    grid_params = {"l": 0, "m": 0, "n": params.grid}
    rows.append(_row("spectrum.zero", grid_params, res.eigenvalues[0]))
    rows.append(_row("spectrum.kernel", grid_params, res.eigenvalues[1]))

    lam_n = res.eigenvalues[1]
    lam_2n = res.fine_eigenvalues[1]
    drift = abs(lam_n - lam_2n) / lam_2n
    rows.append(_row("spectrum.gap.stability", {"n": params.grid, "2n": 2 * params.grid}, drift))

    C = spectral.poincare_constant(params.poincare_grid, params.mode_cut)
    worst, _ = poincare_field_check(C, params.mode_cut, params.n_fields, params.seed + 5)
    rows.append(_row("spectrum.poincare",
                     {"n": params.poincare_grid, "mode_cut": params.mode_cut, "fields": params.n_fields,
                      "C": C, "seed": params.seed + 5},
                     worst))

    # Galerkin identity on random test vectors for a smooth source
    n = params.grid
    problem = spectral.build_mode(0, 0, n)
    source = lambda r, s: np.cos(np.pi * s) + r
    fhat = source(problem.r_centers, problem.s_centers)
    try:
        u = spectral.solve_neumann(source, 0, 0, n)
    except spectral.EigenSolverError:
        galerkin = np.inf  # a solve that fails its residual check fails this row alone
    else:
        w = problem.mass.diagonal()
        fhat = fhat - float(w @ fhat) / float(w.sum())
        rng = np.random.default_rng(params.seed + 6)
        errs = []
        for _ in range(10):
            v = rng.normal(size=problem.size)
            lhs = float(v @ (problem.stiffness @ u))
            rhs = float(v @ (problem.mass @ fhat))
            errs.append(abs(lhs - rhs) / max(abs(rhs), 1e-30))
        galerkin = np.max(errs)
    rows.append(_row("spectrum.galerkin", {"n": n, "tests": 10, "seed": params.seed + 6}, galerkin))
    return rows


_RUNNERS = {
    "uniform": run_uniform,
    "adr": run_adr,
    "bergman": run_bergman,
    "dbar": run_dbar,
    "spectrum": run_spectrum,
}


def run_command(command: str, params: RunParams) -> list[CheckRow]:
    """Execute one named battery, or all of them in ``_RUNNERS`` order."""
    if command == "all":
        return [row for runner in _RUNNERS.values() for row in runner(params)]
    if command not in _RUNNERS:
        raise ValueError(f"unknown command {command!r}")
    return _RUNNERS[command](params)
