"""The three benchmark workloads: seeded inputs, the timed calls, the checks.

Each workload is a ``Workload`` with

* ``inputs(seed, round)``: the inputs of one round, drawn from the seed; both
  passes of a round get the same inputs;
* ``run(inputs, workdir)``: the calls into ``hartogs`` that one pass times;
* ``check(inputs, outputs)``: failure messages from comparing the outputs with
  the references in :mod:`oracles` and with properties the method must have
  (empty when every check holds).

Sizes live in the input dataclasses so the tests can run the same checks at
smaller sizes.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as O
from hartogs import bergman, boundary, cli, dbar, quadrature, spectral
from hartogs.points import PolarPoint

# Monte Carlo checks fail at this many standard errors; seeded, so a given
# seed passes or fails the same way every time.
MC_SIGMAS = 6.0
MC_SAMPLES = 400_000


class Checker:
    """Collects failure messages."""

    def __init__(self):
        self.failures: list[str] = []

    def true(self, name: str, ok, detail: str = "") -> None:
        if not bool(ok):
            self.failures.append(f"{name}: {detail}" if detail else name)

    def close(self, name: str, observed, expected, rel: float = 0.0, abs_: float = 0.0) -> None:
        err = abs(observed - expected)
        tol = rel * abs(expected) + abs_
        self.true(name, err <= tol, f"observed {observed!r}, expected {expected!r}, |err| {err:.3e} > {tol:.3e}")


def _rng(seed: int, round_: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_, stream])


def digest(obj) -> str:
    """SHA-256 of a canonical byte form of nested outputs (floats by repr)."""
    h = hashlib.sha256()

    def feed(x):
        if dataclasses.is_dataclass(x) and not isinstance(x, type):
            h.update(type(x).__name__.encode())
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif hasattr(x, "tocsr"):
            m = x.tocsr()
            for a in (m.data, m.indices, m.indptr):
                feed(np.asarray(a))
        elif isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode() + repr(x.shape).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            for k in sorted(x, key=repr):
                feed(k)
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        else:
            h.update(repr(x).encode() + b";")

    feed(obj)
    return h.hexdigest()


# --- desk_all ---------------------------------------------------------------


@dataclass(frozen=True)
class DeskInputs:
    seed: int  # the --seed given to hartogs all


def desk_inputs(seed: int, round_: int) -> DeskInputs:
    return DeskInputs(seed=1000 * seed + round_)


def desk_run(inp: DeskInputs, workdir: str) -> dict:
    path = os.path.join(workdir, "desk_all.csv")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        status = cli.main(["all", "--seed", str(inp.seed), "--format", "csv", "--out", path])
    with open(path, "rb") as fh:
        body = fh.read()
    return {"status": status, "csv": body}


DESK_ROWS = 33


def desk_check(inp: DeskInputs, out: dict) -> list[str]:
    c = Checker()
    c.true("desk.exit_status", out["status"] == 0, f"hartogs all exited {out['status']}")
    rows = list(csv.DictReader(io.StringIO(out["csv"].decode("utf-8"))))
    c.true("desk.row_count", len(rows) == DESK_ROWS, f"{len(rows)} rows, expected {DESK_ROWS}")
    by_id = {r["check_id"]: r for r in rows}
    failed = [r["check_id"] for r in rows if r["pass"] != "true"]
    c.true("desk.all_pass", not failed, f"failing rows {failed}")

    def observed(check_id):
        return float(by_id[check_id]["observed"]) if check_id in by_id else math.nan

    def expected(check_id):
        return float(by_id[check_id]["expected"]) if check_id in by_id else math.nan

    c.close("desk.adr.profile.origin", observed("adr.profile.origin"), O.F_APEX, rel=1e-4)
    c.close("desk.adr.profile.limit", observed("adr.profile.limit"), O.F_LIMIT, rel=1e-2)
    c.close("desk.adr.total", observed("adr.total"), O.SIGMA_BT, rel=1e-3)
    c.close("desk.dbar.norm.anchor", observed("dbar.norm.anchor"), O.dbar_u_delta_norm(0, 1.0), rel=1e-9)
    for check_id, value in (("adr.profile.origin", O.F_APEX), ("adr.profile.limit", O.F_LIMIT),
                            ("adr.total", O.SIGMA_BT), ("dbar.norm.anchor", math.pi / 2.0)):
        c.close(f"desk.expected.{check_id}", expected(check_id), value, rel=1e-15)
    lo, hi = O.ADR_WINDOW
    c.true("desk.adr.window", lo < observed("adr.scan.min") <= observed("adr.scan.max") < hi,
           f"scan ratios [{observed('adr.scan.min')}, {observed('adr.scan.max')}] outside {O.ADR_WINDOW}")
    c.true("desk.uniform.cone", observed("uniform.cone.length") <= 5.0 + 2.0 * math.pi
           and observed("uniform.cone.cigar") <= 5.0 + 2.0 * math.pi, "cone curve ratio above 5 + 2 pi")
    c.true("desk.spectrum.zero", abs(observed("spectrum.zero")) <= 1e-8, f"{observed('spectrum.zero')}")
    return c.failures


def desk_digest(out: dict) -> str:
    return hashlib.sha256(out["csv"]).hexdigest()


# --- boundary_sweep ---------------------------------------------------------


@dataclass(frozen=True)
class SweepInputs:
    cells: int
    profile_t: tuple  # f_profile arguments: apex, near-apex band, far field
    dilation: tuple  # (c, alpha, beta, rho): cone centre (c e^{ia}, c e^{ib})
    scan_centers: int
    scan_seed: int
    radii: tuple
    total_center: tuple  # (r, alpha, s, beta) on bT
    mc_seed: int


def sweep_inputs(seed: int, round_: int, cells: int = 768, dilation_draws: int = 16,
                 scan_centers: int = 10) -> SweepInputs:
    rng = _rng(seed, round_, 1)
    near = np.sort(rng.uniform(0.0, 0.7, 6))
    far = np.sort(np.exp(rng.uniform(math.log(1.0), math.log(50.0), 4)))
    profile_t = (0.0, *map(float, near), *map(float, far), 200.0)
    dilation = tuple(
        (float(rng.uniform(0.1, 1.4)), float(rng.uniform(-math.pi, math.pi)),
         float(rng.uniform(-math.pi, math.pi)), float(math.exp(rng.uniform(math.log(0.05), 0.0))))
        for _ in range(dilation_draws)
    )
    c = float(rng.uniform(0.05, 1.0))
    total_center = (c, float(rng.uniform(-math.pi, math.pi)), c, float(rng.uniform(-math.pi, math.pi)))
    return SweepInputs(
        cells=cells,
        profile_t=profile_t,
        dilation=dilation,
        scan_centers=scan_centers,
        scan_seed=int(rng.integers(2**31)),
        radii=tuple(2.0**-k for k in range(7)),
        total_center=total_center,
        mc_seed=int(rng.integers(2**31)),
    )


def sweep_run(inp: SweepInputs, workdir: str) -> dict:
    spec = quadrature.QuadratureSpec(surface_cells=inp.cells)
    profile = [boundary.f_profile(t, spec) for t in inp.profile_t]
    dilation = []
    for c, a, b, rho in inp.dilation:
        p = PolarPoint(c, a, c, b)
        dilation.append((boundary.sigma_ball_Tinf(p, rho, spec), boundary.sigma_ball_Tinf_direct(p, rho, spec)))
    scan = boundary.adr_scan(inp.scan_centers, inp.radii, inp.scan_seed, spec)
    total = boundary.sigma_ball_bT(PolarPoint(*inp.total_center), O.DIAM_T, spec)
    return {"profile": profile, "dilation": dilation, "scan": scan, "total": total}


def _mc_close(c: Checker, name: str, program: float, parts, z0: complex, w0: complex, rho: float, rng) -> None:
    est, var = 0.0, 0.0
    for part in parts:
        e, se = O.mc_ball_measure(z0, w0, rho, part, MC_SAMPLES, rng)
        est, var = est + e, var + se * se
    c.close(name, program, est, abs_=MC_SIGMAS * math.sqrt(var))


def sweep_check(inp: SweepInputs, out: dict) -> list[str]:
    c = Checker()
    rng = np.random.default_rng(inp.mc_seed)
    profile = dict(zip(inp.profile_t, out["profile"]))
    c.close("sweep.f_apex", profile[0.0], O.F_APEX, rel=1e-4)
    c.close("sweep.f_far", profile[200.0], O.F_LIMIT, rel=1e-2)
    c.true("sweep.f_positive", all(0.0 < f < 2.0 * O.F_APEX for f in out["profile"]), f"{out['profile']}")
    # one near-apex and one far-field profile value against Monte Carlo
    for t in (inp.profile_t[3], inp.profile_t[-2]):
        z = complex(t / O.SQ2)
        _mc_close(c, f"sweep.f_mc(t={t:.4g})", profile[t], ("cone",), z, z, 1.0, rng)

    for (cc, a, b, rho), (via, direct) in zip(inp.dilation, out["dilation"]):
        c.close(f"sweep.dilation(c={cc:.4g},rho={rho:.4g})", via, direct, rel=1e-2)
    for (cc, a, b, rho), (_, direct) in list(zip(inp.dilation, out["dilation"]))[:2]:
        p = PolarPoint(cc, a, cc, b)
        _mc_close(c, f"sweep.dilation_mc(c={cc:.4g},rho={rho:.4g})", direct, ("cone",), p.z, p.w, rho, rng)

    scan = out["scan"]
    ratios = [sig / rho**3 for (_, rho, sig) in scan.samples]
    lo, hi = O.ADR_WINDOW
    c.true("sweep.adr_count", len(scan.samples) == inp.scan_centers * len(inp.radii), f"{len(scan.samples)} samples")
    c.true("sweep.adr_window", all(lo < q < hi for q in ratios), f"ratios in [{min(ratios)}, {max(ratios)}]")
    c.true("sweep.adr_report", scan.passed and scan.min_ratio == min(ratios) and scan.max_ratio == max(ratios),
           "report min/max/passed disagree with its samples")
    cone = [s for s in scan.samples if s[0].s < 1.0]
    cyl = [s for s in scan.samples if s[0].s == 1.0]
    c.true("sweep.adr_strata", cone and cyl, "centres missing on the cone or on the cylinder")
    picks = [cone[i] for i in rng.choice(len(cone), 2, replace=False)] + \
            [cyl[i] for i in rng.choice(len(cyl), 2, replace=False)]
    for p, rho, sig in picks:
        _mc_close(c, f"sweep.adr_mc(s={p.s:.4g},rho={rho:.4g})", sig, ("cone_bT", "cylinder"), p.z, p.w, rho, rng)

    c.close("sweep.total", out["total"], O.SIGMA_BT, rel=1e-3)
    return c.failures


# --- fine_grids -------------------------------------------------------------


@dataclass(frozen=True)
class FineInputs:
    level: int
    block: int  # jmax = kmax
    target: tuple  # (j, k) projected and integrated
    norm_index: tuple  # (j, k) whose |v|^2 integrate_T integrates
    kernel_order: int  # J = K of the truncated kernel
    kernel_pairs: tuple  # ((z, w), (zeta, eta)) pairs in T
    shell_level: int
    deltas: tuple  # for dbar_u_delta_norm and l2_gap, j = 0, 1, 2
    cutoff_deltas: tuple
    grid: int
    modes: int  # eigenvalues of modes l, m in 0..modes; the Poincare constant scans one mode further
    source: tuple  # coefficients of the Neumann source
    galerkin_seed: int


def fine_inputs(seed: int, round_: int, level: int = 64, kernel_order: int = 32, kernel_pairs: int = 12,
                shell_level: int = 192, grid: int = 96) -> FineInputs:
    rng = _rng(seed, round_, 2)
    block = 8
    target = (int(rng.integers(0, block + 1)), int(rng.integers(-1, block + 1)))
    norm_index = (int(rng.integers(0, block + 1)), int(rng.integers(-1, block + 1)))
    pts = O.sample_T(2 * kernel_pairs, rng)
    return FineInputs(
        level=level,
        block=block,
        target=target,
        norm_index=norm_index,
        kernel_order=kernel_order,
        kernel_pairs=tuple(zip(pts[::2], pts[1::2])),
        shell_level=shell_level,
        deltas=tuple(float(x) for x in np.exp(rng.uniform(math.log(1e-3), 0.0, 3))),
        cutoff_deltas=tuple(float(x) for x in 2.0 ** rng.uniform(-8.0, -2.0, 2)),
        grid=grid,
        modes=1,
        source=tuple(float(x) for x in rng.normal(size=3)),
        galerkin_seed=int(rng.integers(2**31)),
    )


def _field_one(r, a, s, b):
    return np.ones(np.broadcast(r, s).shape)


def _field_winv(r, a, s, b):
    return bergman.v_eval_arrays(0, -1, r, a, s, b)


def _conj_z(r, a, s, b):
    return r * np.exp(-1j * a)


def fine_run(inp: FineInputs, workdir: str) -> dict:
    spec = quadrature.QuadratureSpec(level=inp.level, shell_level=inp.shell_level)
    n = inp.block
    _, gram = bergman.basis_gram(n, n, spec)
    proj = bergman.project(bergman.v_field(bergman.LaurentIndex(*inp.target)), n, n, spec)
    anti = bergman.project(_conj_z, n, n, spec)
    j, k = inp.norm_index
    norm = quadrature.integrate_T(lambda r, a, s, b: np.abs(bergman.v_eval_arrays(j, k, r, a, s, b)) ** 2, spec)
    kernel = [bergman.kernel_truncated(PolarPoint.from_cartesian(*p), PolarPoint.from_cartesian(*q),
                                       inp.kernel_order, inp.kernel_order)
              for p, q in inp.kernel_pairs]

    dnorm = {(j, d): dbar.dbar_u_delta_norm(dbar.DeltaFamilySpec(j, d), spec) for j in range(3) for d in inp.deltas}
    gap = {(j, d): dbar.l2_gap(dbar.DeltaFamilySpec(j, d), spec) for j in range(3) for d in inp.deltas}
    cutoff = {(name, d): dbar.cutoff_commutator_check(f, d, spec)
              for d in inp.cutoff_deltas for name, f in (("one", _field_one), ("winv", _field_winv))}

    spectra = {(l, m): spectral.neumann_spectrum(l, m, inp.grid, 6 if (l, m) == (0, 0) else 1)
               for l in range(inp.modes + 1) for m in range(inp.modes + 1)}
    poincare = spectral.poincare_constant(inp.grid, inp.modes + 1)
    c0, c1, c2 = inp.source
    u = spectral.solve_neumann(lambda r, s: c0 * np.cos(np.pi * s) + c1 * r + c2 * s * s, 0, 0, inp.grid)
    problem = spectral.build_mode(0, 0, inp.grid)
    return {"gram": gram, "proj": proj, "anti": anti, "norm": norm, "kernel": kernel, "dnorm": dnorm, "gap": gap,
            "cutoff": cutoff, "spectra": spectra, "poincare": poincare, "u": u, "problem": problem}


def fine_check(inp: FineInputs, out: dict) -> list[str]:
    c = Checker()
    n = inp.block
    idxs = [(j, k) for j in range(n + 1) for k in range(-1, n + 1)]
    gram = out["gram"]
    closed = np.array([O.laurent_norm_sq(j, k) for j, k in idxs])
    c.close("fine.gram_norms", float(np.max(np.abs(np.real(np.diag(gram)) / closed - 1.0))), 0.0, abs_=1e-9)
    off = np.abs(gram) / np.sqrt(np.outer(closed, closed))
    np.fill_diagonal(off, 0.0)
    c.close("fine.gram_orthogonal", float(off.max()), 0.0, abs_=1e-8)

    proj = out["proj"]
    for (j, k) in idxs:
        want = 1.0 if (j, k) == inp.target else 0.0
        c.close(f"fine.project_identity{(j, k)}", proj.get(j, k), want, abs_=1e-6)
    c.close("fine.project_norm", proj.f_norm_sq, O.laurent_norm_sq(*inp.target), rel=1e-9)
    anti = out["anti"]
    c.close("fine.project_antiholo", max(abs(v) for v in anti.entries.values()), 0.0, abs_=1e-8)
    c.close("fine.project_conj_z_norm", anti.f_norm_sq, math.pi**2 / 6.0, rel=1e-9)
    c.close("fine.integrate_T_norm", out["norm"].real, O.laurent_norm_sq(*inp.norm_index), rel=1e-9)

    for (p, q), value in zip(inp.kernel_pairs, out["kernel"]):
        exact = O.bergman_kernel(*p, *q)
        tol = O.bergman_truncation_tolerance(*p, *q, inp.kernel_order, inp.kernel_order)
        c.close(f"fine.kernel(|K|={abs(exact):.3g})", value, exact, abs_=tol)

    for (j, d), value in out["dnorm"].items():
        c.close(f"fine.dbar_norm(j={j},delta={d:.4g})", value, O.dbar_u_delta_norm(j, d), rel=1e-9)
    for (j, d), value in out["gap"].items():
        c.close(f"fine.l2_gap(j={j},delta={d:.4g})", value, O.l2_gap(j, d), rel=1e-8)
    for (name, d), rep in out["cutoff"].items():
        c.true(f"fine.cutoff_cs({name},{d:.4g})", rep.lhs <= rep.rhs, f"lhs {rep.lhs} > rhs {rep.rhs}")
        c.close(f"fine.cutoff_first_factor({name},{d:.4g})", rep.first_factor, O.cutoff_first_factor(), rel=1e-9)
        want = O.BORDERLINE_ENERGY if name == "winv" else O.smooth_shell_energy(d)
        c.close(f"fine.cutoff_energy({name},{d:.4g})", rep.lhs, want, rel=1e-6)
        c.true(f"fine.cutoff_l4_flag({name},{d:.4g})", rep.l4_diverges == (name == "winv"),
               f"l4_diverges={rep.l4_diverges}")

    spectra = out["spectra"]
    zero = spectra[(0, 0)].eigenvalues
    c.close("fine.spectrum_zero", zero[0], 0.0, abs_=1e-8)
    c.true("fine.spectrum_kernel", zero[1] > 1.0, f"second (0,0) eigenvalue {zero[1]}")
    c.true("fine.spectrum_sorted", all(np.all(np.diff(s.eigenvalues) >= 0.0) for s in spectra.values()), "unsorted")
    c.true("fine.spectrum_grid_stable", all(s.converged for s in spectra.values()),
           f"not grid-stable: {[m for m, s in spectra.items() if not s.converged]}")
    low = {mode: s.eigenvalues[0] for mode, s in spectra.items()}
    for (l, m), lam in low.items():
        for nxt in ((l + 1, m), (l, m + 1)):
            if nxt in low:
                c.true(f"fine.spectrum_monotone{(l, m)}->{nxt}", low[nxt] >= lam, f"{low[nxt]} < {lam}")
    lam_min = min([zero[1]] + [lam for mode, lam in low.items() if mode != (0, 0)])
    c.close("fine.poincare", out["poincare"], 1.0 / lam_min, rel=1e-8)

    problem, u = out["problem"], out["u"]
    c0, c1, c2 = inp.source
    rc, sc = problem.r_centers, problem.s_centers
    fhat = c0 * np.cos(np.pi * sc) + c1 * rc + c2 * sc * sc
    w = problem.mass.diagonal()
    fhat = fhat - float(w @ fhat) / float(w.sum())
    rng = np.random.default_rng(inp.galerkin_seed)
    worst = 0.0
    for _ in range(10):
        v = rng.normal(size=problem.size)
        lhs = float(v @ (problem.stiffness @ u))
        rhs = float(v @ (problem.mass @ fhat))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    c.close("fine.galerkin", worst, 0.0, abs_=1e-6)
    c.close("fine.solution_mean", float(w @ u), 0.0, abs_=1e-10 * float(np.sqrt(w @ (u * u) * w.sum())))
    return c.failures


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    run: Callable
    check: Callable
    digest: Callable


WORKLOADS = {
    "desk_all": Workload(desk_inputs, desk_run, desk_check, desk_digest),
    "boundary_sweep": Workload(sweep_inputs, sweep_run, sweep_check, digest),
    "fine_grids": Workload(fine_inputs, fine_run, fine_check, digest),
}
