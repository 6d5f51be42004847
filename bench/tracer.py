"""Spans around calls into each ``hartogs`` module, and the per-layer metrics.

``Tracer.install`` replaces the traced functions with timing wrappers
wherever the program can reach them: the defining module, every ``hartogs``
module that bound the name with ``from ... import``, and dispatch tables such
as ``checks._RUNNERS``.  It also wraps three library functions at the module
attribute the program calls them through: ``numpy.polynomial.legendre.leggauss``
(Gauss rules built), ``scipy.sparse.linalg.eigsh`` and ``spsolve``.

A span is ``[id, parent_id, name, start, end, attrs]``; spans live in memory
until the pass ends.  Nothing inside ``src/`` is changed on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time


def _level(args, result):
    return {"level": args["spec"].level}


def _curve_points(args, result):
    return {"curve_points": args["n_pairs"] * 3 * args["n_curve_samples"]}


def _dofs(args, result):
    return {"dofs": result.size}


# (module, function, span name, attrs extractor)
TRACED = (
    ("hartogs.checks", "run_uniform", "checks.uniform", None),
    ("hartogs.checks", "run_adr", "checks.adr", None),
    ("hartogs.checks", "run_bergman", "checks.bergman", None),
    ("hartogs.checks", "run_dbar", "checks.dbar", None),
    ("hartogs.checks", "run_spectrum", "checks.spectrum", None),
    ("hartogs.geometry", "verify_uniform", "geometry.verify_uniform", _curve_points),
    ("hartogs.boundary", "f_profile", "boundary.f_profile", None),
    ("hartogs.boundary", "sigma_ball_Tinf", "boundary.sigma_ball_Tinf", None),
    ("hartogs.boundary", "sigma_ball_Tinf_direct", "boundary.sigma_ball_Tinf_direct", None),
    ("hartogs.boundary", "sigma_ball_bT", "boundary.sigma_ball_bT", None),
    ("hartogs.boundary", "adr_scan", "boundary.adr_scan", None),
    ("hartogs.quadrature", "integrate_T", "quadrature.integrate_T", _level),
    ("numpy.polynomial.legendre", "leggauss", "quadrature.leggauss", None),
    ("hartogs.bergman", "basis_gram", "bergman.basis_gram", None),
    ("hartogs.bergman", "project", "bergman.project", _level),
    ("hartogs.bergman", "kernel_truncated", "bergman.kernel_truncated", None),
    ("hartogs.dbar", "dbar_u_delta_norm", "dbar.dbar_u_delta_norm", None),
    ("hartogs.dbar", "l2_gap", "dbar.l2_gap", None),
    ("hartogs.dbar", "cutoff_commutator_check", "dbar.cutoff_commutator_check", None),
    ("hartogs.spectral", "build_mode", "spectral.build_mode", _dofs),
    ("hartogs.spectral", "neumann_spectrum", "spectral.neumann_spectrum", None),
    ("hartogs.spectral", "poincare_constant", "spectral.poincare_constant", None),
    ("hartogs.spectral", "solve_neumann", "spectral.solve_neumann", None),
    ("scipy.sparse.linalg", "eigsh", "spectral.eigsh", None),
    ("scipy.sparse.linalg", "spsolve", "spectral.spsolve", None),
    ("hartogs.reports", "write_csv", "reports.write_csv", None),
)

BALL_SPANS = ("boundary.f_profile", "boundary.sigma_ball_Tinf", "boundary.sigma_ball_Tinf_direct",
              "boundary.sigma_ball_bT")
TENSOR_SPANS = ("quadrature.integrate_T", "bergman.project")  # each evaluates a level^4 grid

# per-layer metric -> (kind, span names); kinds are defined in layer_metrics
LAYER_METRICS = {
    "checks.uniform.s": ("busy", "checks.uniform"),
    "checks.adr.s": ("busy", "checks.adr"),
    "checks.bergman.s": ("busy", "checks.bergman"),
    "checks.dbar.s": ("busy", "checks.dbar"),
    "checks.spectrum.s": ("busy", "checks.spectrum"),
    "geometry.verify_uniform.s": ("busy", "geometry.verify_uniform"),
    "geometry.curve_points": ("attr", "geometry.verify_uniform", "curve_points"),
    "boundary.f_profile.s": ("busy", "boundary.f_profile"),
    "boundary.sigma_ball_Tinf.s": ("busy", "boundary.sigma_ball_Tinf"),
    "boundary.sigma_ball_Tinf_direct.s": ("busy", "boundary.sigma_ball_Tinf_direct"),
    "boundary.sigma_ball_bT.s": ("busy", "boundary.sigma_ball_bT"),
    "boundary.adr_scan.self_s": ("self", "boundary.adr_scan"),
    "boundary.ball_evals": ("ball_evals",),
    "boundary.s_per_ball": ("s_per_ball",),
    "quadrature.integrate_T.s": ("busy", "quadrature.integrate_T"),
    "quadrature.integrate_T.calls": ("calls", "quadrature.integrate_T"),
    "quadrature.tensor_nodes": ("tensor_nodes",),
    "quadrature.tensor_grid_mb": ("tensor_grid_mb",),
    "quadrature.gauss_rules": ("calls", "quadrature.leggauss"),
    "bergman.basis_gram.s": ("busy", "bergman.basis_gram"),
    "bergman.project.s": ("busy", "bergman.project"),
    "bergman.kernel_truncated.s": ("busy", "bergman.kernel_truncated"),
    "bergman.kernel_truncated.calls": ("calls", "bergman.kernel_truncated"),
    "dbar.dbar_u_delta_norm.s": ("busy", "dbar.dbar_u_delta_norm"),
    "dbar.l2_gap.s": ("busy", "dbar.l2_gap"),
    "dbar.cutoff_commutator_check.s": ("busy", "dbar.cutoff_commutator_check"),
    "spectral.build_mode.s": ("busy", "spectral.build_mode"),
    "spectral.build_mode.dofs": ("attr", "spectral.build_mode", "dofs"),
    "spectral.eigsh.calls": ("calls", "spectral.eigsh"),
    "spectral.eigsh.s": ("busy", "spectral.eigsh"),
    "spectral.spsolve.calls": ("calls", "spectral.spsolve"),
    "spectral.neumann_spectrum.self_s": ("self", "spectral.neumann_spectrum"),
    "spectral.poincare_constant.self_s": ("self", "spectral.poincare_constant"),
    "spectral.solve_neumann.self_s": ("self", "spectral.solve_neumann"),
    "reports.write_csv.s": ("busy", "reports.write_csv"),
}


class Tracer:
    """Records one span per call of each traced function while active."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = False

    def _wrap(self, fn, name, attrs):
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [len(self.spans), self._stack[-1] if self._stack else None, name, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if attrs:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = attrs(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in TRACED where the program looks it up."""
        program = [m for name, m in list(sys.modules.items()) if name == "hartogs" or name.startswith("hartogs.")]
        for module_name, attr, name, attrs in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, attrs)
            setattr(module, attr, wrapper)
            for mod in program:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
        self.active = True


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans."""
    by_name: dict[str, list] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        by_name.setdefault(span[2], []).append(span)
        if span[1] is not None:
            child_time[span[1]] += span[4] - span[3]

    def dur(span):
        return span[4] - span[3]

    balls = [s for s in spans if s[2] in BALL_SPANS and (s[1] is None or spans[s[1]][2] not in BALL_SPANS)]
    levels = [s[5]["level"] for name in TENSOR_SPANS for s in by_name.get(name, [])]
    out = {}
    for metric, (kind, *rest) in LAYER_METRICS.items():
        if kind == "busy":
            out[metric] = sum(dur(s) for s in by_name.get(rest[0], []))
        elif kind == "self":
            out[metric] = sum(dur(s) - child_time[s[0]] for s in by_name.get(rest[0], []))
        elif kind == "calls":
            out[metric] = len(by_name.get(rest[0], []))
        elif kind == "attr":
            out[metric] = sum(s[5][rest[1]] for s in by_name.get(rest[0], []))
        elif kind == "ball_evals":
            out[metric] = len(balls)
        elif kind == "s_per_ball":
            out[metric] = sum(dur(s) for s in balls) / len(balls) if balls else 0.0
        elif kind == "tensor_nodes":
            out[metric] = sum(n**4 for n in levels)
        elif kind == "tensor_grid_mb":
            out[metric] = max((n**4 * 16 / 1e6 for n in levels), default=0.0)
    return out
