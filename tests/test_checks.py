"""The gate table of the check battery: ids, comparisons, pinned values, NaN.

Every verdict of the report comes from ``GATES``.  These tests pin each
gate, probe each comparison at its boundary, and inject one NaN into each
worst-case reduction to show that it turns its row to FAIL.
"""

import dataclasses
import itertools
import json
import math
import tracemalloc
import types

import numpy as np
import pytest

from hartogs import bergman, boundary, checks, dbar, geometry, spectral
from hartogs.checks import GATES, Gate, RunParams, poincare_field_check, run_command
from hartogs.points import euclid

SMALL = RunParams(
    level=8, surface_cells=128, shell_level=48, pairs=20, polar_pairs=1000, centers=2,
    dilation_cases=3, jmax=2, kmax=2, grid=24, poincare_grid=8, n_fields=3,
)

# (comparison, expected, tolerance) of every check, as the report states them
PINNED = {
    "uniform.cone.length": ("le", 11.283185307179586, 0.0),
    "uniform.cone.cigar": ("le", 11.283185307179586, 0.0),
    "uniform.cone.containment": ("gt", 0.0, 0.0),
    "uniform.triangle.length": ("le", 79.73857507077896, 0.0),
    "uniform.triangle.cigar": ("le", 79.73857507077896, 0.0),
    "uniform.triangle.containment": ("gt", 0.0, 0.0),
    "uniform.polar_bound": ("le", 1.0, 0.0),
    "adr.profile.origin": ("rel", 6.579736267392906, 1e-10),
    "adr.profile.limit": ("rel", 4.1887902047863905, 0.01),
    "adr.dilation": ("abs", 0.0, 0.01),
    "adr.total": ("rel", 38.34951333454906, 1e-10),
    "adr.scan.min": ("ge", 0.3, 0.0),
    "adr.scan.max": ("le", 30.0, 0.0),
    "adr.scan.refinement": ("le", 16.0, 0.0),
    "bergman.orthogonality": ("abs", 0.0, 1e-08),
    "bergman.norms": ("abs", 0.0, 1e-06),
    "bergman.projection.identity": ("abs", 0.0, 1e-06),
    "bergman.projection.antiholo": ("abs", 0.0, 1e-08),
    "bergman.kernel.hermitian": ("abs", 0.0, 1e-12),
    "dbar.norm.anchor": ("rel", 1.5707963267948966, 1e-12),
    "dbar.scaling": ("abs", 0.0, 1e-12),
    "dbar.gap.monotone": ("lt", 1.0, 0.0),
    "dbar.gap.decay": ("lt", 0.1, 0.0),
    "dbar.cutoff.gradbound": ("le", 1.875, 1e-09),
    "dbar.cutoff.cs": ("abs", 0.0, 1e-12),
    "dbar.cutoff.firstfactor": ("abs", 0.0, 1e-12),
    "dbar.cutoff.decay.smooth": ("abs", 0.0, 1e-12),
    "dbar.cutoff.borderline": ("abs", 0.0, 1e-12),
    "spectrum.zero": ("abs", 0.0, 1e-08),
    "spectrum.kernel": ("gt", 1.0, 0.0),
    "spectrum.gap.stability": ("abs", 0.0, 0.01),
    "spectrum.poincare": ("le", 1.0, 0.1),
    "spectrum.galerkin": ("abs", 0.0, 1e-06),
}


@pytest.fixture(scope="module")
def small_rows():
    return {row.check_id: row for row in run_command("all", SMALL)}


def test_gate_keys_are_the_report_ids(small_rows):
    ids = [row.check_id for row in run_command("all", SMALL)]
    assert len(ids) == 33 and len(set(ids)) == 33
    assert list(GATES) == ids
    assert set(small_rows) == set(GATES)


def test_all_calls_the_runners_table_at_call_time(monkeypatch):
    # wrapping the table's values in place, as a profiler would, must reach run_command("all")
    calls = []
    for name, runner in list(checks._RUNNERS.items()):
        def wrapped(params, name=name, runner=runner):
            calls.append(name)
            return runner(params)
        monkeypatch.setitem(checks._RUNNERS, name, wrapped)
    order = ["uniform", "adr", "bergman", "dbar", "spectrum"]
    batteries = [row.check_id.split(".")[0] for row in run_command("all", SMALL)]
    assert calls == order
    assert sorted(batteries, key=order.index) == batteries and list(dict.fromkeys(batteries)) == order


def test_gates_are_pinned():
    got = {check_id: (g.comparison, g.expected, g.tolerance) for check_id, g in GATES.items()}
    assert got == PINNED
    assert all(type(g.expected) is float and type(g.tolerance) is float for g in GATES.values())
    assert boundary.ADR_WINDOW == (0.3, 30.0)


def test_rows_carry_their_gate(small_rows):
    for check_id, row in small_rows.items():
        gate = GATES[check_id]
        assert (row.claim, row.expected, row.tolerance) == (gate.claim, gate.expected, gate.tolerance)
        assert row.passed == gate.passes(row.observed)


def _below(x):
    return float(np.nextafter(x, -np.inf))


def _above(x):
    return float(np.nextafter(x, np.inf))


# comparison, expected, tolerance, boundary value, verdicts just below / on / just above it
BOUNDARIES = [
    ("rel", 2.0, 0.25, 2.5, (True, True, False)),
    ("rel", 2.0, 0.25, 1.5, (False, True, True)),
    ("abs", 2.0, 0.5, 2.5, (True, True, False)),
    ("abs", 2.0, 0.5, 1.5, (False, True, True)),
    ("le", 1.0, 0.5, 1.5, (True, True, False)),
    ("lt", 1.0, 0.0, 1.0, (True, False, False)),
    ("ge", 1.0, 0.0, 1.0, (False, True, True)),
    ("gt", 1.0, 0.0, 1.0, (False, False, True)),
]


@pytest.mark.parametrize("comparison, expected, tolerance, edge, verdicts", BOUNDARIES)
def test_comparison_at_its_boundary(comparison, expected, tolerance, edge, verdicts):
    gate = Gate("claim", comparison, expected, tolerance)
    assert tuple(gate.passes(x) for x in (_below(edge), edge, _above(edge))) == verdicts
    assert gate.passes(math.nan) is False


def test_unknown_comparison_is_rejected():
    with pytest.raises(KeyError):
        Gate("claim", "approx", 1.0, 0.1).passes(1.0)


def _spoil_call(monkeypatch, module, name, nth, spoil):
    """Make the nth call (0-based) of module.name return spoil(its result)."""
    original = getattr(module, name)
    calls = itertools.count()

    def wrapped(*args, **kwargs):
        result = original(*args, **kwargs)
        return spoil(result) if next(calls) == nth else result

    monkeypatch.setattr(module, name, wrapped)


def _nan(_):
    return math.nan


def _nan_second_entry(coeffs):
    key = list(coeffs.entries)[1]
    return dataclasses.replace(coeffs, entries={**coeffs.entries, key: complex(math.nan)})


def _nan_first_node(values):
    values = np.array(values, dtype=float)
    values[0] = math.nan
    return values


# battery, module, function, 0-based call, spoil, rows that must FAIL
NAN_CASES = [
    # the exact suprema: one _length call per domain, cone first
    ("uniform", geometry, "_length", 0, lambda parts: (parts[0] * math.nan, *parts[1:]), ["uniform.cone.length"]),
    ("uniform", geometry, "_length", 1, lambda parts: (parts[0] * math.nan, *parts[1:]), ["uniform.triangle.length"]),
    # four dist_boundary calls per domain: segment 1 at (t*, 1), the arc radii, segment 2, the endpoints
    ("uniform", geometry, "dist_boundary", 1, _nan_first_node, ["uniform.cone.cigar", "uniform.cone.containment"]),
    ("uniform", geometry, "dist_boundary", 4, _nan_first_node, ["uniform.triangle.cigar"]),
    ("uniform", geometry, "dist_boundary", 7, _nan_first_node, ["uniform.triangle.containment"]),
    ("uniform", geometry, "polar_lhs_arrays", 0, _nan_first_node, ["uniform.polar_bound"]),
    # one batched call per side of the dilation law; one sigma_ball_bT call for adr.total, then
    # call 1 holds every scan pair centre by centre, and only the first centre's smallest radius is spoiled
    ("adr", boundary, "sigma_ball_Tinf_direct", 0, _nan_first_node, ["adr.dilation"]),
    ("adr", boundary, "sigma_ball_bT", 1, _nan_first_node, ["adr.scan.refinement"]),
    ("bergman", bergman, "project", 0, _nan_second_entry, ["bergman.projection.identity"]),
    ("bergman", bergman, "project", 1, _nan_second_entry, ["bergman.projection.antiholo"]),
    ("bergman", bergman, "kernel_truncated", 5, lambda k: complex(math.nan), ["bergman.kernel.hermitian"]),
    ("dbar", dbar, "dbar_u_delta_norm", 2, _nan, ["dbar.scaling"]),
    ("dbar", dbar, "l2_gap", 3, _nan, ["dbar.gap.monotone"]),
    # calls alternate the fields one, winv per delta: call 3 is winv, call 2 is one, at delta 2^-3
    ("dbar", dbar, "cutoff_commutator_check", 3, lambda rep: dataclasses.replace(rep, lhs=math.nan),
     ["dbar.cutoff.cs", "dbar.cutoff.borderline"]),
    ("dbar", dbar, "cutoff_commutator_check", 2, lambda rep: dataclasses.replace(rep, first_factor=math.nan),
     ["dbar.cutoff.firstfactor"]),
    # v_norm_sq calls per field: one per term of g, of dg/dz, of dg/dw; at the SMALL seed the
    # first field has 3 + 3 + 3 terms and the second 2 + 2 + 1, so call 11 is in its energy
    ("spectrum", bergman, "v_norm_sq", 11, _nan, ["spectrum.poincare"]),
]


@pytest.mark.parametrize("battery, module, name, nth, spoil, failing", NAN_CASES,
                         ids=[f"{c[2]}-{c[3]}" for c in NAN_CASES])
def test_one_nan_case_fails_its_row(monkeypatch, small_rows, battery, module, name, nth, spoil, failing):
    assert all(small_rows[check_id].passed for check_id in failing)
    _spoil_call(monkeypatch, module, name, nth, spoil)
    rows = {row.check_id: row for row in run_command(battery, SMALL)}
    assert [check_id for check_id in failing if rows[check_id].passed] == []


# calls alternate the fields one, winv per delta: call 2 is one, call 3 is winv, at delta 2^-3
@pytest.mark.parametrize("nth", [2, 3])
def test_flipped_l4_flag_fails_borderline(monkeypatch, small_rows, nth):
    assert small_rows["dbar.cutoff.borderline"].passed
    _spoil_call(monkeypatch, dbar, "cutoff_commutator_check", nth,
                lambda rep: dataclasses.replace(rep, l4_diverges=not rep.l4_diverges))
    row = {row.check_id: row for row in run_command("dbar", SMALL)}["dbar.cutoff.borderline"]
    assert not row.passed and row.observed == math.inf


# calls alternate the fields one, winv per delta: call 2 is one, call 3 is winv, at delta 2^-3
@pytest.mark.parametrize("nth", [2, 3])
def test_undecided_l4_flag_fails_borderline(monkeypatch, small_rows, nth):
    # a probe that cannot tell (a fourth-power sum overflowed) is no evidence either way
    assert small_rows["dbar.cutoff.borderline"].passed
    _spoil_call(monkeypatch, dbar, "cutoff_commutator_check", nth,
                lambda rep: dataclasses.replace(rep, l4_diverges=None))
    row = {row.check_id: row for row in run_command("dbar", SMALL)}["dbar.cutoff.borderline"]
    assert not row.passed and row.observed == math.inf


def test_gradbound_observes_the_critical_points(monkeypatch, small_rows):
    assert small_rows["dbar.cutoff.gradbound"].observed == 15.0 / 8.0
    # shifted by 0.01, S' peaks at 0.51, not at one of the points {0, 1/2, 1} the row observes, so
    # the scan finds a larger value and the row reads inf.  Only the battery sees the shifted
    # profile: the cutoff shell keeps the true one, whose kink-free layer its outer rule requires
    shifted = types.SimpleNamespace(**vars(dbar))
    shifted.smoothstep_deriv = lambda x: dbar.smoothstep_deriv(np.asarray(x) - 0.01)
    monkeypatch.setattr(checks, "dbar", shifted)
    row = {row.check_id: row for row in run_command("dbar", SMALL)}["dbar.cutoff.gradbound"]
    assert not row.passed and row.observed == math.inf


def test_polar_bound_chunks_match_one_shot(monkeypatch):
    n = 3 * checks._POLAR_CHUNK + 1234  # a ragged last chunk
    params = dataclasses.replace(SMALL, domain="T", polar_pairs=n)
    # scaled so that some pairs violate the bound and the count is not 0
    original = geometry.polar_lhs_arrays
    monkeypatch.setattr(geometry, "polar_lhs_arrays", lambda *pair: 1.4 * original(*pair))
    row = run_command("uniform", params)[-1]
    rng = np.random.default_rng(params.seed + 1)
    r1, r2 = rng.uniform(0.0, 2.0, (2, n))
    s1, s2 = rng.uniform(0.0, 2.0, (2, n))
    a1, a2, b1, b2 = rng.uniform(-np.pi, np.pi, (4, n))
    lhs = geometry.polar_lhs_arrays(r1, a1, s1, b1, r2, a2, s2, b2)
    dist = euclid(r1, a1, s1, b1, r2, a2, s2, b2)
    ratio = np.divide(lhs, 3.0 * dist, out=np.zeros_like(lhs), where=dist > 0)
    assert row.check_id == "uniform.polar_bound"
    assert row.observed == ratio.max()  # bitwise
    assert json.loads(row.parameter_json)["violations"] == int(np.sum(ratio > 1.0)) > 0


def test_uniform_memory_does_not_hold_the_polar_draws():
    # the 200,000 default pairs are 12.8 MB of draws; streamed by chunk the battery peaks at 2.5 MB traced
    tracemalloc.start()
    try:
        run_command("uniform", RunParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


# calls alternate the fields one, winv per delta: call 2 is one, call 3 is winv, at delta 2^-3
@pytest.mark.parametrize("nth, rhs, observed", [
    (2, lambda rep: rep.rhs * (1.0 + 1e-9), pytest.approx(1e-9, rel=1e-3)),  # one: off its closed form
    (3, lambda rep: _below(rep.lhs), math.inf),  # winv: the bound fails by one ulp
])
def test_cutoff_rhs_off_fails_cs(monkeypatch, small_rows, nth, rhs, observed):
    assert small_rows["dbar.cutoff.cs"].passed
    _spoil_call(monkeypatch, dbar, "cutoff_commutator_check", nth, lambda rep: dataclasses.replace(rep, rhs=rhs(rep)))
    row = {row.check_id: row for row in run_command("dbar", SMALL)}["dbar.cutoff.cs"]
    assert not row.passed and row.observed == observed


def test_scaled_cutoff_profile_fails_the_shell_rows(monkeypatch, small_rows):
    # the shell rows compare with closed forms that do not go through smoothstep_deriv
    rows = ["dbar.cutoff.firstfactor", "dbar.cutoff.decay.smooth"]
    assert all(small_rows[check_id].passed for check_id in rows)
    original = dbar.smoothstep_deriv
    monkeypatch.setattr(dbar, "smoothstep_deriv", lambda x: original(x) * (1.0 + 1e-6))
    spoiled = {row.check_id: row for row in run_command("dbar", SMALL)}
    assert [check_id for check_id in rows if spoiled[check_id].passed] == []


@pytest.mark.parametrize("nth", [None, 4])
def test_norm_off_by_1e3_fails_scaling(monkeypatch, small_rows, nth):
    # the row compares each squared norm with pi^2 delta/(4(j+1)); scaling every
    # norm alike (nth None) leaves each ratio to delta = 1 exact, one call does not
    assert small_rows["dbar.scaling"].passed
    if nth is None:
        original = dbar.dbar_u_delta_norm
        monkeypatch.setattr(dbar, "dbar_u_delta_norm", lambda fspec, quad: original(fspec, quad) * (1.0 + 1e-3))
    else:
        _spoil_call(monkeypatch, dbar, "dbar_u_delta_norm", nth, lambda norm: norm * (1.0 + 1e-3))
    rows = {row.check_id: row for row in run_command("dbar", SMALL)}
    assert not rows["dbar.scaling"].passed
    assert rows["dbar.scaling"].observed == pytest.approx(2e-3, rel=1e-2)


def test_unconverged_scan_ball_fails_only_the_scan_rows(monkeypatch):
    # no two rules agree inside the scan, so its balls reach the node ceiling unresolved;
    # the battery reports its three scan rows as failing, not a traceback
    original = boundary.adr_scan

    def unresolved_scan(*args):
        with monkeypatch.context() as patch:
            patch.setattr(boundary, "_AGREE_REL", 0.0)
            return original(*args)

    monkeypatch.setattr(boundary, "adr_scan", unresolved_scan)
    rows = {row.check_id: row for row in run_command("adr", SMALL)}
    scan = ["adr.scan.min", "adr.scan.max", "adr.scan.refinement"]
    assert list(rows) == [check_id for check_id in PINNED if check_id.startswith("adr.")]
    assert [rows[check_id].observed for check_id in scan] == [-math.inf, math.inf, math.inf]
    assert not any(rows[check_id].passed for check_id in scan)
    assert all(row.passed for check_id, row in rows.items() if check_id not in scan)


@pytest.mark.parametrize("seed", [173, 276, 362, 803, 921, 2410030])
def test_near_tangent_seeds_pass_the_adr_battery(seed):
    # each scan holds a cone ball near tangency that did not converge by 512 nodes until
    # _cone_ball cut at the real part of a complex pair of roots
    assert all(row.passed for row in run_command("adr", RunParams(seed=seed)))


def test_nan_galerkin_source_fails(monkeypatch, small_rows):
    assert small_rows["spectrum.galerkin"].passed
    original = spectral.build_mode

    def build_mode(l, m, n):
        problem = original(l, m, n)
        return dataclasses.replace(problem, r_centers=_nan_first_node(problem.r_centers))

    monkeypatch.setattr(spectral, "build_mode", build_mode)
    rows = {row.check_id: row for row in run_command("spectrum", SMALL)}
    assert not rows["spectrum.galerkin"].passed and rows["spectrum.galerkin"].observed == math.inf
    # the solve fails its residual check; the battery still reports every other row
    assert list(rows) == [check_id for check_id in small_rows if check_id.startswith("spectrum.")]
    assert all(rows[check_id].observed == small_rows[check_id].observed for check_id in rows
               if check_id != "spectrum.galerkin")


def test_poincare_check_fails_on_nan_energy(monkeypatch):
    # the first field has 4 terms, so v_norm_sq call 4 is the first term of its dg/dz
    _spoil_call(monkeypatch, bergman, "v_norm_sq", 4, _nan)
    worst, ok = poincare_field_check(0.5, 1, 3, seed=5)
    assert math.isnan(worst) and ok is False
