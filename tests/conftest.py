"""Shared fixtures and the acceptance summary table.

The terminal summary prints one pass/fail line per acceptance criterion
(tests named test_criterion_* in test_acceptance.py) so a full run ends with
a compact verdict table.
"""

import pytest

from hartogs.quadrature import QuadratureSpec

CRITERION_LABELS = {
    "test_criterion_01_cone_uniformity": "1. cone uniformity: both curve ratios <= 12 on 10^4 pairs, sampled and exact",
    "test_criterion_02_triangle_uniformity": "2. T uniformity: both curve ratios <= 80 on 10^4 pairs, sampled and exact",
    "test_criterion_03_polar_distance": "3. polar distance bound: LHS <= 3|p1-p2| on 10^6 pairs",
    "test_criterion_04_boundary_profile": "4. boundary profile: f(0)=2pi^2/3 (1e-4), f(200)=4pi/3 (1%)",
    "test_criterion_05_dilation_law": "5. dilation law sigma = rho^3 f(|p|/rho) on 100 draws (1%)",
    "test_criterion_06_adr_scan": "6. regularity scan: ratios in frozen window, stable under rho/2",
    "test_criterion_07_bergman_orthogonality": "7. basis orthogonality (1e-8) and norms (1e-6) on 9x10 block",
    "test_criterion_08_projection_identities": "8. projection identity (1e-6) and B(conj z)=0 (1e-8)",
    "test_criterion_09_delta_scaling": "9. norm ratio ||dbar u_d||/||dbar u_1|| = sqrt(delta); gap decay",
    "test_criterion_10_cutoff_estimate": "10. cutoff Cauchy-Schwarz; first factor bounded; smooth lhs decay; borderline lhs = 15pi^2 ln2/14 for every delta",
    "test_criterion_11_neumann_spectrum": "11. Neumann zero mode, stable gap, Poincare on 100 fields",
    "test_criterion_12_determinism": "12. end-to-end determinism of the full battery",
}

_results: dict = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.split("::")[-1]
    if name not in CRITERION_LABELS:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _results[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(CRITERION_LABELS):
        if name not in _results:
            continue
        outcome = _results[name]
        ok = outcome == "passed"
        terminalreporter.write_line(
            f"[{'PASS' if ok else 'FAIL'}] {CRITERION_LABELS[name]}",
            green=ok,
            red=not ok,
        )


@pytest.fixture(scope="session")
def spec24():
    return QuadratureSpec(level=24)


@pytest.fixture(scope="session")
def spec32():
    return QuadratureSpec(level=32)
