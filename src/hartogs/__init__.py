"""Numerical toolkit for the Hartogs triangle T = {|z| < |w| < 1}.

Modules
-------
points      polar coordinates, distances, membership tests
quadrature  tensor quadrature over T and a seeded rejection sampler
geometry    uniform-domain curves between point pairs and their exact suprema
boundary    3-dimensional boundary measure of balls and regularity scans
bergman     orthogonal Laurent basis, Gram matrices, projection, kernel
dbar        norms of the u_delta family and the chi_delta cutoff estimate
spectral    per-mode Neumann eigenvalue problems and the Poincare constant
checks      named verification batteries producing machine-readable rows
reports     JSON/CSV report writers
cli         command line entry point
"""

import os
import sys

# numpy's OpenBLAS starts one worker per extra core when numpy is imported, and
# an idle worker busy-waits, which costs CPU time.  The package's BLAS calls are
# kept below the sizes at which OpenBLAS threads them, so numpy is loaded with
# one BLAS thread unless a thread count is set.  The environment is restored at
# once, so child processes see the caller's; a caller who imported numpy first
# keeps its pool.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .points import PolarPoint, angle_diff, angle_wrap
from .quadrature import VOL_T, QuadratureSpec, integrate_T, sample_T
from .geometry import C_T, C_TINF, Curve, certify_uniform, connect_T, connect_Tinf, verify_uniform
from .boundary import SIGMA_BT_TOTAL, adr_scan, f_profile, sigma_ball_Tinf, sigma_ball_bT
from .bergman import LaurentCoefficients, LaurentIndex, basis_gram, kernel_truncated, project
from .dbar import DeltaFamilySpec, cutoff_commutator_check, dbar_u_delta_norm, l2_gap
from .spectral import SpectrumResult, build_mode, neumann_spectrum, poincare_constant, solve_neumann
from .checks import CheckRow, RunParams, run_command

__version__ = "0.1.0"

__all__ = [
    "PolarPoint", "angle_diff", "angle_wrap",
    "VOL_T", "QuadratureSpec", "integrate_T", "sample_T",
    "C_T", "C_TINF", "Curve", "certify_uniform", "connect_T", "connect_Tinf", "verify_uniform",
    "SIGMA_BT_TOTAL", "adr_scan", "f_profile", "sigma_ball_Tinf", "sigma_ball_bT",
    "LaurentCoefficients", "LaurentIndex", "basis_gram", "kernel_truncated", "project",
    "DeltaFamilySpec", "cutoff_commutator_check", "dbar_u_delta_norm", "l2_gap",
    "SpectrumResult", "build_mode", "neumann_spectrum", "poincare_constant", "solve_neumann",
    "CheckRow", "RunParams", "run_command",
    "__version__",
]
