"""Numerical toolkit for the Hartogs triangle T = {|z| < |w| < 1}.

Modules
-------
points      polar coordinates, distances, membership tests
quadrature  tensor quadrature over T and a seeded rejection sampler
geometry    uniform-domain curves between point pairs and their exact suprema
boundary    3-dimensional boundary measure of balls and regularity scans
bergman     orthogonal Laurent basis, Gram matrices, projection, kernel
dbar        the u_delta approximation family and the chi_delta cutoffs
spectral    per-mode Neumann eigenvalue problems and the Poincare constant
checks      named verification batteries producing machine-readable rows
reports     JSON/CSV report writers
cli         command line entry point
"""

from .points import PolarPoint, angle_diff, angle_wrap
from .quadrature import VOL_T, QuadratureSpec, integrate_T, sample_T
from .geometry import C_T, C_TINF, Curve, certify_uniform, connect_T, connect_Tinf, verify_uniform
from .boundary import SIGMA_BT_TOTAL, adr_scan, f_profile, sigma_ball_Tinf, sigma_ball_bT
from .bergman import LaurentCoefficients, LaurentIndex, basis_gram, kernel_truncated, project, v_eval
from .dbar import DeltaFamilySpec, chi_delta, cutoff_commutator_check, dbar_u_delta_norm, l2_gap, u_delta_eval
from .spectral import SpectrumResult, build_mode, neumann_spectrum, poincare_constant, solve_neumann
from .checks import CheckRow, RunParams, run_command

__version__ = "0.1.0"

__all__ = [
    "PolarPoint", "angle_diff", "angle_wrap",
    "VOL_T", "QuadratureSpec", "integrate_T", "sample_T",
    "C_T", "C_TINF", "Curve", "certify_uniform", "connect_T", "connect_Tinf", "verify_uniform",
    "SIGMA_BT_TOTAL", "adr_scan", "f_profile", "sigma_ball_Tinf", "sigma_ball_bT",
    "LaurentCoefficients", "LaurentIndex", "basis_gram", "kernel_truncated", "project", "v_eval",
    "DeltaFamilySpec", "chi_delta", "cutoff_commutator_check", "dbar_u_delta_norm", "l2_gap", "u_delta_eval",
    "SpectrumResult", "build_mode", "neumann_spectrum", "poincare_constant", "solve_neumann",
    "CheckRow", "RunParams", "run_command",
    "__version__",
]
