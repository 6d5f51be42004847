#!/usr/bin/env python3
"""Tabulate the cone boundary profile f(t) and ball-measure ratios on bT.

Emits two plot-ready CSV tables: the normalized profile
f(t) = sigma(B_1(p) cap bT_inf) for |p| = t, which interpolates between
2*pi^2/3 at the apex and 4*pi/3 far away, and the regularity ratios
sigma(B_rho(p) cap bT)/rho^3 for random boundary centers across dyadic radii.

Usage:
  python scripts/boundary_profile.py --out-dir results
  python scripts/boundary_profile.py --t-max 8 --t-steps 81 --centers 12 --seed 3
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from hartogs.boundary import ADR_WINDOW, adr_scan, f_profile
from hartogs.quadrature import QuadratureSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t-max", type=float, default=6.0, help="largest center distance t")
    parser.add_argument("--t-steps", type=int, default=61, help="grid points on [0, t-max]")
    parser.add_argument("--centers", type=int, default=10, help="random boundary centers")
    parser.add_argument("--seed", type=int, default=7, help="RNG seed for the centers")
    parser.add_argument("--cells", type=int, default=768, help="ceiling on nodes per piece of each ball rule")
    parser.add_argument("--out-dir", type=str, default="results", help="output directory")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = QuadratureSpec(surface_cells=args.cells)

    ts = np.linspace(0.0, args.t_max, args.t_steps)
    profile = f_profile(ts, spec)  # one batch over the whole grid
    with open(out / "cone_profile.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "f", "apex_value", "far_limit"])
        for t, f in zip(ts, profile):
            writer.writerow([f"{t:.6f}", repr(float(f)),
                             repr(2.0 * np.pi**2 / 3.0), repr(4.0 * np.pi / 3.0)])
    print(f"wrote {out / 'cone_profile.csv'} ({args.t_steps} rows)")

    rho_set = [2.0**-k for k in range(0, 7)]
    report = adr_scan(args.centers, rho_set, args.seed, spec)
    with open(out / "regularity_ratios.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["center_r", "center_alpha", "center_s", "center_beta", "rho", "sigma", "ratio"])
        for (p, rho, sig), ratio in zip(report.samples, report.ratios):
            writer.writerow([repr(p.r), repr(p.alpha), repr(p.s), repr(p.beta),
                             repr(rho), repr(sig), repr(float(ratio))])
    print(f"wrote {out / 'regularity_ratios.csv'}; ratio range "
          f"[{report.min_ratio:.4f}, {report.max_ratio:.4f}], window {ADR_WINDOW}")


if __name__ == "__main__":
    main()
