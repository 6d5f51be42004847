#!/usr/bin/env python3
"""Tabulate low Neumann eigenvalues per angular mode and the Poincare constant.

For each angular mode pair (l, m) up to --mode-cut, solves the radial
eigenvalue problem on {0 < r < s < 1} at two grid resolutions and reports the
lowest eigenvalues with their relative drift.  The Poincare constant is the
reciprocal of the smallest nonzero eigenvalue across the scanned modes (index
1 for (0, 0), whose kernel is the constants, index 0 otherwise), read from the
scan itself; it needs --mode-cut >= 1 and --count >= 2.

Usage:
  python scripts/spectrum_table.py --grid 64 --mode-cut 2
  python scripts/spectrum_table.py --grid 128 --count 4 --out results/spectrum.csv
"""

import argparse
import csv
from pathlib import Path

from hartogs.spectral import neumann_spectrum


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=int, default=64, help="cells per axis (also runs 2x)")
    parser.add_argument("--mode-cut", type=int, default=2, help="largest angular mode per factor")
    parser.add_argument("--count", type=int, default=3, help="eigenvalues per mode")
    parser.add_argument("--out", type=str, default="results/spectrum.csv", help="output CSV path")
    args = parser.parse_args()
    if args.mode_cut < 1:
        parser.error("--mode-cut must be >= 1: the constant needs the modes (1, 0) and (0, 1)")
    if args.count < 2:
        parser.error("--count must be >= 2: the constant needs the (0, 0) index-1 eigenvalue")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    rows = []
    nonzero = []  # smallest nonzero eigenvalue of each mode
    for l in range(args.mode_cut + 1):
        for m in range(args.mode_cut + 1):
            res = neumann_spectrum(l, m, args.grid, args.count)
            nonzero.append(res.eigenvalues[1 if (l, m) == (0, 0) else 0])
            for rank, (lam, lam2) in enumerate(zip(res.eigenvalues, res.fine_eigenvalues)):
                drift = abs(lam - lam2) / lam2 if lam2 > 1e-12 else 0.0
                rows.append((l, m, rank, lam, lam2, drift))
                print(f"(l={l}, m={m}) #{rank}: {lam:.6f} -> {lam2:.6f} (drift {drift:.2e})")

    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["l", "m", "rank", f"lambda_n{args.grid}", f"lambda_n{2 * args.grid}", "rel_drift"])
        for row in rows:
            writer.writerow([row[0], row[1], row[2], repr(row[3]), repr(row[4]), repr(row[5])])

    C = 1.0 / min(nonzero)
    print(f"Poincare constant over modes <= {args.mode_cut}: C = {C!r} (1/C = {1.0 / C!r})")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
