#!/usr/bin/env python3
"""Dump uniform-domain curves between random point pairs as plot-ready CSV.

Each curve consists of two radial segments joined by a constant-radius arc;
the table carries the polar samples together with per-point distance to the
boundary and distance to the nearer endpoint, so length and cigar ratios can
be recomputed or plotted directly.

Usage:
  python scripts/curve_gallery.py --pairs 5 --domain T --out results/curves.csv
  python scripts/curve_gallery.py --pairs 3 --domain T_infinity --samples 400
"""

import argparse
import csv
from pathlib import Path

from hartogs.geometry import connect_T, connect_Tinf, dist_bT, dist_bTinf
from hartogs.points import PolarPoint
from hartogs.quadrature import sample_T


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=5, help="number of random endpoint pairs")
    parser.add_argument("--domain", choices=("T", "T_infinity"), default="T")
    parser.add_argument("--samples", type=int, default=200, help="samples per curve piece")
    parser.add_argument("--seed", type=int, default=7, help="RNG seed for the endpoints")
    parser.add_argument("--out", type=str, default="results/curves.csv", help="output CSV path")
    args = parser.parse_args()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    pts = sample_T(2 * args.pairs, seed=args.seed)
    if args.domain == "T_infinity":
        pts = [p.scaled(2.0) for p in pts]
        connect, dist_b = connect_Tinf, dist_bTinf
    else:
        connect, dist_b = connect_T, dist_bT

    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair", "r", "alpha", "s", "beta", "dist_boundary", "dist_endpoint",
                         "pair_dist", "curve_length"])
        for i in range(args.pairs):
            p1, p2 = pts[2 * i], pts[2 * i + 1]
            curve = connect(p1, p2)
            rr, aa, ss, bb = curve.sample(args.samples)
            d = p1.dist(p2)
            length = curve.length()
            for r, a, s, b in zip(rr, aa, ss, bb):
                q = PolarPoint(float(r), float(a), float(s), float(b))
                near = min(q.dist(p1), q.dist(p2))
                writer.writerow([i, repr(q.r), repr(q.alpha), repr(q.s), repr(q.beta),
                                 repr(dist_b(q)), repr(near), repr(d), repr(length)])
            print(f"pair {i}: |p1-p2| = {d:.4f}, length = {length:.4f}, ratio = {length / d:.3f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
