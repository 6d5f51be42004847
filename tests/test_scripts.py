"""Smoke runs of the scripts in scripts/ at tiny sizes: every file they write
has the expected header and row count."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *flags):
    monkeypatch.setattr(sys, "argv", [name, *flags])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_boundary_profile(monkeypatch, tmp_path):
    run_script(monkeypatch, "boundary_profile.py", "--t-steps", "5", "--centers", "2", "--out-dir", str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cone_profile.csv", "regularity_ratios.csv"]
    header, rows = read_csv(tmp_path / "cone_profile.csv")
    assert header == ["t", "f", "apex_value", "far_limit"]
    assert len(rows) == 5
    header, rows = read_csv(tmp_path / "regularity_ratios.csv")
    assert header == ["center_r", "center_alpha", "center_s", "center_beta", "rho", "sigma", "ratio"]
    assert len(rows) == 2 * 7  # 2 centers at the radii 2^0 .. 2^-6


@pytest.mark.parametrize("domain", ["T", "T_infinity"])
def test_curve_gallery(monkeypatch, tmp_path, domain):
    out = tmp_path / "curves.csv"
    run_script(monkeypatch, "curve_gallery.py", "--pairs", "2", "--samples", "5", "--domain", domain,
               "--out", str(out))
    assert [p.name for p in tmp_path.iterdir()] == ["curves.csv"]
    header, rows = read_csv(out)
    assert header == ["pair", "r", "alpha", "s", "beta", "dist_boundary", "dist_endpoint", "pair_dist",
                      "curve_length"]
    assert len(rows) == 2 * 3 * 5  # pairs x pieces x samples per piece
    assert all(float(row[5]) > 0.0 for row in rows)  # every sample lies inside the domain


def test_spectrum_table(monkeypatch, tmp_path):
    out = tmp_path / "spectrum.csv"
    run_script(monkeypatch, "spectrum_table.py", "--grid", "8", "--mode-cut", "1", "--count", "2", "--out", str(out))
    assert [p.name for p in tmp_path.iterdir()] == ["spectrum.csv"]
    header, rows = read_csv(out)
    assert header == ["l", "m", "rank", "lambda_n8", "lambda_n16", "rel_drift"]
    assert len(rows) == 4 * 2  # modes (l, m) in {0, 1}^2 x 2 eigenvalues
