#!/usr/bin/env python3
"""Sweep noise levels and compare the heteroscedastic fit against the
homoscedastic and weighted spectral baselines.

Produces one long-format CSV per preset (metrics_<preset>.csv) in the
output directory and prints median/quartile summaries.
"""

import argparse
import pathlib

import numpy as np

from heppcat import run_benchmark, write_rows

FIELDS = ["trial", "sigma2", "method", "metric", "value"]


def summarize(rows):
    groups = {}
    for r in rows:
        groups.setdefault((r["sigma2"], r["method"], r["metric"]), []).append(r["value"])
    print(f"{'sigma2':>8} {'method':>14} {'metric':>16} {'median':>12} {'p25':>12} {'p75':>12}")
    for (s, m, met), vals in sorted(groups.items()):
        v = np.asarray(vals)
        print(
            f"{s:8g} {m:>14} {met:>16} "
            f"{np.median(v):12.5g} {np.percentile(v, 25):12.5g} {np.percentile(v, 75):12.5g}"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--presets", nargs="+", default=["fig3", "fig4", "fig7"])
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--sigma-grid", type=float, nargs="+", default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    args = ap.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for preset in args.presets:
        rows = run_benchmark(preset, trials=args.trials, sigma_grid=args.sigma_grid, seed=args.seed)
        path = args.out_dir / f"metrics_{preset}.csv"
        write_rows(path, FIELDS, rows)
        print(f"\n== {preset}: {len(rows)} rows -> {path}")
        summarize(rows)


if __name__ == "__main__":
    main()
