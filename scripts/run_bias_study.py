#!/usr/bin/env python3
"""Estimate the finite-sample bias of the variance estimates.

Runs the two-group planted model at a fixed noise level and reports the
relative bias of the noise-variance and factor-variance estimates
(metrics_fig5.csv), then repeats the fit with samples regrouped into
blocks of 1, 10, and 100 to show how estimates concentrate as the
per-group sample count grows (metrics_fig6.csv).
"""

import argparse
import pathlib

import numpy as np

from heppcat import run_benchmark, write_rows

FIELDS = ["trial", "sigma2", "method", "metric", "value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma2", type=float, default=2.0)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--block-trials", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("results"))
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    rows = run_benchmark("fig5", trials=args.trials, sigma_grid=(args.sigma2,), seed=args.seed)
    path = args.out_dir / "metrics_fig5.csv"
    write_rows(path, FIELDS, rows)
    print(f"wrote {path} ({len(rows)} rows)")
    by_metric = {}
    for r in rows:
        by_metric.setdefault(r["metric"], []).append(r["value"])
    for metric, vals in sorted(by_metric.items()):
        med = np.median(vals)
        print(f"  median {metric:>18}: {med:+.4f}  ({'under' if med < 0 else 'over'}-estimate)")

    rows = run_benchmark(
        "fig6-blocks", trials=args.block_trials, sigma_grid=(args.sigma2,), seed=args.seed
    )
    path = args.out_dir / "metrics_fig6.csv"
    write_rows(path, FIELDS, rows)
    print(f"wrote {path} ({len(rows)} rows)")
    spread = {}
    for r in rows:
        spread.setdefault(r["metric"], []).append(r["value"])
    for metric, vals in sorted(spread.items()):
        v = np.asarray(vals)
        print(f"  {metric:>24}: median {np.median(v):7.3f}  IQR {np.subtract(*np.percentile(v, [75, 25])):7.3f}")


if __name__ == "__main__":
    main()
