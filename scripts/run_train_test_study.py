#!/usr/bin/env python3
"""Train/test reconstruction comparison on synthetic splits.

Fits the heteroscedastic model and the pooled homoscedastic baseline on
half of each group's samples, then scores normalized reconstruction
error on both halves (nrmse.csv).  The heteroscedastic fit is expected
to trade a slightly worse training-side fit for better generalization
when the noisy group dominates.
"""

import argparse
import pathlib

import numpy as np

from heppcat import train_test_nrmse, write_rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma2", type=float, default=2.0)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--rank", type=int, default=3)
    ap.add_argument("--fraction", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("results/nrmse.csv"))
    args = ap.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)

    rows = train_test_nrmse(
        sigma2=args.sigma2,
        trials=args.trials,
        rank=args.rank,
        fraction=args.fraction,
        seed=args.seed,
    )
    write_rows(args.out, ["trial", "sigma2", "method", "metric", "value"], rows)
    print(f"wrote {args.out} ({len(rows)} rows)")

    for metric in ("nrmse_train", "nrmse_test"):
        print(metric)
        for method in ("heppcat", "ppca-full"):
            vals = [r["value"] for r in rows if r["method"] == method and r["metric"] == metric]
            print(f"  {method:>10}: median {np.median(vals):.5f}")


if __name__ == "__main__":
    main()
