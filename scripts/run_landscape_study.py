#!/usr/bin/env python3
"""Multi-start study of the likelihood surface.

For each noise level, fits from many random initializations plus the
spectral and planted-model starts, and reports how tightly the
converged likelihoods concentrate around the best one (gaps.csv).
"""

import argparse
import pathlib

import numpy as np

from heppcat import run_landscape, write_rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma2-squared-grid", type=float, nargs="+", default=[0.1, 1.0, 2.0, 3.0])
    ap.add_argument("--random-inits", type=int, default=20)
    ap.add_argument("--method", default="em")
    ap.add_argument("--max-iters", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("results/gaps.csv"))
    args = ap.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)

    rows = run_landscape(
        sigma2_squared_grid=args.sigma2_squared_grid,
        n_random=args.random_inits,
        method=args.method,
        seed=args.seed,
        max_iters=args.max_iters,
    )
    fields = ["sigma2_squared", "method", "init", "run", "iteration", "loglik", "gap", "converged"]
    write_rows(args.out, fields, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")

    final = {}
    for r in rows:
        key = (r["sigma2_squared"], r["init"], r["run"])
        if key not in final or r["iteration"] > final[key]["iteration"]:
            final[key] = r
    print(f"{'sigma2^2':>9} {'inits':>6} {'converged':>10} {'worst final gap':>16} {'start gap (ppca)':>17}")
    for v2 in args.sigma2_squared_grid:
        rs = [r for r in final.values() if r["sigma2_squared"] == v2]
        conv = [r for r in rs if r["converged"]]
        worst = max(r["gap"] for r in conv) if conv else np.nan
        start = [
            r["gap"]
            for r in rows
            if r["sigma2_squared"] == v2 and r["init"] == "ppca" and r["iteration"] == 0
        ][0]
        print(f"{v2:9g} {len(rs):6d} {len(conv):10d} {worst:16.3e} {start:17.3e}")


if __name__ == "__main__":
    main()
