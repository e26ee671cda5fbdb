"""Command-line surface.

Subcommands: ``simulate`` (planted datasets), ``fit`` (one model),
``benchmark`` (Monte Carlo sweeps), ``landscape`` (multi-start study),
``train-test`` (reconstruction error on train/test splits),
``minorizers`` (surrogate curve dump).  Exit codes: 0 success or
converged, 2 usage error, 3 iteration budget exhausted (outputs still
written), 4 numerical failure.

All artifacts are deterministic given ``--seed``; wall-clock timings
are deliberately kept out of the files so reruns are byte-identical.

The study commands (``benchmark``, ``landscape``, ``train-test``,
``minorizers``) pass their library function only the flags given, each
under the parameter's name, so their defaults are the library's.
``simulate`` and ``fit`` hold their own defaults: the echoed
configurations record every value.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import _blas
from . import benchmark as bench
from .dataio import model_record, read_dataset, write_dataset, write_json, write_rows
from .errors import NumericalError
from .fitter import DEFAULT_MAX_ITERS, DEFAULT_TOL, DEFAULT_V_METHOD, FitConfig, fit, init_random
from .fupdate import compress_gram
from .model import GroupedData
from .simgen import TruthModel, generate, haar_orthonormal, rng_stream
from .vupdate import V_METHODS

__all__ = ["main"]

_METRIC_FIELDS = ["trial", "sigma2", "method", "metric", "value"]

# the `fit` flags its model JSON echoes, in order
_FIT_ECHO = (
    "data", "rank", "method", "max_iters", "tol", "init", "block_rule",
    "seed", "center", "compress", "v_tol", "loglik_tol",
)


def _floats(text: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _ints(text: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _tokens(text: str) -> list:
    return [t.strip() for t in text.split(",") if t.strip()]


def parse_feature_blocks(text: str, L: int) -> list:
    """Parse the ``--feature-blocks`` value.

    Syntax: semicolon-separated group entries, each either ``-`` (keep
    the group's isotropic variance) or comma-separated
    ``count:variance`` pairs.  A single entry without semicolons is
    applied to every group.
    """
    entries = text.split(";")
    if len(entries) == 1 and L > 1:
        entries = entries * L
    if len(entries) != L:
        raise ValueError(f"--feature-blocks needs 1 or {L} group entries, got {len(entries)}")
    out = []
    for entry in entries:
        entry = entry.strip()
        if entry in ("-", ""):
            out.append(None)
            continue
        spec = []
        for pair in entry.split(","):
            try:
                cnt, var = pair.split(":")
                spec.append((int(cnt), float(var)))
            except ValueError:
                raise ValueError(f"bad feature-block pair {pair!r}; expected count:variance") from None
        out.append(spec)
    return out


def _print_summary(rows, keys) -> None:
    groups: dict = {}
    for r in rows:
        groups.setdefault(tuple(r[k] for k in keys), []).append(r["value"])
    header = list(keys) + ["median", "p25", "p75"]
    print("  ".join(f"{h:>14s}" for h in header))
    for key in sorted(groups):
        vals = np.asarray(groups[key])
        stats = [np.median(vals), np.percentile(vals, 25), np.percentile(vals, 75)]
        cells = [f"{k:>14}" for k in key] + [f"{s:14.6g}" for s in stats]
        print("  ".join(cells))


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    lambdas = np.asarray(args.lambdas, dtype=float)
    sizes = tuple(args.group_sizes)
    variances = np.asarray(args.variances, dtype=float)
    if lambdas.size != args.k:
        raise ValueError(f"--lambdas must list k={args.k} values, got {lambdas.size}")
    if variances.size != len(sizes):
        raise ValueError("--variances must list one value per group")
    fb = parse_feature_blocks(args.feature_blocks, len(sizes)) if args.feature_blocks else None
    U = haar_orthonormal(args.d, args.k, rng_stream(args.seed, 1, 0, 0))
    truth = TruthModel(U=U, lam=lambdas, v=variances, group_sizes=sizes, feature_blocks=fb)
    data = generate(truth, args.seed, trial=0)
    os.makedirs(args.out, exist_ok=True)
    data_path = os.path.join(args.out, "data.csv")
    truth_path = os.path.join(args.out, "truth.json")
    write_dataset(data_path, data)
    write_json(
        truth_path,
        {
            "schema_version": 1,
            "d": truth.d,
            "k": truth.k,
            "L": truth.L,
            "F": truth.F.tolist(),
            "v": truth.v.tolist(),
            "lambda_true": truth.lam.tolist(),
            "U_true": truth.U.tolist(),
            "group_sizes": list(truth.group_sizes),
            "feature_blocks": fb,
            "seed": args.seed,
            "config_echo": {
                "d": args.d,
                "k": args.k,
                "lambdas": list(map(float, lambdas)),
                "group_sizes": list(sizes),
                "variances": list(map(float, variances)),
                "feature_blocks": args.feature_blocks,
            },
        },
    )
    print(f"wrote {data_path} ({data.n} samples, {data.d} features, {data.L} groups)")
    print(f"wrote {truth_path}")
    return 0


def _load_data(args) -> GroupedData:
    data, _ = read_dataset(args.data)
    if args.center:
        data = GroupedData(
            [B - B.mean(axis=1, keepdims=True) for B in data.blocks], data.group_sizes
        )
    if args.compress:
        data = compress_gram(data)
    return data


def cmd_fit(args) -> int:
    data = _load_data(args)
    init = "ppca"
    if args.init == "random" and 1 <= args.rank < data.d:
        # a bad rank is left to the config's and the fit's own errors
        init = init_random(data.d, args.rank, data.L, args.seed)
    cfg = FitConfig(
        rank=args.rank,
        v_method=args.method,
        max_iters=args.max_iters,
        tol=args.tol,
        init=init,
        block_rule=args.block_rule.replace("-", "_"),
        record_trace=args.trace,
        v_tol=args.v_tol,
        loglik_tol=args.loglik_tol,
    )
    result = fit(data, cfg)
    rec = model_record(
        result.model,
        loglik=result.trace.loglik[-1],
        config_echo={name: getattr(args, name) for name in _FIT_ECHO},
        seed=args.seed,
        trace=result.trace if args.trace else None,
    )
    write_json(args.out, rec)
    status = "converged" if result.converged else "max-iters reached"
    print(
        f"{status} after {result.iterations} iterations; "
        f"loglik {result.trace.loglik[-1]:.6f} "
        "(constant -n*d/2*ln(2*pi) omitted); "
        f"v_hat {np.array2string(result.model.v, precision=6)}"
    )
    print(f"wrote {args.out}")
    return 0 if result.converged else 3


def _study_kwargs(args) -> dict:
    """The flags the user gave a study command, keyed by library parameter."""
    return {name: value for name, value in vars(args).items() if name not in ("command", "func", "out")}


def cmd_benchmark(args) -> int:
    rows = bench.run_benchmark(**_study_kwargs(args))
    write_rows(args.out, _METRIC_FIELDS, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    _print_summary(rows, ("sigma2", "method", "metric"))
    return 0


def cmd_landscape(args) -> int:
    rows = bench.run_landscape(**_study_kwargs(args))
    fields = ["sigma2_squared", "method", "init", "run", "iteration", "loglik", "gap", "converged"]
    write_rows(args.out, fields, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    # each run's rows come in iteration order, so its last row is final
    finals: dict = {}
    starts: dict = {}
    for r in rows:
        key = (r["sigma2_squared"], r["method"])
        finals.setdefault(key, {})[(r["init"], r["run"])] = r
        if r["init"] == "ppca" and r["iteration"] == 0:
            starts[key] = r["gap"]
    header = ["sigma2_squared", "method", "runs", "converged", "worst_final_gap", "ppca_start_gap"]
    print("  ".join(f"{h:>15s}" for h in header))
    for key, runs in sorted(finals.items()):
        gaps = [r["gap"] for r in runs.values() if r["converged"]]
        worst = max(gaps) if gaps else float("nan")
        cells = [f"{key[0]:>15g}", f"{key[1]:>15}", f"{len(runs):>15d}", f"{len(gaps):>15d}"]
        print("  ".join(cells + [f"{worst:15.3e}", f"{starts[key]:15.3e}"]))
    return 0


def cmd_train_test(args) -> int:
    rows = bench.train_test_nrmse(**_study_kwargs(args))
    write_rows(args.out, _METRIC_FIELDS, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    _print_summary(rows, ("method", "metric"))
    return 0


def cmd_minorizers(args) -> int:
    kwargs = _study_kwargs(args)
    data, _ = read_dataset(kwargs.pop("data"))
    rows = bench.minorizer_curves(data, **kwargs)
    write_rows(args.out, ["group", "v", "curve", "value"], rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="heppcat",
        description="Probabilistic PCA with per-group heteroscedastic noise.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a planted dataset (data.csv, truth.json)")
    sim.add_argument("--d", type=int, default=100)
    sim.add_argument("--k", type=int, default=3)
    sim.add_argument("--lambdas", type=_floats, default=[4.0, 2.0, 1.0])
    sim.add_argument("--group-sizes", type=_ints, default=[200, 800])
    sim.add_argument("--variances", type=_floats, default=[1.0, 4.0])
    sim.add_argument(
        "--feature-blocks",
        default=None,
        help="per-group 'count:variance' pairs, ';' between groups, '-' keeps a group "
        "isotropic (values starting with '-' need the --feature-blocks=VALUE form)",
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=".")
    sim.set_defaults(func=cmd_simulate)

    fitp = sub.add_parser(
        "fit",
        help="fit one model to a dataset CSV",
        description="Fit one model to a dataset CSV.  Reported log-likelihoods "
        "omit the constant -n*d/2*ln(2*pi) term.",
    )
    fitp.add_argument("--data", required=True)
    fitp.add_argument("--rank", type=int, required=True)
    fitp.add_argument("--method", default=DEFAULT_V_METHOD, choices=V_METHODS)
    fitp.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    fitp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    fitp.add_argument("--init", default="ppca", choices=["ppca", "random"])
    fitp.add_argument(
        "--block-rule", default="alternate", choices=["alternate", "max-improvement"]
    )
    fitp.add_argument("--seed", type=int, default=0)
    fitp.add_argument("--center", action="store_true", help="subtract each group's sample mean")
    fitp.add_argument("--compress", action="store_true", help="replace wide groups by Gram proxies")
    fitp.add_argument("--trace", action="store_true", help="store per-iteration history")
    fitp.add_argument("--v-tol", type=float, default=None, help="extra stop criterion on v change")
    fitp.add_argument(
        "--loglik-tol", type=float, default=None, help="extra stop criterion on likelihood change"
    )
    fitp.add_argument("--out", default="model.json")
    fitp.set_defaults(func=cmd_fit)

    # the study commands leave every flag the user did not give to the
    # library's own default
    study = dict(argument_default=argparse.SUPPRESS)

    ben = sub.add_parser("benchmark", help="Monte Carlo sweep over noise levels and methods", **study)
    ben.add_argument("--preset", required=True, choices=list(bench.PRESETS))
    ben.add_argument("--trials", type=int)
    ben.add_argument("--sigma-grid", type=_floats)
    ben.add_argument("--methods", type=_tokens)
    ben.add_argument("--seed", type=int)
    ben.add_argument("--out", default="metrics.csv")
    ben.set_defaults(func=cmd_benchmark)

    land = sub.add_parser("landscape", help="multi-initialization likelihood study", **study)
    land.add_argument("--sigma2-squared-grid", type=_floats)
    land.add_argument("--random-inits", dest="n_random", type=int)
    land.add_argument("--methods", type=_tokens)
    land.add_argument("--max-iters", type=int)
    land.add_argument("--seed", type=int)
    land.add_argument("--out", default="gaps.csv")
    land.set_defaults(func=cmd_landscape)

    tt = sub.add_parser(
        "train-test", help="reconstruction error of fits trained on half of each group", **study
    )
    tt.add_argument("--sigma2", type=float)
    tt.add_argument("--trials", type=int)
    tt.add_argument("--rank", type=int)
    tt.add_argument("--fraction", type=float)
    tt.add_argument("--seed", type=int)
    tt.add_argument("--out", default="nrmse.csv")
    tt.set_defaults(func=cmd_train_test)

    mino = sub.add_parser("minorizers", help="dump objective and surrogate curves per group", **study)
    mino.add_argument("--data", required=True)
    mino.add_argument("--rank", type=int, required=True)
    mino.add_argument("--grid-points", dest="n_grid", type=int)
    mino.add_argument("--span", type=float)
    mino.add_argument("--out", default="curves.csv")
    mino.set_defaults(func=cmd_minorizers)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the BLAS thread count changes rounding; one thread keeps the
        # artifacts the same on every machine
        with _blas.pinned(1):
            return args.func(args)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # numpy's LinAlgError subclasses ValueError, but it is no usage error
    except (NumericalError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
