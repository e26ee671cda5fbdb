"""Experiment harness: Monte Carlo sweeps, landscape studies, surrogate curves.

All sweeps use the two-group planted model (d=100, k=3, factor
variances (4, 2, 1), 200 samples at noise variance 1 and 800 samples at
noise variance ``sigma2**2``) unless noted.  Every study (benchmark,
landscape, train-test) is a list of independent tasks that the
process's one worker pool runs (``_pool``), so rows do not depend on the
pool size or on the core count, and HEPPCAT_THREADS caps it.

A task draws its dataset once and prepares it once for all of its fits.
A group's data enter a fit only through ``Y_l Y_l'``, so the fits run on
the Gram roots of :func:`compress_gram`, which shrinks the preset's
200 + 800 columns to 100 + 100.  The spectral start is computed once, by
``ppca_closed_form`` on the raw data: it is the ``ppca-full`` result and,
bit for bit, the ``init="ppca"`` start of every heppcat fit in the task.
Baseline rows are computed on the raw data; a heppcat row may differ
from a fit of the raw data in its last digits.  fig6's blocks have at
most ``d`` columns, so they are fitted as they are.  A harness fit that
stops at its iteration budget logs a ``heppcat`` warning.

A task's fits of one dataset run as the lanes of one batched fit
(``fitter._fit_lanes``): a benchmark task fits all of its heppcat
methods together, fig6 once per block size, and a landscape task all of
its starts.  Each lane's result is bit-identical to its own fit, so a
method's rows do not depend on the other methods of the sweep.
"""

from __future__ import annotations

import itertools
import logging
import math
import sys

import numpy as np

from . import _blas
from ._pool import _map_tasks, worker_count
from .baselines import ppca_closed_form, weighted_pca
from .fitter import DEFAULT_V_METHOD, FitConfig, _fit_lanes, init_random
from .fitter import fit  # noqa: F401  (perfbench's tracer wraps it here)
from .fupdate import compress_gram
from .metrics import component_recovery, factor_error, nrmse, relative_bias, subspace_error
from .model import FactorModel, GroupedData, _count, _whole, group_coefficients, univariate_objective
from .simgen import TruthModel, generate, haar_orthonormal, rng_stream
from .vupdate import MINORIZER_KINDS, V_METHODS, eval_minorizer

__all__ = [
    "PRESETS",
    "preset_truth",
    "run_benchmark",
    "run_landscape",
    "minorizer_curves",
    "train_test_split",
    "train_test_nrmse",
    "worker_count",
]

PRESET_D = 100
PRESET_K = 3
PRESET_LAMBDAS = (4.0, 2.0, 1.0)
PRESET_SIZES = (200, 800)
PRESET_V1 = 1.0

# variance floor applied to the true variances before inverting into
# weighted-PCA weights
_WEIGHT_FLOOR = 1e-12

_SIGMA_SWEEP = (0.5, 1.0, 2.0, 3.0)

# preset -> (default noise levels sigma2, default methods)
_PRESET_DEFAULTS = {
    "fig3": (_SIGMA_SWEEP, ("heppcat", "ppca-full", "ppca-group1", "ppca-group2")),
    "fig4": (_SIGMA_SWEEP, ("heppcat", "wpca-inv", "wpca-sqinv")),
    "fig5": ((2.0,), ("heppcat",)),
    "fig6-blocks": ((2.0,), ("heppcat",)),
    "fig7": (_SIGMA_SWEEP, ("heppcat", "ppca-full")),
}
PRESETS = tuple(_PRESET_DEFAULTS)

_HEPPCAT_METHODS = {"heppcat": DEFAULT_V_METHOD, **{f"heppcat-{m}": m for m in V_METHODS}}

_BASELINES = ("ppca-full", "ppca-group1", "ppca-group2", "wpca-inv", "wpca-sqinv")

FIG6_BLOCK_SIZES = (1, 10, 100)

# defaults for every harness-run fit; the likelihood extra keeps the
# spectral initialization from satisfying the factor criterion before
# the variances have moved, and SQUAREM cuts the map evaluations of a
# sweep three- to fivefold
_FIT_KW = dict(max_iters=1000, tol=1e-8, loglik_tol=1e-10, accel="squarem")

_log = logging.getLogger("heppcat")


def _distinct(values: tuple, name: str) -> tuple:
    """``values``, unless one of them repeats."""
    if len(set(values)) < len(values):
        raise ValueError(f"{name} repeats a value, got {values}")
    return values


def _noise_levels(values, name: str) -> tuple:
    """``values`` as a nonempty tuple of distinct finite positive floats."""
    levels = tuple(float(s) for s in values)
    if not levels or not all(math.isfinite(s) and s > 0 for s in levels):
        raise ValueError(f"{name} needs finite positive noise levels, got {levels}")
    return _distinct(levels, name)


def preset_truth(sigma2: float, seed: int, trial: int = 0, blocked: bool = False) -> TruthModel:
    """Planted model for one trial; the basis is redrawn per trial.

    ``blocked`` switches group 2 to the split noise profile: 20 features
    at variance 4 and the remaining 80 at ``sigma2**2``.
    """
    U = haar_orthonormal(PRESET_D, PRESET_K, rng_stream(seed, 1, trial, 0))
    fb = None
    if blocked:
        fb = [None, [(20, 4.0), (PRESET_D - 20, float(sigma2) ** 2)]]
    return TruthModel(
        U=U,
        lam=np.array(PRESET_LAMBDAS),
        v=np.array([PRESET_V1, float(sigma2) ** 2]),
        group_sizes=PRESET_SIZES,
        feature_blocks=fb,
    )


def _fit_heppcat(data: GroupedData, methods: list, start: FactorModel) -> list:
    """The harness fits of the heppcat ``methods`` from ``start``, as the
    lanes of one batched fit; a fit that stops at the iteration budget is
    logged, not scored silently."""
    cfgs = [FitConfig(rank=start.k, v_method=_HEPPCAT_METHODS[m], init=start, **_FIT_KW) for m in methods]
    results = _fit_lanes(data, cfgs)
    for method, res in zip(methods, results):
        if not res.converged:
            _log.warning(
                "%s fit on L=%d groups stopped at max_iters without converging (%d iterations)",
                method, data.L, res.iterations,
            )
    return [res.model for res in results]


def _split_into_blocks(data: GroupedData, block: int) -> GroupedData:
    """Regroup samples into consecutive blocks of the given size."""
    for n in data.group_sizes:
        if n % block != 0:
            raise ValueError(f"block size {block} does not divide group size {n}")
    return GroupedData.from_samples(data.Y, [block] * (data.n // block))


def _standard_rows(preset: str, method: str, data: GroupedData, truth: TruthModel, model: FactorModel) -> list:
    """metric/value pairs for one method on one dataset; ``model`` is the
    method's fit for the heppcat methods and the spectral model for
    ``ppca-full``."""
    F_true = truth.F
    if method in _HEPPCAT_METHODS or method == "ppca-full":
        U_hat, F_hat = model.U, model.F
    elif method in ("ppca-group1", "ppca-group2"):
        g = 0 if method.endswith("1") else 1
        model = ppca_closed_form(GroupedData([data.blocks[g]]), PRESET_K)
        U_hat, F_hat = model.U, model.F
    elif method in ("wpca-inv", "wpca-sqinv"):
        w = 1.0 / np.maximum(truth.v, _WEIGHT_FLOOR)
        if method == "wpca-sqinv":
            w = w**2
        U_hat, F_hat, model = weighted_pca(data, w, PRESET_K), None, None
    else:
        raise ValueError(f"unknown method {method!r}")

    if preset == "fig5":
        out = [(f"rel_bias_v{l + 1}", relative_bias(model.v[l], truth.v[l])) for l in range(truth.L)]
        out += [(f"rel_bias_lambda{j + 1}", relative_bias(model.lam[j], truth.lam[j])) for j in range(truth.k)]
        return out
    if preset == "fig4":
        return [("subspace_error", subspace_error(U_hat, truth.U))]
    # fig3 / fig7: factor-covariance error plus per-component recoveries
    out = [] if F_hat is None else [("factor_error", factor_error(F_hat, F_true))]
    out += [(f"recovery{j + 1}", float(r)) for j, r in enumerate(component_recovery(U_hat, truth.U))]
    if preset == "fig7":
        out.append(("subspace_error", subspace_error(U_hat, truth.U)))
    return out


def _fig6_rows(methods: tuple, data: GroupedData, truth: TruthModel) -> list:
    """The ``(method, metric, value)`` triples of the heppcat ``methods``:
    per block size, one regrouping, one spectral start and one batched fit."""
    # blocks of at most d columns have no thinner Gram root, so they are fitted as they are
    out = []
    for block in FIG6_BLOCK_SIZES:
        regrouped = _split_into_blocks(data, block)
        models = _fit_heppcat(regrouped, methods, ppca_closed_form(regrouped, PRESET_K))
        # blocks inherit the true variance of the group they came from
        true_v = np.repeat(truth.v, [n // block for n in truth.group_sizes])
        for method, model in zip(methods, models):
            for v_hat, v_true in zip(model.v, true_v):
                out.append((method, f"v_hat_block{block}_true{v_true:g}", float(v_hat)))
    return out


def _benchmark_task(payload: tuple) -> list:
    """The ``(method, metric, value)`` triples of one trial and noise
    level; the task's heppcat methods are fitted as lanes of one fit."""
    preset, trial, sigma2, seed, methods = payload
    truth = preset_truth(sigma2, seed, trial, blocked=(preset == "fig7"))
    data = generate(truth, seed, trial)
    if preset == "fig6-blocks":
        return _fig6_rows(methods, data, truth)
    fitted = [m for m in methods if m in _HEPPCAT_METHODS]
    models = {}
    if fitted or "ppca-full" in methods:
        models["ppca-full"] = start = ppca_closed_form(data, PRESET_K)
    if fitted:
        models.update(zip(fitted, _fit_heppcat(compress_gram(data), fitted, start)))
    return [
        (method, m, v)
        for method in methods
        for m, v in _standard_rows(preset, method, data, truth, models.get(method))
    ]


class _Row:
    """A sweep row, handed out as its attribute dict.  The attribute dicts
    of one class share one key table (PEP 412), so a row takes about a
    third less memory than the same dict built as a display."""

    def __init__(self, trial, sigma2, method, metric, value):
        self.trial, self.sigma2, self.method, self.metric, self.value = trial, sigma2, method, metric, value


def run_benchmark(preset: str, trials: int = 20, sigma_grid=None, methods=None, seed: int = 0) -> list:
    """Monte Carlo sweep; returns long-format rows sorted by
    (trial, sigma2, method)."""
    if preset not in PRESETS:
        raise ValueError(f"preset must be one of {PRESETS}")
    trials = _count(trials, "trials", 1)
    seed = _whole(seed, "seed")
    default_sigma, default_methods = _PRESET_DEFAULTS[preset]
    sigma_grid = _noise_levels(default_sigma if sigma_grid is None else sigma_grid, "sigma_grid")
    methods = _distinct(default_methods if methods is None else tuple(methods), "methods")
    if not methods:
        raise ValueError("methods is empty")
    for m in methods:
        if m not in _HEPPCAT_METHODS and m not in _BASELINES:
            raise ValueError(f"unknown method {m!r}")
        if preset == "fig6-blocks" and m not in _HEPPCAT_METHODS:
            raise ValueError("fig6-blocks supports heppcat methods only")
        if preset == "fig5" and m not in _HEPPCAT_METHODS and m != "ppca-full":
            raise ValueError("fig5 needs methods that estimate the variances of all groups")
    tasks = [(preset, t, s, seed, methods) for t in range(trials) for s in sigma_grid]
    # the rows are built here, not in the workers, so that they all share
    # one copy of each key and name string, which keeps a sweep's rows
    # about 30% smaller
    rows = [
        _Row(t, s, sys.intern(method), sys.intern(metric), value).__dict__
        for (_, t, s, _, _), triples in zip(tasks, _map_tasks(_benchmark_task, tasks))
        for method, metric, value in triples
    ]
    rows.sort(key=lambda r: (r["trial"], r["sigma2"], r["method"]))
    return rows


# ---------------------------------------------------------------------------
# likelihood landscape


def _landscape_task(payload: tuple) -> list:
    method, s_idx, v2, seed, n_random, max_iters = payload
    truth = preset_truth(np.sqrt(v2), seed, trial=s_idx)
    data = generate(truth, seed, trial=s_idx)
    runs = [("ppca", 0, ppca_closed_form(data, truth.k)), ("oracle", 0, FactorModel(truth.F, truth.v))]
    runs += [
        ("random", r, init_random(truth.d, truth.k, truth.L, rng_stream(seed, 2, s_idx, r)))
        for r in range(n_random)
    ]
    kw = dict(rank=truth.k, v_method=method, max_iters=max_iters, tol=1e-8, loglik_tol=1e-9)
    fits = _fit_lanes(compress_gram(data), [FitConfig(init=init, **kw) for _, _, init in runs])
    results = [(name, run, res) for (name, run, _), res in zip(runs, fits)]
    converged = [r.trace.loglik[-1] for _, _, r in results if r.converged]
    best = max(converged) if converged else max(r.trace.loglik[-1] for _, _, r in results)
    return [
        {
            "sigma2_squared": v2,
            "method": method,
            "init": name,
            "run": run,
            "iteration": it,
            "loglik": float(ll),
            "gap": float(best - ll),
            "converged": bool(res.converged),
        }
        for name, run, res in results
        for it, ll in enumerate(res.trace.loglik)
    ]


def run_landscape(
    sigma2_squared_grid=(0.1, 1.0, 2.0, 3.0),
    n_random: int = 20,
    methods=("em",),
    seed: int = 0,
    max_iters: int = 500,
) -> list:
    """Multi-initialization study; per-iteration gaps to the best
    converged likelihood within each noise configuration and method.

    Initializations: ``n_random`` random starts plus the spectral
    (``ppca``) start plus the planted-model (``oracle``) start.  Rows
    come method by method, each in grid order.
    """
    n_random = _count(n_random, "n_random")
    max_iters = _count(max_iters, "max_iters", 1)
    seed = _whole(seed, "seed")
    levels = _noise_levels(sigma2_squared_grid, "sigma2_squared_grid")
    methods = _distinct(tuple(methods), "methods")
    if not methods or not set(methods) <= set(V_METHODS):
        raise ValueError(f"methods must be a nonempty list of {V_METHODS}, got {methods}")
    tasks = [
        (method, s_idx, v2, seed, n_random, max_iters)
        for method, (s_idx, v2) in itertools.product(methods, enumerate(levels))
    ]
    return [row for rows in _map_tasks(_landscape_task, tasks) for row in rows]


# ---------------------------------------------------------------------------
# anchored surrogate curves


@_blas.pinned(1)
def minorizer_curves(data: GroupedData, rank: int, n_grid: int = 200, span: float = 100.0) -> list:
    """Objective and all four anchored surrogates per group, shifted to
    zero at the anchor (the spectral initialization's noise variance)."""
    bad = "need n_grid >= 2 and span > 1"
    n_grid = _count(n_grid, "n_grid", 2, error=bad)
    if not 1.0 < span < math.inf:
        raise ValueError(bad)
    model = ppca_closed_form(data, rank)
    v_t = float(model.v[0])
    grid = np.geomspace(v_t / span, v_t * span, n_grid)
    grid = np.unique(np.concatenate([grid, [v_t]]))
    coefs = group_coefficients(data, model)
    rows = []
    for l in range(data.L):
        c = coefs.group(l)
        obj_t = univariate_objective(c, v_t)
        for v in grid.tolist():
            curves = [("objective", univariate_objective(c, v))]
            curves += [(kind, eval_minorizer(kind, c, v, v_t)) for kind in MINORIZER_KINDS]
            rows += [{"group": l + 1, "v": v, "curve": name, "value": value - obj_t} for name, value in curves]
    return rows


# ---------------------------------------------------------------------------
# train/test reconstruction

def _train_counts(group_sizes, fraction: float) -> list:
    """Training samples per group when ``fraction`` of each group trains."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    counts = [int(round(n * fraction)) for n in group_sizes]
    for l, (n, n_train) in enumerate(zip(group_sizes, counts), 1):
        if n_train < 1 or n - n_train < 1:
            raise ValueError(f"group {l}: split leaves an empty side at fraction {fraction}")
    return counts


def train_test_split(data: GroupedData, fraction: float, seed: int, trial: int = 0):
    """Per-group random split of the samples into train and test subsets."""
    if not np.array_equal(data.widths, data.group_sizes):
        raise ValueError("train_test_split needs one column per sample, not Gram-compressed data")
    train_blocks, test_blocks = [], []
    counts = _train_counts(data.group_sizes, fraction)
    for l, (B, n, n_train) in enumerate(zip(data.blocks, data.group_sizes, counts), 1):
        perm = rng_stream(seed, 3, trial, l).permutation(n)
        train_blocks.append(B[:, perm[:n_train]])
        test_blocks.append(B[:, perm[n_train:]])
    return GroupedData(train_blocks), GroupedData(test_blocks)


def _train_test_task(payload: tuple) -> list:
    trial, sigma2, seed, rank, fraction = payload
    truth = preset_truth(sigma2, seed, trial)
    data = generate(truth, seed, trial)
    train, test = train_test_split(data, fraction, seed, trial)
    start = ppca_closed_form(train, rank)
    bases = {
        "heppcat": _fit_heppcat(compress_gram(train), ["heppcat"], start)[0].U,
        "ppca-full": start.U,
    }
    pooled = {"train": train.Y, "test": test.Y}
    return [
        {
            "trial": trial,
            "sigma2": sigma2,
            "method": method,
            "metric": f"nrmse_{split}",
            "value": nrmse(Y, U),
        }
        for method, U in bases.items()
        for split, Y in pooled.items()
    ]


def train_test_nrmse(
    sigma2: float = 2.0,
    trials: int = 20,
    rank: int = PRESET_K,
    fraction: float = 0.5,
    seed: int = 0,
) -> list:
    """Pooled reconstruction error of the heteroscedastic fit vs the
    homoscedastic closed form, trained on a split and scored on both sides."""
    sigma2 = _noise_levels((sigma2,), "sigma2")[0]
    trials = _count(trials, "trials", 1)
    rank = _count(rank, "rank", 1, PRESET_D)
    seed = _whole(seed, "seed")
    _train_counts(PRESET_SIZES, fraction)
    tasks = [(trial, sigma2, seed, rank, fraction) for trial in range(trials)]
    return [row for rows in _map_tasks(_train_test_task, tasks) for row in rows]
