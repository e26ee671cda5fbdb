"""Acceptance gates for the package.

Each test checks one numbered criterion end to end at its stated
tolerance and records a single pass/fail line, printed together in the
terminal summary.  Criteria 5-7 and 11 are statistical reproductions on
the standard two-group planted model; the rest are exact numerical
contracts.  Budgeted runtimes are asserted where a criterion states one.
"""

import time

import numpy as np
import pytest

from heppcat import (
    FactorModel,
    FitConfig,
    TruthModel,
    compress_gram,
    fit,
    generate,
    haar_orthonormal,
    log_likelihood_parts,
    ppca_closed_form,
    preset_truth,
    rng_stream,
    run_benchmark,
    run_landscape,
    train_test_nrmse,
    univariate_derivative,
    univariate_objective,
    update_v,
    update_v_rootfind,
    v_coefficients,
    eval_minorizer,
)
from heppcat.vupdate import MINORIZER_KINDS, V_METHODS

from conftest import (
    derivative_on_grid,
    objective_on_grid,
    random_coefficients,
    random_model_and_data,
    record_acceptance,
)

SIGMA_CYCLE = (0.5, 1.0, 2.0, 3.0)


def report(num, name, ok, detail):
    record_acceptance(f"criterion {num:>2} {name:<38} {'PASS' if ok else 'FAIL'}  ({detail})")


def planted_data(sigma2, trial=0, seed=0, blocked=False):
    truth = preset_truth(sigma2, seed, trial, blocked=blocked)
    return truth, generate(truth, seed, trial)


def test_01_monotonic_ascent_every_method():
    t_start = time.perf_counter()
    datasets = [planted_data(SIGMA_CYCLE[t % 4], t)[1] for t in range(50)]
    worst = -np.inf
    for method in V_METHODS:
        for data in datasets:
            res = fit(data, FitConfig(rank=3, v_method=method, max_iters=12, tol=0.0))
            ll = res.trace.loglik
            slack = 1e-8 * (1.0 + np.abs(ll[:-1]))
            worst = max(worst, float(np.max(-(np.diff(ll) + slack))))
    elapsed = time.perf_counter() - t_start
    ok = worst <= 0.0 and elapsed < 120.0
    report(1, "monotonic ascent, 5 methods x 50 fits", ok,
           f"worst slack margin {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 0.0
    assert elapsed < 120.0


def test_02_single_group_matches_closed_form():
    U = haar_orthonormal(100, 3, rng_stream(0, 1, 0, 0))
    truth = TruthModel(U=U, lam=np.array([4.0, 2.0, 1.0]), v=np.array([1.0]), group_sizes=(1000,))
    data = generate(truth, 0, 0)
    base = ppca_closed_form(data, 3)
    ll_base = log_likelihood_parts(data, base)
    G_base = base.F @ base.F.T
    worst_ll, worst_f = 0.0, 0.0
    for method in V_METHODS:
        res = fit(data, FitConfig(rank=3, v_method=method, max_iters=1000, tol=1e-8,
                                  loglik_tol=1e-10))
        rel_ll = abs(res.trace.loglik[-1] - ll_base) / abs(ll_base)
        G = res.model.F @ res.model.F.T
        rel_f = float(np.linalg.norm(G - G_base) / np.linalg.norm(G_base))
        worst_ll, worst_f = max(worst_ll, rel_ll), max(worst_f, rel_f)
    ok = worst_ll <= 1e-6 and worst_f <= 1e-4
    report(2, "single group matches closed form", ok,
           f"rel loglik {worst_ll:.2e} <= 1e-6, rel FF' {worst_f:.2e} <= 1e-4")
    assert worst_ll <= 1e-6
    assert worst_f <= 1e-4


def test_03_rootfind_beats_dense_grid():
    t_start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst_gap = -np.inf
    stray_crossings = 0
    for _ in range(1000):
        c = random_coefficients(rng, k=int(rng.integers(1, 6)), zero_energy_prob=0.0)
        v_star = update_v_rootfind(c)
        active = c.alpha > 0.0
        ratios = c.beta[active] / c.alpha[active] - c.gamma[active]
        v_min, v_max = max(float(ratios.min()), 0.0), float(ratios.max())
        hi = 1.5 * max(v_max, 1e-6) + 1.0
        grid = np.linspace(hi * 1e-9, hi, 1_000_000)
        worst_gap = max(worst_gap, float(objective_on_grid(c, grid).max()
                                         - univariate_objective(c, v_star)))
        sign = np.sign(derivative_on_grid(c, grid))
        flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        pad = 1e-9 * (1.0 + v_max)
        stray_crossings += int(np.sum((grid[flips + 1] < v_min - pad)
                                      | (grid[flips] > v_max + pad)))
    elapsed = time.perf_counter() - t_start
    ok = worst_gap <= 1e-8 and stray_crossings == 0 and elapsed < 300.0
    report(3, "root finder beats 1e6-point grids", ok,
           f"max grid advantage {worst_gap:.2e} <= 1e-8, "
           f"{stray_crossings} crossings outside bracket, {elapsed:.0f}s")
    assert worst_gap <= 1e-8
    assert stray_crossings == 0
    assert elapsed < 300.0


def test_04_minorization_suite():
    t_start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_exceed = -np.inf
    anchor_misses = 0
    worst_descent = -np.inf
    for _ in range(10_000):
        c = random_coefficients(rng, zero_energy_prob=0.0)
        v_t = float(10 ** rng.uniform(-2.0, 1.5))
        v = float(10 ** rng.uniform(-3.0, 2.0))
        obj_v = univariate_objective(c, v)
        obj_t = univariate_objective(c, v_t)
        for kind in MINORIZER_KINDS:
            worst_exceed = max(worst_exceed, eval_minorizer(kind, c, v, v_t) - obj_v)
            anchor_misses += eval_minorizer(kind, c, v_t, v_t) != obj_t
        for method in V_METHODS:
            v_new = update_v(method, c, v_t)
            gain = univariate_objective(c, v_new) - obj_t
            worst_descent = max(worst_descent, -(gain + 1e-9 * (1.0 + abs(obj_t))))
    elapsed = time.perf_counter() - t_start
    ok = worst_exceed <= 1e-9 and anchor_misses == 0 and worst_descent <= 0 and elapsed < 60.0
    report(4, "minorization suite, 1e4 triples", ok,
           f"max surrogate excess {worst_exceed:.2e} <= 1e-9, {anchor_misses} anchor misses, "
           f"worst descent margin {worst_descent:.2e}, {elapsed:.0f}s")
    assert worst_exceed <= 1e-9
    assert anchor_misses == 0
    assert worst_descent <= 0
    assert elapsed < 60.0


def test_05_factor_error_competitive_across_noise():
    t_start = time.perf_counter()
    rows = run_benchmark("fig3", trials=20, sigma_grid=(0.5, 2.0, 3.0), seed=0)
    elapsed = time.perf_counter() - t_start
    medians: dict = {}
    for r in rows:
        if r["metric"] == "factor_error":
            medians.setdefault((r["sigma2"], r["method"]), []).append(r["value"])
    details, ok = [], True
    for sigma2 in (0.5, 2.0, 3.0):
        ours = float(np.median(medians[(sigma2, "heppcat")]))
        best = min(
            float(np.median(medians[(sigma2, m)]))
            for m in ("ppca-full", "ppca-group1", "ppca-group2")
        )
        ok = ok and ours <= 1.05 * best
        details.append(f"s2={sigma2:g}: {ours:.3f} vs best {best:.3f}")
    ok = ok and elapsed < 600.0
    report(5, "factor error beats homoscedastic fits", ok,
           "; ".join(details) + f", {elapsed:.0f}s")
    assert ok


def test_06_bias_signs():
    rows = run_benchmark("fig5", trials=50, sigma_grid=(2.0,), seed=0)
    med = {}
    for r in rows:
        med.setdefault(r["metric"], []).append(r["value"])
    med = {k: float(np.median(v)) for k, v in med.items()}
    v_neg = med["rel_bias_v1"] < 0 and med["rel_bias_v2"] < 0
    lam_pos = all(med[f"rel_bias_lambda{j}"] > 0 for j in (1, 2, 3))
    ok = v_neg and lam_pos
    report(6, "noise bias negative, spectrum positive", ok,
           f"v: {med['rel_bias_v1']:+.3f}/{med['rel_bias_v2']:+.3f}, "
           f"lambda: {med['rel_bias_lambda1']:+.3f}/{med['rel_bias_lambda2']:+.3f}/"
           f"{med['rel_bias_lambda3']:+.3f}")
    assert ok


def test_07_landscape_concentration():
    rows = run_landscape(sigma2_squared_grid=(0.1, 1.0, 3.0), n_random=20, seed=0)
    final: dict = {}
    for r in rows:
        key = (r["sigma2_squared"], r["init"], r["run"])
        if key not in final or r["iteration"] > final[key]["iteration"]:
            final[key] = r
    worst_rel = 0.0
    for v2 in (0.1, 1.0, 3.0):
        finals = [r for k, r in final.items() if k[0] == v2 and r["converged"]]
        assert finals, f"no converged run at sigma2^2={v2}"
        best = max(r["loglik"] for r in finals)
        worst_rel = max(worst_rel, max(r["gap"] for r in finals) / abs(best))
    start_gap = {
        r["sigma2_squared"]: r["gap"]
        for r in rows
        if r["init"] == "ppca" and r["iteration"] == 0
    }
    ordered = start_gap[1.0] < start_gap[3.0]
    ok = worst_rel <= 1e-3 and ordered
    report(7, "landscape concentration", ok,
           f"worst converged rel gap {worst_rel:.2e} <= 1e-3, "
           f"spectral start gap {start_gap[1.0]:.2e} @1 < {start_gap[3.0]:.2e} @3: {ordered}")
    assert worst_rel <= 1e-3
    assert ordered


def test_08_derivative_checks():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        model, data = random_model_and_data(rng)
        for l, (B, n) in enumerate(zip(data.blocks, data.group_sizes)):
            c = v_coefficients(B, model, n_samples=n)
            v = float(model.v[l])
            analytic = 0.5 * n * univariate_derivative(c, v)
            h = 1e-5 * (1.0 + v)
            vp, vm = model.v.copy(), model.v.copy()
            vp[l] += h
            vm[l] -= h
            fd = (
                log_likelihood_parts(data, FactorModel(model.F, vp))
                - log_likelihood_parts(data, FactorModel(model.F, vm))
            ) / (2.0 * h)
            worst = max(worst, abs(fd - analytic) / (1.0 + abs(analytic)))
    _, data = planted_data(2.0)
    res = fit(data, FitConfig(rank=3, max_iters=1000, tol=1e-8, loglik_tol=1e-10))
    worst_fp = 0.0
    for l, (B, n) in enumerate(zip(data.blocks, data.group_sizes)):
        c = v_coefficients(B, res.model, n_samples=n)
        v = float(res.model.v[l])
        t = c.gamma + v
        scale = float(np.sum(c.alpha / t) + np.sum(c.beta / t**2))
        worst_fp = max(worst_fp, abs(univariate_derivative(c, v)) / scale)
    ok = worst <= 1e-5 and worst_fp <= 1e-6
    report(8, "derivatives match finite differences", ok,
           f"max FD mismatch {worst:.2e} <= 1e-5, fixed-point residual {worst_fp:.2e} <= 1e-6")
    assert worst <= 1e-5
    assert worst_fp <= 1e-6


def test_09_compression_equivalent_traces():
    worst = 0.0
    for trial, sigma2 in ((0, 1.0), (1, 2.0), (2, 3.0)):
        _, data = planted_data(sigma2, trial)
        cfg = FitConfig(rank=3, max_iters=60, tol=1e-8, loglik_tol=1e-10)
        raw = fit(data, cfg)
        comp = fit(compress_gram(data), cfg)
        assert raw.iterations == comp.iterations
        diff = np.abs(raw.trace.loglik - comp.trace.loglik)
        worst = max(worst, float(np.max(diff / (1.0 + np.abs(raw.trace.loglik)))))
    ok = worst <= 1e-7
    report(9, "compressed fits trace the raw fits", ok, f"max rel trace gap {worst:.2e} <= 1e-7")
    assert worst <= 1e-7


def test_10_periteration_cost_ordering():
    U = haar_orthonormal(100, 3, rng_stream(0, 1, 0, 0))
    truth = TruthModel(U=U, lam=np.array([4.0, 2.0, 1.0]), v=np.array([1.0, 1.0]),
                       group_sizes=(200, 800))
    data = generate(truth, 0, 0)
    fit(data, FitConfig(rank=3, max_iters=5, tol=0.0))  # warm-up
    # three fits per method, taken round-robin, so that a drift of the
    # host's speed falls on every method alike
    seconds = {method: [] for method in ("rootfind", "em", "quad", "cubic")}
    for _ in range(3):
        for method, runs in seconds.items():
            runs.append(fit(data, FitConfig(rank=3, v_method=method, max_iters=40, tol=0.0)).trace.seconds)
    medians = {method: float(np.median(np.concatenate(runs))) for method, runs in seconds.items()}
    ok = all(medians["rootfind"] > medians[m] for m in ("em", "quad", "cubic"))
    report(10, "root finding costs most per iteration", ok,
           ", ".join(f"{m} {medians[m] * 1e3:.2f}ms" for m in medians))
    assert ok


def test_11_train_nrmse_ordering():
    rows = train_test_nrmse(sigma2=2.0, trials=20, seed=0)
    med = {}
    for r in rows:
        med.setdefault((r["method"], r["metric"]), []).append(r["value"])
    med = {k: float(np.median(v)) for k, v in med.items()}
    ok = med[("ppca-full", "nrmse_train")] <= med[("heppcat", "nrmse_train")]
    report(11, "pooled fit wins on training error", ok,
           f"train ppca {med[('ppca-full', 'nrmse_train')]:.5f} <= "
           f"heppcat {med[('heppcat', 'nrmse_train')]:.5f}; "
           f"test ppca {med[('ppca-full', 'nrmse_test')]:.5f} vs "
           f"heppcat {med[('heppcat', 'nrmse_test')]:.5f}")
    assert ok
