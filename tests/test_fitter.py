import time

import numpy as np
import pytest

from heppcat import (
    FactorModel,
    FitConfig,
    GroupedData,
    TruthModel,
    V_METHODS,
    compress_gram,
    fit,
    generate,
    haar_orthonormal,
    init_ppca,
    init_random,
    log_likelihood_parts,
    ppca_closed_form,
)


def two_group_data(seed=5, d=12, k=2, sizes=(60, 40), v=(0.4, 2.5)):
    t = TruthModel(
        U=haar_orthonormal(d, k, seed),
        lam=np.array([4.0, 1.5]),
        v=np.array(v),
        group_sizes=sizes,
    )
    return generate(t, seed=seed), t


def test_all_methods_ascend_and_agree():
    data, t = two_group_data()
    results = {}
    for method in V_METHODS:
        cfg = FitConfig(rank=2, v_method=method, max_iters=2000, tol=1e-9, loglik_tol=1e-12)
        r = fit(data, cfg)
        ll = r.trace.loglik
        slack = 1e-9 * (1.0 + np.abs(ll[:-1]))
        assert np.all(np.diff(ll) >= -slack), method
        results[method] = r
    finals = [r.trace.loglik[-1] for r in results.values()]
    # every method lands on the same stationary value on this easy problem
    assert max(finals) - min(finals) <= 1e-5 * (1.0 + abs(max(finals)))
    for r in results.values():
        assert r.converged
        np.testing.assert_allclose(r.model.v, results["rootfind"].model.v, rtol=1e-2)


def test_spectral_init_is_factor_fixed_point():
    # the pooled spectral start maximizes F under its own homoscedastic
    # variances, so the bare factor criterion fires immediately; the
    # likelihood extra keeps the fit going until it genuinely stalls
    data, _ = two_group_data()
    bare = fit(data, FitConfig(rank=2, max_iters=100, tol=1e-9))
    assert bare.converged and bare.iterations == 1
    full = fit(data, FitConfig(rank=2, max_iters=2000, tol=1e-9, loglik_tol=1e-12))
    assert full.converged and full.iterations > 1
    assert full.trace.loglik[-1] > bare.trace.loglik[-1] + 1.0


def test_trace_shapes_and_semantics():
    data, _ = two_group_data()
    r = fit(data, FitConfig(rank=2, max_iters=50, tol=1e-8))
    n_it = r.iterations
    assert len(r.trace.loglik) == n_it + 1
    assert len(r.trace.f_change) == n_it
    assert len(r.trace.seconds) == n_it
    assert r.trace.v.shape == (n_it + 1, 2)
    init_ll = log_likelihood_parts(data, init_ppca(data, 2))
    assert r.trace.loglik[0] == pytest.approx(init_ll)
    assert r.trace.f_change[-1] <= 1e-8
    assert np.all(r.trace.seconds >= 0)


def test_trace_seconds_include_the_likelihood(monkeypatch):
    import heppcat.fitter as fitmod

    # each iteration's likelihood comes from its coefficient pass
    real = fitmod.coefficient_loglik

    def slow(coefs, counts, v):
        time.sleep(0.002)
        return real(coefs, counts, v)

    monkeypatch.setattr(fitmod, "coefficient_loglik", slow)
    data, _ = two_group_data()
    for rule in ("alternate", "max_improvement"):
        r = fit(data, FitConfig(rank=2, max_iters=5, tol=0.0, block_rule=rule))
        assert len(r.trace.seconds) == 5
        assert np.all(r.trace.seconds >= 0.002), rule


@pytest.mark.parametrize("rule", ["alternate", "max_improvement"])
def test_one_svd_per_iteration(monkeypatch, rule):
    # the spectral start's model and one updated factor matrix per
    # iteration; the noise update keeps its model's SVD
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    data, _ = two_group_data()
    monkeypatch.setattr(np.linalg, "svd", counting)
    fit(data, FitConfig(rank=2, max_iters=5, tol=0.0, block_rule=rule))
    assert len(calls) == 1 + 5


@pytest.mark.parametrize("rule", ["alternate", "max_improvement"])
@pytest.mark.parametrize("compress", [False, True])
def test_trace_loglik_is_the_models_likelihood(rule, compress):
    data, _ = two_group_data(sizes=(60, 8), v=(0.4, 2.5))
    if compress:
        data = compress_gram(data)
        assert data.blocks[0].shape[1] < data.group_sizes[0]
    res = fit(data, FitConfig(rank=2, v_method="cubic", max_iters=30, tol=0.0, block_rule=rule))
    assert res.trace.loglik[-1] == log_likelihood_parts(data, res.model)


def test_trace_without_v_history():
    data, _ = two_group_data()
    r = fit(data, FitConfig(rank=2, max_iters=5, record_trace=False))
    assert r.trace.v is None
    assert len(r.trace.loglik) == r.iterations + 1


def test_recovers_planted_variances():
    data, t = two_group_data(sizes=(400, 400), d=20)
    cfg = FitConfig(rank=2, v_method="rootfind", max_iters=800, tol=1e-10, loglik_tol=1e-12)
    r = fit(data, cfg)
    np.testing.assert_allclose(r.model.v, t.v, rtol=0.25)
    cross = np.sum((r.model.U.T @ t.U) ** 2)
    assert cross >= 2 - 0.1


def test_single_group_matches_homoscedastic_closed_form():
    rng = np.random.default_rng(0)
    data = GroupedData([rng.standard_normal((10, 300))])
    mle = ppca_closed_form(data, 3)
    r = fit(data, FitConfig(rank=3, v_method="rootfind", max_iters=2000, tol=1e-12))
    assert log_likelihood_parts(data, r.model) == pytest.approx(
        log_likelihood_parts(data, mle), rel=1e-9
    )
    got = r.model.F @ r.model.F.T
    want = mle.F @ mle.F.T
    assert np.linalg.norm(got - want) <= 1e-4 * (1.0 + np.linalg.norm(want))


def test_max_improvement_ascends_and_reaches_alternate_value():
    data, _ = two_group_data()
    a = fit(
        data,
        FitConfig(rank=2, block_rule="max_improvement", max_iters=2000, tol=1e-10, v_tol=1e-10),
    )
    b = fit(data, FitConfig(rank=2, block_rule="alternate", max_iters=2000, tol=1e-10, v_tol=1e-10))
    ll = a.trace.loglik
    assert np.all(np.diff(ll) >= -1e-9 * (1.0 + np.abs(ll[:-1])))
    assert a.trace.loglik[-1] == pytest.approx(b.trace.loglik[-1], rel=1e-6)


def test_explicit_and_random_inits():
    data, _ = two_group_data()
    start = init_random(data.d, 2, data.L, seed=3)
    r = fit(data, FitConfig(rank=2, init=start, max_iters=300, tol=1e-8))
    assert r.trace.loglik[0] == pytest.approx(log_likelihood_parts(data, start))
    r2 = fit(data, FitConfig(rank=2, init="random", seed=3, max_iters=300, tol=1e-8))
    assert r2.trace.loglik[0] == pytest.approx(r.trace.loglik[0])
    # different seeds start elsewhere
    r3 = fit(data, FitConfig(rank=2, init="random", seed=4, max_iters=1))
    assert r3.trace.loglik[0] != pytest.approx(r.trace.loglik[0])


def test_init_random_moments():
    m = init_random(50, 4, 3, seed=1)
    assert m.F.shape == (50, 4)
    assert np.all((m.v >= 1e-12) & (m.v < 1.0))
    assert abs(m.F.mean()) <= 0.2
    assert m.F.std() == pytest.approx(1.0, abs=0.15)


def test_not_converged_when_budget_exhausted():
    data, _ = two_group_data()
    r = fit(data, FitConfig(rank=2, max_iters=2, tol=0.0))
    assert not r.converged
    assert r.iterations == 2


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(rank=0)
    with pytest.raises(ValueError):
        FitConfig(rank=1, v_method="gradient")
    with pytest.raises(ValueError):
        FitConfig(rank=1, max_iters=0)
    with pytest.raises(ValueError):
        FitConfig(rank=1, tol=-1.0)
    with pytest.raises(ValueError):
        FitConfig(rank=1, block_rule="sweep")
    with pytest.raises(ValueError):
        FitConfig(rank=1, init="zeros")
    with pytest.raises(ValueError):
        FitConfig(rank=1, v_tol=-1e-3)
    with pytest.raises(ValueError):
        FitConfig(rank=1, loglik_tol=np.inf)


def test_fit_rejects_bad_shapes():
    data, _ = two_group_data(d=6)
    with pytest.raises(ValueError):
        fit(data, FitConfig(rank=6))
    start = FactorModel(np.zeros((6, 2)), np.ones(3))  # L mismatch
    with pytest.raises(ValueError):
        fit(data, FitConfig(rank=2, init=start))
