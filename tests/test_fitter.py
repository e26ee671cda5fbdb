import logging
import time

import numpy as np
import pytest

from heppcat import fitter
from heppcat.benchmark import _FIT_KW, preset_truth

from heppcat import (
    DegenerateDataError,
    FactorModel,
    FitConfig,
    GroupedData,
    TruthModel,
    V_METHODS,
    compress_gram,
    fit,
    generate,
    haar_orthonormal,
    init_random,
    log_likelihood_direct,
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
    init_ll = log_likelihood_parts(data, ppca_closed_form(data, 2))
    assert r.trace.loglik[0] == pytest.approx(init_ll)
    assert r.trace.f_change[-1] <= 1e-8
    assert np.all(r.trace.seconds >= 0)


def test_trace_seconds_include_the_likelihood(monkeypatch):
    import heppcat.fitter as fitmod

    # each iteration's likelihood comes from its coefficient pass
    real = fitmod._logliks

    def slow(coefs, counts, v):
        time.sleep(0.002)
        return real(coefs, counts, v)

    monkeypatch.setattr(fitmod, "_logliks", slow)
    data, _ = two_group_data()
    r = fit(data, FitConfig(rank=2, max_iters=5, tol=0.0))
    assert len(r.trace.seconds) == 5
    assert np.all(r.trace.seconds >= 0.002)


def test_one_svd_per_iteration(monkeypatch):
    # the spectral start's model and one updated factor matrix per
    # iteration; the noise update keeps its model's SVD
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    data, _ = two_group_data()
    monkeypatch.setattr(np.linalg, "svd", counting)
    fit(data, FitConfig(rank=2, max_iters=5, tol=0.0))
    assert len(calls) == 1 + 5


def test_one_projection_per_iteration():
    # k x M products U'Y: the initial likelihood's, which the first
    # factor update reuses, and one per iteration on the updated basis,
    # which the next factor update reuses; a fit is one lane, so each
    # product is a stack of one
    shapes = []

    class CountingY(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and inputs[1] is self:
                shapes.append(inputs[0].shape)
            inputs = tuple(x.view(np.ndarray) if isinstance(x, CountingY) else x for x in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    data, _ = two_group_data()
    data.Y = data.Y.view(CountingY)
    fit(data, FitConfig(rank=2, max_iters=5, tol=0.0))
    assert shapes == [(1, 2, data.d)] * (1 + 5)


@pytest.mark.parametrize("compress", [False, True])
def test_trace_loglik_is_the_models_likelihood(compress):
    data, _ = two_group_data(sizes=(60, 8), v=(0.4, 2.5))
    if compress:
        data = compress_gram(data)
        assert data.blocks[0].shape[1] < data.group_sizes[0]
    res = fit(data, FitConfig(rank=2, v_method="cubic", max_iters=30, tol=0.0))
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


def test_explicit_and_random_inits():
    data, _ = two_group_data()
    start = init_random(data.d, 2, data.L, seed=3)
    r = fit(data, FitConfig(rank=2, init=start, max_iters=300, tol=1e-8))
    assert r.trace.loglik[0] == pytest.approx(log_likelihood_parts(data, start))
    # different seeds start elsewhere
    r3 = fit(data, FitConfig(rank=2, init=init_random(data.d, 2, data.L, 4), max_iters=1))
    assert r3.trace.loglik[0] != pytest.approx(r.trace.loglik[0])
    # the spectral model passed explicitly is the "ppca" start, bit for bit
    kw = dict(rank=2, max_iters=300, tol=1e-8, loglik_tol=1e-10)
    spectral = fit(data, FitConfig(**kw))
    shared = fit(data, FitConfig(init=ppca_closed_form(data, 2), **kw))
    assert shared.iterations == spectral.iterations > 1
    for name in ("loglik", "f_change", "v"):
        assert np.array_equal(getattr(shared.trace, name), getattr(spectral.trace, name)), name
    assert np.array_equal(shared.model.F, spectral.model.F)
    assert np.array_equal(shared.model.v, spectral.model.v)


def test_random_start_is_an_explicit_model():
    with pytest.raises(ValueError, match="init must be 'ppca' or a FactorModel"):
        FitConfig(rank=1, init="random")


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
        FitConfig(rank=1, init="zeros")
    with pytest.raises(ValueError):
        FitConfig(rank=1, v_tol=-1e-3)
    with pytest.raises(ValueError):
        FitConfig(rank=1, loglik_tol=np.inf)
    with pytest.raises(ValueError, match="accel must be None or 'squarem'"):
        FitConfig(rank=1, accel="bogus")


def test_fit_rejects_bad_shapes():
    data, _ = two_group_data(d=6)
    with pytest.raises(ValueError):
        fit(data, FitConfig(rank=6))
    start = FactorModel(np.zeros((6, 2)), np.ones(3))  # L mismatch
    with pytest.raises(ValueError):
        fit(data, FitConfig(rank=2, init=start))


def test_ascent_monitor_counts_a_forced_drop(monkeypatch, caplog):
    data, _ = two_group_data()
    real = fitter.update_v
    calls = []

    def dropping(method, c, v_t=None):
        # one all-groups call per iteration; in iteration 3 the second
        # group's update overshoots its optimum tenfold
        calls.append(1)
        v_new = real(method, c, v_t)
        if len(calls) == 3:
            v_new[1] *= 10.0
        return v_new

    monkeypatch.setattr(fitter, "update_v", dropping)
    with caplog.at_level(logging.WARNING, logger="heppcat"):
        res = fit(data, FitConfig(rank=2, max_iters=8, tol=0.0))
    ll = res.trace.loglik
    assert ll[3] < ll[2]
    assert res.trace.ascent_violations == 1
    assert res.trace.worst_drop == ll[2] - ll[3]
    warnings = [r for r in caplog.records if r.name == "heppcat"]
    assert len(warnings) == 1 and "1 of 8 iterations" in warnings[0].getMessage()


def test_ascent_monitor_silent_on_normal_fits(caplog):
    data, _ = two_group_data()
    with caplog.at_level(logging.WARNING, logger="heppcat"):
        for method in V_METHODS:
            res = fit(data, FitConfig(rank=2, v_method=method, max_iters=60, tol=0.0))
            assert (res.trace.ascent_violations, res.trace.worst_drop) == (0, 0.0)
    assert not [r for r in caplog.records if r.name == "heppcat"]


def zero_group_data():
    # group 2's samples are all zero, so its residual energy vanishes
    Y = np.random.default_rng(0).standard_normal((10, 50))
    return GroupedData([Y, np.zeros((10, 5))])


@pytest.mark.parametrize("method", ["rootfind", "doc", "quad", "cubic"])
def test_zero_variance_mid_fit_raises_degenerate_data_error(method):
    # these updates return exactly 0 on the zero-residual branch; the
    # next factor update would need v > 0, so the fit names the group
    data = zero_group_data()
    with pytest.raises(DegenerateDataError, match=r"iteration \d+: group 2 has zero noise variance"):
        fit(data, FitConfig(rank=2, v_method=method, loglik_tol=1e-10))
    # a fit whose stopping rule fires in the same iteration returns the zero
    r = fit(data, FitConfig(rank=2, v_method=method))
    assert r.converged and r.iterations == 1
    assert r.model.v[1] == 0.0 and r.model.v[0] > 0.0


def _rel_err(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b))


@pytest.mark.parametrize("method", V_METHODS)
def test_fit_respects_scaling_and_group_order(method):
    # Scaling the data by c scales the variances by c**2 and the factors
    # by c and shifts the likelihood by -n*d*ln(c); reversing the groups
    # reverses the variances and keeps F F' and the likelihood.  Both hold
    # whatever the rounding path, so the fits also stop together.
    data = generate(preset_truth(2.0, seed=0), seed=0)
    cfg = FitConfig(rank=3, v_method=method, **_FIT_KW)
    base = fit(data, cfg)
    for c in (2.0, 3.0):
        r = fit(GroupedData([c * B for B in data.blocks]), cfg)
        assert r.iterations == base.iterations
        assert _rel_err(r.trace.v, c * c * base.trace.v) <= 1e-10
        assert _rel_err(r.model.F, c * base.model.F) <= 1e-10
        assert _rel_err(r.trace.loglik, base.trace.loglik - data.n * data.d * np.log(c)) <= 1e-10
    r = fit(GroupedData(data.blocks[::-1]), cfg)
    assert r.iterations == base.iterations
    assert _rel_err(r.trace.v[:, ::-1], base.trace.v) <= 1e-10
    assert _rel_err(r.model.F @ r.model.F.T, base.model.F @ base.model.F.T) <= 1e-10
    assert _rel_err(r.trace.loglik, base.trace.loglik) <= 1e-10


def test_squarem_fits_ascend_on_gate_1_datasets():
    sigmas = (0.5, 1.0, 2.0, 3.0)
    datasets = [generate(preset_truth(sigmas[t % 4], 0, t), 0, t) for t in range(50)]
    for method in V_METHODS:
        for data in datasets:
            res = fit(data, FitConfig(rank=3, v_method=method, max_iters=24, tol=0.0, accel="squarem"))
            ll = res.trace.loglik
            assert np.all(np.diff(ll) >= -fitter.ASCENT_SLACK * (1.0 + np.abs(ll[:-1]))), method
            assert res.trace.ascent_violations == 0


def test_squarem_rejects_a_lower_extrapolation():
    # on this dataset one extrapolated point falls below its cycle's
    # second map step; the cycle goes on from that step and still ascends
    data = compress_gram(generate(preset_truth(2.0, seed=0), seed=0))
    res = fit(data, FitConfig(rank=3, **_FIT_KW))
    assert res.converged and res.trace.rejected_extrapolations > 0
    assert res.trace.ascent_violations == 0
    plain = fit(data, FitConfig(rank=3, **dict(_FIT_KW, accel=None)))
    assert plain.trace.rejected_extrapolations == 0
    assert res.iterations < plain.iterations


def test_squarem_rejects_a_nonpositive_variance(monkeypatch):
    # v runs 1, 0.5, 0.2 with F fixed: the step length is 2.5 and the
    # extrapolated variance -0.25, so the point is rejected
    data, _ = two_group_data()
    F = ppca_closed_form(data, 2).F[None]
    points = [fitter._point(data, F, np.array([[v, 1.0]])) for v in (1.0, 0.5, 0.2)]
    point, rejected = fitter._extrapolate(data, *points, 1.0)
    assert rejected == [True] and point is points[2]
    # a rejected cycle goes on from its second map step, so a fit that
    # rejects every point walks the plain path
    monkeypatch.setattr(fitter, "_extrapolate", lambda data, p0, p1, p2, scale: (p2, [True] * len(p2.ll)))
    res = fit(data, FitConfig(rank=2, max_iters=7, tol=0.0, accel="squarem"))
    assert res.trace.rejected_extrapolations == 2
    plain = fit(data, FitConfig(rank=2, max_iters=7, tol=0.0))
    for name in ("loglik", "f_change", "v"):
        assert np.array_equal(getattr(res.trace, name), getattr(plain.trace, name)), name
    assert np.array_equal(res.model.F, plain.model.F)


@pytest.mark.parametrize("max_iters", [1, 2, 3, 4, 7])
def test_squarem_meets_the_budget_exactly(monkeypatch, max_iters):
    # every map evaluation counts, mid-cycle too, and leaves one entry
    calls = []
    real = fitter._map

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fitter, "_map", counting)
    data, _ = two_group_data()
    res = fit(data, FitConfig(rank=2, max_iters=max_iters, tol=0.0, accel="squarem"))
    assert len(calls) == res.iterations == max_iters and not res.converged
    assert len(res.trace.loglik) == len(res.trace.v) == max_iters + 1
    assert len(res.trace.f_change) == len(res.trace.seconds) == max_iters


@pytest.mark.parametrize("compress", [False, True])
def test_squarem_final_loglik_is_the_models_likelihood(compress):
    data = generate(preset_truth(3.0, seed=1), seed=1)
    if compress:
        data = compress_gram(data)
    res = fit(data, FitConfig(rank=3, v_method="cubic", **_FIT_KW))
    assert res.converged
    direct = log_likelihood_direct(data, res.model)
    assert abs(res.trace.loglik[-1] - direct) <= 1e-9 * abs(direct)


# ---------------------------------------------------------------------------
# lanes: several fits of one dataset as one batched iteration map


def _assert_same_fit(got, want, label):
    assert got.iterations == want.iterations, label
    assert got.converged == want.converged, label
    for name in ("F", "v", "U", "lam", "Vt"):
        assert getattr(got.model, name).tobytes() == getattr(want.model, name).tobytes(), (label, name)
    for name in ("loglik", "f_change", "v"):
        assert getattr(got.trace, name).tobytes() == getattr(want.trace, name).tobytes(), (label, name)
    for name in ("ascent_violations", "worst_drop", "rejected_extrapolations"):
        assert getattr(got.trace, name) == getattr(want.trace, name), (label, name)


def _lane_datasets():
    planted = generate(preset_truth(2.0, seed=0), seed=0)
    small, _ = two_group_data(d=8, sizes=(400, 600))
    return {
        "raw": (planted, 3, 120),
        "gram": (compress_gram(planted), 3, 120),
        # L=1000 one-sample groups at small d
        "one-sample": (GroupedData.from_samples(small.Y, [1] * small.n), 2, 25),
    }


@pytest.mark.parametrize("accel", [None, "squarem"])
@pytest.mark.parametrize("case", ["raw", "gram", "one-sample"])
def test_lanes_equal_solo_fits_bit_for_bit(case, accel):
    data, k, budget = _lane_datasets()[case]
    # plain fits at the harness tolerances would all run out of budget
    tols = dict(tol=1e-8, loglik_tol=1e-10) if accel else dict(tol=1e-4, loglik_tol=1e-7)
    kw = dict(rank=k, max_iters=budget, accel=accel, **tols)
    # every method from the spectral start, and two cheap ones from a
    # random one; the lanes stop at different iterations and leave the batch
    start = init_random(data.d, k, data.L, seed=7)
    cfgs = [FitConfig(v_method=m, **kw) for m in V_METHODS]
    cfgs += [FitConfig(v_method=m, init=start, **kw) for m in ("em", "quad")]
    lanes = fitter._fit_lanes(data, cfgs)
    assert len({res.iterations for res in lanes}) > 1
    for cfg, res in zip(cfgs, lanes, strict=True):
        _assert_same_fit(res, fit(data, cfg), (cfg.v_method, cfg.init is start))


def test_lane_reaching_a_zero_variance_raises_its_solo_error():
    data = zero_group_data()
    kw = dict(rank=2, loglik_tol=1e-10)
    with pytest.raises(DegenerateDataError) as solo:
        fit(data, FitConfig(v_method="rootfind", **kw))
    # em never reaches the exact zero, so only the rootfind lane fails
    with pytest.raises(DegenerateDataError) as lanes:
        fitter._fit_lanes(data, [FitConfig(v_method="em", **kw), FitConfig(v_method="rootfind", **kw)])
    assert str(lanes.value) == str(solo.value)


@pytest.mark.parametrize(
    "change",
    [dict(rank=3), dict(max_iters=7), dict(tol=1e-3), dict(record_trace=False), dict(v_tol=1e-6),
     dict(loglik_tol=1e-9), dict(accel="squarem")],
)
def test_lanes_differ_only_in_method_and_start(change):
    data, _ = two_group_data()
    base = dict(rank=2, max_iters=5, tol=0.0)
    with pytest.raises(ValueError, match="may differ only in v_method and init"):
        fitter._fit_lanes(data, [FitConfig(**base), FitConfig(**{**base, **change})])
    # method and start may differ
    start = init_random(data.d, 2, data.L, seed=1)
    lanes = fitter._fit_lanes(data, [FitConfig(**base), FitConfig(v_method="doc", init=start, **base)])
    assert [res.iterations for res in lanes] == [5, 5]
