import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heppcat import (
    FactorModel,
    FitConfig,
    GroupedData,
    TruthModel,
    VCoefficients,
    haar_orthonormal,
    init_random,
    log_likelihood_direct,
    log_likelihood_parts,
    minorizer_curves,
    normalize_column_signs,
    ppca_closed_form,
    run_benchmark,
    train_test_split,
    univariate_derivative,
    univariate_objective,
    v_coefficients,
    weighted_pca,
)
from heppcat.model import _logliks, _project, _svd
from conftest import random_model_and_data, segment_edge_cases


# ---------------------------------------------------------------------------
# containers


class TestGroupedData:
    def test_basic_shape_accounting(self):
        data = GroupedData([np.ones((4, 3)), np.zeros((4, 7))])
        assert data.d == 4 and data.L == 2 and data.n == 10
        assert data.group_sizes == (3, 7)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GroupedData([np.ones((4, 3)), np.ones((5, 3))])

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            GroupedData([np.ones((4, 0))])

    def test_nonfinite_rejected(self):
        B = np.ones((3, 2))
        B[1, 1] = np.nan
        with pytest.raises(ValueError):
            GroupedData([B])

    def test_group_sizes_must_cover_columns(self):
        with pytest.raises(ValueError):
            GroupedData([np.ones((3, 5))], group_sizes=(4,))

    def test_from_samples_splits_columns(self):
        Y = np.arange(12.0).reshape(2, 6)
        data = GroupedData.from_samples(Y, (2, 4))
        assert np.array_equal(data.blocks[0], Y[:, :2])
        assert np.array_equal(data.blocks[1], Y[:, 2:])
        with pytest.raises(ValueError):
            GroupedData.from_samples(Y, (2, 3))
        # a negative size summing to the column count once split silently
        with pytest.raises(ValueError, match="group 1: sample count must be >= 0"):
            GroupedData.from_samples(Y, (-1, 7))


_ONES = np.ones((2, 2))


def _truth_with_blocks(spec):
    return TruthModel(U=np.eye(2)[:, :1], lam=[1.0], v=[1.0, 1.0], group_sizes=(2, 2),
                      feature_blocks=[None, spec])


@pytest.mark.parametrize("build, message", [
    (lambda: GroupedData([_ONES, np.ones((3, 2))]), "expected a matrix with 2 rows"),
    (lambda: GroupedData([_ONES, np.ones((2, 0))]), "empty sample block"),
    (lambda: GroupedData([_ONES, np.full((2, 2), np.nan)]), "non-finite entries"),
    (lambda: GroupedData([_ONES, _ONES], (2, 0)), "sample count must be >= 1"),
    (lambda: GroupedData([_ONES, np.ones((2, 3))], (2, 2)), "block has more columns than samples"),
    (lambda: train_test_split(GroupedData([np.ones((2, 4)), np.ones((2, 1))]), 0.5, seed=0),
     "split leaves an empty side"),
    (lambda: _truth_with_blocks([(1, 1.0)]), "feature-block counts must be positive"),
    (lambda: _truth_with_blocks([(2, -1.0)]), "negative feature-block variance"),
], ids=["rows", "empty", "non-finite", "count", "columns", "split", "block-counts", "block-variance"])
def test_data_errors_number_groups_from_1(build, message):
    # every fault here is in the second group
    with pytest.raises(ValueError, match="^group 2: " + message):
        build()


_DATA = GroupedData([np.random.default_rng(0).standard_normal((4, 12)), np.ones((4, 1))])


@pytest.mark.parametrize("call, name", [
    (lambda: GroupedData([_ONES], group_sizes=(2.9,)), "group 1: sample count"),
    (lambda: GroupedData.from_samples(np.ones((2, 5)), (2.5, 2.5)), "group 1: sample count"),
    (lambda: FitConfig(rank=2.7), "rank"),
    (lambda: FitConfig(rank=2, max_iters=10.5), "max_iters"),
    (lambda: FitConfig(rank="2"), "rank"),
    (lambda: ppca_closed_form(_DATA, 2.5), "k"),
    (lambda: weighted_pca(_DATA, [1.0, 2.0], 1.5), "k"),
    (lambda: init_random(5, 2.5, 2, 0), "k"),
    (lambda: init_random(5, 2, float("nan"), 0), "L"),
    (lambda: haar_orthonormal(5.5, 2, 0), "d"),
    (lambda: minorizer_curves(_DATA, 1, n_grid=2.5), "n_grid"),
    (lambda: TruthModel(U=np.eye(2)[:, :1], lam=[1.0], v=[1.0], group_sizes=(2.5,)), "group sizes"),
    (lambda: _truth_with_blocks([(1.5, 1.0), (0.5, 1.0)]), "group 2: feature-block count"),
], ids=["group-sizes", "from-samples", "rank", "max-iters", "rank-text", "ppca-k", "wpca-k",
        "init-k", "init-L", "haar-d", "n-grid", "truth-sizes", "truth-blocks"])
def test_counts_must_be_whole_numbers(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
        call()


@pytest.mark.parametrize("span", [1.0, float("nan"), float("inf")])
def test_minorizer_span_must_be_finite_and_above_one(span, monkeypatch):
    # rejected before the spectral start is fitted
    monkeypatch.setattr("heppcat.benchmark.ppca_closed_form", None)
    with pytest.raises(ValueError, match="need n_grid >= 2 and span > 1"):
        minorizer_curves(_DATA, 1, span=span)


@pytest.mark.parametrize("three", [3, np.int64(3), 3.0], ids=["int", "int64", "float"])
def test_whole_number_counts_accepted(three, monkeypatch):
    monkeypatch.setenv("HEPPCAT_THREADS", "1")
    assert GroupedData([np.ones((2, 3))], group_sizes=(three,)).group_sizes == (3,)
    assert GroupedData.from_samples(np.ones((2, 6)), (three, three)).group_sizes == (3, 3)
    cfg = FitConfig(rank=three, max_iters=three)
    assert (cfg.rank, cfg.max_iters) == (3, 3) and type(cfg.rank) is type(cfg.max_iters) is int
    assert ppca_closed_form(_DATA, three).k == 3
    assert weighted_pca(_DATA, [1.0, 2.0], three).shape == (4, 3)
    assert init_random(5, three, 2, 0).k == 3
    assert haar_orthonormal(three, three, 0).shape == (3, 3)
    assert minorizer_curves(_DATA, 1, n_grid=three) == minorizer_curves(_DATA, 1, n_grid=3)
    truth = TruthModel(U=np.eye(3)[:, :1], lam=[1.0], v=[1.0], group_sizes=(three,),
                       feature_blocks=[[(three, 2.0)]])
    assert truth.group_sizes == (3,) and np.array_equal(truth.noise_std(0), np.full(3, np.sqrt(2.0)))
    rows = run_benchmark("fig3", trials=three, sigma_grid=(1.0,), methods=("ppca-full",))
    assert sorted({r["trial"] for r in rows}) == [0, 1, 2]


class TestFactorModel:
    def test_svd_cache_reconstructs(self, rng):
        F = rng.standard_normal((7, 3))
        m = FactorModel(F, [1.0])
        assert np.allclose(m.U * np.sqrt(m.lam) @ m.Vt, F, atol=1e-10)
        assert np.all(np.diff(m.lam) <= 1e-12)

    def test_sign_convention_largest_entry_positive(self, rng):
        for _ in range(20):
            m = FactorModel(rng.standard_normal((6, 2)), [1.0])
            peaks = m.U[np.abs(m.U).argmax(axis=0), np.arange(2)]
            assert np.all(peaks > 0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            FactorModel(np.ones((3, 1)), [-0.5])

    def test_zero_variance_allowed_in_container(self):
        m = FactorModel(np.ones((3, 1)), [0.0])
        assert m.v[0] == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FactorModel(np.full((3, 1), np.inf), [1.0])


def test_normalize_column_signs_preserves_product(rng):
    A = rng.standard_normal((6, 3))
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    U2, Vt2 = normalize_column_signs(U, Vt)
    assert np.allclose((U2 * s) @ Vt2, A, atol=1e-12)
    assert np.all(U2[np.abs(U2).argmax(axis=0), np.arange(3)] > 0)


def test_model_svd_flips_as_normalize_column_signs(monkeypatch, rng):
    # the model flips its fresh SVD factors in place; they must come out
    # as normalize_column_signs' flipped copies, byte for byte: a tie for
    # the largest magnitude (first index wins), a column to flip, a zero
    # column and signed zeros; the model decomposes a stack of one
    U = np.array([
        [0.5, -0.5, 0.0, 0.1],
        [-0.5, 0.5, -0.0, -0.9],
        [0.1, 0.0, 0.0, 0.3],
        [0.0, -0.0, 0.0, -0.0],
        [0.2, 0.1, -0.0, 0.2],
    ])
    Vt = np.array([[0.6, -0.0, 0.8, 0.0], [0.0, -1.0, 0.0, 0.0], [-0.8, 0.0, 0.6, -0.0], [0.0, 0.0, -0.0, 1.0]])
    s = np.array([3.0, 2.0, 1.0, 0.0])
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda F, full_matrices: (U[None].copy(), s[None].copy(), Vt[None].copy()))
    model = FactorModel(np.ones((5, 4)), [1.0])
    want_U, want_Vt = normalize_column_signs(U, Vt)
    assert model.U.tobytes() == want_U.tobytes() and model.Vt.tobytes() == want_Vt.tobytes()
    assert np.signbit(model.U[1]).tolist() == [True, True, True, False]
    monkeypatch.setattr(np.linalg, "svd", real)
    for F in (rng.standard_normal((7, 3)), np.asfortranarray(rng.standard_normal((9, 2)))):
        model = FactorModel(F, [1.0, 2.0])
        want_U, want_Vt = normalize_column_signs(*real(model.F, full_matrices=False)[::2])
        assert model.U.tobytes() == want_U.tobytes() and model.Vt.tobytes() == want_Vt.tobytes()


# ---------------------------------------------------------------------------
# log-likelihood oracles


def test_scalar_hand_value():
    # d = k = n = 1, F = [1], v = 1, y = 2: 0.5 * (ln(1/2) - 4/2)
    data = GroupedData([np.array([[2.0]])])
    model = FactorModel(np.array([[1.0]]), [1.0])
    expected = 0.5 * (math.log(0.5) - 2.0)
    assert log_likelihood_direct(data, model) == pytest.approx(expected, rel=1e-12)
    assert log_likelihood_parts(data, model) == pytest.approx(expected, rel=1e-12)


def test_zero_factor_identity_noise():
    # F = 0, v = 1: likelihood reduces to -||Y||_F^2 / 2
    data = GroupedData([np.eye(2)])
    model = FactorModel(np.zeros((2, 1)), [1.0])
    assert log_likelihood_direct(data, model) == pytest.approx(-1.0, rel=1e-12)
    assert log_likelihood_parts(data, model) == pytest.approx(-1.0, rel=1e-12)


def test_direct_and_parts_agree(rng):
    cases = [random_model_and_data(rng) for _ in range(100)] + segment_edge_cases(rng)
    for model, data in cases:
        a = log_likelihood_direct(data, model)
        b = log_likelihood_parts(data, model)
        assert b == pytest.approx(a, rel=1e-9)


def test_rotation_invariance(rng):
    for _ in range(25):
        model, data = random_model_and_data(rng, k=3, d=6)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = FactorModel(model.F @ Q, model.v)
        a = log_likelihood_parts(data, model)
        b = log_likelihood_parts(data, rotated)
        assert b == pytest.approx(a, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_direct_parts_agreement_property(seed):
    rng = np.random.default_rng(seed)
    model, data = random_model_and_data(rng)
    assert log_likelihood_parts(data, model) == pytest.approx(
        log_likelihood_direct(data, model), rel=1e-9
    )


def test_direct_rejects_nonpositive_variance():
    data = GroupedData([np.eye(2)])
    model = FactorModel(np.zeros((2, 1)), [0.0])
    with pytest.raises(ValueError):
        log_likelihood_direct(data, model)


def test_parts_boundary_convention_at_zero_variance():
    # data exactly inside the factor span: +inf; off-span residual: -inf
    model = FactorModel(np.array([[1.0], [0.0], [0.0]]), [0.0])
    inside = GroupedData([np.array([[2.0], [0.0], [0.0]])])
    offspan = GroupedData([np.array([[2.0], [1.0], [0.0]])])
    assert log_likelihood_parts(inside, model) == math.inf
    assert log_likelihood_parts(offspan, model) == -math.inf


def test_stacked_logliks_take_the_boundary_limits_lane_by_lane(rng):
    # lanes of three models of one dataset, two of them with a zero
    # variance: each lane is its own model's likelihood, with the boundary
    # limits, +inf for a group inside the factor span and -inf for a group
    # with an off-span residual
    inside = np.zeros((3, 4))
    inside[0] = [2.0, -1.0, 1.0, 3.0]
    data = GroupedData([inside, rng.standard_normal((3, 5))])
    axis = np.array([[1.0], [0.0], [0.0]])
    F = np.stack([rng.standard_normal((3, 1)), axis, axis])
    v = np.array([[0.5, 2.0], [0.0, 2.0], [0.5, 0.0]])
    U, lam, _ = _svd(F)
    got = _logliks(_project(data, U, lam)[1], data.counts, v)
    want = [log_likelihood_parts(data, FactorModel(f, row)) for f, row in zip(F, v)]
    assert got.tolist() == want
    assert want[1] == math.inf and want[2] == -math.inf
    assert want[0] == pytest.approx(log_likelihood_direct(data, FactorModel(F[0], v[0])), rel=1e-12)


def test_shape_mismatch_rejected(rng):
    model, data = random_model_and_data(rng, d=5, L=2)
    other = GroupedData([rng.standard_normal((5, 4))])
    with pytest.raises(ValueError):
        log_likelihood_parts(other, model)
    with pytest.raises(ValueError):
        log_likelihood_direct(other, model)


def test_parts_is_faster_than_direct():
    import timeit

    rng = np.random.default_rng(7)
    model, data = random_model_and_data(rng, d=100, k=3, L=2, n_per_group=(400, 600))
    # alternate the two paths within each repeat so that a burst of load
    # from elsewhere on the machine reaches both, not just one block
    t_direct = t_parts = math.inf
    for _ in range(7):
        t_direct = min(t_direct, timeit.timeit(lambda: log_likelihood_direct(data, model), number=3))
        t_parts = min(t_parts, timeit.timeit(lambda: log_likelihood_parts(data, model), number=3))
    assert t_parts * 10 <= t_direct


# ---------------------------------------------------------------------------
# univariate coefficients and objective


def worked_coefficients():
    # d = 2, k = 1, U = e1, lam = 2, single sample y = (3, 4)
    model = FactorModel(np.array([[math.sqrt(2.0)], [0.0]]), [1.0])
    block = np.array([[3.0], [4.0]])
    return v_coefficients(block, model)


def test_worked_coefficient_values():
    c = worked_coefficients()
    assert np.allclose(c.alpha, [1.0, 1.0])
    assert np.allclose(c.beta, [16.0, 9.0])
    assert np.allclose(c.gamma, [0.0, 2.0])
    assert c.beta_tilde == pytest.approx(16.0)
    assert list(c.zero_set) == [True, False]


def test_worked_objective_and_derivative():
    c = worked_coefficients()
    expected_obj = -(math.log(2.0) + 16.0 / 2.0) - (math.log(4.0) + 9.0 / 4.0)
    assert univariate_objective(c, 2.0) == pytest.approx(expected_obj, rel=1e-12)
    # -1/2 + 16/4 - 1/4 + 9/16
    assert univariate_derivative(c, 2.0) == pytest.approx(3.8125, rel=1e-12)


def test_energy_decomposition(rng):
    # sum_j beta_j equals the per-sample energy ||Y||_F^2 / n
    for _ in range(50):
        model, data = random_model_and_data(rng)
        B = data.blocks[0]
        c = v_coefficients(B, model)
        assert c.beta.sum() == pytest.approx(np.sum(B * B) / B.shape[1], rel=1e-10)


def test_coefficients_respect_sample_count_override(rng):
    model, data = random_model_and_data(rng, d=6, k=2)
    B = data.blocks[0]
    c1 = v_coefficients(B, model)
    c2 = v_coefficients(B, model, n_samples=2 * B.shape[1])
    assert np.allclose(2.0 * c2.beta, c1.beta)


def test_caller_built_coefficients_are_checked():
    good = dict(alpha=[2.0, 1.0], beta=[1.0, 0.5], gamma=[0.0, 3.0])
    VCoefficients(**good)
    bad = [
        dict(good, beta=[1.0, 0.5, 0.2]),  # unequal lengths
        dict(alpha=[], beta=[], gamma=[]),  # empty vectors
        dict(good, alpha=[2.0, np.nan]),
        dict(good, beta=[np.inf, 0.5]),
        dict(good, gamma=[0.0, -3.0]),
        dict(good, beta=[-1.0, 0.5]),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            VCoefficients(**kwargs)
    B = np.ones((2, 3))
    B[1, 2] = np.nan
    with pytest.raises(ValueError):
        v_coefficients(B, FactorModel(np.array([[1.0], [0.0]]), [1.0]))


def test_derivative_matches_finite_differences(rng):
    for _ in range(100):
        model, data = random_model_and_data(rng)
        c = v_coefficients(data.blocks[0], model)
        v = float(rng.uniform(0.3, 4.0))
        h = 1e-5 * v
        fd = (univariate_objective(c, v + h) - univariate_objective(c, v - h)) / (2 * h)
        der = univariate_derivative(c, v)
        assert abs(der - fd) <= 1e-5 * (1.0 + abs(fd))


def test_group_derivative_matches_full_likelihood(rng):
    # (n_l / 2) * univariate_derivative equals the partial derivative of
    # log_likelihood_parts in v_l
    for _ in range(20):
        model, data = random_model_and_data(rng, L=2)
        l = int(rng.integers(0, data.L))
        v = float(model.v[l])
        h = 1e-5 * v

        def ll(vl):
            w = model.v.copy()
            w[l] = vl
            return log_likelihood_parts(data, FactorModel(model.F, w))

        fd = (ll(v + h) - ll(v - h)) / (2 * h)
        c = v_coefficients(data.blocks[l], model)
        direct = 0.5 * data.group_sizes[l] * univariate_derivative(c, v)
        assert abs(direct - fd) <= 1e-5 * (1.0 + abs(fd))


def test_objective_invalid_inputs():
    c = worked_coefficients()
    with pytest.raises(ValueError):
        univariate_objective(c, -1.0)
    with pytest.raises(ValueError):
        univariate_derivative(c, 0.0)


def test_objective_boundary_values():
    c = worked_coefficients()
    assert univariate_objective(c, 0.0) == -math.inf  # beta_tilde = 16 > 0
    zero_resid = v_coefficients(
        np.array([[3.0], [0.0]]),
        FactorModel(np.array([[math.sqrt(2.0)], [0.0]]), [1.0]),
    )
    assert zero_resid.beta_tilde == 0.0
    assert univariate_objective(zero_resid, 0.0) == math.inf
