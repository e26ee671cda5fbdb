import numpy as np
import pytest

from heppcat import (
    FactorModel,
    GroupedData,
    NumericalError,
    compress_gram,
    em_update_F,
    log_likelihood_direct,
    log_likelihood_parts,
    v_coefficients,
)
from conftest import random_model_and_data, segment_edge_cases


def em_update_m_form(model, data):
    """Textbook EM factor update via the k-by-k posterior matrix.

    Independent oracle: works directly with F instead of its SVD.
    """
    F, v = model.F, model.v
    d, k = F.shape
    A = np.zeros((d, k))
    N = np.zeros((k, k))
    for B, n, vl in zip(data.blocks, data.group_sizes, v):
        M = np.linalg.inv(F.T @ F + vl * np.eye(k))
        Z = M @ F.T @ B
        A += (B @ Z.T) / vl
        N += (Z @ Z.T) / vl + n * M
    return A @ np.linalg.inv(N)


def test_matches_m_form_oracle(rng):
    cases = [random_model_and_data(rng) for _ in range(100)] + segment_edge_cases(rng)
    for model, data in cases:
        got = em_update_F(data, model).F
        want = em_update_m_form(model, data)
        assert np.linalg.norm(got - want) <= 1e-8 * (1.0 + np.linalg.norm(want))


def test_update_ascends_likelihood(rng):
    for _ in range(100):
        model, data = random_model_and_data(rng)
        before = log_likelihood_parts(data, model)
        after = log_likelihood_parts(data, em_update_F(data, model))
        assert after >= before - 1e-9 * (1.0 + abs(before))


def test_rotation_equivariance(rng):
    for _ in range(25):
        model, data = random_model_and_data(rng, k=3)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        base = em_update_F(data, model).F
        rotated = em_update_F(data, FactorModel(model.F @ Q, model.v)).F
        assert np.linalg.norm(rotated - base @ Q) <= 1e-8 * (1.0 + np.linalg.norm(base))


def test_homoscedastic_mle_is_fixed_point(rng):
    from heppcat import ppca_closed_form

    d, k = 8, 3
    data = GroupedData([rng.standard_normal((d, 40)), rng.standard_normal((d, 25))])
    mle = ppca_closed_form(data, k)
    stepped = em_update_F(data, mle)
    assert np.linalg.norm(stepped.F - mle.F) <= 1e-7 * (1.0 + np.linalg.norm(mle.F))


def test_zero_factor_is_fixed_point(rng):
    model = FactorModel(np.zeros((5, 2)), [0.5, 2.0])
    data = GroupedData([rng.standard_normal((5, 7)), rng.standard_normal((5, 4))])
    assert np.all(em_update_F(data, model).F == 0.0)


def test_keeps_noise_variances(rng):
    model, data = random_model_and_data(rng)
    out = em_update_F(data, model)
    assert np.array_equal(out.v, model.v)


def test_rejects_nonpositive_variance(rng):
    model, data = random_model_and_data(rng, L=2)
    bad = FactorModel(model.F, model.v)
    bad.v = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        em_update_F(data, bad)


def test_rejects_group_count_mismatch(rng):
    model, data = random_model_and_data(rng, L=2)
    with pytest.raises(ValueError):
        em_update_F(data, FactorModel(model.F, model.v[:1]))


def test_singular_posterior_scatter_raises(rng):
    d = 6
    U, _ = np.linalg.qr(rng.standard_normal((d, 2)))
    F = U * np.array([1e10, 1.0])
    model = FactorModel(F, [1.0])
    data = GroupedData([rng.standard_normal((d, 9))])
    with pytest.raises(NumericalError):
        em_update_F(data, model)


def test_non_finite_solve_raises_numerical_error(rng, monkeypatch):
    model, data = random_model_and_data(rng)
    eigh = np.linalg.eigh
    # true eigenvalues pass the condition check; NaN eigenvectors poison the solve
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0], np.full(np.shape(a), np.nan)))
    with pytest.raises(NumericalError, match="non-finite"):
        em_update_F(data, model)


def test_failed_solve_raises_numerical_error(rng, monkeypatch):
    model, data = random_model_and_data(rng)

    def singular(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", singular)
    with pytest.raises(NumericalError, match="Eigenvalues did not converge"):
        em_update_F(data, model)


# ---------------------------------------------------------------------------
# Gram compression


def test_compress_shapes_and_sizes(rng):
    d = 5
    blocks = [rng.standard_normal((d, 40)), rng.standard_normal((d, 3))]
    data = GroupedData(blocks)
    out = compress_gram(data)
    assert out.blocks[0].shape == (d, d)
    assert out.blocks[1].shape == (d, 3)
    assert np.array_equal(out.blocks[1], blocks[1])  # small blocks untouched
    assert out.group_sizes == (40, 3)


def test_compress_preserves_gram(rng):
    for _ in range(20):
        d = int(rng.integers(2, 7))
        B = rng.standard_normal((d, int(rng.integers(d + 1, 30))))
        out = compress_gram(GroupedData([B]))
        got = out.blocks[0] @ out.blocks[0].T
        want = B @ B.T
        assert np.linalg.norm(got - want) <= 1e-8 * (1.0 + np.linalg.norm(want))


def test_compress_preserves_likelihood_and_updates(rng):
    cases = [random_model_and_data(rng, L=2, n_per_group=[30, 17]) for _ in range(20)]
    for model, data in cases + segment_edge_cases(rng):
        comp = compress_gram(data)
        raw_ll = log_likelihood_parts(data, model)
        comp_ll = log_likelihood_parts(comp, model)
        assert comp_ll == pytest.approx(raw_ll, rel=1e-9)
        assert log_likelihood_direct(comp, model) == pytest.approx(raw_ll, rel=1e-9)
        raw_F = em_update_F(data, model).F
        comp_F = em_update_F(comp, model).F
        assert np.linalg.norm(raw_F - comp_F) <= 1e-8 * (1.0 + np.linalg.norm(raw_F))
        for B_raw, B_comp, n in zip(data.blocks, comp.blocks, data.group_sizes):
            c_raw = v_coefficients(B_raw, model, n_samples=n)
            c_comp = v_coefficients(B_comp, model, n_samples=n)
            np.testing.assert_allclose(c_comp.beta, c_raw.beta, rtol=1e-8, atol=1e-12)
