"""Homoscedastic and weighted spectral baselines."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDataError
from .model import FactorModel, GroupedData, _count, normalize_column_signs

__all__ = ["ppca_closed_form", "weighted_pca"]

# trailing spectrum this far below the leading eigenvalue is treated as
# numerically zero, i.e. the data carries no usable noise floor
_DEGENERATE_RTOL = 1e-12


def _pooled_spectrum(data: GroupedData):
    w, Q = np.linalg.eigh((data.Y @ data.Y.T) / data.n)
    return w[::-1], normalize_column_signs(Q[:, ::-1])


def ppca_closed_form(data: GroupedData, k: int) -> FactorModel:
    """Closed-form homoscedastic maximum-likelihood fit on pooled data.

    With pooled sample-covariance eigenpairs ``(lam_hat_j, u_j)`` and
    ``lam_bar`` the average of the trailing ``d - k`` eigenvalues:

        ``F = U_k diag(sqrt(max(lam_hat_j - lam_bar, 0)))``,
        ``v_l = lam_bar`` for every group.

    Raises
    ------
    DegenerateDataError
        When ``lam_bar`` is zero at working precision (e.g. noiseless
        rank-k data), leaving no maximum-likelihood noise variance.
    """
    k = _count(k, "k", 1, data.d, "need 1 <= k < d")
    if data.n < k + 1:
        raise ValueError("need at least k + 1 samples")
    w, Q = _pooled_spectrum(data)
    lam_bar = float(np.mean(w[k:]))
    if lam_bar <= _DEGENERATE_RTOL * max(float(w[0]), 0.0) or lam_bar <= 0.0:
        raise DegenerateDataError("trailing spectrum is numerically zero; no noise-variance estimate")
    lam = np.maximum(w[:k] - lam_bar, 0.0)
    F = Q[:, :k] * np.sqrt(lam)
    return FactorModel(F, np.full(data.L, lam_bar))


def weighted_pca(data: GroupedData, weights, k: int) -> np.ndarray:
    """Leading ``k`` eigenvectors of the weighted pooled scatter.

    ``weights`` holds one positive weight per group; the output basis is
    invariant to rescaling all weights by a common factor.  Columns are
    sign-normalized like every other basis in the package.
    """
    weights = np.atleast_1d(np.asarray(weights, dtype=float))
    if weights.shape != (data.L,):
        raise ValueError("need one weight per group")
    if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
        raise ValueError("weights must be finite and positive")
    k = _count(k, "k", 1, data.d + 1, "need 1 <= k <= d")
    w, Q = np.linalg.eigh((data.Y * weights[data.groups]) @ data.Y.T)
    return normalize_column_signs(Q[:, ::-1][:, :k])
