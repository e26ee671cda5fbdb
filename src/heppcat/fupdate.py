"""Factor-matrix update and Gram compression."""

from __future__ import annotations

import numpy as np
from scipy import linalg

from .errors import NumericalError
from .model import FactorModel, GroupedData

__all__ = ["em_update_F", "compress_gram"]

_RCOND_FLOOR = 1e-14


def em_update_F(data: GroupedData, model: FactorModel) -> FactorModel:
    """One expectation-maximization update of the factor matrix.

    Works in the cached SVD coordinates of ``F = U diag(sqrt(lam)) Vt``:
    with ``D_l = (diag(lam) + v_l I)^{-1}`` and rotated posterior latent
    means ``Z_l = D_l diag(sqrt(lam)) U' Y_l``, the update solves

        ``F+ = (sum_l Y_l Z_l' / v_l) (sum_l Z_l Z_l' / v_l + n_l D_l)^{-1} Vt``

    at O(k d n) cost over the stacked ``data.Y``.  Variances carry over.

    Raises
    ------
    ValueError
        If any ``v_l <= 0``; a zero variance has no posterior covariance.
    NumericalError
        If the k x k normal matrix has reciprocal condition below 1e-14.
    """
    if data.d != model.d or data.L != model.L:
        raise ValueError("data and model shapes differ")
    if np.any(model.v <= 0):
        raise ValueError("factor update requires strictly positive variances")
    U, lam, Vt = model.U, model.lam, model.Vt
    D = 1.0 / (lam + model.v[:, None])
    Z = (D * np.sqrt(lam))[data.groups].T * (U.T @ data.Y)
    Zw = Z / model.v[data.groups]
    A = data.Y @ Zw.T
    N = Zw @ Z.T + np.diag(data.counts @ D)
    N = 0.5 * (N + N.T)
    w = np.linalg.eigvalsh(N)
    if w[0] <= 0 or w[0] < _RCOND_FLOOR * w[-1]:
        raise NumericalError("factor-update normal matrix is numerically singular")
    X = linalg.cho_solve(linalg.cho_factor(N, lower=True), A.T).T
    return FactorModel(X @ Vt, model.v)


def compress_gram(data: GroupedData) -> GroupedData:
    """Replace oversized blocks by thin square roots of their Gram matrices.

    A block with more columns than rows becomes a ``d x d`` matrix with
    the same outer product ``Y Y'`` (eigendecomposition square root,
    eigenvalues clamped at zero and sorted descending).  Group sizes keep
    the original sample counts, so likelihoods and updates evaluate
    identically on the compressed data.
    """
    blocks = []
    for B in data.blocks:
        if B.shape[1] > B.shape[0]:
            w, Q = np.linalg.eigh(B @ B.T)
            B = Q[:, ::-1] * np.sqrt(np.maximum(w[::-1], 0.0))
        blocks.append(B)
    return GroupedData(blocks, group_sizes=data.group_sizes)
