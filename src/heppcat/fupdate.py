"""Factor-matrix update and Gram compression."""

from __future__ import annotations

import numpy as np

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
        If the k x k normal matrix has reciprocal condition below 1e-14,
        numpy's ``eigh`` raises ``LinAlgError``, or the updated factors
        are not finite.
    """
    if data.d != model.d or data.L != model.L:
        raise ValueError("data and model shapes differ")
    if np.any(model.v <= 0):
        raise ValueError("factor update requires strictly positive variances")
    return _em_update_F(data, model, model.U.T @ data.Y)


def _em_update_F(data: GroupedData, model: FactorModel, G: np.ndarray) -> FactorModel:
    """:func:`em_update_F` given ``G = U'Y``, the data projected onto the
    model's basis, without the argument checks."""
    lam, Vt = model.lam, model.Vt
    D = 1.0 / (lam + model.v[:, None])
    Z = np.repeat(D * np.sqrt(lam), data.widths, axis=0).T * G
    Zw = Z / np.repeat(model.v, data.widths)
    A = data.Y @ Zw.T
    N = Zw @ Z.T + np.diag(data.counts @ D)
    # one eigendecomposition, of N's lower triangle, serves the condition
    # check and the solve F+ = A Q diag(1/w) Q' Vt
    try:
        w, Q = np.linalg.eigh(N)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"factor-update solve failed: {err}") from err
    if w[0] <= 0 or w[0] < _RCOND_FLOOR * w[-1]:
        raise NumericalError("factor-update normal matrix is numerically singular")
    F = A @ ((Q / w) @ (Q.T @ Vt))
    if not np.isfinite(F).all():
        raise NumericalError("factor update produced non-finite factors")
    return FactorModel._unchecked(F, model.v.copy())


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
