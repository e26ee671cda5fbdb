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
    F = _em_update_F(data, model.lam[None], model.Vt[None], model.v[None], (model.U.T @ data.Y)[None])
    return FactorModel._unchecked(F[0], model.v.copy())


def _em_update_F(data: GroupedData, lam: np.ndarray, Vt: np.ndarray, v: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The updated factors of :func:`em_update_F` for a stack of models,
    one per lane of the leading axis, from their ``lam``, ``Vt`` and ``v``
    and ``G = U'Y``, the data projected onto their bases, without the
    argument checks.

    Each lane's factors are bit-identical to a stack of one's, and a
    failure of any lane raises.
    """
    lam_row = lam[:, None, :]
    D = 1.0 / (lam_row + v[..., None])
    Z = (D * np.sqrt(lam_row)).repeat(data.widths, axis=1).swapaxes(1, 2) * G
    Zw = Z / v.repeat(data.widths, axis=1)[:, None, :]
    A = data.Y @ Zw.swapaxes(1, 2)
    # N = Zw Z' + diag(counts D), added through a flat view of the fresh
    # C-ordered product's diagonal; a product's sums start from +0.0, so
    # no off-diagonal entry is a -0.0 that adding a zero would flip
    n, k = lam.shape
    N = Zw @ Z.swapaxes(1, 2)
    N.reshape(n, k * k)[:, :: k + 1] += data.counts @ D
    # one eigendecomposition, of N's lower triangle, serves the condition
    # check and the solve F+ = A Q diag(1/w) Q' Vt
    try:
        w, Q = np.linalg.eigh(N)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"factor-update solve failed: {err}") from err
    if any(low <= 0 or low < _RCOND_FLOOR * high for low, high in zip(w[:, 0].tolist(), w[:, -1].tolist())):
        raise NumericalError("factor-update normal matrix is numerically singular")
    F = A @ ((Q / w[:, None, :]) @ (Q.swapaxes(1, 2) @ Vt))
    if not np.isfinite(F).all():
        raise NumericalError("factor update produced non-finite factors")
    return F


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
