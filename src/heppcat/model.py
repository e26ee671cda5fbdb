"""Data containers and log-likelihood evaluation.

Samples in group ``l`` follow ``y = F z + eps`` with latent
``z ~ N(0, I_k)`` and noise ``eps ~ N(0, v_l I_d)``, so the group
covariance is ``F F' + v_l I_d``.  All likelihoods drop the ``2 pi``
constant and use natural log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

__all__ = [
    "GroupedData",
    "FactorModel",
    "VCoefficients",
    "normalize_column_signs",
    "log_likelihood_direct",
    "log_likelihood_parts",
    "v_coefficients",
    "univariate_objective",
    "univariate_derivative",
]

# Eigenvalues at or below this relative level are treated as exact zeros
# when splitting the noise objective; the induced error in ln(gamma + v)
# is below double rounding for any variance the package can represent.
ZERO_EIGENVALUE_RTOL = 1e-30


def normalize_column_signs(U: np.ndarray, Vt: np.ndarray | None = None):
    """Flip columns of ``U`` so each column's largest-magnitude entry is positive.

    Ties resolve to the first maximal index.  When ``Vt`` is given, its
    rows are flipped alongside so any product ``U @ diag(s) @ Vt`` is
    preserved; returns either the flipped copy of ``U`` or ``(U, Vt)``.
    """
    U = np.array(U, dtype=float, copy=True)
    flip = U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])] < 0
    U[:, flip] *= -1.0
    if Vt is None:
        return U
    Vt = np.array(Vt, dtype=float, copy=True)
    Vt[flip, :] *= -1.0
    return U, Vt


@dataclass
class GroupedData:
    """Column-sample data split into noise-level groups.

    Parameters
    ----------
    blocks : list of ndarray
        ``blocks[l]`` holds the samples of group ``l`` as columns of a
        ``d x m_l`` matrix.
    group_sizes : tuple of int, optional
        Observed sample count ``n_l`` per group.  Defaults to the block
        column counts; it exceeds them after Gram compression, which
        replaces a block by a thinner matrix with the same outer product.

    Values are treated as immutable once constructed, so the energy
    ``||Y_l||_F^2`` of each block is computed once, into ``energies``.
    """

    blocks: list
    group_sizes: tuple = None
    energies: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.blocks) == 0:
            raise ValueError("need at least one group")
        self.blocks = [np.ascontiguousarray(B, dtype=float) for B in self.blocks]
        d = self.blocks[0].shape[0] if self.blocks[0].ndim == 2 else -1
        for i, B in enumerate(self.blocks):
            if B.ndim != 2 or B.shape[0] != d or d < 1:
                raise ValueError(f"group {i}: expected a matrix with {d} rows, got shape {B.shape}")
            if B.shape[1] < 1:
                raise ValueError(f"group {i}: empty sample block")
            if not np.all(np.isfinite(B)):
                raise ValueError(f"group {i}: non-finite entries")
        if self.group_sizes is None:
            self.group_sizes = tuple(B.shape[1] for B in self.blocks)
        else:
            self.group_sizes = tuple(int(n) for n in self.group_sizes)
            if len(self.group_sizes) != len(self.blocks):
                raise ValueError("group_sizes length does not match blocks")
            for i, (n, B) in enumerate(zip(self.group_sizes, self.blocks)):
                if n < 1:
                    raise ValueError(f"group {i}: sample count must be >= 1")
                if B.shape[1] > n:
                    raise ValueError(f"group {i}: block has more columns than samples")
        self.energies = tuple(float(np.einsum("ij,ij->", B, B)) for B in self.blocks)

    @property
    def d(self) -> int:
        return self.blocks[0].shape[0]

    @property
    def L(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return sum(self.group_sizes)

    @classmethod
    def from_samples(cls, Y: np.ndarray, group_sizes) -> "GroupedData":
        """Split a ``d x n`` sample matrix into consecutive column blocks."""
        Y = np.asarray(Y, dtype=float)
        sizes = [int(n) for n in group_sizes]
        if sum(sizes) != Y.shape[1]:
            raise ValueError("group sizes must sum to the number of columns")
        edges = np.cumsum([0] + sizes)
        return cls([Y[:, a:b] for a, b in zip(edges[:-1], edges[1:])])


@dataclass
class FactorModel:
    """Factor matrix, per-group noise variances, and a cached thin SVD.

    ``F = U diag(sqrt(lam)) Vt`` with ``lam`` the squared singular values
    in nonincreasing order.  Columns of ``U`` are sign-normalized so the
    largest-magnitude entry of each is positive.  ``v`` holds one noise
    variance per group; zeros are legal only as outputs of the exact
    zero-residual branch of the noise updates.
    """

    F: np.ndarray
    v: np.ndarray
    U: np.ndarray = None
    lam: np.ndarray = None
    Vt: np.ndarray = None

    def __post_init__(self):
        self.F = np.ascontiguousarray(self.F, dtype=float)
        self.v = np.atleast_1d(np.asarray(self.v, dtype=float)).copy()
        if self.F.ndim != 2 or min(self.F.shape) < 1:
            raise ValueError("F must be a d x k matrix with d, k >= 1")
        if self.v.ndim != 1 or self.v.size < 1:
            raise ValueError("v must be a length-L vector")
        if not (np.all(np.isfinite(self.F)) and np.all(np.isfinite(self.v))):
            raise ValueError("non-finite model parameters")
        if np.any(self.v < 0):
            raise ValueError("negative noise variance")
        if self.U is None:
            U, s, Vt = np.linalg.svd(self.F, full_matrices=False)
            self.U, self.Vt = normalize_column_signs(U, Vt)
            self.lam = s**2
        self._validate_cache()

    def _validate_cache(self):
        U, lam, Vt = self.U, self.lam, self.Vt
        k = self.F.shape[1]
        if U.shape != self.F.shape or lam.shape != (k,) or Vt.shape != (k, k):
            raise ValueError("SVD cache has inconsistent shapes")
        if np.any(lam < 0) or np.any(np.diff(lam) > 1e-12 * max(1.0, lam[0] if k else 1.0)):
            raise ValueError("lam must be nonnegative and nonincreasing")
        if not np.allclose(U.T @ U, np.eye(k), atol=1e-10):
            raise ValueError("U columns are not orthonormal")
        R = U @ (np.sqrt(lam)[:, None] * Vt)
        if np.linalg.norm(R - self.F) > 1e-10 * (1.0 + np.linalg.norm(self.F)):
            raise ValueError("SVD cache does not reconstruct F")

    @property
    def d(self) -> int:
        return self.F.shape[0]

    @property
    def k(self) -> int:
        return self.F.shape[1]

    @property
    def L(self) -> int:
        return self.v.size


@dataclass
class VCoefficients:
    """Coefficients of one group's univariate noise objective.

    The group's log-likelihood contribution is ``(n_l / 2) * L(v)`` with

        ``L(v) = -sum_j [ alpha_j ln(gamma_j + v) + beta_j / (gamma_j + v) ]``.

    Index 0 carries the off-subspace residual (``gamma_0 = 0``,
    ``alpha_0 = d - k``); indices ``1..k`` carry the factor directions
    (``alpha_j = 1``, ``gamma_j = lam_j``).  ``zero_set`` masks indices
    whose ``gamma_j`` is an exact zero at working precision and
    ``beta_tilde`` is their total energy.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    zero_set: np.ndarray = None
    beta_tilde: float = None

    def __post_init__(self):
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if not (self.alpha.shape == self.beta.shape == self.gamma.shape):
            raise ValueError("alpha, beta, gamma must have equal length")
        for name, arr in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"{name} must be a nonempty vector")
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"{name} must be finite and nonnegative")
        self.zero_set = self.gamma <= ZERO_EIGENVALUE_RTOL * max(1.0, float(self.gamma.max()))
        self.beta_tilde = float(self.beta[self.zero_set].sum())

    @property
    def k(self) -> int:
        return self.alpha.size - 1

    @property
    def ambient_dim(self) -> int:
        """Recover d from alpha_0 = d - k."""
        return int(round(self.alpha[0])) + self.k


def v_coefficients(
    block: np.ndarray,
    model: FactorModel,
    n_samples: int | None = None,
    energy: float | None = None,
) -> VCoefficients:
    """Coefficients of the noise objective for one data block.

    Parameters
    ----------
    block : ndarray
        ``d x m`` sample block (possibly Gram-compressed).
    model : FactorModel
        Supplies the factor subspace ``U`` and spectrum ``lam``.
    n_samples : int, optional
        Observed sample count; defaults to the column count.  Pass the
        original count for compressed blocks.
    energy : float, optional
        The block's energy ``||Y||_F^2``, as held in
        ``GroupedData.energies``; computed from the block when omitted.

    The residual energy ``beta_0`` is formed by subtracting the factor
    direction energies from ``||Y||_F^2`` and clamping at zero, avoiding
    any d x d projector.
    """
    B = np.asarray(block, dtype=float)
    d, k = model.U.shape
    if B.ndim != 2 or B.shape[0] != d:
        raise ValueError("block rows must match the model dimension")
    n = B.shape[1] if n_samples is None else int(n_samples)
    if n < 1:
        raise ValueError("need at least one sample")
    G = model.U.T @ B
    beta_dir = np.einsum("ij,ij->i", G, G) / n
    if energy is None:
        energy = float(np.einsum("ij,ij->", B, B))
    beta0 = max(energy / n - float(beta_dir.sum()), 0.0)
    alpha = np.concatenate(([float(d - k)], np.ones(k)))
    beta = np.concatenate(([beta0], beta_dir))
    gamma = np.concatenate(([0.0], model.lam))
    return VCoefficients(alpha=alpha, beta=beta, gamma=gamma)


def univariate_objective(c: VCoefficients, v: float) -> float:
    """Evaluate one group's per-sample noise objective at ``v >= 0``.

    At ``v = 0`` the boundary limit applies: ``+inf`` when all the
    zero-gamma energy ``beta_tilde`` vanishes, ``-inf`` otherwise.
    """
    v = float(v)
    if not np.isfinite(v) or v < 0:
        raise ValueError("v must be finite and nonnegative")
    if v == 0.0:
        if c.beta_tilde > 0.0:
            return float("-inf")
        if float(c.alpha[c.zero_set].sum()) > 0.0:
            return float("inf")
        keep = ~c.zero_set
        t = c.gamma[keep]
        return float(-(np.sum(c.alpha[keep] * np.log(t)) + np.sum(c.beta[keep] / t)))
    t = c.gamma + v
    return float(-(np.sum(c.alpha * np.log(t)) + np.sum(c.beta / t)))


def univariate_derivative(c: VCoefficients, v: float) -> float:
    """Derivative of :func:`univariate_objective` at ``v > 0``.

    Evaluated in rational form; never clears denominators.
    """
    v = float(v)
    if not np.isfinite(v) or v <= 0:
        raise ValueError("v must be finite and positive")
    t = c.gamma + v
    return float(np.sum(-c.alpha / t + c.beta / (t * t)))


def log_likelihood_direct(data: GroupedData, model: FactorModel) -> float:
    """Log-likelihood via explicit ``d x d`` covariance factorizations.

    O(d^3 + d^2 n) reference path kept for validation; production code
    should call :func:`log_likelihood_parts`.  Requires every ``v_l > 0``.
    """
    if data.d != model.d:
        raise ValueError("data and model dimensions differ")
    if data.L != model.L:
        raise ValueError("data and model group counts differ")
    F = model.F
    eye = np.eye(data.d)
    total = 0.0
    for B, n, v in zip(data.blocks, data.group_sizes, model.v):
        if v <= 0:
            raise ValueError("direct evaluation requires strictly positive variances")
        cf, low = linalg.cho_factor(F @ F.T + v * eye, lower=True)
        logdet = 2.0 * float(np.sum(np.log(np.diag(cf))))
        # tr(Y' C^-1 Y) depends on Y only through Y Y', so compressed
        # blocks evaluate identically; n still counts original samples.
        W = linalg.solve_triangular(cf, B, lower=low)
        total += -n * logdet - float(np.einsum("ij,ij->", W, W))
    return 0.5 * total


def log_likelihood_parts(data: GroupedData, model: FactorModel) -> float:
    """Log-likelihood via the factor spectrum, in O(k d n).

    Sums ``(n_l / 2) * univariate_objective`` over groups, so a zero
    variance contributes its boundary limit instead of failing.
    """
    if data.d != model.d:
        raise ValueError("data and model dimensions differ")
    if data.L != model.L:
        raise ValueError("data and model group counts differ")
    U, lam = model.U, model.lam
    d, k = U.shape
    total = 0.0
    for l, (B, n, energy) in enumerate(zip(data.blocks, data.group_sizes, data.energies)):
        v = float(model.v[l])
        if v == 0.0:
            c = v_coefficients(B, model, n_samples=n, energy=energy)
            total += 0.5 * n * univariate_objective(c, v)
            continue
        G = U.T @ B
        e_dir = np.einsum("ij,ij->i", G, G)
        e_res = max(energy - float(e_dir.sum()), 0.0)
        t = lam + v
        obj = -(
            (d - k) * math.log(v)
            + e_res / (n * v)
            + float(np.sum(np.log(t)) + np.sum(e_dir / t) / n)
        )
        total += 0.5 * n * obj
    return total
