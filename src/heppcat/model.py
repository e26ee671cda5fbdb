"""Data containers and log-likelihood evaluation.

Samples in group ``l`` follow ``y = F z + eps`` with latent
``z ~ N(0, I_k)`` and noise ``eps ~ N(0, v_l I_d)``, so the group
covariance is ``F F' + v_l I_d``.  All likelihoods drop the ``2 pi``
constant and use natural log.

The SVD of the factors (``_svd``), the projection ``U'Y`` with every
group's noise-objective coefficients (``_project``) and the likelihood
(``_logliks``) are each implemented once, over models stacked on a
leading lane axis.  The fitter calls them on its lanes; a
:class:`FactorModel`, :func:`group_coefficients`, :func:`v_coefficients`
and :func:`log_likelihood_parts` call them on a stack of one.  Every
reduction runs within a lane, so a lane's numbers do not depend on the
stack it is in.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

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


def _zero_set(gamma: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``gamma`` that are exact zeros at working precision."""
    return gamma <= ZERO_EIGENVALUE_RTOL * max(1.0, float(gamma.max()))


def normalize_column_signs(U: np.ndarray, Vt: np.ndarray | None = None):
    """Flip columns of ``U`` so each column's largest-magnitude entry is positive.

    Ties resolve to the first maximal index.  When ``Vt`` is given, its
    rows are flipped alongside so any product ``U @ diag(s) @ Vt`` is
    preserved; returns either the flipped copy of ``U`` or ``(U, Vt)``.
    """
    U = np.array(U, dtype=float, copy=True)
    Vt = None if Vt is None else np.array(Vt, dtype=float, copy=True)
    _flip_column_signs(U[None], None if Vt is None else Vt[None])
    return U if Vt is None else (U, Vt)


def _flip_column_signs(U: np.ndarray, Vt: np.ndarray | None) -> None:
    """:func:`normalize_column_signs` in place, of a stack of ``U`` (and
    ``Vt``) matrices on a leading axis; a factor of 1 or -1 changes
    nothing else, signed zeros included."""
    n, _, k = U.shape
    sign = np.where(U[np.arange(n)[:, None], np.abs(U).argmax(axis=1), np.arange(k)] < 0, -1.0, 1.0)
    U *= sign[:, None, :]
    if Vt is not None:
        Vt *= sign[:, :, None]


def _svd(F: np.ndarray) -> tuple:
    """``(U, lam, Vt)`` of each matrix of a stack, ``F = U diag(sqrt(lam))
    Vt``: the thin SVD with sign-normalized columns of ``U`` and ``lam``
    the squared singular values in nonincreasing order."""
    U, s, Vt = np.linalg.svd(F, full_matrices=False)
    _flip_column_signs(U, Vt)
    return U, s**2, Vt


def _whole(value, name: str) -> int:
    """``value`` as an int, if it is a whole number; otherwise a ``ValueError`` naming ``name``."""
    # integers skip the float test, which overflows past 1.8e308
    if not (isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _count(value, name: str, low: int = 0, high: int | None = None, error: str | None = None) -> int:
    """``value`` as an int, if it is a whole number in ``[low, high)``.

    Otherwise a ``ValueError``: one naming ``name`` for a value that is
    not a whole number (:func:`_whole`), and ``error`` (by default one
    naming the range) for a whole number out of range.
    """
    n = _whole(value, name)
    if n < low or (high is not None and n >= high):
        if error is None:
            error = f"{name} must be >= {low}" if high is None else f"{name} must be in [{low}, {high}), got {n}"
        raise ValueError(error)
    return n


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

    The blocks are stacked once into a ``d x M`` matrix ``Y`` and
    ``blocks`` become views of it.  ``starts[l]`` is group ``l``'s first
    column and ``widths[l]`` its column count, ``counts`` the sample
    counts as floats and ``energies`` each group's ``||Y_l||_F^2``, so a
    pass over the data is a whole-matrix product plus segment sums, and
    ``np.repeat(x, widths)`` spreads per-group values over the columns.
    """

    blocks: list
    group_sizes: tuple = None
    Y: np.ndarray = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    widths: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    energies: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = [np.asarray(B, dtype=float) for B in self.blocks]
        if not blocks:
            raise ValueError("need at least one group")
        d = blocks[0].shape[0] if blocks[0].ndim == 2 else -1
        for i, B in enumerate(blocks, 1):
            if B.ndim != 2 or B.shape[0] != d or d < 1:
                raise ValueError(f"group {i}: expected a matrix with {d} rows, got shape {B.shape}")
            if B.shape[1] < 1:
                raise ValueError(f"group {i}: empty sample block")
        widths = [B.shape[1] for B in blocks]
        # a C-ordered Y whatever the blocks' layout, so results do not depend on it
        self.Y = np.concatenate(blocks, axis=1, out=np.empty((d, sum(widths))))
        self.starts = np.cumsum([0] + widths[:-1])
        self.widths = np.array(widths)
        finite = np.isfinite(self.Y).all(axis=0)
        if not finite.all():
            group = np.searchsorted(self.starts, finite.argmin(), side="right")
            raise ValueError(f"group {group}: non-finite entries")
        sizes = widths if self.group_sizes is None else self.group_sizes
        self.group_sizes = tuple(_count(n, f"group {i}: sample count", 1) for i, n in enumerate(sizes, 1))
        if len(self.group_sizes) != len(widths):
            raise ValueError("group_sizes length does not match blocks")
        for i, (n, m) in enumerate(zip(self.group_sizes, widths), 1):
            if m > n:
                raise ValueError(f"group {i}: block has more columns than samples")
        self.counts = np.array(self.group_sizes, dtype=float)
        self.blocks = [self.Y[:, a : a + m] for a, m in zip(self.starts, widths)]
        self.energies = np.add.reduceat(np.einsum("ij,ij->j", self.Y, self.Y), self.starts)

    @property
    def d(self) -> int:
        return self.Y.shape[0]

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
        sizes = [_count(n, f"group {i}: sample count") for i, n in enumerate(group_sizes, 1)]
        if sum(sizes) != Y.shape[1]:
            raise ValueError("group sizes must sum to the number of columns")
        return cls(np.split(Y, np.cumsum(sizes)[:-1], axis=1))


@dataclass
class FactorModel:
    """Factor matrix, per-group noise variances, and their thin SVD.

    The SVD is computed from ``F`` on construction:
    ``F = U diag(sqrt(lam)) Vt`` with ``lam`` the squared singular values
    in nonincreasing order.  Columns of ``U`` are sign-normalized so the
    largest-magnitude entry of each is positive.  ``v`` holds one noise
    variance per group; zeros are legal only as outputs of the exact
    zero-residual branch of the noise updates, and ``fit`` stops with
    :class:`~heppcat.errors.DegenerateDataError` before the next factor
    update, which needs every variance positive.
    """

    F: np.ndarray
    v: np.ndarray
    U: np.ndarray = field(init=False)
    lam: np.ndarray = field(init=False)
    Vt: np.ndarray = field(init=False)

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
        self._decompose()

    @classmethod
    def _unchecked(cls, F: np.ndarray, v: np.ndarray, svd: tuple | None = None) -> "FactorModel":
        """A model of a C-ordered float ``F`` and ``v`` without the checks;
        the SVD runs unless ``svd`` gives ``F``'s ``(U, lam, Vt)``."""
        out = cls.__new__(cls)
        out.F, out.v = F, v
        out._decompose(svd)
        return out

    def _decompose(self, svd: tuple | None = None) -> None:
        self.U, self.lam, self.Vt = (a[0] for a in _svd(self.F[None])) if svd is None else svd

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
    (``alpha_j = 1``, ``gamma_j = lam_j``).  Derived, not passed:
    ``zero_set`` masks indices whose ``gamma_j`` is an exact zero at
    working precision and ``beta_tilde`` is their total energy.

    Inputs are checked when a caller builds one.  :func:`group_coefficients`
    builds them unchecked for all groups at once, with one row of ``beta``
    and one entry of ``beta_tilde`` per group; :meth:`group` picks one.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    zero_set: np.ndarray = field(init=False)
    beta_tilde: float = field(init=False)

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
        self.zero_set = _zero_set(self.gamma)
        self.beta_tilde = float(self.beta[self.zero_set].sum())

    @classmethod
    def _unchecked(cls, alpha, beta, gamma, zero_set, beta_tilde) -> "VCoefficients":
        c = cls.__new__(cls)
        c.alpha, c.beta, c.gamma, c.zero_set, c.beta_tilde = alpha, beta, gamma, zero_set, beta_tilde
        return c

    def _lane(self, i: int) -> "VCoefficients":
        """Lane ``i``'s all-groups coefficients out of :func:`_project`'s stack."""
        return self._unchecked(self.alpha, self.beta[i], self.gamma[i], self.zero_set[i], self.beta_tilde[i])

    def group(self, l: int) -> "VCoefficients":
        """Group ``l``'s coefficients out of an all-groups set."""
        return self._unchecked(self.alpha, self.beta[l], self.gamma, self.zero_set, float(self.beta_tilde[l]))

    @property
    def k(self) -> int:
        return self.alpha.size - 1

    @property
    def ambient_dim(self) -> int:
        """Recover d from alpha_0 = d - k."""
        return int(round(self.alpha[0])) + self.k


def group_coefficients(data: GroupedData, model: FactorModel) -> VCoefficients:
    """Every group's noise-objective coefficients from one ``U'Y`` product
    (:func:`_project` of a stack of one)."""
    return _project(data, model.U[None], model.lam[None])[1]._lane(0)


def _project(data: GroupedData, U: np.ndarray, lam: np.ndarray) -> tuple:
    """``G = U'Y`` for a stack of bases ``U`` with squared singular values
    ``lam``, and each lane's all-groups noise-objective coefficients.

    Segment sums of the projected energies give ``beta_1..k``; ``beta_0``
    subtracts them from ``||Y_l||_F^2``, clamped at zero (no d x d
    projector).  Dividing by ``group_sizes`` keeps compressed groups
    exact.  ``beta`` has shape ``(lanes, L, k + 1)``, ``gamma`` and
    ``zero_set`` one row per lane, and ``alpha`` is shared.
    """
    G = U.swapaxes(-1, -2) @ data.Y
    e_dir = np.add.reduceat(G * G, data.starts, axis=-1)
    e_res = np.maximum(data.energies - e_dir.sum(axis=-2), 0.0)
    # one C-contiguous row per group, so row sums round as a group's own
    beta = np.concatenate((e_res[..., None, :], e_dir), axis=-2).swapaxes(-1, -2)
    beta = np.divide(beta, data.counts[:, None], order="C")
    k = lam.shape[-1]
    gamma = np.zeros(lam.shape[:-1] + (k + 1,))
    gamma[..., 1:] = lam
    # each row's largest entry is its lam_1, so this is _zero_set row by row
    zero_set = gamma <= ZERO_EIGENVALUE_RTOL * np.maximum(1.0, lam[..., :1])
    alpha = np.array([data.d - k] + [1.0] * k)
    return G, VCoefficients._unchecked(alpha, beta, gamma, zero_set, (beta @ zero_set[..., None])[..., 0])


def v_coefficients(block: np.ndarray, model: FactorModel, n_samples: int | None = None) -> VCoefficients:
    """Noise-objective coefficients of one ``d x m`` block under ``model``.

    ``n_samples`` is the observed sample count, by default the column
    count; pass the original count for a Gram-compressed block.
    """
    data = GroupedData([block], None if n_samples is None else (n_samples,))
    if data.d != model.d:
        raise ValueError("block rows must match the model dimension")
    return group_coefficients(data, model).group(0)


def _objective(alpha, beta, gamma, v):
    t = gamma + v
    return -((alpha * np.log(t)).sum(axis=-1) + (beta / t).sum(axis=-1))


def univariate_objective(c: VCoefficients, v: float) -> float:
    """Evaluate one group's per-sample noise objective at ``v >= 0``.

    At ``v = 0`` the boundary limit applies: ``+inf`` when all the
    zero-gamma energy ``beta_tilde`` vanishes, ``-inf`` otherwise.
    """
    v = float(v)
    if not math.isfinite(v) or v < 0:
        raise ValueError("v must be finite and nonnegative")
    if v == 0.0:
        if c.beta_tilde > 0.0:
            return float("-inf")
        if float(c.alpha[c.zero_set].sum()) > 0.0:
            return float("inf")
        keep = ~c.zero_set
        return float(_objective(c.alpha[keep], c.beta[keep], c.gamma[keep], 0.0))
    return float(_objective(c.alpha, c.beta, c.gamma, v))


def _logliks(coefs: VCoefficients, counts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each lane's ``sum_l (n_l / 2) * univariate_objective(c_l, v_l)`` over
    :func:`_project`'s stacked coefficients and a stack ``v`` of variances:
    the objective over the stack, then one ``counts`` dot per lane.  A zero
    variance takes the objective's boundary limit."""
    zero = v == 0.0
    # a zero variance is evaluated at 1, not at log(0), and then replaced
    obj = _objective(coefs.alpha, coefs.beta, coefs.gamma[:, None, :], np.where(zero, 1.0, v)[..., None])
    for i, l in zip(*np.nonzero(zero)):
        obj[i, l] = univariate_objective(coefs._lane(i).group(l), 0.0)
    return 0.5 * np.array([row.dot(counts) for row in obj])


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
        C = F @ F.T + v * eye
        logdet = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(C)))))
        # tr(Y' C^-1 Y) depends on Y only through Y Y', so compressed
        # blocks evaluate identically; n still counts original samples.
        total += -n * logdet - float(np.trace(np.linalg.solve(C, B @ B.T)))
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
    coefs = _project(data, model.U[None], model.lam[None])[1]
    return float(_logliks(coefs, data.counts, model.v[None])[0])
