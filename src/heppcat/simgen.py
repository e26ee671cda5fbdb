"""Synthetic data with planted factors and group-wise noise."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GroupedData, _count, _whole

__all__ = ["TruthModel", "rng_stream", "haar_orthonormal", "generate"]


def rng_stream(seed: int, a: int = 0, b: int = 0, c: int = 0) -> np.random.Generator:
    """Independent counter-based stream keyed by ``(seed, a, b, c)``.

    Distinct key tuples give statistically independent Philox streams, so
    trials and groups are reproducible regardless of execution order.
    Keys are whole numbers (``0.5`` is rejected, not truncated); limits:
    ``0 <= a < 2**16``, ``0 <= b < 2**32``, ``0 <= c < 2**16``.
    """
    a, b, c = (_whole(x, "stream index") for x in (a, b, c))
    if not (0 <= a < 2**16 and 0 <= b < 2**32 and 0 <= c < 2**16):
        raise ValueError("stream path out of range")
    word = (a << 48) | (b << 16) | c
    key = np.array([_whole(seed, "seed") % 2**64, word], dtype=np.uint64)
    return np.random.default_rng(np.random.Philox(key=key))


@dataclass
class TruthModel:
    """Planted model: ``y = U diag(sqrt(lam)) z + eps`` per group.

    ``feature_blocks`` optionally overrides a group's isotropic noise
    with contiguous feature blocks: entry ``l`` is either ``None`` (use
    ``v[l]``) or a list of ``(feature_count, variance)`` pairs whose
    counts sum to ``d``.
    """

    U: np.ndarray
    lam: np.ndarray
    v: np.ndarray
    group_sizes: tuple
    feature_blocks: list = None

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float)
        self.lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        self.v = np.atleast_1d(np.asarray(self.v, dtype=float))
        self.group_sizes = tuple(_count(n, "group sizes", 1) for n in self.group_sizes)
        d, k = self.U.shape
        if self.lam.shape != (k,) or np.any(self.lam < 0):
            raise ValueError("lam must hold k nonnegative factor variances")
        if not np.allclose(self.U.T @ self.U, np.eye(k), atol=1e-10):
            raise ValueError("U must have orthonormal columns")
        if self.v.shape != (len(self.group_sizes),) or np.any(self.v < 0):
            raise ValueError("v must hold one nonnegative variance per group")
        if self.feature_blocks is not None:
            if len(self.feature_blocks) != self.L:
                raise ValueError("feature_blocks needs one entry per group")
            blocks = []
            for l, spec in enumerate(self.feature_blocks, 1):
                if spec is not None:
                    bad = f"group {l}: feature-block counts must be positive and sum to d"
                    name = f"group {l}: feature-block count"
                    spec = [(_count(cnt, name, 1, error=bad), var) for cnt, var in spec]
                    if sum(cnt for cnt, _ in spec) != d:
                        raise ValueError(bad)
                    if any(var < 0 for _, var in spec):
                        raise ValueError(f"group {l}: negative feature-block variance")
                blocks.append(spec)
            self.feature_blocks = blocks

    @property
    def d(self) -> int:
        return self.U.shape[0]

    @property
    def k(self) -> int:
        return self.U.shape[1]

    @property
    def L(self) -> int:
        return self.v.size

    @property
    def F(self) -> np.ndarray:
        """Planted factor matrix ``U diag(sqrt(lam))``."""
        return self.U * np.sqrt(self.lam)

    def noise_std(self, l: int) -> np.ndarray:
        """Per-feature noise standard deviations of group ``l``."""
        if self.feature_blocks is not None and self.feature_blocks[l] is not None:
            sd = np.concatenate(
                [np.full(cnt, np.sqrt(float(var))) for cnt, var in self.feature_blocks[l]]
            )
        else:
            sd = np.full(self.d, np.sqrt(self.v[l]))
        return sd


def haar_orthonormal(d: int, k: int, seed) -> np.ndarray:
    """Orthonormal ``d x k`` basis drawn from the rotation-invariant measure.

    QR of a standard Gaussian matrix with the sign of ``diag(R)``
    absorbed into ``Q``, which removes the QR sign ambiguity.
    """
    k = _count(k, "k", 1, error="need 1 <= k <= d")
    d = _count(d, "d", k, error="need 1 <= k <= d")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((d, k)))
    s = np.sign(np.diag(R))
    s[s == 0] = 1.0
    return Q * s


def generate(truth: TruthModel, seed: int, trial: int = 0) -> GroupedData:
    """Draw one dataset from the planted model.

    Group ``l`` consumes the dedicated stream ``rng_stream(seed, 0,
    trial, l + 1)``: latent coordinates first, then noise.
    """
    F = truth.F
    blocks = []
    for l, n in enumerate(truth.group_sizes):
        rng = rng_stream(seed, 0, trial, l + 1)
        Z = rng.standard_normal((truth.k, n))
        E = rng.standard_normal((truth.d, n)) * truth.noise_std(l)[:, None]
        E += F @ Z  # in place: the loop's last E is the last block, not a spare copy
        blocks.append(E)
    return GroupedData(blocks)
