"""Alternating maximization driver.

Each outer iteration performs one factor-matrix update followed by one
noise-variance pass over all groups.  Both blocks never decrease the
likelihood, so traces are nondecreasing up to rounding.

An iteration computes one SVD, of the updated factors, and one ``U'Y``
projection, onto the updated basis: the coefficient pass sums it into
every group's noise-objective coefficients, and the next factor update
reuses it.  The noise pass is one :func:`~heppcat.vupdate.update_v` call
on the all-groups coefficients: ``em`` evaluates its closed form over
every group at once; ``quad`` and ``cubic`` compute their surrogate
terms that way and solve each group's polynomial in floats; ``doc`` and
``rootfind`` compute their brackets that way and loop over the groups
for the root finding.  The noise update keeps ``U`` and ``lam``, so its
model keeps the SVD and the iteration's likelihood comes from the same
coefficients.  The initial likelihood projects onto the starting basis,
and the first factor update reuses that product.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import baselines
from .errors import DegenerateDataError, NumericalError
from .fupdate import _em_update_F
from .fupdate import em_update_F  # noqa: F401  (perfbench's tracer wraps it here)
from .model import FactorModel, GroupedData, _count, _projected_coefficients, coefficient_loglik
from .model import log_likelihood_parts, v_coefficients  # noqa: F401  (perfbench's tracer wraps them here)
from .vupdate import V_METHODS, update_v

__all__ = ["FitConfig", "FitTrace", "FitResult", "init_random", "fit"]

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 1000
DEFAULT_V_METHOD = "em"

# smallest variance a random initialization may draw; keeps the first
# factor update well defined
INIT_NOISE_FLOOR = 1e-12

# an iteration whose likelihood falls by more than this times
# ``1 + |previous likelihood|`` counts as an ascent violation
ASCENT_SLACK = 1e-8

_log = logging.getLogger("heppcat")


@dataclass
class FitConfig:
    """Configuration of one fit.

    Parameters
    ----------
    rank : int
        Number of factors ``k``; must satisfy ``1 <= k < d``.
    v_method : str
        One of ``rootfind``, ``em``, ``doc``, ``quad``, ``cubic``.
    max_iters : int
        Outer iteration budget ``T >= 1``.
    tol : float
        Stop once ``||F_next - F|| / ||F|| <= tol``.
    init : str or FactorModel
        ``"ppca"`` (the pooled spectral closed form) or an explicit
        starting model, such as :func:`init_random`'s.
    record_trace : bool
        Also record the per-iteration noise-variance iterates.
    v_tol : float or None
        Optional extra criterion: also require
        ``||v_next - v|| / ||v|| <= v_tol``.  Off (None) by default.
        The spectral initialization is an exact fixed point of the
        factor update under its own homoscedastic variances, so the
        factor criterion alone can fire on the very first iteration;
        either extra keeps the fit going until the iterate truly stalls.
    loglik_tol : float or None
        Optional extra criterion: also require the per-iteration
        likelihood gain to satisfy ``|dL| <= loglik_tol * (1 + |L|)``.
        Off (None) by default.
    """

    rank: int
    v_method: str = DEFAULT_V_METHOD
    max_iters: int = DEFAULT_MAX_ITERS
    tol: float = DEFAULT_TOL
    init: object = "ppca"
    record_trace: bool = True
    v_tol: float | None = None
    loglik_tol: float | None = None

    def __post_init__(self):
        self.rank = _count(self.rank, "rank", 1)
        self.max_iters = _count(self.max_iters, "max_iters", 1)
        if not (np.isfinite(self.tol) and self.tol >= 0):
            raise ValueError("tol must be finite and nonnegative")
        for name in ("v_tol", "loglik_tol"):
            val = getattr(self, name)
            if val is not None and not (np.isfinite(val) and val >= 0):
                raise ValueError(f"{name} must be None or finite and nonnegative")
        if self.v_method not in V_METHODS:
            raise ValueError(f"v_method must be one of {V_METHODS}")
        if not isinstance(self.init, FactorModel) and self.init != "ppca":
            raise ValueError("init must be 'ppca' or a FactorModel")


@dataclass
class FitTrace:
    """Per-iteration history; index 0 of ``loglik``/``v`` is the initial model.

    ``seconds[i]`` is the wall time of iteration ``i + 1``: its block
    updates, the factor change and the likelihood of the updated model.  ``ascent_violations`` counts the iterations
    whose likelihood fell by more than ``ASCENT_SLACK * (1 + |previous|)``
    and ``worst_drop`` is the largest such fall (0 when there is none).
    """

    loglik: np.ndarray
    f_change: np.ndarray
    seconds: np.ndarray
    v: np.ndarray | None = None
    ascent_violations: int = 0
    worst_drop: float = 0.0


@dataclass
class FitResult:
    model: FactorModel
    converged: bool
    iterations: int
    trace: FitTrace


def init_random(d: int, k: int, L: int, seed) -> FactorModel:
    """Random initialization: i.i.d. standard normal factor entries and
    variances uniform on ``[INIT_NOISE_FLOOR, 1)``."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    d, k, L = _count(d, "d"), _count(k, "k"), _count(L, "L")
    F = rng.standard_normal((d, k))
    v = INIT_NOISE_FLOOR + (1.0 - INIT_NOISE_FLOOR) * rng.random(L)
    return FactorModel(F, v)


def _initial_model(data: GroupedData, cfg: FitConfig) -> FactorModel:
    if cfg.init == "ppca":
        return baselines.ppca_closed_form(data, cfg.rank)
    if cfg.init.d != data.d or cfg.init.L != data.L or cfg.init.k != cfg.rank:
        raise ValueError("explicit initial model does not match the data/config shapes")
    return cfg.init


def _v_pass(data: GroupedData, model: FactorModel, G: np.ndarray, method: str):
    """Update every variance in one all-groups call, given ``G = U'Y`` on
    the model's basis; returns the new model and its coefficients."""
    coefs = _projected_coefficients(data, model, G)
    return model._with_v(update_v(method, coefs, model.v)), coefs


def _relative_change(new: np.ndarray, old: np.ndarray) -> float:
    # the Frobenius path of np.linalg.norm, without its dispatch
    diff = (new - old).ravel(order="K")
    old = old.ravel(order="K")
    denom = math.sqrt(old.dot(old))
    num = math.sqrt(diff.dot(diff))
    if denom == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / denom


def fit(data: GroupedData, cfg: FitConfig) -> FitResult:
    """Run alternating maximization until the factor matrix stalls.

    The convergence flag is driven by the factor criterion
    ``||F_next - F||_F / ||F||_F <= tol``, plus any extras enabled in
    the config (``v_tol``, ``loglik_tol``).

    Both blocks ascend, so a likelihood drop beyond the rounding
    slack is a defect: the fit counts such iterations on its trace and
    warns once through the ``heppcat`` logger.

    A group whose samples lie in the factor subspace gets a zero
    variance (the exact zero-residual branch).  The factor update needs
    every variance positive, so the next iteration raises
    :class:`DegenerateDataError` naming the group; a fit that stops
    first returns the zero.
    """
    if not 1 <= cfg.rank < data.d:
        raise ValueError("need 1 <= rank < d")
    model = _initial_model(data, cfg)
    G = model.U.T @ data.Y
    loglik = [coefficient_loglik(_projected_coefficients(data, model, G), data.counts, model.v)]
    v_hist = [model.v.copy()] if cfg.record_trace else None
    f_change: list = []
    seconds: list = []
    converged = False
    iterations = 0
    violations = 0
    worst_drop = 0.0
    for _ in range(cfg.max_iters):
        if not model.v.all():
            raise DegenerateDataError(
                f"iteration {iterations + 1}: group {int(np.argmin(model.v)) + 1} has zero noise "
                "variance (its samples lie in the factor subspace); the factor update needs v > 0"
            )
        t0 = time.perf_counter()
        F_prev, v_prev = model.F, model.v
        ll_prev = loglik[-1]
        try:
            model = _em_update_F(data, model, G)
            G = model.U.T @ data.Y
            model, coefs = _v_pass(data, model, G, cfg.v_method)
        except NumericalError as err:
            raise NumericalError(f"iteration {iterations + 1}: {err}") from err
        rel = _relative_change(model.F, F_prev)
        ll = coefficient_loglik(coefs, data.counts, model.v)
        seconds.append(time.perf_counter() - t0)
        iterations += 1
        if ll_prev - ll > ASCENT_SLACK * (1.0 + abs(ll_prev)):
            violations += 1
            worst_drop = max(worst_drop, ll_prev - ll)
        loglik.append(ll)
        f_change.append(rel)
        if v_hist is not None:
            v_hist.append(model.v.copy())
        stop = rel <= cfg.tol
        if stop and cfg.v_tol is not None:
            stop = _relative_change(model.v, v_prev) <= cfg.v_tol
        if stop and cfg.loglik_tol is not None:
            stop = abs(ll - ll_prev) <= cfg.loglik_tol * (1.0 + abs(ll_prev))
        if stop:
            converged = True
            break
    if violations:
        _log.warning(
            "likelihood fell in %d of %d iterations (worst drop %.3g); the fit did not ascend",
            violations, iterations, worst_drop,
        )
    trace = FitTrace(
        loglik=np.asarray(loglik),
        f_change=np.asarray(f_change),
        seconds=np.asarray(seconds),
        v=np.asarray(v_hist) if v_hist is not None else None,
        ascent_violations=violations,
        worst_drop=worst_drop,
    )
    return FitResult(model=model, converged=converged, iterations=iterations, trace=trace)
