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

That iteration is one map, ``_step``.  The plain fit applies it
repeatedly; ``accel="squarem"`` applies it in SQUAREM cycles.  Either
way every map evaluation goes through ``_Run.step``, which keeps the
trace, the ascent monitor and the stop rule.  An extrapolated point's
SVD and projection serve both its likelihood check and the map step
that follows it.
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

# a SQUAREM point is kept when its likelihood is at least the plain
# two-step value minus this times ``1 + |that value|``
EXTRAPOLATION_TIE = 1e-12

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
    accel : str or None
        ``"squarem"`` runs the iteration map in SQUAREM cycles (Varadhan
        & Roland 2008): two map steps, a step-length extrapolation along
        them, and one map step from the extrapolated point.  The point
        is kept only if every ``v_l > 0``, its factors are finite and
        its likelihood is no lower than the second step's, up to a
        relative tie of ``EXTRAPOLATION_TIE``; otherwise the cycle goes on
        from the second step, so every cycle ascends.  Each map
        evaluation counts as one iteration.  None (the default) runs the
        plain map.
    """

    rank: int
    v_method: str = DEFAULT_V_METHOD
    max_iters: int = DEFAULT_MAX_ITERS
    tol: float = DEFAULT_TOL
    init: object = "ppca"
    record_trace: bool = True
    v_tol: float | None = None
    loglik_tol: float | None = None
    accel: str | None = None

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
        if self.accel not in (None, "squarem"):
            raise ValueError("accel must be None or 'squarem'")


@dataclass
class FitTrace:
    """Per-iteration history; index 0 of ``loglik``/``v`` is the initial model.

    Entry ``i + 1`` of ``loglik`` and ``v`` and entry ``i`` of
    ``f_change`` and ``seconds`` belong to iteration ``i + 1``, one map
    evaluation: its block updates and the likelihood of the updated
    model.  ``f_change`` is measured against the evaluation's input, and
    ``seconds`` is its wall time, including the factor change.  Under
    ``accel="squarem"`` the input of a cycle's third evaluation is the
    extrapolated point, and that evaluation's ``seconds`` also counts
    building and checking the point.

    ``ascent_violations`` counts the iterations whose likelihood fell by
    more than ``ASCENT_SLACK * (1 + |previous|)`` below the previous
    entry, and ``worst_drop`` is the largest such fall (0 when there is
    none).  ``rejected_extrapolations`` counts the SQUAREM points that
    failed their checks (always 0 for a plain fit).
    """

    loglik: np.ndarray
    f_change: np.ndarray
    seconds: np.ndarray
    v: np.ndarray | None = None
    ascent_violations: int = 0
    worst_drop: float = 0.0
    rejected_extrapolations: int = 0


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


def _step(data: GroupedData, model: FactorModel, G: np.ndarray, method: str):
    """One application of the iteration map, given ``G = U'Y`` on the
    model's basis: the factor update, the projection onto the updated
    basis and one all-groups noise update.  Returns the new model, its
    projection and its likelihood."""
    model = _em_update_F(data, model, G)
    G = model.U.T @ data.Y
    coefs = _projected_coefficients(data, model, G)
    model = model._with_v(update_v(method, coefs, model.v))
    return model, G, coefficient_loglik(coefs, data.counts, model.v)


def _point(data: GroupedData, model: FactorModel) -> tuple:
    """``(model, G, loglik)``: ``model`` with its projection ``G = U'Y``
    and its likelihood."""
    G = model.U.T @ data.Y
    return model, G, coefficient_loglik(_projected_coefficients(data, model, G), data.counts, model.v)


def _relative_change(new: np.ndarray, old: np.ndarray) -> float:
    # the Frobenius path of np.linalg.norm, without its dispatch
    diff = (new - old).ravel(order="K")
    old = old.ravel(order="K")
    denom = math.sqrt(old.dot(old))
    num = math.sqrt(diff.dot(diff))
    if denom == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / denom


class _Run:
    """One fit's map evaluations and the trace they leave.

    A point is ``(model, G, loglik)``.  :meth:`step` applies the map to
    one, counts it against the budget, records its trace entry, runs the
    ascent monitor against the previous entry and tests the stop rule
    against the point it started from.
    """

    def __init__(self, data: GroupedData, cfg: FitConfig, start: tuple):
        self.data, self.cfg, self.point = data, cfg, start
        self.loglik = [start[2]]
        self.v_hist = [start[0].v.copy()] if cfg.record_trace else None
        self.f_change: list = []
        self.seconds: list = []
        self.converged = False
        self.violations = 0
        self.worst_drop = 0.0
        self.rejected = 0

    @property
    def iterations(self) -> int:
        return len(self.f_change)

    @property
    def done(self) -> bool:
        return self.converged or self.iterations == self.cfg.max_iters

    def step(self, point: tuple, t0: float | None = None) -> tuple:
        """Apply the map to ``point``; ``t0``, when given, starts the
        entry's clock earlier than the map itself."""
        model, G, ll_prev = point
        if not model.v.all():
            raise DegenerateDataError(
                f"iteration {self.iterations + 1}: group {int(np.argmin(model.v)) + 1} has zero noise "
                "variance (its samples lie in the factor subspace); the factor update needs v > 0"
            )
        if t0 is None:
            t0 = time.perf_counter()
        try:
            out, G, ll = _step(self.data, model, G, self.cfg.v_method)
        except NumericalError as err:
            raise NumericalError(f"iteration {self.iterations + 1}: {err}") from err
        rel = _relative_change(out.F, model.F)
        self.seconds.append(time.perf_counter() - t0)
        last = self.loglik[-1]
        if last - ll > ASCENT_SLACK * (1.0 + abs(last)):
            self.violations += 1
            self.worst_drop = max(self.worst_drop, last - ll)
        self.loglik.append(ll)
        self.f_change.append(rel)
        if self.v_hist is not None:
            self.v_hist.append(out.v.copy())
        stop = rel <= self.cfg.tol
        if stop and self.cfg.v_tol is not None:
            stop = _relative_change(out.v, model.v) <= self.cfg.v_tol
        if stop and self.cfg.loglik_tol is not None:
            stop = abs(ll - ll_prev) <= self.cfg.loglik_tol * (1.0 + abs(ll_prev))
        self.converged = stop
        self.point = (out, G, ll)
        return self.point

    def result(self) -> FitResult:
        if self.violations:
            _log.warning(
                "likelihood fell in %d of %d iterations (worst drop %.3g); the fit did not ascend",
                self.violations, self.iterations, self.worst_drop,
            )
        trace = FitTrace(
            loglik=np.asarray(self.loglik),
            f_change=np.asarray(self.f_change),
            seconds=np.asarray(self.seconds),
            v=np.asarray(self.v_hist) if self.v_hist is not None else None,
            ascent_violations=self.violations,
            worst_drop=self.worst_drop,
            rejected_extrapolations=self.rejected,
        )
        return FitResult(
            model=self.point[0], converged=self.converged, iterations=self.iterations, trace=trace
        )


def _extrapolate(data: GroupedData, p0: tuple, p1: tuple, p2: tuple, scale: float):
    """The SQUAREM point from ``p0`` and its two map images ``p1``, ``p2``:
    ``p2`` itself when the step length is the plain one, None when the
    point fails its checks.

    ``r = x1 - x0`` and ``w = x2 - 2 x1 + x0`` over ``(F, v)``; their
    norms weigh ``F`` by ``scale``, the data's mean squared entry, which
    puts both blocks in the units of ``v`` and makes the step length
    invariant under a rescaling of the data.
    """
    (m0, _, _), (m1, _, _), (m2, _, ll2) = p0, p1, p2
    rF, rv = m1.F - m0.F, m1.v - m0.v
    wF, wv = m2.F - 2.0 * m1.F + m0.F, m2.v - 2.0 * m1.v + m0.v
    r2 = scale * float(np.vdot(rF, rF)) + float(rv @ rv)
    w2 = scale * float(np.vdot(wF, wF)) + float(wv @ wv)
    alpha = -math.sqrt(r2 / w2) if w2 > 0.0 else -1.0
    if not alpha < -1.0:
        return p2
    F = m0.F - (2.0 * alpha) * rF + (alpha * alpha) * wF
    v = m0.v - (2.0 * alpha) * rv + (alpha * alpha) * wv
    if not ((v > 0.0).all() and np.isfinite(F).all()):
        return None
    point = _point(data, FactorModel._unchecked(F, v))
    # the tie term keeps roundoff from flipping the decision between
    # fits of the same data, such as raw and Gram-compressed blocks
    if point[2] >= ll2 - EXTRAPOLATION_TIE * (1.0 + abs(ll2)):
        return point
    return None


def _squarem(run: _Run) -> None:
    """Map evaluations in SQUAREM cycles until the run is done: two map
    steps, then one from the extrapolated point, or from the second
    step's point when the extrapolation is rejected."""
    data = run.data
    scale = float(data.energies.sum()) / (data.d * data.n)
    p0 = run.point
    while not run.done:
        p1 = run.step(p0)
        if run.done:
            break
        p2 = run.step(p1)
        if run.done:
            break
        t0 = time.perf_counter()
        point = _extrapolate(data, p0, p1, p2, scale)
        if point is None:
            run.rejected += 1
            point = p2
        p0 = run.step(point, t0)


def fit(data: GroupedData, cfg: FitConfig) -> FitResult:
    """Run alternating maximization until the factor matrix stalls.

    The convergence flag is driven by the factor criterion
    ``||F_next - F||_F / ||F||_F <= tol``, plus any extras enabled in
    the config (``v_tol``, ``loglik_tol``).  Under ``accel="squarem"``
    every map evaluation counts as an iteration and is tested by the
    same rule, against the point it started from.

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
    run = _Run(data, cfg, _point(data, _initial_model(data, cfg)))
    if cfg.accel == "squarem":
        _squarem(run)
    else:
        while not run.done:
            run.step(run.point)
    return run.result()
