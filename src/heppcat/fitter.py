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
for the root finding.  The noise update keeps ``U`` and ``lam``, so the
iteration's likelihood comes from the same coefficients.  The initial
likelihood projects onto the starting basis, and the first factor
update reuses that product.

That iteration is one map, ``_map``, and it runs on lanes: several fits
of one dataset that differ only in their noise method and start, with
their points stacked on a leading lane axis (``_Points``).  The factor
update, the SVD, the projection, the coefficients and the likelihood
terms run once over the stack.  All but the factor update are the model
module's ``_svd``, ``_project`` and ``_logliks``, which serve a
:class:`~heppcat.model.FactorModel` and the public likelihood as a stack
of one.  numpy's stacked ``matmul``, ``svd`` and ``eigh`` treat each
lane as its own call, and every reduction runs within a lane, so each
lane's numbers are bit-identical to its own fit's.  Each lane's noise
update, its trace, ascent monitor and stop rule (``_Run``), and its
SQUAREM step length and accept/reject run per lane.  A lane that stops
leaves the batch: ``_Lanes.step`` drops it from the image and from the
points the caller carries.  :func:`fit` is the one-lane case, and the
harness fits a dataset's methods or starts as lanes of one
``_fit_lanes`` call, which pays numpy's per-call overhead once per
dataset instead of once per fit.

The plain fit applies the map repeatedly; ``accel="squarem"`` applies it
in SQUAREM cycles.  Every lane makes one map evaluation per batched
evaluation, so the lanes of an accelerated fit stay in phase.  An
extrapolated point's SVD and projection serve both its likelihood check
and the map step that follows it.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import baselines
from .errors import DegenerateDataError, NumericalError
from .fupdate import _em_update_F
from .fupdate import em_update_F  # noqa: F401  (perfbench's tracer wraps it here)
from .model import FactorModel, GroupedData, _count, _logliks, _project, _svd
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
    ``seconds`` is the wall time of the batched evaluation the fit took
    part in, including the factor changes: a fit of its own is a batch
    of one, and lanes fitted together share each entry.  Under
    ``accel="squarem"`` the input of a cycle's third evaluation is the
    extrapolated point, and that evaluation's ``seconds`` also counts
    building and checking the points.

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


def _start_models(data: GroupedData, cfgs: list) -> list:
    """Each config's starting model; the spectral one is computed once."""
    spectral, models = None, []
    for cfg in cfgs:
        if isinstance(cfg.init, FactorModel):
            if cfg.init.d != data.d or cfg.init.L != data.L or cfg.init.k != cfg.rank:
                raise ValueError("explicit initial model does not match the data/config shapes")
            models.append(cfg.init)
            continue
        if spectral is None:
            spectral = baselines.ppca_closed_form(data, cfg.rank)
        models.append(spectral)
    return models


class _Points(NamedTuple):
    """One point per lane, stacked on a leading lane axis: the factors
    ``F``, the variances ``v``, the SVD ``F = U diag(sqrt(lam)) Vt``, the
    projection ``G = U'Y`` and the likelihood ``ll``."""

    F: np.ndarray
    v: np.ndarray
    U: np.ndarray
    lam: np.ndarray
    Vt: np.ndarray
    G: np.ndarray
    ll: np.ndarray

    def take(self, rows: list) -> "_Points":
        """The points of lanes ``rows``, a subsequence of ``range(lanes)``."""
        return _Points(*(a[rows] for a in self))


def _point(data: GroupedData, F: np.ndarray, v: np.ndarray, svd: tuple | None = None) -> _Points:
    """The points of stacked factors and variances: their SVD (``svd``,
    when given, is it), projections and likelihoods."""
    U, lam, Vt = _svd(F) if svd is None else svd
    G, coefs = _project(data, U, lam)
    return _Points(F, v, U, lam, Vt, G, _logliks(coefs, data.counts, v))


def _map(data: GroupedData, p: _Points, methods: list) -> _Points:
    """One application of the iteration map to every lane of ``p``: the
    factor update, the SVD and the projection onto the updated basis over
    the stack, then one all-groups noise update per lane, by its method,
    and the likelihoods."""
    F = _em_update_F(data, p.lam, p.Vt, p.v, p.G)
    U, lam, Vt = _svd(F)
    G, coefs = _project(data, U, lam)
    v = np.empty_like(p.v)
    for i, method in enumerate(methods):
        v[i] = update_v(method, coefs._lane(i), p.v[i])
    return _Points(F, v, U, lam, Vt, G, _logliks(coefs, data.counts, v))


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
    """One lane's map evaluations and the trace they leave.

    :meth:`record` takes one evaluation of the batch: it counts it
    against the budget, records its trace entry, runs the ascent monitor
    against the previous entry and tests the stop rule against the point
    the evaluation started from.
    """

    def __init__(self, cfg: FitConfig, start: _Points, row: int):
        self.cfg, self.end = cfg, (start, row)
        self.loglik = [float(start.ll[row])]
        self.v_hist = [start.v[row].copy()] if cfg.record_trace else None
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

    def record(self, p: _Points, out: _Points, row: int, rel: float, seconds: float) -> bool:
        """Record the evaluation that took row ``row`` of ``p`` to that of
        ``out``, with factor change ``rel``; whether the run goes on."""
        ll, last = float(out.ll[row]), self.loglik[-1]
        self.seconds.append(seconds)
        if last - ll > ASCENT_SLACK * (1.0 + abs(last)):
            self.violations += 1
            self.worst_drop = max(self.worst_drop, last - ll)
        self.loglik.append(ll)
        self.f_change.append(rel)
        if self.v_hist is not None:
            self.v_hist.append(out.v[row].copy())
        stop = rel <= self.cfg.tol
        if stop and self.cfg.v_tol is not None:
            stop = _relative_change(out.v[row], p.v[row]) <= self.cfg.v_tol
        if stop and self.cfg.loglik_tol is not None:
            ll_prev = p.ll[row]
            stop = abs(ll - ll_prev) <= self.cfg.loglik_tol * (1.0 + abs(ll_prev))
        self.converged = stop
        self.end = (out, row)
        return not self.done

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
        p, row = self.end
        model = FactorModel._unchecked(p.F[row], p.v[row], (p.U[row], p.lam[row], p.Vt[row]))
        return FitResult(model=model, converged=self.converged, iterations=self.iterations, trace=trace)


class _Lanes:
    """The runs of the lanes that have not stopped, in lane order."""

    def __init__(self, runs: list):
        self.runs = runs

    def step(self, data: GroupedData, p: _Points, *carry: _Points, t0: float | None = None) -> tuple:
        """One batched map evaluation of every lane at ``p``; ``t0``, when
        given, starts the entries' clock earlier than the map itself.
        Drops the lanes that stop and returns the image and the ``carry``
        points, each with the lanes that go on."""
        it = self.runs[0].iterations + 1
        if not p.v.all():
            v = p.v[int(np.argmin(p.v.all(axis=1)))]
            raise DegenerateDataError(
                f"iteration {it}: group {int(np.argmin(v)) + 1} has zero noise "
                "variance (its samples lie in the factor subspace); the factor update needs v > 0"
            )
        if t0 is None:
            t0 = time.perf_counter()
        try:
            out = _map(data, p, [run.cfg.v_method for run in self.runs])
        except NumericalError as err:
            raise NumericalError(f"iteration {it}: {err}") from err
        rels = [_relative_change(out.F[row], p.F[row]) for row in range(len(self.runs))]
        seconds = time.perf_counter() - t0
        keep = [row for row, run in enumerate(self.runs) if run.record(p, out, row, rels[row], seconds)]
        if len(keep) == len(self.runs):
            return (out, *carry)
        self.runs = [self.runs[row] for row in keep]
        return tuple(q.take(keep) for q in (out, *carry))


def _extrapolate(data: GroupedData, p0: _Points, p1: _Points, p2: _Points, scale: float) -> tuple:
    """The SQUAREM points from each lane's ``p0`` and its two map images
    ``p1``, ``p2``, and which lanes' points failed their checks.  A lane
    whose step length is the plain one, or whose point fails, goes on
    from its ``p2``.

    ``r = x1 - x0`` and ``w = x2 - 2 x1 + x0`` over ``(F, v)``; their
    norms weigh ``F`` by ``scale``, the data's mean squared entry, which
    puts both blocks in the units of ``v`` and makes the step length
    invariant under a rescaling of the data.
    """
    rF, rv = p1.F - p0.F, p1.v - p0.v
    wF, wv = p2.F - 2.0 * p1.F + p0.F, p2.v - 2.0 * p1.v + p0.v
    alphas = []
    for row in range(len(p0.ll)):
        r2 = scale * float(np.vdot(rF[row], rF[row])) + float(rv[row] @ rv[row])
        w2 = scale * float(np.vdot(wF[row], wF[row])) + float(wv[row] @ wv[row])
        alphas.append(-math.sqrt(r2 / w2) if w2 > 0.0 else -1.0)
    rejected = [False] * len(alphas)
    steps = [row for row, alpha in enumerate(alphas) if alpha < -1.0]
    if not steps:
        return p2, rejected
    alpha = np.array([alphas[row] for row in steps])[:, None]
    F = p0.F[steps] - (2.0 * alpha[..., None]) * rF[steps] + (alpha * alpha)[..., None] * wF[steps]
    v = p0.v[steps] - (2.0 * alpha) * rv[steps] + (alpha * alpha) * wv[steps]
    valid = np.flatnonzero((v > 0.0).all(axis=1) & np.isfinite(F).all(axis=(1, 2))).tolist()
    q = _point(data, F[valid], v[valid]) if valid else None
    taken = {}  # row of p2 -> row of q
    for i, j in enumerate(valid):
        row = steps[j]
        ll2 = p2.ll[row]
        # the tie term keeps roundoff from flipping the decision between
        # fits of the same data, such as raw and Gram-compressed blocks
        if q.ll[i] >= ll2 - EXTRAPOLATION_TIE * (1.0 + abs(ll2)):
            taken[row] = i
    for row in steps:
        rejected[row] = row not in taken
    if len(taken) == len(alphas):
        return q, rejected
    if not taken:
        return p2, rejected
    # the lanes that took their points, over the copies of p2
    dst, src = list(taken), list(taken.values())
    arrays = [a.copy() for a in p2]
    for a, b in zip(arrays, q):
        a[dst] = b[src]
    return _Points(*arrays), rejected


def _squarem(data: GroupedData, lanes: _Lanes, p0: _Points) -> None:
    """Map evaluations in SQUAREM cycles until every lane is done: two map
    steps, then one from the extrapolated point, or from the second
    step's point when the extrapolation is rejected.  Every evaluation
    moves every lane, so the lanes keep in phase."""
    scale = float(data.energies.sum()) / (data.d * data.n)
    while lanes.runs:
        p1, p0 = lanes.step(data, p0, p0)
        if not lanes.runs:
            break
        p2, p0, p1 = lanes.step(data, p1, p0, p1)
        if not lanes.runs:
            break
        t0 = time.perf_counter()
        point, rejected = _extrapolate(data, p0, p1, p2, scale)
        for run, failed in zip(lanes.runs, rejected):
            run.rejected += failed
        (p0,) = lanes.step(data, point, t0=t0)


def _fit_lanes(data: GroupedData, cfgs: list) -> list:
    """:func:`fit` of one dataset under each config, as the lanes of one
    batched iteration map; returns the results in config order.

    The configs may differ only in ``v_method`` and ``init``.  Each map
    evaluation runs the factor update, the SVD, the projection and the
    likelihood terms over the stacked lanes, and each lane's noise
    update, trace, ascent monitor, stop rule and SQUAREM step on its own;
    a lane that stops leaves the batch.  Every result is bit-identical to
    the lane's own fit.  A lane that fails raises its fit's error, and
    the other lanes' results are lost with it.
    """
    cfg = cfgs[0]
    shared = [f.name for f in fields(FitConfig) if f.name not in ("v_method", "init")]
    if any(getattr(other, name) != getattr(cfg, name) for other in cfgs[1:] for name in shared):
        raise ValueError("the configs of one dataset's lanes may differ only in v_method and init")
    if not 1 <= cfg.rank < data.d:
        raise ValueError("need 1 <= rank < d")
    models = _start_models(data, cfgs)
    svd = tuple(np.stack(parts) for parts in zip(*((m.U, m.lam, m.Vt) for m in models)))
    start = _point(data, np.stack([m.F for m in models]), np.stack([m.v for m in models]), svd)
    runs = [_Run(c, start, row) for row, c in enumerate(cfgs)]
    lanes = _Lanes(list(runs))
    if cfg.accel == "squarem":
        _squarem(data, lanes, start)
    else:
        p = start
        while lanes.runs:
            (p,) = lanes.step(data, p)
    return [run.result() for run in runs]


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
    return _fit_lanes(data, [cfg])[0]
