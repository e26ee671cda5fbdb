"""Noise-variance updates, for one group or for all groups at once.

Each group's slice of the log-likelihood reduces to the univariate
objective described by :class:`heppcat.model.VCoefficients`,

    ``L(v) = -sum_j [ alpha_j ln(gamma_j + v) + beta_j / (gamma_j + v) ]``.

``update_v_rootfind`` maximizes ``L`` exactly by isolating every
stationary point: interval Newton with a monotonicity test on the second
derivative, and safeguarded Newton inside each bracket where the
derivative is monotone.  The other four rules maximize a surrogate
anchored at the current iterate ``v_t`` (expectation-maximization,
difference-of-concave linearization, quadratic solvable, cubic
solvable); each surrogate lies below ``L`` and touches it at ``v_t``, so
every update is guaranteed not to decrease the likelihood.

:func:`update_v` takes either one group's coefficients and a float
anchor, or every group's (:func:`heppcat.model.group_coefficients`, one
row of ``beta`` per group) and one anchor per group; the fitter makes one
such all-groups call per iteration.  Every method runs on the all-groups
form, and one group is its one-row case.  ``em`` is one closed form over
the ``(L, k + 1)`` ``beta`` matrix.  ``quad`` and ``cubic`` compute their
surrogate terms over it and solve each group's polynomial in floats;
``doc`` and ``rootfind`` compute their brackets over it and loop over
the groups for the root finding.  The batched expressions are
bit-identical to one group's: every row they reduce is C-contiguous, so
numpy reduces it exactly as it reduces a lone group's vector.

Both root-finding updates end in one solver, safeguarded Newton on a
bracket whose ends change sign (:func:`_monotone_root`): ``rootfind``
on the derivative of ``L``, ``doc`` on its surrogate's strictly
decreasing slope.  The scalar loops run on Python floats built once per
group: the root finder's first and second derivatives and their
enclosures, the difference-of-concave surrogate's slope and its
derivative, and the cubic surrogate that ranks its roots.  A numpy
reduction over the ``k + 1`` coefficients costs far more in dispatch
than in arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError
from .model import VCoefficients, univariate_objective

__all__ = [
    "update_v_rootfind",
    "update_v_em",
    "update_v_doc",
    "update_v_quadratic",
    "update_v_cubic",
    "update_v",
    "eval_minorizer",
    "noise_floor",
    "V_METHODS",
    "MINORIZER_KINDS",
]

MINORIZER_KINDS = ("em", "doc", "quad", "cubic")

_ISOLATION_WIDTH_RTOL = 1e-10
_ISOLATION_DEPTH_CAP = 60
_MONOTONE_STEPS_CAP = 100
_MONOTONE_ULPS = 4.0
_EPS = float(np.finfo(float).eps)


def _check_positive(x, name: str) -> float:
    """``x`` as a float, checked finite and positive."""
    x = float(x)
    if not math.isfinite(x) or x <= 0:
        raise ValueError(f"{name} must be finite and positive")
    return x


def _bracket_terms(c: VCoefficients):
    """``beta_j / alpha_j`` and ``gamma_j`` where ``alpha_j > 0``: the terms
    of the rootfind and difference-of-concave upper brackets, with one row
    of ratios per group for all-groups coefficients."""
    if np.any((c.alpha == 0.0) & (c.beta > 0.0)):
        raise ValueError("bracketing requires alpha > 0 wherever beta > 0")
    active = c.alpha > 0.0
    return c.beta.compress(active, axis=-1) / c.alpha[active], c.gamma[active]


def noise_floor(c: VCoefficients):
    """Smallest variance the updates will return outside the exact-zero
    branch; one per group for all-groups coefficients."""
    return 1e-12 * np.maximum(np.maximum(c.beta_tilde, c.beta.max(axis=-1)), 1.0)


def _solvable_terms(c: VCoefficients, v_t) -> tuple:
    """``alpha_tilde, zeta, B_bar, gamma_t, c_bar``: the solvable surrogates'
    shared pieces at anchor ``v_t``, one group's as floats or, for
    all-groups coefficients and one anchor per group, all but
    ``alpha_tilde`` as arrays over the groups.

    ``alpha_tilde`` totals ``alpha`` over the zero-gamma indices, which
    both surrogates keep exactly.  On the remaining indices: ``zeta`` is
    the total linearized log slope, ``B_bar`` the total ``1/v`` mass of the
    quadratic surrogate, ``gamma_t`` the constant term of the cubic
    surrogate's derivative and ``c_bar`` the sum of ``-2 beta_j /
    gamma_j^3``, each of which bounds the second derivative of ``-beta_j /
    (gamma_j + v)`` from below over ``v >= 0``.
    """
    nz = ~c.zero_set
    # compress keeps the rows C-contiguous (a boolean index would not), so
    # each row sums as numpy sums one group's vector
    b_nz, g_nz = c.beta.compress(nz, axis=-1), c.gamma[nz]
    v = np.asarray(v_t, dtype=float)[..., None]
    t = g_nz + v
    tt = t * t
    zeta = (c.alpha[nz] / t).sum(axis=-1)
    B_bar = c.beta_tilde + (b_nz * (v * v) / tt).sum(axis=-1)
    gamma_t = -zeta + (b_nz / tt).sum(axis=-1)
    c_bar = (-2.0 * b_nz / g_nz**3).sum(axis=-1)
    return float(c.alpha[c.zero_set].sum()), zeta, B_bar, gamma_t, c_bar


# ---------------------------------------------------------------------------
# exact maximization by stationary-point isolation


def _float_terms(c: VCoefficients) -> tuple:
    """One ``(alpha_j, beta_j, gamma_j)`` triple of Python floats per index."""
    return tuple(zip(c.alpha.tolist(), c.beta.tolist(), c.gamma.tolist()))


def _derivative(terms, v: float) -> float:
    """:func:`heppcat.model.univariate_derivative` over ``terms``, same rounding."""
    s = 0.0
    for alpha, beta, gamma in terms:
        t = gamma + v
        s += -alpha / t + beta / (t * t)
    return s


def _derivative_range(terms, a: float, b: float):
    """Enclosure of the objective derivative over [a, b], 0 < a <= b.

    Four running sums over ``terms``, in the order numpy would sum the
    equivalent arrays.
    """
    lo_log = lo_inv = hi_log = hi_inv = 0.0
    for alpha, beta, gamma in terms:
        ta, tb = gamma + a, gamma + b
        lo_log -= alpha / ta
        lo_inv += beta / (tb * tb)
        hi_log -= alpha / tb
        hi_inv += beta / (ta * ta)
    return lo_log + lo_inv, hi_log + hi_inv


def _second_derivative(terms, v: float) -> float:
    """Second derivative of the objective, ``sum alpha_j / t^2 - 2 sum beta_j / t^3``
    with ``t = gamma_j + v``: two running sums over ``terms``."""
    s_log = s_inv = 0.0
    for alpha, beta, gamma in terms:
        t = gamma + v
        tt = t * t
        s_log += alpha / tt
        s_inv += beta / (tt * t)
    return s_log - 2.0 * s_inv


def _second_derivative_range(terms, a: float, b: float):
    """Enclosure of the objective's second derivative over [a, b], 0 < a <= b,
    in the shape of :func:`_derivative_range`."""
    lo_log = lo_inv = hi_log = hi_inv = 0.0
    for alpha, beta, gamma in terms:
        ta, tb = gamma + a, gamma + b
        ta2, tb2 = ta * ta, tb * tb
        lo_log += alpha / tb2
        lo_inv += beta / (ta2 * ta)
        hi_log += alpha / ta2
        hi_inv += beta / (tb2 * tb)
    return lo_log - 2.0 * lo_inv, hi_log - 2.0 * hi_inv


def _newton_polish(terms, v: float, lo: float, hi: float) -> float:
    """Newton steps on the derivative, clamped to [lo, hi].

    Isolation leaves are ~1e-10 wide and sit at tangent stationary
    points, where adjacent leaves emit midpoints whose objective ties
    the point at double precision; polishing moves them onto it, or
    toward it where the vanishing second derivative slows Newton.
    """
    for _ in range(4):
        d1 = _derivative(terms, v)
        d2 = _second_derivative(terms, v)
        if d2 == 0.0 or not math.isfinite(d2):
            break
        v_new = min(max(v - d1 / d2, lo), hi)
        if abs(v_new - v) <= 1e-16 * abs(v):
            return v_new
        v = v_new
    return v


def _monotone_root(fd, a: float, b: float, fa: float, fb: float) -> float:
    """A zero of ``f`` in [a, b], the only one where ``f`` is strictly
    monotone: ``fd(v)`` returns ``(f(v), f'(v))``, and the end values
    ``fa``, ``fb`` change sign (or one of them is 0).

    Safeguarded Newton from the midpoint: every evaluation shrinks the
    bracket to the side that keeps the sign change, and a Newton step
    that leaves it is replaced by bisection.  Stops once a Newton step
    is at most a few ulp.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    a_positive = fa > 0
    v = 0.5 * (a + b)
    for _ in range(_MONOTONE_STEPS_CAP):
        f, df = fd(v)
        if f == 0.0:
            return v
        if (f > 0) == a_positive:
            a = v
        else:
            b = v
        step = f / df if df != 0.0 else math.inf
        if abs(step) <= _MONOTONE_ULPS * _EPS * v:
            return min(max(v - step, a), b)
        v = v - step if a < v - step < b else 0.5 * (a + b)
    return v


def _stationary_points(terms, lo: float, hi: float) -> list:
    """All stationary points of the objective inside [lo, hi], distinct and sorted.

    Interval Newton with a monotonicity test (Hansen & Walster, *Global
    Optimization Using Interval Analysis*, 2004).  A subinterval is
    discarded when an enclosure of the derivative excludes zero.  It is
    resolved when an enclosure of the second derivative excludes zero,
    so that the derivative is monotone there, or once it is narrower
    than ~1e-10 relative: a sign change of the derivative at its ends
    goes to :func:`_monotone_root`, and a monotone subinterval without
    one holds no root.  Otherwise the subinterval is split.  Only
    tangent (double) stationary points, where the second derivative
    vanishes, reach the leaves; a leaf without a sign change yields its
    midpoint after a Newton polish, a candidate that is harmless because
    callers rank candidates by objective value.  Adjacent leaves often
    polish onto the same root; the copies are dropped.  A tangent leaf
    is kept even when a neighbour holds a root: its polished midpoint is
    often the best candidate.  A call builds a few enclosures of each
    kind; they and the Newton steps are float sums over ``terms``
    (:func:`_float_terms`).
    """
    width_tol = _ISOLATION_WIDTH_RTOL * (1.0 + hi)
    fd = lambda v: (_derivative(terms, v), _second_derivative(terms, v))
    roots: list = []
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        if depth > _ISOLATION_DEPTH_CAP:
            raise NumericalError("stationary-point isolation exceeded its depth budget")
        r_lo, r_hi = _derivative_range(terms, a, b)
        if r_lo > 0.0 or r_hi < 0.0:
            continue
        s_lo, s_hi = _second_derivative_range(terms, a, b)
        monotone = s_lo > 0.0 or s_hi < 0.0
        if monotone or (b - a) < width_tol:
            fa, fb = _derivative(terms, a), _derivative(terms, b)
            if fa == 0.0 or fb == 0.0 or (fa > 0) != (fb > 0):
                roots.append(_monotone_root(fd, a, b, fa, fb))
            elif not monotone:
                roots.append(_newton_polish(terms, 0.5 * (a + b), lo, hi))
            continue
        m = 0.5 * (a + b)
        stack.append((m, b, depth + 1))
        stack.append((a, m, depth + 1))
    return sorted(set(roots))


def _rootfind(c: VCoefficients, v_t=None) -> np.ndarray:
    """:func:`update_v_rootfind` of all-groups coefficients: the brackets
    over the ``beta`` matrix, then one isolation per group."""
    ratio, gamma = _bracket_terms(c)
    ratios = ratio - gamma
    v_maxs = ratios.max(axis=1, initial=-np.inf)
    los = np.maximum(noise_floor(c), ratios.min(axis=1, initial=np.inf))
    out = []
    for l, (lo, v_max) in enumerate(zip(los.tolist(), v_maxs.tolist())):
        g = c.group(l)
        if g.beta_tilde == 0.0:
            out.append(0.0)
            continue
        terms = _float_terms(g)
        candidates: list = []
        if v_max > lo:
            candidates.extend(_stationary_points(terms, lo, v_max))
        else:
            # all per-term ratios coincide: the unique stationary point is v_max
            candidates.append(v_max)
        if _derivative(terms, lo) < 0.0:
            # maximizer sits at or below the representable floor; clamp there
            candidates.append(lo)
        if not candidates:
            raise NumericalError(
                f"no stationary point found in [{lo!r}, {v_max!r}] despite beta_tilde > 0"
            )
        if len(candidates) > 1:
            values = [univariate_objective(g, v) for v in candidates]
            candidates = [candidates[int(np.argmax(values))]]
        out.append(candidates[0])
    return np.array(out)


def update_v_rootfind(c: VCoefficients):
    """Global maximizer of the univariate objective.

    Returns 0 on the exact zero-residual branch (``beta_tilde == 0``,
    where the objective diverges to ``+inf`` at 0).  Otherwise every
    nonnegative stationary point lies between the extremes of
    ``beta_j / alpha_j - gamma_j``; all of them are isolated and the
    argmax of the objective is returned; a lone candidate is returned
    without evaluating the objective.  Takes one group's coefficients or
    all groups' (see :func:`update_v`).
    """
    return update_v("rootfind", c)


# ---------------------------------------------------------------------------
# anchored surrogate updates


def _em_rho(c: VCoefficients, v_t):
    """``rho(v_t)`` of the EM update: a float for one group's coefficients
    and a float anchor, an array for all groups' and one anchor each."""
    v = np.asarray(v_t, dtype=float)
    col = v[..., None]
    w = col / (c.gamma + col)
    lam = c.gamma[1:]
    return (w**2 * c.beta).sum(axis=-1) + v * (lam / (lam + col)).sum(axis=-1)


def _em(c: VCoefficients, v: np.ndarray) -> np.ndarray:
    return _em_rho(c, v) / c.ambient_dim


def update_v_em(c: VCoefficients, v_t):
    """Expectation-maximization update ``rho(v_t) / d`` (see :func:`update_v`)."""
    return update_v("em", c, v_t)


def _log_slope(c: VCoefficients, v_t):
    """``zeta_full = sum_j alpha_j / (gamma_j + v_t)``, the slope of the
    difference-of-concave surrogate's linearized logs; one per group for
    all-groups coefficients."""
    return (c.alpha / (c.gamma + np.asarray(v_t, dtype=float)[..., None])).sum(axis=-1)


def _doc_slope(pairs, zeta_full: float, x: float) -> tuple:
    """The difference-of-concave surrogate's slope ``sum beta_j / (gamma_j +
    x)^2 - zeta_full`` and its derivative ``-2 sum beta_j / (gamma_j + x)^3``,
    two running sums over ``(beta_j, gamma_j)`` pairs in numpy's order."""
    s2 = s3 = 0.0
    for beta, gamma in pairs:
        t = gamma + x
        tt = t * t
        s2 += beta / tt
        s3 += beta / (tt * t)
    return s2 - zeta_full, -2.0 * s3


def _doc(c: VCoefficients, v: np.ndarray) -> np.ndarray:
    """:func:`update_v_doc` of all-groups coefficients: slopes and brackets
    over the ``beta`` matrix, then one safeguarded Newton per group."""
    ratio, gamma = _bracket_terms(c)
    zetas = _log_slope(c, v)
    his = (np.sqrt(ratio * (gamma + v[:, None])) - gamma).max(axis=1, initial=-np.inf)
    los = noise_floor(c)
    nz = ~c.zero_set
    gammas = c.gamma.tolist()
    out = []
    for l, (betas, beta_tilde, zeta_full, lo, hi) in enumerate(
        zip(c.beta.tolist(), c.beta_tilde.tolist(), zetas.tolist(), los.tolist(), his.tolist())
    ):
        if beta_tilde == 0.0 and float(np.sum(c.beta[l, nz] / c.gamma[nz] ** 2)) <= zeta_full:
            out.append(0.0)
            continue
        pairs = tuple(zip(betas, gammas))
        fd = lambda x: _doc_slope(pairs, zeta_full, x)
        f_lo = fd(lo)[0]
        if f_lo <= 0.0:
            if f_lo == 0.0:
                out.append(lo)
                continue
            raise NumericalError("difference-of-concave bracket has no sign change at its floor")
        f_hi = fd(hi)[0]
        if f_hi > 0.0:
            raise NumericalError("difference-of-concave bracket upper endpoint is not past the zero")
        out.append(_monotone_root(fd, lo, hi, f_lo, f_hi))
    return np.array(out)


def update_v_doc(c: VCoefficients, v_t):
    """Difference-of-concave update: linearize the logs, keep the rest.

    The surrogate derivative ``-sum_j alpha_j/(gamma_j + v_t) +
    sum_j beta_j/(gamma_j + v)^2`` is strictly decreasing, so the update
    returns 0 when it is nonpositive at ``0+`` and otherwise finds the
    unique positive zero by safeguarded Newton (:func:`_monotone_root`)
    on float sums over ``(beta_j, gamma_j)`` pairs.  Takes one group's
    coefficients or all groups' (see :func:`update_v`).
    """
    return update_v("doc", c, v_t)


def _positive_quadratic_root(zeta: float, alpha: float, rhs: float) -> float:
    """Positive root of ``zeta v^2 + alpha v - rhs = 0`` in cancellation-free form."""
    if rhs == 0.0:
        return 0.0
    if zeta == 0.0:
        if alpha <= 0.0:
            raise NumericalError("quadratic surrogate is unbounded: alpha_tilde = zeta = 0")
        return rhs / alpha
    return 2.0 * rhs / (alpha + math.sqrt(alpha * alpha + 4.0 * zeta * rhs))


def _quad(c: VCoefficients, v: np.ndarray) -> np.ndarray:
    alpha_tilde, zetas, B_bars, _, _ = _solvable_terms(c, v)
    roots = [_positive_quadratic_root(z, alpha_tilde, b) for z, b in zip(zetas.tolist(), B_bars.tolist())]
    return np.array(roots)


def update_v_quadratic(c: VCoefficients, v_t):
    """Quadratic solvable update: the surrogate's stationarity condition
    is a quadratic with exactly one positive root (see :func:`update_v`)."""
    return update_v("quad", c, v_t)


def _real_cubic_roots(a3: float, a2: float, a1: float, a0: float) -> list:
    """Real roots of ``a3 x^3 + a2 x^2 + a1 x + a0``, ``a3 != 0``.

    Depressed-cubic closed form with the trigonometric branch for three
    real roots and a cancellation-safe Cardano branch for one.
    """
    b, cc, d = a2 / a3, a1 / a3, a0 / a3
    p = cc - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * cc / 3.0 + d
    shift = -b / 3.0
    if q == 0.0:
        if p >= 0.0:
            roots = [0.0]
        else:
            r = math.sqrt(-p)
            roots = [0.0, r, -r]
    else:
        half_q_sq = (q / 2.0) ** 2
        third_p_cu = (p / 3.0) ** 3
        disc = half_q_sq + third_p_cu
        # an exactly repeated root makes disc vanish up to rounding noise
        disc_tol = 4.0 * _EPS * max(half_q_sq, abs(third_p_cu))
        if disc > disc_tol:
            u3 = -q / 2.0 - math.copysign(math.sqrt(disc), q)
            u = math.copysign(abs(u3) ** (1.0 / 3.0), u3)
            roots = [u - p / (3.0 * u)]
        elif abs(disc) <= disc_tol:
            u = math.copysign(abs(q / 2.0) ** (1.0 / 3.0), -q)
            roots = [2.0 * u, -u]
        else:
            rad = math.sqrt(-(p**3) / 27.0)
            theta = math.acos(min(1.0, max(-1.0, -q / (2.0 * rad))))
            mag = 2.0 * math.sqrt(-p / 3.0)
            roots = [mag * math.cos((theta - 2.0 * math.pi * i) / 3.0) for i in range(3)]
    out = []
    for t in roots:
        x = t + shift
        # two Newton polish steps clean up rounding from the closed form
        for _ in range(2):
            fx = ((a3 * x + a2) * x + a1) * x + a0
            dfx = (3.0 * a3 * x + 2.0 * a2) * x + a1
            if dfx != 0.0 and math.isfinite(dfx):
                x -= fx / dfx
        if math.isfinite(x) and all(abs(x - y) > 1e-9 * (1.0 + abs(x)) for y in out):
            out.append(x)
    return out


def _cubic_surrogate(x: float, alpha_tilde, beta_tilde, gamma_t, c_bar, v_t) -> float:
    """The cubic surrogate at ``x`` up to its additive constant,
    ``-alpha_tilde ln x - beta_tilde / x + gamma_t x + c_bar / 2 (x - v_t)^2``:
    the linearized logs (slope ``-zeta``) and the tangents of the inverse
    terms at ``v_t`` (slopes ``beta_j / (gamma_j + v_t)^2``) sum to ``gamma_t x``."""
    h = x - v_t
    return -alpha_tilde * math.log(x) - beta_tilde / x + gamma_t * x + 0.5 * c_bar * (h * h)


def _cubic(c: VCoefficients, v: np.ndarray) -> np.ndarray:
    """:func:`update_v_cubic` of all-groups coefficients: the surrogate
    terms over the ``beta`` matrix, then one cubic per group."""
    alpha_tilde, zetas, _, gamma_ts, c_bars = _solvable_terms(c, v)
    out = []
    for v_t, beta_tilde, zeta, gamma_t, c_bar in zip(
        v.tolist(), c.beta_tilde.tolist(), zetas.tolist(), gamma_ts.tolist(), c_bars.tolist()
    ):
        if beta_tilde == 0.0:
            # the exactly-kept -alpha_tilde ln v term sends the surrogate to
            # +inf at 0, mirroring the objective's zero-residual branch
            out.append(0.0)
            continue
        if c_bar == 0.0:
            out.append(_positive_quadratic_root(zeta, alpha_tilde, beta_tilde))
            continue
        roots = _real_cubic_roots(c_bar, gamma_t - c_bar * v_t, -alpha_tilde, beta_tilde)
        roots = [r for r in roots if r > 0.0]
        if not roots:
            raise NumericalError(
                "cubic surrogate has no positive stationary point "
                f"(coefficients: c_bar={c_bar!r}, gamma_t={gamma_t!r}, "
                f"alpha_tilde={alpha_tilde!r}, beta_tilde={beta_tilde!r}, v_t={v_t!r})"
            )
        out.append(max(roots, key=lambda r: _cubic_surrogate(r, alpha_tilde, beta_tilde, gamma_t, c_bar, v_t)))
    return np.array(out)


def update_v_cubic(c: VCoefficients, v_t):
    """Cubic solvable update: maximum-curvature quadratic expansion of the
    nonzero-gamma terms makes stationarity a cubic in ``v``.

    All real roots come from the closed form, and the positive root with
    the largest surrogate value wins.  Ranking alone suffices: on this
    branch (``beta_tilde > 0``, ``c_bar < 0``) the surrogate falls to
    ``-inf`` both at ``0+`` and at ``+inf``, so its maximum is a positive
    stationary point, which the ranking finds.  Takes one group's
    coefficients or all groups' (see :func:`update_v`).
    """
    return update_v("cubic", c, v_t)


_UPDATES = {
    "rootfind": _rootfind,
    "em": _em,
    "doc": _doc,
    "quad": _quad,
    "cubic": _cubic,
}
V_METHODS = tuple(_UPDATES)


def update_v(method: str, c: VCoefficients, v_t=None):
    """Dispatch a noise-variance update by method name.

    ``c`` holds one group's coefficients and ``v_t`` is a float anchor,
    and the new variance comes back as a float; or ``c`` holds every
    group's, one row of ``beta`` per group as
    :func:`~heppcat.model.group_coefficients` builds them, ``v_t`` holds
    one anchor per group, and the new variances come back as an array.
    One group is the one-row case of the same computation.  ``rootfind``
    takes no anchor.
    """
    if method not in _UPDATES:
        raise ValueError(f"unknown v update method: {method!r}")
    one = c.beta.ndim == 1
    if one:
        c = VCoefficients._unchecked(c.alpha, c.beta[None], c.gamma, c.zero_set, np.array([c.beta_tilde]))
    v = None
    if method != "rootfind":
        v = np.array([_check_positive(v_t, "anchor v_t")]) if one else np.asarray(v_t, dtype=float)
        # a NaN fails the first test
        if v.shape != c.beta_tilde.shape or not (v.min() > 0.0 and v.max() < math.inf):
            raise ValueError("anchor v_t must be finite and positive, one per group")
    v_new = _UPDATES[method](c, v)
    return float(v_new[0]) if one else v_new


def eval_minorizer(kind: str, c: VCoefficients, v: float, v_t: float) -> float:
    """Evaluate an anchored surrogate at ``v``.

    The additive constant is fixed so the surrogate equals
    ``univariate_objective(c, v_t)`` at ``v = v_t``; with that anchoring
    every kind satisfies ``eval_minorizer(...) <= univariate_objective``
    for all positive ``v``.
    """
    v, v_t = _check_positive(v, "v"), _check_positive(v_t, "anchor v_t")
    raw = _raw_minorizer(kind, c, v_t)
    # grouping makes the anchored value exactly equal the objective at v_t
    return univariate_objective(c, v_t) + (raw(v) - raw(v_t))


def _raw_minorizer(kind: str, c: VCoefficients, v_t: float):
    """The surrogate anchored at ``v_t`` up to its additive constant, as a
    function of ``v``; its coefficients are computed once."""
    if kind == "em":
        d, rho = c.ambient_dim, _em_rho(c, v_t)
        return lambda x: -d * math.log(x) - rho / x
    if kind == "doc":
        zeta_full = float(_log_slope(c, v_t))
        return lambda x: -zeta_full * x - float(np.sum(c.beta / (c.gamma + x)))
    if kind not in ("quad", "cubic"):
        raise ValueError(f"unknown minorizer kind: {kind!r}")
    alpha_tilde, zeta, B_bar, gamma_t, c_bar = _solvable_terms(c, v_t)
    if kind == "quad":
        return lambda x: -alpha_tilde * math.log(x) - B_bar / x - zeta * x
    return lambda x: _cubic_surrogate(x, alpha_tilde, c.beta_tilde, gamma_t, c_bar, v_t)
