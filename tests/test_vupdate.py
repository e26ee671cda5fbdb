import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heppcat import (
    MINORIZER_KINDS,
    V_METHODS,
    FitConfig,
    GroupedData,
    NumericalError,
    VCoefficients,
    eval_minorizer,
    fit,
    noise_floor,
    univariate_derivative,
    univariate_objective,
    update_v,
    update_v_cubic,
    update_v_doc,
    update_v_em,
    update_v_quadratic,
    update_v_rootfind,
)
from heppcat import fitter
from heppcat import vupdate
from heppcat.benchmark import _split_into_blocks, preset_truth
from heppcat.fupdate import compress_gram
from heppcat.model import group_coefficients
from heppcat.simgen import generate
from heppcat.vupdate import (
    _EPS,
    _ISOLATION_DEPTH_CAP,
    _ISOLATION_WIDTH_RTOL,
    _MONOTONE_STEPS_CAP,
    _MONOTONE_ULPS,
    _derivative,
    _derivative_range,
    _doc_slope,
    _float_terms,
    _newton_polish,
    _positive_quadratic_root,
    _real_cubic_roots,
    _second_derivative,
    _second_derivative_range,
    _solvable_terms,
    _stationary_points,
)
from conftest import derivative_on_grid, grid_argmax, objective_on_grid, random_coefficients


def worked_coefficients():
    # d = 2, k = 1: alpha = (1, 1), beta = (16, 9), gamma = (0, 2)
    return VCoefficients(alpha=[1.0, 1.0], beta=[16.0, 9.0], gamma=[0.0, 2.0])


# ---------------------------------------------------------------------------
# worked single-step values


def test_em_update_worked_value():
    # rho = 16 + (2/4)^2 * 9 + 2 * (2/4) = 19.25; d = 2
    assert update_v_em(worked_coefficients(), 2.0) == pytest.approx(9.625, rel=1e-12)


def test_quadratic_update_worked_value():
    # alpha~ = 1, zeta~ = 1/4, B~ = 16 + 9 * 4/16 = 18.25
    expected = (-1.0 + math.sqrt(1.0 + 4.0 * 0.25 * 18.25)) / (2.0 * 0.25)
    assert update_v_quadratic(worked_coefficients(), 2.0) == pytest.approx(expected, rel=1e-12)


def test_rootfind_agrees_with_grid_oracle_on_worked_case():
    c = worked_coefficients()
    v = update_v_rootfind(c)
    grid = np.linspace(1e-6, 24.0, 100_000)
    vals = objective_on_grid(c, grid)
    i = int(np.argmax(vals))
    assert univariate_objective(c, v) >= vals[i] - 1e-10
    assert v == pytest.approx(grid[i], abs=2.4e-4)
    assert abs(univariate_derivative(c, v)) < 1e-8


def test_cubic_reduces_to_ratio_when_all_gammas_vanish():
    c = VCoefficients(alpha=[3.0, 1.0], beta=[2.0, 1.0], gamma=[0.0, 0.0])
    assert update_v_cubic(c, 0.7) == pytest.approx(3.0 / 4.0, rel=1e-12)
    assert update_v_rootfind(c) == pytest.approx(3.0 / 4.0, rel=1e-10)


def test_zero_residual_branch_returns_zero():
    c = VCoefficients(alpha=[2.0, 1.0], beta=[0.0, 5.0], gamma=[0.0, 3.0])
    assert c.beta_tilde == 0.0
    assert update_v_rootfind(c) == 0.0
    assert update_v_cubic(c, 1.0) == 0.0
    assert update_v_doc(c, 1.0) == 0.0  # surrogate slope at 0+ is negative here


def test_quadratic_zero_mass_returns_zero():
    c = VCoefficients(alpha=[2.0], beta=[0.0], gamma=[0.0])
    assert update_v_quadratic(c, 1.0) == 0.0


def test_noise_floor_formula():
    c = worked_coefficients()
    assert noise_floor(c) == pytest.approx(1e-12 * 16.0)
    tiny = VCoefficients(alpha=[1.0], beta=[1e-6], gamma=[0.0])
    assert noise_floor(tiny) == pytest.approx(1e-12)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        update_v("newton", worked_coefficients(), 1.0)


def test_anchored_updates_reject_bad_anchor():
    c = worked_coefficients()
    for fn in (update_v_em, update_v_doc, update_v_quadratic, update_v_cubic):
        with pytest.raises(ValueError):
            fn(c, 0.0)


# ---------------------------------------------------------------------------
# minorizer coefficient invariants


def test_minorizer_coefficient_invariants(rng):
    for _ in range(200):
        c = random_coefficients(rng)
        v_t = float(rng.uniform(0.05, 5.0))
        alpha_tilde, zeta, B_bar, _, c_bar = _solvable_terms(c, v_t)
        assert alpha_tilde >= 1.0  # contains alpha_0 = d - k >= 1
        assert zeta >= 0.0
        assert B_bar >= c.beta_tilde - 1e-15
        assert c_bar <= 0.0


# ---------------------------------------------------------------------------
# surrogate properties: minorization, anchoring, ascent


def test_minorizers_lie_below_objective_on_grid(rng):
    grid = np.geomspace(1e-6, 50.0, 1000)
    for _ in range(60):
        c = random_coefficients(rng)
        v_t = float(rng.uniform(0.05, 5.0))
        obj_t = univariate_objective(c, v_t)
        vals_o = objective_on_grid(c, grid)
        for kind in MINORIZER_KINDS:
            vals_m = np.array([eval_minorizer(kind, c, v, v_t) for v in grid])
            assert np.all(vals_m <= vals_o + 1e-9 * (1.0 + np.abs(vals_o)))
            assert eval_minorizer(kind, c, v_t, v_t) == pytest.approx(obj_t, abs=1e-12)


def test_every_update_ascends(rng):
    for _ in range(300):
        c = random_coefficients(rng)
        v_t = float(rng.uniform(0.05, 5.0))
        before = univariate_objective(c, v_t)
        for method in V_METHODS:
            v_new = update_v(method, c, v_t)
            after = univariate_objective(c, v_new)
            assert after >= before - 1e-10 * (1.0 + abs(before)), (method, v_t, v_new)


def test_surrogate_maximizer_matches_update(rng):
    # brute-force argmax of each anchored surrogate lands on the update output
    for _ in range(12):
        c = random_coefficients(rng, zero_energy_prob=0.0)
        v_t = float(rng.uniform(0.2, 3.0))
        for kind, fn in (
            ("em", update_v_em),
            ("doc", update_v_doc),
            ("quad", update_v_quadratic),
            ("cubic", update_v_cubic),
        ):
            v_up = fn(c, v_t)
            if v_up == 0.0:
                continue
            lo, hi = max(1e-8, 0.2 * v_up), 3.0 * v_up
            v_grid, _ = grid_argmax(lambda x: eval_minorizer(kind, c, x, v_t), lo, hi, num=5_000)
            assert v_up == pytest.approx(v_grid, abs=3.0 * (hi - lo) / 5_000)


def test_fixed_points_sit_at_stationary_points(rng):
    # anchoring at an exact stationary point returns it unchanged
    for _ in range(40):
        c = random_coefficients(rng, zero_energy_prob=0.0)
        v_star = update_v_rootfind(c)
        assert v_star > 0
        assert abs(univariate_derivative(c, v_star)) <= 1e-8 * (1.0 + 1.0 / v_star)
        assert update_v_em(c, v_star) == pytest.approx(v_star, rel=1e-10, abs=1e-12)
        assert update_v_quadratic(c, v_star) == pytest.approx(v_star, rel=1e-9, abs=1e-12)
        assert update_v_cubic(c, v_star) == pytest.approx(v_star, rel=1e-9, abs=1e-12)
        assert update_v_doc(c, v_star) == pytest.approx(v_star, rel=1e-6, abs=1e-11)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MINORIZER_KINDS))
def test_minorization_property(seed, kind):
    rng = np.random.default_rng(seed)
    c = random_coefficients(rng)
    v_t = float(rng.uniform(0.05, 5.0))
    v = float(rng.uniform(1e-4, 20.0))
    lhs = eval_minorizer(kind, c, v, v_t)
    rhs = univariate_objective(c, v)
    assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# exact maximization details


def test_rootfind_beats_grid_on_random_instances(rng):
    for _ in range(150):
        c = random_coefficients(rng, zero_energy_prob=0.0)
        v = update_v_rootfind(c)
        active = c.alpha > 0
        ratios = c.beta[active] / c.alpha[active] - c.gamma[active]
        v_max = float(ratios.max())
        grid = np.linspace(1e-8, 1.5 * v_max, 40_000)
        vals = objective_on_grid(c, grid)
        assert univariate_objective(c, v) >= vals.max() - 1e-8
        # every sign change of the derivative sits inside the bracket
        ders = derivative_on_grid(c, grid)
        flips = np.nonzero(np.diff(np.sign(ders)))[0]
        for i in flips:
            assert ratios.min() - 1e-6 <= grid[i + 1] and grid[i] <= v_max + 1e-6


def test_derivative_range_matches_numpy_and_brackets_derivative(rng):
    eps = np.finfo(float).eps
    for k in range(1, 11):
        for _ in range(40):
            c = random_coefficients(rng, k=k)
            terms = tuple(zip(c.alpha.tolist(), c.beta.tolist(), c.gamma.tolist()))
            a = float(10 ** rng.uniform(-3.0, 1.5))
            b = a * (1.0 + float(10 ** rng.uniform(-10.0, 1.0)))
            lo, hi = _derivative_range(terms, a, b)
            # the enclosure as a numpy expression over the coefficient arrays
            ta, tb = c.gamma + a, c.gamma + b
            ref_lo = float(np.sum(-c.alpha / ta) + np.sum(c.beta / tb**2))
            ref_hi = float(np.sum(-c.alpha / tb) + np.sum(c.beta / ta**2))
            scale = float(np.sum(c.alpha / ta) + np.sum(c.beta / ta**2))
            tol = 16 * (k + 1) * eps * scale
            if k + 1 < 8:
                # numpy sums fewer than 8 entries in order: same rounding
                assert (lo, hi) == (ref_lo, ref_hi)
            else:
                assert abs(lo - ref_lo) <= tol and abs(hi - ref_hi) <= tol
            ders = derivative_on_grid(c, np.linspace(a, b, 64))
            assert np.all(ders >= lo - tol) and np.all(ders <= hi + tol)


def test_second_derivative_range_matches_numpy_and_brackets_second_derivative(rng):
    eps = np.finfo(float).eps
    for k in range(1, 11):
        for _ in range(40):
            c = random_coefficients(rng, k=k)
            terms = _float_terms(c)
            a = float(10 ** rng.uniform(-3.0, 1.5))
            b = a * (1.0 + float(10 ** rng.uniform(-10.0, 1.0)))
            lo, hi = _second_derivative_range(terms, a, b)
            ta = c.gamma + a
            scale = float(np.sum(c.alpha / ta**2) + 2.0 * np.sum(c.beta / ta**3))
            tol = 16 * (k + 1) * eps * scale
            ref_lo, ref_hi = _reference_second_derivative_range(c, a, b)
            if k + 1 < 8:
                assert (lo, hi) == (ref_lo, ref_hi)
            else:
                assert abs(lo - ref_lo) <= tol and abs(hi - ref_hi) <= tol
            grid = np.linspace(a, b, 64)
            second = np.array([_second_derivative(terms, v) for v in grid])
            assert np.all(second >= lo - tol) and np.all(second <= hi + tol)


def test_rootfind_handles_multiple_stationary_points():
    # widely separated scales create a local max / local min / local max
    c = VCoefficients(alpha=[1.0, 1.0], beta=[0.01, 8000.0], gamma=[0.0, 1000.0])
    grid = np.geomspace(1e-6, 1e4, 100_000)
    ders = derivative_on_grid(c, grid)
    n_flips = int(np.count_nonzero(np.diff(np.sign(ders))))
    assert n_flips >= 3  # the instance is genuinely multimodal
    v = update_v_rootfind(c)
    vals = objective_on_grid(c, grid)
    assert univariate_objective(c, v) >= vals.max() - 1e-9


def test_alpha_zero_with_energy_rejected():
    c = VCoefficients(alpha=[0.0, 1.0], beta=[1.0, 1.0], gamma=[0.0, 1.0])
    with pytest.raises(ValueError):
        update_v_rootfind(c)
    with pytest.raises(ValueError):
        update_v_doc(c, 1.0)


def test_doc_bracket_failure_raises():
    # residual energy far below the representable floor: the surrogate's
    # stationary point is not reachable from the floor bracket
    c = VCoefficients(alpha=[1.0, 1.0], beta=[1e-30, 1.0], gamma=[0.0, 2.0])
    with pytest.raises(NumericalError):
        update_v_doc(c, 1e-8)


# ---------------------------------------------------------------------------
# analytic cubic solver


def test_cubic_roots_match_numpy(rng):
    for _ in range(400):
        coeffs = rng.uniform(-5, 5, size=4)
        if abs(coeffs[0]) < 1e-3:
            coeffs[0] = 1.0
        mine = sorted(_real_cubic_roots(*coeffs))
        ref = np.roots(coeffs)
        ref = sorted(float(r.real) for r in ref if abs(r.imag) < 1e-8 * (1.0 + abs(r)))
        assert len(mine) == len(ref)
        for a, b in zip(mine, ref):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-9)


def test_cubic_roots_triple_and_double():
    # (x - 2)^3 and (x - 1)^2 (x + 3)
    assert _real_cubic_roots(1.0, -6.0, 12.0, -8.0) == pytest.approx([2.0])
    roots = sorted(_real_cubic_roots(1.0, 1.0, -5.0, 3.0))
    assert roots == pytest.approx([-3.0, 1.0], abs=1e-7)


# ---------------------------------------------------------------------------
# exact agreement with the numpy formulation
#
# The ``_reference_*`` oracles below are the numpy versions of the
# routines whose scalar loops now run on Python floats: the first and
# second derivatives and their enclosures, the rootfind isolation with
# its polish, the safeguarded Newton that both rootfind and the
# difference-of-concave update end in, the cubic ranking and the
# surrogate evaluation.  For k <= 6 the float loops must reproduce them
# bit for bit.  Cubes are written as products in both forms; numpy's
# ``t**3`` may round differently.


def _reference_second_derivative(c, v):
    t = c.gamma + v
    return float(np.sum(c.alpha / (t * t)) - 2.0 * np.sum(c.beta / (t * t * t)))


def _reference_derivative_range(c, a, b):
    ta, tb = c.gamma + a, c.gamma + b
    lo = np.sum(-c.alpha / ta) + np.sum(c.beta / (tb * tb))
    hi = np.sum(-c.alpha / tb) + np.sum(c.beta / (ta * ta))
    return float(lo), float(hi)


def _reference_second_derivative_range(c, a, b):
    ta, tb = c.gamma + a, c.gamma + b
    lo = np.sum(c.alpha / (tb * tb)) - 2.0 * np.sum(c.beta / (ta * ta * ta))
    hi = np.sum(c.alpha / (ta * ta)) - 2.0 * np.sum(c.beta / (tb * tb * tb))
    return float(lo), float(hi)


def _reference_newton_polish(c, v, lo, hi, second=_reference_second_derivative):
    for _ in range(4):
        d1 = univariate_derivative(c, v)
        d2 = second(c, v)
        if d2 == 0.0 or not np.isfinite(d2):
            break
        v_new = min(max(v - d1 / d2, lo), hi)
        if abs(v_new - v) <= 1e-16 * abs(v):
            return v_new
        v = v_new
    return v


def _reference_monotone_root(fd, a, b, fa, fb):
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    v = 0.5 * (a + b)
    for _ in range(_MONOTONE_STEPS_CAP):
        f, df = fd(v)
        if f == 0.0:
            return v
        if (f > 0) == (fa > 0):
            a = v
        else:
            b = v
        step = f / df if df != 0.0 else math.inf
        if abs(step) <= _MONOTONE_ULPS * _EPS * v:
            return min(max(v - step, a), b)
        v = v - step if a < v - step < b else 0.5 * (a + b)
    return v


def _plain_bisection(f, a, b, fa, fb):
    # the leaf root finder of the splitting isolation: bisection of a
    # sign change down to 1e-13 relative width
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    for _ in range(200):
        m = 0.5 * (a + b)
        if (b - a) <= 1e-13 * m:
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0) == (fa > 0):
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _reference_stationary_points(c, lo, hi):
    # every root, copies included: intervals whose derivative enclosure
    # holds 0 are resolved where the second-derivative enclosure excludes
    # 0 or once narrower than ~1e-10 relative, and split otherwise.  A
    # sign change goes to the safeguarded Newton; a leaf without one
    # yields its polished midpoint
    width_tol = _ISOLATION_WIDTH_RTOL * (1.0 + hi)
    fd = lambda v: (univariate_derivative(c, v), _reference_second_derivative(c, v))
    roots = []
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        if depth > _ISOLATION_DEPTH_CAP:
            raise NumericalError("depth")
        r_lo, r_hi = _reference_derivative_range(c, a, b)
        if r_lo > 0.0 or r_hi < 0.0:
            continue
        s_lo, s_hi = _reference_second_derivative_range(c, a, b)
        monotone = s_lo > 0.0 or s_hi < 0.0
        if monotone or (b - a) < width_tol:
            fa, fb = univariate_derivative(c, a), univariate_derivative(c, b)
            if fa == 0.0 or fb == 0.0 or (fa > 0) != (fb > 0):
                roots.append(_reference_monotone_root(fd, a, b, fa, fb))
            elif not monotone:
                roots.append(_reference_newton_polish(c, 0.5 * (a + b), lo, hi))
            continue
        m = 0.5 * (a + b)
        stack.append((m, b, depth + 1))
        stack.append((a, m, depth + 1))
    return sorted(roots)


def _splitting_isolation(c, lo, hi):
    # the isolation rootfind used before the monotonicity test, kept as
    # an oracle: every interval whose derivative enclosure holds 0 is
    # split down to ~1e-10 relative, then resolved as a leaf whose polish
    # takes numpy's cube; the distinct roots, sorted.  Float sums as that
    # code ran them: bit-identical to numpy for k <= 6
    terms = _float_terms(c)
    deriv = lambda v: _derivative(terms, v)

    def second(c, v):
        t = c.gamma + v
        return float(np.sum(c.alpha / t**2) - 2.0 * np.sum(c.beta / t**3))

    width_tol = _ISOLATION_WIDTH_RTOL * (1.0 + hi)
    roots = []
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        if depth > _ISOLATION_DEPTH_CAP:
            raise NumericalError("depth")
        r_lo, r_hi = _derivative_range(terms, a, b)
        if r_lo > 0.0 or r_hi < 0.0:
            continue
        if (b - a) < width_tol:
            fa, fb = deriv(a), deriv(b)
            if fa == 0.0 or fb == 0.0 or (fa > 0) != (fb > 0):
                r = _plain_bisection(deriv, a, b, fa, fb)
            else:
                r = 0.5 * (a + b)
            roots.append(_reference_newton_polish(c, r, lo, hi, second))
            continue
        m = 0.5 * (a + b)
        stack.append((m, b, depth + 1))
        stack.append((a, m, depth + 1))
    return sorted(set(roots))


def _isolation_bracket(c):
    # [lo, hi] of update_v_rootfind, which holds every nonnegative stationary point
    active = c.alpha > 0.0
    ratios = c.beta[active] / c.alpha[active] - c.gamma[active]
    return max(noise_floor(c), float(ratios.min())), float(ratios.max())


def _reference_rootfind(c, v_t=None, points=_reference_stationary_points):
    if c.beta_tilde == 0.0:
        return 0.0
    lo, v_max = _isolation_bracket(c)
    candidates = points(c, lo, v_max) if v_max > lo else [v_max]
    if univariate_derivative(c, lo) < 0.0:
        candidates.append(lo)
    if not candidates:
        raise NumericalError("no stationary point")
    values = [univariate_objective(c, v) for v in candidates]
    return float(candidates[int(np.argmax(values))])


def _reference_doc_slope(c, zeta_full, x):
    # the surrogate's slope and its derivative
    t = c.gamma + x
    return float(np.sum(c.beta / (t * t))) - zeta_full, -2.0 * float(np.sum(c.beta / (t * t * t)))


def _reference_doc_bracket(c, v_t):
    # zeta_full, lo and hi of the update, or None on its zero branch
    zeta_full = float(np.sum(c.alpha / (c.gamma + v_t)))
    nz = ~c.zero_set
    slope0 = float(np.sum(c.beta[nz] / c.gamma[nz] ** 2))
    if c.beta_tilde == 0.0 and slope0 <= zeta_full:
        return None
    active = c.alpha > 0.0
    hi = float(np.max(np.sqrt(c.beta[active] / c.alpha[active] * (c.gamma[active] + v_t)) - c.gamma[active]))
    return zeta_full, noise_floor(c), hi


def _reference_doc(c, v_t):
    bracket = _reference_doc_bracket(c, v_t)
    if bracket is None:
        return 0.0
    zeta_full, lo, hi = bracket
    fd = lambda x: _reference_doc_slope(c, zeta_full, x)
    f_lo = fd(lo)[0]
    if f_lo <= 0.0:
        if f_lo == 0.0:
            return lo
        raise NumericalError("no sign change at the floor")
    f_hi = fd(hi)[0]
    if f_hi > 0.0:
        raise NumericalError("upper endpoint not past the zero")
    return _reference_monotone_root(fd, lo, hi, f_lo, f_hi)


def _reference_solvable_terms(c, v_t):
    # alpha_tilde, zeta, B_bar, gamma_t, c_bar at anchor v_t
    nz = ~c.zero_set
    t = c.gamma[nz] + v_t
    zeta = float(np.sum(c.alpha[nz] / t))
    B_bar = c.beta_tilde + float(np.sum(c.beta[nz] * (v_t * v_t) / t**2))
    gamma_t = -zeta + float(np.sum(c.beta[nz] / t**2))
    c_bar = float(np.sum(-2.0 * c.beta[nz] / c.gamma[nz] ** 3))
    return float(np.sum(c.alpha[c.zero_set])), zeta, B_bar, gamma_t, c_bar


def _reference_eval_minorizer(kind, c, v, v_t):
    def raw(x):
        if kind == "em":
            return -c.ambient_dim * math.log(x) - _reference_em_rho(c, v_t) / x
        if kind == "doc":
            # -zeta_full x - sum beta / (gamma + x), zeta_full the update's log slope
            zeta_full = float(np.sum(c.alpha / (c.gamma + v_t)))
            return -zeta_full * x - float(np.sum(c.beta / (c.gamma + x)))
        alpha_tilde, zeta, B_bar, gamma_t, c_bar = _reference_solvable_terms(c, v_t)
        if kind == "quad":
            return -alpha_tilde * math.log(x) - B_bar / x - zeta * x
        # -alpha_tilde ln x - beta_tilde / x + gamma_t x + c_bar / 2 (x - v_t)^2
        h = x - v_t
        return -alpha_tilde * math.log(x) - c.beta_tilde / x + gamma_t * x + 0.5 * c_bar * (h * h)

    return univariate_objective(c, v_t) + (raw(v) - raw(v_t))


def _cubic_crosses_down(c, r, v_t):
    # the cubic surrogate's derivative goes from + to - across r, up to rounding
    alpha_tilde, _, _, gamma_t, c_bar = _reference_solvable_terms(c, v_t)
    deriv = lambda v: -alpha_tilde / v + c.beta_tilde / v**2 + gamma_t + c_bar * (v - v_t)
    h = 1e-6 * r
    scale = abs(alpha_tilde / r) + abs(c.beta_tilde / r**2) + abs(gamma_t) + abs(c_bar) * (r + v_t)
    tol = 1e-9 * max(scale, 1e-300)
    return deriv(r - h) >= -tol and deriv(r + h) <= tol


def _positive_cubic_roots(c, v_t):
    alpha_tilde, _, _, gamma_t, c_bar = _reference_solvable_terms(c, v_t)
    roots = _real_cubic_roots(c_bar, gamma_t - c_bar * v_t, -alpha_tilde, c.beta_tilde)
    return [r for r in roots if r > 0.0]


def _reference_cubic(c, v_t):
    # the filtered algorithm: only roots where the surrogate derivative
    # crosses from + to - compete
    alpha_tilde, zeta, _, _, c_bar = _reference_solvable_terms(c, v_t)
    if c.beta_tilde == 0.0:
        return 0.0
    if c_bar == 0.0:
        return _positive_quadratic_root(zeta, alpha_tilde, c.beta_tilde)
    candidates = [r for r in _positive_cubic_roots(c, v_t) if _cubic_crosses_down(c, r, v_t)]
    if not candidates:
        raise NumericalError("no admissible root")
    values = [_reference_eval_minorizer("cubic", c, r, v_t) for r in candidates]
    return float(candidates[int(np.argmax(values))])


def _reference_quad(c, v_t):
    alpha_tilde, zeta, B_bar, _, _ = _reference_solvable_terms(c, v_t)
    return _positive_quadratic_root(zeta, alpha_tilde, B_bar)


def _reference_em_rho(c, v_t):
    w = v_t / (c.gamma + v_t)
    lam = c.gamma[1:]
    return float(np.sum(w**2 * c.beta) + v_t * np.sum(lam / (lam + v_t)))


_REFERENCE_UPDATES = {
    "rootfind": _reference_rootfind,
    "em": lambda c, v_t: _reference_em_rho(c, v_t) / c.ambient_dim,
    "doc": _reference_doc,
    "quad": _reference_quad,
    "cubic": _reference_cubic,
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, NumericalError) as err:
        return type(err)


def _criterion4_sets(rng, ks, count):
    for i in range(count):
        c = random_coefficients(rng, k=ks[i % len(ks)])
        yield c, float(10 ** rng.uniform(-2.0, 1.5)), float(10 ** rng.uniform(-3.0, 2.0))


def _tangent_coefficients(d, g, r):
    # k = 1 and gamma = (0, g), with beta solved so that the derivative
    # and the second derivative both vanish at r: the derivative touches
    # zero there, a tangent (double) stationary point up to rounding
    s = g + r
    x, y = np.linalg.solve([[1.0, 1.0], [1.0 / r, 1.0 / s]], [(d - 1) / r + 1.0 / s, ((d - 1) / r**2 + 1.0 / s**2) / 2])
    return VCoefficients(alpha=[d - 1.0, 1.0], beta=[x * r * r, y * s * s], gamma=[0.0, g])


_TANGENTS = ((2, 100.0, 0.1), (3, 100.0, 0.1), (5, 100.0, 0.1))


def test_stationary_points_are_the_distinct_reference_roots():
    # the monotone brackets yield one root each; adjacent tangent leaves
    # can polish onto the same root, and the copies go.  Every distinct
    # root (tangent midpoints included) stays
    rng = np.random.default_rng(6)
    sets = [c for c, _, _ in _criterion4_sets(rng, range(1, 7), 600)]
    copies = 0
    for c in sets + [_tangent_coefficients(*args) for args in _TANGENTS]:
        if c.beta_tilde == 0.0:
            continue
        lo, hi = _isolation_bracket(c)
        if hi <= lo:
            continue
        got = _stationary_points(_float_terms(c), lo, hi)
        want = _reference_stationary_points(c, lo, hi)
        assert got == sorted(set(want))
        copies += len(want) - len(got)
    assert copies > 0


def _near(x, points, rtol):
    return min(abs(x - p) for p in points) <= rtol * abs(x)


def test_stationary_points_match_the_splitting_isolation_oracle():
    # the monotonicity test changes how a root is found, not which: on
    # 20,000 sets every stationary point matches a root of the splitting
    # isolation and back, within 1e-14 relative, and the update loses at
    # most 1e-14 of objective value (relative beyond magnitude 1)
    rng = np.random.default_rng(16)
    for i in range(20_000):
        c = random_coefficients(rng, k=1 + i % 6, zero_energy_prob=0.0)
        lo, hi = _isolation_bracket(c)
        if hi <= lo:
            continue
        got = _stationary_points(_float_terms(c), lo, hi)
        want = _splitting_isolation(c, lo, hi)
        assert all(_near(r, want, 1e-14) for r in got), (c, got, want)
        assert all(_near(w, got, 1e-14) for w in want), (c, got, want)
        new = univariate_objective(c, update_v_rootfind(c))
        old = univariate_objective(c, _reference_rootfind(c, points=lambda *_: list(want)))
        assert new >= old - 1e-14 * max(1.0, abs(old)), c


def test_tangent_stationary_point_takes_the_leaf_path(monkeypatch):
    # the second derivative vanishes at a tangent point, so no bracket
    # around it passes the monotonicity test: it is split down to leaves,
    # as the splitting isolation does, and the update keeps its value.
    # The isolation also polishes leaves beside the tangent point that
    # hold no sign change; the monotone brackets there hold no root
    leaves = []
    real = vupdate._newton_polish
    monkeypatch.setattr(vupdate, "_newton_polish", lambda *args: leaves.append(args) or real(*args))
    for d, g, r in _TANGENTS:
        c = _tangent_coefficients(d, g, r)
        t = c.gamma + r
        assert abs(univariate_derivative(c, r)) <= 1e-14 * float(np.sum(c.alpha / t))
        assert abs(_second_derivative(_float_terms(c), r)) <= 1e-14 * float(np.sum(c.alpha / t**2))
        lo, hi = _isolation_bracket(c)
        leaves.clear()
        got = _stationary_points(_float_terms(c), lo, hi)
        width = _ISOLATION_WIDTH_RTOL * (1.0 + hi)
        assert leaves and all(abs(v - r) <= 10 * width for _, v, _, _ in leaves)
        want = _splitting_isolation(c, lo, hi)
        assert min(abs(p - r) for p in got) <= 10 * width
        # the polish divides by a second derivative that is all rounding
        # there, so tangent candidates agree only to about the leaf width
        assert all(_near(p, want, 1e-9) for p in got)
        new = univariate_objective(c, update_v_rootfind(c))
        old = univariate_objective(c, _reference_rootfind(c, points=lambda *_: list(want)))
        assert new >= old - 1e-14 * max(1.0, abs(old))


def test_float_sums_match_numpy(rng):
    # the rootfind first and second derivatives and both sums of the doc
    # slope; numpy sums fewer than 8 entries in order, so for k <= 6 the
    # rounding is the same
    eps = np.finfo(float).eps
    for k in range(1, 11):
        for _ in range(200):
            c = random_coefficients(rng, k=k)
            v = float(10 ** rng.uniform(-12.0, 2.0))
            t = c.gamma + v
            pairs = tuple(zip(c.beta.tolist(), c.gamma.tolist()))
            terms = _float_terms(c)
            got = (_derivative(terms, v), *_doc_slope(pairs, 0.0, v), _second_derivative(terms, v))
            want = (univariate_derivative(c, v), *_reference_doc_slope(c, 0.0, v), _reference_second_derivative(c, v))
            if k <= 6:
                assert got == want
            else:
                # each sum gets the scale of its own terms
                scales = (float(np.sum(c.alpha / t + c.beta / t**2)),) * 2
                scales += (float(np.sum(2.0 * c.beta / t**3)), float(np.sum(c.alpha / t**2 + 2.0 * c.beta / t**3)))
                assert all(abs(g - w) <= 16 * (k + 1) * eps * s for g, w, s in zip(got, want, scales))


def test_newton_polish_matches_numpy_reference_from_any_start(rng):
    # far from a root the four Newton steps do not converge, so every
    # step's rounding, the second derivative's included, reaches the result
    for k in range(1, 7):
        for _ in range(300):
            c = random_coefficients(rng, k=k)
            lo, hi = sorted(float(x) for x in 10 ** rng.uniform(-3.0, 1.5, size=2))
            v0 = float(rng.uniform(lo, hi))
            assert _newton_polish(_float_terms(c), v0, lo, hi) == _reference_newton_polish(c, v0, lo, hi)


def test_updates_and_minorizers_match_numpy_reference_exactly():
    rng = np.random.default_rng(4)
    for c, v_t, v in _criterion4_sets(rng, range(1, 7), 2400):
        for method in V_METHODS:
            got = _outcome(update_v, method, c, v_t)
            assert got == _outcome(_REFERENCE_UPDATES[method], c, v_t), (method, c, v_t)
        for kind in MINORIZER_KINDS:
            assert eval_minorizer(kind, c, v, v_t) == _reference_eval_minorizer(kind, c, v, v_t)
            assert eval_minorizer(kind, c, v_t, v_t) == univariate_objective(c, v_t)


def test_solvable_terms_square_the_anchor_as_a_product():
    # on anchors where Python's v**2 (libm pow) and the correctly rounded
    # v*v differ in the last bit, the surrogate terms use the product
    rng = np.random.default_rng(11)
    v = 10 ** rng.uniform(-2.0, 2.0, 20_000)
    anchors = [x for x, y in zip(v.tolist(), (v * v).tolist()) if x**2 != y][:20]
    assert len(anchors) == 20
    for v_t in anchors:
        c = random_coefficients(rng, zero_energy_prob=0.0)
        assert _solvable_terms(c, v_t)[2] == _reference_solvable_terms(c, v_t)[2]


def test_cubic_update_ranks_its_positive_roots():
    # sets whose cubic has several positive roots: the update returns the
    # one with the largest surrogate value, where the surrogate's
    # derivative crosses from + to -
    rng = np.random.default_rng(7)
    multi = 0
    for c, v_t, _ in _criterion4_sets(rng, range(1, 7), 8000):
        if c.beta_tilde == 0.0 or _reference_solvable_terms(c, v_t)[4] == 0.0:
            continue
        roots = _positive_cubic_roots(c, v_t)
        if len(roots) < 2:
            continue
        multi += 1
        v_new = update_v_cubic(c, v_t)
        values = [eval_minorizer("cubic", c, r, v_t) for r in roots]
        assert v_new == roots[int(np.argmax(values))]
        assert _cubic_crosses_down(c, v_new, v_t)
    assert multi >= 20


def test_updates_match_numpy_reference_for_large_k():
    # numpy sums 8 or more entries pairwise, so the float loops may round
    # the derivative or the doc slope differently in the last digit, and
    # the root solvers may take other steps: rootfind agrees within 1e-13
    # relative and doc within 1e-12 * (1 + v_t) absolute
    rng = np.random.default_rng(5)
    for c, v_t, _ in _criterion4_sets(rng, range(7, 11), 400):
        for method in V_METHODS:
            got = update_v(method, c, v_t)
            want = _REFERENCE_UPDATES[method](c, v_t)
            if method == "rootfind":
                assert abs(got - want) <= 1e-13 * abs(want)
            elif method == "doc":
                assert abs(got - want) <= 1e-12 * (1.0 + v_t)
            else:
                assert got == want


def test_doc_update_is_the_zero_of_its_surrogate_slope():
    # the safeguarded Newton lands within 1e-14 relative of the zero of
    # the surrogate slope, which a numpy bisection locates down to
    # adjacent doubles (a bisection stopped at 1e-12 * (1 + v_t) absolute
    # is off by up to 2.1e-11 relative on these sets)
    rng = np.random.default_rng(23)
    for i in range(2400):
        c = random_coefficients(rng, k=1 + i % 6, zero_energy_prob=0.0)
        v_t = float(10 ** rng.uniform(-2.0, 1.5))
        zeta_full, a, b = _reference_doc_bracket(c, v_t)
        slope = lambda x: _reference_doc_slope(c, zeta_full, x)[0]
        assert slope(a) > 0.0 >= slope(b)
        while True:
            m = 0.5 * (a + b)
            if m in (a, b):
                break
            if slope(m) > 0.0:
                a = m
            else:
                b = m
        got = update_v_doc(c, v_t)
        assert abs(got - b) <= 1e-14 * b, (c, v_t, got, a, b)


def test_fit_traces_match_numpy_reference_updates(monkeypatch):
    data = GroupedData.from_samples(np.random.default_rng(9).standard_normal((30, 90)), [60, 30])
    for method in V_METHODS:
        cfg = FitConfig(rank=3, v_method=method, max_iters=25, tol=0.0)
        new = fit(data, cfg)
        with monkeypatch.context() as m:
            # the fitter's one all-groups call, made group by group
            m.setattr(
                fitter,
                "update_v",
                lambda name, c, v_t: np.array([_REFERENCE_UPDATES[name](c.group(l), v) for l, v in enumerate(v_t)]),
            )
            ref = fit(data, cfg)
        assert np.array_equal(new.trace.loglik, ref.trace.loglik), method
        assert np.array_equal(new.trace.v, ref.trace.v), method
        assert np.array_equal(new.model.F, ref.model.F), method


def _all_groups_cases():
    data = generate(preset_truth(2.0, seed=0), seed=0)
    rng = np.random.default_rng(8)
    zero = GroupedData([rng.standard_normal((10, 50)), np.zeros((10, 5))])
    return {
        # fig3's Gram roots, as the harness fits them (L=2)
        "fig3": (compress_gram(data), 3),
        # fig6's one-sample groups (L=1000)
        "fig6-block1": (_split_into_blocks(data, 1), 3),
        # rows of 8 nonzero-gamma entries, which numpy sums pairwise
        "k8": (GroupedData.from_samples(np.random.default_rng(2).standard_normal((20, 120)), [40, 50, 30]), 8),
        # a group with no residual energy takes the exact-zero branches
        "zero-residual": (zero, 2),
    }


@pytest.mark.parametrize("case", ["fig3", "fig6-block1", "k8", "zero-residual"])
def test_all_groups_update_equals_per_group_updates(case):
    data, k = _all_groups_cases()[case]
    # anchors that differ from group to group: a few em iterations in
    model = fit(data, FitConfig(rank=k, max_iters=3, tol=0.0)).model
    if case == "zero-residual":
        model = model._with_v(np.array([0.7, 1.3]))
    coefs = group_coefficients(data, model)
    # the batched surrogate terms: each row reduces as one group's vector
    terms = _solvable_terms(coefs, model.v)
    for l, v_t in enumerate(model.v.tolist()):
        assert [t[l] for t in terms[1:]] == list(_solvable_terms(coefs.group(l), v_t)[1:])
    for method in V_METHODS:
        got = update_v(method, coefs, model.v)
        want = [update_v(method, coefs.group(l), v) for l, v in enumerate(model.v.tolist())]
        assert isinstance(got, np.ndarray) and np.array_equal(got, want), method
    if case == "zero-residual":
        assert got[1] == 0.0


def test_all_groups_update_rejects_bad_anchors():
    data, k = _all_groups_cases()["fig3"]
    model = fit(data, FitConfig(rank=k, max_iters=1)).model
    coefs = group_coefficients(data, model)
    for v_t in ([1.0], [1.0, 0.0], [1.0, np.inf], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="anchor"):
            update_v("em", coefs, v_t)
