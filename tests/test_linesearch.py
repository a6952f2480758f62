"""Wolfe search, doubling backtracking, and the FISTA schedule."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsearch.linesearch import (_C1, _C2, _MAX_EVALS, LineSearchError,
                                  backtrack_half, fista_momentum,
                                  rounding_floor, strong_wolfe)


def wolfe_holds(phi, dphi, res, c1=1e-4, c2=0.9):
    phi0, g0 = phi(0.0), dphi(0.0)
    a = res.alpha
    return (phi(a) <= phi0 + c1 * a * g0 + 1e-12 * max(1, abs(phi0))
            and abs(dphi(a)) <= c2 * abs(g0) + 1e-12 * abs(g0))


def test_wolfe_on_quadratic():
    phi = lambda a: (a - 2.0) ** 2
    dphi = lambda a: 2.0 * (a - 2.0)
    res = strong_wolfe(phi, dphi, alpha_init=1.0)
    assert res.success and res.verified
    assert wolfe_holds(phi, dphi, res)


def test_wolfe_on_nonquadratic():
    phi = lambda a: -a / (a * a + 2.0)
    dphi = lambda a: -(2.0 - a * a) / (a * a + 2.0) ** 2
    for a0 in (1e-3, 0.1, 1.0, 10.0):
        res = strong_wolfe(phi, dphi, alpha_init=a0)
        assert res.success
        assert wolfe_holds(phi, dphi, res)


def test_wolfe_verified_flag_uses_direct_evaluation():
    calls = []

    def phi(a):
        calls.append(a)
        return (a - 1.0) ** 2

    res = strong_wolfe(phi, lambda a: 2 * (a - 1.0), alpha_init=1.0)
    assert res.verified
    # the final alpha appears at least twice: once found, once re-verified
    assert calls.count(res.alpha) >= 2


def test_wolfe_requires_descent():
    with pytest.raises(LineSearchError):
        strong_wolfe(lambda a: a, lambda a: 1.0, 1.0)


def test_wolfe_budget_exhaustion_returns_best_armijo():
    # very flat curvature never satisfies c2 within the eval budget
    phi = lambda a: -1e-12 * a
    dphi = lambda a: -1e-12
    res = strong_wolfe(phi, dphi, 1.0)
    assert not res.success
    assert res.value <= phi(0.0)


def test_backtrack_half_doubles_until_sufficient_decrease():
    # f(w) = 0.5 * L_true * w^2 from w=1: needs L >= L_true
    L_true = 8.0
    f0, grad = 0.5 * L_true, L_true

    def value_at(L):
        w = 1.0 - grad / L
        return 0.5 * L_true * w * w

    L, f, doublings, reason = backtrack_half(value_at, f0, grad * grad, 1.0)
    assert reason == "converged"
    assert f <= f0 - grad * grad / (2 * L)
    assert L == 2.0 ** doublings >= L_true / 2
    assert doublings >= 1


def test_backtrack_half_rejects_zero_gradient():
    with pytest.raises(LineSearchError):
        backtrack_half(lambda L: 0.0, 1.0, 0.0, 1.0)


def test_backtrack_half_stops_at_the_rounding_floor():
    # f has stalled at 800 and the gradient is rounding-sized: every trial
    # reads f0 give or take one ulp, so the Armijo test passes only where
    # rounding happens to favour it
    f0, ulp = 800.0, np.spacing(800.0)
    grad_sq = 1e-3 * rounding_floor(f0)
    trials = []

    def stalled(L):
        trials.append(L)
        return f0 + ulp

    assert backtrack_half(stalled, f0, grad_sq, 4.0) == (
        4.0, f0, 0, "rounding_floor")
    assert trials == [4.0]

    # a predicted decrease above the floor keeps doubling until it is not,
    # and returns the given L, not the doubled one
    trials.clear()
    L, f, doublings, reason = backtrack_half(stalled, f0,
                                             4.0 * rounding_floor(f0), 1.0)
    assert (L, f, reason) == (1.0, f0, "rounding_floor")
    assert doublings == 2 and trials == [1.0, 2.0, 4.0]

    # a trial that clears the Armijo test is still taken, floor or not
    assert backtrack_half(lambda L: f0 - ulp, f0, grad_sq, 4.0) == (
        4.0, f0 - ulp, 0, "converged")

    # trials that settle a few floors off f0 (f0 read at another image of
    # the point) stop once two in a row agree within the floor
    trials.clear()

    def settled(L):
        trials.append(L)
        return f0 + 3 * rounding_floor(f0)

    L, f, doublings, reason = backtrack_half(settled, f0,
                                             4.0 * rounding_floor(f0), 1.0)
    assert (L, f, reason) == (1.0, f0, "rounding_floor")
    assert doublings == 2 and trials == [1.0, 2.0, 4.0]

    # a trial that never turns finite still exhausts the curvature cap
    with pytest.raises(LineSearchError, match="curvature estimate"):
        backtrack_half(lambda L: float("inf"), f0, grad_sq, 4.0)


def test_fista_schedule_matches_reference():
    t = 1.0
    ts = [t]
    for _ in range(10):
        t, gamma = fista_momentum(t)
        ts.append(t)
        t_prev = ts[-2]
        assert abs(t - 0.5 * (1 + np.sqrt(1 + 4 * t_prev ** 2))) < 1e-12
        assert abs(gamma - (t_prev - 1) / t) < 1e-12


def test_wolfe_stops_at_rounding_floor_with_the_zero_step():
    # f has stalled at 800: phi'(0) is rounding noise and every trial reads
    # phi(0) give or take one ulp, so no step can show a decrease
    ulp = np.spacing(800.0)
    rng = np.random.default_rng(0)

    def phi(a):
        return 800.0 if a == 0 else 800.0 + ulp * float(rng.integers(-1, 2))

    for a0 in (1.0, 0.5, 1e-3):
        res = strong_wolfe(phi, lambda a: -1e-13, a0)
        assert res.reason == "rounding_floor" and not res.success
        assert res.evals <= 4
        assert res.alpha == 0.0 and res.value == 800.0
    # at the floor even the sign of phi'(0) is noise: no error, no step
    res = strong_wolfe(phi, lambda a: 4.5e-16, 0.25)
    assert res.reason == "rounding_floor" and res.alpha == 0.0


def test_wolfe_floor_stop_keeps_an_armijo_step_that_clears_it():
    # a decrease far above the floor at a = 1, then a rounding-sized bracket
    g0 = -1e-14

    def phi(a):
        return 800.0 - 1e-11 if 0.9 < a < 1.1 else 800.0

    res = strong_wolfe(phi, lambda a: g0, 1.0)
    assert res.reason == "rounding_floor"
    assert res.alpha == 1.0 and res.value == 800.0 - 1e-11


def test_wolfe_floor_never_overrides_both_conditions():
    # a trial passing both tests is accepted, however small its effect
    res = strong_wolfe(lambda a: 800.0, lambda a: -1e-13 if a == 0 else 0.0,
                       1.0)
    assert res.reason == "converged" and res.success and res.alpha == 1.0


def test_wolfe_budget_exhaustion_reason_is_max_iters():
    # phi(0) = 0 puts the rounding floor at zero, so only the budget ends it
    res = strong_wolfe(lambda a: -1e-12 * a, lambda a: -1e-12, 1.0)
    assert res.reason == "max_iters"
    assert strong_wolfe(lambda a: (a - 2.0) ** 2, lambda a: 2.0 * (a - 2.0),
                        1.0).reason == "converged"


def _line(kind, p):
    """phi and phi' of one 1-d family member with parameters `p`."""
    if kind == "quadratic":
        off, g, c = p
        return (lambda a: off + g * a + 0.5 * c * a * a,
                lambda a: g + c * a)
    if kind == "quartic":
        c0, c1, c2, c3, c4 = p
        return (lambda a: c0 + a * (c1 + a * (c2 + a * (c3 + a * c4))),
                lambda a: c1 + a * (2 * c2 + a * (3 * c3 + a * 4 * c4)))
    if kind == "logistic":
        z, q = np.array(p[0]), np.array(p[1])
        return (lambda a: float(np.logaddexp(0.0, -(z + a * q)).sum()),
                lambda a: float((-q * np.exp(-np.logaddexp(0.0, z + a * q)))
                                .sum()))
    # a large offset, a tiny slope and rounding-sized noise that the slope
    # does not see
    off, g, c, noise, w = p
    return (lambda a: off + g * a + 0.5 * c * a * a + noise * math.sin(w * a),
            lambda a: g + c * a)


def _exp10(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


_sign = st.sampled_from((-1.0, 1.0))


@st.composite
def _line_cases(draw):
    kind = draw(st.sampled_from(("quadratic", "quartic", "logistic",
                                 "rounding")))
    if kind == "quadratic":
        scale = draw(_exp10(-8, 8))
        off = draw(st.sampled_from((0.0, 1.0))) * draw(_exp10(0, 12))
        p = (off * draw(_sign), -scale * draw(_exp10(-4, 2)),
             scale * draw(_exp10(-3, 3)))
    elif kind == "quartic":
        c = draw(st.lists(st.floats(-10, 10), min_size=5, max_size=5))
        scale = draw(_exp10(-4, 4))
        c[1], c[4] = -abs(c[1]) - 1e-6, abs(c[4]) + 1e-3
        p = tuple(scale * x for x in c)
    elif kind == "logistic":
        m = draw(st.integers(1, 8))
        z = draw(st.lists(st.floats(-6, 6), min_size=m, max_size=m))
        q = draw(st.lists(st.floats(0.1, 10), min_size=m, max_size=m))
        # q > 0 with every margin rising along the line: a descent slope
        p = (tuple(z), tuple(x * draw(_exp10(-3, 2)) for x in q))
    else:
        off = draw(_exp10(0, 12))
        p = (off * draw(_sign), -off * draw(_exp10(-20, -12)),
             off * draw(_exp10(-20, 0)),
             off * draw(st.floats(0, 4)) * np.finfo(float).eps,
             draw(_exp10(-3, 3)))
    return kind, p, draw(_exp10(-10, 10))


# a rounding-floor stop and a budget stop, each after the bracket closed:
# halving a rejected first trial until its change is rounding-sized, and
# halving one too long by a factor of 2^50 (phi(0) = 0 puts the floor at 0)
_FLOOR_AFTER_BRACKET = ("quadratic", (1e6, -1e-9, 2.0), 1.0)
_BUDGET_AFTER_BRACKET = ("quadratic", (0.0, -1e-3, 500.0), 3e9)


@settings(max_examples=400)
@example(_FLOOR_AFTER_BRACKET)
@example(_BUDGET_AFTER_BRACKET)
@given(_line_cases())
def test_wolfe_result_keeps_its_contract_on_random_lines(case):
    """Whatever the reason, the result is a step no worse than alpha = 0
    whose value is phi's own; a converged step meets both Wolfe conditions
    within the re-check's 1e-12 slack, and a floor stop never returns a
    step whose decrease is rounding-sized.  A trial begun within the
    budget may still add its slope, so a search spends at most one
    evaluation past `_MAX_EVALS`."""
    kind, p, alpha_init = case
    phi, dphi = _line(kind, p)
    phi0, g0 = phi(0.0), dphi(0.0)
    assert g0 < 0
    res = strong_wolfe(phi, dphi, alpha_init)
    assert res.alpha >= 0 and res.evals <= _MAX_EVALS + 1
    assert res.value == phi(res.alpha) and res.value <= phi0
    if res.reason == "converged":
        assert res.verified
        assert (phi(res.alpha) <= phi0 + _C1 * res.alpha * g0
                + 1e-12 * max(1.0, abs(phi0)))
        assert abs(dphi(res.alpha)) <= _C2 * abs(g0) + 1e-12 * abs(g0)
    else:
        assert res.reason in ("rounding_floor", "max_iters")
        assert not res.verified
    if res.reason == "rounding_floor":
        assert (res.alpha == 0.0
                or phi0 - res.value > rounding_floor(phi0))


@pytest.mark.parametrize("case, reason", [
    (_FLOOR_AFTER_BRACKET, "rounding_floor"),
    (_BUDGET_AFTER_BRACKET, "max_iters")])
def test_wolfe_stops_at_the_floor_and_the_budget_after_the_bracket_closed(
        case, reason):
    # a trial below the one before it is a midpoint, tried only once the
    # bracket has closed
    kind, p, alpha_init = case
    phi, dphi = _line(kind, p)
    trials = []

    def recorded(a):
        trials.append(a)
        return phi(a)

    res = strong_wolfe(recorded, dphi, alpha_init)
    assert res.reason == reason
    assert any(b < a for a, b in zip(trials[1:], trials[2:]))
