"""Classic step-size rules: strong Wolfe search and doubling 1/L backtracking.

These operate on 1-d callbacks so callers decide whether evaluations are
margin-space (free) or full-space (counted).

Every inner search, the two here and `subsolver.solve`, stops at
the rounding floor: once neither the decrease a step predicts nor the change
it makes is larger than a few ulps of |f| (`rounding_floor`), no step can
change f and further trials only shuffle rounding noise.  This is the
rounding-aware stop of Hager and Zhang's approximate Wolfe conditions (SIAM
J. Optim. 2005).  Each search records why it ended in a `reason` shared by
`WolfeResult`, `backtrack_half` and `subsolver.SubSolveResult`:

  "converged"       the search's own test holds (both Wolfe conditions;
                    the Armijo test of the 1/L search; the subsolver's
                    gradient tolerance)
  "rounding_floor"  no step can change f beyond rounding
  "max_iters"       the evaluation or iteration budget ran out
  "backtrack_fail"  no backtracked trial was accepted (subsolver)
  "nonfinite"       the gradient stopped being finite (subsolver)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

Reason = Literal["converged", "rounding_floor", "max_iters",
                 "backtrack_fail", "nonfinite"]

# changes of f within 8 ulps of |f| are rounding
_ROUNDING_REL = 8 * float(np.finfo(np.float64).eps)


def rounding_floor(f: float) -> float:
    """The change of f that rounding alone can make at f."""
    return _ROUNDING_REL * abs(f)


class LineSearchError(ValueError):
    pass


# strong Wolfe constants: the sufficient-decrease and curvature parameters
# (0 < _C1 < _C2 < 1), the budget of phi and dphi evaluations per search and
# the bracketing growth factor
_C1 = 1e-4
_C2 = 0.9
_MAX_EVALS = 50
_GROWTH = 2.0


@dataclass
class WolfeResult:
    alpha: float
    value: float
    reason: Reason
    verified: bool         # postcondition re-checked by direct evaluation
    evals: int

    @property
    def success(self) -> bool:
        """Both Wolfe conditions hold at alpha."""
        return self.reason == "converged"


def strong_wolfe(phi: Callable[[float], float],
                 dphi: Callable[[float], float],
                 alpha_init: float) -> WolfeResult:
    """One loop over a bracket (Nocedal and Wright, algs. 3.5 and 3.6): the
    step doubles until a trial is rejected or its slope turns, and from
    then on each trial is the bracket's midpoint.

    A trial that passes both conditions is accepted.  A trial the search
    would go on from, whose predicted decrease a |phi'(0)| and observed
    change |phi(a) - phi(0)| are both within `rounding_floor(phi(0))`, ends
    it with reason "rounding_floor": the result is the best Armijo step
    whose decrease clears that floor, or alpha=0; a rounding-sized step is
    never returned, since it carries no information about f.  A slope
    phi'(0) >= 0 ends it the same way when alpha_init phi'(0) is within the
    floor (its sign is rounding noise) and raises LineSearchError
    otherwise.  On budget exhaustion ("max_iters") the result is the best
    Armijo step seen, or alpha=0 if there is none.
    """
    phi0 = phi(0.0)
    g0 = dphi(0.0)
    evals = 2
    a = max(alpha_init, 1e-16)
    floor = rounding_floor(phi0)
    if g0 >= 0:
        # at the floor the sign of a rounding-sized slope is noise
        if a * g0 <= floor:
            return WolfeResult(0.0, phi0, "rounding_floor", False, evals)
        raise LineSearchError("strong_wolfe needs a descent direction")

    best_armijo = None  # (alpha, value)

    def armijo_ok(a, fa):
        return fa <= phi0 + _C1 * a * g0

    def note(a, fa):
        nonlocal best_armijo
        if armijo_ok(a, fa) and (best_armijo is None or fa < best_armijo[1]):
            best_armijo = (a, fa)

    def finish(a, fa):
        # re-verify by direct evaluation, not from loop bookkeeping: phi and
        # dphi are read again at a, and since the closures are pure, a
        # closure that keeps its last point (the tracked models' do) serves
        # both from memory
        va = phi(a)
        da = dphi(a)
        ok = (va <= phi0 + _C1 * a * g0 + 1e-12 * max(1.0, abs(phi0))
              and abs(da) <= _C2 * abs(g0) + 1e-12 * abs(g0))
        return WolfeResult(a, fa, "converged", bool(ok), evals)

    def lost(a, fa):
        return -a * g0 <= floor and abs(fa - phi0) <= floor

    def fail(reason="max_iters"):
        if best_armijo is not None and (reason == "max_iters"
                                        or phi0 - best_armijo[1] > floor):
            a, fa = best_armijo
            return WolfeResult(a, fa, reason, False, evals)
        return WolfeResult(0.0, phi0, reason, False, evals)

    # the bracket: trials step from lo, the best accepted trial so far
    # (f_lo its value), toward hi, the last rejected trial or an accepted
    # one whose slope pointed back; hi is None while the step doubles
    lo, f_lo, hi = 0.0, phi0, None
    # as in alg. 3.5, the first trial is exempt from the fa >= f_lo test;
    # that decides only where phi0 + _C1 a g0 rounds to phi0, so that a
    # trial at phi0 passes Armijo
    first = True
    while evals < _MAX_EVALS:
        fa = phi(a)
        evals += 1
        note(a, fa)
        rejected = not armijo_ok(a, fa) or (not first and fa >= f_lo)
        first = False
        if not rejected:
            ga = dphi(a)
            evals += 1
            if abs(ga) <= -_C2 * g0:
                return finish(a, fa)
        if lost(a, fa):
            return fail("rounding_floor")
        if rejected:
            hi = a
        else:
            if (ga >= 0) if hi is None else (ga * (hi - lo) >= 0):
                hi = lo
            lo, f_lo = a, fa
        a = _GROWTH * lo if hi is None else 0.5 * (lo + hi)
    return fail()


# backtrack_half gives up once its curvature estimate passes this
MAX_L = 1e30


def backtrack_half(value_at: Callable[[float], float],
                   f0: float, grad_sq: float,
                   L: float) -> tuple[float, float, int, Reason]:
    """Double L until f(w - (1/L) grad) <= f0 - (1/(2L)) ||grad||^2.

    value_at(L) must return the objective at the step with constant 1/L,
    and the search starts from the estimate `L` > 0.  Returns (L, accepted
    value, number of doublings, reason).  With reason "converged" the
    accepted L is the one whose trial evaluation satisfied the inequality
    directly.  A rejected trial whose predicted decrease ||grad||^2 / L is
    within `rounding_floor(f0)`, and that agrees with f0 or with the
    previous trial within that floor, ends the search with reason
    "rounding_floor": no step can change f beyond rounding, so it returns
    the given L and f0, and the caller takes the zero step.  The previous
    trial counts because f0 may be read at a different image of the same
    point than the trials are (nag's tracked extrapolated point against
    fresh products), so rounding-sized trials may settle a few floors away
    from f0 and stay there.  A trial that stays non-finite or above the
    floor until L passes MAX_L raises LineSearchError.
    """
    if grad_sq <= 0:
        raise LineSearchError("backtrack_half needs a nonzero gradient")
    floor = rounding_floor(f0)
    L0, doublings, f_prev = L, 0, f0
    while True:
        f_trial = value_at(L)
        if np.isfinite(f_trial) and f_trial <= f0 - grad_sq / (2.0 * L):
            return L, f_trial, doublings, "converged"
        if grad_sq / L <= floor and (abs(f_trial - f0) <= floor
                                     or abs(f_trial - f_prev) <= floor):
            return L0, f0, doublings, "rounding_floor"
        f_prev = f_trial
        L *= 2.0
        doublings += 1
        if L > MAX_L:
            raise LineSearchError(f"curvature estimate exceeded {MAX_L:g}")


def fista_momentum(t: float) -> tuple[float, float]:
    """Next t in the (1 + sqrt(1 + 4 t^2))/2 schedule and the mixing weight."""
    t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
    return t_next, (t - 1.0) / t_next
