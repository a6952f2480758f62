"""Low-dimensional subspace subproblem solver.

Barzilai-Borwein spectral steps safeguarded by a non-monotone Armijo
backtracking rule; subproblems that expose a Hessian get damped Newton steps
instead.  Starts at zero (unless warm-started) and returns the best point
seen, so the result can never be worse than the zero step.

A solve ends at the first of these, recorded as its `reason` (the
vocabulary `linesearch.Reason` shares with the Wolfe search):

  "converged"       the gradient norm meets the tolerance
  "rounding_floor"  the last accepted step changed f by no more than
                    `linesearch.rounding_floor(f)`, and neither does the
                    decrease -t g.d that the next proposal predicts at its
                    full step t, before any backtracking; testing both keeps
                    a Newton step that still has a real decrease to make
                    (off with `floor_stop=False`)
  "max_iters"       the iteration cap
  "backtrack_fail"  no backtracked trial passes the Armijo test
  "nonfinite"       the gradient is not finite

Every reason returns the best point seen, except that a floor stop whose
best gain over the zero step is itself within the floor returns the zero
step, as the Wolfe search does: a rounding-sized step carries no
information, and as the next momentum direction it is noise.
`converged` is true for the first reason only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linesearch import Reason, rounding_floor


@dataclass
class SubProblem:
    dim: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    # optional dense Hessian; when present the solver tries damped Newton
    # steps first and falls back to the spectral step
    hess: Callable[[np.ndarray], np.ndarray] | None = None


_MEMORY = 10                # values in the non-monotone Armijo reference
_ARMIJO = 1e-4
_BB_MIN, _BB_MAX = 1e-10, 1e10
_MAX_BACKTRACKS = 60


@dataclass
class SubSolverOptions:
    max_iters: int = 100
    grad_tol: float = 1e-10
    theta_cap: float = 1e8           # reject trial points beyond this box
    # stop at the rounding floor; the full-space reference run turns this
    # off, since over thousands of spectral steps rounding-sized gains
    # still add up
    floor_stop: bool = True


@dataclass
class SubSolveResult:
    theta: np.ndarray
    value: float
    inner_iters: int
    reason: Reason

    @property
    def converged(self) -> bool:
        return self.reason == "converged"


def _safe_value(phi, theta, cap):
    if np.max(np.abs(theta)) > cap:
        return np.inf
    v = phi(theta)
    if not np.isfinite(v):
        return np.inf
    return float(v)


# an eigenvalue of the subproblem Hessian at or below this fraction of its
# largest one marks a flat mode
_FLAT_RCOND = 1e-10


def _newton_direction(H, g, tol):
    """Damped-Newton search direction, or None when H is singular.

    A positive definite H gives the plain Newton direction -H^{-1} g.
    Otherwise the step is taken on |H| (each eigenvalue replaced by its
    magnitude), so a concave mode is descended rather than climbed toward
    a saddle.  A flat mode on which the gradient already meets `tol` is
    left where it is: it comes from a zero or repeated direction whose
    images cancel only up to rounding (the momentum terms right after a
    restart), and solving for it would turn rounding noise into an O(1)
    step that does not move the objective.  An exactly singular H (an
    exactly zero direction, or an exactly zero eigenvalue on a mode the
    step would have to solve for) is left to the spectral step.
    """
    try:
        step = np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(step)):
        return None
    w, V = np.linalg.eigh(H)
    keep = np.abs(w) > _FLAT_RCOND * float(np.max(np.abs(w)))
    if np.linalg.norm(V[:, ~keep].T @ g) > tol:
        if not np.all(w):
            return None
        keep[:] = True
    if np.all(keep) and w[0] > 0:
        return step
    V = V[:, keep]
    return -V @ ((V.T @ g) / np.abs(w[keep]))


def solve(sp: SubProblem, opts: SubSolverOptions | None = None,
          theta0: np.ndarray | None = None) -> SubSolveResult:
    """Minimize sp.value, guaranteeing value(theta*) <= value(0)."""
    opts = opts or SubSolverOptions()
    p = sp.dim
    zero = np.zeros(p)
    f_zero = float(sp.value(zero))
    if not np.isfinite(f_zero):
        raise ValueError("subproblem value at zero must be finite")

    best_theta, best_f = zero.copy(), f_zero

    theta = zero.copy()
    f = f_zero
    if theta0 is not None:
        theta0 = np.asarray(theta0, dtype=np.float64)
        f0 = _safe_value(sp.value, theta0, opts.theta_cap)
        if f0 < best_f:
            best_theta, best_f = theta0.copy(), f0
        if np.isfinite(f0):
            theta, f = theta0.copy(), f0

    g = np.asarray(sp.grad(theta), dtype=np.float64)
    tol = opts.grad_tol * max(1.0, float(np.linalg.norm(g)))
    recent = [f]
    prev_theta = None
    prev_grad = None

    iters = 0
    reason = "max_iters"
    last_change = None      # |f change| of the last accepted step
    for iters in range(1, opts.max_iters + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            reason = "converged"
            break
        if not np.isfinite(gnorm):
            reason = "nonfinite"
            break

        direction = None
        if sp.hess is not None:
            cand = _newton_direction(sp.hess(theta), g, tol)
            if cand is not None and float(g @ cand) < 0:
                direction = cand
                t = 1.0

        if direction is None:
            direction = -g
            if prev_theta is None:
                t = 1.0 / max(1.0, gnorm)
            else:
                s = theta - prev_theta
                yv = g - prev_grad
                sy = float(s @ yv)
                if sy > 0:
                    t = float(s @ s) / sy
                    t = min(max(t, _BB_MIN), _BB_MAX)
                else:
                    t = 1.0

        slope = float(g @ direction)
        if (opts.floor_stop and last_change is not None
                and max(last_change, -t * slope) <= rounding_floor(f)):
            reason = "rounding_floor"
            break
        f_ref = max(recent)
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            trial = theta + t * direction
            f_trial = _safe_value(sp.value, trial, opts.theta_cap)
            if f_trial <= f_ref + _ARMIJO * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            reason = "backtrack_fail"
            break

        last_change = abs(f_trial - f)
        prev_theta, prev_grad = theta, g
        theta, f = trial, f_trial
        g = np.asarray(sp.grad(theta), dtype=np.float64)
        recent.append(f)
        if len(recent) > _MEMORY:
            recent.pop(0)
        if f < best_f:
            best_theta, best_f = theta.copy(), f

    if (reason == "rounding_floor"
            and f_zero - best_f <= rounding_floor(f_zero)):
        best_theta, best_f = zero, f_zero
    return SubSolveResult(best_theta, best_f, iters, reason)
