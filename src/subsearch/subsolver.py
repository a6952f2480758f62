"""Low-dimensional subspace subproblem solver.

Damped Newton steps on the subproblem's exact Hessian, safeguarded by a
non-monotone Armijo backtracking rule.  Starts at zero (unless
warm-started) and returns the best point seen, so the result can never be
worse than the zero step.  A zero or repeated direction makes the Hessian
singular; its flat modes are left at 0 (see `_newton_direction`), so such a
restriction solves as the one over its independent directions.

A solve ends at the first of these, recorded as its `reason` (the
vocabulary `linesearch.Reason` shares with the Wolfe search):

  "converged"       the gradient norm meets the tolerance
  "rounding_floor"  the last accepted step changed f by no more than
                    `linesearch.rounding_floor(f)`, and neither does the
                    decrease -g.d that the next Newton step predicts at its
                    full length, before any backtracking; testing both keeps
                    a Newton step that still has a real decrease to make
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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .linesearch import Reason, rounding_floor


@dataclass
class SubProblem:
    dim: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]    # dense, exact


_MEMORY = 10                # values in the non-monotone Armijo reference
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 60
_GRAD_TOL = 1e-10           # relative to max(1, |g|) at the start


_THETA_CAP = 1e8            # trial points beyond this box are rejected


@dataclass
class SubSolverOptions:
    max_iters: int = 100


@dataclass
class SubSolveResult:
    theta: np.ndarray
    value: float
    inner_iters: int
    reason: Reason

    @property
    def converged(self) -> bool:
        return self.reason == "converged"


def _safe_value(phi, theta):
    """phi(theta), or inf for a non-finite value or a theta outside the box
    (a NaN coordinate is outside it too)."""
    if not all(-_THETA_CAP <= t <= _THETA_CAP for t in theta.tolist()):
        return np.inf
    v = float(phi(theta))
    return v if math.isfinite(v) else np.inf


def _norm(g):
    """np.linalg.norm(g) of a 1-d float array, as a Python float."""
    return math.sqrt(float(g.dot(g)))


# an eigenvalue of the subproblem Hessian at or below this fraction of its
# largest one marks a flat mode
_FLAT_RCOND = 1e-10


def _lapack_failed(err, flag):
    raise LinAlgError(f"LAPACK failed ({err} flag)")


def _lapack_errstate():
    """The errstate np.linalg.eigvalsh and np.linalg.solve run their LAPACK
    gufuncs under: the invalid flag a failed call sets (no convergence, a
    singular LU) raises LinAlgError; overflow, divide and underflow are
    ignored."""
    return np.errstate(call=_lapack_failed, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def _newton_direction(H, g, tol):
    """Damped-Newton search direction.

    A positive definite H gives the plain Newton direction -H^{-1} g.
    Otherwise the step is taken on |H| (each eigenvalue replaced by its
    magnitude), so a concave mode is descended rather than climbed toward
    a saddle.  A flat mode on which the gradient already meets `tol` is
    left where it is: it comes from a zero or repeated direction (exactly,
    or up to rounding, as the momentum terms right after a restart), and
    solving for it would turn rounding noise into an O(1) step that does
    not move the objective.  When a flat mode carries more gradient than
    that, every mode is solved for, an exactly zero eigenvalue taking the
    flat threshold as its magnitude.  An exactly zero H gives -g.

    The eigenvalues alone settle the common case: when the smallest clears
    the flat threshold, H is positive definite with no flat mode, and one
    LU solve gives the step; the eigenvectors are formed only otherwise.
    That path calls the LAPACK gufuncs behind np.linalg.eigvalsh and
    np.linalg.solve under their errstate, so it returns their bits, raises
    where eigvalsh raises, and falls through where solve raises, without
    their wrappers' cost (a few µs per call at this size).
    """
    with _lapack_errstate():
        w = _umath_linalg.eigvalsh_lo(H, signature="d->d")
        lo, hi = float(w[0]), float(w[-1])
        if lo > _FLAT_RCOND * max(-lo, hi):
            try:
                return _umath_linalg.solve1(H, -g, signature="dd->d")
            except LinAlgError:     # singular to LU: solve per mode
                pass
    w, V = np.linalg.eigh(H)
    flat = _FLAT_RCOND * float(np.max(np.abs(w)))
    if flat == 0:
        return -g
    keep = np.abs(w) > flat
    if np.linalg.norm(V[:, ~keep].T @ g) > tol:
        keep[:] = True
    if np.all(keep) and w[0] > 0:
        try:
            return np.linalg.solve(H, -g)
        except LinAlgError:     # singular to LU: solve per mode
            pass
    V, w = V[:, keep], np.abs(w[keep])
    return -V @ ((V.T @ g) / np.where(w == 0, flat, w))


def solve(sp: SubProblem, opts: SubSolverOptions | None = None,
          theta0: np.ndarray | None = None) -> SubSolveResult:
    """Minimize sp.value, guaranteeing value(theta*) <= value(0)."""
    opts = opts or SubSolverOptions()
    zero = np.zeros(sp.dim)
    f_zero = float(sp.value(zero))
    if not math.isfinite(f_zero):
        raise ValueError("subproblem value at zero must be finite")

    best_theta, best_f = zero.copy(), f_zero

    theta, f = zero.copy(), f_zero
    if theta0 is not None:
        theta0 = np.asarray(theta0, dtype=np.float64)
        f0 = _safe_value(sp.value, theta0)
        if f0 < best_f:
            best_theta, best_f = theta0.copy(), f0
        if math.isfinite(f0):
            theta, f = theta0.copy(), f0

    g = np.asarray(sp.grad(theta), dtype=np.float64)
    tol = _GRAD_TOL * max(1.0, _norm(g))
    recent = [f]

    iters = 0
    reason = "max_iters"
    last_change = None      # |f change| of the last accepted step
    for iters in range(1, opts.max_iters + 1):
        gnorm = _norm(g)
        if gnorm <= tol:
            reason = "converged"
            break
        if not math.isfinite(gnorm):
            reason = "nonfinite"
            break

        direction = _newton_direction(sp.hess(theta), g, tol)
        slope = float(g @ direction)
        if (last_change is not None
                and max(last_change, -slope) <= rounding_floor(f)):
            reason = "rounding_floor"
            break
        f_ref = max(recent)
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            trial = theta + t * direction
            f_trial = _safe_value(sp.value, trial)
            if f_trial <= f_ref + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            reason = "backtrack_fail"
            break

        last_change = abs(f_trial - f)
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
