"""Gaussian precision fitting f(V) = Tr(SV) - log|V| over SPD matrices.

Steps move along one or two rank-1 directions u u^T, and each step size is
exact and in closed form: no subproblem solver runs, and every record has
`inner_iters` 0.  Rank-2 makes its second direction V^{-1}-orthogonal to the
first, so by the matrix determinant lemma the step's determinant factor is
(1 + t1 u'V^{-1}u)(1 + t2 w'V^{-1}w) and the restriction separates into two
1-d problems, each minimized at t = 1/(x'Sx) - 1/(x'V^{-1}x), whose factor
(x'V^{-1}x)/(x'Sx) is positive, so V stays positive definite.  A rank-1 step
costs one metered linear solve and a rank-2 step exactly two.  The
log-determinant is tracked additively through the accepted factors and
re-derived from a fresh Cholesky factorization at the start of the step after
every `_REFACTOR_EVERY`-th, so the drift audit, which `run` takes after every
`_REFACTOR_EVERY`-th step, reads the drift of a whole cadence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counted import ProductCounter
from .optimizers import StepRecord, drive
# Every step is in closed form and never calls `solve`.  The name stays so
# that code patching each model module's `solve` (perfbench/probe.py) finds
# it here as in the other model modules.
from .subsolver import solve  # noqa: F401


# steps between fresh Cholesky factorizations of the tracked log|V|, and
# between drift audits
_REFACTOR_EVERY = 50


class NotPositiveDefiniteError(ValueError):
    pass


def chol_logdet(V: np.ndarray) -> float:
    """log det V from one Cholesky factorization of an SPD V."""
    try:
        L = np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("matrix is not positive definite")
    return 2.0 * float(np.sum(np.log(np.diag(L))))


@dataclass
class SpdState:
    S: np.ndarray                   # empirical covariance, symmetric PSD
    V: np.ndarray                   # current SPD iterate
    logdet_V: float                 # tracked log|V|
    solver: ProductCounter = field(default_factory=ProductCounter)
    audit_solver: ProductCounter = field(default_factory=ProductCounter)
    # cached direction and its solve from the previous step, used to
    # propose the next direction without an extra solve
    u_prev: np.ndarray | None = None
    u_prev_tilde: np.ndarray | None = None
    k: int = 0

    def solve_system(self, b: np.ndarray, audit: bool = False) -> np.ndarray:
        """V x = b; one metered solve."""
        (self.audit_solver if audit else self.solver).bump()
        try:
            return np.linalg.solve(self.V, b)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError("linear solve failed on V")


def init_state(S: np.ndarray, V0: np.ndarray | None = None) -> SpdState:
    S = np.asarray(S, dtype=np.float64)
    d = S.shape[0]
    if S.shape != (d, d) or not np.allclose(S, S.T, atol=1e-12):
        raise ValueError("S must be square symmetric")
    V = np.eye(d) if V0 is None else np.asarray(V0, dtype=np.float64).copy()
    if not np.allclose(V, V.T, atol=1e-12):
        raise ValueError("V must be symmetric")
    # bitwise symmetric from here on: every step adds a u u^T term
    V = 0.5 * (V + V.T)
    return SpdState(S=S, V=V, logdet_V=chol_logdet(V))


def f_gauss(state: SpdState) -> float:
    """Tr(SV) - log|V| from the tracked log-determinant."""
    return float((state.S * state.V).sum()) - state.logdet_V


def audit_logdet(state: SpdState) -> float:
    """Absolute drift of the tracked log-determinant vs fresh Cholesky."""
    return abs(state.logdet_V - chol_logdet(state.V))


def rank1_det_factor(state: SpdState, u: np.ndarray, alpha: float,
                     u_tilde: np.ndarray | None = None
                     ) -> tuple[float, np.ndarray]:
    """|V + alpha u u^T| = factor * |V| with factor = 1 + alpha u'V^{-1}u.

    Performs the one defining solve unless u_tilde is supplied.
    """
    if u_tilde is None:
        u_tilde = state.solve_system(u)
    return 1.0 + alpha * float(u @ u_tilde), u_tilde


def rank2_det_factor(state: SpdState, u: np.ndarray, v: np.ndarray,
                     alpha1: float, alpha2: float,
                     u_tilde: np.ndarray | None = None,
                     v_tilde: np.ndarray | None = None) -> float:
    """|V + a1 u u^T + a2 v v^T| / |V| via the nested determinant lemma.

    Exactly two solves are performed when no cached solutions are given.
    """
    if u_tilde is None:
        u_tilde = state.solve_system(u)
    if v_tilde is None:
        v_tilde = state.solve_system(v)
    a = float(u @ u_tilde)
    b = float(v @ v_tilde)
    c = float(v @ u_tilde) * float(u @ v_tilde)
    return (1.0 + alpha1 * a) * (1.0 + alpha2 * b) - alpha1 * alpha2 * c


def _normalize(x: np.ndarray) -> np.ndarray:
    nrm = float(np.linalg.norm(x))
    if nrm == 0 or not np.isfinite(nrm):
        out = np.zeros_like(x)
        out[0] = 1.0
        return out
    return x / nrm


def _propose_u(state: SpdState) -> np.ndarray:
    """One power-iteration step of the residual S - V^{-1}; no new solves.

    The action of V^{-1} on the previous direction is the solve cached from
    the last accepted step, corrected for the rank-1 updates applied since.
    """
    if state.u_prev is None:
        z = np.ones(state.S.shape[0])
        return _normalize(state.S @ z - z)
    return _normalize(state.S @ state.u_prev - state.u_prev_tilde)


def _sherman_morrison(x_sol, u_sol, u, alpha, denom):
    """V1^{-1} x from V^{-1} x after V1 = V + alpha u u^T."""
    return x_sol - (alpha * float(u @ x_sol) / denom) * u_sol


def _step_size(s: float, a: float) -> float:
    """argmin over t of t s - log(1 + t a), with s = x'Sx and a = x'V^{-1}x.

    The minimizer is t = 1/s - 1/a, and its factor 1 + t a = a/s is
    positive, so the step keeps V positive definite.
    """
    if not (s > 0 and a > 0):
        raise NotPositiveDefiniteError(
            f"no finite step: x'Sx = {s:.3g}, x'V^-1x = {a:.3g}")
    return 1.0 / s - 1.0 / a


def step_rank_so(state: SpdState, rank: int = 2,
                 directions: list[np.ndarray] | None = None) -> StepRecord:
    """Exact SO over step sizes along one or two rank-1 directions.

    Rank-2 replaces its second direction v by w = v - (u'V^{-1}v / a) u,
    which is V^{-1}-orthogonal to u, so f(V + t1 uu' + t2 ww') separates
    into two 1-d problems with closed-form minimizers.  A w whose
    V^{-1}-norm is below 1e-8 of v's is left out (alpha2 = 0).  Rank-1
    performs exactly one metered solve, rank-2 exactly two.
    """
    if rank not in (1, 2):
        raise ValueError("rank must be 1 or 2")
    if state.k and state.k % _REFACTOR_EVERY == 0:
        state.logdet_V = chol_logdet(state.V)
    S, V = state.S, state.V
    if directions is not None:
        dirs = [_normalize(np.asarray(q, dtype=np.float64))
                for q in directions]
        if len(dirs) != rank:
            raise ValueError("need exactly `rank` directions")
    else:
        dirs = [_propose_u(state)]
    u = dirs[0]
    u_tilde = state.solve_system(u)
    a = float(u @ u_tilde)
    a1 = _step_size(float(u @ (S @ u)), a)
    factor1, _ = rank1_det_factor(state, u, a1, u_tilde)
    V_new = V + a1 * np.outer(u, u)
    full, a2 = factor1, None

    if rank == 2:
        # residual action on u; exact, reuses the solve just performed
        v = dirs[1] if directions is not None else _normalize(S @ u - u_tilde)
        v_tilde = state.solve_system(v)
        r = float(u_tilde @ v) / a
        w, w_tilde = v - r * u, v_tilde - r * u_tilde
        b = float(w @ w_tilde)
        a2 = 0.0
        if b > 1e-16 * float(v @ v_tilde):      # ||w|| > 1e-8 ||v||, in V^-1
            a2 = _step_size(float(w @ (S @ w)), b)
            V_new += a2 * np.outer(w, w)
        full = rank2_det_factor(state, u, w, a1, a2, u_tilde, w_tilde)

    state.V = V_new
    state.logdet_V += float(np.log(full))
    state.k += 1

    # the next proposal starts from u (rank-1) or the unorthogonalized v
    # (rank-2); its solve at the new iterate by Sherman-Morrison, exact
    x, x_sol = (u, u_tilde) if rank == 1 else (v, v_tilde)
    x_sol = _sherman_morrison(x_sol, u_tilde, u, a1, factor1)
    if a2:
        w_sol = _sherman_morrison(w_tilde, u_tilde, u, a1, factor1)
        x_sol = _sherman_morrison(x_sol, w_sol, w, a2,
                                  1.0 + a2 * float(w @ w_sol))
    state.u_prev, state.u_prev_tilde = x, x_sol

    return StepRecord(f_gauss(state), alpha1=a1, alpha2=a2)


def run(S: np.ndarray, rank: int, iters: int,
        callback=None) -> tuple[SpdState, list[StepRecord]]:
    state = init_state(S)
    return drive(f"rank{rank}", lambda st: step_rank_so(st, rank=rank),
                 state, iters, state.solver.read,
                 lambda st: ("logdet", audit_logdet(st),
                             1e-8 * max(1.0, abs(st.logdet_V))),
                 _REFACTOR_EVERY, callback)
