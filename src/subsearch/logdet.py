"""Gaussian precision fitting f(V) = Tr(SV) - log|V| over SPD matrices.

Steps move along one or two rank-1 directions u u^T.  The matrix determinant
lemma turns every candidate step size into scalar arithmetic, so a rank-1
step costs one metered linear solve and a rank-2 step costs exactly two.
The log-determinant is tracked additively through the accepted factors and
re-derived from a fresh Cholesky factorization every `refactor_every` steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counted import ProductCounter
from .optimizers import StepRecord, drive
from .subsolver import SubProblem, solve


class NotPositiveDefiniteError(ValueError):
    pass


def _chol_logdet(V: np.ndarray) -> float:
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
    refactor_every: int = 50
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
    return SpdState(S=S, V=V, logdet_V=_chol_logdet(V))


def f_gauss(state: SpdState) -> float:
    """Tr(SV) - log|V| from the tracked log-determinant."""
    return float(np.sum(state.S * state.V)) - state.logdet_V


def audit_logdet(state: SpdState) -> float:
    """Absolute drift of the tracked log-determinant vs fresh Cholesky."""
    return abs(state.logdet_V - _chol_logdet(state.V))


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


def step_rank_so(state: SpdState, rank: int = 2,
                 directions: list[np.ndarray] | None = None) -> StepRecord:
    """SO over step sizes along one or two rank-1 directions.

    Trial points with any non-positive sequential determinant factor are
    rejected (infinite value), so accepted iterates stay positive definite.
    Rank-1 performs exactly one metered solve, rank-2 exactly two.
    """
    if rank not in (1, 2):
        raise ValueError("rank must be 1 or 2")
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
    su = float(u @ (S @ u))
    f0 = f_gauss(state)

    if rank == 2:
        if directions is not None:
            v = dirs[1]
        else:
            # residual action on u; exact, reuses the solve just performed
            v = _normalize(S @ u - u_tilde)
        v_tilde = state.solve_system(v)
        b = float(v @ v_tilde)
        c = float(v @ u_tilde) * float(u @ v_tilde)
        sv = float(v @ (S @ v))

        def factors(t):
            f1 = 1.0 + t[0] * a
            full = (1.0 + t[0] * a) * (1.0 + t[1] * b) - t[0] * t[1] * c
            return f1, full

        def value(t):
            f1, full = factors(t)
            if f1 <= 0 or full <= 0:
                return np.inf
            return f0 + t[0] * su + t[1] * sv - np.log(full)

        def grad(t):
            _, full = factors(t)
            dfull = np.array([a * (1.0 + t[1] * b) - t[1] * c,
                              b * (1.0 + t[0] * a) - t[0] * c])
            return np.array([su, sv]) - dfull / full

        def hess(t):
            _, full = factors(t)
            dfull = np.array([a * (1.0 + t[1] * b) - t[1] * c,
                              b * (1.0 + t[0] * a) - t[0] * c])
            d2 = a * b - c
            H = np.outer(dfull, dfull) / full ** 2
            H[0, 1] -= d2 / full
            H[1, 0] -= d2 / full
            return H

        sp = SubProblem(2, value, grad, hess)
    else:
        def value(t):
            f1 = 1.0 + t[0] * a
            if f1 <= 0:
                return np.inf
            return f0 + t[0] * su - np.log(f1)

        def grad(t):
            return np.array([su - a / (1.0 + t[0] * a)])

        def hess(t):
            return np.array([[(a / (1.0 + t[0] * a)) ** 2]])

        sp = SubProblem(1, value, grad, hess)

    res = solve(sp)
    t = res.theta
    a1 = float(t[0])
    a2 = float(t[1]) if rank == 2 else None

    V_new = V + a1 * np.outer(u, u)
    factor1 = 1.0 + a1 * a
    if rank == 2:
        full = (1.0 + a1 * a) * (1.0 + a2 * b) - a1 * a2 * c
        V_new = V_new + a2 * np.outer(v, v)
    else:
        full = factor1
    V_new = 0.5 * (V_new + V_new.T)

    state.V = V_new
    state.logdet_V += float(np.log(full))
    state.k += 1
    if state.refactor_every and state.k % state.refactor_every == 0:
        state.logdet_V = _chol_logdet(state.V)

    # update cached solves for the next proposal (Sherman-Morrison, exact)
    if rank == 2:
        v_sol1 = _sherman_morrison(v_tilde, u_tilde, u, a1, factor1)
        denom2 = 1.0 + a2 * float(v @ v_sol1)
        state.u_prev, state.u_prev_tilde = v, _sherman_morrison(
            v_sol1, v_sol1, v, a2, denom2)
    else:
        state.u_prev, state.u_prev_tilde = u, _sherman_morrison(
            u_tilde, u_tilde, u, a1, factor1)

    return StepRecord("logdet-rank%d" % rank, res.value,
                      inner_iters=res.inner_iters, alpha1=a1, alpha2=a2)


def run(S: np.ndarray, rank: int, iters: int,
        V0: np.ndarray | None = None, audit_every: int = 50,
        callback=None) -> tuple[SpdState, list[StepRecord]]:
    state = init_state(S, V0)
    return drive(f"rank{rank}", lambda st: step_rank_so(st, rank=rank),
                 state, iters, state.solver.read,
                 lambda st: ("logdet", audit_logdet(st),
                             1e-8 * max(1.0, abs(st.logdet_V))),
                 audit_every, callback)
