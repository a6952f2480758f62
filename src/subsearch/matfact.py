"""Rank-r matrix factorization f(U, W) = (1/2)||U W^T - X||_F^2.

Five update schemes with exact counted-product budgets.  The bottleneck here
is any O(ndr) product (a rank-r factor or the dense gradient times a factor),
so the module meters those itself: every call to the internal product helper
costs one unit.  The tracked M = U W^T and the Gram form of the SO
restriction (see `_poly_subproblem`) keep each candidate evaluation at
O(k^2) scalar work for the k <= 9 expansion terms, after O(nd k^2) set-up
per step, with no products at all.

Scheme budgets per iteration:
  alternating (LO/SO on one factor)       2
  simultaneous, two learning rates        5
  momentum on U (3-d SO)                  7
  momentum on both, exact 4-d SO          9
  momentum on both, inexact candidates    2 + len(candidates)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counted import ProductCounter
from .data import _normals, _seed_state
from .optimizers import StepRecord, drive
from .subsolver import SubProblem, SubSolverOptions, solve


def pca_value(M: np.ndarray, X: np.ndarray) -> float:
    r = M - X
    return 0.5 * float(np.sum(r * r))


def pca_grad(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    return M - X


@dataclass
class MfState:
    X: np.ndarray               # n x d target
    U: np.ndarray               # n x r
    W: np.ndarray               # d x r
    M: np.ndarray               # n x d, tracked U W^T
    f: float
    U_prev: np.ndarray
    W_prev: np.ndarray
    M_prev: np.ndarray | None = None    # tracked U_prev W_prev^T
    counter: ProductCounter = field(default_factory=ProductCounter)
    audit_counter: ProductCounter = field(default_factory=ProductCounter)
    # snapshot of (factor, M) from the last alternating update
    alt_prev: tuple | None = None
    last_theta: tuple = (0.0, 0.0, 0.0, 0.0)
    # momentum schemes multiply the tracked-M error by (1+beta) factors each
    # step, so on this cadence they re-form U W^T (one counted product) and
    # restart the momentum anchors at the fresh iterate; 0 disables this
    refresh_every: int = 10
    k: int = 0

    def prod(self, A, B, audit=False):
        """A @ B, metered as one bottleneck product."""
        (self.audit_counter if audit else self.counter).bump()
        return A @ B


def init_state(X: np.ndarray, rank: int, seed: int = 0) -> MfState:
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if not 1 <= rank <= min(n, d):
        raise ValueError("need 1 <= rank <= min(n, d)")
    rng = _seed_state(seed)
    scale = 1.0 / np.sqrt(rank)
    U = _normals(rng, n * rank).reshape(n, rank) * scale
    W = _normals(rng, d * rank).reshape(d, rank) * scale
    M = U @ W.T
    return MfState(X=X, U=U, W=W, M=M, f=pca_value(M, X),
                   U_prev=U.copy(), W_prev=W.copy(), M_prev=M.copy())


def audit_product(state: MfState) -> float:
    """Relative Frobenius drift of tracked M; uses the audit counter."""
    M_true = state.prod(state.U, state.W.T, audit=True)
    return float(np.linalg.norm(state.M - M_true)
                 / (1.0 + np.linalg.norm(state.M)))


# ---------------------------------------------------------------------------
# polynomial restrictions: M(theta) = M + sum_i c_i(theta) T_i

def _poly_subproblem(X, M, terms, dim):
    """SO restriction of the PCA loss to a polynomial family of M updates.

    `terms` is a list of (coef, dcoef, T): a coefficient c_i(theta), its
    gradient in theta, and an n x d matrix T_i, so that
    M(theta) = M + sum_i c_i(theta) T_i.  The loss is quadratic in M, so
    with R = M - X, b_i = <R, T_i> and the Gram matrix G_ij = <T_i, T_j>,
    formed once in O(nd k^2) for k terms,

        f(theta)    = ||R||^2 / 2 + c.b + c^T G c / 2
        grad f      = J^T (b + G c)
        hess f      = J^T G J + sum_i (b + G c)_i hess c_i

    where J stacks the dcoef rows.  Every coefficient must have degree <= 2
    in theta: each dcoef is then affine, and the constant hess c_i is read
    exactly from dcoef at zero and at the p unit vectors.  A value, gradient
    or Hessian costs O(k^2 + k p^2) scalar work and zero counted products;
    only `m_at` forms an n x d matrix.
    """
    R = M - X
    S = np.stack([T.ravel() for _, _, T in terms])
    b = S @ R.ravel()
    G = S @ S.T
    f0 = 0.5 * float(np.sum(R * R))

    def coefs(theta):
        return np.array([coef(theta) for coef, _, _ in terms],
                        dtype=np.float64)

    def jac(theta):
        return np.array([dcoef(theta) for _, dcoef, _ in terms],
                        dtype=np.float64)

    J0 = jac(np.zeros(dim))
    # curv[i, :, l] = d(dcoef_i)/d theta_l, constant by the degree bound
    curv = np.stack([jac(e) - J0 for e in np.eye(dim)], axis=2)

    def m_at(theta):
        M_c = M.copy()
        for coef, _, T in terms:
            c = coef(theta)
            if c != 0.0:
                M_c += c * T
        return M_c

    def value(theta):
        c = coefs(theta)
        return f0 + float(c @ (b + 0.5 * (G @ c)))

    def grad(theta):
        return jac(theta).T @ (b + G @ coefs(theta))

    def hess(theta):
        J = jac(theta)
        return J.T @ G @ J + np.tensordot(b + G @ coefs(theta), curv, 1)

    return SubProblem(dim, value, grad, hess), m_at


def _commit(state, U_new, W_new, M_new, rec, theta4, restart=False):
    if restart:
        # momentum anchors coincide with the fresh iterate, so the next
        # step's momentum directions vanish and every anchor is exact
        state.U_prev, state.W_prev = U_new.copy(), W_new.copy()
        state.M_prev = M_new.copy()
    else:
        state.U_prev, state.W_prev = state.U, state.W
        state.M_prev = state.M
    state.U, state.W, state.M = U_new, W_new, M_new
    state.f = rec.f
    state.last_theta = theta4
    state.k += 1
    return rec


# ---------------------------------------------------------------------------
# scheme 1: alternating minimization (one factor per iteration, LCP-style)

def step_altmin_so(state: MfState, which: str | None = None) -> StepRecord:
    """Update one factor by LO/SO; exactly 2 counted products.

    The momentum direction is included only when the immediately preceding
    update touched the same factor, which keeps the tracked-M arithmetic
    exact (the other factor acts as the fixed data matrix of an LCP).
    """
    if which is None:
        # paired schedule U,U,W,W,... so momentum is exercised
        which = "u" if (state.k // 2) % 2 == 0 else "w"
    which = which.lower()
    if which not in ("u", "w"):
        raise ValueError("which must be 'u' or 'w'")
    G = pca_grad(state.M, state.X)
    if which == "u":
        grad_f = state.prod(G, state.W)             # n x r
        D = state.prod(grad_f, state.W.T)           # image of grad_f
    else:
        grad_f = state.prod(G.T, state.U)           # d x r
        D = state.prod(state.U, grad_f.T)           # image, n x d

    images = [-D]
    slots = ["alpha1"]
    if state.alt_prev is not None and state.alt_prev[0] == which:
        images.append(state.M - state.alt_prev[1])
        slots.append("beta1")

    terms = []
    for j, T in enumerate(images):
        e = np.zeros(len(images))
        e[j] = 1.0
        terms.append((lambda th, j=j: float(th[j]),
                      lambda th, e=e: e, T))
    sp, m_at = _poly_subproblem(state.X, state.M, terms, len(images))
    res = solve(sp)
    alpha = float(res.theta[0])
    beta = float(res.theta[1]) if len(res.theta) > 1 else None
    if which == "u":
        U_new = state.U - alpha * grad_f
        if beta is not None:
            U_new = U_new + beta * (state.U - state.U_prev)
        W_new = state.W.copy()
    else:
        W_new = state.W - alpha * grad_f
        if beta is not None:
            W_new = W_new + beta * (state.W - state.W_prev)
        U_new = state.U.copy()
    M_new = m_at(res.theta)
    rec = StepRecord("mf-altmin", res.value, inner_iters=res.inner_iters,
                     alpha1=alpha, beta1=beta, flag=which)
    state.alt_prev = (which, state.M)
    return _commit(state, U_new, W_new, M_new, rec,
                   (alpha, beta or 0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# schemes 2-4: simultaneous updates on the bilinear expansion

def _core_blocks(state):
    """Gu, Gw and the three shared expansion blocks; 5 counted products."""
    G = pca_grad(state.M, state.X)
    Gu = state.prod(G, state.W)                     # n x r, grad wrt U
    Gw = state.prod(G.T, state.U)                   # d x r, grad wrt W
    D1 = state.prod(Gu, state.W.T)                  # n x d
    D2 = state.prod(state.U, Gw.T)                  # n x d
    D3 = state.prod(Gu, Gw.T)                       # n x d
    return Gu, Gw, D1, D2, D3


def _simul_terms(D1, D2, D3):
    # theta = (a1, a2)
    return [
        (lambda t: -t[0], lambda t: (-1.0, 0.0), D1),
        (lambda t: -t[1], lambda t: (0.0, -1.0), D2),
        (lambda t: t[0] * t[1], lambda t: (t[1], t[0]), D3),
    ]


def step_simul_so2(state: MfState) -> StepRecord:
    """Two learning rates by 2-d SO on the bilinear expansion; 5 products."""
    Gu, Gw, D1, D2, D3 = _core_blocks(state)
    sp, m_at = _poly_subproblem(state.X, state.M, _simul_terms(D1, D2, D3), 2)
    res = solve(sp)
    a1, a2 = (float(t) for t in res.theta)
    rec = StepRecord("mf-simul", res.value, inner_iters=res.inner_iters,
                     alpha1=a1, alpha2=a2)
    return _commit(state, state.U - a1 * Gu, state.W - a2 * Gw,
                   m_at(res.theta), rec, (a1, 0.0, a2, 0.0))


def _one_terms(state, D1, D2, D3, E1, E2):
    # theta = (a1, b, a2)
    return [
        (lambda t: t[1], lambda t: (0.0, 1.0, 0.0), state.M),
        (lambda t: -t[0], lambda t: (-1.0, 0.0, 0.0), D1),
        (lambda t: -t[2] * (1.0 + t[1]),
         lambda t: (0.0, -t[2], -(1.0 + t[1])), D2),
        (lambda t: t[0] * t[2], lambda t: (t[2], 0.0, t[0]), D3),
        (lambda t: -t[1], lambda t: (0.0, -1.0, 0.0), E1),
        (lambda t: t[2] * t[1], lambda t: (0.0, t[2], t[1]), E2),
    ]


def step_momentum_one(state: MfState) -> StepRecord:
    """Momentum on U only: 3-d SO over (alpha1, beta, alpha2); 7 products."""
    Gu, Gw, D1, D2, D3 = _core_blocks(state)
    E1 = state.prod(state.U_prev, state.W.T)        # n x d
    E2 = state.prod(state.U_prev, Gw.T)             # n x d
    terms = _one_terms(state, D1, D2, D3, E1, E2)
    sp, m_at = _poly_subproblem(state.X, state.M, terms, 3)
    res = solve(sp, _MOMENTUM_OPTS)
    a1, b, a2 = (float(t) for t in res.theta)
    U_new = (1.0 + b) * state.U - b * state.U_prev - a1 * Gu
    W_new = state.W - a2 * Gw
    M_new, f_new, restart = _tracked_or_refreshed(state, U_new, W_new,
                                                  m_at(res.theta), res.value)
    rec = StepRecord("mf-momentum-u", f_new, inner_iters=res.inner_iters,
                     alpha1=a1, beta1=b, alpha2=a2)
    return _commit(state, U_new, W_new, M_new, rec, (a1, b, a2, 0.0),
                   restart=restart)


def _both_terms(state, D1, D2, D3, E1, E2, E3, E4, E5):
    # theta = (a1, b1, a2, b2)
    return [
        (lambda t: t[1] + t[3] + t[1] * t[3],
         lambda t: (0.0, 1.0 + t[3], 0.0, 1.0 + t[1]), state.M),
        (lambda t: -t[0] * (1.0 + t[3]),
         lambda t: (-(1.0 + t[3]), 0.0, 0.0, -t[0]), D1),
        (lambda t: -t[2] * (1.0 + t[1]),
         lambda t: (0.0, -t[2], -(1.0 + t[1]), 0.0), D2),
        (lambda t: t[0] * t[2], lambda t: (t[2], 0.0, t[0], 0.0), D3),
        (lambda t: t[1] * t[3], lambda t: (0.0, t[3], 0.0, t[1]), E3),
        (lambda t: -t[1] * (1.0 + t[3]),
         lambda t: (0.0, -(1.0 + t[3]), 0.0, -t[1]), E1),
        (lambda t: -t[3] * (1.0 + t[1]),
         lambda t: (0.0, -t[3], 0.0, -(1.0 + t[1])), E4),
        (lambda t: t[2] * t[1], lambda t: (0.0, t[2], t[1], 0.0), E2),
        (lambda t: t[0] * t[3], lambda t: (t[3], 0.0, 0.0, t[0]), E5),
    ]


def _tracked_or_refreshed(state, U_new, W_new, M_tracked, f_tracked):
    """Re-form U W^T (one counted product) on the refresh cadence.

    The committed value is re-evaluated from the fresh product but never
    allowed above the tracked value, so recorded objectives stay monotone.
    Returns (M, f, refreshed).
    """
    if state.refresh_every and (state.k + 1) % state.refresh_every == 0:
        M_new = state.prod(U_new, W_new.T)
        return M_new, min(f_tracked, pca_value(M_new, state.X)), True
    return M_tracked, f_tracked, False


# the factor-rescaling direction (beta1 up, beta2 down) is nearly flat, so
# an unbounded subsolver can wander to huge steps that amplify tracking
# error; a modest box keeps the momentum schemes well inside float range
_MOMENTUM_OPTS = SubSolverOptions(theta_cap=10.0)


def _commit_both(state, Gu, Gw, theta, f_new, M_new, method, inner,
                 refresh=True):
    a1, b1, a2, b2 = (float(t) for t in theta)
    U_new = (1.0 + b1) * state.U - b1 * state.U_prev - a1 * Gu
    W_new = (1.0 + b2) * state.W - b2 * state.W_prev - a2 * Gw
    restart = False
    if refresh:
        M_new, f_new, restart = _tracked_or_refreshed(state, U_new, W_new,
                                                      M_new, f_new)
    rec = StepRecord(method, f_new, inner_iters=inner,
                     alpha1=a1, beta1=b1, alpha2=a2, beta2=b2)
    return _commit(state, U_new, W_new, M_new, rec, (a1, b1, a2, b2),
                   restart=restart)


def step_momentum_both_exact(state: MfState) -> StepRecord:
    """Momentum on both factors: exact 4-d SO; 9 products."""
    Gu, Gw, D1, D2, D3 = _core_blocks(state)
    E1 = state.prod(state.U_prev, state.W.T)
    E2 = state.prod(state.U_prev, Gw.T)
    E3 = state.M_prev                           # tracked U_prev W_prev^T
    E4 = state.prod(state.U, state.W_prev.T)
    E5 = state.prod(Gu, state.W_prev.T)
    terms = _both_terms(state, D1, D2, D3, E1, E2, E3, E4, E5)
    sp, m_at = _poly_subproblem(state.X, state.M, terms, 4)
    res = solve(sp, _MOMENTUM_OPTS)
    return _commit_both(state, Gu, Gw, res.theta, res.value,
                        m_at(res.theta), "mf-momentum-both",
                        res.inner_iters)


def default_candidates(state: MfState) -> list[tuple]:
    """Coordinate pattern around the last accepted step sizes."""
    a1, b1, a2, b2 = state.last_theta
    if a1 == 0.0 and a2 == 0.0:
        a1 = a2 = 1e-3
    return [
        (0.0, 0.0, 0.0, 0.0),
        (a1, b1, a2, b2),
        (2.0 * a1, b1, 2.0 * a2, b2),
        (0.5 * a1, b1, 0.5 * a2, b2),
        (a1, 0.0, a2, 0.0),
        (2.0 * a1, 0.0, 2.0 * a2, 0.0),
        (0.5 * a1, 0.0, 0.5 * a2, 0.0),
    ]


def step_momentum_both_inexact(state: MfState,
                               candidates=None) -> StepRecord:
    """Try explicit candidates, one product each; 2 + len(candidates)."""
    if candidates is None:
        candidates = default_candidates(state)
    candidates = [tuple(float(x) for x in c) for c in candidates]
    if not candidates:
        raise ValueError("candidate list must be nonempty")
    if (0.0, 0.0, 0.0, 0.0) not in candidates:
        raise ValueError("candidates must include the zero step")
    G = pca_grad(state.M, state.X)
    Gu = state.prod(G, state.W)
    Gw = state.prod(G.T, state.U)
    best = None
    for c in candidates:
        a1, b1, a2, b2 = c
        U_c = (1.0 + b1) * state.U - b1 * state.U_prev - a1 * Gu
        W_c = (1.0 + b2) * state.W - b2 * state.W_prev - a2 * Gw
        M_c = state.prod(U_c, W_c.T)
        f_c = pca_value(M_c, state.X)
        if best is None or f_c < best[0]:
            best = (f_c, c, M_c)
    f_new, theta, M_new = best
    return _commit_both(state, Gu, Gw, theta, f_new, M_new,
                        "mf-momentum-inexact", len(candidates),
                        refresh=False)


MF_SCHEMES = {
    "altmin": step_altmin_so,
    "simul": step_simul_so2,
    "momentum-u": step_momentum_one,
    "momentum-both": step_momentum_both_exact,
    "momentum-both-inexact": step_momentum_both_inexact,
}

MF_BUDGETS = {
    "altmin": 2,
    "simul": 5,
    "momentum-u": 7,
    "momentum-both": 9,
    "momentum-both-inexact": 9,      # 2 + the 7 default candidates
}


def run(scheme: str, X: np.ndarray, rank: int, iters: int, seed: int = 0,
        audit_every: int = 50, callback=None
        ) -> tuple[MfState, list[StepRecord]]:
    if scheme not in MF_SCHEMES:
        raise KeyError(f"unknown scheme {scheme!r}")
    state = init_state(X, rank, seed)
    return drive(scheme, MF_SCHEMES[scheme], state, iters,
                 state.counter.read,
                 lambda st: ("product", audit_product(st), 1e-8),
                 audit_every, callback)
