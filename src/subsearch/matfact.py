"""Rank-r matrix factorization f(U, W) = (1/2)||U W^T - X||_F^2.

Five update schemes with exact counted-product budgets.  The bottleneck here
is any O(ndr) product (a rank-r factor or the dense gradient times a factor),
so the module meters those itself: every call to `MfState.prod` costs one
unit.

Each SO scheme is a list of slots.  Each factor has three anchors, the
factor, its last step and its gradient: (U, U - U_prev, Gu) or
(W, W - W_prev, Gw).  A slot moves one factor along one signed anchor,
A_s or B_t, by its own step size theta_s:

    U(theta) = U + sum_{s on U} theta_s A_s
    W(theta) = W + sum_{t on W} theta_t B_t

so M(theta) = U(theta) W(theta)^T is M plus one image per slot (A_s W^T or
U B_t^T) and one bilinear image A_s B_t^T per pair of a U slot and a W slot.
Every image is one signed anchor pair product u_i w_j^T, taken once per
step, except the one derived pair (U - U_prev)(W - W_prev)^T, which is
formed from the two momentum images and the tracked M and M_prev.  M enters
no other image, so the tracked M stays exact up to rounding.  An image's
coefficient is theta_s or theta_s theta_t, so the restriction
(`_restriction`) has a known Jacobian and constant curvature: after
O(nd k^2) set-up for its k images, each candidate value, gradient or
Hessian costs at most O(p k^2) scalar work for p step sizes, and no
products at all.

The exact momentum schemes restart momentum every 10 steps: that step forms
U W^T, one counted product beyond the budget below, and the next step's
momentum directions vanish.

Scheme slots and budgets per iteration:
  altmin          [-Gu] or [-Gw], plus momentum on that factor    2
  simul           [-Gu, -Gw]                                      5
  momentum-u      [-Gu, U - U_prev, -Gw]                          7
  momentum-both   [-Gu, U - U_prev, -Gw, W - W_prev]              9
  momentum-both-inexact: the momentum-both factor step at each
                  explicit candidate                   2 + len(candidates)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .counted import ProductCounter
from .data import _normals, _seed_state
from .optimizers import StepRecord, drive, relative_drift
from .subsolver import SubProblem, solve


def pca_value(M: np.ndarray, X: np.ndarray) -> float:
    r = M - X
    r *= r
    return 0.5 * float(r.sum())


def pca_grad(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    return M - X


def grad_norm(Gu: np.ndarray, Gw: np.ndarray) -> float:
    """The norm of the full gradient (G W, G^T U), from its two factor
    gradients."""
    return float(np.sqrt((Gu * Gu).sum() + (Gw * Gw).sum()))


@dataclass
class MfState:
    """The factors, their tracked product M and what the schemes carry
    from step to step.  `k` counts the steps of the schedules that read
    it: altmin's U,U,W,W order and the exact momentum schemes' restart."""
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
    # the factor ("u" or "w") the last alternating update moved
    alt_prev: str | None = None
    last_theta: tuple = (0.0, 0.0, 0.0, 0.0)
    # the exact momentum schemes restart momentum on this cadence: the step
    # forms U W^T (one counted product beyond the budget) and sets the
    # previous factors to the new ones
    refresh_every: ClassVar[int] = 10
    k: int = 0

    def prod(self, A, B, audit=False):
        """A @ B, metered as one bottleneck product."""
        (self.audit_counter if audit else self.counter).bump()
        return A @ B

    def step_inputs(self) -> tuple:
        """Everything a step reads.  Only altmin and the exact momentum
        schemes advance `k`, so those never repeat their inputs, and a
        simul or momentum-both-inexact step that leaves these bitwise as it
        found them would repeat itself bitwise from then on."""
        return (self.k, self.U, self.W, self.M, self.U_prev, self.W_prev,
                self.M_prev, self.f, self.alt_prev, self.last_theta)


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
    return relative_drift(state.M, state.prod(state.U, state.W.T, audit=True))


# ---------------------------------------------------------------------------
# slots: (factor, StepRecord field, (anchor, sign)).  Each factor's anchors
# are (X, X - X_prev, G), where X is U or W and G its gradient, and a slot
# moves X along sign times one anchor

GRAD = (2, -1.0)            # -G
MOMENTUM = (1, 1.0)         # X - X_prev

ALTMIN = {f: ((f, "alpha1", GRAD), (f, "beta1", MOMENTUM)) for f in "uw"}
SIMUL = (("u", "alpha1", GRAD), ("w", "alpha2", GRAD))
MOMENTUM_U = (("u", "alpha1", GRAD), ("u", "beta1", MOMENTUM),
              ("w", "alpha2", GRAD))
MOMENTUM_BOTH = MOMENTUM_U + (("w", "beta2", MOMENTUM),)
_FIELDS = tuple(name for _, name, _ in MOMENTUM_BOTH)


def _directions(state, slots):
    """The anchors of each factor and each slot's direction.

    A gradient costs one counted product and is taken only for a factor
    that some slot moves along it.
    """
    G = pca_grad(state.M, state.X)
    grads = {f for f, _, (i, _) in slots if i == 2}
    anchors = {
        "u": (state.U, state.U - state.U_prev,
              state.prod(G, state.W) if "u" in grads else None),
        "w": (state.W, state.W - state.W_prev,
              state.prod(G.T, state.U) if "w" in grads else None)}
    return anchors, [sign * anchors[f][i] for f, _, (i, sign) in slots]


def _gnorm(slots, dirs):
    """The full gradient's norm where the step moves both factors along
    their gradients, from those directions (-G W and -G^T U); else None."""
    grads = [D for (_, _, anchor), D in zip(slots, dirs) if anchor == GRAD]
    return grad_norm(*grads) if len(grads) == 2 else None


def _factor_step(state, slots, dirs, theta):
    """U and W moved by theta_s along each slot's direction; a factor that
    no slot moves by a nonzero step stays the same array."""
    new = {"u": state.U, "w": state.W}
    for (f, _, _), D, t in zip(slots, dirs, theta):
        if t:
            new[f] = new[f] + t * D
    return new["u"], new["w"]


def _restriction(X, M, S, pairs):
    """SO restriction of the PCA loss to the bilinear family

        M(theta) = M + sum_s theta_s I_s + sum_(s,t) theta_s theta_t B_st,

    with the k terms T_k as the rows of the k x nd stack `S`, which the
    caller writes once: the images I_s of the p step sizes, then one B_st
    for each index pair (s, t) of `pairs`.  The loss is quadratic in M, so
    with R = M - X, the terms' coefficients c_k(theta), b_k = <R, T_k> and
    the Gram matrix G_kl = <T_k, T_l>, formed once in O(nd k^2),

        f(theta)    = ||R||^2 / 2 + c.b + c^T G c / 2
        grad f      = J^T r,    r = b + G c
        hess f      = J^T G J + sum_(s,t) r_st (e_s e_t^T + e_t e_s^T)

    where J = dc/dtheta has the unit row e_s for I_s and the row
    theta_t e_s + theta_s e_t for B_st.  A value costs O(k^2) scalar work,
    a gradient or Hessian O(p k^2), and none a counted product; only `m_at`
    forms an n x d matrix, from views of the stack's rows.
    """
    p = len(S) - len(pairs)
    R = M - X
    b = S @ R.ravel()
    G = S @ S.T
    R *= R
    f0 = 0.5 * float(R.sum())
    terms = [T.reshape(M.shape) for T in S]

    def coefs(theta):
        return np.concatenate([theta, [theta[s] * theta[t] for s, t in pairs]])

    def jac(theta):
        J = np.eye(len(S), p)
        for k, (s, t) in enumerate(pairs, start=p):
            J[k, s], J[k, t] = theta[t], theta[s]
        return J

    def m_at(theta):
        M_c = M.copy()
        for c, T in zip(coefs(theta), terms):
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
        H = J.T @ G @ J
        r = b + G @ coefs(theta)
        for k, (s, t) in enumerate(pairs, start=p):
            H[s, t] += r[k]
            H[t, s] += r[k]
        return H

    return SubProblem(p, value, grad, hess), m_at


def _expand(state, slots, free=None):
    """The restriction of f to `slots`: (subproblem, m_at, live, dirs).

    Every image is one signed anchor pair product u_i w_j^T: u_i W^T for a
    U slot, U w_j^T for a W slot and u_i w_j^T for a pair of a U slot and a
    W slot.  Each pair costs one counted product, except the pairs in `free`
    and the derived momentum pair (U - U_prev)(W - W_prev)^T, formed from
    the two momentum images as P_01 + P_10 - M + M_prev.  A slot whose
    direction is exactly zero (a momentum slot at the start and after a
    refresh restart) is left out of the subproblem, whose variables are the
    step sizes of the `live` slots; its products are still taken, so each
    step of a scheme spends the same.  Each live image is written once,
    times its sign, into its row of the restriction's stack.
    """
    anchors, dirs = _directions(state, slots)
    live = [k for k, D in enumerate(dirs) if np.any(D)]
    sides = [(i, 0) if f == "u" else (0, i) for f, _, (i, _) in slots]
    signs = [sign for _, _, (_, sign) in slots]
    bilinear = {(s, t): (sides[s][0], sides[t][1])
                for s, (f, _, _) in enumerate(slots) if f == "u"
                for t, (g, _, _) in enumerate(slots) if g == "w"}
    P = dict(free or {})
    u, w = anchors["u"], anchors["w"]
    for i, j in sides + list(bilinear.values()):
        if (i, j) not in P:
            P[i, j] = (P[0, 1] + P[1, 0] - state.M + state.M_prev
                       if (i, j) == (1, 1) else state.prod(u[i], w[j].T))

    pos = {k: n for n, k in enumerate(live)}
    pairs = [(s, t) for s, t in bilinear if s in pos and t in pos]
    terms = ([(signs[k], P[sides[k]]) for k in live]
             + [(signs[s] * signs[t], P[bilinear[s, t]]) for s, t in pairs])
    S = np.empty((len(terms), state.M.size))
    for row, (sign, image) in zip(S, terms):
        np.multiply(image.ravel(), sign, out=row)
    sp, m_at = _restriction(state.X, state.M, S,
                            [(pos[s], pos[t]) for s, t in pairs])
    return sp, m_at, live, dirs


def _commit(state, U_new, W_new, M_new, rec, restart=False):
    if restart:
        # momentum restart: the previous factors are the new ones, so the
        # next step's momentum directions vanish
        state.U_prev, state.W_prev = U_new.copy(), W_new.copy()
        state.M_prev = M_new.copy()
    else:
        state.U_prev, state.W_prev = state.U, state.W
        state.M_prev = state.M
    state.U, state.W, state.M = U_new, W_new, M_new
    state.f = rec.f
    state.last_theta = tuple(getattr(rec, name) or 0.0 for name in _FIELDS)
    return rec


def _so_step(state, slots, free=None, refresh=False, flag=None):
    """Solve the restriction to `slots`, step each factor along its slots
    and commit; a left-out slot records 0.  M comes from the expansion.

    With `refresh` (the exact momentum schemes), the step advances `k`,
    and every `refresh_every`-th step restarts momentum: M is formed as U W^T (one counted product), and
    `_commit` sets the previous factors to the new ones, so the next step's
    momentum directions vanish.

    The step records the committed point's own value, f at its M, which
    differs from the restriction's value at theta by rounding.  Where it
    lies above the iterate's f, the zero step is committed instead (flag
    `rounding_floor`, in place of altmin's factor flag), so the recorded f
    never rises.  A restart step's fresh U W^T is free of the drift that
    the iterate's f, read at the tracked M, carries; where its value lies
    above that f, the step is judged at the tracked point m_at(theta)
    instead, and commits it if it lies no higher, so drift does not turn a
    decrease into the zero step (that M then keeps its drift until the
    next restart).
    """
    sp, m_at, live, dirs = _expand(state, slots, free)
    res = solve(sp)
    theta = np.zeros(len(slots))
    theta[live] = res.theta
    U_new, W_new = _factor_step(state, slots, dirs, theta)
    if refresh:
        state.k += 1
    restart = refresh and state.k % state.refresh_every == 0
    M_new = state.prod(U_new, W_new.T) if restart else m_at(res.theta)
    f_new = pca_value(M_new, state.X)
    if restart and f_new > state.f:
        M_new = m_at(res.theta)
        f_new = pca_value(M_new, state.X)
    if f_new > state.f:
        theta[:] = 0.0
        U_new, W_new, M_new, f_new = state.U, state.W, state.M, state.f
        flag = "rounding_floor"
    rec = StepRecord(f_new, inner_iters=res.inner_iters, flag=flag,
                     gnorm=_gnorm(slots, dirs),
                     **{name: float(t)
                        for (_, name, _), t in zip(slots, theta)})
    return _commit(state, U_new, W_new, M_new, rec, restart)


def _altmin_slots(state, which):
    """altmin's slots on factor `which`, and the pair product they get free.

    The momentum slot is listed only when the last update moved the same
    factor.  The other factor then equals its previous value (it acts as
    the fixed data matrix of an LCP), so the momentum image (U - U_prev) W^T,
    or U (W - W_prev)^T, is M - M_prev, and the step takes 2 counted
    products either way.
    """
    if state.alt_prev != which:
        return ALTMIN[which][:1], None
    return ALTMIN[which], {(1, 0) if which == "u" else (0, 1):
                           state.M - state.M_prev}


def step_altmin_so(state: MfState, which: str | None = None) -> StepRecord:
    """Update one factor by LO/SO; exactly 2 counted products."""
    if which is None:
        # paired schedule U,U,W,W,... so momentum is exercised
        which = "u" if (state.k // 2) % 2 == 0 else "w"
    which = which.lower()
    if which not in ("u", "w"):
        raise ValueError("which must be 'u' or 'w'")
    slots, free = _altmin_slots(state, which)
    state.alt_prev = which
    state.k += 1
    return _so_step(state, slots, free, flag=which)


def step_simul_so2(state: MfState) -> StepRecord:
    """Two learning rates by 2-d SO on the bilinear expansion; 5 products."""
    return _so_step(state, SIMUL)


def step_momentum_one(state: MfState) -> StepRecord:
    """Momentum on U only: 3-d SO over (alpha1, beta1, alpha2); 7 products."""
    return _so_step(state, MOMENTUM_U, refresh=True)


def step_momentum_both_exact(state: MfState) -> StepRecord:
    """Momentum on both factors: exact 4-d SO; 9 products."""
    return _so_step(state, MOMENTUM_BOTH, refresh=True)


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
    """Try explicit (alpha1, beta1, alpha2, beta2) candidates of the
    momentum-both factor step, one product each; 2 + len(candidates)."""
    if candidates is None:
        candidates = default_candidates(state)
    candidates = [tuple(float(x) for x in c) for c in candidates]
    if not candidates:
        raise ValueError("candidate list must be nonempty")
    if (0.0, 0.0, 0.0, 0.0) not in candidates:
        raise ValueError("candidates must include the zero step")
    _, dirs = _directions(state, MOMENTUM_BOTH)
    best = None
    for c in candidates:
        U_c, W_c = _factor_step(state, MOMENTUM_BOTH, dirs, c)
        M_c = state.prod(U_c, W_c.T)
        f_c = pca_value(M_c, state.X)
        if best is None or f_c < best[0]:
            best = (f_c, c, U_c, W_c, M_c)
    f_new, theta, U_new, W_new, M_new = best
    rec = StepRecord(f_new, inner_iters=len(candidates),
                     gnorm=_gnorm(MOMENTUM_BOTH, dirs),
                     **dict(zip(_FIELDS, theta)))
    return _commit(state, U_new, W_new, M_new, rec)


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
        callback=None) -> tuple[MfState, list[StepRecord]]:
    """Apply `scheme` for up to `iters` steps (see `optimizers.drive`);
    simul and momentum-both-inexact stop at their bitwise fixed point."""
    if scheme not in MF_SCHEMES:
        raise KeyError(f"unknown scheme {scheme!r}")
    state = init_state(X, rank, seed)
    return drive(scheme, MF_SCHEMES[scheme], state, iters,
                 state.counter.read,
                 lambda st: ("product", audit_product(st), 1e-8),
                 50, callback)
