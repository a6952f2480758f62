"""Fully-connected two-layer single-output network with tracked activations.

The objective is f(W, v) = ||tanh(XW) v - y||^2, optionally plus
(lambda/2)(||W||_F^2 + ||v||^2).  Tracking the hidden pre-activations
M = XW lets every candidate step be evaluated in O(nr) without touching X,
so each iteration performs exactly two counted products: X^T R for the
first-layer gradient and X (X^T R) for its image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, _normals, _seed_state
from .linesearch import LEstimate, LineSearchError, WolfeOptions, strong_wolfe
from .optimizers import StepRecord, pr_plus
from .subsolver import SubProblem, SubSolverOptions, solve


@dataclass
class NetObjective:
    dataset: Dataset
    hidden: int
    l2_lambda: float = 0.0

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be nonnegative")

    @property
    def X(self):
        return self.dataset.X

    @property
    def y(self) -> np.ndarray:
        return self.dataset.y

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def d(self) -> int:
        return self.dataset.d

    def value_tracked(self, W: np.ndarray, v: np.ndarray,
                      M: np.ndarray) -> float:
        """Loss from the tracked pre-activations; zero counted products."""
        resid = np.tanh(M) @ v - self.y
        val = float(resid @ resid)
        if self.l2_lambda > 0:
            val += 0.5 * self.l2_lambda * (float(np.sum(W * W))
                                           + float(v @ v))
        return val

    def value(self, W: np.ndarray, v: np.ndarray,
              audit: bool = False) -> float:
        return self.value_tracked(W, v, self.X.matmat(W, audit=audit))


# direction triple: (dW or None, dv or None, dM or None) with dM = X dW
Direction = tuple


def subspace_restrict(obj: NetObjective, W, v, M,
                      dirs: list[Direction]) -> SubProblem:
    """Restrict f to (W, v) + sum_j theta_j (dW_j, dv_j) given images dM_j.

    Candidate values and gradients cost O(nrp) (plus O(drp) for the weight
    decay term), and the exact p x p Hessian O(nrp^2); all are analytic
    through tanh and use no counted products.  With u = tanh(M_c) v_c - y
    and a_j = du/dtheta_j = (H' o dM_j) v_c + H dv_j, where H = tanh(M_c),
    the Hessian is

        2 a_j.a_k + 2 u.da_j/dtheta_k + lambda (<dW_j, dW_k> + dv_j.dv_k).

    The direction stacks it needs are built on its first call, so callers
    that use only values and gradients (the Wolfe search) never pay for them.
    """
    lam = obj.l2_lambda
    y = obj.y
    p = len(dirs)
    n, r = M.shape

    def combine(theta):
        M_c = M.copy()
        v_c = v.copy()
        W_c = W.copy() if lam > 0 else None
        for t, (dW, dv, dM) in zip(theta, dirs):
            if dM is not None:
                M_c += t * dM
            if dv is not None:
                v_c += t * dv
            if lam > 0 and dW is not None:
                W_c += t * dW
        return W_c, v_c, M_c

    def value(theta):
        W_c, v_c, M_c = combine(theta)
        resid = np.tanh(M_c) @ v_c - y
        val = float(resid @ resid)
        if lam > 0:
            val += 0.5 * lam * (float(np.sum(W_c * W_c)) + float(v_c @ v_c))
        return val

    def grad(theta):
        W_c, v_c, M_c = combine(theta)
        H = np.tanh(M_c)
        gg = 2.0 * (H @ v_c - y)
        Hp = 1.0 - H * H
        out = np.empty(p)
        for j, (dW, dv, dM) in enumerate(dirs):
            t = 0.0
            if dM is not None:
                t += float(gg @ ((Hp * dM) @ v_c))
            if dv is not None:
                t += float(gg @ (H @ dv))
            if lam > 0:
                if dW is not None:
                    t += lam * float(np.sum(W_c * dW))
                if dv is not None:
                    t += lam * float(v_c @ dv)
            out[j] = t
        return out

    stacks = None

    def direction_stacks():
        # None slots become zero rows: dM (p, n, r), dv (p, r), and the
        # constant weight-decay Gram
        DM = np.zeros((p, n, r))
        DV = np.zeros((p, r))
        DW = np.zeros((p, W.size)) if lam > 0 else None
        for j, (dW, dv, dM) in enumerate(dirs):
            if dM is not None:
                DM[j] = dM
            if dv is not None:
                DV[j] = dv
            if lam > 0 and dW is not None:
                DW[j] = dW.ravel()
        K = lam * (DW @ DW.T + DV @ DV.T) if lam > 0 else 0.0
        return DM, DV, K

    def hess(theta):
        nonlocal stacks
        if stacks is None:
            stacks = direction_stacks()
        DM, DV, K = stacks
        M_c = M + np.tensordot(theta, DM, 1)
        v_c = v + theta @ DV
        H = np.tanh(M_c)
        Hp = 1.0 - H * H
        u = H @ v_c - y
        A = (Hp * DM) @ v_c + DV @ H.T              # rows a_j, (p, n)
        # u.da_j/dtheta_k = sum_il u_i H''_il dM_j,il dM_k,il v_l + B_jk + B_kj
        # with H'' = -2 H H' and B_jk = sum_il u_i H'_il dM_j,il dv_k,l
        P = (u[:, None] * (-2.0 * H * Hp) * v_c).ravel()
        DMf = DM.reshape(p, n * r)
        B = (DM * (u[:, None] * Hp)).sum(axis=1) @ DV.T
        out = 2.0 * (A @ A.T + (DMf * P) @ DMf.T + B + B.T) + K
        return 0.5 * (out + out.T)

    return SubProblem(p, value, grad, hess)


@dataclass
class NetState:
    W: np.ndarray               # d x r
    v: np.ndarray               # r
    M: np.ndarray               # n x r, tracked XW
    f: float
    W_prev: np.ndarray | None = None
    v_prev: np.ndarray | None = None
    M_prev: np.ndarray | None = None
    gW_prev: np.ndarray | None = None
    gv_prev: np.ndarray | None = None
    alpha_prev: float | None = None
    L: LEstimate = field(default_factory=LEstimate)
    k: int = 0


def init_params(d: int, r: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries ~ Normal(0, 1) / (r (d + 1)); deterministic per seed."""
    state = _seed_state(seed)
    scale = 1.0 / (r * (d + 1))
    z = _normals(state, d * r + r) * scale
    return z[:d * r].reshape(d, r), z[d * r:]


def init_state(obj: NetObjective, seed: int = 0,
               params: tuple[np.ndarray, np.ndarray] | None = None
               ) -> NetState:
    if params is None:
        W, v = init_params(obj.d, obj.hidden, seed)
    else:
        W = np.asarray(params[0], dtype=np.float64).copy()
        v = np.asarray(params[1], dtype=np.float64).copy()
    M = obj.X.matmat(W)
    return NetState(W=W, v=v, M=M, f=obj.value_tracked(W, v, M))


def backward(obj: NetObjective, state: NetState
             ) -> tuple[np.ndarray, np.ndarray]:
    """Chain-rule factors from the tracked M; zero counted products.

    Returns (R, grad_v) with R_ij = dg_i (1 - tanh^2(M_ij)) v_j; the full
    first-layer gradient is X^T R (+ lambda W), computed by the caller.
    """
    H = np.tanh(state.M)
    gg = 2.0 * (H @ state.v - obj.y)
    R = gg[:, None] * (1.0 - H * H) * state.v[None, :]
    grad_v = H.T @ gg
    if obj.l2_lambda > 0:
        grad_v = grad_v + obj.l2_lambda * state.v
    return R, grad_v


def _layer_gradient(obj, state):
    """Full gradient (gW, gv) and image D = X gW; two counted products."""
    R, gv = backward(obj, state)
    gW = obj.X.rmatmat(R)
    if obj.l2_lambda > 0:
        gW = gW + obj.l2_lambda * state.W
    D = obj.X.matmat(gW)
    return gW, gv, D


def audit_activations(state: NetState, obj: NetObjective) -> float:
    """Relative Frobenius drift of tracked M; uses the audit counter."""
    M_true = obj.X.matmat(state.W, audit=True)
    return float(np.linalg.norm(state.M - M_true)
                 / (1.0 + np.linalg.norm(state.M)))


def _shift_prev(state, W_new, v_new, M_new, f_new, gW, gv):
    state.W_prev, state.v_prev, state.M_prev = state.W, state.v, state.M
    state.gW_prev, state.gv_prev = gW, gv
    state.W, state.v, state.M, state.f = W_new, v_new, M_new, f_new
    state.k += 1


def _apply_theta(state, dirs, theta):
    W_new = state.W.copy()
    v_new = state.v.copy()
    M_new = state.M.copy()
    for t, (dW, dv, dM) in zip(theta, dirs):
        if dW is not None:
            W_new += t * dW
        if dv is not None:
            v_new += t * dv
        if dM is not None:
            M_new += t * dM
    return W_new, v_new, M_new


def _so_step(state, obj, dirs, slots, method, gW, gv,
             warm=None, solver_opts=None, flag=None):
    sp = subspace_restrict(obj, state.W, state.v, state.M, dirs)
    res = solve(sp, solver_opts or SubSolverOptions(), theta0=warm)
    W_new, v_new, M_new = _apply_theta(state, dirs, res.theta)
    rec = StepRecord(method=method, f=res.value, inner_iters=res.inner_iters,
                     flag=flag)
    for slot, t in zip(slots, res.theta):
        setattr(rec, slot, float(t))
    _shift_prev(state, W_new, v_new, M_new, res.value, gW, gv)
    if rec.alpha1:
        state.alpha_prev = rec.alpha1
    return rec


def _grad_dir(gW, gv, D):
    return (-gW, -gv, -D)


def _momentum_dir(state):
    return (state.W - state.W_prev, state.v - state.v_prev,
            state.M - state.M_prev)


def step_gd_fixedL(state, obj):
    """GD(1/L): doubling backtrack; rejected trials recompute M (counted)."""
    gW, gv, D = _layer_gradient(obj, state)
    gsq = float(np.sum(gW * gW)) + float(gv @ gv)
    if gsq == 0:
        rec = StepRecord("gd(1/l)", state.f, alpha1=0.0)
        _shift_prev(state, state.W.copy(), state.v.copy(), state.M.copy(),
                    state.f, gW, gv)
        return rec
    f0 = state.f
    L = state.L.L
    doublings = 0
    first = True
    while True:
        W_t = state.W - gW / L
        v_t = state.v - gv / L
        if first:
            M_t = state.M - D / L
            first = False
        else:
            M_t = obj.X.matmat(W_t)
        f_t = obj.value_tracked(W_t, v_t, M_t)
        if np.isfinite(f_t) and f_t <= f0 - gsq / (2.0 * L):
            break
        L *= 2.0
        doublings += 1
        if L > 1e30:
            raise LineSearchError("curvature estimate exceeded 1e30")
    state.L.L = L
    rec = StepRecord("gd(1/l)", f_t, alpha1=1.0 / L, inner_iters=doublings)
    _shift_prev(state, W_t, v_t, M_t, f_t, gW, gv)
    return rec


def _wolfe_along(state, obj, direction, alpha_init, method, gW, gv,
                 flag=None, wolfe_opts=None):
    sp = subspace_restrict(obj, state.W, state.v, state.M, [direction])
    one = np.ones(1)

    def phi(a):
        return sp.value(a * one)

    def dphi(a):
        return float(sp.grad(a * one)[0])

    res = strong_wolfe(phi, dphi, alpha_init, wolfe_opts or WolfeOptions())
    a = res.alpha
    rec = StepRecord(method, res.value, alpha1=a, inner_iters=res.evals,
                     wolfe_verified=res.verified if res.success else None,
                     flag=flag if res.success else (flag or "wolfe_fail"))
    W_new, v_new, M_new = _apply_theta(state, [direction], [a])
    _shift_prev(state, W_new, v_new, M_new, res.value, gW, gv)
    if a > 0:
        state.alpha_prev = a
    return rec


def step_gd_wolfe(state, obj, wolfe_opts=None):
    gW, gv, D = _layer_gradient(obj, state)
    a0 = state.alpha_prev if state.alpha_prev else 1.0
    return _wolfe_along(state, obj, _grad_dir(gW, gv, D), a0, "gd(ls)",
                        gW, gv, wolfe_opts=wolfe_opts)


def step_gd_lo(state, obj, warm=None, solver_opts=None):
    gW, gv, D = _layer_gradient(obj, state)
    return _so_step(state, obj, [_grad_dir(gW, gv, D)], ["alpha1"],
                    "gd(lo)", gW, gv, warm=warm, solver_opts=solver_opts)


def _flat(gW, gv):
    return np.concatenate([gW.ravel(), gv])


def step_cg_prp(state, obj, mode="lo", eta_formula="hs", warm=None,
                solver_opts=None, wolfe_opts=None):
    """GD+M(LS)/GD+M(LO): PR+ momentum over both layers jointly."""
    gW, gv, D = _layer_gradient(obj, state)
    eta = 0.0
    if state.gW_prev is not None:
        eta = pr_plus(_flat(gW, gv), _flat(state.gW_prev, state.gv_prev),
                      _flat(state.W, state.v),
                      _flat(state.W_prev, state.v_prev), eta_formula)
    if eta:
        dW, dv, dM = _momentum_dir(state)
        direction = (-gW + eta * dW, -gv + eta * dv, -D + eta * dM)
    else:
        direction = _grad_dir(gW, gv, D)
    flag = None
    if float(np.sum(direction[0] * gW)) + float(direction[1] @ gv) >= 0:
        eta, direction = 0.0, _grad_dir(gW, gv, D)
        flag = "momentum_reset"
    method = "gd+m(ls)" if mode == "wolfe" else "gd+m(lo)"
    if mode == "wolfe":
        a0 = state.alpha_prev if state.alpha_prev else 1.0
        rec = _wolfe_along(state, obj, direction, a0, method, gW, gv,
                           flag=flag, wolfe_opts=wolfe_opts)
    else:
        rec = _so_step(state, obj, [direction], ["alpha1"], method, gW, gv,
                       warm=warm, solver_opts=solver_opts, flag=flag)
    rec.beta1 = eta * (rec.alpha1 or 0.0) if eta else (0.0 if flag else None)
    return rec


def step_mg_so(state, obj, warm=None, solver_opts=None):
    """GD+M(SO): tied learning and momentum rates via 2-d subspace search."""
    gW, gv, D = _layer_gradient(obj, state)
    dirs = [_grad_dir(gW, gv, D)]
    slots = ["alpha1"]
    if state.M_prev is not None:
        dirs.append(_momentum_dir(state))
        slots.append("beta1")
    return _so_step(state, obj, dirs, slots, "gd+m(so)", gW, gv,
                    warm=warm, solver_opts=solver_opts)


def step_gd_sb(state, obj, warm=None, solver_opts=None):
    """GD(SB): separate per-layer learning rates, set jointly by 2-d SO."""
    gW, gv, D = _layer_gradient(obj, state)
    dirs = [(-gW, None, -D), (None, -gv, None)]
    return _so_step(state, obj, dirs, ["alpha1", "alpha2"], "gd(sb)",
                    gW, gv, warm=warm, solver_opts=solver_opts)


def step_cgm_sb(state, obj, eta_formula="hs", warm=None, solver_opts=None):
    """GD+M(SB): per-layer PR+ momentum folded into per-layer directions.

    Both coefficients reset only if the combined direction fails the
    descent test.
    """
    gW, gv, D = _layer_gradient(obj, state)
    eta1 = eta2 = 0.0
    if state.gW_prev is not None:
        eta1 = pr_plus(gW.ravel(), state.gW_prev.ravel(),
                       state.W.ravel(), state.W_prev.ravel(), eta_formula)
        eta2 = pr_plus(gv, state.gv_prev, state.v, state.v_prev, eta_formula)
    dW, dv, dM = (_momentum_dir(state) if state.M_prev is not None
                  else (0.0, 0.0, 0.0))
    d1 = (-gW + eta1 * dW, None, -D + eta1 * dM)
    d2 = (None, -gv + eta2 * dv, None)
    flag = None
    if float(np.sum(d1[0] * gW)) + float(d2[1] @ gv) >= 0:
        eta1 = eta2 = 0.0
        d1, d2 = (-gW, None, -D), (None, -gv, None)
        flag = "momentum_reset"
    rec = _so_step(state, obj, [d1, d2], ["alpha1", "alpha2"], "gd+m(sb)",
                   gW, gv, warm=warm, solver_opts=solver_opts, flag=flag)
    rec.beta1 = eta1 * (rec.alpha1 or 0.0)
    rec.beta2 = eta2 * (rec.alpha2 or 0.0)
    return rec


def step_mg_so_sb(state, obj, warm=None, solver_opts=None):
    """GD+M(SO+SB): per-layer learning and momentum rates via 4-d SO."""
    gW, gv, D = _layer_gradient(obj, state)
    dirs = [(-gW, None, -D)]
    slots = ["alpha1"]
    if state.M_prev is not None:
        dirs.append((state.W - state.W_prev, None, state.M - state.M_prev))
        slots.append("beta1")
    dirs.append((None, -gv, None))
    slots.append("alpha2")
    if state.v_prev is not None:
        dirs.append((None, state.v - state.v_prev, None))
        slots.append("beta2")
    return _so_step(state, obj, dirs, slots, "gd+m(so+sb)", gW, gv,
                    warm=warm, solver_opts=solver_opts)


def _make(fn, **kw):
    return lambda state, obj: fn(state, obj, **kw)


NET_METHODS = {
    "gd(1/l)": _make(step_gd_fixedL),
    "gd(ls)": _make(step_gd_wolfe),
    "gd(lo)": _make(step_gd_lo),
    "gd+m(ls)": _make(step_cg_prp, mode="wolfe"),
    "gd+m(lo)": _make(step_cg_prp, mode="lo"),
    "gd+m(so)": _make(step_mg_so),
    "gd(sb)": _make(step_gd_sb),
    "gd+m(sb)": _make(step_cgm_sb),
    "gd+m(so+sb)": _make(step_mg_so_sb),
}

NET_LO_SO_METHODS = ("gd(ls)", "gd(lo)", "gd+m(ls)", "gd+m(lo)", "gd+m(so)",
                     "gd(sb)", "gd+m(sb)", "gd+m(so+sb)")
NET_MONOTONE_METHODS = ("gd(lo)", "gd+m(lo)", "gd+m(so)", "gd(sb)",
                        "gd+m(sb)", "gd+m(so+sb)")


def run(method: str, obj: NetObjective, iters: int, seed: int = 0,
        params=None, audit_every: int = 100, callback=None
        ) -> tuple[NetState, list[StepRecord]]:
    """Apply `method` for `iters` steps, recording products per iteration."""
    if method not in NET_METHODS:
        raise KeyError(f"unknown method {method!r}")
    step_fn = NET_METHODS[method]
    state = init_state(obj, seed=seed, params=params)
    records = []
    for k in range(iters):
        before = obj.X.counter_read()
        try:
            rec = step_fn(state, obj)
        except Exception as exc:
            raise RuntimeError(f"{method} failed at iteration {k}: {exc}") \
                from exc
        rec.products = obj.X.counter_read() - before
        records.append(rec)
        if audit_every and (k + 1) % audit_every == 0:
            drift = audit_activations(state, obj)
            if drift > 1e-8:
                raise RuntimeError(
                    f"activation drift {drift:.3e} at iteration {k + 1}")
        if callback is not None:
            callback(k, state, rec)
    return state, records
