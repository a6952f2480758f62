"""Fully-connected two-layer single-output network with tracked activations.

The objective is f(W, v) = ||tanh(XW) v - y||^2, optionally plus
(lambda/2)(||W||_F^2 + ||v||^2).  Tracking the hidden pre-activations
M = XW lets every candidate step be evaluated in O(nr) without touching X,
so each LS, LO or SO iteration performs exactly two counted products: X^T R
for the first-layer gradient and X D for the image of the search direction.
The shared tracked-state steps of `optimizers` run here unchanged, and the
per-layer (stepsize-block) steps are the network's own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _normals, _seed_state
from .objectives import DatasetView, memo_last
from .optimizers import (MONOTONE_RULES, TRACKED_METHODS, TWO_PRODUCT_RULES,
                         StepRecord, TrackedState, apply_rule, drive,
                         methods_with_rule, momentum_dir, pr_plus,
                         relative_drift)
from .subsolver import SubProblem, solve


@dataclass
class NetObjective(DatasetView):
    dataset: Dataset
    hidden: int
    l2_lambda: float = 0.0

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        super().__post_init__()

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


def subspace_restrict(obj: NetObjective, W, v, M, dirs) -> SubProblem:
    """Restrict f to (W, v) + sum_j theta_j (dW_j, dv_j) given images dM_j.

    Each direction is a triple (dW, dv, dM) with dM = X dW, None marking a
    block it leaves alone.

    Candidate values and gradients cost O(nrp) (plus O(drp) for the weight
    decay term), and the exact p x p Hessian O(nrp^2); all are analytic
    through tanh and use no counted products.  One trial point builds its
    combined blocks, one tanh of the n x r pre-activations and the residual
    once, shared by the value and the gradient at that theta (and so by the
    Wolfe search's phi and dphi at one step size); the Hessian forms its own
    image.  With u = tanh(M_c) v_c - y
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

    def point(theta):
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
        H = np.tanh(M_c)
        return W_c, v_c, H, H @ v_c - y

    at = memo_last(point)

    def value(theta):
        W_c, v_c, _, resid = at(theta)
        val = float(resid @ resid)
        if lam > 0:
            val += 0.5 * lam * (float(np.sum(W_c * W_c)) + float(v_c @ v_c))
        return val

    def grad(theta):
        W_c, v_c, H, resid = at(theta)
        gg = 2.0 * resid
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


class NetState(TrackedState):
    """Network iterate: blocks (W, v, M), W d x r, v r, M = XW n x r."""

    @property
    def W(self):
        return self.blocks[0]

    @property
    def v(self):
        return self.blocks[1]

    @property
    def M(self):
        return self.blocks[2]

    def gradient(self, obj: NetObjective, blocks=None):
        """Full gradient (gW, gv) at the iterate or at `blocks`; one counted
        product."""
        return gradient(obj, *(self.blocks if blocks is None else blocks))

    @staticmethod
    def image(obj: NetObjective, params) -> np.ndarray:
        """The pre-activation image X dW; one counted product."""
        return obj.X.matmat(params[0])

    @staticmethod
    def value(obj: NetObjective, blocks) -> float:
        return obj.value_tracked(*blocks)

    @staticmethod
    def dot(a, b) -> float:
        return float(np.sum(a[0] * b[0])) + float(a[1] @ b[1])

    def subspace_solve(self, obj: NetObjective, dirs, warm):
        sp = subspace_restrict(obj, self.W, self.v, self.M, dirs)
        return solve(sp, theta0=warm)

    def line(self, obj: NetObjective, direction):
        sp = subspace_restrict(obj, self.W, self.v, self.M, [direction])
        one = np.ones(1)

        def phi(a):
            return sp.value(a * one)

        def dphi(a):
            return float(sp.grad(a * one)[0])

        return phi, dphi


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
    return NetState((W, v, M), obj.value_tracked(W, v, M))


def backward(obj: NetObjective, v: np.ndarray, M: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Chain-rule factors from the pre-activations M; zero counted products.

    Returns (R, grad_v) with R_ij = dg_i (1 - tanh^2(M_ij)) v_j; the full
    first-layer gradient is X^T R (+ lambda W), computed by the caller.
    """
    H = np.tanh(M)
    gg = 2.0 * (H @ v - obj.y)
    R = gg[:, None] * (1.0 - H * H) * v[None, :]
    grad_v = H.T @ gg
    if obj.l2_lambda > 0:
        grad_v = grad_v + obj.l2_lambda * v
    return R, grad_v


def gradient(obj: NetObjective, W: np.ndarray, v: np.ndarray, M: np.ndarray,
             audit: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Full gradient (gW, gv) at (W, v) with pre-activations M = XW: one
    product X^T R, counted as an audit product when `audit` is set."""
    R, gv = backward(obj, v, M)
    gW = obj.X.rmatmat(R, audit=audit)
    if obj.l2_lambda > 0:
        gW = gW + obj.l2_lambda * W
    return gW, gv


def audit_activations(state: NetState, obj: NetObjective) -> float:
    """Relative Frobenius drift of tracked M; uses the audit counter."""
    return relative_drift(state.M, obj.X.matmat(state.W, audit=True))


def step_gd_sb(state, obj, rule="so"):
    """GD(SB): separate per-layer learning rates, set jointly by 2-d SO."""
    gW, gv = state.gradient(obj)
    D = state.image(obj, (gW, gv))
    dirs = [(-gW, None, -D), (None, -gv, None)]
    return apply_rule(state, obj, rule, dirs, ["alpha1", "alpha2"], "gd(sb)",
                      (gW, gv), D)


def step_cgm_sb(state, obj, rule="so"):
    """GD+M(SB): per-layer PR+ momentum folded into per-layer directions.

    Both coefficients reset only if the combined direction fails the
    descent test.
    """
    gW, gv = state.gradient(obj)
    D = state.image(obj, (gW, gv))
    eta1 = eta2 = dW = dv = dM = 0.0
    if state.grad_prev is not None:
        gW_prev, gv_prev, _ = state.grad_prev
        W_prev, v_prev, _ = state.prev_blocks
        eta1 = pr_plus(gW.ravel(), gW_prev.ravel(), state.W.ravel(),
                       W_prev.ravel())
        eta2 = pr_plus(gv, gv_prev, state.v, v_prev)
        dW, dv, dM = momentum_dir(state)
    d1 = (-gW + eta1 * dW, None, -D + eta1 * dM)
    d2 = (None, -gv + eta2 * dv, None)
    flag = None
    if float(np.sum(d1[0] * gW)) + float(d2[1] @ gv) >= 0:
        eta1 = eta2 = 0.0
        d1, d2 = (-gW, None, -D), (None, -gv, None)
        flag = "momentum_reset"
    rec = apply_rule(state, obj, rule, [d1, d2], ["alpha1", "alpha2"],
                     "gd+m(sb)", (gW, gv), D, flag=flag)
    rec.beta1 = eta1 * (rec.alpha1 or 0.0)
    rec.beta2 = eta2 * (rec.alpha2 or 0.0)
    return rec


def step_mg_so_sb(state, obj, rule="so", warm=None):
    """GD+M(SO+SB): per-layer learning and momentum rates via 4-d SO."""
    gW, gv = state.gradient(obj)
    D = state.image(obj, (gW, gv))
    if state.prev_blocks is None:
        dirs = [(-gW, None, -D), (None, -gv, None)]
        slots = ["alpha1", "alpha2"]
    else:
        dW, dv, dM = momentum_dir(state)
        dirs = [(-gW, None, -D), (dW, None, dM), (None, -gv, None),
                (None, dv, None)]
        slots = ["alpha1", "beta1", "alpha2", "beta2"]
    return apply_rule(state, obj, rule, dirs, slots, "gd+m(so+sb)", (gW, gv),
                      D, warm=warm)


NET_METHODS = {
    **TRACKED_METHODS,
    "gd(sb)": (step_gd_sb, "so"),
    "gd+m(sb)": (step_cgm_sb, "so"),
    "gd+m(so+sb)": (step_mg_so_sb, "so"),
}

NET_LO_SO_METHODS = methods_with_rule(NET_METHODS, TWO_PRODUCT_RULES)
NET_MONOTONE_METHODS = methods_with_rule(NET_METHODS, MONOTONE_RULES)


def run(method: str, obj: NetObjective, iters: int, seed: int = 0,
        callback=None) -> tuple[NetState, list[StepRecord]]:
    """Apply `method` for `iters` steps, recording products per iteration."""
    if method not in NET_METHODS:
        raise KeyError(f"unknown method {method!r}")
    step, rule = NET_METHODS[method]
    return drive(method, lambda st: step(st, obj, rule),
                 init_state(obj, seed=seed), iters,
                 obj.X.counter_read,
                 lambda st: ("activation", audit_activations(st, obj), 1e-8),
                 100, callback)
