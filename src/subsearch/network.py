"""Fully-connected two-layer single-output network with tracked activations.

The objective is f(W, v) = ||tanh(XW) v - y||^2, optionally plus
(lambda/2)(||W||_F^2 + ||v||^2).  Tracking the hidden pre-activations
M = XW lets every candidate step be evaluated in O(nr) without touching X,
so each LS, LO or SO iteration performs exactly two counted products: X^T R
for the first-layer gradient and X D for the image of the search direction.
The shared tracked-state steps of `optimizers` run here unchanged, gd(sb)
and gd+m(so+sb) among them under the per-layer (stepsize-block) rule "sb";
gd+m(sb), with per-layer PR+ coefficients, is the network's own step.

Each point is evaluated once.  `NetPoint` is the one evaluation: tanh of
the pre-activations, the residual and the value, and on first use H' and
the block adjoints that the gradient and the restriction read.  A
`NetState` keeps the last point it evaluated (`NetState.kept`): the last
trial point of its line or restriction, or the last point its `evaluate`
built.  At each step boundary (the commit's f, the next gradient, the next
search's zero point) the kept point is served where its blocks have the
exact bytes of the blocks being read, so one step's accepted trial point
is the next step's iterate evaluation, and a block written in place is
never served stale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _normals, _seed_state
from .objectives import DatasetView, combine, memo_last
from .optimizers import (MONOTONE_RULES, TRACKED_METHODS, TWO_PRODUCT_RULES,
                         StepRecord, TrackedState, apply_rule, drive,
                         methods_with_rule, pr_plus, relative_drift, step_gd,
                         step_memory_gradient)
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
        return NetPoint(self, W, v, M).value

    def value(self, W: np.ndarray, v: np.ndarray,
              audit: bool = False) -> float:
        return self.value_tracked(W, v, self.X.matmat(W, audit=audit))


def _block_key(lam, W, v, M) -> tuple:
    """The exact bytes of the blocks an evaluation reads: v, M, and W only
    under weight decay."""
    return (W.tobytes() if lam > 0 else None, v.tobytes(), M.tobytes())


class NetPoint:
    """The loss and its chain-rule factors at one point (W, v, M).

    Every evaluation of the network is one of these, so the value, the
    gradient and the restriction's value, gradient and Hessian at one point
    share one H = tanh(M) and one residual u = H v - y.  The constructor
    forms H, u and the value; `adjoints` forms, on its first call, u2 = 2u,
    H' = 1 - H^2 and the block adjoints gM = u2 o (H' o v),
    gv = H^T u2 + lambda v and gW = lambda W.  The gradient's first-layer
    factor R = (u2 o H') o v keeps its own order of multiplication (see
    `gradient`), so gM and R each keep the bits they always had.  W is read
    only under weight decay.

    The point keeps its blocks, which `adjoints` reads, and their bytes are
    its `key`; it may be served only while they hold the values it was
    built at.  A restriction's trial blocks are its own, and
    `NetState.evaluate` passes the key of the blocks it builds at, so
    neither can be written afterwards.
    """

    __slots__ = ("lam", "W", "v", "M", "H", "resid", "value", "_key",
                 "_adjoints")

    def __init__(self, obj: NetObjective, W, v, M, key=None):
        self.lam = lam = obj.l2_lambda
        self.W, self.v, self.M = W, v, M
        self.H = np.tanh(M)
        self.resid = resid = self.H @ v - obj.y
        val = float(resid @ resid)
        if lam > 0:
            val += 0.5 * lam * (float((W * W).sum()) + float(v @ v))
        self.value = val
        self._key = key
        self._adjoints = None

    @property
    def key(self) -> tuple:
        if self._key is None:
            self._key = _block_key(self.lam, self.W, self.v, self.M)
        return self._key

    def adjoints(self) -> tuple:
        """(u2, H', gM, gv, gW), gW None without weight decay; gv is shared
        by every caller, so it is read-only."""
        if self._adjoints is None:
            H, v, lam = self.H, self.v, self.lam
            u2 = 2.0 * self.resid
            Hp = 1.0 - H * H
            gv = H.T @ u2
            if lam > 0:
                gv += lam * v
            gv.flags.writeable = False
            self._adjoints = (u2, Hp, u2[:, None] * (Hp * v), gv,
                              lam * self.W if lam > 0 else None)
        return self._adjoints


def subspace_restrict(obj: NetObjective, W, v, M, dirs, zero=None,
                      keep=None) -> SubProblem:
    """Restrict f to (W, v) + sum_j theta_j (dW_j, dv_j) given images dM_j.

    Each direction is a triple (dW, dv, dM) with dM = X dW, None marking a
    block it leaves alone.

    Candidate values and gradients cost O(nrp) (plus O(drp) for the weight
    decay term), and the exact p x p Hessian O(nrp^2); all are analytic
    through tanh and use no counted products.  One trial point builds its
    blocks (the iterate plus `combine`'s step, as `optimizers._apply`
    commits them) and one `NetPoint` there, shared by the value, the
    gradient and the Hessian at that theta (and so by the Wolfe search's
    phi and dphi at one step size), and handed to `keep` as it is built, so
    a state can serve the point it commits to its next step.  theta = 0 is
    the iterate itself, not (W, v, M) plus a zero step: its point is `zero`,
    the iterate's own, built here only when not given.  The gradient and
    the Hessian share H' = 1 - H^2 and the block adjoints
    gM = 2u o H' o v_c, gv = H^T 2u + lambda v_c and gW = lambda W_c, formed
    once per point, so each direction's derivative is one dot product
    per block it carries.  With u = tanh(M_c) v_c - y
    and a_j = du/dtheta_j = (H' o dM_j) v_c + H dv_j, where H = tanh(M_c),
    the Hessian is

        2 a_j.a_k + 2 u.da_j/dtheta_k + lambda (<dW_j, dW_k> + dv_j.dv_k).

    The direction stacks it needs are built on its first call, so callers
    that use only values and gradients (the Wolfe search) never pay for them.
    """
    lam = obj.l2_lambda
    p = len(dirs)
    n, r = M.shape

    # without weight decay the value reads no W, so no trial forms it
    carried = dirs if lam > 0 else [(None, dv, dM) for _, dv, dM in dirs]

    if zero is None:
        zero = NetPoint(obj, W, v, M)

    def point(theta):
        if not theta.any():
            pt = zero
        else:
            pt = NetPoint(obj, *(b if s is None else b + s for b, s in
                                 zip((W, v, M), combine(theta, carried))))
        if keep is not None:
            keep(pt)
        return pt

    at = memo_last(point)

    def value(theta):
        return at(theta).value

    def grad(theta):
        _, _, gM, gv, gW = at(theta).adjoints()
        out = np.zeros(p)
        for j, (dW, dv, dM) in enumerate(dirs):
            if dM is not None:
                out[j] += np.vdot(gM, dM)
            if dv is not None:
                out[j] += gv @ dv
            if gW is not None and dW is not None:
                out[j] += np.vdot(gW, dW)
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
        pt = at(theta)
        H = pt.H
        u2, Hp, gM, _, _ = pt.adjoints()
        DMHp = DM * Hp
        A = DMHp @ pt.v + DV @ H.T                  # rows a_j, (p, n)
        # u.da_j/dtheta_k = sum_il u_i H''_il dM_j,il dM_k,il v_l + B_jk + B_kj
        # with H'' = -2 H H' and B_jk = sum_il u_i H'_il dM_j,il dv_k,l;
        # 2 u_i H''_il v_l = -2 H_il gM_il and 2B = (u2^T (DM o H')) DV^T
        DMf = DM.reshape(p, n * r)
        B2 = (u2 @ DMHp) @ DV.T
        out = (2.0 * (A @ A.T) + (DMf * (-2.0 * H * gM).ravel()) @ DMf.T
               + B2 + B2.T + K)
        return 0.5 * (out + out.T)

    return SubProblem(p, value, grad, hess)


class NetState(TrackedState):
    """Network iterate: blocks (W, v, M), W d x r, v r, M = XW n x r.

    `kept` is the last `NetPoint` evaluated on the state: the last trial
    point of its line or restriction, or the last point `evaluate` built.
    It is a cache, not a dataclass field, so `step_inputs` and copies by
    field leave it out, and dropping it changes no step's bits.
    """

    kept = None

    def evaluate(self, blocks) -> NetPoint:
        """The `NetPoint` at `blocks`: the kept one where its blocks have
        these blocks' exact bytes, else a new one, which is kept.  Step
        boundaries call it (the gradient, a commit's f, the zero point of a
        line or restriction), as `value` does for each 1/L trial; the
        trial points of a line or restriction never do."""
        key = _block_key(self.obj.l2_lambda, *blocks)
        if self.kept is None or self.kept.key != key:
            self.kept = NetPoint(self.obj, *blocks, key=key)
        return self.kept

    def _keep(self, point):
        self.kept = point

    @property
    def W(self):
        return self.blocks[0]

    @property
    def v(self):
        return self.blocks[1]

    @property
    def M(self):
        return self.blocks[2]

    def gradient(self, blocks=None):
        """Full gradient (gW, gv) at the iterate or at `blocks`; one counted
        product."""
        return gradient(self.obj, self.evaluate(
            self.blocks if blocks is None else blocks))

    def image(self, params) -> np.ndarray:
        """The pre-activation image X dW; one counted product."""
        return self.obj.X.matmat(params[0])

    def value(self, blocks) -> float:
        return self.evaluate(blocks).value

    @staticmethod
    def dot(a, b) -> float:
        return float((a[0] * b[0]).sum()) + float(a[1] @ b[1])

    @staticmethod
    def per_layer(dirs, slots):
        """The "sb" rule's split: the first layer (dW with its image dM) of
        every direction, then the second layer (dv) of every direction, whose
        slots are numbered 2 (alpha1 -> alpha2, beta1 -> beta2)."""
        return ([(dW, None, dM) for dW, _, dM in dirs]
                + [(None, dv, None) for _, dv, _ in dirs],
                [*slots, *(slot[:-1] + "2" for slot in slots)])

    def restrict(self, dirs) -> SubProblem:
        """The restriction to `dirs` at the iterate, whose zero point is the
        iterate's evaluation and whose trial points are kept."""
        return subspace_restrict(self.obj, self.W, self.v, self.M, dirs,
                                 self.evaluate(self.blocks), self._keep)

    def subspace_solve(self, dirs, warm):
        return solve(self.restrict(dirs), theta0=warm)

    def line(self, direction):
        sp = self.restrict([direction])
        one = np.ones(1)
        return (lambda a: sp.value(a * one),
                lambda a: float(sp.grad(a * one)[0]))


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
    state = NetState(obj, (W, v, obj.X.matmat(W)), np.nan)
    state.f = state.value(state.blocks)     # kept for the first gradient
    return state


def gradient(obj: NetObjective, point: NetPoint, audit: bool = False
             ) -> tuple[np.ndarray, np.ndarray]:
    """Full gradient (gW, gv) at the `NetPoint` (W, v, M = XW): one product
    X^T R with R = (u2 o H') o v, counted as an audit product when `audit`
    is set; gv is the point's own, shared and read-only."""
    u2, Hp, _, gv, lam_W = point.adjoints()
    gW = obj.X.rmatmat(u2[:, None] * Hp * point.v, audit=audit)
    if lam_W is not None:
        gW = gW + lam_W
    return gW, gv


def audit_activations(state: NetState) -> float:
    """Relative Frobenius drift of tracked M; uses the audit counter."""
    return relative_drift(state.M, state.obj.X.matmat(state.W, audit=True))


def step_cgm_sb(state, rule="so"):
    """GD+M(SB): per-layer PR+ momentum folded into per-layer directions.

    Both coefficients reset only if the combined direction fails the
    descent test.
    """
    gW, gv = state.gradient()
    D = state.image((gW, gv))
    eta1 = eta2 = dW = dv = dM = 0.0
    if state.grad_prev is not None:
        gW_prev, gv_prev, _ = state.grad_prev
        dW, dv, dM = state.step
        eta1 = pr_plus(gW.ravel(), gW_prev.ravel(), dW.ravel())
        eta2 = pr_plus(gv, gv_prev, dv)
    d1 = (-gW + eta1 * dW, None, -D + eta1 * dM)
    d2 = (None, -gv + eta2 * dv, None)
    flag = None
    if float((d1[0] * gW).sum()) + float(d2[1] @ gv) >= 0:
        eta1 = eta2 = 0.0
        d1, d2 = (-gW, None, -D), (None, -gv, None)
        flag = "momentum_reset"
    rec = apply_rule(state, rule, [d1, d2], ["alpha1", "alpha2"],
                     (gW, gv), D, flag=flag)
    rec.beta1 = eta1 * (rec.alpha1 or 0.0)
    rec.beta2 = eta2 * (rec.alpha2 or 0.0)
    return rec


NET_METHODS = {
    **TRACKED_METHODS,
    "gd(sb)": (step_gd, "sb"),
    "gd+m(sb)": (step_cgm_sb, "so"),
    "gd+m(so+sb)": (step_memory_gradient, "sb"),
}

NET_LO_SO_METHODS = methods_with_rule(NET_METHODS, TWO_PRODUCT_RULES)
NET_MONOTONE_METHODS = methods_with_rule(NET_METHODS, MONOTONE_RULES)


def run(method: str, obj: NetObjective, iters: int, seed: int = 0,
        callback=None) -> tuple[NetState, list[StepRecord]]:
    """Apply `method` for up to `iters` steps (see `optimizers.drive`),
    recording products per iteration."""
    if method not in NET_METHODS:
        raise KeyError(f"unknown method {method!r}")
    step, rule = NET_METHODS[method]
    return drive(method, lambda st: step(st, rule),
                 init_state(obj, seed=seed), iters, obj.X.counter_read,
                 lambda st: ("activation", audit_activations(st), 1e-8),
                 100, callback)
