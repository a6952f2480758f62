"""Full-batch optimizers on tracked-image models, and the shared step driver.

An SO-friendly model keeps the image of its iterate: the margin m = Xw of a
linear-composition problem, the pre-activations M = XW of the network.  Line
and subspace candidates are then evaluated from the image alone, and each
LO/SO iteration performs exactly two counted products: one for the gradient
and one for the image of the search direction.

The steps are written once against a tracked state (`MarginState` here,
`network.NetState` for the network), which is the per-model adapter:

- `blocks`: the parameter blocks with the tracked image last, (w, m) or
  (W, v, M); `prev_blocks` the same one step back, or None;
- `gradient(obj)`: the gradient blocks and the image of the gradient (two
  counted products);
- `value(obj, blocks)`: f at a tracked point (no products);
- `recompute(obj, params)`: the image of new parameters (one counted
  product), for a rejected 1/L trial;
- `subspace_solve(obj, dirs, warm, opts)` and `line(obj, direction)`: the
  restriction to a list of directions solved by the subsolver, and the
  1-d value and slope closures for the Wolfe search;
- `dot`, `momentum_coef` and `advance`: the model's inner product, its PR+
  coefficient, and committing a step.

A direction is a tuple shaped like `blocks`; None marks a block it leaves
alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .linesearch import (LEstimate, WolfeOptions, backtrack_half,
                         fista_momentum, strong_wolfe)
from .objectives import LcpObjective
from .subsolver import SubSolverOptions, solve

STEP_SLOTS = ("alpha1", "beta1", "alpha2", "beta2", "gamma", "delta")


@dataclass(slots=True)
class StepRecord:
    method: str
    f: float
    products: int = 0
    inner_iters: int = 0
    alpha1: float | None = None
    beta1: float | None = None
    alpha2: float | None = None
    beta2: float | None = None
    gamma: float | None = None
    delta: float | None = None
    flag: str | None = None
    wolfe_verified: bool | None = None
    elapsed_s: float = 0.0


def pr_plus(grad, grad_prev, w, w_prev, formula="hs"):
    """Non-negative momentum coefficient for the (w - w_prev) direction.

    "hs" divides by (w-w_prev)^T(grad-grad_prev), which reproduces linear CG
    under exact line optimization; "prp_prev" and "prp_cur" divide by the
    squared norms of the previous/current gradient respectively.
    """
    yv = grad - grad_prev
    num = float(grad @ yv)
    if formula == "hs":
        den = float((w - w_prev) @ yv)
    elif formula == "prp_prev":
        den = float(grad_prev @ grad_prev)
    elif formula == "prp_cur":
        den = float(grad @ grad)
    else:
        raise ValueError(f"unknown PR+ formula {formula!r}")
    if den <= 0:
        return 0.0
    return max(0.0, num / den)


@dataclass
class MarginState:
    w: np.ndarray
    m: np.ndarray
    f: float
    w_prev: np.ndarray | None = None
    m_prev: np.ndarray | None = None
    grad_prev: np.ndarray | None = None
    grad_image_prev: np.ndarray | None = None
    alpha_prev: float | None = None
    L: LEstimate = field(default_factory=LEstimate)
    # quasi-Newton memory
    lbfgs_pairs: list = field(default_factory=list)
    lbfgs_memory: int = 10
    pending_s: np.ndarray | None = None
    # Adam accumulators
    adam_mu: np.ndarray | None = None
    adam_v: np.ndarray | None = None
    adam_d_prev: np.ndarray | None = None
    adam_d_prev_image: np.ndarray | None = None
    # NAG/FISTA
    nag_t: float = 1.0
    k: int = 0

    @property
    def blocks(self):
        return (self.w, self.m)

    @property
    def prev_blocks(self):
        return None if self.m_prev is None else (self.w_prev, self.m_prev)

    def advance(self, blocks, f, grad, grad_image):
        self.w_prev, self.m_prev = self.w, self.m
        self.grad_prev, self.grad_image_prev = grad[0], grad_image
        self.w, self.m = blocks
        self.f = f
        self.k += 1

    def gradient(self, obj: LcpObjective):
        """Full gradient and its margin image; two counted products."""
        g = obj.f_grad_margin(self.w, self.m)
        return (g,), obj.X.matvec(g)

    @staticmethod
    def value(obj: LcpObjective, blocks) -> float:
        return obj.f_value_margin(*blocks)

    @staticmethod
    def recompute(obj: LcpObjective, params) -> np.ndarray:
        return obj.X.matvec(params[0])

    @staticmethod
    def dot(a, b) -> float:
        return float(a[0] @ b[0])

    def momentum_coef(self, grad, formula: str) -> float:
        if self.grad_prev is None or self.w_prev is None:
            return 0.0
        return pr_plus(grad[0], self.grad_prev, self.w, self.w_prev, formula)

    def subspace_solve(self, obj: LcpObjective, dirs, warm, opts):
        sp = obj.subspace_restrict(self.w, self.m, [p for p, _ in dirs],
                                   [q for _, q in dirs])
        return solve(sp, opts, theta0=warm)

    def line(self, obj: LcpObjective, direction):
        """Margin-space value and slope along p with image q."""
        p, q = direction
        lam = obj.l2_lambda

        def phi(a):
            return obj.f_value_margin(self.w + a * p, self.m + a * q)

        def dphi(a):
            g = obj.g_grad(self.m + a * q) @ q
            if lam > 0:
                g += lam * float((self.w + a * p) @ p)
            return g

        return phi, dphi


def init_state(obj: LcpObjective, w0: np.ndarray | None = None) -> MarginState:
    if w0 is None:
        w = np.zeros(obj.d)
        m = np.zeros(obj.n)
    else:
        w = np.asarray(w0, dtype=np.float64).copy()
        m = obj.X.matvec(w)
    return MarginState(w=w, m=m, f=obj.f_value_margin(w, m))


def audit_margin(state: MarginState, obj: LcpObjective) -> float:
    """Relative drift of the tracked margin; uses the audit counter."""
    m_true = obj.X.matvec(state.w, audit=True)
    return float(np.linalg.norm(state.m - m_true)
                 / (1.0 + np.linalg.norm(state.m)))


# ---------------------------------------------------------------------------
# tracked-state steps, shared by the LCPs and the network

def grad_dir(grad, grad_image):
    """The negative gradient as a direction."""
    return (*(-g for g in grad), -grad_image)


def momentum_dir(state):
    """The last step, x - x_prev, as a direction."""
    return tuple(b - bp for b, bp in zip(state.blocks, state.prev_blocks))


def _apply(blocks, dirs, theta):
    new = [b.copy() for b in blocks]
    for t, d in zip(theta, dirs):
        for b, db in zip(new, d):
            if db is not None:
                b += t * db
    return new


def so_step(state, obj, dirs, slots, method, grad, grad_image,
            warm=None, solver_opts=None, flag=None):
    """Solve the restriction to `dirs` and commit the result."""
    res = state.subspace_solve(obj, dirs, warm,
                               solver_opts or SubSolverOptions())
    rec = StepRecord(method=method, f=res.value, inner_iters=res.inner_iters,
                     flag=flag)
    for slot, t in zip(slots, res.theta):
        setattr(rec, slot, float(t))
    if "delta" in slots:
        rec.delta = rec.delta + 1.0  # recorded as the actual scaling factor
    state.advance(_apply(state.blocks, dirs, res.theta), res.value, grad,
                  grad_image)
    if rec.alpha1:
        state.alpha_prev = rec.alpha1
    return rec


def _wolfe_along(state, obj, direction, alpha_init, method, grad,
                 grad_image, flag=None, wolfe_opts=None):
    """Strong Wolfe search along `direction` from the tracked point."""
    phi, dphi = state.line(obj, direction)
    res = strong_wolfe(phi, dphi, alpha_init, wolfe_opts or WolfeOptions())
    a = res.alpha
    rec = StepRecord(method, res.value, alpha1=a, inner_iters=res.evals,
                     wolfe_verified=res.verified if res.success else None,
                     flag=flag if res.success else (flag or "wolfe_fail"))
    state.advance(_apply(state.blocks, [direction], [a]), res.value, grad,
                  grad_image)
    if a > 0:
        state.alpha_prev = a
    return rec


def _backtrack(state, obj, method, base, f0, grad, grad_image):
    """Commit base - grad/L, doubling L until the Armijo test holds.

    The test is sigma = 1/2 and L persists across steps in state.L.  The
    first trial's image comes from the tracked one; each later trial
    recomputes it, one counted product per doubling.
    """
    gsq = state.dot(grad, grad)
    if gsq == 0:
        state.advance([b.copy() for b in base], f0, grad, grad_image)
        return StepRecord(method, f0, alpha1=0.0)
    trial = []

    def value_at(L):
        params = [b - g / L for b, g in zip(base[:-1], grad)]
        image = (state.recompute(obj, params) if trial
                 else base[-1] - grad_image / L)
        trial[:] = [*params, image]
        return state.value(obj, trial)

    L, f_t, doublings = backtrack_half(value_at, f0, gsq, state.L)
    state.advance(trial, f_t, grad, grad_image)
    return StepRecord(method, f_t, alpha1=1.0 / L, inner_iters=doublings)


def step_gd_fixedL(state, obj):
    """GD(1/L): Armijo with sigma=1/2 via doubling; L persists across steps."""
    grad, q = state.gradient(obj)
    return _backtrack(state, obj, "gd(1/l)", state.blocks, state.f, grad, q)


def step_gd_wolfe(state, obj, wolfe_opts=None):
    grad, q = state.gradient(obj)
    return _wolfe_along(state, obj, grad_dir(grad, q),
                        state.alpha_prev or 1.0, "gd(ls)", grad, q,
                        wolfe_opts=wolfe_opts)


def step_gd_lo(state, obj, warm=None, solver_opts=None):
    grad, q = state.gradient(obj)
    return so_step(state, obj, [grad_dir(grad, q)], ["alpha1"], "gd(lo)",
                   grad, q, warm=warm, solver_opts=solver_opts)


def step_cg_prp(state, obj, mode="lo", eta_formula="hs", warm=None,
                solver_opts=None, wolfe_opts=None):
    """GD+M(LS)/GD+M(LO): nonlinear CG direction, Wolfe or LO step size."""
    grad, q = state.gradient(obj)
    eta = state.momentum_coef(grad, eta_formula)
    direction = grad_dir(grad, q)
    if eta:
        direction = tuple(g + eta * s
                          for g, s in zip(direction, momentum_dir(state)))
    flag = None
    if state.dot(direction[:-1], grad) >= 0:
        eta, direction = 0.0, grad_dir(grad, q)
        flag = "momentum_reset"
    if mode == "wolfe":
        rec = _wolfe_along(state, obj, direction, state.alpha_prev or 1.0,
                           "gd+m(ls)", grad, q, flag=flag,
                           wolfe_opts=wolfe_opts)
    else:
        rec = so_step(state, obj, [direction], ["alpha1"], "gd+m(lo)", grad,
                      q, warm=warm, solver_opts=solver_opts, flag=flag)
    rec.beta1 = eta * (rec.alpha1 or 0.0) if eta else (0.0 if flag else None)
    return rec


def _with_momentum(state, direction):
    """`direction` and, after the first step, the momentum direction."""
    if state.prev_blocks is None:
        return [direction], ["alpha1"]
    return [direction, momentum_dir(state)], ["alpha1", "beta1"]


def step_memory_gradient(state, obj, warm=None, solver_opts=None):
    """GD+M(SO): 2-d plane search over learning and momentum rates."""
    grad, q = state.gradient(obj)
    dirs, slots = _with_momentum(state, grad_dir(grad, q))
    return so_step(state, obj, dirs, slots, "gd+m(so)", grad, q,
                   warm=warm, solver_opts=solver_opts)


# ---------------------------------------------------------------------------
# LCP-only steps

def step_nag_so(state, obj, scaled=False, warm=None, solver_opts=None):
    """3-d SO over gradient, momentum, and gradient-momentum directions.

    `scaled` (SNAG) adds a scaling of the iterate (delta = 1 + theta).
    """
    grad, q = state.gradient(obj)
    dirs, slots = _with_momentum(state, grad_dir(grad, q))
    if state.grad_prev is not None and state.grad_image_prev is not None:
        dirs.append((grad[0] - state.grad_prev, q - state.grad_image_prev))
        slots.append("gamma")
    if scaled:
        dirs.append((state.w.copy(), state.m.copy()))
        slots.append("delta")
    return so_step(state, obj, dirs, slots,
                   "snag(so)" if scaled else "nag(so)", grad, q,
                   warm=warm, solver_opts=solver_opts)


def step_nag_fixedL(state, obj):
    """NAG(1/L): FISTA-style extrapolation with the same doubling rule."""
    t_next, mix = fista_momentum(state.nag_t)
    if state.m_prev is None:
        y = state.blocks
    else:
        y = tuple(b + mix * s for b, s in zip(state.blocks,
                                              momentum_dir(state)))
    state.nag_t = t_next
    grad_y = obj.f_grad_margin(*y)
    return _backtrack(state, obj, "nag(1/l)", y, obj.f_value_margin(*y),
                      (grad_y,), obj.X.matvec(grad_y))


def lbfgs_direction(pairs, grad, memory=10):
    """Two-loop recursion for H*grad with (s'y / y'y) initial scaling.

    With no history this is just the gradient (identity initial matrix).
    """
    if not pairs:
        return grad.copy()
    pairs = pairs[-memory:]
    q = grad.copy()
    alphas = []
    for s, yv, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * yv
    s, yv, _ = pairs[-1]
    gamma = float(s @ yv) / float(yv @ yv)
    r = gamma * q
    for (s, yv, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(yv @ r)
        r += (a - b) * s
    return r


def _lbfgs_absorb(state, grad):
    """Fold the pending (s, y) pair into the ring buffer; skip s'y <= 0."""
    if state.pending_s is not None and state.grad_prev is not None:
        s = state.pending_s
        yv = grad - state.grad_prev
        sy = float(s @ yv)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(yv) + 1e-300):
            state.lbfgs_pairs.append((s, yv, 1.0 / sy))
            if len(state.lbfgs_pairs) > state.lbfgs_memory:
                state.lbfgs_pairs.pop(0)
    state.pending_s = None


def step_qn(state, obj, mode="lo", warm=None, solver_opts=None,
            wolfe_opts=None):
    """QN(LS)/QN(LO)/QN+M(SO) with L-BFGS directions and Shanno scaling."""
    grad = obj.f_grad_margin(state.w, state.m)
    _lbfgs_absorb(state, grad)
    d = lbfgs_direction(state.lbfgs_pairs, grad, state.lbfgs_memory)
    flag = None
    if float(d @ grad) <= 0:
        d = -d
        flag = "negated_direction"
    q = obj.X.matvec(d)
    w_old = state.w
    if mode == "wolfe":
        rec = _wolfe_along(state, obj, (-d, -q), 1.0, "qn(ls)", (grad,), q,
                           flag=flag, wolfe_opts=wolfe_opts)
    else:
        if mode == "lo":
            method, dirs, slots = "qn(lo)", [(-d, -q)], ["alpha1"]
        else:
            method = "qn+m(so)"
            dirs, slots = _with_momentum(state, (-d, -q))
        rec = so_step(state, obj, dirs, slots, method, (grad,), q,
                      warm=warm, solver_opts=solver_opts, flag=flag)
    state.pending_s = state.w - w_old
    return rec


def adam_direction(state, grad, beta1=0.99, beta2=0.999, eps=1e-8):
    """Update the accumulators and return d = mu / (sqrt(v) + eps).

    No bias correction.
    """
    if state.adam_mu is None:
        state.adam_mu = np.zeros_like(grad)
        state.adam_v = np.zeros_like(grad)
    state.adam_mu = beta1 * state.adam_mu + (1 - beta1) * grad
    state.adam_v = beta2 * state.adam_v + (1 - beta2) * grad * grad
    return state.adam_mu / (np.sqrt(state.adam_v) + eps)


def step_adam(state, obj, mode="lo", beta1=0.99, beta2=0.999, eps=1e-8,
              alpha_default=1e-3, warm=None, solver_opts=None,
              wolfe_opts=None):
    grad = obj.f_grad_margin(state.w, state.m)
    d = adam_direction(state, grad, beta1, beta2, eps)
    q = obj.X.matvec(d)
    method = {"default": "adam", "wolfe": "adam(ls)", "lo": "adam(lo)",
              "two_dir_so": "adam2(so)"}[mode]
    if mode == "default":
        w_new = state.w - alpha_default * d
        m_new = state.m - alpha_default * q
        f_new = obj.f_value_margin(w_new, m_new)
        rec = StepRecord(method, f_new, alpha1=alpha_default)
        state.advance((w_new, m_new), f_new, (grad,), q)
    elif mode == "wolfe":
        flag = None
        if float(d @ grad) <= 0:
            # -d is not a descent direction; search along +d instead
            d, q = -d, -q
            flag = "negated_direction"
            if float(d @ grad) <= 0:
                rec = StepRecord(method, state.f, alpha1=0.0,
                                 flag="no_descent")
                state.advance((state.w.copy(), state.m.copy()), state.f,
                              (grad,), q)
                state.adam_d_prev, state.adam_d_prev_image = d, q
                return rec
        rec = _wolfe_along(state, obj, (-d, -q), state.alpha_prev or 1.0,
                           method, (grad,), q, flag=flag,
                           wolfe_opts=wolfe_opts)
    else:
        dirs = [(-d, -q)]
        slots = ["alpha1"]
        if mode == "two_dir_so" and state.adam_d_prev is not None:
            dirs.append((-state.adam_d_prev, -state.adam_d_prev_image))
            slots.append("alpha2")
        rec = so_step(state, obj, dirs, slots, method, (grad,), q,
                      warm=warm, solver_opts=solver_opts)
    state.adam_d_prev, state.adam_d_prev_image = d, q
    return rec


# ---------------------------------------------------------------------------
# method registry and the step driver

def make_step(fn, **kw):
    return lambda state, obj: fn(state, obj, **kw)


# the methods written against the tracked-state adapter; the network
# registers these same entries
TRACKED_METHODS = {
    "gd(1/l)": make_step(step_gd_fixedL),
    "gd(ls)": make_step(step_gd_wolfe),
    "gd(lo)": make_step(step_gd_lo),
    "gd+m(ls)": make_step(step_cg_prp, mode="wolfe"),
    "gd+m(lo)": make_step(step_cg_prp, mode="lo"),
    "gd+m(so)": make_step(step_memory_gradient),
}

LCP_METHODS = {
    **TRACKED_METHODS,
    "nag(1/l)": make_step(step_nag_fixedL),
    "nag(so)": make_step(step_nag_so),
    "snag(so)": make_step(step_nag_so, scaled=True),
    "qn(ls)": make_step(step_qn, mode="wolfe"),
    "qn(lo)": make_step(step_qn, mode="lo"),
    "qn+m(so)": make_step(step_qn, mode="momentum_so"),
    "adam": make_step(step_adam, mode="default"),
    "adam(ls)": make_step(step_adam, mode="wolfe"),
    "adam(lo)": make_step(step_adam, mode="lo"),
    "adam2(so)": make_step(step_adam, mode="two_dir_so"),
}

# methods whose per-iteration product budget is exactly 2
LO_SO_METHODS = ("gd(lo)", "gd(ls)", "gd+m(ls)", "gd+m(lo)", "gd+m(so)",
                 "nag(so)", "snag(so)", "qn(ls)", "qn(lo)", "qn+m(so)",
                 "adam(ls)", "adam(lo)", "adam2(so)")
# methods guaranteed monotone by the subsolver's never-worse bookkeeping
MONOTONE_METHODS = ("gd(lo)", "gd+m(lo)", "gd+m(so)", "nag(so)", "snag(so)",
                    "qn(lo)", "qn+m(so)", "adam(lo)", "adam2(so)")


def drive(name, step, state, iters, meter, audit, audit_every,
          callback=None):
    """The step loop behind every model's `run`; returns (state, records).

    Each record gets the products `meter` counted during its step and the
    wall time of the step call alone.  Every `audit_every` steps (0: never)
    `audit(state)` returns (what, drift, bound), and a drift above its bound
    stops the run.  A failing step is re-raised naming `name` and the
    iteration.  `callback(k, state, record)` runs after each step.
    """
    records = []
    for k in range(iters):
        before = meter()
        t0 = time.perf_counter()
        try:
            rec = step(state)
        except Exception as exc:
            raise RuntimeError(f"{name} failed at iteration {k}: {exc}") \
                from exc
        rec.elapsed_s = time.perf_counter() - t0
        rec.products = meter() - before
        records.append(rec)
        if audit_every and (k + 1) % audit_every == 0:
            what, drift, bound = audit(state)
            if drift > bound:
                raise RuntimeError(
                    f"{what} drift {drift:.3e} at iteration {k + 1}")
        if callback is not None:
            callback(k, state, rec)
    return state, records


def run(method: str, obj: LcpObjective, iters: int,
        w0: np.ndarray | None = None, audit_every: int = 100,
        callback=None) -> tuple[MarginState, list[StepRecord]]:
    """Apply `method` for `iters` steps, recording products per iteration."""
    if method not in LCP_METHODS:
        raise KeyError(f"unknown method {method!r}")
    step = LCP_METHODS[method]
    return drive(method, lambda st: step(st, obj), init_state(obj, w0),
                 iters, obj.X.counter_read,
                 lambda st: ("margin", audit_margin(st, obj), 1e-8),
                 audit_every, callback)
