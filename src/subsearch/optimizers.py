"""Full-batch optimizers for linear-composition objectives.

Every step tracks the margin m = Xw across iterations, so line/subspace
optimization candidates are O(n) and each iteration performs exactly two
counted products: one transpose product for the gradient and one forward
product for the search-direction image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linesearch import (LEstimate, LineSearchError, WolfeOptions,
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


def init_state(obj: LcpObjective, w0: np.ndarray | None = None) -> MarginState:
    if w0 is None:
        w = np.zeros(obj.d)
        m = np.zeros(obj.n)
    else:
        w = np.asarray(w0, dtype=np.float64).copy()
        m = obj.X.matvec(w)
    return MarginState(w=w, m=m, f=obj.f_value_margin(w, m))


def _gradient(state: MarginState, obj: LcpObjective) -> np.ndarray:
    """Current full gradient; one counted product."""
    return obj.f_grad_margin(state.w, state.m)


def _shift_prev(state, obj, w_new, m_new, f_new, grad, grad_image):
    state.w_prev, state.m_prev = state.w, state.m
    state.grad_prev, state.grad_image_prev = grad, grad_image
    state.w, state.m, state.f = w_new, m_new, f_new
    state.k += 1


def audit_margin(state: MarginState, obj: LcpObjective) -> float:
    """Relative drift of the tracked margin; uses the audit counter."""
    m_true = obj.X.matvec(state.w, audit=True)
    return float(np.linalg.norm(state.m - m_true)
                 / (1.0 + np.linalg.norm(state.m)))


# ---------------------------------------------------------------------------
# subspace steps

def _apply_theta(state, obj, dirs, theta):
    w_new = state.w.copy()
    m_new = state.m.copy()
    for t, (p, q) in zip(theta, dirs):
        w_new += t * p
        m_new += t * q
    return w_new, m_new


def _so_step(state, obj, dirs, slots, method, grad, grad_image,
             warm=None, solver_opts=None, flag=None):
    """Shared core: solve the restriction to `dirs` and commit the result."""
    sp = obj.subspace_restrict(state.w, state.m,
                               [p for p, _ in dirs], [q for _, q in dirs])
    res = solve(sp, solver_opts or SubSolverOptions(), theta0=warm)
    w_new, m_new = _apply_theta(state, obj, dirs, res.theta)
    rec = StepRecord(method=method, f=res.value, inner_iters=res.inner_iters,
                     flag=flag)
    for slot, t in zip(slots, res.theta):
        setattr(rec, slot, float(t))
    if "delta" in slots:
        rec.delta = rec.delta + 1.0  # recorded as the actual scaling factor
    _shift_prev(state, obj, w_new, m_new, res.value, grad, grad_image)
    state.alpha_prev = rec.alpha1 if rec.alpha1 else state.alpha_prev
    return rec


def step_gd_lo(state, obj, warm=None, solver_opts=None):
    grad = _gradient(state, obj)
    q = obj.X.matvec(grad)
    return _so_step(state, obj, [(-grad, -q)], ["alpha1"], "gd(lo)",
                    grad, q, warm=warm, solver_opts=solver_opts)


def step_memory_gradient(state, obj, warm=None, solver_opts=None):
    """GD+M(SO): 2-d plane search over learning and momentum rates."""
    grad = _gradient(state, obj)
    q = obj.X.matvec(grad)
    dirs = [(-grad, -q)]
    slots = ["alpha1"]
    if state.m_prev is not None:
        dirs.append((state.w - state.w_prev, state.m - state.m_prev))
        slots.append("beta1")
    return _so_step(state, obj, dirs, slots, "gd+m(so)", grad, q,
                    warm=warm, solver_opts=solver_opts)


def step_nag_so(state, obj, warm=None, solver_opts=None):
    """3-d SO over gradient, momentum, and gradient-momentum directions."""
    grad = _gradient(state, obj)
    q = obj.X.matvec(grad)
    dirs = [(-grad, -q)]
    slots = ["alpha1"]
    if state.m_prev is not None:
        dirs.append((state.w - state.w_prev, state.m - state.m_prev))
        slots.append("beta1")
    if state.grad_prev is not None and state.grad_image_prev is not None:
        dirs.append((grad - state.grad_prev, q - state.grad_image_prev))
        slots.append("gamma")
    return _so_step(state, obj, dirs, slots, "nag(so)", grad, q,
                    warm=warm, solver_opts=solver_opts)


def step_snag_so(state, obj, warm=None, solver_opts=None):
    """4-d SO: adds a scaling of the iterate (delta = 1 + theta)."""
    grad = _gradient(state, obj)
    q = obj.X.matvec(grad)
    dirs = [(-grad, -q)]
    slots = ["alpha1"]
    if state.m_prev is not None:
        dirs.append((state.w - state.w_prev, state.m - state.m_prev))
        slots.append("beta1")
    if state.grad_prev is not None and state.grad_image_prev is not None:
        dirs.append((grad - state.grad_prev, q - state.grad_image_prev))
        slots.append("gamma")
    dirs.append((state.w.copy(), state.m.copy()))
    slots.append("delta")
    return _so_step(state, obj, dirs, slots, "snag(so)", grad, q,
                    warm=warm, solver_opts=solver_opts)


# ---------------------------------------------------------------------------
# backtracking methods

def step_gd_fixedL(state, obj):
    """GD(1/L): Armijo with sigma=1/2 via doubling; L persists across steps."""
    grad = _gradient(state, obj)
    q = obj.X.matvec(grad)
    gsq = float(grad @ grad)
    if gsq == 0:
        rec = StepRecord("gd(1/l)", state.f, alpha1=0.0)
        _shift_prev(state, obj, state.w.copy(), state.m.copy(), state.f,
                    grad, q)
        return rec
    f0 = state.f
    L = state.L.L
    doublings = 0
    first = True
    while True:
        w_t = state.w - grad / L
        if first:
            m_t = state.m - q / L
            first = False
        else:
            m_t = obj.X.matvec(w_t)
        f_t = obj.f_value_margin(w_t, m_t)
        if np.isfinite(f_t) and f_t <= f0 - gsq / (2.0 * L):
            break
        L *= 2.0
        doublings += 1
        if L > 1e30:
            raise LineSearchError("curvature estimate exceeded 1e30")
    state.L.L = L
    rec = StepRecord("gd(1/l)", f_t, alpha1=1.0 / L, inner_iters=doublings)
    _shift_prev(state, obj, w_t, m_t, f_t, grad, q)
    return rec


def step_nag_fixedL(state, obj):
    """NAG(1/L): FISTA-style extrapolation with the same doubling rule."""
    t_next, mix = fista_momentum(state.nag_t)
    if state.m_prev is None:
        y_w, m_y = state.w, state.m
    else:
        y_w = state.w + mix * (state.w - state.w_prev)
        m_y = state.m + mix * (state.m - state.m_prev)
    state.nag_t = t_next
    grad_y = obj.f_grad_margin(y_w, m_y)
    q = obj.X.matvec(grad_y)
    gsq = float(grad_y @ grad_y)
    f_y = obj.f_value_margin(y_w, m_y)
    L = state.L.L
    doublings = 0
    first = True
    while True:
        w_t = y_w - grad_y / L
        if first:
            m_t = m_y - q / L
            first = False
        else:
            m_t = obj.X.matvec(w_t)
        f_t = obj.f_value_margin(w_t, m_t)
        if np.isfinite(f_t) and f_t <= f_y - gsq / (2.0 * L):
            break
        L *= 2.0
        doublings += 1
        if L > 1e30:
            raise LineSearchError("curvature estimate exceeded 1e30")
    state.L.L = L
    rec = StepRecord("nag(1/l)", f_t, alpha1=1.0 / L, inner_iters=doublings)
    _shift_prev(state, obj, w_t, m_t, f_t, grad_y, q)
    return rec


# ---------------------------------------------------------------------------
# Wolfe-mode and conjugate-gradient steps

def _wolfe_along(state, obj, p, q, alpha_init, method, grad,
                 grad_image, flag=None, wolfe_opts=None):
    """Strong Wolfe search along direction p with margin image q."""
    lam = obj.l2_lambda

    def phi(a):
        return obj.f_value_margin(state.w + a * p, state.m + a * q)

    def dphi(a):
        g = obj.g_grad(state.m + a * q) @ q
        if lam > 0:
            g += lam * float((state.w + a * p) @ p)
        return g

    res = strong_wolfe(phi, dphi, alpha_init, wolfe_opts or WolfeOptions())
    a = res.alpha
    rec = StepRecord(method, res.value, alpha1=a, inner_iters=res.evals,
                     wolfe_verified=res.verified if res.success else None,
                     flag=flag if res.success else (flag or "wolfe_fail"))
    w_new = state.w + a * p
    m_new = state.m + a * q
    _shift_prev(state, obj, w_new, m_new, res.value, grad, grad_image)
    if a > 0:
        state.alpha_prev = a
    return rec


def step_gd_wolfe(state, obj, wolfe_opts=None):
    grad = _gradient(state, obj)
    q = obj.X.matvec(grad)
    a0 = state.alpha_prev if state.alpha_prev else 1.0
    return _wolfe_along(state, obj, -grad, -q, a0, "gd(ls)", grad, q,
                        wolfe_opts=wolfe_opts)


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


def step_cg_prp(state, obj, mode="lo", eta_formula="hs", warm=None,
                solver_opts=None, wolfe_opts=None):
    """GD+M(LS)/GD+M(LO): nonlinear CG direction, Wolfe or LO step size."""
    grad = _gradient(state, obj)
    q = obj.X.matvec(grad)
    eta = 0.0
    if state.grad_prev is not None and state.w_prev is not None:
        eta = pr_plus(grad, state.grad_prev, state.w, state.w_prev,
                      eta_formula)
    p = -grad + eta * (state.w - state.w_prev) if eta else -grad
    qd = -q + eta * (state.m - state.m_prev) if eta else -q
    flag = None
    if float(p @ grad) >= 0:
        eta, p, qd = 0.0, -grad, -q
        flag = "momentum_reset"
    method = "gd+m(ls)" if mode == "wolfe" else "gd+m(lo)"
    if mode == "wolfe":
        a0 = state.alpha_prev if state.alpha_prev else 1.0
        rec = _wolfe_along(state, obj, p, qd, a0, method, grad, q,
                           flag=flag, wolfe_opts=wolfe_opts)
    else:
        rec = _so_step(state, obj, [(p, qd)], ["alpha1"], method, grad, q,
                       warm=warm, solver_opts=solver_opts, flag=flag)
    rec.beta1 = eta * (rec.alpha1 or 0.0) if eta else (0.0 if flag else None)
    return rec


# ---------------------------------------------------------------------------
# L-BFGS

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
    grad = _gradient(state, obj)
    _lbfgs_absorb(state, grad)
    d = lbfgs_direction(state.lbfgs_pairs, grad, state.lbfgs_memory)
    flag = None
    if float(d @ grad) <= 0:
        d = -d
        flag = "negated_direction"
    q = obj.X.matvec(d)
    p1, q1 = -d, -q
    method = {"wolfe": "qn(ls)", "lo": "qn(lo)",
              "momentum_so": "qn+m(so)"}[mode]
    w_old = state.w
    if mode == "wolfe":
        rec = _wolfe_along(state, obj, p1, q1, 1.0, method, grad, q,
                           flag=flag, wolfe_opts=wolfe_opts)
    elif mode == "lo":
        rec = _so_step(state, obj, [(p1, q1)], ["alpha1"], method, grad, q,
                       warm=warm, solver_opts=solver_opts, flag=flag)
    else:
        dirs = [(p1, q1)]
        slots = ["alpha1"]
        if state.m_prev is not None:
            dirs.append((state.w - state.w_prev, state.m - state.m_prev))
            slots.append("beta1")
        rec = _so_step(state, obj, dirs, slots, method, grad, q,
                       warm=warm, solver_opts=solver_opts, flag=flag)
    state.pending_s = state.w - w_old
    return rec


# ---------------------------------------------------------------------------
# Adam

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
    grad = _gradient(state, obj)
    d = adam_direction(state, grad, beta1, beta2, eps)
    q = obj.X.matvec(d)
    method = {"default": "adam", "wolfe": "adam(ls)", "lo": "adam(lo)",
              "two_dir_so": "adam2(so)"}[mode]
    if mode == "default":
        w_new = state.w - alpha_default * d
        m_new = state.m - alpha_default * q
        f_new = obj.f_value_margin(w_new, m_new)
        rec = StepRecord(method, f_new, alpha1=alpha_default)
        _shift_prev(state, obj, w_new, m_new, f_new, grad, q)
    elif mode == "wolfe":
        flag = None
        if float(d @ grad) <= 0:
            # -d is not a descent direction; search along +d instead
            d, q = -d, -q
            flag = "negated_direction"
            if float(d @ grad) <= 0:
                rec = StepRecord(method, state.f, alpha1=0.0,
                                 flag="no_descent")
                _shift_prev(state, obj, state.w.copy(), state.m.copy(),
                            state.f, grad, q)
                state.adam_d_prev, state.adam_d_prev_image = d, q
                return rec
        a0 = state.alpha_prev if state.alpha_prev else 1.0
        rec = _wolfe_along(state, obj, -d, -q, a0, method, grad, q,
                           flag=flag, wolfe_opts=wolfe_opts)
    elif mode == "lo":
        rec = _so_step(state, obj, [(-d, -q)], ["alpha1"], method, grad, q,
                       warm=warm, solver_opts=solver_opts)
    else:
        dirs = [(-d, -q)]
        slots = ["alpha1"]
        if state.adam_d_prev is not None:
            dirs.append((-state.adam_d_prev, -state.adam_d_prev_image))
            slots.append("alpha2")
        rec = _so_step(state, obj, dirs, slots, method, grad, q,
                       warm=warm, solver_opts=solver_opts)
    state.adam_d_prev, state.adam_d_prev_image = d, q
    return rec


# ---------------------------------------------------------------------------
# method registry and driver

def _make(fn, **kw):
    return lambda state, obj: fn(state, obj, **kw)


LCP_METHODS = {
    "gd(1/l)": _make(step_gd_fixedL),
    "gd(ls)": _make(step_gd_wolfe),
    "gd(lo)": _make(step_gd_lo),
    "gd+m(ls)": _make(step_cg_prp, mode="wolfe"),
    "gd+m(lo)": _make(step_cg_prp, mode="lo"),
    "gd+m(so)": _make(step_memory_gradient),
    "nag(1/l)": _make(step_nag_fixedL),
    "nag(so)": _make(step_nag_so),
    "snag(so)": _make(step_snag_so),
    "qn(ls)": _make(step_qn, mode="wolfe"),
    "qn(lo)": _make(step_qn, mode="lo"),
    "qn+m(so)": _make(step_qn, mode="momentum_so"),
    "adam": _make(step_adam, mode="default"),
    "adam(ls)": _make(step_adam, mode="wolfe"),
    "adam(lo)": _make(step_adam, mode="lo"),
    "adam2(so)": _make(step_adam, mode="two_dir_so"),
}

# methods whose per-iteration product budget is exactly 2
LO_SO_METHODS = ("gd(lo)", "gd(ls)", "gd+m(ls)", "gd+m(lo)", "gd+m(so)",
                 "nag(so)", "snag(so)", "qn(ls)", "qn(lo)", "qn+m(so)",
                 "adam(ls)", "adam(lo)", "adam2(so)")
# methods guaranteed monotone by the subsolver's never-worse bookkeeping
MONOTONE_METHODS = ("gd(lo)", "gd+m(lo)", "gd+m(so)", "nag(so)", "snag(so)",
                    "qn(lo)", "qn+m(so)", "adam(lo)", "adam2(so)")


def run(method: str, obj: LcpObjective, iters: int,
        w0: np.ndarray | None = None, audit_every: int = 100,
        callback=None) -> tuple[MarginState, list[StepRecord]]:
    """Apply `method` for `iters` steps, recording products per iteration."""
    if method not in LCP_METHODS:
        raise KeyError(f"unknown method {method!r}")
    step_fn = LCP_METHODS[method]
    state = init_state(obj, w0)
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
            drift = audit_margin(state, obj)
            if drift > 1e-8:
                raise RuntimeError(
                    f"margin drift {drift:.3e} at iteration {k + 1}")
        if callback is not None:
            callback(k, state, rec)
    return state, records
