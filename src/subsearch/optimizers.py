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
- `subspace_solve(obj, dirs, warm)` and `line(obj, direction)`: the
  restriction to a list of directions solved by the subsolver, and the
  1-d value and slope closures for the Wolfe search;
- `dot`, `momentum_coef` and `advance`: the model's inner product, its PR+
  coefficient, and committing a step.

A direction is a tuple shaped like `blocks`; None marks a block it leaves
alone.  A method is a step function, which builds the method's directions,
plus a step-size rule, which `apply_rule` carries out:

  "1/l"    backtracking on L along the negative gradient
  "fixed"  a constant step along the first direction
  "ls"     a strong Wolfe line search along the first direction
  "lo"     line optimization along the first direction
  "so"     subspace optimization over all of the directions

LS, LO and SO spend exactly two products per iteration, and LO and SO are
never worse than the zero step; the method tables below are keyed by name
to (step, rule), and the budget and monotone method sets derive from them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .linesearch import LEstimate, backtrack_half, fista_momentum, strong_wolfe
from .objectives import LcpObjective
from .subsolver import solve

# L-BFGS keeps this many (s, y) pairs
LBFGS_MEMORY = 10
# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.99
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# the "fixed" rule's step size, Adam's default learning rate
FIXED_STEP = 1e-3


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
    pending_s: np.ndarray | None = None
    # Adam accumulators and the last Adam direction
    adam_mu: np.ndarray | None = None
    adam_v: np.ndarray | None = None
    adam_dir_prev: tuple | None = None
    # NAG/FISTA
    nag_t: float = 1.0

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

    def momentum_coef(self, grad) -> float:
        if self.grad_prev is None or self.w_prev is None:
            return 0.0
        return pr_plus(grad[0], self.grad_prev, self.w, self.w_prev)

    def subspace_solve(self, obj: LcpObjective, dirs, warm):
        sp = obj.subspace_restrict(self.w, self.m, [p for p, _ in dirs],
                                   [q for _, q in dirs])
        return solve(sp, theta0=warm)

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
            warm=None, flag=None):
    """Solve the restriction to `dirs` and commit the result."""
    res = state.subspace_solve(obj, dirs, warm)
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
                 grad_image, flag=None):
    """Strong Wolfe search along `direction` from the tracked point."""
    phi, dphi = state.line(obj, direction)
    res = strong_wolfe(phi, dphi, alpha_init)
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


def apply_rule(state, obj, rule, dirs, slots, method, grad, grad_image,
               flag=None, alpha_init=None, warm=None):
    """Commit a step along `dirs`, its sizes set by the step-size `rule`.

    "1/l" backtracks from the iterate along the negative gradient, which
    `dirs[0]` must be; "fixed" steps FIXED_STEP along `dirs[0]`; "ls" runs
    a strong Wolfe search along `dirs[0]` from `alpha_init` (default: the
    last accepted step size, or 1); "lo" optimizes the step size along
    `dirs[0]` and "so" one step size per direction, `slots` naming the
    record fields.
    """
    if rule == "1/l":
        return _backtrack(state, obj, method, state.blocks, state.f, grad,
                          grad_image)
    if rule == "fixed":
        blocks = _apply(state.blocks, dirs[:1], [FIXED_STEP])
        f = state.value(obj, blocks)
        state.advance(blocks, f, grad, grad_image)
        return StepRecord(method, f, alpha1=FIXED_STEP, flag=flag)
    if rule == "ls":
        return _wolfe_along(state, obj, dirs[0],
                            alpha_init or state.alpha_prev or 1.0, method,
                            grad, grad_image, flag)
    if rule == "lo":
        dirs, slots = dirs[:1], slots[:1]
    return so_step(state, obj, dirs, slots, method, grad, grad_image,
                   warm=warm, flag=flag)


def step_gd(state, obj, rule, warm=None):
    """GD: the negative gradient with the 1/L, LS or LO step size."""
    grad, q = state.gradient(obj)
    return apply_rule(state, obj, rule, [grad_dir(grad, q)], ["alpha1"],
                      f"gd({rule})", grad, q, warm=warm)


# GD(1/L) and GD(LO) as single steps, for comparisons from one state
step_gd_fixedL = partial(step_gd, rule="1/l")
step_gd_lo = partial(step_gd, rule="lo")


def step_cg_prp(state, obj, rule):
    """GD+M(LS)/GD+M(LO): nonlinear CG direction, Wolfe or LO step size."""
    grad, q = state.gradient(obj)
    eta = state.momentum_coef(grad)
    direction = grad_dir(grad, q)
    if eta:
        direction = tuple(g + eta * s
                          for g, s in zip(direction, momentum_dir(state)))
    flag = None
    if state.dot(direction[:-1], grad) >= 0:
        eta, direction = 0.0, grad_dir(grad, q)
        flag = "momentum_reset"
    rec = apply_rule(state, obj, rule, [direction], ["alpha1"],
                     f"gd+m({rule})", grad, q, flag=flag)
    rec.beta1 = eta * (rec.alpha1 or 0.0) if eta else (0.0 if flag else None)
    return rec


def _with_momentum(state, direction):
    """`direction` and, after the first step, the momentum direction."""
    if state.prev_blocks is None:
        return [direction], ["alpha1"]
    return [direction, momentum_dir(state)], ["alpha1", "beta1"]


def step_memory_gradient(state, obj, rule="so", warm=None):
    """GD+M(SO): 2-d plane search over learning and momentum rates."""
    grad, q = state.gradient(obj)
    dirs, slots = _with_momentum(state, grad_dir(grad, q))
    return apply_rule(state, obj, rule, dirs, slots, "gd+m(so)", grad, q,
                      warm=warm)


# ---------------------------------------------------------------------------
# LCP-only steps

def step_nag_so(state, obj, rule="so", scaled=False):
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
    return apply_rule(state, obj, rule, dirs, slots,
                      "snag(so)" if scaled else "nag(so)", grad, q)


def step_nag_fixedL(state, obj, rule="1/l"):
    """NAG(1/L): FISTA-style extrapolation with the same doubling rule.

    The 1/L rule backtracks from the extrapolated point, not the iterate.
    """
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


def lbfgs_direction(pairs, grad):
    """Two-loop recursion for H*grad with (s'y / y'y) initial scaling.

    With no history this is just the gradient (identity initial matrix).
    """
    if not pairs:
        return grad.copy()
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
            if len(state.lbfgs_pairs) > LBFGS_MEMORY:
                state.lbfgs_pairs.pop(0)
    state.pending_s = None


def step_qn(state, obj, rule):
    """QN(LS)/QN(LO)/QN+M(SO) with L-BFGS directions and Shanno scaling.

    The SO rule adds the momentum direction.
    """
    grad = obj.f_grad_margin(state.w, state.m)
    _lbfgs_absorb(state, grad)
    d = lbfgs_direction(state.lbfgs_pairs, grad)
    flag = None
    if float(d @ grad) <= 0:
        d = -d
        flag = "negated_direction"
    q = obj.X.matvec(d)
    w_old = state.w
    dirs, slots = _with_momentum(state, (-d, -q))
    rec = apply_rule(state, obj, rule, dirs, slots,
                     "qn+m(so)" if rule == "so" else f"qn({rule})", (grad,),
                     None, flag=flag, alpha_init=1.0)
    state.pending_s = state.w - w_old
    return rec


def adam_direction(state, grad):
    """Update the accumulators and return d = mu / (sqrt(v) + eps).

    No bias correction.
    """
    if state.adam_mu is None:
        state.adam_mu = np.zeros_like(grad)
        state.adam_v = np.zeros_like(grad)
    state.adam_mu = ADAM_BETA1 * state.adam_mu + (1 - ADAM_BETA1) * grad
    state.adam_v = (ADAM_BETA2 * state.adam_v
                    + (1 - ADAM_BETA2) * grad * grad)
    return state.adam_mu / (np.sqrt(state.adam_v) + ADAM_EPS)


def step_adam(state, obj, rule):
    """Adam/Adam(LS)/Adam(LO)/Adam2(SO); SO adds the last Adam direction."""
    grad = obj.f_grad_margin(state.w, state.m)
    d = adam_direction(state, grad)
    q = obj.X.matvec(d)
    method = {"fixed": "adam", "so": "adam2(so)"}.get(rule, f"adam({rule})")
    flag = None
    if rule == "ls" and float(d @ grad) <= 0:
        # -d is not a descent direction; search along +d instead
        d, q = -d, -q
        flag = "no_descent" if float(d @ grad) <= 0 else "negated_direction"
    dirs = [(-d, -q)]
    if state.adam_dir_prev is not None:
        dirs.append(state.adam_dir_prev)
    state.adam_dir_prev = dirs[0]
    if flag == "no_descent":
        state.advance((state.w.copy(), state.m.copy()), state.f, (grad,),
                      None)
        return StepRecord(method, state.f, alpha1=0.0, flag=flag)
    return apply_rule(state, obj, rule, dirs, ["alpha1", "alpha2"], method,
                      (grad,), None, flag=flag)


# ---------------------------------------------------------------------------
# method tables and the step driver

# each method is a step function, which builds its directions, and a
# step-size rule; the network registers these same entries
TRACKED_METHODS = {
    "gd(1/l)": (step_gd, "1/l"),
    "gd(ls)": (step_gd, "ls"),
    "gd(lo)": (step_gd, "lo"),
    "gd+m(ls)": (step_cg_prp, "ls"),
    "gd+m(lo)": (step_cg_prp, "lo"),
    "gd+m(so)": (step_memory_gradient, "so"),
}

LCP_METHODS = {
    **TRACKED_METHODS,
    "nag(1/l)": (step_nag_fixedL, "1/l"),
    "nag(so)": (step_nag_so, "so"),
    "snag(so)": (partial(step_nag_so, scaled=True), "so"),
    "qn(ls)": (step_qn, "ls"),
    "qn(lo)": (step_qn, "lo"),
    "qn+m(so)": (step_qn, "so"),
    "adam": (step_adam, "fixed"),
    "adam(ls)": (step_adam, "ls"),
    "adam(lo)": (step_adam, "lo"),
    "adam2(so)": (step_adam, "so"),
}

# rules whose per-iteration product budget is exactly 2
TWO_PRODUCT_RULES = ("ls", "lo", "so")
# rules never worse than the zero step, by the subsolver's bookkeeping
MONOTONE_RULES = ("lo", "so")


def methods_with_rule(table, rules) -> tuple[str, ...]:
    """The names in a method table whose step-size rule is in `rules`."""
    return tuple(name for name, (_, rule) in table.items() if rule in rules)


LO_SO_METHODS = methods_with_rule(LCP_METHODS, TWO_PRODUCT_RULES)
MONOTONE_METHODS = methods_with_rule(LCP_METHODS, MONOTONE_RULES)


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
    step, rule = LCP_METHODS[method]
    return drive(method, lambda st: step(st, obj, rule), init_state(obj, w0),
                 iters, obj.X.counter_read,
                 lambda st: ("margin", audit_margin(st, obj), 1e-8),
                 audit_every, callback)
