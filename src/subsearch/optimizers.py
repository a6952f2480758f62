"""Full-batch optimizers on tracked-image models, and the shared step driver.

An SO-friendly model keeps the image of its iterate: the margin m = Xw of a
linear-composition problem, the pre-activations M = XW of the network.  Line
and subspace candidates are then evaluated from the image alone, and each
LO/SO iteration performs exactly two counted products: one for the gradient
and one for the image of the search direction.

Each step is written once against a tracked state, so every method runs on
every tracked model.  `TrackedState` is the bookkeeping every model shares,
written once here:

- `blocks`: the parameter blocks with the tracked image last, (w, m) or
  (W, v, M); `prev_blocks` the same one step back, and `grad_prev` the
  gradient blocks that step took with their image last (None where the
  step took no image of its gradient), or None;
- `advance` commits a step, and `momentum_coef` is the PR+ coefficient over
  all parameter blocks jointly;
- `alpha_prev` and `L` carry the last step size and the 1/L rule's
  curvature estimate across steps, and `memory` is the running method's own
  (FISTA's t, Adam's moments, the L-BFGS pairs).

Each model subclasses it with its arithmetic alone (`MarginState` here,
`network.NetState` for the network):

- `gradient(obj, blocks=None)`: the gradient blocks at the iterate, or at
  the tracked point `blocks` (one counted product);
- `image(obj, params)`: the image of parameter blocks, such as a search
  direction or a rejected 1/L trial's point (one counted product);
- `value(obj, blocks)`: f at a tracked point (no products);
- `dot`: the model's inner product over the parameter blocks;
- `subspace_solve(obj, dirs, warm)` and `line(obj, direction)`: the
  restriction to a list of directions solved by the subsolver, and the
  1-d value and slope closures for the Wolfe search.

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

import math
import time
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .linesearch import backtrack_half, fista_momentum, strong_wolfe
from .objectives import LcpObjective, MarginLoss, memo_last
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
    # norm of the full gradient the step took at its starting iterate; None
    # where the step took no gradient there (nag(1/l), matfact, logdet)
    gnorm: float | None = None


def pr_plus(grad, grad_prev, w, w_prev):
    """Non-negative PR+ momentum coefficient for the (w - w_prev) direction.

    Divides by (w-w_prev)^T(grad-grad_prev) (Hestenes-Stiefel), which
    reproduces linear CG under exact line optimization.
    """
    yv = grad - grad_prev
    den = float((w - w_prev) @ yv)
    if den <= 0:
        return 0.0
    return max(0.0, float(grad @ yv) / den)


def _flat(blocks):
    """The blocks as one vector."""
    if len(blocks) == 1:
        return blocks[0]
    return np.concatenate([b.ravel() for b in blocks])


def _unflat(vec, like):
    """`vec` split back into blocks shaped like `like`; undoes `_flat`."""
    blocks, start = [], 0
    for b in like:
        blocks.append(vec[start:start + b.size].reshape(b.shape))
        start += b.size
    return tuple(blocks)


@dataclass
class TrackedState:
    """The bookkeeping every tracked-image model shares (see above).

    `memory` belongs to the method that runs on the state: only its step
    reads or writes it.  Subclasses add the model arithmetic alone.
    """
    blocks: tuple
    f: float
    prev_blocks: tuple | None = None
    grad_prev: tuple | None = None
    alpha_prev: float | None = None
    L: float = 1.0
    memory: object = None

    def advance(self, blocks, f, grad, grad_image):
        """Commit a step to `blocks`; `grad` was taken at the old iterate."""
        self.prev_blocks = self.blocks
        self.grad_prev = (*grad, grad_image)
        self.blocks = tuple(blocks)
        self.f = f

    def momentum_coef(self, grad) -> float:
        """PR+ over all parameter blocks jointly."""
        if self.grad_prev is None:
            return 0.0
        return pr_plus(_flat(grad), _flat(self.grad_prev[:-1]),
                       _flat(self.blocks[:-1]), _flat(self.prev_blocks[:-1]))


class MarginState(TrackedState):
    """Linear-composition iterate: blocks (w, m) with m = Xw."""

    @property
    def w(self):
        return self.blocks[0]

    @property
    def m(self):
        return self.blocks[1]

    def gradient(self, obj: LcpObjective, blocks=None):
        """Full gradient at the iterate or at `blocks`; one counted product."""
        w, m = self.blocks if blocks is None else blocks
        return (obj.f_grad_margin(w, m),)

    @staticmethod
    def image(obj: LcpObjective, params) -> np.ndarray:
        """The margin image X p; one counted product."""
        return obj.X.matvec(params[0])

    @staticmethod
    def value(obj: LcpObjective, blocks) -> float:
        return obj.f_value_margin(*blocks)

    @staticmethod
    def dot(a, b) -> float:
        return float(a[0] @ b[0])

    def subspace_solve(self, obj: LcpObjective, dirs, warm):
        sp = obj.subspace_restrict(self.w, self.m, [p for p, _ in dirs],
                                   [q for _, q in dirs])
        return solve(sp, theta0=warm)

    def line(self, obj: LcpObjective, direction):
        """Margin-space value and slope along p with image q.

        Both closures share the last step size's margin m + a q and its
        exponentials, so phi and dphi at one a build them once.
        """
        (p, q), (w, m) = direction, self.blocks
        lam = obj.l2_lambda
        at = memo_last(lambda a: MarginLoss(obj, m + a * q))

        def phi(a):
            return obj.plus_l2(at(a).value, w + a * p)

        def dphi(a):
            g = at(a).grad @ q
            if lam > 0:
                g += lam * float((w + a * p) @ p)
            return g

        return phi, dphi


def init_state(obj: LcpObjective) -> MarginState:
    w = np.zeros(obj.d)
    m = np.zeros(obj.n)
    return MarginState((w, m), obj.f_value_margin(w, m))


def relative_drift(tracked: np.ndarray, fresh: np.ndarray) -> float:
    """The drift of a tracked image: |tracked - fresh| / (1 + |tracked|)."""
    return float(np.linalg.norm(tracked - fresh)
                 / (1.0 + np.linalg.norm(tracked)))


def audit_margin(state: MarginState, obj: LcpObjective) -> float:
    """Relative drift of the tracked margin; uses the audit counter."""
    return relative_drift(state.m, obj.X.matvec(state.w, audit=True))


# ---------------------------------------------------------------------------
# tracked-state steps, shared by the LCPs and the network

def grad_dir(grad, grad_image):
    """The negative of parameter blocks with their image, as a direction:
    the negative gradient, or the negative of a method's own direction."""
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
    """Solve the restriction to `dirs` and commit the result.

    The recorded f is the value at the committed point, which differs from
    the restriction's value at theta by rounding.  Where it lies above the
    iterate's f, the zero step is committed instead (flag `rounding_floor`),
    so the recorded f of LO and SO never rises.
    """
    res = state.subspace_solve(obj, dirs, warm)
    theta = res.theta
    blocks = _apply(state.blocks, dirs, theta)
    f = state.value(obj, blocks)
    if f > state.f:
        theta, f = np.zeros_like(theta), state.f
        blocks = [b.copy() for b in state.blocks]
        flag = flag or "rounding_floor"
    rec = StepRecord(method=method, f=f, inner_iters=res.inner_iters,
                     flag=flag)
    for slot, t in zip(slots, theta):
        setattr(rec, slot, float(t))
    if "delta" in slots:
        rec.delta = rec.delta + 1.0  # recorded as the actual scaling factor
    state.advance(blocks, f, grad, grad_image)
    if rec.alpha1:
        state.alpha_prev = rec.alpha1
    return rec


def _wolfe_along(state, obj, direction, alpha_init, method, grad,
                 grad_image, flag=None):
    """Strong Wolfe search along `direction` from the tracked point."""
    phi, dphi = state.line(obj, direction)
    res = strong_wolfe(phi, dphi, alpha_init)
    a = res.alpha
    if not res.success:
        flag = flag or ("wolfe_fail" if res.reason == "max_iters"
                        else res.reason)
    rec = StepRecord(method, res.value, alpha1=a, inner_iters=res.evals,
                     wolfe_verified=res.verified if res.success else None,
                     flag=flag)
    state.advance(_apply(state.blocks, [direction], [a]), res.value, grad,
                  grad_image)
    if a > 0:
        state.alpha_prev = a
    return rec


def _backtrack(state, obj, method, base, f0, grad, grad_image):
    """Commit base - grad/L, doubling L until the Armijo test holds.

    The test is sigma = 1/2 and L persists across steps in state.L.  The
    first trial's image comes from the tracked one; each later trial
    takes its own, one counted product per doubling.
    """
    gsq = state.dot(grad, grad)
    if gsq == 0:
        state.advance([b.copy() for b in base], f0, grad, grad_image)
        return StepRecord(method, f0, alpha1=0.0)
    trial = []

    def value_at(L):
        params = [b - g / L for b, g in zip(base[:-1], grad)]
        image = (state.image(obj, params) if trial
                 else base[-1] - grad_image / L)
        trial[:] = [*params, image]
        return state.value(obj, trial)

    state.L, f_t, doublings = backtrack_half(value_at, f0, gsq, state.L)
    state.advance(trial, f_t, grad, grad_image)
    return StepRecord(method, f_t, alpha1=1.0 / state.L,
                      inner_iters=doublings)


def apply_rule(state, obj, rule, dirs, slots, method, grad, grad_image,
               flag=None, alpha_init=None, warm=None):
    """Commit a step along `dirs`, its sizes set by the step-size `rule`.

    "1/l" backtracks from the iterate along the negative gradient, which
    `dirs[0]` must be; "fixed" steps FIXED_STEP along `dirs[0]`; "ls" runs
    a strong Wolfe search along `dirs[0]` from `alpha_init` (default: the
    last accepted step size, or 1); "lo" optimizes the step size along
    `dirs[0]` and "so" one step size per direction, `slots` naming the
    record fields.  `grad` is the full gradient at the iterate, and its
    norm goes into the record.
    """
    gnorm = math.sqrt(state.dot(grad, grad))
    if rule == "1/l":
        rec = _backtrack(state, obj, method, state.blocks, state.f, grad,
                         grad_image)
    elif rule == "fixed":
        blocks = _apply(state.blocks, dirs[:1], [FIXED_STEP])
        f = state.value(obj, blocks)
        state.advance(blocks, f, grad, grad_image)
        rec = StepRecord(method, f, alpha1=FIXED_STEP, flag=flag)
    elif rule == "ls":
        rec = _wolfe_along(state, obj, dirs[0],
                           alpha_init or state.alpha_prev or 1.0, method,
                           grad, grad_image, flag)
    else:
        if rule == "lo":
            dirs, slots = dirs[:1], slots[:1]
        rec = so_step(state, obj, dirs, slots, method, grad, grad_image,
                      warm=warm, flag=flag)
    rec.gnorm = gnorm
    return rec


def step_gd(state, obj, rule, warm=None):
    """GD: the negative gradient with the 1/L, LS or LO step size."""
    grad = state.gradient(obj)
    q = state.image(obj, grad)
    return apply_rule(state, obj, rule, [grad_dir(grad, q)], ["alpha1"],
                      f"gd({rule})", grad, q, warm=warm)


def step_cg_prp(state, obj, rule):
    """GD+M(LS)/GD+M(LO): nonlinear CG direction, Wolfe or LO step size."""
    grad = state.gradient(obj)
    q = state.image(obj, grad)
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
    grad = state.gradient(obj)
    q = state.image(obj, grad)
    dirs, slots = _with_momentum(state, grad_dir(grad, q))
    return apply_rule(state, obj, rule, dirs, slots, "gd+m(so)", grad, q,
                      warm=warm)


def step_nag_so(state, obj, rule="so", scaled=False):
    """3-d SO over gradient, momentum, and gradient-momentum directions.

    `scaled` (SNAG) adds a scaling of the iterate (delta = 1 + theta).
    """
    grad = state.gradient(obj)
    q = state.image(obj, grad)
    dirs, slots = _with_momentum(state, grad_dir(grad, q))
    if state.grad_prev is not None:
        dirs.append(tuple(g - gp for g, gp in zip((*grad, q),
                                                  state.grad_prev)))
        slots.append("gamma")
    if scaled:
        dirs.append(tuple(b.copy() for b in state.blocks))
        slots.append("delta")
    return apply_rule(state, obj, rule, dirs, slots,
                      "snag(so)" if scaled else "nag(so)", grad, q)


def step_nag_fixedL(state, obj, rule="1/l"):
    """NAG(1/L): FISTA-style extrapolation with the same doubling rule.

    The 1/L rule backtracks from the extrapolated point, not the iterate.
    The method's memory is FISTA's t.
    """
    t_next, mix = fista_momentum(state.memory or 1.0)
    if state.prev_blocks is None:
        y = state.blocks
    else:
        y = tuple(b + mix * s for b, s in zip(state.blocks,
                                              momentum_dir(state)))
    state.memory = t_next
    grad_y = state.gradient(obj, y)
    return _backtrack(state, obj, "nag(1/l)", y, state.value(obj, y),
                      grad_y, state.image(obj, grad_y))


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


def _lbfgs_pairs(state, grad):
    """The method's memory, the L-BFGS pairs over the flattened parameter
    blocks, with the last step's (s, y) pair folded in; a pair with
    s'y <= 0 is skipped.  `grad` is the flattened gradient."""
    if state.memory is None:
        state.memory = deque(maxlen=LBFGS_MEMORY)
    if state.grad_prev is not None:
        s = _flat(state.blocks[:-1]) - _flat(state.prev_blocks[:-1])
        yv = grad - _flat(state.grad_prev[:-1])
        sy = float(s @ yv)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(yv) + 1e-300):
            state.memory.append((s, yv, 1.0 / sy))
    return state.memory


def step_qn(state, obj, rule):
    """QN(LS)/QN(LO)/QN+M(SO) with L-BFGS directions and Shanno scaling.

    The SO rule adds the momentum direction.
    """
    grad = state.gradient(obj)
    g = _flat(grad)
    d = lbfgs_direction(_lbfgs_pairs(state, g), g)
    flag = None
    if float(d @ g) <= 0:
        d = -d
        flag = "negated_direction"
    d = _unflat(d, grad)
    dirs, slots = _with_momentum(state, grad_dir(d, state.image(obj, d)))
    return apply_rule(state, obj, rule, dirs, slots,
                      "qn+m(so)" if rule == "so" else f"qn({rule})", grad,
                      None, flag=flag, alpha_init=1.0)


def adam_direction(mu, v, grad):
    """The updated accumulators and d = mu / (sqrt(v) + eps).

    No bias correction.
    """
    mu = ADAM_BETA1 * mu + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad * grad
    return mu, v, mu / (np.sqrt(v) + ADAM_EPS)


def step_adam(state, obj, rule):
    """Adam/Adam(LS)/Adam(LO)/Adam2(SO); SO adds the last Adam direction.

    The method's memory is (mu, v, last direction), the moments kept per
    parameter block.
    """
    grad = state.gradient(obj)
    if state.memory is None:
        zero = tuple(np.zeros_like(g) for g in grad)
        state.memory = (zero, zero, None)
    mu, v, prev = state.memory
    mu, v, d = zip(*map(adam_direction, mu, v, grad))
    q = state.image(obj, d)
    method = {"fixed": "adam", "so": "adam2(so)"}.get(rule, f"adam({rule})")
    flag = None
    if rule == "ls" and state.dot(d, grad) <= 0:
        # -d is not a descent direction; search along +d instead
        d, q = tuple(-b for b in d), -q
        flag = ("no_descent" if state.dot(d, grad) <= 0
                else "negated_direction")
    dirs = [grad_dir(d, q)]
    if prev is not None:
        dirs.append(prev)
    state.memory = (mu, v, dirs[0])
    if flag == "no_descent":
        state.advance([b.copy() for b in state.blocks], state.f, grad, None)
        return StepRecord(method, state.f, alpha1=0.0, flag=flag,
                          gnorm=math.sqrt(state.dot(grad, grad)))
    return apply_rule(state, obj, rule, dirs, ["alpha1", "alpha2"], method,
                      grad, None, flag=flag)


# ---------------------------------------------------------------------------
# method tables and the step driver

# each method is a step function, which builds its directions, and a
# step-size rule; every tracked model runs these entries
TRACKED_METHODS = {
    "gd(1/l)": (step_gd, "1/l"),
    "gd(ls)": (step_gd, "ls"),
    "gd(lo)": (step_gd, "lo"),
    "gd+m(ls)": (step_cg_prp, "ls"),
    "gd+m(lo)": (step_cg_prp, "lo"),
    "gd+m(so)": (step_memory_gradient, "so"),
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


LO_SO_METHODS = methods_with_rule(TRACKED_METHODS, TWO_PRODUCT_RULES)
MONOTONE_METHODS = methods_with_rule(TRACKED_METHODS, MONOTONE_RULES)


def drive(name, step, state, iters, meter, audit, audit_cadence,
          callback=None):
    """The step loop behind every model's `run`; returns (state, records).

    Each record gets the products `meter` counted during its step and the
    wall time of the step call alone.  Every `audit_cadence` steps, and
    after the last step, `audit(state)` returns (what, drift, bound), and a
    drift above its bound stops the run, so no run ends on unaudited drift.
    A failing step is re-raised naming `name` and the iteration.
    `callback(k, state, record)` runs after each step.
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
        if (k + 1) % audit_cadence == 0 or k + 1 == iters:
            what, drift, bound = audit(state)
            if drift > bound:
                raise RuntimeError(
                    f"{what} drift {drift:.3e} at iteration {k + 1}")
        if callback is not None:
            callback(k, state, rec)
    return state, records


def run(method: str, obj: LcpObjective, iters: int, callback=None
        ) -> tuple[MarginState, list[StepRecord]]:
    """Apply `method` for `iters` steps, recording products per iteration."""
    if method not in TRACKED_METHODS:
        raise KeyError(f"unknown method {method!r}")
    step, rule = TRACKED_METHODS[method]
    return drive(method, lambda st: step(st, obj, rule), init_state(obj),
                 iters, obj.X.counter_read,
                 lambda st: ("margin", audit_margin(st, obj), 1e-8),
                 100, callback)
