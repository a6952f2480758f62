"""Full-batch optimizers on tracked-image models, and the shared step driver.

An SO-friendly model keeps the image of its iterate: the margin m = Xw of a
linear-composition problem, the pre-activations M = XW of the network.  Line
and subspace candidates are then evaluated from the image alone, and each
LO/SO iteration performs exactly two counted products: one for the gradient
and one for the image of the search direction.

Each step is written once against a tracked state, so every method runs on
every tracked model.  `TrackedState` is the bookkeeping every model shares,
written once here:

- `obj`: the model's objective, which the model calls below read;
- `blocks`: the parameter blocks with the tracked image last, (w, m) or
  (W, v, M); `step` the last committed step, shaped the same, and
  `grad_prev` the gradient blocks that step took with their image last
  (None where the step took no image of its gradient), or None;
- `advance` commits a step, and `momentum_coef` is the PR+ coefficient over
  all parameter blocks jointly;
- `alpha_prev` (the "ls" rule's last accepted step, its next start) and
  `L` (the 1/L rule's curvature estimate) persist across steps; `memory`
  is the running method's own (FISTA's t, Adam's moments, the L-BFGS pairs);
- `step_inputs()` lists all of the above that a step reads, so `drive` can
  end a run at its bitwise fixed point.

Each model subclasses it with its arithmetic alone (`MarginState` here,
`network.NetState` for the network):

- `gradient(blocks=None)`: the gradient blocks at the iterate, or at the
  tracked point `blocks` (one counted product);
- `image(params)`: the image of parameter blocks, such as a search
  direction or a rejected 1/L trial's point (one counted product);
- `value(blocks)`: f at a tracked point (no products);
- `dot`: the model's inner product over the parameter blocks;
- `subspace_solve(dirs, warm)` and `line(direction)`: the
  restriction to a list of directions solved by the subsolver, and the
  1-d value and slope closures for the Wolfe search.

A direction is a tuple shaped like `blocks`; None marks a block it leaves
alone.  The momentum direction is the last committed step with its own
image, and every trial point and commit forms its step sum_j theta_j d_j
with `objectives.combine`.  A method is a step function, which builds the
method's directions, plus a step-size rule, which `apply_rule` carries out:

  "1/l"    backtracking on L along the negative gradient
  "fixed"  a constant step along the first direction
  "ls"     a strong Wolfe line search along the first direction
  "lo"     line optimization along the first direction
  "so"     subspace optimization over all of the directions
  "sb"     SO over the directions split by layer (the state's `per_layer`)

LS, LO, SO and SB spend exactly two products per iteration, and LO, SO and
SB are never worse than the zero step; the method tables below are keyed by
name to (step, rule), and the budget and monotone sets derive from them.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from .linesearch import backtrack_half, fista_momentum, strong_wolfe
from .objectives import LcpObjective, combine, memo_last
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
    # where the step took no full gradient there (nag(1/l), matfact altmin,
    # logdet)
    gnorm: float | None = None


def pr_plus(grad, grad_prev, s):
    """Non-negative PR+ momentum coefficient for the last step s.

    Divides by s^T(grad-grad_prev) (Hestenes-Stiefel), which reproduces
    linear CG under exact line optimization.
    """
    yv = grad - grad_prev
    den = float(s @ yv)
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
    obj: object
    blocks: tuple
    f: float
    step: tuple | None = None
    grad_prev: tuple | None = None
    alpha_prev: float | None = None
    L: float = 1.0
    memory: object = None

    def advance(self, blocks, f, grad, grad_image, step=None):
        """Commit `blocks`, reached by `step`; `grad` was taken at the old
        iterate.  Without `step`, the step is the committed difference, as
        for a step from another point than the iterate (nag(1/l))."""
        self.step = tuple(map(np.subtract, blocks, self.blocks)
                          if step is None else step)
        self.grad_prev = (*grad, grad_image)
        self.blocks = tuple(blocks)
        self.f = f

    def step_inputs(self) -> tuple:
        """Everything a step reads, with the memory's content copied, since
        the L-BFGS pairs change in place.  A step that leaves these bitwise
        as it found them would repeat itself bitwise from then on."""
        memory = self.memory
        if isinstance(memory, deque):
            memory = tuple(memory)
        return (self.blocks, self.f, self.step, self.grad_prev,
                self.alpha_prev, self.L, memory)

    def momentum_coef(self, grad) -> float:
        """PR+ over all parameter blocks jointly."""
        if self.grad_prev is None:
            return 0.0
        return pr_plus(_flat(grad), _flat(self.grad_prev[:-1]),
                       _flat(self.step[:-1]))


class MarginState(TrackedState):
    """Linear-composition iterate: blocks (w, m) with m = Xw."""

    @property
    def w(self):
        return self.blocks[0]

    @property
    def m(self):
        return self.blocks[1]

    def gradient(self, blocks=None):
        """Full gradient at the iterate or at `blocks`; one counted product."""
        w, m = self.blocks if blocks is None else blocks
        return (self.obj.f_grad_margin(w, m),)

    def image(self, params) -> np.ndarray:
        """The margin image X p; one counted product."""
        return self.obj.X.matvec(params[0])

    def value(self, blocks) -> float:
        return self.obj.f_value_margin(*blocks)

    @staticmethod
    def dot(a, b) -> float:
        return float(a[0] @ b[0])

    def subspace_solve(self, dirs, warm):
        sp = self.obj.subspace_restrict(
            self.w, self.m, [p for p, _ in dirs], [q for _, q in dirs])
        return solve(sp, theta0=warm)

    def line(self, direction):
        """Margin-space value and slope along p with image q.

        Both closures share the last step size's margin m + a q and its
        `obj.loss`, so phi and dphi at one a build them once.  At a = 0 the
        margin is m itself, so phi(0) and dphi(0) reuse the iterate's loss,
        and m + a q is bitwise the margin `_apply` commits at a (`combine`'s
        step a q), so the next gradient reuses the accepted step's loss.
        """
        (p, q), (w, m), obj = direction, self.blocks, self.obj
        lam = obj.l2_lambda
        at = memo_last(lambda a: obj.loss(m + a * q if a else m))

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
    return MarginState(obj, (w, m), obj.f_value_margin(w, m))


def relative_drift(tracked: np.ndarray, fresh: np.ndarray) -> float:
    """The drift of a tracked image: |tracked - fresh| / (1 + |tracked|)."""
    return float(np.linalg.norm(tracked - fresh)
                 / (1.0 + np.linalg.norm(tracked)))


def audit_margin(state: MarginState) -> float:
    """Relative drift of the tracked margin; uses the audit counter."""
    return relative_drift(state.m, state.obj.X.matvec(state.w, audit=True))


# ---------------------------------------------------------------------------
# tracked-state steps, shared by the LCPs and the network

def grad_dir(grad, grad_image):
    """The negative of parameter blocks with their image, as a direction:
    the negative gradient, or the negative of a method's own direction."""
    return (*(-g for g in grad), -grad_image)


def _apply(blocks, dirs, theta):
    """`blocks` plus the step sum_j theta_j d_j, and that step.  The
    restrictions form their trial points with the same `combine`, so an
    SO or LO commit is bitwise the solve's trial point."""
    step = combine(theta, dirs)
    return [b + s for b, s in zip(blocks, step)], step


def so_step(state, dirs, slots, grad, grad_image, warm=None, flag=None):
    """Solve the restriction to `dirs` and commit the result.

    The recorded f is the value at the committed point, which differs from
    the restriction's value at theta by rounding.  Where it lies above the
    iterate's f, the zero step is committed instead (flag `rounding_floor`),
    so the recorded f of LO and SO never rises.
    """
    res = state.subspace_solve(dirs, warm)
    theta = res.theta
    blocks, step = _apply(state.blocks, dirs, theta)
    f = state.value(blocks)
    if f > state.f:
        theta, f = np.zeros_like(theta), state.f
        blocks, step = [b.copy() for b in state.blocks], None
        flag = flag or "rounding_floor"
    rec = StepRecord(f, inner_iters=res.inner_iters, flag=flag)
    for slot, t in zip(slots, theta):
        setattr(rec, slot, float(t))
    if "delta" in slots:
        rec.delta = rec.delta + 1.0  # recorded as the actual scaling factor
    state.advance(blocks, f, grad, grad_image, step)
    return rec


def _wolfe_along(state, direction, alpha_init, grad, grad_image, flag=None):
    """Strong Wolfe search along `direction` from the tracked point."""
    phi, dphi = state.line(direction)
    res = strong_wolfe(phi, dphi, alpha_init)
    a = res.alpha
    if not res.success:
        flag = flag or ("wolfe_fail" if res.reason == "max_iters"
                        else res.reason)
    rec = StepRecord(res.value, alpha1=a, inner_iters=res.evals,
                     wolfe_verified=res.verified if res.success else None,
                     flag=flag)
    blocks, step = _apply(state.blocks, [direction], [a])
    state.advance(blocks, res.value, grad, grad_image, step)
    if a > 0:
        state.alpha_prev = a
    return rec


def _backtrack(state, base, f0, grad, grad_image):
    """Commit base - grad/L, doubling L until the Armijo test holds.

    The test is sigma = 1/2 and L persists across steps in state.L.  The
    first trial's image comes from the tracked one; each later trial
    takes its own, one counted product per doubling.  Where the search
    stops at the rounding floor, the zero step from `base` is committed
    (flag `rounding_floor`) and L is kept, as it is for a zero gradient.
    """
    trial = []

    def value_at(L):
        params = [b - g / L for b, g in zip(base[:-1], grad)]
        image = state.image(params) if trial else base[-1] - grad_image / L
        trial[:] = [*params, image]
        return state.value(trial)

    gsq = state.dot(grad, grad)
    doublings, reason = 0, None
    if gsq:
        state.L, f_t, doublings, reason = backtrack_half(value_at, f0, gsq,
                                                         state.L)
    if reason == "converged":
        state.advance(trial, f_t, grad, grad_image)
        return StepRecord(f_t, alpha1=1.0 / state.L, inner_iters=doublings)
    state.advance([b.copy() for b in base], f0, grad, grad_image)
    return StepRecord(f0, alpha1=0.0, inner_iters=doublings, flag=reason)


def apply_rule(state, rule, dirs, slots, grad, grad_image, flag=None,
               alpha_init=None, warm=None):
    """Commit a step along `dirs`, its sizes set by the step-size `rule`.

    "1/l" backtracks from the iterate along the negative gradient, which
    `dirs[0]` must be; "fixed" steps FIXED_STEP along `dirs[0]`; "ls" runs
    a strong Wolfe search along `dirs[0]` from `alpha_init` (default: the
    last accepted step size, or 1); "lo" optimizes the step size along
    `dirs[0]` and "so" one step size per direction, `slots` naming the
    record fields, and "sb" is "so" over `state.per_layer(dirs, slots)`.
    `grad` is the full gradient at the iterate; its norm goes in the record.
    """
    gnorm = math.sqrt(state.dot(grad, grad))
    if rule == "1/l":
        rec = _backtrack(state, state.blocks, state.f, grad, grad_image)
    elif rule == "fixed":
        blocks, step = _apply(state.blocks, dirs[:1], [FIXED_STEP])
        f = state.value(blocks)
        state.advance(blocks, f, grad, grad_image, step)
        rec = StepRecord(f, alpha1=FIXED_STEP, flag=flag)
    elif rule == "ls":
        rec = _wolfe_along(state, dirs[0],
                           alpha_init or state.alpha_prev or 1.0, grad,
                           grad_image, flag)
    else:
        if rule == "lo":
            dirs, slots = dirs[:1], slots[:1]
        elif rule == "sb":
            dirs, slots = state.per_layer(dirs, slots)
        rec = so_step(state, dirs, slots, grad, grad_image, warm, flag)
    rec.gnorm = gnorm
    return rec


def step_gd(state, rule, warm=None):
    """GD: the negative gradient with the 1/L, LS, LO or SB step size."""
    grad = state.gradient()
    q = state.image(grad)
    return apply_rule(state, rule, [grad_dir(grad, q)], ["alpha1"], grad, q,
                      warm=warm)


def step_cg_prp(state, rule):
    """GD+M(LS)/GD+M(LO): nonlinear CG direction, Wolfe or LO step size."""
    grad = state.gradient()
    q = state.image(grad)
    eta = state.momentum_coef(grad)
    direction = grad_dir(grad, q)
    if eta:
        direction = tuple(g + eta * s
                          for g, s in zip(direction, state.step))
    flag = None
    if state.dot(direction[:-1], grad) >= 0:
        eta, direction = 0.0, grad_dir(grad, q)
        flag = "momentum_reset"
    rec = apply_rule(state, rule, [direction], ["alpha1"], grad, q, flag=flag)
    rec.beta1 = eta * (rec.alpha1 or 0.0) if eta else (0.0 if flag else None)
    return rec


def _with_momentum(state, direction):
    """`direction` and, after the first step, the momentum direction."""
    if state.step is None:
        return [direction], ["alpha1"]
    return [direction, state.step], ["alpha1", "beta1"]


def step_memory_gradient(state, rule="so", warm=None):
    """GD+M(SO): learning and momentum rates by 2-d SO, or per layer by SB."""
    grad = state.gradient()
    q = state.image(grad)
    dirs, slots = _with_momentum(state, grad_dir(grad, q))
    return apply_rule(state, rule, dirs, slots, grad, q, warm=warm)


def step_nag_so(state, rule="so", scaled=False):
    """3-d SO over gradient, momentum, and gradient-momentum directions.

    `scaled` (SNAG) adds a scaling of the iterate (delta = 1 + theta).
    """
    grad = state.gradient()
    q = state.image(grad)
    dirs, slots = _with_momentum(state, grad_dir(grad, q))
    if state.grad_prev is not None:
        dirs.append(tuple(g - gp for g, gp in zip((*grad, q),
                                                  state.grad_prev)))
        slots.append("gamma")
    if scaled:
        dirs.append(tuple(b.copy() for b in state.blocks))
        slots.append("delta")
    return apply_rule(state, rule, dirs, slots, grad, q)


def step_nag_fixedL(state, rule="1/l"):
    """NAG(1/L): FISTA-style extrapolation with the same doubling rule.

    The 1/L rule backtracks from the extrapolated point, not the iterate.
    The method's memory is FISTA's t.
    """
    t_next, mix = fista_momentum(state.memory or 1.0)
    if state.step is None:
        y = state.blocks
    else:
        y = tuple(b + mix * s for b, s in zip(state.blocks, state.step))
    state.memory = t_next
    grad_y = state.gradient(y)
    return _backtrack(state, y, state.value(y), grad_y, state.image(grad_y))


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
        s = _flat(state.step[:-1])
        yv = grad - _flat(state.grad_prev[:-1])
        sy = float(s @ yv)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(yv) + 1e-300):
            state.memory.append((s, yv, 1.0 / sy))
    return state.memory


def step_qn(state, rule):
    """QN(LS)/QN(LO)/QN+M(SO) with L-BFGS directions and Shanno scaling.

    The SO rule adds the momentum direction.
    """
    grad = state.gradient()
    g = _flat(grad)
    d = lbfgs_direction(_lbfgs_pairs(state, g), g)
    flag = None
    if float(d @ g) <= 0:
        d = -d
        flag = "negated_direction"
    d = _unflat(d, grad)
    dirs, slots = _with_momentum(state, grad_dir(d, state.image(d)))
    return apply_rule(state, rule, dirs, slots, grad, None, flag=flag,
                      alpha_init=1.0)


def adam_direction(mu, v, grad):
    """The updated accumulators and d = mu / (sqrt(v) + eps).

    No bias correction.
    """
    mu = ADAM_BETA1 * mu + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad * grad
    return mu, v, mu / (np.sqrt(v) + ADAM_EPS)


def step_adam(state, rule):
    """Adam/Adam(LS)/Adam(LO)/Adam2(SO); SO adds the last Adam direction.

    The method's memory is (mu, v, last direction), the moments kept per
    parameter block.
    """
    grad = state.gradient()
    if state.memory is None:
        zero = tuple(np.zeros_like(g) for g in grad)
        state.memory = (zero, zero, None)
    mu, v, prev = state.memory
    mu, v, d = zip(*map(adam_direction, mu, v, grad))
    q = state.image(d)
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
        return StepRecord(state.f, alpha1=0.0, flag=flag,
                          gnorm=math.sqrt(state.dot(grad, grad)))
    return apply_rule(state, rule, dirs, ["alpha1", "alpha2"], grad, None,
                      flag=flag)


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
TWO_PRODUCT_RULES = ("ls", "lo", "so", "sb")
# rules never worse than the zero step, by the subsolver's bookkeeping
MONOTONE_RULES = ("lo", "so", "sb")


def methods_with_rule(table, rules) -> tuple[str, ...]:
    """The names in a method table whose step-size rule is in `rules`."""
    return tuple(name for name, (_, rule) in table.items() if rule in rules)


LO_SO_METHODS = methods_with_rule(TRACKED_METHODS, TWO_PRODUCT_RULES)
MONOTONE_METHODS = methods_with_rule(TRACKED_METHODS, MONOTONE_RULES)


def _same_bits(a, b) -> bool:
    """Whether two nests of tuples, arrays and scalars hold the same bits."""
    if a is b:
        return True
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(map(_same_bits, a, b)))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    return (type(a) is type(b) and a == b
            and math.copysign(1.0, a) == math.copysign(1.0, b))


def drive(name, step, state, iters, meter, audit, audit_cadence,
          callback=None):
    """The step loop behind every model's `run`; returns (state, records).

    Each record gets the products `meter` counted during its step and the
    wall time of the step call alone.  Every `audit_cadence` steps, and
    after the last step, `audit(state)` returns (what, drift, bound), and a
    drift above its bound stops the run, so no run ends on unaudited drift.
    A failing step is re-raised naming `name` and the iteration.
    `callback(k, state, record)` runs after each step.

    `iters` is an upper bound.  Where the state's `step_inputs()` lists
    everything a step reads (every `TrackedState` and matfact's `MfState`
    has it), the run ends at its bitwise fixed point: once a step leaves
    them as it found them, every later step would repeat its record and
    state bitwise, so that step is audited and its record is the last.
    """
    inputs = getattr(state, "step_inputs", None)
    records = []
    for k in range(iters):
        start = inputs() if inputs else None
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
        fixed = inputs is not None and _same_bits(start, inputs())
        if fixed or (k + 1) % audit_cadence == 0 or k + 1 == iters:
            what, drift, bound = audit(state)
            if drift > bound:
                raise RuntimeError(
                    f"{what} drift {drift:.3e} at iteration {k + 1}")
        if callback is not None:
            callback(k, state, rec)
        if fixed:
            break
    return state, records


def run(method: str, obj: LcpObjective, iters: int, callback=None
        ) -> tuple[MarginState, list[StepRecord]]:
    """Apply `method` for up to `iters` steps (see `drive`), recording
    products per iteration."""
    if method not in TRACKED_METHODS:
        raise KeyError(f"unknown method {method!r}")
    step, rule = TRACKED_METHODS[method]
    return drive(method, lambda st: step(st, rule), init_state(obj),
                 iters, obj.X.counter_read,
                 lambda st: ("margin", audit_margin(st), 1e-8),
                 100, callback)
