"""Linear-composition objectives f(w) = g(Xw) + (lambda/2)||w||^2.

Everything the optimizers need is exposed both in parameter space and in
margin space; margin-space calls never multiply by the data matrix, which is
what keeps line/subspace optimization candidates at O(n) each.

One margin vector costs one `MarginLoss`: for the logistic loss one
exp(-|z|) per margin, shared by the value, the gradient and the Hessian at
that vector.  The objective keeps the last one it built (`LcpObjective.loss`,
keyed on the margin's exact bytes), and every margin-space call goes through
it, so the committed f and the next gradient share one loss.  A restriction's
or a line's zero point is the iterate's own margin, so it reuses the
iterate's loss, and each trial point builds one.  The restriction and line
closures also keep their last point (`memo_last`, keyed on theta or the step
size), so value, grad and hess at one theta, and the Wolfe search's re-check
of a step it already evaluated, form the trial margin once.

A restriction keeps its directions as the rows of p x n and p x d arrays, so
its gradient and Hessian run over each direction contiguously, and its trial
margin is m plus `combine`'s step, which the commit adds too; the margin a
step commits is then bitwise the solve's trial margin, and where the solve
ended on that point, the committed f reuses its loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .counted import CountedMatrix
from .data import Dataset
from .subsolver import SubProblem

LOSSES = ("logistic", "least_squares")


def _softplus(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log(1 + exp(z)) without overflow, given e = exp(-|z|)."""
    return np.maximum(z, 0.0) + np.log1p(e)


def _sigmoid(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-t)) without overflow, given e = exp(-|t|)."""
    # e lies in [0, 1], so max(e, t >= 0) is 1 where t >= 0 and e elsewhere
    return np.maximum(e, t >= 0) / (1.0 + e)


def combine(theta, dirs):
    """The step sum_j theta_j d_j of directions shaped as blocks, per block.

    The directions are added in the order of `dirs`, and a block that no
    direction carries is None.  Every trial point and every commit forms
    its step here, so a committed point is bitwise the solve's trial point.
    """
    step = [None] * len(dirs[0])
    for t, d in zip(theta, dirs):
        for i, db in enumerate(d):
            if db is not None:
                step[i] = t * db if step[i] is None else step[i] + t * db
    return step


def memo_last(build):
    """`build` with a one-entry memo of its last argument.

    The key is the argument's exact float64 bytes, not its identity, so an
    array mutated in place after a call is a new point.  `build` receives
    the argument as a float64 array and must not keep a view of it.
    """
    key = point = None

    def at(x):
        nonlocal key, point
        x = np.asarray(x, dtype=np.float64)
        k = x.tobytes()
        if k != key:
            key, point = k, build(x)
        return point

    return at


class MarginLoss:
    """g and its margin-space derivatives at one margin vector m.

    Everything that reads m is formed here, so the loss keeps no view of m
    (a caller may write m afterwards) and no reference to `obj`.  For the
    logistic loss, z = -y m and one e = exp(-|z|) feed the softplus value,
    the sigmoid s of the gradient and the curvature s(1 - s); for least
    squares, one residual r = m - y is the gradient and gives the value.
    Each piece is computed on first use and kept, and every caller of the
    same loss shares it, so the gradient is read-only.
    """

    def __init__(self, obj: LcpObjective, m: np.ndarray):
        self.logistic = obj.loss_kind == "logistic"
        if self.logistic:
            self.neg_y = obj.neg_y
            self.z = self.neg_y * m
            self.e = np.abs(self.z)
            np.negative(self.e, out=self.e)
            np.exp(self.e, out=self.e)
        else:
            self.r = m - obj.y

    @cached_property
    def value(self) -> float:
        if self.logistic:
            return float(_softplus(self.z, self.e).sum())
        return 0.5 * float(self.r @ self.r)

    @cached_property
    def sigmoid(self) -> np.ndarray:
        return _sigmoid(self.z, self.e)

    @cached_property
    def grad(self) -> np.ndarray:
        g = self.neg_y * self.sigmoid if self.logistic else self.r
        g.flags.writeable = False
        return g

    @cached_property
    def hess_diag(self) -> np.ndarray:
        if self.logistic:
            s = self.sigmoid
            return s * (1.0 - s)
        return np.ones_like(self.r)


class DatasetView:
    """The data an objective reads through its `dataset` field, and the
    check on its weight decay field `l2_lambda`; every model's objective
    subclasses it."""

    def __post_init__(self):
        if not 0 <= self.l2_lambda < np.inf:
            raise ValueError("l2_lambda must be finite and nonnegative")

    @property
    def X(self) -> CountedMatrix:
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


@dataclass
class LcpObjective(DatasetView):
    loss_kind: str
    dataset: Dataset
    l2_lambda: float = 0.0

    def __post_init__(self):
        if self.loss_kind not in LOSSES:
            raise ValueError(f"unknown loss {self.loss_kind!r}")
        super().__post_init__()
        if self.loss_kind == "logistic" and np.any(np.abs(self.y) != 1.0):
            k = int(np.argmax(np.abs(self.y) != 1.0))
            raise ValueError(f"logistic labels must be -1 or +1, got "
                             f"{float(self.y[k])!r} at row {k}")
        self.neg_y = -self.y
        # the last loss built and its margin's bytes; plain attributes, so
        # the objective holds no closure over itself
        self._loss_key = self._loss = None

    # margin-space loss; no products with X

    def loss(self, m: np.ndarray) -> MarginLoss:
        """The `MarginLoss` at m, built once per margin vector.

        The last one is kept, keyed on m's exact bytes as `memo_last` keys
        its points, so a margin written in place after a call is a new one.
        """
        m = np.asarray(m, dtype=np.float64)
        key = m.tobytes()
        if key != self._loss_key:
            self._loss_key, self._loss = key, MarginLoss(self, m)
        return self._loss

    def g_value(self, m: np.ndarray) -> float:
        return self.loss(m).value

    def g_grad(self, m: np.ndarray) -> np.ndarray:
        return self.loss(m).grad

    # full-space evaluation (counted products)

    def f_value(self, w: np.ndarray, audit: bool = False) -> float:
        m = self.X.matvec(w, audit=audit)
        return self.f_value_margin(w, m)

    def f_value_margin(self, w: np.ndarray, m: np.ndarray) -> float:
        return self.plus_l2(self.g_value(m), w)

    def plus_l2(self, val: float, w: np.ndarray) -> float:
        """A margin-space value plus the weight decay at w."""
        if self.l2_lambda > 0:
            val += 0.5 * self.l2_lambda * float(w @ w)
        return val

    def f_grad(self, w: np.ndarray, audit: bool = False) -> np.ndarray:
        m = self.X.matvec(w, audit=audit)
        return self.f_grad_margin(w, m, audit=audit)

    def f_grad_margin(self, w: np.ndarray, m: np.ndarray,
                      audit: bool = False) -> np.ndarray:
        g = self.X.rmatvec(self.g_grad(m), audit=audit)
        if self.l2_lambda > 0:
            g = g + self.l2_lambda * w
        return g

    def subspace_restrict(self, w: np.ndarray, m: np.ndarray,
                          param_dirs: list[np.ndarray],
                          margin_dirs: list[np.ndarray]) -> SubProblem:
        """Restrict f to w + sum_j theta_j p_j given margin images X p_j.

        Candidate evaluations cost O(n*p) and perform zero counted products.
        The directions are stacked as rows (Q is p x n, P is p x d), so the
        gradient is Q g and the Hessian (Q * h) Q^T, each a contiguous pass
        over n per direction.  One trial point builds one image and its
        `loss`, shared by the value, gradient and Hessian at that theta;
        theta = 0 is m itself, whose loss the iterate already built.  Any
        other image is m plus `combine`'s step, as `optimizers._apply`
        commits it, so the committed margin is bitwise the solve's trial
        margin and its f reuses the trial's loss.
        """
        p = len(param_dirs)
        if len(margin_dirs) != p:
            raise ValueError(f"{p} parameter directions but "
                             f"{len(margin_dirs)} margin directions")
        Q = np.reshape(np.array(margin_dirs), (p, self.n))
        lam = self.l2_lambda
        if lam > 0:
            P = np.reshape(np.array(param_dirs), (p, self.d))
            c = P @ w
            G = P @ P.T
            w_sq = float(w @ w)

        def image(theta):
            if not theta.any():
                return m
            return m + combine(theta, [(q,) for q in Q])[0]

        at = memo_last(lambda theta: self.loss(image(theta)))

        def value(theta):
            val = at(theta).value
            if lam > 0:
                val += 0.5 * lam * (w_sq + 2.0 * float(c @ theta)
                                    + float(theta @ G @ theta))
            return val

        def grad(theta):
            gr = Q @ at(theta).grad
            if lam > 0:
                gr = gr + lam * (c + G @ theta)
            return gr

        def hess(theta):
            H = (Q * at(theta).hess_diag) @ Q.T
            if lam > 0:
                H = H + lam * G
            return H

        return SubProblem(p, value, grad, hess)
