"""Linear-composition objectives f(w) = g(Xw) + (lambda/2)||w||^2.

Everything the optimizers need is exposed both in parameter space and in
margin space; margin-space calls never multiply by the data matrix, which is
what keeps line/subspace optimization candidates at O(n) each.

One trial point costs one image m + Q theta and, for the logistic loss, one
exp(-|z|) per margin (`MarginLoss`), shared by the value, the gradient and
the Hessian at that point: the restriction closures keep their last point
(`memo_last`), so value, grad and hess at one theta, and the Wolfe search's
re-check of a step it already evaluated, build it once.
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
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


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

    Each piece is computed on first use and kept.  For the logistic loss,
    z = -y m and one e = exp(-|z|) feed the softplus value, the sigmoid s
    of the gradient and the curvature s(1 - s).
    """

    def __init__(self, obj: LcpObjective, m: np.ndarray):
        self.m, self.y = m, obj.y
        self.logistic = obj.loss_kind == "logistic"
        if self.logistic:
            self.z = -self.y * m
            self.e = np.exp(-np.abs(self.z))

    @cached_property
    def value(self) -> float:
        if self.logistic:
            return float(np.sum(_softplus(self.z, self.e)))
        r = self.m - self.y
        return 0.5 * float(r @ r)

    @cached_property
    def sigmoid(self) -> np.ndarray:
        return _sigmoid(self.z, self.e)

    @cached_property
    def grad(self) -> np.ndarray:
        if self.logistic:
            return -self.y * self.sigmoid
        return self.m - self.y

    @cached_property
    def hess_diag(self) -> np.ndarray:
        if self.logistic:
            s = self.sigmoid
            return s * (1.0 - s)
        return np.ones_like(self.m)


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

    # margin-space loss; no products with X

    def g_value(self, m: np.ndarray) -> float:
        return MarginLoss(self, m).value

    def g_grad(self, m: np.ndarray) -> np.ndarray:
        return MarginLoss(self, m).grad

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
        One trial point builds one image m + Q theta and one exponential per
        margin, shared by the value, gradient and Hessian at that theta.
        """
        p = len(param_dirs)
        assert len(margin_dirs) == p
        Q = np.column_stack(margin_dirs) if p else np.zeros((self.n, 0))
        lam = self.l2_lambda
        if lam > 0:
            P = np.column_stack(param_dirs)
            c = P.T @ w
            G = P.T @ P
            w_sq = float(w @ w)
        at = memo_last(lambda theta: MarginLoss(self, m + Q @ theta))

        def value(theta):
            val = at(theta).value
            if lam > 0:
                val += 0.5 * lam * (w_sq + 2.0 * float(c @ theta)
                                    + float(theta @ G @ theta))
            return val

        def grad(theta):
            gr = Q.T @ at(theta).grad
            if lam > 0:
                gr = gr + lam * (c + G @ theta)
            return gr

        def hess(theta):
            H = (Q * at(theta).hess_diag[:, None]).T @ Q
            if lam > 0:
                H = H + lam * G
            return H

        return SubProblem(p, value, grad, hess)
