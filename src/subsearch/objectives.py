"""Linear-composition objectives f(w) = g(Xw) + (lambda/2)||w||^2.

Everything the optimizers need is exposed both in parameter space and in
margin space; margin-space calls never multiply by the data matrix, which is
what keeps line/subspace optimization candidates at O(n) each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counted import CountedMatrix
from .data import Dataset
from .subsolver import SubProblem

LOSSES = ("logistic", "least_squares")


def _softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + exp(z)) without overflow for large |z|
    out = np.empty_like(z)
    pos = z > 0
    out[pos] = z[pos] + np.log1p(np.exp(-z[pos]))
    out[~pos] = np.log1p(np.exp(z[~pos]))
    return out


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass
class LcpObjective:
    loss_kind: str
    dataset: Dataset
    l2_lambda: float = 0.0

    def __post_init__(self):
        if self.loss_kind not in LOSSES:
            raise ValueError(f"unknown loss {self.loss_kind!r}")
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

    # margin-space loss; no products with X

    def g_value(self, m: np.ndarray) -> float:
        if self.loss_kind == "logistic":
            return float(np.sum(_softplus(-self.y * m)))
        r = m - self.y
        return 0.5 * float(r @ r)

    def g_grad(self, m: np.ndarray) -> np.ndarray:
        if self.loss_kind == "logistic":
            return -self.y * _sigmoid(-self.y * m)
        return m - self.y

    def g_hess_diag(self, m: np.ndarray) -> np.ndarray:
        if self.loss_kind == "logistic":
            s = _sigmoid(-self.y * m)
            return s * (1.0 - s)
        return np.ones_like(m)

    # full-space evaluation (counted products)

    def f_value(self, w: np.ndarray, audit: bool = False) -> float:
        m = self.X.matvec(w, audit=audit)
        return self.f_value_margin(w, m)

    def f_value_margin(self, w: np.ndarray, m: np.ndarray) -> float:
        val = self.g_value(m)
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

        def value(theta):
            mm = m + Q @ theta
            val = self.g_value(mm)
            if lam > 0:
                val += 0.5 * lam * (w_sq + 2.0 * float(c @ theta)
                                    + float(theta @ G @ theta))
            return val

        def grad(theta):
            mm = m + Q @ theta
            gr = Q.T @ self.g_grad(mm)
            if lam > 0:
                gr = gr + lam * (c + G @ theta)
            return gr

        def hess(theta):
            mm = m + Q @ theta
            H = (Q * self.g_hess_diag(mm)[:, None]).T @ Q
            if lam > 0:
                H = H + lam * G
            return H

        return SubProblem(p, value, grad, hess)
