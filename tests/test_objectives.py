"""Linear-composition objectives: values, gradients, subspace restrictions."""

import numpy as np
import pytest

from subsearch.data import gen_logistic, gen_quadratic
from subsearch.objectives import LcpObjective


def fd_grad(f, w, h=1e-6):
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2 * h)
    return g


@pytest.mark.parametrize("loss,gen,lam", [
    ("logistic", gen_logistic, 0.0),
    ("logistic", gen_logistic, 0.1),
    ("least_squares", gen_quadratic, 0.0),
    ("least_squares", gen_quadratic, 0.05),
])
def test_gradient_matches_central_differences(loss, gen, lam):
    obj = LcpObjective(loss, gen(30, 6, seed=2), lam)
    rng = np.random.default_rng(5)
    for _ in range(5):
        w = rng.standard_normal(6) * 0.5
        g = obj.f_grad(w)
        g_fd = fd_grad(lambda z: obj.f_value(z), w)
        rel = np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g))
        assert rel < 1e-5


def test_logistic_value_naive():
    obj = LcpObjective("logistic", gen_logistic(10, 3, seed=1))
    w = np.array([0.3, -0.2, 0.1])
    X, y = obj.X.dense(), obj.y
    expected = float(np.sum(np.log(1.0 + np.exp(-y * (X @ w)))))
    assert abs(obj.f_value(w) - expected) < 1e-12


def test_logistic_no_overflow_at_extreme_margins():
    obj = LcpObjective("logistic", gen_logistic(5, 2, seed=1))
    v = obj.g_value(np.array([1e4, -1e4, 0.0, 50.0, -50.0]))
    assert np.isfinite(v)


def test_least_squares_value_naive():
    obj = LcpObjective("least_squares", gen_quadratic(10, 3, seed=1), 0.2)
    w = np.array([1.0, -1.0, 0.5])
    X, y = obj.X.dense(), obj.y
    expected = 0.5 * float(np.sum((X @ w - y) ** 2)) + 0.1 * float(w @ w)
    assert abs(obj.f_value(w) - expected) < 1e-10


def test_restriction_matches_full_objective():
    obj = LcpObjective("logistic", gen_logistic(25, 5, seed=4), 0.3)
    rng = np.random.default_rng(0)
    w = rng.standard_normal(5)
    m = obj.X.dense() @ w
    dirs = [rng.standard_normal(5) for _ in range(2)]
    images = [obj.X.dense() @ p for p in dirs]
    sp = obj.subspace_restrict(w, m, dirs, images)
    for _ in range(10):
        theta = rng.standard_normal(2)
        w_t = w + theta[0] * dirs[0] + theta[1] * dirs[1]
        assert abs(sp.value(theta) - obj.f_value(w_t)) < 1e-10 * max(
            1.0, abs(sp.value(theta)))


def test_restriction_grad_and_hess_consistent():
    obj = LcpObjective("logistic", gen_logistic(25, 5, seed=4), 0.3)
    rng = np.random.default_rng(1)
    w = rng.standard_normal(5)
    m = obj.X.dense() @ w
    dirs = [rng.standard_normal(5) for _ in range(2)]
    images = [obj.X.dense() @ p for p in dirs]
    sp = obj.subspace_restrict(w, m, dirs, images)
    theta = np.array([0.2, -0.1])
    g_fd = fd_grad(sp.value, theta)
    assert np.linalg.norm(sp.grad(theta) - g_fd) < 1e-6
    H = sp.hess(theta)
    h = 1e-5
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        col = (sp.grad(theta + e) - sp.grad(theta - e)) / (2 * h)
        assert np.linalg.norm(H[:, i] - col) < 1e-6


def test_restricted_evaluations_do_not_count_products():
    obj = LcpObjective("logistic", gen_logistic(25, 5, seed=4))
    w = np.zeros(5)
    m = np.zeros(25)
    p = np.ones(5)
    q = obj.X.matvec(p)            # the only counted product
    sp = obj.subspace_restrict(w, m, [p], [q])
    before = obj.X.counter_read()
    for t in np.linspace(-1, 1, 20):
        sp.value(np.array([t]))
        sp.grad(np.array([t]))
        sp.hess(np.array([t]))
    assert obj.X.counter_read() == before


def test_rejects_bad_construction():
    ds = gen_logistic(5, 2, seed=0)
    with pytest.raises(ValueError):
        LcpObjective("hinge", ds)
    with pytest.raises(ValueError):
        LcpObjective("logistic", ds, -1.0)


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_rejects_nonfinite_lambda(lam):
    from subsearch.network import NetObjective
    ds = gen_logistic(5, 2, seed=0)
    with pytest.raises(ValueError):
        LcpObjective("logistic", ds, lam)
    with pytest.raises(ValueError):
        NetObjective(ds, hidden=2, l2_lambda=lam)
