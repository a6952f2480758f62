"""Linear-composition objectives: values, gradients, subspace restrictions."""

import numpy as np
import pytest

from subsearch.data import gen_logistic, gen_quadratic
from subsearch.network import NetObjective, subspace_restrict
from subsearch.objectives import LcpObjective, _sigmoid, _softplus
from subsearch.optimizers import MarginState, init_state


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
    with pytest.raises(ValueError, match="-1 or \\+1, got .* at row 0"):
        LcpObjective("logistic", gen_quadratic(5, 2, seed=0))


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_rejects_nonfinite_lambda(lam):
    ds = gen_logistic(5, 2, seed=0)
    with pytest.raises(ValueError):
        LcpObjective("logistic", ds, lam)
    with pytest.raises(ValueError):
        NetObjective(ds, hidden=2, l2_lambda=lam)


# the masked forms the branch-free _softplus/_sigmoid replaced: the oracle
def _softplus_masked(z):
    out = np.empty_like(z)
    pos = z > 0
    out[pos] = z[pos] + np.log1p(np.exp(-z[pos]))
    out[~pos] = np.log1p(np.exp(z[~pos]))
    return out


def _sigmoid_masked(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _same_bits(a, b):
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64),
                               b[~nan].view(np.int64)))


def test_branch_free_softplus_and_sigmoid_match_masked_forms_bitwise():
    edges = np.array([0.0, 1e-300, 36.0, 37.0, 709.0, 745.0, 1e4, np.inf])
    rng = np.random.default_rng(3)
    z = np.concatenate([edges, -edges, [np.nan, -np.nan],
                        rng.standard_normal(3000)
                        * np.repeat([1.0, 30.0, 800.0], 1000)])
    e = np.exp(-np.abs(z))
    assert _same_bits(_softplus(z, e), _softplus_masked(z))
    assert _same_bits(_sigmoid(z, e), _sigmoid_masked(z))


def _restrictions(loss, lam_scale):
    """A builder of fresh SubProblems: the LCP or net2 restriction at
    lambda = lam_scale / n, over two directions."""
    ds = (gen_logistic if loss != "least_squares" else gen_quadratic)(
        30, 5, seed=6)
    lam = lam_scale / ds.n
    rng = np.random.default_rng(8)
    Xd = ds.X.dense()
    if loss == "net2":
        net = NetObjective(ds, hidden=3, l2_lambda=lam)
        W = rng.standard_normal((5, 3)) * 0.3
        v = rng.standard_normal(3) * 0.3
        dW = rng.standard_normal((5, 3))
        dv = rng.standard_normal(3)
        dirs = [(dW, None, Xd @ dW), (dW, dv, Xd @ dW)]
        return lambda: subspace_restrict(net, W, v, Xd @ W, dirs)
    obj = LcpObjective(loss, ds, lam)
    w = rng.standard_normal(5)
    P = [rng.standard_normal(5) for _ in range(2)]
    return lambda: obj.subspace_restrict(w, Xd @ w, P, [Xd @ p for p in P])


def _equal(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b))


@pytest.mark.parametrize("loss", ["logistic", "least_squares", "net2"])
@pytest.mark.parametrize("lam_scale", [0.0, 1.0])
def test_restriction_memo_never_goes_stale(loss, lam_scale):
    fresh = _restrictions(loss, lam_scale)
    sp = fresh()
    t1, t2 = np.array([0.3, -0.2]), np.array([-0.7, 0.4])
    calls = [("value", t1), ("grad", t1), ("hess", t1), ("grad", t2),
             ("value", t2), ("hess", t1), ("value", t1), ("hess", t2),
             ("grad", t1), ("value", t2)]
    for name, theta in calls:
        got = getattr(sp, name)(theta)
        assert _equal(got, getattr(fresh(), name)(theta)), (name, theta)
    # a trial array mutated in place after its first call is a new point
    theta = t1.copy()
    sp.value(theta)
    for name in ("grad", "value", "hess"):
        theta += np.array([0.25, -0.5])
        got = getattr(sp, name)(theta)
        assert _equal(got, getattr(fresh(), name)(theta.copy())), name


@pytest.mark.parametrize("lam_scale", [0.0, 1.0])
def test_margin_line_memo_never_goes_stale(lam_scale):
    ds = gen_logistic(30, 5, seed=6)
    obj = LcpObjective("logistic", ds, lam_scale / ds.n)
    rng = np.random.default_rng(9)
    w, p = rng.standard_normal(5), rng.standard_normal(5)
    Xd = ds.X.dense()
    state = MarginState((w, Xd @ w), obj.f_value_margin(w, Xd @ w))
    direction = (p, Xd @ p)
    phi, dphi = state.line(obj, direction)
    for name, a in [("phi", 0.5), ("dphi", 0.5), ("dphi", 2.0),
                    ("phi", 0.5), ("phi", 2.0), ("dphi", 0.5),
                    ("phi", 0.0), ("dphi", 2.0)]:
        fresh = dict(zip(("phi", "dphi"), state.line(obj, direction)))
        got = (phi if name == "phi" else dphi)(a)
        assert got == fresh[name](a), (name, a)


def _spy(monkeypatch, name):
    """Count calls of numpy's `name` and the elements they evaluate."""
    real, seen = getattr(np, name), []

    def spy(x, *args, **kwargs):
        seen.append(np.size(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, name, spy)
    return seen


def test_one_exponential_per_logistic_trial_point(monkeypatch):
    sp = _restrictions("logistic", 1.0)()
    line_obj = LcpObjective("logistic", gen_logistic(30, 5, seed=6))
    p = np.ones(5)
    phi, dphi = init_state(line_obj).line(line_obj,
                                          (p, line_obj.X.dense() @ p))
    seen = _spy(monkeypatch, "exp")
    theta = np.array([0.3, -0.2])
    sp.value(theta), sp.grad(theta), sp.hess(theta)
    assert seen == [30]
    # the Wolfe search's re-check at an evaluated step size is free
    seen.clear()
    phi(0.5), dphi(0.5), phi(0.5), dphi(0.5)
    assert seen == [30]


def test_one_tanh_per_net_trial_point(monkeypatch):
    sp = _restrictions("net2", 1.0)()
    seen = _spy(monkeypatch, "tanh")
    theta = np.array([0.3, -0.2])
    sp.value(theta), sp.grad(theta), sp.value(theta)
    assert seen == [30 * 3]
