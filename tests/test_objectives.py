"""Linear-composition objectives: values, gradients, subspace restrictions."""

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import example, given
from hypothesis import strategies as st

import subsearch.optimizers as opt
from subsearch.counted import CountedMatrix
from subsearch.data import Dataset, gen_logistic, gen_quadratic
from subsearch.network import NetObjective, subspace_restrict
from subsearch.objectives import (LcpObjective, MarginLoss, _sigmoid,
                                  _softplus)
from subsearch.optimizers import MarginState, init_state, run
from subsearch.subsolver import SubProblem


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


def test_restriction_rejects_unpaired_directions():
    obj = LcpObjective("logistic", gen_logistic(25, 5, seed=4), 0.3)
    w, P = np.zeros(5), [np.ones(5), np.arange(5.0)]
    with pytest.raises(ValueError, match="2 parameter directions but 1 "
                                         "margin directions"):
        obj.subspace_restrict(w, np.zeros(25), P, [obj.X.matvec(P[0])])


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


def _sigmoid_where(t, e):
    """The selecting form `_sigmoid` replaced, frozen as its oracle."""
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0,
          746.0, -746.0, 1e4, -1e4, 5e-324, -5e-324, 2.2250738585072014e-308,
          -2.2250738585072009e-308]


@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=40))
@example(_EDGES)
def test_sigmoid_is_the_selecting_form_bitwise(ts):
    # exp(-|t|) lies in [0, 1] (nan aside), so max(e, t >= 0) selects 1
    # where t >= 0 and e elsewhere; nan payloads included
    t = np.array(ts, dtype=np.float64)
    e = np.exp(-np.abs(t))
    assert _bits(_sigmoid(t, e)) == _bits(_sigmoid_where(t, e))


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
    state = MarginState(obj, (w, Xd @ w), obj.f_value_margin(w, Xd @ w))
    direction = (p, Xd @ p)
    phi, dphi = state.line(direction)
    for name, a in [("phi", 0.5), ("dphi", 0.5), ("dphi", 2.0),
                    ("phi", 0.5), ("phi", 2.0), ("dphi", 0.5),
                    ("phi", 0.0), ("dphi", 2.0)]:
        fresh = dict(zip(("phi", "dphi"), state.line(direction)))
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
    phi, dphi = init_state(line_obj).line((p, line_obj.X.dense() @ p))
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
    sp.value(theta), sp.grad(theta), sp.hess(theta), sp.value(theta)
    assert seen == [30 * 3]


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _count_builds(monkeypatch):
    """Count `MarginLoss` constructions."""
    real, builds = MarginLoss.__init__, []

    def init(self, *args):
        builds.append(1)
        real(self, *args)

    monkeypatch.setattr(MarginLoss, "__init__", init)
    return builds


def _iterate_with_signed_zeros(loss, sparse):
    """(obj at lambda = 0, w, m, two directions, their images), where m
    holds -0.0 in its first two entries; for least squares y is 0 there,
    so the residual m - y holds -0.0 too."""
    ds = (gen_logistic if loss == "logistic" else gen_quadratic)(
        30, 5, seed=6)
    y = ds.y.copy()
    if loss == "least_squares":
        y[:2] = 0.0
    X = ds.X.payload
    if sparse:
        X = sps.csr_matrix(X)
    obj = LcpObjective(loss, Dataset(CountedMatrix(X), y, ds.label_kind))
    rng = np.random.default_rng(3)
    w = rng.standard_normal(5)
    m = obj.X.matvec(w)
    m[:2] = -0.0
    P = [rng.standard_normal(5) for _ in range(2)]
    return obj, w, m, P, [obj.X.matvec(p) for p in P]


@pytest.mark.parametrize("loss", ["logistic", "least_squares"])
@pytest.mark.parametrize("sparse", [False, True])
def test_the_zero_point_reuses_the_iterates_loss(loss, sparse, monkeypatch):
    obj, w, m, P, images = _iterate_with_signed_zeros(loss, sparse)
    fresh = MarginLoss(obj, m.copy())
    Q = np.array(images)
    builds = _count_builds(monkeypatch)
    assert _bits(obj.g_value(m)) == _bits(fresh.value)
    assert builds == [1]
    sp = obj.subspace_restrict(w, m, P, images)
    phi, dphi = MarginState(obj, (w, m), fresh.value).line(
        (P[0], images[0]))
    zero = np.zeros(2)
    assert _bits(sp.value(zero)) == _bits(fresh.value)
    assert _bits(sp.grad(zero)) == _bits(Q @ fresh.grad)
    assert _bits(sp.hess(zero)) == _bits((Q * fresh.hess_diag) @ Q.T)
    assert _bits(phi(0.0)) == _bits(fresh.value)
    assert _bits(dphi(0.0)) == _bits(fresh.grad @ images[0])
    # the loss the zero point used is the iterate's, signed zeros and all
    assert _bits(obj.g_grad(m)) == _bits(fresh.grad)
    assert builds == [1]


@pytest.mark.parametrize("loss", ["logistic", "least_squares"])
@pytest.mark.parametrize("sparse", [False, True])
def test_a_margin_written_in_place_is_a_new_loss(loss, sparse, monkeypatch):
    obj, _, m, _, _ = _iterate_with_signed_zeros(loss, sparse)
    before = m.copy()
    builds = _count_builds(monkeypatch)
    kept = obj.loss(m)
    assert obj.loss(m.copy()) is kept and builds == [1]
    m[3] += 0.5
    got = obj.g_grad(m)
    assert builds == [1, 1]
    assert _bits(got) == _bits(MarginLoss(obj, m.copy()).grad)
    with pytest.raises(ValueError):     # every caller shares it
        got[0] = 0.0
    # the loss built before the write read none of it
    assert _bits(kept.value) == _bits(MarginLoss(obj, before).value)
    assert _bits(kept.grad) == _bits(MarginLoss(obj, before).grad)
    m[:] = before
    assert _bits(obj.g_value(m)) == _bits(kept.value)


def test_least_squares_value_and_gradient_share_one_residual():
    obj, _, m, _, _ = _iterate_with_signed_zeros("least_squares", False)
    r = m - obj.y
    loss = MarginLoss(obj, m)
    assert _bits(loss.grad) == _bits(r)
    assert _bits(loss.value) == _bits(0.5 * float(r @ r))
    assert loss.grad is loss.r


def test_an_objective_dies_with_its_last_reference():
    # the objective's loss memo is plain attributes, and no loss, closure
    # or run state refers back to it, so no cycle waits for the collector
    import gc
    import weakref

    gc.disable()
    try:
        obj = LcpObjective("logistic", gen_logistic(30, 5, seed=6), 1 / 30)
        state, _ = run("gd+m(so)", obj, 5)
        state, _ = run("qn(ls)", obj, 5)
        alive = weakref.ref(obj)
        del obj, state
        assert alive() is None
    finally:
        gc.enable()


def _trial_points(monkeypatch):
    """Per inner search, the set of distinct nonzero points at which the
    subsolver or the Wolfe search evaluated its closures."""
    searches = []

    def keyed(fn, seen):
        def at(x):
            a = np.asarray(x, dtype=np.float64)
            if a.any():
                seen.add(a.tobytes())
            return fn(x)
        return at

    def solve(sp, *args, **kwargs):
        seen = set()
        searches.append(seen)
        return real_solve(SubProblem(sp.dim, keyed(sp.value, seen),
                                     keyed(sp.grad, seen),
                                     keyed(sp.hess, seen)), *args, **kwargs)

    def strong_wolfe(phi, dphi, *args):
        seen = set()
        searches.append(seen)
        return real_wolfe(keyed(phi, seen), keyed(dphi, seen), *args)

    real_solve, real_wolfe = opt.solve, opt.strong_wolfe
    monkeypatch.setattr(opt, "solve", solve)
    monkeypatch.setattr(opt, "strong_wolfe", strong_wolfe)
    return searches


@pytest.mark.parametrize("loss,gen", [("logistic", gen_logistic),
                                      ("least_squares", gen_quadratic)])
@pytest.mark.parametrize("method", ["adam", "gd(1/l)", "gd+m(so)", "gd(lo)",
                                    "qn(ls)"])
def test_one_loss_per_margin_vector(loss, gen, method, monkeypatch):
    # the committed f and the next gradient share one loss, the inner
    # searches' zero point is the iterate and the accepted Wolfe step is
    # the committed margin; only trial points and rejected 1/L trials
    # build more
    builds = _count_builds(monkeypatch)
    searches = _trial_points(monkeypatch)
    # lsq gd+m(so) stops at its fixed point after 10 of the 30 steps
    _, recs = run(method, LcpObjective(loss, gen(60, 8, seed=2), 1 / 60), 30)
    iters = len(recs)
    if method == "adam":
        assert len(builds) == iters + 1
    elif method == "gd(1/l)":
        assert len(builds) == iters + 1 + sum(r.inner_iters for r in recs)
    else:
        assert len(searches) == iters
        assert len(builds) <= iters + 1 + sum(map(len, searches))


class _Recorded:
    """The loss a twin objective hands its restriction: value 0."""
    value = 0.0


def _trial_margin(obj, args, theta):
    """The margin at which the restriction over `args` evaluates theta,
    read off a twin objective at lambda = 0 whose `loss` records it."""
    twin, seen = LcpObjective(obj.loss_kind, obj.dataset), []

    def loss(m):
        seen.append(np.array(m))
        return _Recorded

    twin.loss = loss
    twin.subspace_restrict(*args).value(theta)
    return seen[0]


def _commits(monkeypatch):
    """Per SO or LO commit: the restriction's arguments, the committed
    theta and margin, the `MarginLoss` builds of the committed f, and
    whether theta is the last point the solve evaluated.  `so_step`
    values its commit right after the solve, so the first
    `MarginState.value` after a solve is the commit's."""
    builds, commits, pending = _count_builds(monkeypatch), [], {}
    restrict, solve = LcpObjective.subspace_restrict, opt.solve
    value = MarginState.value

    def spy_restrict(self, *args):
        pending["args"] = args
        return restrict(self, *args)

    def spy_solve(sp, *args, **kwargs):
        def last(fn):
            def at(theta):
                pending["last"] = _bits(theta)
                return fn(theta)
            return at

        pending["res"] = solve(SubProblem(sp.dim, last(sp.value),
                                          last(sp.grad), last(sp.hess)),
                               *args, **kwargs)
        return pending["res"]

    def spy_value(self, blocks):
        if "res" not in pending:
            return value(self, blocks)
        before = len(builds)
        f = value(self, blocks)
        theta = pending["res"].theta
        commits.append((pending["args"], theta, blocks[1].copy(),
                        len(builds) - before,
                        pending["last"] == _bits(theta)))
        pending.clear()
        return f

    monkeypatch.setattr(LcpObjective, "subspace_restrict", spy_restrict)
    monkeypatch.setattr(opt, "solve", spy_solve)
    monkeypatch.setattr(MarginState, "value", spy_value)
    return commits


@pytest.mark.parametrize("method", opt.MONOTONE_METHODS)
@given(loss=st.sampled_from(("logistic", "least_squares")),
       n=st.integers(5, 60), d=st.integers(1, 10),
       seed=st.integers(0, 10 ** 6), lam=st.booleans(),
       sparse=st.booleans())
def test_a_commit_is_the_solves_trial_margin(method, loss, n, d, seed, lam,
                                            sparse):
    # the committed margin is bitwise the restriction's trial margin at the
    # committed theta, so where that theta is the solve's last point, the
    # committed f reuses the trial's loss and builds none
    ds = (gen_logistic if loss == "logistic" else gen_quadratic)(n, d, seed)
    if sparse:
        X = ds.X.payload.copy()
        X[np.abs(X) < 1.0] = 0.0
        ds = Dataset(CountedMatrix(sps.csr_matrix(X)), ds.y, ds.label_kind)
    obj = LcpObjective(loss, ds, 1.0 / n if lam else 0.0)
    with pytest.MonkeyPatch.context() as mp:
        commits = _commits(mp)
        _, recs = run(method, obj, 20)
    assert len(commits) == len(recs)
    for args, theta, m, builds, last in commits:
        assert _bits(m) == _bits(_trial_margin(obj, args, theta))
        if last:
            assert builds == 0
