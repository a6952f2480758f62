"""Matrix factorization schemes: expansion oracles, budgets, drift."""

import dataclasses
import struct
from functools import partial

import numpy as np
import pytest

from subsearch import matfact as mf
from subsearch.data import _normals, _seed_state, gen_logistic


def make_X(n=20, d=12, seed=5):
    rng = _seed_state(seed)
    return _normals(rng, n * d).reshape(n, d)


@pytest.fixture()
def state():
    return mf.init_state(make_X(), rank=3, seed=1)


def test_gradient_matches_central_differences(state):
    X, U, W = state.X, state.U, state.W
    G = mf.pca_grad(U @ W.T, X)
    gU, gW = G @ W, G.T @ U
    h = 1e-6
    rng = np.random.default_rng(0)
    for _ in range(5):
        i, j = rng.integers(U.shape[0]), rng.integers(U.shape[1])
        Up, Um = U.copy(), U.copy()
        Up[i, j] += h
        Um[i, j] -= h
        fd = (mf.pca_value(Up @ W.T, X) - mf.pca_value(Um @ W.T, X)) / (2 * h)
        assert abs(gU[i, j] - fd) / max(1.0, abs(fd)) < 1e-5
        i, j = rng.integers(W.shape[0]), rng.integers(W.shape[1])
        Wp, Wm = W.copy(), W.copy()
        Wp[i, j] += h
        Wm[i, j] -= h
        fd = (mf.pca_value(U @ Wp.T, X) - mf.pca_value(U @ Wm.T, X)) / (2 * h)
        assert abs(gW[i, j] - fd) / max(1.0, abs(fd)) < 1e-5


# every SO scheme: its step, and the slots and free pair products of its
# next step; altmin runs on one fixed factor so its momentum slot is listed
SO_SCHEMES = {
    "altmin-u": (partial(mf.step_altmin_so, which="u"),
                 lambda st: mf._altmin_slots(st, "u")),
    "altmin-w": (partial(mf.step_altmin_so, which="w"),
                 lambda st: mf._altmin_slots(st, "w")),
    "simul": (mf.step_simul_so2, lambda st: (mf.SIMUL, None)),
    "momentum-u": (mf.step_momentum_one, lambda st: (mf.MOMENTUM_U, None)),
    "momentum-both": (mf.step_momentum_both_exact,
                      lambda st: (mf.MOMENTUM_BOTH, None)),
}


@pytest.mark.parametrize("warm", [0, 2])
@pytest.mark.parametrize("scheme", SO_SCHEMES)
def test_expansion_matches_explicit_factors(state, scheme, warm):
    """After `warm` steps of the scheme, its restriction equals f at
    explicitly formed factors and m_at is their product; its gradient and
    Hessian match central differences.  With no warm-up every momentum
    direction is exactly zero and its slot is left out of the solve."""
    step, next_slots = SO_SCHEMES[scheme]
    for _ in range(warm):
        step(state)
    slots, free = next_slots(state)
    sp, m_at, live, _ = mf._expand(state, slots, free)
    assert live == [k for k, (_, _, c) in enumerate(slots)
                    if warm or c is mf.GRAD]
    assert sp.dim == len(live)
    X, U, W = state.X, state.U, state.W
    G = U @ W.T - X
    anchors = {"u": (U, U - state.U_prev, G @ W),
               "w": (W, W - state.W_prev, G.T @ U)}
    rng = np.random.default_rng(2)
    h = 1e-5
    for _ in range(5):
        t = rng.uniform(-0.5, 0.5, size=sp.dim)
        theta = np.zeros(len(slots))
        theta[live] = t
        new = {"u": U.copy(), "w": W.copy()}
        for (f, _, (i, sign)), th in zip(slots, theta):
            new[f] += th * sign * anchors[f][i]
        M_c = new["u"] @ new["w"].T
        explicit = mf.pca_value(M_c, X)
        assert abs(sp.value(t) - explicit) <= 1e-10 * max(1.0, explicit)
        assert np.max(np.abs(m_at(t) - M_c)) <= 1e-10 * np.max(np.abs(M_c))
        E = np.eye(sp.dim) * h
        g_fd = np.array([(sp.value(t + e) - sp.value(t - e)) / (2 * h)
                         for e in E])
        H_fd = np.array([(sp.grad(t + e) - sp.grad(t - e)) / (2 * h)
                         for e in E])
        g, H = sp.grad(t), sp.hess(t)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * max(1.0, np.linalg.norm(g))
        assert np.max(np.abs(H - H_fd)) <= 1e-6 * max(1.0, np.max(np.abs(H)))


def test_momentum_both_subsolves_take_few_newton_iterations():
    # the Gram-form Hessian turns on damped Newton: a few iterations per
    # 4-d solve instead of running to the 100-iteration cap
    _, recs = mf.run("momentum-both", make_X(40, 25, seed=2), rank=3,
                     iters=20, seed=1)
    assert np.mean([r.inner_iters for r in recs]) <= 20


def test_budgets_exact():
    X = make_X()
    for scheme, budget in mf.MF_BUDGETS.items():
        _, recs = mf.run(scheme, X, rank=3, iters=25, seed=1)
        for k, r in enumerate(recs, start=1):
            expected = budget
            # exact-momentum schemes restart momentum every refresh_every
            # iterations, forming U W^T with one extra counted product
            if scheme in ("momentum-u", "momentum-both") and k % 10 == 0:
                expected += 1
            assert r.products == expected, (scheme, k, r.products)


def _bits(value):
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def _record_bits(rec):
    return _bits(tuple(getattr(rec, f.name) for f in dataclasses.fields(rec)
                       if f.name != "elapsed_s"))


# simul and the inexact scheme read no step counter, so they stop at their
# bitwise fixed point; altmin's schedule and the exact momentum restart read
# it, so those runs take every step
@pytest.mark.parametrize("scheme, kept", [
    ("altmin", 300), ("simul", 273), ("momentum-u", 300),
    ("momentum-both", 300), ("momentum-both-inexact", 226)])
def test_counter_free_schemes_stop_at_their_fixed_point(scheme, kept):
    """`run` against a plain loop of the step function over all 300 steps:
    its records are a bitwise prefix of the loop's, every dropped record
    repeats the last kept one, and the final states' `step_inputs()` hold
    the same bits."""
    X = gen_logistic(80, 50, 3).X.dense()
    loop_state = mf.init_state(X, 4, seed=3)
    full = []
    for _ in range(300):
        before = loop_state.counter.read()
        rec = mf.MF_SCHEMES[scheme](loop_state)
        rec.products = loop_state.counter.read() - before
        full.append(rec)

    state, recs = mf.run(scheme, X, 4, 300, seed=3)
    assert len(recs) == kept
    assert list(map(_record_bits, recs)) == list(map(_record_bits,
                                                     full[:kept]))
    assert all(_record_bits(r) == _record_bits(recs[-1])
               for r in full[kept:])
    assert _bits(state.step_inputs()) == _bits(loop_state.step_inputs())


def test_step_inputs_repeat_only_where_no_schedule_reads_k():
    """simul and momentum-both-inexact read no step counter: at their fixed
    point a step commits the zero step and leaves `step_inputs()` bitwise
    as it found it.  altmin and the exact momentum schemes advance `k` on
    every step, so `drive` runs each of them, zero steps included."""
    X = gen_logistic(20, 12, 3).X.dense()
    for scheme in ("simul", "momentum-both-inexact"):
        state, recs = mf.run(scheme, X, 2, 250, seed=3)
        assert len(recs) < 250 and state.k == 0
        before = _bits(state.step_inputs())
        rec = mf.MF_SCHEMES[scheme](state)
        assert (rec.alpha1, rec.alpha2) == (0.0, 0.0)
        assert _bits(state.step_inputs()) == before

    for scheme in ("altmin", "momentum-u", "momentum-both"):
        ks, zero_steps = [], []

        def note(k, state, rec):
            ks.append(state.k)
            zero_steps.append(not any([rec.alpha1, rec.beta1, rec.alpha2,
                                       rec.beta2]))

        _, recs = mf.run(scheme, X, 2, 250, seed=3, callback=note)
        assert len(recs) == 250 and ks == list(range(1, 251))
        # the run has reached zero steps, and drive still runs them
        assert zero_steps[-1]


def test_monotone(state):
    X = make_X()
    for scheme in mf.MF_SCHEMES:
        st, recs = mf.run(scheme, X, rank=3, iters=40, seed=1)
        f_prev = mf.init_state(X, 3, 1).f
        for r in recs:
            assert r.f <= f_prev + 1e-12 * max(1.0, abs(f_prev)), scheme
            f_prev = r.f


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scheme", tuple(mf.MF_SCHEMES))
def test_monotone_near_an_exact_low_rank_fit(scheme, seed):
    # X is rank 3 up to 1e-6 noise, so f falls by orders of magnitude and
    # the step sizes' restrictions are nearly singular: rounding in how a
    # restriction is formed shows as f rising
    rng = np.random.default_rng(seed)
    A, B = rng.standard_normal((60, 3)), rng.standard_normal((3, 20))
    X = A @ B + 1e-6 * rng.standard_normal((60, 20))
    _, recs = mf.run(scheme, X, rank=3, iters=100, seed=seed)
    f_prev = mf.init_state(X, 3, seed).f
    for k, r in enumerate(recs, start=1):
        assert r.f <= f_prev + 1e-8 * abs(f_prev), (k, f_prev, r.f)
        f_prev = r.f


def test_tracked_product_drift():
    X = make_X()
    for scheme in mf.MF_SCHEMES:
        st, _ = mf.run(scheme, X, rank=3, iters=60, seed=1)
        assert mf.audit_product(st) <= 1e-8, scheme


def test_recorded_f_matches_fresh_evaluation():
    X = make_X()
    st, recs = mf.run("momentum-both", X, rank=3, iters=30, seed=1)
    assert abs(recs[-1].f - mf.pca_value(st.U @ st.W.T, X)) <= 1e-8 * max(
        1.0, recs[-1].f)


def test_momentum_box_records_stay_true():
    # a momentum image formed from the tracked M carries its error, and on
    # this input a step-size box at 10 then drove steps 25-30 to the
    # iteration cap while that error grew 1e5-fold; every record must be
    # the committed point's own value
    from subsearch.data import gen_quadratic

    X = gen_quadratic(28, 9, 814305).X.dense()
    errors = []

    def check(k, st, rec):
        f_true = mf.pca_value(st.U @ st.W.T, X)
        if abs(rec.f - f_true) > 1e-8 * max(1.0, abs(rec.f)):
            errors.append((k + 1, rec.f, f_true))

    mf.run("momentum-both", X, 1, 30, seed=814305, callback=check)
    assert not errors, errors[0]


@pytest.mark.parametrize("steps_before", [0, 9])
@pytest.mark.parametrize("scheme", SO_SCHEMES)
def test_a_step_above_the_iterates_f_commits_the_zero_step(
        monkeypatch, scheme, steps_before):
    # every committed point reads above f, on a plain step and on the
    # exact momentum schemes' restart step (the 10th), where the fresh
    # U W^T and the tracked point are both judged
    step, _ = SO_SCHEMES[scheme]
    st = mf.init_state(make_X(), 3, 1)
    for _ in range(steps_before):
        step(st)
    U, W, M, f = st.U, st.W, st.M.copy(), st.f
    monkeypatch.setattr(mf, "pca_value", lambda M, X: np.inf)
    rec = step(st)
    assert (rec.flag, rec.f, st.f) == ("rounding_floor", f, f)
    assert all(getattr(rec, name) in (None, 0.0) for name in mf._FIELDS)
    assert st.U is U and st.W is W and np.array_equal(st.M, M)


@pytest.mark.parametrize("scheme", ["momentum-u", "momentum-both"])
def test_a_restart_step_keeps_a_decrease_that_drift_hides(scheme):
    # the restart step's fresh U W^T is skewed to read above the iterate's
    # f; the step is judged at its tracked point instead and commits it
    step = mf.MF_SCHEMES[scheme]
    st = mf.init_state(make_X(), 3, 1)
    for _ in range(st.refresh_every - 1):
        step(st)
    U, f = st.U, st.f
    budget = mf.MF_BUDGETS[scheme]
    start = st.counter.read()
    prod = st.prod

    def skewed(A, B, audit=False):
        P = prod(A, B, audit)
        return P + 1e3 if st.counter.read() - start > budget else P

    st.prod = skewed
    rec = step(st)
    assert st.counter.read() - start == budget + 1
    assert rec.flag is None and rec.alpha1 != 0.0
    assert rec.f == mf.pca_value(st.M, st.X) < f
    assert not np.array_equal(st.U, U)
    assert mf.relative_drift(st.M, st.U @ st.W.T) <= 1e-12
    # momentum still restarts
    assert np.array_equal(st.U_prev, st.U) and np.array_equal(st.M_prev, st.M)


def test_altmin_alpha_matches_closed_form(state):
    # with no momentum yet, the first altmin step on U is exact line
    # optimization of a quadratic: alpha* = ||grad||^2 / ||D||^2
    G = mf.pca_grad(state.M, state.X)
    grad_f = G @ state.W
    D = grad_f @ state.W.T
    alpha_star = float(np.sum(D * G)) / float(np.sum(D * D))
    rec = mf.step_altmin_so(state, which="u")
    assert abs(rec.alpha1 - alpha_star) < 1e-8 * max(1.0, abs(alpha_star))


def test_inexact_scheme_budget_is_two_plus_candidates():
    X = make_X()
    st = mf.init_state(X, 3, 1)
    cands = [(0.0, 0.0, 0.0, 0.0), (1e-3, 0.0, 1e-3, 0.0),
             (2e-3, 0.0, 2e-3, 0.0)]
    before = st.counter.read()
    mf.step_momentum_both_inexact(st, candidates=cands)
    assert st.counter.read() - before == 2 + len(cands)


def test_inexact_requires_zero_candidate():
    st = mf.init_state(make_X(), 3, 1)
    with pytest.raises(ValueError):
        mf.step_momentum_both_inexact(st, candidates=[(1e-3, 0, 0, 0)])


def test_init_validation():
    with pytest.raises(ValueError):
        mf.init_state(make_X(4, 3), rank=4)
    with pytest.raises(KeyError):
        mf.run("svd", make_X(), 2, 1)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "momentum-both-inexact's momentum is dead: `default_candidates` copies "
    "beta1 and beta2 from `last_theta`, which start at 0, and no candidate "
    "sets a nonzero beta, so candidates 2-4 repeat candidates 5-7 and 3 of "
    "the step's 9 counted products price a point already priced"))
def test_inexact_momentum_records_a_nonzero_beta():
    X = gen_logistic(80, 50, 1).X.dense()
    state, recs = mf.run("momentum-both-inexact", X, 4, 100, seed=1)
    assert any(rec.beta1 or rec.beta2 for rec in recs)
    assert len(set(mf.default_candidates(state))) == 7
