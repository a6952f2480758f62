"""Matrix factorization schemes: expansion oracles, budgets, drift."""

import numpy as np
import pytest

from subsearch import matfact as mf
from subsearch.data import _normals, _seed_state


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


def test_simul_expansion_matches_explicit_candidates(state):
    # drive one step to populate _prev, then compare the polynomial
    # restriction against explicitly formed candidates
    mf.step_simul_so2(state)
    Gu, Gw, D1, D2, D3 = mf._core_blocks(state)
    terms = [
        (lambda t: -t[0], lambda t: (-1.0, 0.0), D1),
        (lambda t: -t[1], lambda t: (0.0, -1.0), D2),
        (lambda t: t[0] * t[1], lambda t: (t[1], t[0]), D3),
    ]
    sp, m_at = mf._poly_subproblem(state.X, state.M, terms, 2)
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = rng.uniform(-1, 1, size=2)
        U_c = state.U - t[0] * Gu
        W_c = state.W - t[1] * Gw
        explicit = mf.pca_value(U_c @ W_c.T, state.X)
        assert abs(sp.value(t) - explicit) <= 1e-10 * max(1.0, explicit)


def test_momentum_both_expansion_matches_explicit_candidates(state):
    mf.step_momentum_both_exact(state)       # populate momentum anchors
    mf.step_momentum_both_exact(state)
    Gu, Gw, D1, D2, D3 = mf._core_blocks(state)
    E1 = state.U_prev @ state.W.T
    E2 = state.U_prev @ Gw.T
    E3 = state.M_prev
    E4 = state.U @ state.W_prev.T
    E5 = Gu @ state.W_prev.T
    terms = mf._both_terms(state, D1, D2, D3, E1, E2, E3, E4, E5)
    sp, _ = mf._poly_subproblem(state.X, state.M, terms, 4)
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = rng.uniform(-0.5, 0.5, size=4)
        a1, b1, a2, b2 = t
        U_c = (1 + b1) * state.U - b1 * state.U_prev - a1 * Gu
        W_c = (1 + b2) * state.W - b2 * state.W_prev - a2 * Gw
        explicit = mf.pca_value(U_c @ W_c.T, state.X)
        assert abs(sp.value(t) - explicit) <= 1e-10 * max(1.0, explicit)


def _scheme_terms(state):
    """(name, terms, dim) of the simul, momentum-u and momentum-both
    restrictions at the current state."""
    Gu, Gw, D1, D2, D3 = mf._core_blocks(state)
    E1 = state.U_prev @ state.W.T
    E2 = state.U_prev @ Gw.T
    E4 = state.U @ state.W_prev.T
    E5 = Gu @ state.W_prev.T
    return [("simul", mf._simul_terms(D1, D2, D3), 2),
            ("momentum-u", mf._one_terms(state, D1, D2, D3, E1, E2), 3),
            ("momentum-both", mf._both_terms(state, D1, D2, D3, E1, E2,
                                             state.M_prev, E4, E5), 4)]


def test_gram_restriction_matches_finite_differences(state):
    mf.step_momentum_both_exact(state)       # populate momentum anchors
    mf.step_momentum_both_exact(state)
    rng = np.random.default_rng(3)
    h = 1e-5
    for name, terms, dim in _scheme_terms(state):
        sp, _ = mf._poly_subproblem(state.X, state.M, terms, dim)
        for _ in range(3):
            t = rng.uniform(-0.5, 0.5, size=dim)
            E = np.eye(dim) * h
            g_fd = np.array([(sp.value(t + e) - sp.value(t - e)) / (2 * h)
                             for e in E])
            H_fd = np.array([(sp.grad(t + e) - sp.grad(t - e)) / (2 * h)
                             for e in E])
            g, H = sp.grad(t), sp.hess(t)
            assert np.linalg.norm(g - g_fd) <= 1e-6 * max(
                1.0, np.linalg.norm(g)), name
            assert np.max(np.abs(H - H_fd)) <= 1e-6 * max(
                1.0, np.max(np.abs(H))), name


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
            # exact-momentum schemes re-form U W^T every refresh_every
            # iterations, which costs one extra counted product
            if scheme in ("momentum-u", "momentum-both") and k % 10 == 0:
                expected += 1
            assert r.products == expected, (scheme, k, r.products)


def test_monotone(state):
    X = make_X()
    for scheme in mf.MF_SCHEMES:
        st, recs = mf.run(scheme, X, rank=3, iters=40, seed=1)
        f_prev = mf.init_state(X, 3, 1).f
        for r in recs:
            assert r.f <= f_prev + 1e-12 * max(1.0, abs(f_prev)), scheme
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
