"""Log-determinant objective: determinant lemma, solve budgets, PD safety."""

import numpy as np
import pytest

from subsearch import logdet as ld


def random_spd(rng, d, ridge=None):
    A = rng.standard_normal((d, d))
    return A @ A.T + (ridge if ridge is not None else d) * np.eye(d)


def test_f_gauss_identity_examples():
    assert abs(ld.f_gauss(ld.init_state(np.eye(3))) - 3.0) < 1e-14
    st = ld.init_state(np.zeros((2, 2)), V0=2.0 * np.eye(2))
    assert abs(ld.f_gauss(st) + 2.0 * np.log(2.0)) < 1e-14


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    S = random_spd(rng, 4, ridge=1.0) / 4
    h = 1e-6
    for _ in range(5):
        V = random_spd(rng, 4)

        def f(Vm):
            return float(np.sum(S * Vm)) - np.linalg.slogdet(Vm)[1]

        grad = S - np.linalg.inv(V)
        for idx in [(0, 0), (1, 2), (3, 3)]:
            E = np.zeros((4, 4))
            E[idx] = h
            E[idx[::-1]] = h           # keep the perturbation symmetric
            fd = (f(V + E) - f(V - E)) / 2.0
            directional = float(np.sum(grad * E))
            assert abs(directional - fd) / max(h, abs(fd)) < 1e-5


def test_det_lemma_rank1_and_rank2_over_1000_trials():
    rng = np.random.default_rng(0)
    worst1 = worst2 = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        V = random_spd(rng, d)
        st = ld.SpdState(S=np.eye(d), V=V, logdet_V=0.0)
        u = rng.standard_normal(d)
        v = rng.standard_normal(d)
        a1 = float(rng.uniform(-0.3, 1.0))
        a2 = float(rng.uniform(-0.3, 1.0))
        fac, _ = ld.rank1_det_factor(st, u, a1)
        direct = np.linalg.det(V + a1 * np.outer(u, u)) / np.linalg.det(V)
        if direct > 0.1:
            worst1 = max(worst1, abs(fac - direct) / direct)
        fac2 = ld.rank2_det_factor(st, u, v, a1, a2)
        direct2 = np.linalg.det(V + a1 * np.outer(u, u)
                                + a2 * np.outer(v, v)) / np.linalg.det(V)
        if direct2 > 0.1:
            worst2 = max(worst2, abs(fac2 - direct2) / direct2)
    assert worst1 <= 1e-8
    assert worst2 <= 1e-8


def test_rank1_factor_costs_one_solve():
    rng = np.random.default_rng(1)
    st = ld.SpdState(S=np.eye(4), V=random_spd(rng, 4), logdet_V=0.0)
    before = st.solver.read()
    ld.rank1_det_factor(st, rng.standard_normal(4), 0.5)
    assert st.solver.read() - before == 1


def test_rank2_factor_costs_exactly_two_solves():
    rng = np.random.default_rng(1)
    st = ld.SpdState(S=np.eye(4), V=random_spd(rng, 4), logdet_V=0.0)
    before = st.solver.read()
    ld.rank2_det_factor(st, rng.standard_normal(4), rng.standard_normal(4),
                        0.5, -0.2)
    assert st.solver.read() - before == 2


@pytest.mark.parametrize("rank", [1, 2])
def test_step_budgets_and_monotonicity(rank):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((12, 36))
    S = (A @ A.T) / 36
    state, recs = ld.run(S, rank=rank, iters=100)
    assert all(r.products == rank for r in recs)
    f_prev = ld.f_gauss(ld.init_state(S))
    for r in recs:
        assert r.f <= f_prev + 1e-12 * max(1.0, abs(f_prev))
        f_prev = r.f
    np.linalg.cholesky(state.V)          # iterate stayed positive definite


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_steps_keep_v_bitwise_symmetric(rank, seed):
    # V + a u u^T is symmetric to the bit, so no step re-symmetrizes it;
    # init_state does once, for a V0 only within 1e-12 of symmetric
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((7, 20))
    S = (A @ A.T) / 20
    V0 = np.eye(7)
    V0[0, 1] += 1e-13
    state = ld.init_state(S, V0=V0)
    assert np.array_equal(state.V, state.V.T)
    for _ in range(30):
        ld.step_rank_so(state, rank=rank)
        assert np.array_equal(state.V, state.V.T)


def test_rank2_converges_toward_inverse_covariance():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 40))
    S = (A @ A.T) / 40
    fstar = S.shape[0] + np.linalg.slogdet(S)[1]   # f at V = S^{-1}
    state, recs = ld.run(S, rank=2, iters=300)
    assert recs[-1].f - fstar < 1e-2
    assert recs[-1].f >= fstar - 1e-10


@pytest.mark.xfail(raises=AssertionError, reason=(
    "rank-1's power-iteration proposal falls into a 2-cycle of nearly "
    "orthogonal directions with step sizes near 0, and f stalls far above "
    "the optimum"))
def test_rank1_reaches_the_closed_form_optimum():
    # after 200 steps f is 67.917 against f* = 27.348 (1.48 relative); at
    # 200x20 (seeds 1-4, 500 steps) f - f* stays 3.97-4.50 times f*, while
    # rank-1 steps along the top eigenvector of S - V^-1 reach f* in 20
    from subsearch.data import gen_logistic

    X = gen_logistic(60, 8, 1).X.dense()
    S = X.T @ X / 60 + np.eye(8)
    fstar = 8 + ld.chol_logdet(S)       # at V = S^-1
    _, recs = ld.run(S, 1, 200)
    assert abs(recs[-1].f - fstar) <= 1e-6 * abs(fstar)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_rank2_on_nearly_collinear_proposals_stays_exact(monkeypatch, seed):
    """On these covariances the proposal v = S u - V^{-1}u becomes nearly
    collinear with u in the V^{-1} inner product; a joint step over u and v
    used to drift off Tr(SV) - log|V| or leave the PD cone by step 49."""
    from subsearch import harness

    run, states = ld.run, []

    def run_and_keep(*args, **kwargs):
        state, recs = run(*args, **kwargs)
        states.append(state)
        return state, recs

    monkeypatch.setattr(ld, "run", run_and_keep)
    cfg = harness.ExperimentConfig(model="logdet", method="rank2", iters=50,
                                   kind="logistic", n=200, d=20, seed=seed)
    trace = harness.run_experiment(cfg)
    V, S = states[-1].V, states[-1].S
    true = (float(np.sum(S * V))
            - 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(V))))))
    assert abs(trace.records[-1].f - true) <= 1e-10 * abs(true)


def test_tracked_logdet_drift():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((10, 30))
    S = (A @ A.T) / 30
    state, _ = ld.run(S, rank=2, iters=100)
    assert ld.audit_logdet(state) <= 1e-8 * max(1.0, abs(state.logdet_V))


def test_drift_audit_sees_a_whole_refactor_cadence():
    # the audit after step 50 must read the drift tracked since step 1: an
    # error injected into the tracked log|V| after step 30 stops the run
    rng = np.random.default_rng(6)
    A = rng.standard_normal((10, 30))
    S = (A @ A.T) / 30

    def inject(k, state, rec):
        if k == 29:
            state.logdet_V += 1e-6

    with pytest.raises(RuntimeError,
                       match=r"logdet drift .* at iteration 50"):
        ld.run(S, 2, 60, callback=inject)


def test_nonpositive_factor_candidates_are_rejected():
    # forcing a direction straight at the smallest eigenvalue must still
    # leave the iterate positive definite
    S = np.diag([5.0, 0.1])
    state = ld.init_state(S)
    for _ in range(20):
        ld.step_rank_so(state, rank=1, directions=[np.array([0.0, 1.0])])
        np.linalg.cholesky(state.V)


def test_rank2_leaves_out_a_dependent_second_direction():
    # v = 2u is V^{-1}-collinear with u: the step is the rank-1 step along
    # u, still spends two solves, and records alpha2 = 0
    rng = np.random.default_rng(7)
    S, u = random_spd(rng, 5) / 5, rng.standard_normal(5)
    one, two = ld.init_state(S), ld.init_state(S)
    r1 = ld.step_rank_so(one, rank=1, directions=[u])
    r2 = ld.step_rank_so(two, rank=2, directions=[u, 2.0 * u])
    assert r2.alpha2 == 0.0 and r2.alpha1 == r1.alpha1
    assert two.solver.read() == 2
    np.testing.assert_array_equal(two.V, one.V)
    assert r2.f == r1.f


def test_init_validation():
    with pytest.raises(ValueError):
        ld.init_state(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ld.NotPositiveDefiniteError):
        ld.init_state(np.eye(2), V0=-np.eye(2))
