"""Property tests on random problems, under the suite's deterministic
hypothesis profile (tests/conftest.py).

- LCP methods run past the rounding floor: hypothesis draws the problem
  (size, generator seed, lambda, dense or CSR payload), and each example
  runs long enough for f to stall at rounding level on most draws, which is
  where the inner searches used to run to their caps and commit
  rounding-sized steps.
- The monotone methods spend exactly two products per step and their
  recorded f never rises, on logistic, lsq and net2, on random sizes,
  seeds, lambda and generators.
- logdet steps spend exactly `rank` solves, and their recorded f is the
  value of the iterate and never rises past rounding, on random
  covariances.
- Every matfact scheme spends exactly its counted budget per step, its
  recorded f never rises, and its tracked product stays within the audit,
  on random sizes, ranks, seeds and generators.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from subsearch.counted import CountedMatrix
from subsearch import logdet, matfact, network
from subsearch.data import Dataset, gen_logistic, gen_quadratic
from subsearch.linesearch import rounding_floor
from subsearch.objectives import LcpObjective
from subsearch.optimizers import (MONOTONE_METHODS, audit_margin,
                                  init_state, run)

ITERS = 150
# Wolfe evaluations or subsolver iterations per step once f has stalled
STALLED_INNER = 10


def _problem(n, d, seed, lam, sparse):
    ds = gen_logistic(n, d, seed)
    if sparse:
        X = ds.X.payload.copy()
        X[np.abs(X) < 1.0] = 0.0
        ds = Dataset(CountedMatrix(sp.csr_matrix(X)), ds.y, ds.label_kind)
    return LcpObjective("logistic", ds, 1.0 / n if lam else 0.0)


@given(method=st.sampled_from(("qn(ls)", "gd+m(ls)", "gd+m(so)")),
       n=st.integers(5, 80), d=st.integers(1, 15),
       seed=st.integers(0, 10 ** 6), lam=st.booleans(),
       sparse=st.booleans())
def test_searches_past_the_rounding_floor(method, n, d, seed, lam, sparse):
    obj = _problem(n, d, seed, lam, sparse)
    f0 = init_state(obj).f
    state, recs = run(method, obj, ITERS)       # audits drift every 100
    assert audit_margin(state) <= 1e-8
    assert all(r.products == 2 for r in recs)
    fs = [f0] + [r.f for r in recs]
    if method == "gd+m(so)":
        for a, b in zip(fs, fs[1:]):
            assert b <= a + 1e-12 * max(1.0, abs(a))
    # the stalled tail: steps after the last one that moved f past rounding
    moved = [k for k in range(1, len(fs))
             if abs(fs[k] - fs[k - 1]) > rounding_floor(fs[k - 1])]
    tail = recs[moved[-1] if moved else 0:]
    assert all(r.inner_iters <= STALLED_INNER for r in tail)


MONOTONE_ITERS = 30
MONOTONE_CASES = tuple(
    [(model, method) for model in ("logistic", "lsq")
     for method in MONOTONE_METHODS]
    + [("net2", method) for method in network.NET_MONOTONE_METHODS])


@given(case=st.sampled_from(MONOTONE_CASES),
       n=st.integers(5, 60), d=st.integers(1, 10), hidden=st.integers(1, 5),
       seed=st.integers(0, 10 ** 6), lam=st.booleans(),
       quadratic=st.booleans())
def test_monotone_methods_spend_two_products_and_never_rise(
        case, n, d, hidden, seed, lam, quadratic):
    """lsq runs on the quadratic generator and logistic on the logistic one;
    net2 draws its generator.  Drift is not asserted: runs this short end
    before the first audit, and tiny problems with one hidden unit can
    drift past it; the xfail
    test_tracked_activations_stay_within_the_audit_on_one_hidden_unit in
    test_network.py pins one such case."""
    model, method = case
    lam = 1.0 / n if lam else 0.0
    if model == "net2":
        ds = (gen_quadratic if quadratic else gen_logistic)(n, d, seed)
        obj = network.NetObjective(ds, hidden, lam)
        f_prev = network.init_state(obj, seed=seed).f
        _, recs = network.run(method, obj, MONOTONE_ITERS, seed=seed)
    else:
        obj = (LcpObjective("logistic", gen_logistic(n, d, seed), lam)
               if model == "logistic" else
               LcpObjective("least_squares", gen_quadratic(n, d, seed), lam))
        f_prev = init_state(obj).f
        _, recs = run(method, obj, MONOTONE_ITERS)
    assert all(r.products == 2 for r in recs)
    for r in recs:
        assert r.f <= f_prev
        f_prev = r.f


LOGDET_ITERS = 60


@given(rank=st.sampled_from((1, 2)), n=st.integers(5, 200),
       d=st.integers(1, 20), seed=st.integers(0, 10 ** 6),
       quadratic=st.booleans())
def test_logdet_steps_spend_rank_solves_and_record_the_true_value(
        rank, n, d, seed, quadratic):
    """The recorded f is checked against Tr(SV) - log|V| from a fresh
    Cholesky factorization after every step.  f may rise by rounding: the
    refactor every 50 steps replaces the tracked log-determinant with the
    fresh one, which can differ in the last place."""
    X = (gen_quadratic if quadratic else gen_logistic)(n, d, seed).X.dense()
    S = X.T @ X / n + np.eye(d)
    f_prev = logdet.f_gauss(logdet.init_state(S))

    def check(k, state, rec):
        nonlocal f_prev
        L = np.linalg.cholesky(state.V)
        true = (float(np.sum(S * state.V))
                - 2.0 * float(np.sum(np.log(np.diag(L)))))
        assert abs(rec.f - true) <= 1e-12 * abs(true), k
        assert rec.f <= f_prev + rounding_floor(f_prev), k
        f_prev = rec.f

    _, recs = logdet.run(S, rank, LOGDET_ITERS, callback=check)
    assert all(r.products == rank for r in recs)


MF_ITERS = 30


@given(scheme=st.sampled_from(tuple(matfact.MF_SCHEMES)),
       n=st.integers(1, 30), d=st.integers(1, 12), rank=st.integers(1, 4),
       seed=st.integers(0, 10 ** 6), quadratic=st.booleans())
def test_matfact_schemes_spend_their_budget_and_never_rise(
        scheme, n, d, rank, seed, quadratic):
    """The exact momentum schemes spend one more product on each refresh
    step, where they re-form U W^T.  f may rise by rounding, within 1e-12
    of max(1, |f|): the recorded f is the restriction's Gram-form value,
    not the committed point's own (a 1 x 1 altmin run records 0.0, then
    2.5e-32)."""
    X = (gen_quadratic if quadratic else gen_logistic)(n, d, seed).X.dense()
    rank = min(rank, n, d)
    f_prev = matfact.init_state(X, rank, seed).f
    state, recs = matfact.run(scheme, X, rank, MF_ITERS, seed=seed)
    refreshes = scheme in ("momentum-u", "momentum-both")
    for k, r in enumerate(recs, start=1):
        extra = refreshes and k % state.refresh_every == 0
        assert r.products == matfact.MF_BUDGETS[scheme] + extra, k
        assert r.f <= f_prev + 1e-12 * max(1.0, abs(f_prev)), k
        f_prev = r.f
    assert matfact.audit_product(state) <= 1e-8
