"""Property tests on random problems, under the suite's deterministic
hypothesis profile (tests/conftest.py).

- LCP methods run past the rounding floor: hypothesis draws the problem
  (size, generator seed, lambda, dense or CSR payload), and each example
  runs long enough for f to stall at rounding level on most draws, which is
  where the inner searches used to run to their caps and commit
  rounding-sized steps.
- The monotone net2 methods spend exactly two products per step and their
  recorded f never rises, on random sizes, seeds, lambda and generators.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from subsearch.counted import CountedMatrix
from subsearch import network
from subsearch.data import Dataset, gen_logistic, gen_quadratic
from subsearch.linesearch import rounding_floor
from subsearch.objectives import LcpObjective
from subsearch.optimizers import audit_margin, init_state, run

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
    assert audit_margin(state, obj) <= 1e-8
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


NET_ITERS = 30


@given(method=st.sampled_from(network.NET_MONOTONE_METHODS),
       n=st.integers(5, 60), d=st.integers(1, 10), hidden=st.integers(1, 5),
       seed=st.integers(0, 10 ** 6), lam=st.booleans(),
       quadratic=st.booleans())
def test_net2_monotone_methods_spend_two_products_and_never_rise(
        method, n, d, hidden, seed, lam, quadratic):
    """Drift is not asserted: runs this short end before the first audit,
    and tiny problems with one hidden unit can drift past it; the xfail
    test_tracked_activations_stay_within_the_audit_on_one_hidden_unit in
    test_network.py pins one such case."""
    ds = (gen_quadratic if quadratic else gen_logistic)(n, d, seed)
    obj = network.NetObjective(ds, hidden, 1.0 / n if lam else 0.0)
    f_prev = network.init_state(obj, seed=seed).f
    _, recs = network.run(method, obj, NET_ITERS, seed=seed)
    assert all(r.products == 2 for r in recs)
    for r in recs:
        assert r.f <= f_prev
        f_prev = r.f
