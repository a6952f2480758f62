"""Property tests on random problems, under the suite's deterministic
hypothesis profile (tests/conftest.py).

- A run stops only where the rest would repeat: every LCP and network
  method, on random dense and CSR problems, keeps a prefix of the records
  of its own step function looped for the full length, every record it
  drops repeats its last one bitwise, and it ends in the same state.
- A network step reads the evaluation its state kept (the last point its
  line or restriction evaluated) as a fresh one: every method's records
  and states are bitwise those of the same steps taken on a deep copy of
  the state with that evaluation dropped.
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
  recorded f is the committed point's value and never rises, and its
  tracked product stays within the audit after every step, on random
  sizes, ranks, seeds and generators.
"""

import copy
import dataclasses
import math
import re
import struct
from collections import deque
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st

from subsearch.counted import CountedMatrix
from subsearch import logdet, matfact, network
from subsearch.data import Dataset, gen_logistic, gen_quadratic
from subsearch.linesearch import rounding_floor
from subsearch.objectives import LcpObjective
from subsearch.optimizers import (MONOTONE_METHODS, TRACKED_METHODS,
                                  audit_margin, init_state, relative_drift,
                                  run)

ITERS = 150
# Wolfe evaluations or subsolver iterations per step once f has stalled
STALLED_INNER = 10


def _problem(n, d, seed, lam, sparse, model="logistic"):
    """A logistic problem, or an lsq one on the quadratic generator; the
    sparse payload keeps the entries of magnitude 1 or more, as CSR."""
    ds = (gen_logistic if model == "logistic" else gen_quadratic)(n, d, seed)
    if sparse:
        X = ds.X.payload.copy()
        X[np.abs(X) < 1.0] = 0.0
        ds = Dataset(CountedMatrix(sp.csr_matrix(X)), ds.y, ds.label_kind)
    loss = "logistic" if model == "logistic" else "least_squares"
    return LcpObjective(loss, ds, 1.0 / n if lam else 0.0)


def _bits(x):
    """`x` with every array and float as its bytes, so == compares bits."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list, deque)):
        return tuple(map(_bits, x))
    if isinstance(x, float):
        return struct.pack("<d", x)
    return x


def _record_bits(rec):
    return _bits([getattr(rec, f.name) for f in dataclasses.fields(rec)
                  if f.name != "elapsed_s"])


def _state_bits(state):
    return _bits([getattr(state, f.name) for f in dataclasses.fields(state)
                  if f.name != "obj"])


FIXED_POINT_ITERS = 30
FIXED_POINT_CASES = tuple(
    [(model, method) for model in ("logistic", "lsq")
     for method in TRACKED_METHODS]
    + [("net2", method) for method in network.NET_METHODS])


def _every_case(test):
    """One explicit example per case, so every method runs whatever
    hypothesis draws; on these inputs lsq gd+m(so), nag(so), qn(lo) and
    logistic qn(ls) among others reach their fixed points."""
    for case in FIXED_POINT_CASES:
        test = example(case=case, n=20, d=4, hidden=2, seed=3, lam=True,
                       sparse=False, quadratic=False)(test)
    return test


@given(case=st.sampled_from(FIXED_POINT_CASES),
       n=st.integers(5, 40), d=st.integers(1, 8), hidden=st.integers(1, 3),
       seed=st.integers(0, 10 ** 6), lam=st.booleans(),
       sparse=st.booleans(), quadratic=st.booleans())
@_every_case
# the 1/L search reaches the rounding floor at step 14, and run stops at
# its fixed point one step later while the loop repeats that zero step
@example(case=("lsq", "gd(1/l)"), n=5, d=1, hidden=1, seed=1, lam=False,
         sparse=False, quadratic=False)
def test_a_run_stops_only_where_every_later_step_repeats_its_last(
        case, n, d, hidden, seed, lam, sparse, quadratic):
    """`run` against the plain loop of the same step function for the full
    length.  lsq runs on the quadratic generator and logistic on the
    logistic one, either on a dense or a CSR payload; net2 draws its
    generator and keeps a dense payload.  FISTA's t moves on every step,
    and so do Adam's moments once a gradient is nonzero, so those runs
    never stop (a CSR payload can be all zeros, and then Adam stops at
    once).  A step that raises in the loop must fail the run at the same
    iteration: the stop skips no failure."""
    model, method = case
    if model == "net2":
        ds = (gen_quadratic if quadratic else gen_logistic)(n, d, seed)
        obj = network.NetObjective(ds, hidden, 1.0 / n if lam else 0.0)
        loop_state = network.init_state(obj, seed=seed)
        step, rule = network.NET_METHODS[method]
        run_it = partial(network.run, method, obj, FIXED_POINT_ITERS,
                         seed=seed)
    else:
        obj = _problem(n, d, seed, lam, sparse, model)
        loop_state = init_state(obj)
        step, rule = TRACKED_METHODS[method]
        run_it = partial(run, method, obj, FIXED_POINT_ITERS)
    full = []
    for k in range(FIXED_POINT_ITERS):
        before = obj.X.counter_read()
        try:
            rec = step(loop_state, rule)
        except Exception as exc:                # noqa: BLE001
            with pytest.raises(RuntimeError, match=re.escape(
                    f"{method} failed at iteration {k}: {exc}")):
                run_it()
            return
        rec.products = obj.X.counter_read() - before
        full.append(rec)

    state, recs = run_it()
    kept = len(recs)
    moving = method == "nag(1/l)" or (method.startswith("adam")
                                      and any(r.gnorm for r in full))
    if moving:
        assert kept == FIXED_POINT_ITERS
    assert 1 <= kept <= FIXED_POINT_ITERS
    assert list(map(_record_bits, recs)) == list(map(_record_bits,
                                                     full[:kept]))
    last = _record_bits(recs[-1])
    assert all(_record_bits(r) == last for r in full[kept:])
    assert _state_bits(state) == _state_bits(loop_state)


KEPT_POINT_STEPS = 8


def _every_net_method(test):
    """One explicit example per network method."""
    for method in network.NET_METHODS:
        test = example(method=method, n=20, d=4, hidden=2, seed=3, lam=True,
                       quadratic=False)(test)
    return test


@given(method=st.sampled_from(tuple(network.NET_METHODS)),
       n=st.integers(5, 40), d=st.integers(1, 8), hidden=st.integers(1, 4),
       seed=st.integers(0, 10 ** 6), lam=st.booleans(),
       quadratic=st.booleans())
@_every_net_method
def test_a_net_step_reads_its_kept_point_as_a_fresh_evaluation(
        method, n, d, hidden, seed, lam, quadratic):
    ds = (gen_quadratic if quadratic else gen_logistic)(n, d, seed)
    obj = network.NetObjective(ds, hidden, 1.0 / n if lam else 0.0)
    state = network.init_state(obj, seed=seed)
    step, rule = network.NET_METHODS[method]
    for _ in range(KEPT_POINT_STEPS):
        twin = copy.deepcopy(state)
        twin.kept = None
        outcomes = []
        for st_ in (state, twin):
            try:
                outcomes.append(_record_bits(step(st_, rule)))
            except Exception as exc:            # noqa: BLE001
                outcomes.append(f"{type(exc).__name__}: {exc}")
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0], str):
            return
        assert _state_bits(state) == _state_bits(twin)


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
    before the first audit, and SO steps with extreme coefficients on tiny
    problems with one hidden unit can drift past it; the xfail
    test_extreme_so_steps_keep_the_activations_within_the_audit in
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


STEP_ITERS = 40
MOMENTUM = ("gd+m(lo)", "gd+m(so)", "nag(so)", "snag(so)", "qn+m(so)",
            "adam2(so)")
STEP_CASES = tuple(
    [(model, method) for model in ("logistic", "lsq", "net2")
     for method in MOMENTUM]
    + [("net2", "gd+m(sb)"), ("net2", "gd+m(so+sb)")])


def _every_step_case(test):
    """One explicit example per case, so every method runs whatever
    hypothesis draws."""
    for case in STEP_CASES:
        test = example(case=case, extra=30, d=6, hidden=2, seed=5, lam=False,
                       quadratic=True)(test)
    return test


@given(case=st.sampled_from(STEP_CASES), extra=st.integers(1, 50),
       d=st.integers(1, 10), hidden=st.integers(1, 3),
       seed=st.integers(0, 10 ** 6), lam=st.booleans(),
       quadratic=st.booleans())
@_every_step_case
def test_momentum_steps_carry_their_own_images(case, extra, d, hidden, seed,
                                               lam, quadratic):
    """After every step of a method that carries a direction from one step
    to the next, the tracked image is within the 1e-8 audit of X times the iterate, and the
    stored step's image is X times its parameter step within 1e-12 in the
    audit's relative units, |image(s) - X s| / (1 + |image|): no step adds
    more than rounding to the drift, so the momentum image carries no
    tracking error forward.  lsq's recorded f never falls below the exact
    f* from the normal equations, which n > d keeps off rounding level.
    lsq runs on the quadratic generator and logistic on the logistic one;
    net2 draws its generator.  The bounds do not hold past SO steps with
    extreme coefficients on tiny networks (the subsolver at its cap, or a
    momentum coefficient past 1e4); the xfail
    test_extreme_so_steps_keep_the_activations_within_the_audit in
    test_network.py pins one such input."""
    model, method = case
    n = d + extra
    lam = 1.0 / n if lam else 0.0
    gen = (gen_quadratic if model == "lsq" or (model == "net2" and quadratic)
           else gen_logistic)
    ds = gen(n, d, seed)
    X = ds.X.payload

    def check(k, state, rec):
        *params, image = state.blocks
        assert relative_drift(image, X @ params[0]) <= 1e-8, k
        *step, step_image = state.step
        error = np.linalg.norm(step_image - X @ step[0])
        assert error <= 1e-12 * (1.0 + np.linalg.norm(image)), k

    if model == "net2":
        obj = network.NetObjective(ds, hidden, lam)
        network.run(method, obj, STEP_ITERS, seed=seed, callback=check)
        return
    obj = LcpObjective("logistic" if model == "logistic" else "least_squares",
                       ds, lam)
    _, recs = run(method, obj, STEP_ITERS, callback=check)
    if model == "lsq":
        A = np.vstack([X, math.sqrt(lam) * np.eye(d)])
        w = np.linalg.lstsq(A, np.concatenate([ds.y, np.zeros(d)]),
                            rcond=None)[0]
        fstar = obj.f_value_margin(w, X @ w)
        assert min(r.f for r in recs) >= fstar - 1e-12 * abs(fstar)


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


def _check_matfact_run(scheme, X, rank, seed):
    """Run `scheme` for MF_ITERS steps and check every step: its budget, a
    drift within 1e-8, a record equal to its tracked M's own value, f(U W^T)
    within 1e-12 max(1, |f|) of that record, and no rise."""
    f_prev = matfact.init_state(X, rank, seed).f

    def check(k, state, rec):
        UW = state.U @ state.W.T
        assert relative_drift(state.M, UW) <= 1e-8, k
        assert rec.f == matfact.pca_value(state.M, X), k
        f_true = matfact.pca_value(UW, X)
        assert abs(rec.f - f_true) <= 1e-12 * max(1.0, abs(rec.f)), k

    state, recs = matfact.run(scheme, X, rank, MF_ITERS, seed=seed,
                              callback=check)
    refreshes = scheme in ("momentum-u", "momentum-both")
    for k, r in enumerate(recs, start=1):
        extra = refreshes and k % state.refresh_every == 0
        assert r.products == matfact.MF_BUDGETS[scheme] + extra, k
        assert r.f <= f_prev, k
        f_prev = r.f
    assert matfact.audit_product(state) <= 1e-8


@given(scheme=st.sampled_from(tuple(matfact.MF_SCHEMES)),
       n=st.integers(1, 30), d=st.integers(1, 12), rank=st.integers(1, 4),
       seed=st.integers(0, 10 ** 6), quadratic=st.booleans())
def test_matfact_schemes_spend_their_budget_and_never_rise(
        scheme, n, d, rank, seed, quadratic):
    """The exact momentum schemes spend one more product on each refresh
    step, where they restart momentum and form U W^T.  Every step is
    checked: the tracked M stays within 1e-8 of U W^T (read directly, since
    the 50-step audit lands on a refresh step, where M was just formed), the
    recorded f is the committed tracked M's own value, bitwise, and f(U W^T)
    is within 1e-12 max(1, |f|) of it.  f never rises: where rounding puts
    the committed point above the iterate's f, the step commits the zero
    step."""
    X = (gen_quadratic if quadratic else gen_logistic)(n, d, seed).X.dense()
    _check_matfact_run(scheme, X, min(rank, n, d), seed)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "matfact's tracked M drifts after an extreme SO step: simul's first "
    "step on this 1 x 12 rank-1 problem stops at the subsolver's cap with "
    "alpha2 = -4927, |W| grows to 5e4, M ends 1.4e-11 from a fresh U W^T, "
    "and the record, f at the tracked M, is 1.8e-12 relative off f(U W^T)"))
def test_matfact_record_after_an_extreme_step_is_the_iterates_value():
    _check_matfact_run("simul", gen_logistic(1, 12, 20699).X.dense(), 1,
                       20699)
