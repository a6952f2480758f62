"""Full-batch optimizers on linear-composition objectives."""

import numpy as np
import pytest

from subsearch.data import gen_logistic, gen_quadratic
from subsearch.linesearch import fista_momentum
from subsearch.objectives import LcpObjective
from subsearch.optimizers import (LCP_METHODS, LO_SO_METHODS,
                                  MONOTONE_METHODS, audit_margin,
                                  init_state, pr_plus, run)


@pytest.fixture(scope="module")
def logistic_obj():
    return LcpObjective("logistic", gen_logistic(60, 8, seed=2))


def test_lo_so_methods_cost_two_products(logistic_obj):
    for method in LO_SO_METHODS:
        _, recs = run(method, logistic_obj, 15)
        assert all(r.products == 2 for r in recs), method


def test_monotone_methods_never_increase(logistic_obj):
    for method in MONOTONE_METHODS:
        state = init_state(logistic_obj)
        f_prev = state.f
        _, recs = run(method, logistic_obj, 30)
        for r in recs:
            assert r.f <= f_prev + 1e-12 * max(1.0, abs(f_prev)), method
            f_prev = r.f


def test_margin_drift_stays_small(logistic_obj):
    state, _ = run("gd+m(so)", logistic_obj, 200)
    assert audit_margin(state, logistic_obj) <= 1e-10


def test_unknown_method_raises(logistic_obj):
    with pytest.raises(KeyError):
        run("gd(magic)", logistic_obj, 1)


def test_registry_has_no_orphans():
    for name in LO_SO_METHODS + MONOTONE_METHODS:
        assert name in LCP_METHODS


def test_method_sets_derive_from_rule_tables():
    from subsearch import network

    assert set(LO_SO_METHODS) == {
        "gd(lo)", "gd(ls)", "gd+m(ls)", "gd+m(lo)", "gd+m(so)", "nag(so)",
        "snag(so)", "qn(ls)", "qn(lo)", "qn+m(so)", "adam(ls)", "adam(lo)",
        "adam2(so)"}
    assert set(MONOTONE_METHODS) == {
        "gd(lo)", "gd+m(lo)", "gd+m(so)", "nag(so)", "snag(so)", "qn(lo)",
        "qn+m(so)", "adam(lo)", "adam2(so)"}
    assert set(network.NET_LO_SO_METHODS) == {
        "gd(ls)", "gd(lo)", "gd+m(ls)", "gd+m(lo)", "gd+m(so)", "gd(sb)",
        "gd+m(sb)", "gd+m(so+sb)"}
    assert set(network.NET_MONOTONE_METHODS) == {
        "gd(lo)", "gd+m(lo)", "gd+m(so)", "gd(sb)", "gd+m(sb)",
        "gd+m(so+sb)"}
    for table in (LCP_METHODS, network.NET_METHODS):
        for name, (step, rule) in table.items():
            assert callable(step), name
            assert rule in ("1/l", "fixed", "ls", "lo", "so"), name


def test_nag_fixedL_matches_reference_fista():
    obj = LcpObjective("least_squares", gen_quadratic(20, 5, seed=6))
    X, y = obj.X.dense(), obj.y

    def f(w):
        return 0.5 * float(np.sum((X @ w - y) ** 2))

    def g(w):
        return X.T @ (X @ w - y)

    # scripted FISTA with the same doubling rule and persistent L
    w = np.zeros(5)
    w_prev = None
    t = 1.0
    L = 1.0
    fs = []
    for _ in range(20):
        t_next, mix = fista_momentum(t)
        yv = w if w_prev is None else w + mix * (w - w_prev)
        t = t_next
        gy = g(yv)
        gsq = float(gy @ gy)
        fy = f(yv)
        while True:
            w_t = yv - gy / L
            if f(w_t) <= fy - gsq / (2 * L):
                break
            L *= 2.0
        w_prev, w = w, w_t
        fs.append(f(w))

    _, recs = run("nag(1/l)", obj, 20)
    for r, f_ref in zip(recs, fs):
        assert abs(r.f - f_ref) <= 1e-10 * max(1.0, abs(f_ref))


def test_adam_default_matches_scripted_recurrence():
    obj = LcpObjective("logistic", gen_logistic(25, 5, seed=9))
    X, y = obj.X.dense(), obj.y

    def grad(w):
        m = X @ w
        s = 1.0 / (1.0 + np.exp(y * m))
        return X.T @ (-y * s)

    w = np.zeros(5)
    mu = np.zeros(5)
    v = np.zeros(5)
    fs = []
    for _ in range(20):
        g = grad(w)
        mu = 0.99 * mu + 0.01 * g
        v = 0.999 * v + 0.001 * g * g
        w = w - 1e-3 * mu / (np.sqrt(v) + 1e-8)
        fs.append(float(np.sum(np.log1p(np.exp(-y * (X @ w))))))

    _, recs = run("adam", obj, 20)
    for r, f_ref in zip(recs, fs):
        assert abs(r.f - f_ref) <= 1e-10 * max(1.0, abs(f_ref))


def test_pr_plus_formulas():
    rng = np.random.default_rng(0)
    g, gp = rng.standard_normal(4), rng.standard_normal(4)
    w, wp = rng.standard_normal(4), rng.standard_normal(4)
    yv = g - gp
    num = float(g @ yv)
    assert pr_plus(g, gp, w, wp, "hs") == max(
        0.0, num / float((w - wp) @ yv)) if float((w - wp) @ yv) > 0 else True
    assert pr_plus(g, gp, w, wp, "prp_prev") == max(0.0, num / float(gp @ gp))
    assert pr_plus(g, g, w, wp, "prp_cur") == 0.0
    with pytest.raises(ValueError):
        pr_plus(g, gp, w, wp, "fletcher")


def test_gd_lo_never_worse_than_backtracked_single_step(logistic_obj):
    # one step from the origin: LO along -grad dominates any 1/L step
    _, recs_lo = run("gd(lo)", logistic_obj, 1)
    _, recs_bt = run("gd(1/l)", logistic_obj, 1)
    assert recs_lo[0].f <= recs_bt[0].f + 1e-12


def test_so_dominates_lo_single_step(logistic_obj):
    _, recs_so = run("gd+m(so)", logistic_obj, 2)
    _, recs_lo = run("gd(lo)", logistic_obj, 2)
    assert recs_so[1].f <= recs_lo[1].f + 1e-12


def test_cg_equivalence_on_one_quadratic():
    # GD+M(SO) with exact subspace solves reproduces linear CG iterates
    rng = np.random.default_rng(4)
    d = 12
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    X = Q @ np.diag(np.logspace(0, 1.5, d)) @ Q.T
    y = rng.standard_normal(d)
    from subsearch.counted import CountedMatrix
    from subsearch.data import Dataset
    ds = Dataset(CountedMatrix(X), y, "real")
    obj = LcpObjective("least_squares", ds)

    A = X.T @ X
    b = X.T @ y
    w = np.zeros(d)
    r = b - A @ w
    p = r.copy()
    cg_ws = []
    for _ in range(8):
        Ap = A @ p
        alpha = float(r @ r) / float(p @ Ap)
        w = w + alpha * p
        r_new = r - alpha * Ap
        beta = float(r_new @ r_new) / float(r @ r)
        p = r_new + beta * p
        r = r_new
        cg_ws.append(w.copy())

    ws = []
    run("gd+m(so)", obj, 8,
        callback=lambda k, st, rec: ws.append(st.w.copy()))
    for wa, wb in zip(ws, cg_ws):
        rel = np.linalg.norm(wa - wb) / max(1.0, np.linalg.norm(wb))
        assert rel < 1e-6


def test_records_expose_step_sizes(logistic_obj):
    _, recs = run("gd+m(so)", logistic_obj, 5)
    assert recs[0].alpha1 is not None
    assert recs[1].beta1 is not None          # momentum active from step 2
    _, recs = run("snag(so)", logistic_obj, 5)
    assert recs[-1].alpha1 is not None


def test_drive_meters_audits_wraps_and_calls_back():
    from subsearch.optimizers import StepRecord, drive

    spent = [0]

    def step(state):
        spent[0] += state["k"] + 1           # a different cost each step
        state["k"] += 1
        return StepRecord("fake", float(state["k"]))

    seen = []
    state, recs = drive("fake", step, {"k": 0}, 4, lambda: spent[0],
                        lambda st: ("fake", 0.0, 1e-8), 2,
                        callback=lambda k, st, rec: seen.append((k, st, rec)))
    assert [r.products for r in recs] == [1, 2, 3, 4]
    assert [(k, rec) for k, _, rec in seen] == list(enumerate(recs))
    assert all(st is state for _, st, _ in seen)

    with pytest.raises(RuntimeError, match="fake drift 1.000e-07 at "
                                           "iteration 3"):
        drive("fake", step, {"k": 0}, 5, lambda: spent[0],
              lambda st: ("fake", 1e-7 if st["k"] == 3 else 0.0, 1e-8), 1)

    def broken(state):
        if state["k"] == 2:
            raise ValueError("boom")
        return step(state)

    with pytest.raises(RuntimeError, match="fake failed at iteration 2: "
                                           "boom"):
        drive("fake", broken, {"k": 0}, 5, lambda: spent[0], None, 0)


def test_unknown_method_or_scheme_raises_before_any_product(logistic_obj):
    from subsearch import matfact, network

    before = logistic_obj.X.counter_read()
    with pytest.raises(KeyError):
        run("gd(magic)", logistic_obj, 3)
    nobj = network.NetObjective(gen_quadratic(20, 4, seed=1), hidden=2)
    with pytest.raises(KeyError):
        network.run("gd(magic)", nobj, 3)
    with pytest.raises(KeyError):
        matfact.run("magic", np.ones((6, 4)), 2, 3)
    assert logistic_obj.X.counter_read() == before
    assert nobj.X.counter_read() == 0


def test_run_functions_record_step_wall_time(logistic_obj):
    import time

    from subsearch import logdet, matfact, network

    nobj = network.NetObjective(gen_quadratic(30, 5, seed=2), hidden=3)
    X = gen_quadratic(12, 6, seed=2).X.dense()
    calls = [lambda: run("gd+m(so)", logistic_obj, 5),
             lambda: network.run("gd(ls)", nobj, 5),
             lambda: matfact.run("simul", X, 2, 5),
             lambda: logdet.run(X.T @ X / 12 + np.eye(6), 1, 5)]
    for call in calls:
        t0 = time.perf_counter()
        _, recs = call()
        wall = time.perf_counter() - t0
        assert len(recs) == 5
        assert all(r.elapsed_s > 0 for r in recs)
        assert sum(r.elapsed_s for r in recs) <= wall
