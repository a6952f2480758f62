"""Full-batch optimizers on linear-composition objectives."""

import numpy as np
import pytest

from subsearch.data import Dataset, gen_logistic, gen_quadratic
from subsearch.linesearch import fista_momentum
from subsearch.objectives import LcpObjective
from subsearch.optimizers import (LO_SO_METHODS, MONOTONE_METHODS,
                                  TRACKED_METHODS, audit_margin, grad_dir,
                                  init_state, pr_plus, run, so_step,
                                  step_adam, step_gd, step_qn)
from subsearch.subsolver import SubSolveResult


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


@pytest.mark.parametrize("n,d,seed,lam,iters,methods", [
    (200, 20, 1, 0.0, 60, MONOTONE_METHODS),
    (200, 20, 1, 1 / 200, 60, MONOTONE_METHODS),
    (2000, 200, 4, 1 / 2000, 200, ("snag(so)",))])
def test_monotone_methods_record_no_rise_at_all(n, d, seed, lam, iters,
                                                methods):
    # no slack: the recorded f is the committed point's own value, where the
    # restriction's value at theta could lie a few ulps above the last one
    obj = LcpObjective("least_squares", gen_quadratic(n, d, seed), lam)
    for method in methods:
        f_prev = init_state(obj).f
        _, recs = run(method, obj, iters)
        for k, r in enumerate(recs, 1):
            assert r.f <= f_prev, f"{method} iteration {k}: {r.f!r} rose"
            f_prev = r.f


def test_so_step_commits_the_zero_step_rather_than_a_rise(logistic_obj):
    state = init_state(logistic_obj)
    w0, m0, f0 = state.w, state.m, state.f
    grad = state.gradient()
    q = state.image(grad)
    # a solve that reports a gain for a step up the gradient
    state.subspace_solve = lambda dirs, warm: SubSolveResult(
        np.array([-1.0]), f0 - 1.0, 3, "converged")
    rec = so_step(state, [grad_dir(grad, q)], ["alpha1"], grad, q)
    assert (rec.f, rec.alpha1, rec.flag) == (f0, 0.0, "rounding_floor")
    assert rec.inner_iters == 3 and state.f == f0
    assert np.array_equal(state.w, w0) and np.array_equal(state.m, m0)


@pytest.mark.parametrize("method", ["gd(1/l)", "nag(1/l)"])
@pytest.mark.parametrize("model", ["logistic", "lsq", "net2"])
def test_one_over_l_steps_spend_two_products_plus_their_doublings(model,
                                                                  method):
    # the gradient and its image, then one image per rejected trial
    from subsearch import network

    if model == "net2":
        obj = network.NetObjective(gen_quadratic(40, 6, seed=3), hidden=4)
        _, recs = network.run(method, obj, 30, seed=0)
    elif model == "lsq":
        _, recs = run(method, LcpObjective(
            "least_squares", gen_quadratic(60, 8, seed=2), 1 / 60), 30)
    else:
        _, recs = run(method, LcpObjective(
            "logistic", gen_logistic(60, 8, seed=2), 1 / 60), 30)
    assert [r.products for r in recs] == [2 + r.inner_iters for r in recs]
    assert any(r.inner_iters for r in recs)


def test_one_over_l_stops_at_the_rounding_floor_instead_of_failing():
    # from step 14 on f is stuck and the Armijo test passes only by
    # rounding; the doubling search used to run L past its 1e30 cap at
    # step 24 and fail the run
    obj = LcpObjective("least_squares", gen_quadratic(5, 1, seed=1), 0.0)
    state, recs = run("gd(1/l)", obj, 30)
    assert len(recs) == 15              # the second zero step is a fixed point
    assert all(r.flag is None and r.alpha1 > 0 for r in recs[:13])
    assert [(r.flag, r.alpha1) for r in recs[13:]] == [
        ("rounding_floor", 0.0)] * 2
    assert recs[12].f == recs[13].f == recs[14].f == state.f
    assert [r.products for r in recs] == [2 + r.inner_iters for r in recs]
    assert audit_margin(state) <= 1e-8


def test_nag_one_over_l_stops_where_its_trials_settle_off_the_floor():
    # nag reads f0 at the tracked image of its extrapolated point and each
    # later trial at a fresh one; at step 13 the trials settle 2.2 floors
    # above f0, and the doubling search used to run L past its 1e30 cap
    obj = LcpObjective("least_squares", gen_quadratic(12, 1, seed=343216),
                       0.0)
    state, recs = run("nag(1/l)", obj, 100)
    assert len(recs) == 100
    assert recs[13].flag == "rounding_floor" and recs[13].alpha1 == 0.0
    assert [r.products for r in recs] == [2 + r.inner_iters for r in recs]
    assert audit_margin(state) <= 1e-8


def test_margin_drift_stays_small(logistic_obj):
    state, _ = run("gd+m(so)", logistic_obj, 200)
    assert audit_margin(state) <= 1e-10


def test_unknown_method_raises(logistic_obj):
    with pytest.raises(KeyError):
        run("gd(magic)", logistic_obj, 1)


def test_registry_has_no_orphans():
    for name in LO_SO_METHODS + MONOTONE_METHODS:
        assert name in TRACKED_METHODS


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
        "gd(ls)", "gd(lo)", "gd+m(ls)", "gd+m(lo)", "gd+m(so)", "nag(so)",
        "snag(so)", "qn(ls)", "qn(lo)", "qn+m(so)", "adam(ls)", "adam(lo)",
        "adam2(so)", "gd(sb)", "gd+m(sb)", "gd+m(so+sb)"}
    assert set(network.NET_MONOTONE_METHODS) == {
        "gd(lo)", "gd+m(lo)", "gd+m(so)", "nag(so)", "snag(so)", "qn(lo)",
        "qn+m(so)", "adam(lo)", "adam2(so)", "gd(sb)", "gd+m(sb)",
        "gd+m(so+sb)"}
    for table in (TRACKED_METHODS, network.NET_METHODS):
        for name, (step, rule) in table.items():
            assert callable(step), name
            assert rule in ("1/l", "fixed", "ls", "lo", "so", "sb"), name


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


def test_adam_ls_commits_the_zero_step_where_no_direction_descends():
    # all-zero labels and w = 0: the gradient is 0, so neither the Adam
    # direction nor its negation descends
    ds = gen_quadratic(30, 5, seed=1)
    obj = LcpObjective("least_squares", Dataset(ds.X, np.zeros(ds.n), "real"))
    state = init_state(obj)
    f0 = state.f
    before = obj.X.counter_read()
    rec = step_adam(state, "ls")
    assert obj.X.counter_read() - before == 2
    assert (rec.flag, rec.alpha1, rec.f) == ("no_descent", 0.0, f0)
    assert not np.any(state.w) and not np.any(state.m)
    # from the second step on the state comes back bitwise unchanged
    _, recs = run("adam(ls)", obj, 10)
    assert [r.flag for r in recs] == ["no_descent"] * 2
    assert all(r.products == 2 and r.f == f0 for r in recs)


def test_qn_searches_along_the_negated_direction_where_lbfgs_ascends(
        logistic_obj, monkeypatch):
    # an L-BFGS direction that ascends is negated; here it is the negated
    # gradient, so the step is gd(ls)'s own and still descends
    import subsearch.optimizers as opt

    monkeypatch.setattr(opt, "lbfgs_direction", lambda pairs, g: -g)
    state, ref = init_state(logistic_obj), init_state(logistic_obj)
    before = logistic_obj.X.counter_read()
    rec = step_qn(state, "ls")
    assert logistic_obj.X.counter_read() - before == 2
    assert rec.flag == "negated_direction"
    assert rec.f < ref.f
    want = step_gd(ref, "ls")
    assert (rec.f, rec.alpha1) == (want.f, want.alpha1)
    assert np.array_equal(state.w, ref.w) and np.array_equal(state.m, ref.m)


def test_pr_plus_formulas():
    rng = np.random.default_rng(0)
    g, gp = rng.standard_normal(4), rng.standard_normal(4)
    s = rng.standard_normal(4)
    yv = g - gp
    num = float(g @ yv)
    assert pr_plus(g, gp, s) == max(
        0.0, num / float(s @ yv)) if float(s @ yv) > 0 else True


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
        drive("fake", broken, {"k": 0}, 5, lambda: spent[0], None, 10)


def _zero_step(state):
    """Commit the zero step with a zero gradient: from the second step on,
    the state comes back bitwise as the step found it."""
    from subsearch.optimizers import StepRecord

    state.advance([b.copy() for b in state.blocks], state.f,
                  (np.zeros(2),), None)
    return StepRecord(state.f)


def _stub_state():
    from subsearch.optimizers import TrackedState

    return TrackedState(None, (np.ones(2), np.ones(3)), 1.0)


def test_drive_stops_after_a_step_that_leaves_the_state_unchanged():
    from subsearch.optimizers import drive

    audited, seen = [], []

    def audit(state):
        audited.append(len(seen))
        return "fake", 0.0, 1e-8

    _, recs = drive("fake", _zero_step, _stub_state(), 5, lambda: 0, audit,
                    10, callback=lambda k, st, rec: seen.append(k))
    assert len(recs) == 2 and seen == [0, 1]
    assert audited == [1]               # at the stop, before its callback

    with pytest.raises(RuntimeError, match="fake drift 1.000e-07 at "
                                           "iteration 2"):
        drive("fake", _zero_step, _stub_state(), 5, lambda: 0,
              lambda st: ("fake", 1e-7, 1e-8), 10)


def test_drive_audits_a_drift_brought_in_after_the_last_cadence():
    # 199 steps end between the every-100-step audits; the step at index
    # 150 perturbs the tracked image, so only the audit after the last step
    # sees the drift
    from subsearch.optimizers import StepRecord, drive, relative_drift

    X = np.arange(6.0).reshape(3, 2)
    state = _stub_state()
    state.blocks = (np.ones(2), X @ np.ones(2))
    k = [0]

    def step(state):
        w, m = state.blocks
        image = X @ np.ones(2) + (1e-3 if k[0] == 150 else 0.0)
        k[0] += 1
        state.advance([w + 1.0, m + image], 0.0, (np.zeros(2),), None)
        return StepRecord(0.0)

    with pytest.raises(RuntimeError, match="image drift .* at iteration 199"):
        drive("fake", step, state, 199, lambda: 0,
              lambda st: ("image", relative_drift(st.blocks[1],
                                                  X @ st.blocks[0]), 1e-8),
              100)
    assert k[0] == 199


def test_drive_runs_every_step_while_the_state_moves_or_lists_no_inputs():
    from collections import deque

    from subsearch.optimizers import StepRecord, drive

    def counting_step(state):
        # the zero step, with memory that moves in place
        rec = _zero_step(state)
        state.memory.append(state.memory[-1] + 1.0)
        return rec

    state = _stub_state()
    state.memory = deque([0.0], maxlen=2)
    _, recs = drive("fake", counting_step, state, 5, lambda: 0,
                    lambda st: ("fake", 0.0, 1e-8), 10)
    assert len(recs) == 5
    # a state without `step_inputs` is never compared
    _, recs = drive("fake", lambda st: StepRecord(1.0), {}, 5, lambda: 0,
                    lambda st: ("fake", 0.0, 1e-8), 10)
    assert len(recs) == 5


def test_matfact_and_logdet_runs_take_every_step():
    # their refresh and refactor cadences read the step counter, so they
    # run on where the rest of the state stops changing
    from subsearch import logdet, matfact

    X = gen_logistic(10, 6, seed=1).X.dense()
    unchanged, last = [], [None]

    def compare(k, state, rec):
        bits = [state.f, *(getattr(state, name).tobytes() for name in
                           ("U", "W", "M", "U_prev", "W_prev", "M_prev"))]
        unchanged.append(bits == last[0])
        last[0] = bits

    _, recs = matfact.run("momentum-both", X, 2, 30, seed=1,
                          callback=compare)
    assert len(recs) == 30 and any(unchanged)
    _, recs = logdet.run(X.T @ X / 10 + np.eye(6), 1, 60)
    assert len(recs) == 60


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


@pytest.mark.parametrize("method,n,d,seed", [
    *[(m, 200, 20, s) for m in ("gd+m(ls)", "qn(ls)") for s in (1, 2, 3)],
    ("qn(ls)", 400, 40, 3)])
def test_wolfe_methods_run_past_the_rounding_floor(method, n, d, seed):
    # f stalls near iteration 100; past it the Wolfe search must end at
    # the floor without committing rounding-sized steps, which turned the
    # next momentum or quasi-Newton direction into noise (margin drift,
    # ascent directions)
    obj = LcpObjective("logistic", gen_logistic(n, d, seed), 1.0 / n)
    state, recs = run(method, obj, 300)
    assert audit_margin(state) <= 1e-8
    assert max(r.inner_iters for r in recs) <= 20
    assert any(r.flag == "rounding_floor" for r in recs)


def test_plane_search_stops_at_the_rounding_floor(monkeypatch):
    # past iteration ~105 f is stuck and the momentum direction exactly
    # zero; every solve used to spend its whole 100-iteration cap there
    import subsearch.optimizers as opt
    orig, reasons = opt.solve, []

    def solve(*args, **kwargs):
        res = orig(*args, **kwargs)
        reasons.append(res.reason)
        return res

    monkeypatch.setattr(opt, "solve", solve)
    obj = LcpObjective("logistic", gen_logistic(1000, 100, 0), 1e-3)
    _, recs = run("gd+m(so)", obj, 200)
    assert "max_iters" not in reasons
    assert sum(r.inner_iters for r in recs) <= 1000


def test_lsq_line_momentum_margins_stay_within_the_audit():
    # subsearch run --model lsq --method "gd+m(lo)" --kind quadratic
    #   --n 1000 --d 100 --seed 1 --iters 200
    # stopped with "margin drift 1.642e-04 at iteration 200" while the
    # momentum image was a difference of tracked margins; the f recorded
    # there, 4.2836, was below f* = 4.30522524 from the normal equations
    ds = gen_quadratic(1000, 100, seed=1)
    obj = LcpObjective("least_squares", ds, 0.0)
    X = ds.X.payload
    w = np.linalg.lstsq(X, ds.y, rcond=None)[0]
    fstar = obj.f_value_margin(w, X @ w)
    _, recs = run("gd+m(lo)", obj, 200)     # audits at 100 and 200
    assert min(r.f for r in recs) >= fstar - 1e-12 * fstar


# the arrays of an iterate that a run holds across steps: the tracked
# states' blocks, last step and previous gradient, matfact's factors
# and product with their previous values, and logdet's V
_HELD = ("blocks", "step", "grad_prev", "U", "W", "M", "U_prev",
         "W_prev", "M_prev", "V")


def _held_arrays(state):
    out = []
    for name in _HELD:
        held = getattr(state, name, None)
        for a in held if isinstance(held, tuple) else (held,):
            if a is not None:
                out.append((name, a, a.copy()))
    return out


def test_no_step_writes_into_the_arrays_of_its_starting_iterate():
    # the harness holds an iterate's arrays for the next row's audit gnorm,
    # and criterion 5 steps from shallow copies of one state, so a step must
    # build new arrays rather than write into the ones it started from
    from subsearch import logdet, matfact, network

    iters = 12
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 18))
    X = rng.standard_normal((12, 8))
    logistic = LcpObjective("logistic", gen_logistic(30, 5, seed=1), 1 / 30)
    lsq = LcpObjective("least_squares", gen_quadratic(30, 5, seed=1))
    net_obj = network.NetObjective(gen_quadratic(20, 4, seed=1), hidden=3)
    runs = [(f"{obj.loss_kind}/{m}",
             lambda cb, m=m, obj=obj: run(m, obj, iters, callback=cb))
            for obj in (logistic, lsq) for m in TRACKED_METHODS]
    runs += [(f"net2/{m}",
              lambda cb, m=m: network.run(m, net_obj, iters, callback=cb))
             for m in network.NET_METHODS]
    runs += [(f"matfact/{s}",
              lambda cb, s=s: matfact.run(s, X, 3, iters, callback=cb))
             for s in matfact.MF_SCHEMES]
    runs += [(f"logdet/rank{r}",
              lambda cb, r=r: logdet.run(A @ A.T / 18, r, iters, callback=cb))
             for r in (1, 2)]
    assert len(runs) == 16 + 16 + 19 + 5 + 2
    for label, go in runs:
        held = []

        def check(k, state, rec):
            for name, a, copy in held:
                assert a.tobytes() == copy.tobytes(), (
                    f"{label}: step {k} wrote into {name}")
            held[:] = _held_arrays(state)

        go(check)
