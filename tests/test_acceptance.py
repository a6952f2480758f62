"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints `CRITERION n: PASS ...` on success; a failed assertion
marks the criterion FAIL with the offending numbers in the message.
"""

import time

import numpy as np
import pytest

from subsearch import harness as hz
from subsearch import logdet as ld
from subsearch import matfact as mf
from subsearch import network as net
from subsearch import optimizers as opt
from subsearch.counted import CountedMatrix
from subsearch.data import Dataset, gen_logistic, gen_quadratic
from subsearch.objectives import LcpObjective


def _report(n, detail):
    print(f"CRITERION {n}: PASS {detail}")


# ---------------------------------------------------------------------------
# 1. product budget: nine LO/SO methods, exactly 2 products per iteration

BUDGET_METHODS = ("gd(lo)", "gd+m(lo)", "gd+m(so)", "nag(so)", "snag(so)",
                  "qn(lo)", "qn+m(so)", "adam(lo)", "adam2(so)")


def test_criterion_1_product_budget():
    t0 = time.perf_counter()
    # an input on which no method reaches a bitwise fixed point (where its
    # run would stop) within 100 iterations
    obj = LcpObjective("logistic", gen_logistic(500, 100, seed=0))
    for method in BUDGET_METHODS:
        _, recs = opt.run(method, obj, 100)
        assert len(recs) == 100
        bad = [(k, r.products) for k, r in enumerate(recs) if r.products != 2]
        assert not bad, f"criterion 1 FAIL: {method} budgets {bad[:3]}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 1 FAIL: took {elapsed:.1f}s"
    _report(1, f"(9 methods x 100 iters, 2 products each, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. matrix factorization budgets and expansion oracles

def _mf_instance():
    from subsearch.data import _normals, _seed_state
    rng = _seed_state(11)
    return _normals(rng, 40 * 30).reshape(40, 30)


def test_criterion_2_mf_budgets_and_expansions():
    t0 = time.perf_counter()
    X = _mf_instance()
    # budgets {2, 5, 7, 9, 2+|C|}; the exact-momentum schemes add one
    # product on each tracked-product refresh iteration
    for scheme, budget in mf.MF_BUDGETS.items():
        _, recs = mf.run(scheme, X, rank=5, iters=20, seed=1)
        for k, r in enumerate(recs, start=1):
            expected = budget
            if scheme in ("momentum-u", "momentum-both") and k % 10 == 0:
                expected += 1
            assert r.products == expected, (
                f"criterion 2 FAIL: {scheme} iter {k} used {r.products}")

    # expansion oracle: after two steps of each SO scheme (altmin on U, so
    # its momentum slot is listed), the restriction equals f at the factors
    # the step would commit
    rng = np.random.default_rng(0)
    worst = 0.0
    for step, slots in ((lambda s: mf.step_altmin_so(s, "u"), None),
                        (mf.step_simul_so2, mf.SIMUL),
                        (mf.step_momentum_one, mf.MOMENTUM_U),
                        (mf.step_momentum_both_exact, mf.MOMENTUM_BOTH)):
        st = mf.init_state(X, 5, seed=1)
        step(st)
        step(st)
        slots, free = mf._altmin_slots(st, "u") if slots is None else (
            slots, None)
        sp, _, live, dirs = mf._expand(st, slots, free)
        for _ in range(10):
            t = rng.uniform(-0.5, 0.5, len(live))
            theta = np.zeros(len(slots))
            theta[live] = t
            U_c, W_c = mf._factor_step(st, slots, dirs, theta)
            explicit = mf.pca_value(U_c @ W_c.T, st.X)
            worst = max(worst, abs(sp.value(t) - explicit)
                        / max(1.0, abs(explicit)))
    assert worst <= 1e-10, f"criterion 2 FAIL: expansion error {worst:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 2 FAIL: took {elapsed:.1f}s"
    _report(2, f"(budgets exact, expansion error {worst:.1e}, "
               f"{elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 3. conjugate-gradient equivalence on SPD least squares

def _spd_lsq(seed, d=20, cond=1e4):
    rng = np.random.default_rng(seed)
    Q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    Q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    # singular values span sqrt(cond), so X^T X has condition `cond`
    sv = np.logspace(0, 0.5 * np.log10(cond), d)
    X = Q1 @ np.diag(sv) @ Q2.T
    y = rng.standard_normal(d)
    return X, y


def _linear_cg(A, b, iters):
    w = np.zeros(b.size)
    r = b - A @ w
    p = r.copy()
    out = []
    for _ in range(iters):
        Ap = A @ p
        alpha = float(r @ r) / float(p @ Ap)
        w = w + alpha * p
        r_new = r - alpha * Ap
        beta = float(r_new @ r_new) / float(r @ r)
        p = r_new + beta * p
        r = r_new
        out.append(w.copy())
    return out


def test_criterion_3_cg_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        X, y = _spd_lsq(seed)
        cg_ws = _linear_cg(X.T @ X, X.T @ y, 10)
        for method in ("gd+m(so)", "gd+m(lo)"):
            obj = LcpObjective(
                "least_squares", Dataset(CountedMatrix(X), y, "real"))
            ws = []
            opt.run(method, obj, 10,
                    callback=lambda k, st, rec: ws.append(st.w.copy()))
            for wa, wb in zip(ws, cg_ws):
                rel = (np.linalg.norm(wa - wb)
                       / max(1.0, np.linalg.norm(wb)))
                worst = max(worst, rel)
                assert rel <= 1e-6, (
                    f"criterion 3 FAIL: {method} seed {seed} rel {rel:.2e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 3 FAIL: took {elapsed:.1f}s"
    _report(3, f"(5 problems x 10 iters, worst rel {worst:.1e}, "
               f"{elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 4. monotonicity of every subsolver-backed method on every test problem


def _assert_monotone(f0, fs, label):
    f_prev = f0
    for k, f in enumerate(fs):
        assert f <= f_prev + 1e-12 * max(1.0, abs(f_prev)), (
            f"criterion 4 FAIL: {label} rose at iter {k}: "
            f"{f_prev:.17g} -> {f:.17g}")
        f_prev = f


def test_criterion_4_monotonicity():
    checked = 0
    problems = [
        LcpObjective("logistic", gen_logistic(120, 15, seed=5)),
        LcpObjective("least_squares", gen_quadratic(120, 15, seed=5)),
        LcpObjective("logistic", gen_logistic(120, 15, seed=5), 0.01),
    ]
    for obj in problems:
        for method in opt.MONOTONE_METHODS:
            state = opt.init_state(obj)
            _, recs = opt.run(method, obj, 50)
            _assert_monotone(state.f, [r.f for r in recs],
                             f"{obj.loss_kind}/{method}")
            checked += 1
    nobj = net.NetObjective(gen_quadratic(60, 8, seed=5), hidden=5)
    for method in net.NET_MONOTONE_METHODS:
        state = net.init_state(nobj, seed=0)
        _, recs = net.run(method, nobj, 50, seed=0)
        _assert_monotone(state.f, [r.f for r in recs], f"net/{method}")
        checked += 1
    X = _mf_instance()
    for scheme in mf.MF_SCHEMES:
        f0 = mf.init_state(X, 5, 1).f
        _, recs = mf.run(scheme, X, rank=5, iters=50, seed=1)
        _assert_monotone(f0, [r.f for r in recs], f"mf/{scheme}")
        checked += 1
    rng = np.random.default_rng(5)
    A = rng.standard_normal((15, 45))
    S = (A @ A.T) / 45
    for rank in (1, 2):
        f0 = ld.f_gauss(ld.init_state(S))
        _, recs = ld.run(S, rank=rank, iters=50)
        _assert_monotone(f0, [r.f for r in recs], f"logdet/rank{rank}")
        checked += 1
    _report(4, f"({checked} method/problem pairs, 50 iters each)")


# ---------------------------------------------------------------------------
# 5. single-step dominance from random warm states


def _random_lcp_state(obj, rng):
    Xd = obj.X.dense()
    w = rng.standard_normal(obj.d) * 0.5
    s = 0.1 * rng.standard_normal(obj.d)
    return opt.MarginState(obj, (w, Xd @ w), obj.f_value_margin(w, Xd @ w),
                           step=(s, Xd @ s))


def test_criterion_5_single_step_dominance_logistic():
    obj = LcpObjective("logistic", gen_logistic(80, 10, seed=7))
    rng = np.random.default_rng(7)
    for trial in range(20):
        seed_state = _random_lcp_state(obj, rng)

        def fresh():
            import copy
            return copy.copy(seed_state)

        st = fresh()
        rec_bt = opt.step_gd(st, "1/l")
        st = fresh()
        rec_lo = opt.step_gd(st, "lo", warm=np.array([rec_bt.alpha1]))
        st = fresh()
        rec_so = opt.step_memory_gradient(
            st, warm=np.array([rec_lo.alpha1, 0.0]))
        assert rec_lo.f <= rec_bt.f + 1e-12 * max(1.0, abs(rec_bt.f)), (
            f"criterion 5 FAIL: trial {trial} LO {rec_lo.f:.17g} "
            f"> backtracked {rec_bt.f:.17g}")
        assert rec_so.f <= rec_lo.f + 1e-12 * max(1.0, abs(rec_lo.f)), (
            f"criterion 5 FAIL: trial {trial} SO {rec_so.f:.17g} "
            f"> LO {rec_lo.f:.17g}")
    _report(5, "(logistic: GD+M(SO) >= GD(LO) >= backtracked, 20 states)")


def _random_net_state(obj, rng):
    Xd = obj.X.dense()
    W = rng.standard_normal((obj.d, obj.hidden)) * 0.2
    v = rng.standard_normal(obj.hidden) * 0.2
    sW = 0.05 * rng.standard_normal(W.shape)
    sv = 0.05 * rng.standard_normal(v.shape)
    return net.NetState(obj, (W, v, Xd @ W), obj.value_tracked(W, v, Xd @ W),
                        step=(sW, sv, Xd @ sW))


def test_criterion_5_single_step_dominance_net():
    obj = net.NetObjective(gen_quadratic(50, 6, seed=7), hidden=4)
    rng = np.random.default_rng(8)
    for trial in range(20):
        seed_state = _random_net_state(obj, rng)

        def fresh():
            import copy
            return copy.copy(seed_state)

        st = fresh()
        rec_bt = opt.step_gd(st, "1/l")
        st = fresh()
        rec_lo = opt.step_gd(st, "lo", warm=np.array([rec_bt.alpha1]))
        st = fresh()
        rec_so = opt.step_memory_gradient(
            st, warm=np.array([rec_lo.alpha1, 0.0]))
        st = fresh()
        a, b = rec_so.alpha1, rec_so.beta1
        rec_sb = opt.step_memory_gradient(st, "sb",
                                          warm=np.array([a, b, a, b]))
        assert rec_lo.f <= rec_bt.f + 1e-12 * max(1.0, abs(rec_bt.f)), (
            f"criterion 5 FAIL: net trial {trial} LO > backtracked")
        assert rec_so.f <= rec_lo.f + 1e-12 * max(1.0, abs(rec_lo.f)), (
            f"criterion 5 FAIL: net trial {trial} SO > LO")
        assert rec_sb.f <= rec_so.f + 1e-12 * max(1.0, abs(rec_so.f)), (
            f"criterion 5 FAIL: net trial {trial} SO+SB > SO")
    _report(5, "(net: GD+M(SO+SB) >= GD+M(SO) >= GD(LO) >= backtracked, "
               "20 states)")


# ---------------------------------------------------------------------------
# 6. gradient correctness against central finite differences


def _fd_rel_error(value, grad, x, rng, h=1e-6):
    g = grad(x)
    fd = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fd[i] = (value(x + e) - value(x - e)) / (2 * h)
    return np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd))


def test_criterion_6_gradients():
    rng = np.random.default_rng(12)
    cases = []

    obj_log = LcpObjective("logistic", gen_logistic(40, 6, seed=9), 0.05)
    Xl = obj_log.X.dense()
    cases.append(("logistic",
                  lambda w: obj_log.f_value_margin(w, Xl @ w),
                  lambda w: obj_log.f_grad_margin(w, Xl @ w),
                  lambda: rng.standard_normal(6) * 0.5))

    obj_ls = LcpObjective("least_squares", gen_quadratic(40, 6, seed=9))
    Xq = obj_ls.X.dense()
    cases.append(("least-squares",
                  lambda w: obj_ls.f_value_margin(w, Xq @ w),
                  lambda w: obj_ls.f_grad_margin(w, Xq @ w),
                  lambda: rng.standard_normal(6) * 0.5))

    for lam, tag in ((0.0, "net"), (0.1, "net+reg")):
        nobj = net.NetObjective(gen_quadratic(30, 5, seed=9), 3, lam)
        Xn = nobj.X.dense()

        def net_value(z, o=nobj, Xd=Xn):
            W, v = z[:15].reshape(5, 3), z[15:]
            return o.value_tracked(W, v, Xd @ W)

        def net_grad(z, o=nobj, Xd=Xn):
            W, v = z[:15].reshape(5, 3), z[15:]
            gW, gv = net.gradient(o, net.NetPoint(o, W, v, Xd @ W))
            return np.concatenate([gW.ravel(), gv])

        cases.append((tag, net_value, net_grad,
                      lambda: rng.standard_normal(18) * 0.4))

    Xm = _mf_instance()[:12, :8]

    def mf_value(z):
        U, W = z[:36].reshape(12, 3), z[36:].reshape(8, 3)
        return mf.pca_value(U @ W.T, Xm)

    def mf_grad(z):
        U, W = z[:36].reshape(12, 3), z[36:].reshape(8, 3)
        G = U @ W.T - Xm
        return np.concatenate([(G @ W).ravel(), (G.T @ U).ravel()])

    cases.append(("matfact", mf_value, mf_grad,
                  lambda: rng.standard_normal(60) * 0.5))

    A = rng.standard_normal((4, 12))
    S = (A @ A.T) / 12

    def ld_value(z):
        V = z.reshape(4, 4)
        V = 0.5 * (V + V.T)
        return float(np.sum(S * V)) - np.linalg.slogdet(V)[1]

    def ld_grad(z):
        V = z.reshape(4, 4)
        V = 0.5 * (V + V.T)
        g = S - np.linalg.inv(V)
        return (0.5 * (g + g.T)).ravel()

    def ld_point():
        B = rng.standard_normal((4, 4))
        return (B @ B.T + 4 * np.eye(4)).ravel()

    cases.append(("logdet", ld_value, ld_grad, ld_point))

    worst = {}
    for tag, value, grad, draw in cases:
        errs = [_fd_rel_error(value, grad, draw(), rng)
                for _ in range(20)]
        worst[tag] = max(errs)
        assert worst[tag] < 1e-5, (
            f"criterion 6 FAIL: {tag} gradient error {worst[tag]:.2e}")
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _report(6, f"(20 points each: {detail})")


# ---------------------------------------------------------------------------
# 7. determinant lemma accuracy and rank-2 solve budget


def test_criterion_7_determinant_lemma():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        B = rng.standard_normal((d, d))
        V = B @ B.T + d * np.eye(d)
        st = ld.SpdState(S=np.eye(d), V=V, logdet_V=0.0)
        u, v = rng.standard_normal(d), rng.standard_normal(d)
        a1, a2 = rng.uniform(-0.3, 1.0, 2)
        fac, _ = ld.rank1_det_factor(st, u, a1)
        direct = np.linalg.det(V + a1 * np.outer(u, u)) / np.linalg.det(V)
        if direct > 0.1:
            worst = max(worst, abs(fac - direct) / direct)
        fac2 = ld.rank2_det_factor(st, u, v, a1, a2)
        direct2 = np.linalg.det(
            V + a1 * np.outer(u, u) + a2 * np.outer(v, v)) / np.linalg.det(V)
        if direct2 > 0.1:
            worst = max(worst, abs(fac2 - direct2) / direct2)
    assert worst <= 1e-8, f"criterion 7 FAIL: factor error {worst:.2e}"

    A = rng.standard_normal((8, 24))
    state = ld.init_state((A @ A.T) / 24)
    for _ in range(10):
        before = state.solver.read()
        ld.step_rank_so(state, rank=2)
        used = state.solver.read() - before
        assert used == 2, f"criterion 7 FAIL: rank-2 step used {used} solves"
    _report(7, f"(1000 trials, worst rel {worst:.1e}; rank-2 steps use "
               "exactly 2 solves)")


# ---------------------------------------------------------------------------
# 8. qualitative suboptimality ordering on the desk-scale instance


def test_criterion_8_figure_ordering():
    t0 = time.perf_counter()
    obj = LcpObjective("logistic", gen_logistic(1000, 100, seed=1))
    cfg = hz.ExperimentConfig(model="logistic", method="gd(lo)", iters=1,
                              kind="logistic", n=1000, d=100, seed=1)
    fstar = hz.reference_certificate(cfg)[0]
    finals = {}
    for method in ("gd+m(so)", "gd+m(lo)", "gd(ls)", "gd(1/l)"):
        _, recs = opt.run(method, obj, 200)
        finals[method] = recs[-1].f - fstar
    order = ("gd+m(so)", "gd+m(lo)", "gd(ls)", "gd(1/l)")
    for a, b in zip(order, order[1:]):
        assert finals[a] <= finals[b] + 1e-12, (
            f"criterion 8 FAIL: subopt({a})={finals[a]:.3e} > "
            f"subopt({b})={finals[b]:.3e}")
    assert finals["gd+m(so)"] <= 1e-3 * finals["gd(1/l)"], (
        f"criterion 8 FAIL: SO {finals['gd+m(so)']:.3e} not 1e-3 x "
        f"GD(1/L) {finals['gd(1/l)']:.3e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 8 FAIL: took {elapsed:.1f}s"
    detail = ", ".join(f"{m} {finals[m]:.2e}" for m in order)
    _report(8, f"({detail}; {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 9. line-search postconditions re-verified on every accepted step


def test_criterion_9_wolfe_armijo_postconditions():
    obj = LcpObjective("logistic", gen_logistic(150, 20, seed=3))
    total = verified = 0
    for method in ("gd(ls)", "gd+m(ls)", "qn(ls)", "adam(ls)"):
        _, recs = opt.run(method, obj, 50)
        for r in recs:
            if r.wolfe_verified is not None:
                total += 1
                verified += bool(r.wolfe_verified)
    nobj = net.NetObjective(gen_quadratic(60, 8, seed=3), hidden=5)
    for method in ("gd(ls)", "gd+m(ls)"):
        _, recs = net.run(method, nobj, 50, seed=0)
        for r in recs:
            if r.wolfe_verified is not None:
                total += 1
                verified += bool(r.wolfe_verified)
    assert total > 0
    assert verified == total, (
        f"criterion 9 FAIL: {verified}/{total} verified")

    # Armijo for the doubling rule: re-check each accepted step directly
    Xd = obj.X.dense()
    ws = []
    _, recs = opt.run("gd(1/l)", obj, 50,
                      callback=lambda k, st, rec: ws.append(st.w.copy()))
    w_prev = np.zeros(obj.d)
    f_prev = obj.f_value_margin(w_prev, Xd @ w_prev)
    armijo = 0
    for w, r in zip(ws, recs):
        g = Xd.T @ obj.g_grad(Xd @ w_prev)
        lhs = obj.f_value_margin(w, Xd @ w)
        rhs = f_prev - (r.alpha1 / 2.0) * float(g @ g)
        assert lhs <= rhs + 1e-10 * max(1.0, abs(f_prev)), (
            "criterion 9 FAIL: Armijo condition does not re-verify")
        armijo += 1
        w_prev, f_prev = w, lhs
    _report(9, f"({total} Wolfe steps and {armijo} Armijo steps "
               "re-verified, 100%)")


# ---------------------------------------------------------------------------
# 10. memory fidelity of all tracked quantities


def test_criterion_10_tracked_quantity_drift():
    obj = LcpObjective("logistic", gen_logistic(200, 20, seed=4))
    state, _ = opt.run("gd+m(so)", obj, 500)
    d1 = opt.audit_margin(state)
    assert d1 <= 1e-8, f"criterion 10 FAIL: margin drift {d1:.2e}"

    nobj = net.NetObjective(gen_quadratic(80, 10, seed=4), hidden=5)
    nstate, _ = net.run("gd+m(so+sb)", nobj, 500, seed=0)
    d2 = net.audit_activations(nstate)
    assert d2 <= 1e-8, f"criterion 10 FAIL: activation drift {d2:.2e}"

    X = _mf_instance()
    mstate, _ = mf.run("momentum-both", X, rank=5, iters=200, seed=1)
    d3 = mf.audit_product(mstate)
    assert d3 <= 1e-8, f"criterion 10 FAIL: product drift {d3:.2e}"

    rng = np.random.default_rng(4)
    A = rng.standard_normal((15, 45))
    lstate, _ = ld.run((A @ A.T) / 45, rank=2, iters=100)
    d4 = ld.audit_logdet(lstate) / max(1.0, abs(lstate.logdet_V))
    assert d4 <= 1e-8, f"criterion 10 FAIL: logdet drift {d4:.2e}"
    _report(10, f"(drift m {d1:.1e}, M {d2:.1e}, UW^T {d3:.1e}, "
                f"logdet {d4:.1e})")
