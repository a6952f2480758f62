"""Experiment pipeline: configs, references, CSV traces."""

import numpy as np
import pytest

from subsearch import harness as hz
from subsearch.data import gen_logistic, gen_quadratic


def test_config_validation():
    with pytest.raises(hz.ConfigError):
        hz.ExperimentConfig(model="svm", method="gd(lo)", iters=5)
    with pytest.raises(hz.ConfigError):
        hz.ExperimentConfig(model="logistic", method="gd(lo)", iters=-1)
    with pytest.raises(hz.ConfigError):
        hz.ExperimentConfig(model="logistic", method="altmin", iters=5)


def test_method_alias_normalization():
    cfg = hz.ExperimentConfig(model="logistic", method="gd+m_so", iters=1)
    assert cfg.method == "gd+m(so)"
    cfg = hz.ExperimentConfig(model="net2", method="gd+m_so_sb", iters=1)
    assert cfg.method == "gd+m(so+sb)"
    with pytest.raises(hz.ConfigError):
        hz.canonical_method("gd+m_xx", "logistic")


def test_json_config_with_flag_overrides():
    cfg = hz.config_from_json(
        '{"model": "logistic", "method": "gd(lo)", "iters": 3, "seed": 9}',
        overrides={"iters": 7, "seed": None})
    assert cfg.iters == 7 and cfg.seed == 9
    with pytest.raises(hz.ConfigError):
        hz.config_from_json("[1, 2]")
    with pytest.raises(hz.ConfigError):
        hz.config_from_json('{"model": "logistic", "method": "gd(lo)", '
                            '"iters": 1, "zzz": 1}')


def test_resolve_lambda():
    assert hz.resolve_lambda("0", 50) == 0.0
    assert hz.resolve_lambda("1/n", 50) == 0.02
    assert hz.resolve_lambda("0.25", 50) == 0.25
    with pytest.raises(hz.ConfigError):
        hz.resolve_lambda("-1", 50)
    with pytest.raises(hz.ConfigError):
        hz.resolve_lambda("half", 50)


def test_bad_lambda_rejected_at_construction():
    for bad in ("nan", "inf", "-inf", float("nan"), float("inf"), None):
        with pytest.raises(hz.ConfigError):
            hz.resolve_lambda(bad, 50)
    for bad in ("abc", "nan", "inf", "-1", "1/m", float("nan")):
        with pytest.raises(hz.ConfigError):
            hz.ExperimentConfig(model="logistic", method="gd(lo)", iters=1,
                                lam=bad)
        with pytest.raises(hz.ConfigError):
            hz.config_from_json('{"model": "net2", "method": "gd(lo)", '
                                '"iters": 1}', overrides={"lam": bad})
    cfg = hz.ExperimentConfig(model="logistic", method="gd(lo)", iters=1,
                              lam="1/n")
    assert cfg.lam == "1/n"


def test_reference_matches_normal_equations():
    cfg = hz.ExperimentConfig(model="lsq", method="gd(lo)", iters=1,
                              kind="quadratic", n=30, d=5, seed=3)
    fstar = hz.reference_certificate(cfg)[0]
    ds = gen_quadratic(30, 5, 3)
    X, y = ds.X.dense(), ds.y
    w = np.linalg.solve(X.T @ X, X.T @ y)
    fopt = 0.5 * float(np.sum((X @ w - y) ** 2))
    assert abs(fstar - fopt) <= 1e-12


def test_spectral_reference_takes_bb1_steps():
    # on a quadratic with no backtracking pressure the reference run's
    # iterates are the plain BB1 recurrence: first step 1/max(1, |g|),
    # then s.s / s.y, until |g| <= 1e-14 max(1, |g(0)|)
    H = np.diag([1.0, 2.0])
    b = np.array([1.0, 1.0])

    def value(t):
        return 0.5 * float(t @ H @ t) + float(b @ t)

    seen = []

    def grad(t):
        seen.append(t)
        return H @ t + b

    fstar, how = hz._spectral_reference(2, value, grad)
    theta, g = np.zeros(2), b
    t = 1.0 / max(1.0, np.linalg.norm(g))
    want = [theta]
    while np.linalg.norm(g) > 1e-14 * np.linalg.norm(b) and len(want) < 50:
        new = theta - t * g
        g_new = H @ new + b
        s, y = new - theta, g_new - g
        t = float(s @ s) / float(s @ y)
        theta, g = new, g_new
        want.append(theta)
    assert 2 < len(seen) == len(want) < 50
    assert all(np.array_equal(a, c) for a, c in zip(seen, want))
    assert fstar == min(value(a) for a in want) and how == hz.BEST_SEEN


# (n, d, seed, rank) and the spectral run's best value for matfact and
# logdet before their closed forms replaced it
@pytest.mark.parametrize("n,d,seed,rank,spectral_mf,spectral_ld", [
    (40, 6, 2, 3, 156.15464367712374, 20.574495195482505),
    (200, 20, 1, 4, 17044.068511432917, 69.126265781152952),
    (1000, 100, 1, 5, 861365.00238527532, 344.78003428088437)])
def test_closed_form_references(n, d, seed, rank, spectral_mf, spectral_ld):
    """matfact's f* is Eckart-Young's trailing spectrum and logdet's is
    d + log det S, each labelled exact and within 1e-12 of the spectral
    run's value."""
    X = gen_logistic(n, d, seed).X.dense()
    G = X.T @ X
    # the eigenvalues of X^T X are the squared singular values, ascending
    tail = np.linalg.eigvalsh(G)[:d - rank]
    cases = {"matfact": (0.5 * np.sum(tail), spectral_mf),
             "logdet": (d + np.linalg.slogdet(G / n + np.eye(d))[1],
                        spectral_ld)}
    for model, (want, spectral) in cases.items():
        cfg = hz.ExperimentConfig(model=model, method=hz.methods_for_model(
            model)[0], iters=1, n=n, d=d, seed=seed, hidden=rank)
        fstar, how = hz.reference_certificate(cfg)
        assert how == hz.EXACT, model
        assert abs(fstar - want) <= 1e-12 * abs(want), model
        assert abs(fstar - spectral) <= 1e-12 * abs(spectral), model


def test_reference_dominates_method_traces():
    cfg = hz.ExperimentConfig(model="logistic", method="gd+m(so)",
                              iters=100, n=80, d=10, seed=4)
    fstar = hz.reference_certificate(cfg)[0]
    trace = hz.run_experiment(cfg)
    assert fstar <= min([trace.f0] + [r.f for r in trace.records]) + 1e-10


def test_trace_length_and_zero_iters():
    cfg = hz.ExperimentConfig(model="lsq", method="gd(lo)", iters=0,
                              kind="quadratic", n=20, d=4)
    trace = hz.run_experiment(cfg)
    assert len(list(trace.rows())) == 1


def test_csv_roundtrip_and_schema(tmp_path):
    out = tmp_path / "t.csv"
    cfg = hz.ExperimentConfig(model="logistic", method="gd+m(so)", iters=12,
                              n=40, d=6, seed=1, fstar=0.0, out=str(out))
    trace = hz.run_experiment(cfg)
    text = out.read_text(encoding="utf-8")
    assert text.startswith(hz.CSV_HEADER + "\n")
    assert "\r" not in text
    rows = hz.parse_csv(text)
    assert len(rows) == 13
    assert rows[0]["iter"] == 0 and rows[0]["products_cum"] == 0
    # SO methods cost 2 products per iteration
    deltas = [b["products_cum"] - a["products_cum"]
              for a, b in zip(rows, rows[1:])]
    assert deltas == [2] * 12
    # round trip all numeric fields exactly
    again = hz.parse_csv(hz.emit_csv(trace))
    for a, b in zip(rows, again):
        for key in a:
            assert a[key] == b[key], key


def test_reproducible_modulo_wall_clock():
    cfg = hz.ExperimentConfig(model="logistic", method="gd+m(lo)", iters=15,
                              n=50, d=8, seed=2)
    def strip(text):
        return [",".join(line.split(",")[:-1])
                for line in text.splitlines()]
    t1 = hz.emit_csv(hz.run_experiment(cfg))
    t2 = hz.emit_csv(hz.run_experiment(cfg))
    assert strip(t1) == strip(t2)


def test_subopt_column_blank_without_fstar():
    cfg = hz.ExperimentConfig(model="logistic", method="gd(lo)", iters=3,
                              n=20, d=4)
    rows = hz.parse_csv(hz.emit_csv(hz.run_experiment(cfg)))
    assert all(r["subopt"] is None for r in rows)


def test_trace_from_csv_roundtrip():
    cfg = hz.ExperimentConfig(model="logistic", method="gd+m(so)", iters=8,
                              n=30, d=5, seed=1)
    trace = hz.run_experiment(cfg)
    back = hz.trace_from_csv(hz.emit_csv(trace), "label")
    assert back.f0 == trace.f0
    assert [r.f for r in back.records] == [r.f for r in trace.records]
    assert back.config.method == "label"


def test_all_models_produce_traces(tmp_path):
    cases = [("logistic", "gd+m(so)", "logistic"),
             ("lsq", "qn(lo)", "quadratic"),
             ("net2", "gd+m(so+sb)", "quadratic"),
             ("net2_reg", "gd(lo)", "quadratic"),
             ("matfact", "momentum-both", "quadratic"),
             ("logdet", "rank2", "quadratic")]
    for model, method, kind in cases:
        cfg = hz.ExperimentConfig(model=model, method=method, iters=5,
                                  kind=kind, n=30, d=6, seed=1, hidden=3)
        trace = hz.run_experiment(cfg)
        assert len(trace.records) == 5
        assert np.isfinite(trace.records[-1].f)


def test_trace_from_csv_reemits_identically():
    cfg = hz.ExperimentConfig(model="logistic", method="gd+m(so)", iters=6,
                              n=30, d=5, seed=1)
    text = hz.emit_csv(hz.run_experiment(cfg))
    assert hz.emit_csv(hz.trace_from_csv(text, "label")) == text


def test_benchmark_entry_points_stay_patchable(monkeypatch):
    """perfbench/probe.py replaces these module attributes to take its
    step clock and per-layer spans, and perfbench/checks.py reads the
    objective as the second positional argument of each model's run.  The
    probe wraps the value, grad and hess of each SubProblem handed to
    `solve` separately to count their calls, and `optimizers.strong_wolfe`
    to time and count the Wolfe search; it would silently record nothing if
    either stopped holding."""
    import inspect

    from subsearch import logdet, matfact, network, optimizers, subsolver

    for mod in (optimizers, network, matfact, logdet):
        assert "run" in vars(mod) and "solve" in vars(mod), mod.__name__
        assert "callback" in inspect.signature(mod.run).parameters
    assert "strong_wolfe" in vars(optimizers)
    # the probe passes opts positionally and reads its iteration cap
    params = list(inspect.signature(subsolver.solve).parameters.values())
    assert params[1].name == "opts" and params[1].kind in (
        params[1].POSITIONAL_ONLY, params[1].POSITIONAL_OR_KEYWORD)
    assert "theta0" in inspect.signature(subsolver.solve).parameters
    assert subsolver.SubSolverOptions().max_iters > 0
    for name in ("gen_logistic", "gen_quadratic", "parse_libsvm",
                 "emit_csv"):
        assert name in vars(hz), name

    def spy(mod, attr):
        calls, orig = [], getattr(mod, attr)

        def wrapped(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        monkeypatch.setattr(mod, attr, wrapped)
        return calls

    for mod, model, kind, objective in (
            (network, "net2", "quadratic", network.NetObjective),
            (optimizers, "logistic", "logistic", optimizers.LcpObjective)):
        runs, solves = spy(mod, "run"), spy(mod, "solve")
        cfg = hz.ExperimentConfig(model=model, method="gd(lo)", iters=3,
                                  kind=kind, n=20, d=4, hidden=2)
        trace = hz.run_experiment(cfg)
        assert len(trace.records) == 3
        assert len(runs) == 1 and isinstance(runs[0][1], objective)
        # each model's restrictions solve in its own module
        assert len(solves) == 3, model
        for sp, *_ in solves:
            fns = (sp.value, sp.grad, sp.hess)
            assert all(map(callable, fns)), model
            assert len(set(map(id, fns))) == 3, model


def test_sparse_inputs_are_never_densified(tmp_path, monkeypatch):
    """LCP and net gradient norms (the steps' own, and the last row's audit
    product) and the reference's audit products stay on the CSR payload:
    neither densifies X, budgets and audit counts stay exact, and gnorms
    match a dense-payload run."""
    import scipy.sparse as sp

    from subsearch.counted import CountedMatrix
    from subsearch.data import Dataset, write_libsvm

    rng = np.random.default_rng(4)
    Xs = sp.random(60, 12, density=0.25, random_state=rng,
                   data_rvs=rng.standard_normal)
    ys = np.where(rng.random(60) < 0.5, -1.0, 1.0)
    path = tmp_path / "sparse.libsvm"
    path.write_text(write_libsvm(Dataset(CountedMatrix(Xs), ys, "binary")))
    parse = hz.parse_libsvm
    seen = []

    def parse_sparse(text):
        seen.append(parse(text))
        return seen[-1]

    def parse_dense(text):
        ds = parse(text)
        return Dataset(CountedMatrix(ds.X.payload.toarray()), ds.y,
                       ds.label_kind)

    def no_dense(self):
        raise AssertionError("CountedMatrix.dense called")

    iters = 8
    # model, method, products before the first step, and audit products:
    # the drift audit after the last step and the last row's gnorm (net2:
    # two products, plus one for f0); every other row's gnorm is the norm
    # of the gradient its step already took
    cases = [("logistic", "gd+m(so)", 0, 2), ("net2", "gd(ls)", 1, 4)]
    for model, method, init, audits in cases:
        cfg = hz.ExperimentConfig(model=model, method=method, iters=iters,
                                  data=str(path), hidden=3, seed=1,
                                  lam="1/n")
        monkeypatch.setattr(hz, "parse_libsvm", parse_dense)
        dense = hz.run_experiment(cfg)
        monkeypatch.setattr(hz, "parse_libsvm", parse_sparse)
        monkeypatch.setattr(CountedMatrix, "dense", no_dense)
        trace = hz.run_experiment(cfg)
        X = seen[-1].X
        assert X.is_sparse
        assert X.counter.read() == init + sum(r.products
                                              for r in trace.records)
        assert X.audit_counter.read() == audits
        got = np.array([trace.gnorm0] + trace.gnorms)
        want = np.array([dense.gnorm0] + dense.gnorms)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), model
        fstar = hz.reference_certificate(cfg)[0]
        assert np.isfinite(fstar) and fstar <= trace.records[-1].f
        monkeypatch.undo()


@pytest.mark.parametrize("iters", [0, 1, 100])
@pytest.mark.parametrize("model", ["logistic", "lsq"])
def test_lcp_gnorms_come_from_the_steps_own_gradients(monkeypatch, model,
                                                      iters):
    """Every LCP row's gnorm equals the old per-row audit of the iterate,
    while only nag(1/l), whose gradient is taken at its extrapolated point,
    still pays an audit product per row."""
    from subsearch import optimizers as opt

    run, load, datasets = opt.run, hz.load_dataset, []

    def load_and_keep(cfg):
        datasets.append(load(cfg))
        return datasets[-1]

    def audit_gnorm(obj, w, m):
        return float(np.linalg.norm(obj.f_grad_margin(w, m, audit=True)))

    def run_with_audits(method, obj, iters, callback=None, **kwargs):
        # the per-row audit the harness used to make; its own audit
        # products are subtracted below
        want.append(audit_gnorm(obj, np.zeros(obj.d), np.zeros(obj.n)))

        def audit_then_callback(k, state, rec):
            want.append(audit_gnorm(obj, state.w, state.m))
            callback(k, state, rec)

        return run(method, obj, iters, callback=audit_then_callback,
                   **kwargs)

    monkeypatch.setattr(hz, "load_dataset", load_and_keep)
    monkeypatch.setattr(opt, "run", run_with_audits)
    for method in hz.methods_for_model(model):
        want = []
        cfg = hz.ExperimentConfig(model=model, method=method, iters=iters,
                                  n=40, d=6, seed=1, lam="1/n",
                                  kind="quadratic" if model == "lsq"
                                  else "logistic")
        trace = hz.run_experiment(cfg)
        assert [trace.gnorm0] + trace.gnorms == want, method
        audits = datasets[-1].X.audit_counter.read() - len(want)
        per_row = iters if method == "nag(1/l)" else 0
        # the last row's gnorm, and the margin audit every 100 steps and
        # after the last one
        assert audits == 1 + per_row + -(-iters // 100), method


def test_config_fields_are_type_checked():
    base = '{"model": "logistic", "method": "gd(lo)", "n": 20, "d": 3, '
    for fields in ('"iters": true', '"iters": 2, "lam": true',
                   '"iters": 2, "lam": false', '"iters": 2.0',
                   '"iters": 2, "n": 10.5', '"iters": 2, "seed": 1.5',
                   '"iters": 2, "hidden": "4"', '"iters": 2, "fstar": true',
                   '"iters": 2, "fstar": "1"'):
        with pytest.raises(hz.ConfigError):
            hz.config_from_json(base + fields + "}")
    cfg = hz.config_from_json(base + '"iters": 2, "lam": 0.5, "fstar": 1}')
    assert (cfg.iters, cfg.lam, cfg.fstar) == (2, 0.5, 1)
