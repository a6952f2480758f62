"""Experiment pipeline: configs, references, CSV traces."""

import numpy as np
import pytest

from subsearch import harness as hz
from subsearch.data import gen_quadratic


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
    fstar = hz.compute_reference(cfg)
    ds = gen_quadratic(30, 5, 3)
    X, y = ds.X.dense(), ds.y
    w = np.linalg.solve(X.T @ X, X.T @ y)
    fopt = 0.5 * float(np.sum((X @ w - y) ** 2))
    assert abs(fstar - fopt) <= 1e-8


def test_reference_dominates_method_traces():
    cfg = hz.ExperimentConfig(model="logistic", method="gd+m(so)",
                              iters=100, n=80, d=10, seed=4)
    fstar = hz.compute_reference(cfg)
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
    objective as the second positional argument of each model's run."""
    import inspect

    from subsearch import logdet, matfact, network, optimizers

    for mod in (optimizers, network, matfact, logdet):
        assert "run" in vars(mod) and "solve" in vars(mod), mod.__name__
        assert "callback" in inspect.signature(mod.run).parameters
    for name in ("gen_logistic", "gen_quadratic", "parse_libsvm",
                 "emit_csv"):
        assert name in vars(hz), name

    runs, solves = [], []
    run, solve = network.run, network.solve

    def run_spy(*args, **kwargs):
        runs.append(args)
        return run(*args, **kwargs)

    def solve_spy(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(network, "run", run_spy)
    monkeypatch.setattr(network, "solve", solve_spy)
    cfg = hz.ExperimentConfig(model="net2", method="gd(lo)", iters=3,
                              kind="quadratic", n=20, d=4, hidden=2)
    trace = hz.run_experiment(cfg)
    assert len(trace.records) == 3
    assert len(runs) == 1 and isinstance(runs[0][1], network.NetObjective)
    assert len(solves) == 3      # network restrictions solve in network.py


def test_sparse_inputs_are_never_densified(tmp_path, monkeypatch):
    """LCP and net gradient norms go through audit products on the CSR
    payload, and the reference runs on the raw payload: neither densifies
    X, budgets stay exact, and gnorms match a dense-payload run."""
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
    # model, method, products before the first step, audit products per
    # gnorm and at iteration 0 (net2: f0 costs one more)
    cases = [("logistic", "gd+m(so)", 0, 1, 1), ("net2", "gd(ls)", 1, 2, 3)]
    for model, method, init, per_gnorm, at_zero in cases:
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
        assert X.audit_counter.read() == at_zero + per_gnorm * iters
        got = np.array([trace.gnorm0] + trace.gnorms)
        want = np.array([dense.gnorm0] + dense.gnorms)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), model
        fstar = hz.compute_reference(cfg)
        assert np.isfinite(fstar) and fstar <= trace.records[-1].f
        monkeypatch.undo()
