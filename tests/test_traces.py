"""Trace regression: every method of every model against a recorded fixture.

Each (model, method) pair runs through `harness.run_experiment` on a tiny
synthetic problem.  Products and inner iterations must match exactly; f and
the six step-size cells must match within 1e-9 relative.  To re-record the
fixture after an intended trace change, run

    PYTHONPATH=src python tests/test_traces.py --record
"""

import json
import math
import sys
from pathlib import Path

import pytest

from subsearch import harness

FIXTURE = Path(__file__).with_name("trace_fixture.json")
SHAPE = dict(n=40, d=6, hidden=3, iters=8, seed=1, lam="1/n")
EXACT = ("products_cum", "inner_iters")
CLOSE = ("f", "alpha1", "beta1", "alpha2", "beta2", "gamma", "delta")
RTOL = 1e-9


def _pairs():
    return [(model, method) for model in harness.MODELS
            for method in harness.methods_for_model(model)]


def _trace(model, method):
    cfg = harness.ExperimentConfig(model=model, method=method, **SHAPE)
    rows = harness.parse_csv(harness.emit_csv(harness.run_experiment(cfg)))
    return [[row[c] for c in EXACT + CLOSE] for row in rows]


def _record():
    doc = {"shape": SHAPE, "columns": list(EXACT + CLOSE),
           "traces": {f"{model} {method}": _trace(model, method)
                      for model, method in _pairs()}}
    with open(FIXTURE, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("{\n" + f'"shape": {json.dumps(doc["shape"])},\n'
                 + f'"columns": {json.dumps(doc["columns"])},\n'
                 + '"traces": {\n')
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                            for k, v in doc["traces"].items()))
        fh.write("\n}\n}\n")


@pytest.fixture(scope="module")
def fixture():
    with open(FIXTURE, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["shape"] == SHAPE
    assert doc["columns"] == list(EXACT + CLOSE)
    return doc["traces"]


def test_fixture_covers_every_method(fixture):
    assert sorted(fixture) == sorted(f"{m} {n}" for m, n in _pairs())
    assert len(fixture) == 57


@pytest.mark.parametrize("model,method", _pairs())
def test_trace_matches_fixture(fixture, model, method):
    want = fixture[f"{model} {method}"]
    got = _trace(model, method)
    assert len(got) == len(want) == SHAPE["iters"] + 1
    for k, (g, w) in enumerate(zip(got, want)):
        assert g[:len(EXACT)] == w[:len(EXACT)], (
            f"iteration {k}: {EXACT} {g[:len(EXACT)]} != {w[:len(EXACT)]}")
        for name, a, b in zip(CLOSE, g[len(EXACT):], w[len(EXACT):]):
            if b is None:
                assert a is None, f"iteration {k}: {name} {a} != None"
            else:
                assert a is not None and math.isclose(
                    a, b, rel_tol=RTOL, abs_tol=0.0), (
                    f"iteration {k}: {name} {a!r} != {b!r}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_traces.py --record")
    _record()
