"""Trace regression: every method of every model against a recorded fixture.

Each (model, method) pair runs through `harness.run_experiment` on a tiny
synthetic problem.  Products and inner iterations must match exactly; f and
the six step-size cells must match within 1e-9 relative.  The gradient norm
must match exactly, except on the network models, whose gnorm comes from the
tracked image X W and may move within 1e-10 relative.  To re-record the
traces that an intended change moved past these tolerances (every other
trace stays as recorded), run

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
GNORM = "gnorm"
GNORM_RTOL = {"net2": 1e-10, "net2_reg": 1e-10}     # others: exact


def _pairs():
    return [(model, method) for model in harness.MODELS
            for method in harness.methods_for_model(model)]


def _trace(model, method):
    cfg = harness.ExperimentConfig(model=model, method=method, **SHAPE)
    rows = harness.parse_csv(harness.emit_csv(harness.run_experiment(cfg)))
    return [[row[c] for c in EXACT + CLOSE + (GNORM,)] for row in rows]


def _mismatch(model, got, want):
    """The first difference between two traces beyond the tolerances above,
    or None when they match."""
    if len(got) != len(want):
        return f"{len(got)} rows != {len(want)}"
    for k, (g, w) in enumerate(zip(got, want)):
        if g[:len(EXACT)] != w[:len(EXACT)]:
            return (f"iteration {k}: {EXACT} {g[:len(EXACT)]} != "
                    f"{w[:len(EXACT)]}")
        for name, a, b in zip(CLOSE, g[len(EXACT):-1], w[len(EXACT):-1]):
            if b is None:
                if a is not None:
                    return f"iteration {k}: {name} {a} != None"
            elif a is None or not math.isclose(a, b, rel_tol=RTOL,
                                               abs_tol=0.0):
                return f"iteration {k}: {name} {a!r} != {b!r}"
        a, b = g[-1], w[-1]
        if not math.isclose(a, b, rel_tol=GNORM_RTOL.get(model, 0.0),
                            abs_tol=0.0):
            return f"iteration {k}: gnorm {a!r} != {b!r}"
    return None


def _record():
    """Re-record the traces that no longer match the fixture, and keep every
    other trace as recorded, so rounding-level moves inside the tolerances
    do not rewrite rows that an intended change did not touch."""
    old = {}
    if FIXTURE.exists():
        with open(FIXTURE, encoding="utf-8") as fh:
            old = json.load(fh)["traces"]
    traces = {}
    for model, method in _pairs():
        key, got = f"{model} {method}", _trace(model, method)
        keep = key in old and _mismatch(model, got, old[key]) is None
        traces[key] = old[key] if keep else got
        if not keep:
            print(f"re-recorded {key}")
    columns = list(EXACT + CLOSE + (GNORM,))
    with open(FIXTURE, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("{\n" + f'"shape": {json.dumps(SHAPE)},\n'
                 + f'"columns": {json.dumps(columns)},\n'
                 + '"traces": {\n')
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                            for k, v in traces.items()))
        fh.write("\n}\n}\n")


@pytest.fixture(scope="module")
def fixture():
    with open(FIXTURE, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["shape"] == SHAPE
    assert doc["columns"] == list(EXACT + CLOSE + (GNORM,))
    return doc["traces"]


def test_fixture_covers_every_method(fixture):
    assert sorted(fixture) == sorted(f"{m} {n}" for m, n in _pairs())
    assert len(fixture) == 57


@pytest.mark.parametrize("model,method", _pairs())
def test_trace_matches_fixture(fixture, model, method):
    want = fixture[f"{model} {method}"]
    got = _trace(model, method)
    assert len(got) == len(want) == SHAPE["iters"] + 1
    msg = _mismatch(model, got, want)
    assert msg is None, msg


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_traces.py --record")
    _record()
