"""SVG emission: well-formedness and parse-back of plotted series."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from subsearch import harness as hz
from subsearch import plots
from subsearch.optimizers import StepRecord

NS = "{http://www.w3.org/2000/svg}"


def make_trace(fs, method="m", steps=None):
    records = []
    for k, f in enumerate(fs):
        rec = StepRecord(f, products=2)
        if steps is not None:
            rec.alpha1, rec.beta1 = steps[k]
        records.append(rec)
    cfg = hz._CsvConfig(method=method, iters=len(fs))
    return hz.Trace(cfg, fs[0] * 2 + 1 if fs else 1.0, 1.0, records,
                    [1.0] * len(fs))


def test_subopt_svg_is_wellformed_and_versioned():
    t = make_trace([10.0, 5.0, 2.0])
    doc = plots.emit_subopt_svg([t], fstar=1.0, path="")
    root = ET.fromstring(doc)
    assert root.get("version") == "1.1"
    assert root.tag == NS + "svg"


def test_flat_trace_gives_horizontal_polyline():
    t = make_trace([5.0, 5.0, 5.0, 5.0])
    t.f0 = 5.0
    doc = plots.emit_subopt_svg([t], fstar=1.0, path="")
    root = ET.fromstring(doc)
    poly = next(e for e in root.iter(NS + "polyline")
                if e.get("data-series"))
    ys = {p.split(",")[1] for p in poly.get("points").split()}
    assert len(ys) == 1


def test_monotone_trace_has_nonincreasing_values():
    cfg = hz.ExperimentConfig(model="logistic", method="gd+m(so)", iters=30,
                              n=50, d=8, seed=1)
    fstar = hz.reference_certificate(cfg)[0]
    trace = hz.run_experiment(cfg)
    doc = plots.emit_subopt_svg([trace], fstar, path="")
    root = ET.fromstring(doc)
    poly = next(e for e in root.iter(NS + "polyline")
                if e.get("data-series"))
    vals = [float(v) for v in poly.get("data-values").split()]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_subopt_clamped_at_floor():
    t = make_trace([1.0, 1.0])
    t.f0 = 1.0
    doc = plots.emit_subopt_svg([t], fstar=1.0, path="")  # f - f* == 0
    root = ET.fromstring(doc)
    poly = next(e for e in root.iter(NS + "polyline")
                if e.get("data-series"))
    vals = [float(v) for v in poly.get("data-values").split()]
    assert all(abs(v - math.log10(1e-16)) < 1e-12 for v in vals)


def test_legend_lists_every_series():
    t1, t2 = make_trace([3.0, 2.0], "alpha-run"), make_trace([3.0, 1.0], "b")
    doc = plots.emit_subopt_svg([t1, t2], fstar=0.5, path="")
    assert "alpha-run" in doc
    root = ET.fromstring(doc)
    texts = [e.text for e in root.iter(NS + "text")]
    assert "alpha-run" in texts and "b" in texts


def test_steps_svg_markers_match_negative_entries():
    steps = [(0.1, 0.01), (0.2, -0.02), (0.3, 0.03), (-0.4, 0.04),
             (0.5, 0.05), (0.6, 0.06), (0.7, -0.07), (0.8, 0.08)]
    t = make_trace([8.0 - k for k in range(8)], steps=steps)
    doc = plots.emit_steps_svg([t], path="")
    root = ET.fromstring(doc)
    markers = list(root.iter(NS + "circle"))
    assert len(markers) == 3
    by_series = {}
    for m in markers:
        by_series.setdefault(m.get("data-series"), []).append(
            int(m.get("data-negative")))
    assert sorted(by_series["beta1"]) == [2, 7]
    assert by_series["alpha1"] == [4]


def test_steps_svg_all_positive_has_no_markers():
    steps = [(0.1, 0.01)] * 5
    t = make_trace([5.0 - k for k in range(5)], steps=steps)
    doc = plots.emit_steps_svg([t], path="")
    root = ET.fromstring(doc)
    assert list(root.iter(NS + "circle")) == []


def test_steps_svg_momentum_series_is_dashed():
    steps = [(0.1, 0.01)] * 5
    t = make_trace([5.0 - k for k in range(5)], steps=steps)
    root = ET.fromstring(plots.emit_steps_svg([t], path=""))
    dashes = {e.get("data-series"): e.get("stroke-dasharray")
              for e in root.iter(NS + "polyline") if e.get("data-series")}
    assert dashes["beta1"] is not None
    assert dashes["alpha1"] is None


def test_files_written(tmp_path):
    t = make_trace([3.0, 2.0], steps=None)
    p = tmp_path / "fig.svg"
    plots.emit_subopt_svg([t], fstar=1.0, path=str(p))
    ET.parse(str(p))


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        plots.emit_subopt_svg([], fstar=0.0, path="")
    with pytest.raises(ValueError):
        plots.emit_steps_svg([], path="")
