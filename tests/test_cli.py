"""Command-line interface: pipeline contract and exit codes."""

import xml.etree.ElementTree as ET

import pytest

from subsearch.cli import main


def test_gen_then_run_pipeline(tmp_path, capsys):
    data = tmp_path / "f.libsvm"
    out = tmp_path / "t.csv"
    # d = 20: the run reaches no fixed point within its 50 iterations
    assert main(["gen", "--kind", "logistic", "--n", "100", "--d", "20",
                 "--seed", "1", "--out", str(data)]) == 0
    assert main(["run", "--data", str(data), "--model", "logistic",
                 "--method", "gd+m_so", "--iters", "50",
                 "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 52            # header + 51 rows
    assert "fixed point" not in capsys.readouterr().out


def test_run_says_it_stopped_at_a_fixed_point(tmp_path, capsys):
    # 100 x 10: gd+m(so)'s state comes back from step 44 bitwise unchanged
    out = tmp_path / "t.csv"
    assert main(["run", "--model", "logistic", "--method", "gd+m(so)",
                 "--n", "100", "--d", "10", "--seed", "1", "--iters", "50",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("run logistic/gd+m(so): 44 iterations,")
    assert printed[1] == "stopped at a fixed point after 44 of 50 iterations"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 46            # header + 45 rows


def test_ref_then_plot_consume_each_other(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    fstar_file = tmp_path / "fstar.txt"
    fig = tmp_path / "fig.svg"
    common = ["--model", "logistic", "--method", "gd+m(so)",
              "--iters", "30", "--n", "40", "--d", "6", "--seed", "2"]
    assert main(["run"] + common + ["--out", str(trace)]) == 0
    assert main(["ref"] + common + ["--out", str(fstar_file)]) == 0
    fstar = fstar_file.read_text().strip()
    assert main(["plot", "--traces", str(trace), "--fstar", fstar,
                 "--out", str(fig)]) == 0
    ET.parse(str(fig))
    capsys.readouterr()


@pytest.mark.parametrize("model,lam,certified", [
    ("logistic", "1/n", True), ("lsq", "0.5", True),
    ("logistic", "0", False), ("net2_reg", "1/n", False),
    ("matfact", "0", False), ("logdet", "0", False)])
def test_ref_certifies_or_labels_fstar(tmp_path, capsys, model, lam,
                                       certified):
    out = tmp_path / "fstar.txt"
    method = {"matfact": "altmin", "logdet": "rank1"}.get(model, "gd(lo)")
    assert main(["ref", "--model", model, "--method", method,
                 "--iters", "1", "--n", "40", "--d", "6", "--seed", "2",
                 "--hidden", "3", "--lambda", lam, "--out", str(out)]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert out.read_text() == first + "\n"
    assert float(first) > 0
    if certified:
        head, _, rest = second.partition(", certified by lambda-strong")
        bound = float(head.split("<=")[1])
        assert head.startswith("f(w_ref) - f* <=") and rest
        assert 0 <= bound <= 1e-8
    elif model in ("matfact", "logdet"):
        assert second == "f* is exact (closed form)"
    else:
        assert second == "f* is the best value seen, not certified"


def test_steps_plot(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    fig = tmp_path / "steps.svg"
    assert main(["run", "--model", "logistic", "--method", "gd+m(so)",
                 "--iters", "10", "--n", "30", "--d", "5",
                 "--out", str(trace)]) == 0
    assert main(["plot", "--traces", str(trace), "--style", "steps",
                 "--out", str(fig)]) == 0
    ET.parse(str(fig))
    capsys.readouterr()


def test_unknown_method_is_usage_error(capsys):
    code = main(["run", "--model", "logistic", "--method", "nope",
                 "--iters", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "gd+m(so)" in err           # the method list is shown


def test_bad_flag_is_usage_error(capsys):
    assert main(["run", "--frobnicate"]) == 1
    capsys.readouterr()


def test_missing_required_flags(capsys):
    assert main(["run", "--model", "logistic"]) == 1
    assert "--method" in capsys.readouterr().err


def test_missing_data_file_is_usage_error(tmp_path, capsys):
    code = main(["run", "--data", str(tmp_path / "absent.libsvm"),
                 "--model", "logistic", "--method", "gd(lo)",
                 "--iters", "2"])
    assert code == 1
    capsys.readouterr()


def test_invalid_utf8_data_names_its_line(tmp_path, capsys):
    data = tmp_path / "bad.libsvm"
    data.write_bytes(b"+1 1:0.5\n-1 2:\xff\n")
    code = main(["run", "--data", str(data), "--model", "logistic",
                 "--method", "gd(lo)", "--iters", "2"])
    assert code == 2
    assert capsys.readouterr().err == "error: line 2: not valid UTF-8\n"


def test_a_data_file_without_feature_columns_is_usage_error(tmp_path,
                                                            capsys):
    """A labels-only file has d = 0, which every model refuses as --d 0:
    logdet's run used to fail at its first step, its ref printed f* = 0,
    and the other models ran a zero-dimensional problem."""
    labels = tmp_path / "labels.libsvm"
    labels.write_text("1\n-1\n\n1\n")
    out = tmp_path / "out.txt"
    for model, method in (("logistic", "gd(lo)"), ("lsq", "gd(lo)"),
                          ("net2", "gd(lo)"), ("logdet", "rank1")):
        for command in ("run", "ref"):
            assert main([command, "--data", str(labels), "--model", model,
                         "--method", method, "--iters", "2",
                         "--out", str(out)]) == 1, (command, model)
            assert "d must be >= 1" in capsys.readouterr().err
            assert not out.exists()


def test_json_config(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    out = tmp_path / "t.csv"
    cfgfile.write_text('{"model": "logistic", "method": "gd(lo)", '
                       '"iters": 4, "n": 20, "d": 4}')
    assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 6   # header + 5 rows
    capsys.readouterr()


def test_run_without_out_prints_csv(capsys):
    assert main(["run", "--model", "logistic", "--method", "gd(lo)",
                 "--iters", "2", "--n", "15", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert "iter,f,subopt" in out


def test_nonpositive_sizes_are_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x")
    for flags in (["--n", "0"], ["--d", "-1"]):
        assert main(["gen", "--kind", "logistic", "--n", "5", "--d", "2",
                     "--out", out] + flags) == 1
        assert not (tmp_path / "x").exists()
    run = ["run", "--model", "net2", "--method", "gd(lo)", "--iters", "1"]
    for flags in (["--n", "0"], ["--d", "-1"], ["--hidden", "0"]):
        assert main(run + flags) == 1
        assert "must be >= 1" in capsys.readouterr().err


def test_nonfinite_lambda_is_usage_error(tmp_path, capsys):
    out = tmp_path / "t.csv"
    for lam in ("nan", "inf", "-inf", "abc"):
        assert main(["run", "--model", "logistic", "--method", "gd(lo)",
                     "--iters", "2", "--n", "15", "--d", "3",
                     "--lambda", lam, "--out", str(out)]) == 1, lam
        assert "lambda" in capsys.readouterr().err
        assert not out.exists()


def test_mistyped_json_config_is_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    out = tmp_path / "t.csv"
    head = '{"model": "logistic", "method": "gd(lo)", "d": 3, '
    for fields in ('"iters": true, "lam": true', '"iters": 2, "n": 10.5',
                   '"iters": 2, "data": 0',
                   '"iters": 2, "standardize": "false"',
                   '"iters": 2, "fstar": NaN',
                   '"iters": 2, "fstar": Infinity'):
        cfgfile.write_text(head + fields + "}")
        assert main(["run", "--config", str(cfgfile),
                     "--out", str(out)]) == 1, fields
        assert "must be" in capsys.readouterr().err
        assert not out.exists()
    for method in ("5", "null"):
        cfgfile.write_text('{"model": "logistic", "method": %s, '
                           '"iters": 3}' % method)
        assert main(["run", "--config", str(cfgfile),
                     "--out", str(out)]) == 1, method
        assert "method must be a string" in capsys.readouterr().err
        assert not out.exists()
    # no --out here, which would override it; an int is a file descriptor
    # to open()
    cfgfile.write_text(head + '"iters": 2, "out": 2}')
    assert main(["run", "--config", str(cfgfile)]) == 1
    assert "out must be" in capsys.readouterr().err


def test_nonfinite_fstar_is_usage_error(tmp_path, capsys):
    trace, fig = tmp_path / "t.csv", tmp_path / "fig.svg"
    common = ["--model", "logistic", "--method", "gd(lo)", "--iters", "2",
              "--n", "15", "--d", "3"]
    for fstar in ("nan", "inf", "-inf"):
        for command in ("run", "ref"):
            assert main([command] + common + ["--fstar=" + fstar, "--out",
                                              str(trace)]) == 1, fstar
            assert "fstar must be" in capsys.readouterr().err
            assert not trace.exists()
    assert main(["run"] + common + ["--out", str(trace)]) == 0
    for fstar in ("nan", "inf", "-inf"):
        assert main(["plot", "--traces", str(trace), "--fstar=" + fstar,
                     "--out", str(fig)]) == 1, fstar
        assert "--fstar must be finite" in capsys.readouterr().err
        assert not fig.exists()


def test_plot_names_the_line_of_a_malformed_trace_row(tmp_path, capsys):
    trace, fig = tmp_path / "t.csv", tmp_path / "fig.svg"
    assert main(["run", "--model", "logistic", "--method", "gd(lo)",
                 "--iters", "3", "--n", "15", "--d", "3",
                 "--out", str(trace)]) == 0
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    cols = lines[0].split(",")

    def with_cell(lineno, name, cell):
        cells = lines[lineno - 1].split(",")
        cells[cols.index(name)] = cell
        return [*lines[:lineno - 1], ",".join(cells), *lines[lineno:]]

    for bad, style, message in (
            ([*lines[:-1], lines[-1].rsplit(",", 3)[0]], "subopt",
             "line 5: 10 cells"),
            ([*lines[:2], lines[2] + ",1", *lines[3:]], "subopt",
             "line 3: 14 cells"),
            (with_cell(3, "f", "nan"), "subopt", "line 3: f is nan"),
            (with_cell(4, "alpha1", "inf"), "steps", "line 4: alpha1 is inf"),
            (with_cell(2, "gnorm", "-inf"), "subopt",
             "line 2: gnorm is -inf")):
        trace.write_text("\n".join(bad) + "\n")
        assert main(["plot", "--traces", str(trace), "--style", style,
                     "--out", str(fig)]) == 2, message
        assert message in capsys.readouterr().err
        assert not fig.exists()


def test_a_drift_after_the_last_audit_cadence_still_stops_the_run(
        capsys, monkeypatch):
    # 199 steps end between the every-100-step audits, and this run takes
    # all of them; its 150th commit perturbs the tracked margins, so only
    # the audit after the last step can catch the drift
    from subsearch.optimizers import MarginState

    advance, commits = MarginState.advance, []

    def perturbed(self, blocks, *args):
        commits.append(None)
        if len(commits) == 150:
            blocks = [*blocks[:-1], blocks[-1] + 1e-3]
        advance(self, blocks, *args)

    monkeypatch.setattr(MarginState, "advance", perturbed)
    code = main(["run", "--model", "logistic", "--method", "gd(lo)",
                 "--n", "200", "--d", "20", "--seed", "1", "--iters", "199"])
    assert code == 2
    err = capsys.readouterr().err
    assert "margin drift" in err and "at iteration 199" in err


def test_model_inputs_the_problem_cannot_take_are_usage_errors(tmp_path,
                                                               capsys):
    out = tmp_path / "out.txt"
    for args, message in (
            (["--model", "matfact", "--method", "simul", "--n", "10",
              "--d", "5", "--hidden", "7"], "need 1 <= rank <= min(n, d)"),
            (["--model", "logistic", "--method", "gd(lo)", "--n", "1",
              "--d", "2", "--standardize"], "standardize needs n >= 2")):
        for command in ("run", "ref"):
            assert main([command, "--iters", "2", *args,
                         "--out", str(out)]) == 1, (command, message)
            assert message in capsys.readouterr().err
            assert not out.exists()


def test_logistic_labels_other_than_plus_minus_one_are_usage_errors(
        tmp_path, capsys):
    common = ["--model", "logistic", "--method", "gd(lo)", "--iters", "3"]
    real = tmp_path / "real.libsvm"
    real.write_text("0.5 1:1\n-1 2:1\n1 1:2\n")
    for source in (["--kind", "quadratic", "--n", "50", "--d", "5"],
                   ["--data", str(real)]):
        for command in ("run", "ref"):
            assert main([command] + common + source) == 1, source
            assert "-1 or +1" in capsys.readouterr().err
    # two distinct labels are read as -1 and +1
    binary = tmp_path / "binary.libsvm"
    binary.write_text("0 1:1\n1 2:1\n1 1:2\n")
    assert main(["run"] + common + ["--data", str(binary)]) == 0
    capsys.readouterr()
