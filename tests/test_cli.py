"""Command-line interface: pipeline contract and exit codes."""

import xml.etree.ElementTree as ET

import pytest

from subsearch.cli import main


def test_gen_then_run_pipeline(tmp_path, capsys):
    data = tmp_path / "f.libsvm"
    out = tmp_path / "t.csv"
    assert main(["gen", "--kind", "logistic", "--n", "100", "--d", "10",
                 "--seed", "1", "--out", str(data)]) == 0
    assert main(["run", "--data", str(data), "--model", "logistic",
                 "--method", "gd+m_so", "--iters", "50",
                 "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 52            # header + 51 rows
    capsys.readouterr()


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
    for fields in ('"iters": true, "lam": true', '"iters": 2, "n": 10.5'):
        cfgfile.write_text('{"model": "logistic", "method": "gd(lo)", '
                           '"d": 3, ' + fields + "}")
        assert main(["run", "--config", str(cfgfile),
                     "--out", str(out)]) == 1, fields
        assert "must be" in capsys.readouterr().err
        assert not out.exists()


def test_a_drift_after_the_last_audit_cadence_still_stops_the_run(capsys):
    # 199 steps end between the every-100-step audits; the audit after the
    # last step catches the drifted margins, whose recorded f 4.2836 lies
    # below the exact f* 4.30522524 that `ref` prints
    code = main(["run", "--model", "lsq", "--method", "gd+m(lo)",
                 "--kind", "quadratic", "--n", "1000", "--d", "100",
                 "--seed", "1", "--iters", "199"])
    assert code == 2
    assert "margin drift" in capsys.readouterr().err


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
