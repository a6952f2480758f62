"""Command-line interface: pipeline contract and exit codes."""

import xml.etree.ElementTree as ET

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
