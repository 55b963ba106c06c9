import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import xlab.cli as cli_mod
from xlab.cli import EQUILIBRIUM_CSV_HEADER, main
from xlab.errors import NumericError
from xlab.measures import (circle_jump_measure, save_measure_file,
                           uniform_circle_measure)
from xlab.sweep import SWEEP_CSV_HEADER

MEASURES = pathlib.Path(__file__).resolve().parent.parent / "measures"


@pytest.fixture
def circle_file(tmp_path):
    path = tmp_path / "circle_jump.measure"
    save_measure_file(circle_jump_measure(), path)
    return str(path)


@pytest.fixture
def uniform_file(tmp_path):
    path = tmp_path / "circle_uniform.measure"
    save_measure_file(uniform_circle_measure(z0=1.0), path)
    return str(path)


def test_lambda_subcommand_exact(uniform_file, capsys):
    code = main(["lambda", "--measure", uniform_file, "--z", "1,0",
                 "--n", "9"])
    assert code == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" = ", 1) for line in out.strip().splitlines())
    assert fields["n"] == "9"
    assert float(fields["lambda_n"]) == pytest.approx(2 * math.pi / 10,
                                                      rel=1e-12)
    assert float(fields["n_lambda_n"]) == pytest.approx(9 * 2 * math.pi / 10,
                                                        rel=1e-12)


def test_lambda_auto_jump_point(circle_file, capsys):
    code = main(["lambda", "--measure", circle_file, "--z", "auto-jump",
                 "--n", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "z = " in out
    direct = main(["lambda", "--measure", circle_file, "--z", "auto-jump",
                   "--n", "6", "--method", "direct"])
    assert direct == 0
    out2 = capsys.readouterr().out
    lam1 = float(out.split("lambda_n = ")[1].splitlines()[0])
    lam2 = float(out2.split("lambda_n = ")[1].splitlines()[0])
    assert abs(lam1 - lam2) <= 1e-10 * lam1


@pytest.mark.parametrize("name, route", [
    ("circle_jump", "recurrence"), ("interval_jump", "recurrence"),
    ("ellipse_jump", "gram"), ("lemniscate_z2_jump", "gram")])
def test_lambda_names_its_route(name, route, capsys):
    path = str(MEASURES / f"{name}.measure")
    for method, want in (("kernel", route), ("direct", "arnoldi")):
        code = main(["lambda", "--measure", path, "--z", "auto-jump",
                     "--n", "12", "--method", method])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:4] == [f"method = {method}", f"route = {want}"]


@pytest.mark.parametrize("path", sorted(MEASURES.glob("*.measure")),
                         ids=lambda p: p.stem)
def test_lambda_far_point_is_numeric_error(path, capsys):
    # K_256(1000) overflows float64 on every route, and the route reports it
    # with kernel_diag's error
    code = main(["lambda", "--measure", str(path), "--z", "1000,0",
                 "--n", "256"])
    assert code == 3
    assert capsys.readouterr().err.startswith("numeric error: kernel overflow")


def test_point_grammar(circle_file, capsys):
    # --z takes the grammar of eval.z0: re, re,im or auto-jump
    for z in ("1", "1,0", "auto-jump"):
        assert main(["lambda", "--measure", circle_file, "--z", z,
                     "--n", "4"]) == 0
    capsys.readouterr()
    assert main(["lambda", "--measure", circle_file, "--z", "1,2,3",
                 "--n", "4"]) == 2
    err = capsys.readouterr().err
    assert "re,im or auto-jump" in err and "eval.z0" not in err


def test_sweep_subcommand_csv(circle_file, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code = main(["sweep", "--measure", circle_file, "--n-min", "8",
                 "--n-max", "32", "--extrapolate",
                 "--out", str(out_csv)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "extrapolated" in printed
    text = out_csv.read_text()
    assert text.splitlines()[0] == SWEEP_CSV_HEADER
    # deterministic: a second run writes byte-identical output
    out2 = tmp_path / "sweep2.csv"
    main(["sweep", "--measure", circle_file, "--n-min", "8",
          "--n-max", "32", "--extrapolate", "--out", str(out2)])
    capsys.readouterr()
    assert out2.read_text() == text


def test_sweep_far_point_lists_failed_rows(circle_file, tmp_path, capsys):
    # |p_n(1e80)|^2 overflows from n = 2 on: those rows fail, as at a
    # degenerate degree, and are written as nan
    out_csv = tmp_path / "far.csv"
    code = main(["sweep", "--measure", circle_file, "--z", "1e80,0",
                 "--n-min", "1", "--n-max", "8", "--out", str(out_csv)])
    assert code == 0
    assert "failed rows: n in [2, 3, 4, 5, 6, 8]" in capsys.readouterr().err
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    assert [r[0] for r in rows if r[1] == "nan"] == ["2", "3", "4", "5", "6",
                                                     "8"]
    assert float(rows[0][1]) > 0


def test_equilibrium_subcommand_csv(circle_file, tmp_path, capsys):
    out_csv = tmp_path / "density.csv"
    code = main(["equilibrium", "--measure", circle_file,
                 "--samples", "16", "--out", str(out_csv)])
    assert code == 0
    capsys.readouterr()
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == EQUILIBRIUM_CSV_HEADER
    assert EQUILIBRIUM_CSV_HEADER == "t_param,re(z),im(z),density,normal_derivative"
    assert len(lines) == 17
    for line in lines[1:]:
        t, re_z, im_z, dens, dgdn = map(float, line.split(","))
        assert dens == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)
        assert dgdn == pytest.approx(2 * math.pi * dens, rel=1e-12)
        assert math.hypot(re_z, im_z) == pytest.approx(1.0, rel=1e-12)


def test_equilibrium_samples_below_arc_count_is_input_error(tmp_path, capsys):
    # |z^2 - 4| = 1 has two ovals, so it needs at least two samples
    path = tmp_path / "two_ovals.measure"
    path.write_text("support.kind = lemniscate\n"
                    "support.params = -4.0,0.0 0.0,0.0 1.0,0.0\n"
                    "weight.A = 1.0\n")
    out_csv = tmp_path / "density.csv"
    code = main(["equilibrium", "--measure", str(path), "--samples", "1",
                 "--out", str(out_csv)])
    assert code == 2
    assert "samples" in capsys.readouterr().err
    assert not out_csv.exists()
    code = main(["equilibrium", "--measure", str(path), "--samples", "2",
                 "--out", str(out_csv)])
    assert code == 0
    capsys.readouterr()
    assert len(out_csv.read_text().strip().splitlines()) == 3


def test_tall_ellipse_subcommands(tmp_path, capsys):
    path = tmp_path / "tall_ellipse.measure"
    path.write_text("support.kind = ellipse\n"
                    "support.params = 0.75 1.25\n"
                    "weight.A = 2.0\n"
                    "weight.B = 1.0\n"
                    "weight.jump_param = 0.0\n"
                    "eval.z0 = 0.75,0.0\n")
    code = main(["sweep", "--measure", str(path), "--n-min", "8",
                 "--n-max", "16", "--out", str(tmp_path / "sweep.csv")])
    assert code == 0
    out = capsys.readouterr().out
    predicted = float(out.split("predicted_limit = ")[1].splitlines()[0])
    # density 1/(2.5 pi) at the minor vertex of the 1.25 x 0.75 ellipse
    assert predicted == pytest.approx(2.5 * math.pi / math.log(2.0),
                                      rel=1e-14)
    code = main(["equilibrium", "--measure", str(path), "--samples", "8",
                 "--out", str(tmp_path / "density.csv")])
    assert code == 0
    capsys.readouterr()


def test_verify_subcommand_json(capsys):
    code = main(["verify", "--suite", "circle-exact", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "circle-exact"
    assert payload["passed"] is True


def test_python_m_xlab_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli_mod.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "xlab", "verify", "--suite",
                           "circle-exact"], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    assert "suite circle-exact: PASS" in done.stdout


def test_verify_subcommand_failure_exit_code(capsys):
    code = main(["verify", "--suite", "circle-exact", "--tol", "1e-20"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_missing_measure_file_is_input_error(capsys):
    code = main(["lambda", "--measure", "/no/such/file.measure",
                 "--z", "1,0", "--n", "3"])
    assert code == 2
    assert capsys.readouterr().err.strip()


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_measure_file_is_input_error(kind, tmp_path, capsys):
    path = tmp_path / "bad.measure"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"support.kind = circle\nweight.A = \xff\xfe\n")
    code = main(["lambda", "--measure", str(path), "--z", "1,0", "--n", "3"])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_output_directory_is_input_error(circle_file, tmp_path, capsys):
    code = main(["sweep", "--measure", circle_file, "--n-min", "8",
                 "--n-max", "16", "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:")
    assert captured.out == ""  # it failed before the sweep printed anything


def test_failed_sweep_leaves_output_untouched(circle_file, tmp_path, capsys,
                                              monkeypatch):
    def boom(*args, **kwargs):
        raise NumericError("synthetic numeric failure")

    monkeypatch.setattr(cli_mod, "run_sweep", boom)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("kept\n")
    for path in (new, old):
        code = main(["sweep", "--measure", circle_file, "--n-min", "8",
                     "--n-max", "16", "--out", str(path)])
        assert code == 3
    assert not new.exists()
    assert old.read_text() == "kept\n"
    capsys.readouterr()


def test_malformed_measure_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.measure"
    bad.write_text("kind = dodecahedron\n")
    code = main(["lambda", "--measure", str(bad), "--z", "1,0", "--n", "3"])
    assert code == 2
    assert capsys.readouterr().err.strip()


def test_bad_point_argument_is_input_error(uniform_file, capsys):
    code = main(["lambda", "--measure", uniform_file, "--z", "one,two",
                 "--n", "3"])
    assert code == 2
    capsys.readouterr()


def test_numeric_error_exit_code(uniform_file, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericError("synthetic numeric failure")

    monkeypatch.setattr(cli_mod, "christoffel_lambda", boom)
    code = main(["lambda", "--measure", uniform_file, "--z", "1,0",
                 "--n", "3"])
    assert code == 3
    assert "numeric" in capsys.readouterr().err.lower()


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_lambda_nodes_per_degree_is_usage_error(uniform_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lambda", "--measure", uniform_file, "--z", "1,0", "--n", "3",
              "--nodes-per-degree", "8"])
    assert exc.value.code == 2
    assert "--nodes-per-degree" in capsys.readouterr().err
