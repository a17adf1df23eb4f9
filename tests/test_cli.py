"""Command dispatch, exit codes, output formats, and determinism."""

import json

import pytest
from pytest import approx

from conicarcs import construct_arc
from conicarcs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_emits_json_arc(capsys):
    code, out, _ = run(capsys, "construct", "--l", "1", "--f", "0.25", "--e", "0.5")
    assert code == 0
    data = json.loads(out)
    arc = construct_arc(1.0, 0.25, 0.5)
    assert data["class"] == "ellipse"
    assert data["a"] == arc.a and data["b"] == arc.b
    assert data["beta"] == arc.beta
    assert data["k"] == 4.0


def test_construct_parabola_nulls(capsys):
    code, out, _ = run(capsys, "construct", "--l", "1", "--f", "0.125", "--e", "1")
    assert code == 0
    data = json.loads(out)
    assert data["a"] is None and data["alpha"] is None
    assert data["p"] == 1.0


def test_construct_infeasible_exit_3_names_bound(capsys):
    code, out, err = run(capsys, "construct", "--l", "1", "--f", "0.6", "--e", "0")
    assert code == 3
    assert out == ""
    assert "f < l/2" in err


def test_arclen_output(capsys):
    code, out, _ = run(capsys, "arclen", "--l", "1", "--f", "0.125", "--e", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("length=")
    assert float(lines[0].split("=")[1]) == approx(1.0402288194345509, rel=1e-12)
    assert lines[1].startswith("error_estimate=")
    assert lines[2].startswith("evaluations=")


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--leg2", "3", "--leg3", "4", "--e", "1", "--k", "8")
    assert code == 0
    values = dict(line.split("=") for line in out.splitlines())
    assert float(values["residual"]) < 1e-10
    assert float(values["c1"]) == approx(5.0 * 1.0402288194345509, rel=1e-11)


def test_verify_fail_exit_2(capsys):
    code, out, _ = run(capsys, "verify", "--leg2", "3", "--leg3", "4", "--e", "1", "--k", "8",
                       "--threshold", "0")
    assert code == 2
    assert "residual=" in out


def test_verify_infeasible_exit_3(capsys):
    code, _, err = run(capsys, "verify", "--leg2", "3", "--leg3", "4", "--e", "2", "--k", "3")
    assert code == 3
    assert "infeasible" in err


def test_verify_zero_k_exit_3_not_crash(capsys):
    code, _, err = run(capsys, "verify", "--leg2", "3", "--leg3", "4", "--e", "1", "--k", "0")
    assert code == 3
    assert "infeasible" in err


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--leg2", "3", "--leg3", "4",
                       "--e-list", "0,1", "--k-list", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "e,k,feasible,c1,c2,c3,residual,g"
    assert len(lines) == 3
    assert lines[1].startswith("0,8,true,")
    assert lines[2].startswith("1,8,true,")


def test_sweep_infeasible_cells(capsys):
    code, out, _ = run(capsys, "sweep", "--leg2", "3", "--leg3", "4",
                       "--e-list", "2", "--k-list", "3,4")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "2,3,false,,,,,"
    assert lines[2].startswith("2,4,true,")


def test_scene_svg_and_json(capsys):
    code, svg, _ = run(capsys, "scene", "--leg2", "4", "--leg3", "3", "--e", "1", "--k", "8")
    assert code == 0
    assert svg.startswith("<?xml")
    assert svg.count("<path") == 7
    code, js, _ = run(capsys, "scene", "--leg2", "4", "--leg3", "3", "--e", "1", "--k", "8",
                      "--format", "json", "--samples", "10")
    assert code == 0
    data = json.loads(js)
    assert len(data["arc2"]) == 11


def test_centre_output(capsys):
    code, out, _ = run(capsys, "centre", "--leg2", "4", "--leg3", "3", "--k-list", "4,8")
    assert code == 0
    lines = out.splitlines()
    assert float(lines[0].split("=")[1]) == 0.72
    assert float(lines[1].split("=")[1]) == 0.96
    assert lines[2].startswith("k=4 ratio=")
    assert lines[3].startswith("k=8 ratio=")
    ratio = float(lines[3].split("ratio=")[1].split()[0])
    assert ratio == approx(1.5208333333333333, rel=1e-13)


def test_centre_invalid_k_prints_nothing(capsys):
    code, out, err = run(capsys, "centre", "--leg2", "4", "--leg3", "3", "--k-list", "4,0")
    assert code == 1
    assert out == ""
    assert "error" in err


def test_oracle_table(capsys):
    code, out, _ = run(capsys, "oracle", "--l", "1", "--f", "0.125", "--e", "1", "--n", "1000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "method,value,rel_gap_vs_quadrature"
    methods = [line.split(",")[0] for line in lines[1:]]
    assert methods == ["quadrature", "polyline", "closed_form"]
    gap = float(lines[3].split(",")[2])
    assert gap < 1e-11


def test_oracle_no_closed_form_for_ellipse(capsys):
    code, out, _ = run(capsys, "oracle", "--l", "1", "--f", "0.25", "--e", "0.5", "--n", "1000")
    assert code == 0
    methods = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert methods == ["quadrature", "polyline"]


def test_usage_error_exit_1(capsys):
    assert run(capsys, "construct", "--l", "1")[0] == 1          # missing flags
    assert run(capsys, "bogus")[0] == 1                          # unknown command
    assert run(capsys, "construct", "--l", "nan", "--f", "0.1", "--e", "0")[0] == 1
    assert run(capsys, "arclen", "--l", "1", "--f", "0.25", "--e", "0.5",
               "--rel-tol", "1e-6")[0] == 1                       # removed flag


def test_negative_eccentricity_exit_1(capsys):
    code, _, err = run(capsys, "construct", "--l", "1", "--f", "0.25", "--e", "-1")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "--l", "1", "--f", "0.25", "--e", "0.5"),
        ("arclen", "--l", "1", "--f", "0.125", "--e", "1"),
        ("verify", "--leg2", "3", "--leg3", "4", "--e", "1", "--k", "8"),
        ("sweep", "--leg2", "3", "--leg3", "4", "--e-list", "0,0.7,2", "--k-list", "3,8"),
        ("scene", "--leg2", "4", "--leg3", "3", "--e", "1", "--k", "8"),
        ("scene", "--leg2", "4", "--leg3", "3", "--e", "1", "--k", "8", "--format", "json"),
        ("centre", "--leg2", "4", "--leg3", "3"),
        ("oracle", "--l", "1", "--f", "0.125", "--e", "0", "--n", "2000"),
    ],
)
def test_repeated_invocations_byte_identical(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
