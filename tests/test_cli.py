"""Command dispatch, exit codes, output formats, and determinism."""

import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from pytest import approx

from conicarcs import cli, construct_arc
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


def test_arclen_just_below_the_exact_limit_exit_3(capsys):
    # k is below 2 sqrt(1 - e^2) = 0.003999997999945989..., but above the limit
    # that 1 - e*e in floats gives
    code, out, err = run(capsys, "arclen", "--l", "0.003999997999934722", "--f", "1",
                         "--e", "0.999998")
    assert (code, out) == (3, "")
    assert "must exceed 0.0039999979999459888" in err


def test_scene_too_few_samples_exit_1_names_samples(capsys):
    code, out, err = run(capsys, "scene", "--leg2", "4", "--leg3", "3", "--e", "1", "--k", "8",
                         "--samples", "0")
    assert (code, out, err) == (1, "", "conicarcs: error: need samples >= 2 per arc, got 0\n")


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


@pytest.mark.parametrize("legs", [("3e170", "4e170"), ("3e-170", "4e-170")])
def test_verify_residual_at_float_range_ends(capsys, legs):
    # squaring lengths near 1e170 overflows and near 1e-170 underflows to 0
    code, out, _ = run(capsys, "verify", "--leg2", legs[0], "--leg3", legs[1],
                       "--e", "1", "--k", "8")
    assert code == 0
    assert float(dict(line.split("=") for line in out.splitlines())["residual"]) < 1e-10


def test_sweep_residual_with_legs_far_apart(capsys):
    code, out, _ = run(capsys, "sweep", "--leg2", "2.6316502917382712e+172",
                       "--leg3", "1.1986423241946675e-278", "--e-list", "2",
                       "--k-list", "548553.6234063043")
    assert code == 0
    row = dict(zip(*(line.split(",") for line in out.splitlines())))
    assert float(row["residual"]) < 1e-10


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


# the exact stdout of centre: a refactor of the envelope must not move a digit;
# centre and ratio are their exact values rounded once, and max_deviation is the
# output rounding of the envelope's vertices
@pytest.mark.parametrize("argv, stdout", [
    (("--leg2", "4", "--leg3", "3"),
     "centre_x=0.71999999999999997\n"
     "centre_y=0.95999999999999996\n"
     "k=4 ratio=2.0416666666666665 max_deviation=2.9605947323337506e-16\n"
     "k=8 ratio=1.5208333333333333 max_deviation=2.9605947323337506e-16\n"
     "k=16 ratio=1.2604166666666667 max_deviation=2.9605947323337506e-16\n"),
    (("--leg2", "1000", "--leg3", "0.01", "--k-list", "1e5"),
     "centre_x=4.9999999995000002e-08\n"
     "centre_y=0.0049999999994999999\n"
     "k=100000 ratio=3.0000000002 max_deviation=1.0641200134615491e-13\n"),
], ids=["default-k-list", "skinny"])
def test_centre_digits_pinned(capsys, argv, stdout):
    assert run(capsys, "centre", *argv) == (0, stdout, "")


# the squares of these legs leave the float range; centre and ratio are the
# roundings of their exact values
def test_centre_digits_where_squares_underflow(capsys):
    code, out, err = run(capsys, "centre", "--leg2", "1e-160", "--leg3", "3e-161", "--k-list", "8")
    assert (code, err) == (0, "")
    assert out.startswith("centre_x=4.1284403669724769e-162\n"
                          "centre_y=1.3761467889908256e-161\n"
                          "k=8 ratio=1.9083333333333334 max_deviation=")


def test_scene_centre_where_squares_overflow(capsys):
    code, out, _ = run(capsys, "scene", "--leg2", "1e154", "--leg3", "1.1e154", "--e", "1",
                       "--k", "8", "--format", "json")
    assert code == 0
    assert '  "centre": [[2.7375565610859731e+153, 2.4886877828054299e+153]]\n' in out


ENVELOPE_OUT_OF_RANGE = "envelope vertex or side is out of the float range"


# each true result is beyond the float range: ratio*l1, the envelope's hypotenuse,
# is about 5.7e310, 2e310 (the ratio itself), 5.7e308, 2.1e308 (its vertices still
# fit), 7.5e308 (the squares of its legs overflow) and 2.8e308 (the ratio is 2)
@pytest.mark.parametrize("argv, quantity", [
    (("centre", "--leg2", "1e300", "--leg3", "1e300", "--k-list", "1e-10"),
     ENVELOPE_OUT_OF_RANGE),
    (("centre", "--leg2", "1", "--leg3", "1e-300", "--k-list", "1e-10"),
     "ratio 1 + (l1^2 + l2^2 + l3^2)/(2 k area) is out of the float range"),
    (("scene", "--leg2", "1e300", "--leg3", "1e300", "--e", "1", "--k", "1e-8"),
     ENVELOPE_OUT_OF_RANGE),
    (("centre", "--leg2", "1e300", "--leg3", "1e300", "--k-list", "2.67e-8"),
     ENVELOPE_OUT_OF_RANGE),
    (("centre", "--leg2", "1e154", "--leg3", "1.1e154", "--k-list", "8e-155"),
     ENVELOPE_OUT_OF_RANGE),
    (("centre", "--leg2", "1e308", "--leg3", "1e308"), ENVELOPE_OUT_OF_RANGE),
], ids=["deviation", "ratio", "envelope-vertex", "altitude-foot", "deviation-squares-overflow",
        "ratio-fits"])
def test_envelope_out_of_float_range_exit_1(capsys, argv, quantity):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("conicarcs: error: ") and quantity in err


# where a product of coordinates leaves the float range but the envelope does not;
# the ratio is its exact value 1 + 2 (l2^2 + l3^2) / (k l2 l3), rounded once
@pytest.mark.parametrize("legs, k_list", [
    (("1e-200", "1e-200"), "4,8,16"),
    (("1e150", "1e200"), "4,8,16"),
    (("1e154", "1.1e154"), "8"),
    (("1.22e-269", "1.04e-51"), "0.153"),
    (("2.263083168341919e-95", "2.2727600055584334e-243"), "4.744786136076355e-143"),
    (("2.0637662528914005e-198", "2.7345506905916405e-208"), "2.4954549189704416e-116"),
], ids=["tiny", "squares-overflow", "hypotenuse-square-overflows", "skinny",
        "k-h1-underflows", "k-h1-subnormal"])
def test_centre_answers_wherever_the_envelope_fits(capsys, legs, k_list):
    code, out, err = run(capsys, "centre", "--leg2", legs[0], "--leg3", legs[1], "--k-list", k_list)
    assert (code, err) == (0, "")
    l1 = math.hypot(*map(float, legs))
    l2, l3 = (Fraction(float(leg)) for leg in legs)
    reports = re.findall(r"^k=(\S+) ratio=(\S+) max_deviation=(\S+)$", out, flags=re.M)
    assert len(reports) == len(k_list.split(","))
    for k, ratio, deviation in reports:
        exact = 1 + 2 * (l2 * l2 + l3 * l3) / (Fraction(float(k)) * l2 * l3)
        assert float(ratio) == float(exact)
        assert float(deviation) <= 64 * sys.float_info.epsilon * float(ratio) * l1


def test_centre_ratios_of_a_tiny_triangle(capsys):
    _, out, _ = run(capsys, "centre", "--leg2", "1e-200", "--leg3", "1e-200")
    assert re.findall(r"ratio=(\S+)", out) == ["2", "1.5", "1.25"]


def test_arclen_integrand_pole_at_a_node_exit_1(capsys):
    # k one ulp above 2 sqrt(e^2 - 1): 1 + e cos(theta) rounds to 0 at a QUADPACK node
    code, out, err = run(capsys, "arclen", "--l", "0.8193141995619333",
                         "--f", "0.4497990671475703", "--e", "1.3525812688823207")
    assert (code, out) == (1, "")
    assert err.startswith("conicarcs: error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("centre",), ("verify", "--e", "1", "--k", "8"), ("scene", "--e", "1", "--k", "8"),
], ids=["centre", "verify", "scene"])
def test_hypotenuse_beyond_float_range_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv, "--leg2", "1e308", "--leg3", "1.5e308")
    assert (code, out) == (1, "")
    assert err.startswith("conicarcs: error: triangle side is out of the float range: l1=inf")
    assert "Traceback" not in err


# legs at opposite ends of the float range: a product of their coordinates once
# raised OverflowError, which is not a ValueError and escaped main as a traceback
@pytest.mark.parametrize("legs, k", [
    (("2.505949602059389e+295", "3.5e-323"), "14.413404039972242"),
    (("2e-323", "8.015632967165127e+307"), "1.7580264592430306e+226"),
], ids=["long-leg2", "long-leg3"])
def test_scene_legs_at_both_float_range_ends_exit_1(capsys, legs, k):
    code, out, err = run(capsys, "scene", "--leg2", legs[0], "--leg3", legs[1], "--e", "1",
                         "--k", k)
    assert (code, out) == (1, "")
    assert err.startswith("conicarcs: error: ") and "Traceback" not in err


# a MemoryError, which is not a ValueError, exits 1 from any command; only a huge
# --samples can still make numpy refuse an allocation.  Patched here, so that no
# test asks for the memory
@pytest.mark.parametrize("module, name, argv", [
    ("oracle", "polyline_length", ("oracle", "--l", "1", "--f", "0.1", "--e", "1")),
    ("scene", "sample_points",  # above the 64 samples that the pure-Python arcs take
     ("scene", "--leg2", "4", "--leg3", "3", "--e", "1", "--k", "8", "--samples", "1024")),
], ids=["oracle", "scene"])
def test_memory_error_exit_1(capsys, monkeypatch, module, name, argv):
    message = "Unable to allocate 745. GiB for an array"

    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(f"conicarcs.{module}.{name}", refuse)
    assert run(capsys, *argv) == (1, "", f"conicarcs: error: {message}\n")


def test_empty_list_flag_exit_1(capsys):
    code, out, err = run(capsys, "centre", "--leg2", "4", "--leg3", "3", "--k-list", ",")
    assert (code, out) == (1, "")
    assert "expected a comma-separated list of numbers" in err


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


# -- parse rules ---------------------------------------------------------------

VERIFY = ("verify", "--leg2", "3", "--leg3", "4", "--e", "1", "--k", "8")


def test_flag_value_spaced_or_after_equals(capsys):
    spaced = run(capsys, *VERIFY)
    assert spaced[0] == 0
    assert run(capsys, "verify", "--leg2=3", "--leg3=4", "--e=1", "--k=8") == spaced


def test_unique_prefix_names_a_flag(capsys):
    code, out, _ = run(capsys, "sweep", "--leg2", "3", "--leg3", "4", "--e", "0,1", "--k", "4,8")
    assert code == 0
    assert out == run(capsys, "sweep", "--leg2", "3", "--leg3", "4", "--e-list", "0,1",
                      "--k-list", "4,8")[1]


def test_exact_flag_name_wins_over_a_longer_flag():
    # no command has a flag that prefixes another, so the rule is checked on its own
    assert cli._flag("--e", ["--e", "--e-list", "--help"]) == "--e"
    assert cli._flag("--e-", ["--e", "--e-list", "--help"]) == "--e-list"


def test_ambiguous_prefix_exit_1(capsys):
    assert run(capsys, "verify", "--leg", "3", "--leg3", "4", "--e", "1", "--k", "8") == (
        1, "", "conicarcs: error: ambiguous option: --leg could match --leg2, --leg3\n")


def test_repeated_flag_keeps_its_last_value(capsys):
    assert run(capsys, "verify", "--leg2", "3", "--leg2", "5", "--leg3", "4", "--e", "1",
               "--k", "8") == run(capsys, "verify", "--leg2", "5", "--leg3", "4", "--e", "1",
                                  "--k", "8")


# the token after a flag is its value even when it reads like a flag
@pytest.mark.parametrize("k", ["-1.5", "-1e5"])
def test_negative_value_after_a_flag(capsys, k):
    code, out, err = run(capsys, *VERIFY[:-1], k)
    assert (code, out) == (3, "")
    assert err.startswith("conicarcs: infeasible: k = l/f = -")


def test_usage_error_exit_1(capsys):
    """A line that does not parse exits 1 with one line on stderr, none on stdout."""
    for argv in [
        ("construct", "--l", "1"),                                   # missing flags
        ("bogus",),                                                  # unknown command
        ("construct", "--l", "nan", "--f", "0.1", "--e", "0"),
        ("arclen", "--l", "1", "--f", "0.25", "--e", "0.5", "--rel-tol", "1e-6"),  # removed
        (),
        ("construct", "--l", "x", "--f", "0.1", "--e", "0"),
        ("scene", "--leg2", "4", "--leg3", "3", "--e", "1", "--k", "8", "--samples", "1.5"),
        ("scene", "--leg2", "4", "--leg3", "3", "--e", "1", "--k", "8", "--format", "pdf"),
        (*VERIFY, "--threshold"),                                    # no value
        (*VERIFY, "--"),
        ("--help=1",),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert re.fullmatch("conicarcs: error: [^\n]+\n", err), argv


@pytest.mark.parametrize("argv", [("--help",), ("-h",), ("--he",), ("-h", "verify"),
                                  ("--bogus", "--help")])
def test_help_lists_every_command(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: conicarcs <command> [flags]\n")
    for command in ("construct", "arclen", "verify", "sweep", "scene", "centre", "oracle"):
        assert f"\nconicarcs {command} --" in out


@pytest.mark.parametrize("argv", [("verify", "--help"), ("verify", "-h"), (*VERIFY, "--help"),
                                  ("verify", "--bogus", "--h")])
def test_command_help(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: conicarcs verify --leg2 X --leg3 X --e X --k X "
                          "[--threshold X]\n  --threshold defaults to 1e-8\n")


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


# -- contract fuzz --------------------------------------------------------------

NON_FINITE = re.compile(r"(?<![a-z])(nan|inf)(?![a-z])", re.IGNORECASE)
ONE_BELOW, ONE_ABOVE = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)


def fuzz_number(rng: random.Random) -> float:
    """A length or ratio anywhere from 5e-324 to 1.7e308, sometimes 0 or negative."""
    u = rng.random()
    if u < 0.04:
        return 0.0
    x = 2.0 ** rng.uniform(-1074.0, 1023.99) if u < 0.5 else rng.uniform(0.1, 10.0)
    return -x if u > 0.96 else x


def fuzz_eccentricity(rng: random.Random) -> float:
    return rng.choice([0.0, 1.0, ONE_BELOW, ONE_ABOVE, rng.uniform(0.0, 3.0),
                       fuzz_number(rng)])


def fuzz_line(rng: random.Random) -> list[str]:
    """One command line of a random subcommand, every required flag present."""
    def num(): return repr(fuzz_number(rng))
    def ecc(): return repr(fuzz_eccentricity(rng))
    def nums(): return ",".join(num() for _ in range(rng.randint(1, 4)))
    def count(): return str(rng.choice([2, 3, 8, 100]))

    arc = {"l": num, "f": num, "e": ecc}
    legs = {"leg2": num, "leg3": num}
    flags = {
        "construct": arc,
        "arclen": arc,
        "verify": {**legs, "e": ecc, "k": num},
        "sweep": {**legs, "e-list": lambda: ",".join(ecc() for _ in range(rng.randint(1, 4))),
                  "k-list": nums},
        "scene": {**legs, "e": ecc, "k": num, "samples": count,
                  "format": lambda: rng.choice(["svg", "json"])},
        "centre": {**legs, "k-list": nums},
        "oracle": {**arc, "n": count},
    }
    command = rng.choice(sorted(flags))
    # --flag=value, so that a negative value such as -5e-324 is not read as a flag
    return [command] + [f"--{name}={value()}" for name, value in flags[command].items()]


@pytest.mark.filterwarnings("error")
def test_contract_holds_on_fuzzed_command_lines(capsys):
    """Exit code 0-3, no escaping exception, finite numbers on success, no
    stdout on error and a refusal that names the quantity it refuses, for 300
    seeded command lines over all seven subcommands."""
    rng = random.Random("cli contract")
    broken = []
    for _ in range(300):
        argv = fuzz_line(rng)
        try:
            code = main(argv)
        except BaseException as exc:  # SystemExit included: any escape breaks the contract
            capsys.readouterr()
            broken.append((argv, f"raised {type(exc).__name__}: {exc}"))
            continue
        out, err = capsys.readouterr()
        if code not in (0, 1, 2, 3):
            broken.append((argv, f"exit {code}"))
        elif code == 0 and NON_FINITE.search(out):
            broken.append((argv, "non-finite number on stdout"))
        elif code in (1, 3) and out:
            broken.append((argv, f"exit {code} with stdout"))
        elif code == 1 and "point components must be finite" in err:
            broken.append((argv, "a refusal that names no quantity"))
    assert not broken
