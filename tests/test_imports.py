"""What the package root exports, what each command loads, and the result records.

numpy loads only for a `scene` of more than 64 samples per arc; scipy and
argparse never."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import conicarcs

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports the CLI, then runs each argument as a command line, in one fresh
# interpreter; prints the exit code (or "-" after the import) and which of
# numpy, scipy, scipy.integrate, dataclasses, inspect, fractions, decimal,
# argparse, gettext, locale, pickle and signal are loaded at that point.
PROBE = """
import contextlib, io, sys
from conicarcs.cli import main

def report(rc):
    watched = ("numpy", "scipy", "scipy.integrate", "dataclasses", "inspect", "fractions",
               "decimal", "argparse", "gettext", "locale", "pickle", "signal")
    print(rc, ",".join(m for m in watched if m in sys.modules))

report("-")
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(line.split())
    report(rc)
"""

# Runs the code in place of {} in a fresh interpreter; report(rc) prints rc and
# the conicarcs submodules loaded at that point, without their package prefix.
LOADED = """
import contextlib, io, sys

def report(rc):
    print(rc, *sorted(m.removeprefix("conicarcs.") for m in sys.modules
                      if m.startswith("conicarcs.")))

{}
"""

# (command line, exit code, modules loaded after it); each runs after the ones before.
# Lengths come from the pure-Python QUADPACK port, so no command loads scipy.
# The CLI parses its flags without argparse, so neither it nor gettext and locale load.
# No command loads pickle: a sweep split over processes sends its rows in marshal's
# format, and only such a sweep loads signal; this one's 6 cells run serially.
STEPS = [
    ("--help", 0, ""),
    ("construct --l 1 --f 0.25 --e 0.5", 0, ""),
    ("centre --leg2 4 --leg3 3", 0, ""),
    ("arclen --l 1 --f 0.9 --e 2", 3, ""),  # infeasible: rejected before any length
    ("arclen --l 1 --f 0.125 --e 1", 0, ""),
    ("verify --leg2 4 --leg3 3 --e 0.5 --k 8", 0, ""),
    ("sweep --leg2 3 --leg3 4 --e-list 0,1,2 --k-list 4,8", 0, ""),
    ("oracle --l 1 --f 0.125 --e 1 --n 64", 0, ""),  # the polyline is pure Python too
    ("scene --leg2 4 --leg3 3 --e 1 --k 8", 0, ""),  # 64 samples: the arcs are pure Python
    ("scene --leg2 4 --leg3 3 --e 1 --k 8 --samples 1024", 0, "numpy"),  # the only load
]


def _run(code, *argv):
    """Standard output of a fresh interpreter that runs code with src/ on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True).stdout


def test_cli_loads_numpy_and_scipy_only_when_needed():
    out = _run(PROBE, *(line for line, _, _ in STEPS))
    got = [line.split(" ") for line in out.splitlines()]
    # conicarcs loads neither dataclasses nor inspect; numpy may import inspect and
    # pickle itself
    by_numpy = ("inspect", "pickle")
    assert all(m not in loaded or "numpy" in loaded for _, loaded in got for m in by_numpy)
    # the homothety computes in plain int: no command loads fractions or decimal
    assert not any(m in loaded.split(",") for _, loaded in got for m in ("fractions", "decimal"))
    expected = [["-", ""]] + [[str(rc), loaded] for _, rc, loaded in STEPS]
    assert [[rc, ",".join(m for m in loaded.split(",") if m not in by_numpy)]
            for rc, loaded in got] == expected


# Checks that are not part of the workflow (closed forms, the polyline and the
# canonical residual) are imported from conicarcs.oracle.
ROOT_NAMES = {
    "ArcLengthResult", "arc_length", "g_factor",
    "ConicArc", "ConicClass", "classify", "construct_arc", "feasibility_min_k", "sample_points",
    "ConicError", "InfeasibleSagitta", "QuadratureNonConvergence",
    "HomothetyReport", "PlanarTriangle", "Point", "altitude_from_right_angle",
    "enveloping_triangle", "homothety_ratio", "place_triangle", "pythagorean_centre",
    "verify_homothety",
    "Scene", "build_scene", "scene_to_json", "scene_to_svg",
    "ConicTriple", "SweepRow", "conic_triple", "make_right_triangle", "sweep", "sweep_csv",
}


def test_package_root_exports_what_callers_use():
    public = {name for name in dir(conicarcs)
              if not name.startswith("_") and not isinstance(getattr(conicarcs, name),
                                                               types.ModuleType)}
    assert set(conicarcs.__all__) == public == ROOT_NAMES and len(ROOT_NAMES) == 31
    for name in ROOT_NAMES:
        value = getattr(conicarcs, name)
        assert value is getattr(sys.modules[value.__module__], name)
        assert value.__module__.startswith("conicarcs.")
    with pytest.raises(AttributeError, match="has no attribute 'polyline_length'"):
        conicarcs.polyline_length  # noqa: B018  # an independent check, not a root name


def test_package_root_loads_no_submodule():
    out = _run(LOADED.format("import conicarcs\nreport('-')\n"
                             "from conicarcs import homothety\nreport('-')"))
    # perfbench imports modules through the root: `from conicarcs import homothety`
    assert out.splitlines() == ["-", "- errors homothety textfmt"]


# Each command in its own fresh interpreter: the conicarcs submodules that it
# loads besides the CLI's own cli, errors and textfmt.
COMMAND_LOADS = [
    ("construct --l 1 --f 0.25 --e 0.5", 0, "conic"),
    ("centre --leg2 4 --leg3 3", 0, "homothety"),
    ("arclen --l 1 --f 0.9 --e 2", 3, "arclength conic"),  # infeasible: no quadrature
    ("arclen --l 1 --f 0.125 --e 1", 0, "arclength conic quadpack"),
    ("verify --leg2 4 --leg3 3 --e 0.5 --k 8", 0, "arclength conic homothety quadpack triples"),
    ("sweep --leg2 3 --leg3 4 --e-list 0,1,2 --k-list 4,8", 0,
     "arclength conic homothety quadpack triples"),
    ("oracle --l 1 --f 0.125 --e 1 --n 64", 0, "arclength conic oracle quadpack"),
    ("scene --leg2 4 --leg3 3 --e 1 --k 8", 0, "conic homothety scene"),
]


@pytest.mark.parametrize("line, rc, loaded", COMMAND_LOADS,
                         ids=[f"{line.split()[0]}-exit{rc}" for line, rc, _ in COMMAND_LOADS])
def test_each_command_loads_only_what_it_runs(line, rc, loaded):
    code = LOADED.format("from conicarcs.cli import main\n"
                         "with contextlib.redirect_stdout(io.StringIO()), "
                         "contextlib.redirect_stderr(io.StringIO()):\n"
                         "    rc = main(sys.argv[1:])\n"
                         "report(rc)")
    expected = [str(rc), *sorted(f"cli errors textfmt {loaded}".split())]
    assert _run(code, *line.split()).split() == expected


# Result records are named tuples: positional and keyword construction, tuple
# equality and indexing, ``_replace``/``_fields`` in place of ``dataclasses``.
RECORDS = {
    "ArcLengthResult": ("length", "error_estimate", "evaluations"),
    "ConicTriple": ("e", "k", "arcs", "lengths", "residual"),
    "SweepRow": ("e", "k", "feasible", "c1", "c2", "c3", "residual", "g"),
    "HomothetyReport": ("centre", "ratio", "enveloping", "max_deviation"),
    "ConicArc": ("conic_class", "e", "l", "f", "k", "a", "b", "c_focal", "m", "p", "s",
                 "beta", "alpha"),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_result_records_are_named_tuples(name):
    record, fields = getattr(conicarcs, name), RECORDS[name]
    assert record._fields == fields
    values = tuple(float(i) for i in range(len(fields)))
    rec = record(**dict(zip(fields, values)))
    assert rec == record(*values) == values and tuple(rec) == values
    assert [getattr(rec, f) for f in fields] == list(values)
    assert rec._replace(**{fields[0]: -1.0}) == (-1.0, *values[1:])
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], -1.0)
    assert record._field_defaults == (
        dict.fromkeys(fields[3:]) if name == "SweepRow" else {})


def test_record_defaults_and_repr():
    assert conicarcs.SweepRow(0.0, 4.0, False) == (0.0, 4.0, False, None, None, None, None, None)
    res = conicarcs.ArcLengthResult(length=1.5, error_estimate=1e-15, evaluations=21)
    assert repr(res) == "ArcLengthResult(length=1.5, error_estimate=1e-15, evaluations=21)"
    arc = conicarcs.construct_arc(l=1.0, f=0.25, e=0.5)
    assert repr(conicarcs.arc_length(arc)).startswith("ArcLengthResult(length=1.15607")
    # the library builds the records it returns with tuple.__new__, not the named tuple's
    # constructor: each must still be its exact type, with every field, printed alike
    tri = conicarcs.make_right_triangle(3.0, 4.0)
    assert repr(arc) == (
        "ConicArc(conic_class=<ConicClass.ELLIPSE: 'ellipse'>, e=0.5, l=1.0, f=0.25, k=4.0, "
        "a=0.7916666666666666, b=0.6856034446626805, c_focal=0.3958333333333333, "
        "m=0.5416666666666666, p=0.59375, s=0.14583333333333331, beta=1.2870022175865687, "
        "alpha=0.7454194762741583)")
    triple = conicarcs.conic_triple(tri, 1.0, 8.0)
    infeasible, feasible = conicarcs.sweep(tri, [2.0], [3.0, 4.0])
    assert repr(infeasible) == ("SweepRow(e=2.0, k=3.0, feasible=False, c1=None, c2=None, "
                                "c3=None, residual=None, g=None)")
    assert repr(feasible).startswith("SweepRow(e=2.0, k=4.0, feasible=True, c1=5.61914990351")
    records = [(arc, "ConicArc"), (conicarcs.arc_length(arc), "ArcLengthResult"),
               (triple, "ConicTriple"), *((a, "ConicArc") for a in triple.arcs),
               (infeasible, "SweepRow"), (feasible, "SweepRow")]
    for rec, name in records:
        record = getattr(conicarcs, name)
        assert type(rec) is record and len(rec) == len(record._fields) == len(RECORDS[name])
        assert repr(rec) == repr(record(*rec)) and rec == record(*rec)
        assert rec._asdict() == dict(zip(RECORDS[name], rec))
