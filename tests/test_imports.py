"""What the package root exports; numpy and scipy load only when a command needs them."""

import os
import subprocess
import sys
import types
from pathlib import Path

import conicarcs

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports the CLI, then runs each argument as a command line, in one fresh
# interpreter; prints the exit code (or "-" after the import) and which of
# numpy, scipy and scipy.integrate are loaded at that point.
PROBE = """
import contextlib, io, sys
from conicarcs.cli import main

def report(rc):
    print(rc, ",".join(m for m in ("numpy", "scipy", "scipy.integrate") if m in sys.modules))

report("-")
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(line.split())
    report(rc)
"""

# (command line, exit code, modules loaded after it); each runs after the ones before
STEPS = [
    ("construct --l 1 --f 0.25 --e 0.5", 0, ""),
    ("centre --leg2 4 --leg3 3", 0, ""),
    ("arclen --l 1 --f 0.9 --e 2", 3, ""),  # infeasible: rejected before any length
    ("scene --leg2 4 --leg3 3 --e 1 --k 8", 0, "numpy"),
    ("arclen --l 1 --f 0.125 --e 1", 0, "numpy,scipy"),  # QUADPACK alone, not scipy.integrate
    ("verify --leg2 4 --leg3 3 --e 0.5 --k 8", 0, "numpy,scipy"),
]


def test_cli_loads_numpy_and_scipy_only_when_needed():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE, *(line for line, _, _ in STEPS)],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                         text=True, check=True).stdout
    expected = ["- "] + [f"{rc} {loaded}" for _, rc, loaded in STEPS]
    assert out.splitlines() == expected


# Checks that are not part of the workflow (closed forms, the polyline and the
# canonical residual) are imported from their modules.
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
    public = {name for name, value in vars(conicarcs).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == ROOT_NAMES and len(ROOT_NAMES) == 31
