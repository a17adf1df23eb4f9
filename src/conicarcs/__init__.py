"""Conic arcs on right-triangle sides: construction, lengths, and homothety.

Erect the unique symmetric conic arc of a given eccentricity on each side of
a right triangle, with every sagitta the same fixed fraction of its side.
The arc lengths then satisfy c1^2 = c2^2 + c3^2, and the enveloping triangles
through the sagitta tips are homothetic about one fixed centre.  This package
computes the arcs, their lengths (adaptive quadrature of the polar form),
the identity's residuals over (e, k) sweeps, the envelopes and their common
centre, and renders scenes to SVG/JSON.
"""

from .arclength import ArcLengthResult, arc_length, g_factor
from .conic import ConicArc, ConicClass, classify, construct_arc, feasibility_min_k, sample_points
from .errors import ConicError, InfeasibleSagitta, QuadratureNonConvergence
from .homothety import (
    HomothetyReport,
    PlanarTriangle,
    Point,
    altitude_from_right_angle,
    enveloping_triangle,
    homothety_ratio,
    place_triangle,
    pythagorean_centre,
    verify_homothety,
)
from .scene import Scene, build_scene, scene_to_json, scene_to_svg
from .triples import ConicTriple, SweepRow, conic_triple, make_right_triangle, sweep, sweep_csv

__version__ = "0.1.0"
