"""Conic arcs on right-triangle sides: construction, lengths, and homothety.

Erect the unique symmetric conic arc of a given eccentricity on each side of
a right triangle, with every sagitta the same fixed fraction of its side.
The arc lengths then satisfy c1^2 = c2^2 + c3^2, and the enveloping triangles
through the sagitta tips are homothetic about one fixed centre.  This package
computes the arcs, their lengths (adaptive quadrature of the polar form),
the identity's residuals over (e, k) sweeps, the envelopes and their common
centre, and renders scenes to SVG/JSON.
"""

__version__ = "0.1.0"

# Each exported name and its home module.  `import conicarcs` loads no
# submodule: the first access of a name imports its module (PEP 562).
_HOMES = {name: module for module, names in {
    "arclength": "ArcLengthResult arc_length g_factor",
    "conic": "ConicArc ConicClass classify construct_arc feasibility_min_k sample_points",
    "errors": "ConicError InfeasibleSagitta QuadratureNonConvergence",
    "homothety": "HomothetyReport PlanarTriangle Point altitude_from_right_angle "
                 "enveloping_triangle homothety_ratio place_triangle pythagorean_centre "
                 "verify_homothety",
    "scene": "Scene build_scene scene_to_json scene_to_svg",
    "triples": "ConicTriple SweepRow conic_triple make_right_triangle sweep sweep_csv",
}.items() for name in names.split()}

__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__():
    return sorted(globals().keys() | set(__all__))
