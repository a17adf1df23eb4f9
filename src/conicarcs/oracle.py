"""Independent checks on arcs and their lengths.

Closed-form lengths of the circle and the parabola, the brute-force polyline
length, and the canonical conic equation at a point.  No library code calls
them: the ``oracle`` command and the tests compare the library against them.
"""

from __future__ import annotations

import math

from .conic import ConicArc, ConicClass, sample_points
from .errors import ConicError

__all__ = ["closed_form_circle", "closed_form_parabola", "polyline_length", "canonical_residual"]


def closed_form_circle(arc: ConicArc) -> float:
    """Exact circular arc length 2 R asin(l / 2R) = 2 R beta."""
    if arc.conic_class is not ConicClass.CIRCLE:
        raise ConicError(f"expected a circle, got {arc.conic_class.value}")
    R = arc.a
    return 2.0 * R * math.asin(arc.l / (2.0 * R))


def closed_form_parabola(arc: ConicArc) -> float:
    """Exact parabolic arc length from the Cartesian sqrt(1 + y'^2) antiderivative.

    For y = f (1 - 4 x^2 / l^2) over [-l/2, l/2] this reduces to
    p * (u sqrt(1 + u^2) + asinh(u)) with u = 4/k.
    """
    if arc.conic_class is not ConicClass.PARABOLA:
        raise ConicError(f"expected a parabola, got {arc.conic_class.value}")
    u = 4.0 / arc.k
    return arc.p * (u * math.sqrt(1.0 + u * u) + math.asinh(u))


def polyline_length(arc: ConicArc, n: int) -> float:
    """Length of the inscribed n-segment polyline through sample_points(arc, n).

    Non-decreasing under subdivision doubling and converges to the true arc
    length from below.
    """
    import numpy as np

    pts = sample_points(arc, n)
    seg = np.diff(pts, axis=0)
    return float(np.hypot(seg[:, 0], seg[:, 1]).sum())


def canonical_residual(arc: ConicArc, x: float, y: float) -> float:
    """Dimensionless residual of the canonical conic equation at chord-frame (x, y).

    Zero (to rounding) iff the point lies on the conic carrying the arc.  Used
    as the construction oracle: maps the point into the canonical frame and
    evaluates x^2/a^2 +- y^2/b^2 - 1, or the normalised parabola equation.
    """
    cls = arc.conic_class
    if cls is ConicClass.PARABOLA:
        # vertex at origin, opens towards the chord: Y^2 = 4 F X
        X = arc.f - y
        Y = x
        return (Y * Y - 4.0 * arc.m * X) / (arc.l / 2.0) ** 2
    if cls is ConicClass.HYPERBOLA:
        X = arc.m - y
        Y = x
        return (X / arc.a) ** 2 - (Y / arc.b) ** 2 - 1.0
    X = arc.m + y
    Y = x
    return (X / arc.a) ** 2 + (Y / arc.b) ** 2 - 1.0
