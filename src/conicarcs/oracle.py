"""Independent checks on arcs and their lengths.

Closed-form lengths of the circle and the parabola, the brute-force polyline
length (pure Python, over one half of the arc), and the canonical conic
equation at a point.  No library code calls them: the ``oracle`` command and
the tests compare the library against them.
"""

from __future__ import annotations

import math

from .conic import ConicArc, ConicClass
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
    """Length of the inscribed n-segment polyline through the polar angles
    theta_i = beta (2i - n) / n, i = 0..n, whose ends are the chord's endpoints.

    Each point is computed as in ``sample_points``.  Negating 2i - n negates the
    rounded angle, so the right half mirrors the left exactly: the segments up to
    the axis are summed with ``math.fsum`` and doubled, in memory that does not
    grow with n.  The nodes of n are among those of 2n, so the length never
    decreases when n doubles, and it converges to the arc length from below.
    """
    if n < 2:
        raise ConicError(f"need n >= 2 samples, got {n}")
    beta, e, p, s = arc.beta, arc.e, arc.p, arc.s
    if 1.0 + e * math.cos(beta * ((2 - n) / n)) == 0.0:  # of all nodes, the nearest a pole
        raise ConicError(f"1 + e cos(theta) rounds to 0 at a polyline node for n={n}")

    def half():  # for odd n the last segment is the left half of the middle one
        x0, y0 = -arc.l / 2.0, 0.0
        for j in range(2 - n, 1, 2):  # 2i - n for i = 1 .. n // 2
            theta = beta * (j / n)
            cos = math.cos(theta)
            r = p / (1.0 + e * cos)
            x, y = r * math.sin(theta), cos * r - s
            yield math.hypot(x - x0, y - y0)
            x0, y0 = x, y
        if n % 2:
            yield -x0

    return 2.0 * math.fsum(half())


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
