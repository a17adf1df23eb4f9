"""Enveloping triangles and the common homothety centre.

Offsetting each side of a right triangle outward by its sagitta f_i = l_i / k
produces a parallel-sided (hence similar) enveloping triangle.  All envelopes
obtained this way, for every k, are images of the original under a homothety
about one fixed point: the midpoint of the altitude dropped from the right
angle onto the hypotenuse.  This module constructs the envelope and verifies
that claim numerically instead of assuming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConicError

__all__ = [
    "Point",
    "PlanarTriangle",
    "HomothetyReport",
    "place_triangle",
    "altitude_from_right_angle",
    "pythagorean_centre",
    "enveloping_triangle",
    "homothety_ratio",
    "verify_homothety",
]


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ConicError(f"point components must be finite, got ({self.x}, {self.y})")

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, t: float) -> "Point":
        return Point(t * self.x, t * self.y)


def _dot(u: Point, v: Point) -> float:
    return u.x * v.x + u.y * v.y


def _cross(u: Point, v: Point) -> float:
    return u.x * v.y - u.y * v.x


def _dist(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def _line_point_distance(p: Point, a: Point, b: Point) -> float:
    return abs(_cross(b - a, p - a)) / _dist(a, b)


def _intersect_lines(p1: Point, d1: Point, p2: Point, d2: Point) -> Point:
    t = _cross(p2 - p1, d2) / _cross(d1, d2)
    return p1 + d1.scaled(t)


@dataclass(frozen=True)
class PlanarTriangle:
    """Embedded right triangle: right angle at P1, hypotenuse P2P3 of length l1.

    The side lengths are derived from the vertices, which must be distinct and
    right-angled at P1.
    """

    p1: Point
    p2: Point
    p3: Point
    l1: float = field(init=False)
    l2: float = field(init=False)
    l3: float = field(init=False)

    def __post_init__(self) -> None:
        p1, p2, p3 = self.p1, self.p2, self.p3
        l2 = _dist(p1, p2)
        l3 = _dist(p1, p3)
        if l2 <= 0.0 or l3 <= 0.0:
            raise ConicError("triangle vertices must be distinct")
        if abs(_dot(p2 - p1, p3 - p1)) > 1e-12 * l2 * l3:
            raise ConicError("triangle is not right-angled at P1")
        object.__setattr__(self, "l1", _dist(p2, p3))
        object.__setattr__(self, "l2", l2)
        object.__setattr__(self, "l3", l3)


def place_triangle(l2: float, l3: float) -> PlanarTriangle:
    """Embed legs (l2, l3) with the right angle at the origin: P2 = (l2, 0), P3 = (0, l3)."""
    l2, l3 = float(l2), float(l3)
    if not (math.isfinite(l2) and math.isfinite(l3)):
        raise ConicError(f"legs must be finite, got {l2}, {l3}")
    if l2 <= 0.0 or l3 <= 0.0:
        raise ConicError(f"legs must be positive, got {l2}, {l3}")
    return PlanarTriangle(Point(0.0, 0.0), Point(l2, 0.0), Point(0.0, l3))


def altitude_from_right_angle(tri: PlanarTriangle) -> tuple[Point, float]:
    """Foot of the altitude from P1 onto the hypotenuse, and its length l2*l3/l1."""
    d = tri.p3 - tri.p2
    t = _dot(tri.p1 - tri.p2, d) / _dot(d, d)
    foot = tri.p2 + d.scaled(t)
    return foot, tri.l2 * tri.l3 / tri.l1


def pythagorean_centre(tri: PlanarTriangle) -> Point:
    """Midpoint of the altitude from the right angle; the homothety centre for every k."""
    foot, _ = altitude_from_right_angle(tri)
    return (tri.p1 + foot).scaled(0.5)


def _orientation(tri: PlanarTriangle) -> float:
    """+1.0 if P1, P2, P3 run counter-clockwise, -1.0 if clockwise."""
    return math.copysign(1.0, _cross(tri.p2 - tri.p1, tri.p3 - tri.p1))


def _check_k(k: float) -> None:
    if not (k > 0.0) or not math.isfinite(k):
        raise ConicError(f"k must be positive and finite, got {k}")


def _offset_side(a: Point, b: Point, length: float, k: float,
                 orient: float) -> tuple[Point, Point]:
    """Line of side a->b (of that length) pushed outward by length / k: (point, direction)."""
    d = b - a
    scale = orient / length
    n = Point(d.y * scale, -d.x * scale)
    return a + n.scaled(length / k), d


def enveloping_triangle(tri: PlanarTriangle, k: float) -> PlanarTriangle:
    """Triangle whose sides are the originals pushed outward by f_i = l_i / k.

    Its sides pass through the sagitta tips of the arc family with ratio k and
    stay parallel to the original sides, so the result is similar to ``tri``.
    """
    _check_k(k)
    orient = _orientation(tri)
    side1 = _offset_side(tri.p2, tri.p3, tri.l1, k, orient)  # hypotenuse
    side2 = _offset_side(tri.p1, tri.p2, tri.l2, k, orient)
    side3 = _offset_side(tri.p3, tri.p1, tri.l3, k, orient)
    q1 = _intersect_lines(*side3, *side2)
    # Step from Q1 along each leg direction, so Q1Q2 and Q1Q3 stay perpendicular
    # to rounding even when one leg is far shorter than the hypotenuse.
    q2 = _intersect_lines(q1, side2[1], *side1)
    q3 = _intersect_lines(q1, side3[1], *side1)
    return PlanarTriangle(q1, q2, q3)


def homothety_ratio(tri: PlanarTriangle, k: float) -> float:
    """Scale factor mapping the triangle onto its k-envelope: 1 + 2 l1 / (k h1)."""
    _check_k(k)
    _, h1 = altitude_from_right_angle(tri)
    return 1.0 + 2.0 * tri.l1 / (k * h1)


@dataclass(frozen=True)
class HomothetyReport:
    centre: Point
    ratio: float
    enveloping: PlanarTriangle
    max_deviation: float


def verify_homothety(tri: PlanarTriangle, k: float) -> HomothetyReport:
    """Check that the centre-and-ratio map reproduces the constructed envelope.

    ``max_deviation`` collects, in length units, the vertex mismatches of the
    homothety image against the offset-line construction and the defect of the
    centre sitting at the midpoint of the envelope's own altitude (distance
    h1/2 + f1 to both the vertex Q1 and the enveloping hypotenuse).  Deviation
    is reported, never raised, so callers can print diagnostics.
    """
    centre = pythagorean_centre(tri)
    ratio = homothety_ratio(tri, k)
    env = enveloping_triangle(tri, k)
    dev = 0.0
    for orig, img in ((tri.p1, env.p1), (tri.p2, env.p2), (tri.p3, env.p3)):
        mapped = centre + (orig - centre).scaled(ratio)
        dev = max(dev, _dist(mapped, img))
    _, h1 = altitude_from_right_angle(tri)
    reach = h1 / 2.0 + tri.l1 / k
    dev = max(dev, abs(_dist(centre, env.p1) - reach))
    dev = max(dev, abs(_line_point_distance(centre, env.p2, env.p3) - reach))
    return HomothetyReport(centre=centre, ratio=ratio, enveloping=env, max_deviation=dev)
