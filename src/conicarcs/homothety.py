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
from typing import NamedTuple

from .errors import ConicError
from .textfmt import fmt

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


class _XY(NamedTuple):
    x: float
    y: float


class Point(_XY):
    """A point with finite coordinates, as the named tuple ``(x, y)``."""

    __slots__ = ()

    def __new__(cls, x: float, y: float) -> Point:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ConicError(f"point components must be finite, got ({x}, {y})")
        return tuple.__new__(cls, (x, y))

    @classmethod
    def _make(cls, iterable) -> Point:  # also behind _replace: no unchecked point
        return cls(*iterable)

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, t: float) -> "Point":
        return Point(t * self.x, t * self.y)


# Products, sums and quotients of coordinates and lengths carry a value as a pair
# (v, e) meaning v * 2^e, so that no intermediate leaves the float range; where
# every intermediate is normal, the result has the bits of the plain expression.
def _mul(a: float, b: float) -> tuple[float, int]:
    """a * b from the factors' ``frexp``: never out of range."""
    (ma, ea), (mb, eb) = math.frexp(a), math.frexp(b)
    return ma * mb, ea + eb


def _add(p: tuple[float, int], q: tuple[float, int]) -> tuple[float, int]:
    """p + q at the larger exponent of its nonzero terms."""
    (a, ea), (b, eb) = p, q
    e = max(ea if a else eb, eb if b else ea)
    return math.ldexp(a, ea - e) + math.ldexp(b, eb - e), e


def _quot(p: tuple[float, int], q: tuple[float, int]) -> tuple[float, int]:
    """p / q as a pair; ``ZeroDivisionError`` if q is 0."""
    (mp, ep), (mq, eq) = math.frexp(p[0]), math.frexp(q[0])
    return mp / mq, p[1] + ep - q[1] - eq


def _div(p: tuple[float, int], q: tuple[float, int]) -> float:
    """p / q; ``OverflowError`` only if the quotient is beyond the float range,
    ``ZeroDivisionError`` if q is 0."""
    return math.ldexp(*_quot(p, q))


def _scaled(u: Point, t: tuple[float, int]) -> Point:
    """u times the pair t: a coordinate underflows only where its product does."""
    (mx, ex), (my, ey) = _mul(t[0], u.x), _mul(t[0], u.y)
    return Point(math.ldexp(mx, ex + t[1]), math.ldexp(my, ey + t[1]))


def _dot(u: Point, v: Point) -> tuple[float, int]:
    return _add(_mul(u.x, v.x), _mul(u.y, v.y))


def _cross(u: Point, v: Point) -> tuple[float, int]:
    return _add(_mul(u.x, v.y), _mul(-u.y, v.x))


def _dist(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def _intersect_lines(p1: Point, d1: Point, p2: Point, d2: Point) -> Point:
    """Where line p1 + t d1 meets line p2 + s d2; ZeroDivisionError if parallel to rounding,
    OverflowError if t is beyond the float range."""
    return p1 + d1.scaled(_div(_cross(p2 - p1, d2), _cross(d1, d2)))


def _refuse_change(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of a named tuple whose ``__dict__``
    holds values derived from its fields, so that it stays as built."""
    raise AttributeError(f"cannot change {name!r}: a {type(self).__name__} is immutable")


class _Vertices(NamedTuple):
    p1: Point
    p2: Point
    p3: Point


class PlanarTriangle(_Vertices):
    """Embedded right triangle: right angle at P1, hypotenuse P2P3 of length l1.

    The named tuple ``(p1, p2, p3)`` of its vertices, which must be distinct and
    right-angled at P1, with a hypotenuse that floats can hold.  The side
    lengths l1, l2, l3 are derived from the vertices and kept as attributes.
    """

    __setattr__ = __delattr__ = _refuse_change

    def __new__(cls, p1: Point, p2: Point, p3: Point) -> PlanarTriangle:
        l2 = _dist(p1, p2)
        l3 = _dist(p1, p3)
        if l2 <= 0.0 or l3 <= 0.0:
            raise ConicError("triangle vertices must be distinct")
        l1 = _dist(p2, p3)
        if not math.isfinite(l1):
            raise ConicError(f"triangle hypotenuse is out of the float range for legs "
                             f"{fmt(l2)}, {fmt(l3)}")
        if abs(_div(_dot(p2 - p1, p3 - p1), _mul(l2, l3))) > 1e-12:
            raise ConicError("triangle is not right-angled at P1")
        tri = tuple.__new__(cls, (p1, p2, p3))
        vars(tri).update(l1=l1, l2=l2, l3=l3)
        return tri

    @classmethod
    def _make(cls, iterable) -> PlanarTriangle:  # also behind _replace: no unchecked triangle
        return cls(*iterable)


def place_triangle(l2: float, l3: float) -> PlanarTriangle:
    """Embed legs (l2, l3) with the right angle at the origin: P2 = (l2, 0), P3 = (0, l3)."""
    l2, l3 = float(l2), float(l3)
    if not (math.isfinite(l2) and math.isfinite(l3)):
        raise ConicError(f"legs must be finite, got {l2}, {l3}")
    if l2 <= 0.0 or l3 <= 0.0:
        raise ConicError(f"legs must be positive, got {l2}, {l3}")
    return PlanarTriangle(Point(0.0, 0.0), Point(l2, 0.0), Point(0.0, l3))


def altitude_from_right_angle(tri: PlanarTriangle) -> tuple[Point, float]:
    """Foot of the altitude from P1 onto the hypotenuse, and its length l2*l3/l1.

    The foot is measured from the end of the hypotenuse nearer to it, the end of
    the shorter leg, so the coordinate next to the other end does not cancel.
    Its parameter t = (P1 - a).d / d.d along the hypotenuse stays a pair, since
    as a float it underflows when the legs are more than about 1e150 apart.
    """
    a, b = (tri.p2, tri.p3) if tri.l2 <= tri.l3 else (tri.p3, tri.p2)
    d = b - a
    foot = a + _scaled(d, _quot(_dot(tri.p1 - a, d), _dot(d, d)))
    return foot, _div(_mul(tri.l2, tri.l3), (tri.l1, 0))


def pythagorean_centre(tri: PlanarTriangle) -> Point:
    """Midpoint of the altitude from the right angle; the homothety centre for every k."""
    foot, _ = altitude_from_right_angle(tri)
    return (tri.p1 + foot).scaled(0.5)


def _orientation(tri: PlanarTriangle) -> float:
    """+1.0 if P1, P2, P3 run counter-clockwise, -1.0 if clockwise."""
    return math.copysign(1.0, _cross(tri.p2 - tri.p1, tri.p3 - tri.p1)[0])


def _sides(tri: PlanarTriangle) -> tuple[tuple[Point, Point, float], ...]:
    """``(start, end, length)`` of sides P2P3, P1P2 and P3P1: hypotenuse first, as arc1..arc3."""
    return (tri.p2, tri.p3, tri.l1), (tri.p1, tri.p2, tri.l2), (tri.p3, tri.p1, tri.l3)


def _check_k(k: float) -> float:
    k = float(k)
    if not (k > 0.0) or not math.isfinite(k):
        raise ConicError(f"k must be positive and finite, got {k}")
    return k


def _offset_side(a: Point, b: Point, k: float, orient: float) -> tuple[Point, Point]:
    """Line of side a->b pushed outward by its length / k: (point, direction).
    The push is d = b - a turned a quarter and divided by k; no length is needed."""
    d = b - a
    return a + Point(d.y / k, -d.x / k).scaled(orient), d


def enveloping_triangle(tri: PlanarTriangle, k: float) -> PlanarTriangle:
    """Triangle whose sides are the originals pushed outward by f_i = l_i / k.

    Its sides pass through the sagitta tips of the arc family with ratio k and
    stay parallel to the original sides, so the result is similar to ``tri``.
    Raises ``ConicError`` if a vertex or the hypotenuse is out of the float range,
    or if two sides that meet at a vertex are parallel to rounding.
    """
    k = _check_k(k)
    orient = _orientation(tri)
    try:
        side1, side2, side3 = (_offset_side(a, b, k, orient) for a, b, _ in _sides(tri))
        q1 = _intersect_lines(*side3, *side2)
        # Step from Q1 along each leg direction, so Q1Q2 and Q1Q3 stay perpendicular
        # to rounding even when one leg is far shorter than the hypotenuse.
        q2 = _intersect_lines(q1, side2[1], *side1)
        q3 = _intersect_lines(q1, side3[1], *side1)
        return PlanarTriangle(q1, q2, q3)
    except ZeroDivisionError:
        raise ConicError("envelope vertex undefined: "
                         "its two sides are parallel to rounding") from None
    except (OverflowError, ConicError):  # t, a point or the hypotenuse beyond the float range
        raise ConicError(f"envelope vertex or hypotenuse is out of the float range "
                         f"for k={fmt(k)}") from None


def homothety_ratio(tri: PlanarTriangle, k: float) -> float:
    """Scale factor mapping the triangle onto its k-envelope: 1 + 2 l1 / (k h1).

    Raises ``ConicError`` when the ratio is out of the float range.
    """
    return _ratio(tri, _check_k(k), altitude_from_right_angle(tri)[1])


def _ratio(tri: PlanarTriangle, k: float, h1: float) -> float:
    try:
        return 1.0 + _div(_mul(2.0, tri.l1), _mul(k, h1))
    except OverflowError:
        raise ConicError(f"homothety ratio 1 + 2 l1/(k h1) is out of the float range for "
                         f"k={fmt(k)}, l1={fmt(tri.l1)}, altitude h1={fmt(h1)}") from None


class HomothetyReport(NamedTuple):
    centre: Point
    ratio: float
    enveloping: PlanarTriangle
    max_deviation: float


def verify_homothety(tri: PlanarTriangle, k: float) -> HomothetyReport:
    """Check that the centre-and-ratio map reproduces the constructed envelope.

    ``max_deviation`` collects, in length units, the vertex mismatches of the
    homothety image against the offset-line construction and the defect of the
    centre sitting at the midpoint of the envelope's own altitude (distance
    h1/2 + f1 to both the vertex Q1 and the enveloping hypotenuse).
    A finite deviation is reported, never raised, so callers can print
    diagnostics; a ratio, envelope or deviation that is not finite raises
    ``ConicError``.
    """
    k = _check_k(k)
    foot, h1 = altitude_from_right_angle(tri)
    centre = (tri.p1 + foot).scaled(0.5)
    ratio = _ratio(tri, k, h1)
    env = enveloping_triangle(tri, k)
    devs = [_dist(centre + (orig - centre).scaled(ratio), img)
            for orig, img in ((tri.p1, env.p1), (tri.p2, env.p2), (tri.p3, env.p3))]
    reach = h1 / 2.0 + tri.l1 / k
    devs.append(abs(_dist(centre, env.p1) - reach))
    devs.append(abs(abs(_div(_cross(env.p3 - env.p2, centre - env.p2), (env.l1, 0))) - reach))
    if not all(map(math.isfinite, devs)):
        raise ConicError(f"homothety max_deviation is not finite for k={fmt(k)}")
    return HomothetyReport(centre, ratio, env, max(devs))
