"""Enveloping triangles and the common homothety centre.

Offsetting each side of a triangle outward by its sagitta f_i = l_i / k
produces a parallel-sided (hence similar) enveloping triangle.  All envelopes
obtained this way, for every k, are images of the original under a homothety
about one fixed point, the symmedian point K = (l1^2 P1 + l3^2 P2 + l2^2 P3) /
(l1^2 + l2^2 + l3^2), with ratio 1 + (l1^2 + l2^2 + l3^2) / (2 k area).  For the
paper's right triangle K is the midpoint of the altitude from the right angle.
This module constructs the envelope and checks that claim in exact arithmetic
instead of assuming it.

Every quantity here is rational in the float coordinates and k.  Each is
computed in integers, from the exact values ``float.as_integer_ratio`` gives,
and rounded once by an ``int / int`` quotient: correctly rounded, subnormals
included, and an ``OverflowError`` only where the value is beyond the float range.
A triangle's exact form, its integer vertices and twice its signed area, is
computed once, when the triangle is built, and kept on it.
"""

from __future__ import annotations

import math
from functools import cached_property
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


def _dist(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def _refuse_change(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of a named tuple whose ``__dict__``
    holds values derived from its fields, so that it stays as built."""
    raise AttributeError(f"cannot change {name!r}: a {type(self).__name__} is immutable")


class _Vertices(NamedTuple):
    p1: Point
    p2: Point
    p3: Point


class PlanarTriangle(_Vertices):
    """Embedded triangle: side P2P3 of length l1 (the paper's hypotenuse, opposite
    the right angle at P1), P1P2 of length l2 and P3P1 of length l3.

    The named tuple ``(p1, p2, p3)`` of its vertices, each made a ``Point``, which
    must not be collinear (decided exactly), with three sides that floats can hold.
    The side lengths l1, l2, l3 are derived from the vertices and kept as
    attributes, beside the exact form every homothety output is computed from: the
    coordinates as the integers ``_v`` over one power of two ``_d``, and
    ``_area2``, twice the signed area times ``_d``^2 (positive if counter-clockwise).
    ``cos_a1``, the cosine of the angle at P1, is derived from them on first use.
    """

    __setattr__ = __delattr__ = _refuse_change

    def __new__(cls, p1: Point, p2: Point, p3: Point) -> PlanarTriangle:
        p1, p2, p3 = Point(*p1), Point(*p2), Point(*p3)  # a non-finite coordinate: ConicError
        pairs = [c.as_integer_ratio() for p in (p1, p2, p3) for c in p]
        d = max(den for _, den in pairs)
        v = x1, y1, x2, y2, x3, y3 = tuple(n * (d // den) for n, den in pairs)
        area2 = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)  # (P2 - P1) x (P3 - P1)
        if area2 == 0:
            raise ConicError("triangle vertices must not be collinear")
        l1, l2, l3 = _dist(p2, p3), _dist(p1, p2), _dist(p1, p3)
        if math.inf in (l1, l2, l3):
            raise ConicError(f"triangle side is out of the float range: "
                             f"l1={fmt(l1)}, l2={fmt(l2)}, l3={fmt(l3)}")
        tri = tuple.__new__(cls, (p1, p2, p3))
        vars(tri).update(l1=l1, l2=l2, l3=l3, _v=v, _d=d, _area2=area2)
        return tri

    @classmethod
    def _make(cls, iterable) -> PlanarTriangle:  # also behind _replace: no unchecked triangle
        return cls(*iterable)

    @cached_property
    def cos_a1(self) -> float:
        """cos A1 = (P2 - P1).(P3 - P1) / (l2 l3), rounded once from the exact integer dot
        product: exactly 0 for a right angle at P1.  Like l1..l3, an attribute, not a field."""
        x1, y1, x2, y2, x3, y3 = self._v
        (n2, d2), (n3, d3) = self.l2.as_integer_ratio(), self.l3.as_integer_ratio()
        return ((x2 - x1) * (x3 - x1) + (y2 - y1) * (y3 - y1)) * d2 * d3 / (self._d ** 2 * n2 * n3)


def place_triangle(l2: float, l3: float) -> PlanarTriangle:
    """Embed legs (l2, l3) with the right angle at the origin: P2 = (l2, 0), P3 = (0, l3)."""
    l2, l3 = float(l2), float(l3)
    if not (math.isfinite(l2) and math.isfinite(l3)):
        raise ConicError(f"legs must be finite, got {l2}, {l3}")
    if l2 <= 0.0 or l3 <= 0.0:
        raise ConicError(f"legs must be positive, got {l2}, {l3}")
    return PlanarTriangle(Point(0.0, 0.0), Point(l2, 0.0), Point(0.0, l3))


def altitude_from_right_angle(tri: PlanarTriangle) -> tuple[Point, float]:
    """Foot P2 + t (P3 - P2), t = (P1 - P2).(P3 - P2) / l1^2, of the altitude from P1 onto
    side P2P3, and its length |cross| / l1 for the stored l1; each coordinate and the
    length rounded once from its exact value."""
    x1, y1, x2, y2, x3, y3 = tri._v
    d = tri._d
    dx, dy = x3 - x2, y3 - y2
    m = dx * dx + dy * dy
    n = (x1 - x2) * dx + (y1 - y2) * dy
    l1n, l1d = tri.l1.as_integer_ratio()
    foot = Point((x2 * m + n * dx) / (d * m), (y2 * m + n * dy) / (d * m))
    return foot, abs(tri._area2) * l1d / (d * d * l1n)


def _symmedian(v: tuple[int, ...]) -> tuple[int, int, int]:
    """K = (l1^2 P1 + l3^2 P2 + l2^2 P3) / s, s = l1^2 + l2^2 + l3^2, of the integer
    vertices: its numerators and s, each square in units of 1/d^2 (so K is over d s)."""
    x1, y1, x2, y2, x3, y3 = v
    s1 = (x3 - x2) ** 2 + (y3 - y2) ** 2
    s2 = (x2 - x1) ** 2 + (y2 - y1) ** 2
    s3 = (x1 - x3) ** 2 + (y1 - y3) ** 2
    return s1 * x1 + s3 * x2 + s2 * x3, s1 * y1 + s3 * y2 + s2 * y3, s1 + s2 + s3


def _centre(d: int, cx: int, cy: int, s: int) -> Point:
    """K = (cx, cy) / (d s) from ``_symmedian``'s integers, each coordinate rounded once."""
    return Point(cx / (d * s), cy / (d * s))


def pythagorean_centre(tri: PlanarTriangle) -> Point:
    """The symmedian point, the homothety centre for every k; for a right triangle the
    midpoint of the altitude from the right angle (the paper's Pythagorean centre)."""
    return _centre(tri._d, *_symmedian(tri._v))


def _sides(tri: PlanarTriangle) -> tuple[tuple[Point, Point, float], ...]:
    """``(start, end, length)`` of sides P2P3, P1P2 and P3P1, as arc1..arc3."""
    return (tri.p2, tri.p3, tri.l1), (tri.p1, tri.p2, tri.l2), (tri.p3, tri.p1, tri.l3)


def _check_k(k: float) -> float:
    k = float(k)
    if not (k > 0.0) or not math.isfinite(k):
        raise ConicError(f"k must be positive and finite, got {k}")
    return k


def enveloping_triangle(tri: PlanarTriangle, k: float) -> PlanarTriangle:
    """Triangle whose sides are the originals pushed outward by f_i = l_i / k.

    Its sides pass through the sagitta tips of the arc family with ratio k and
    stay parallel to the original sides, so the result is similar to ``tri``.
    Each vertex is the exact meeting point of two offset sides, rounded once.
    Raises ``ConicError`` if a vertex or a side is out of the float range, or if
    the rounded vertices are collinear.
    """
    k = _check_k(k)
    x1, y1, x2, y2, x3, y3 = tri._v
    kn, kd = k.as_integer_ratio()
    push = kd if tri._area2 > 0 else -kd  # outward: to the right of a counter-clockwise side
    # side a->b, pushed by b - a turned a quarter and divided by k, is the line
    # -dy X + dx Y + (a x (dx, dy)) + |(dx, dy)|^2 / k = 0 (here times kn)
    sides = []
    for ax, ay, bx, by in ((x2, y2, x3, y3), (x1, y1, x2, y2), (x3, y3, x1, y1)):
        dx, dy = bx - ax, by - ay
        sides.append((-dy * kn, dx * kn, (ax * dy - ay * dx) * kn + (dx * dx + dy * dy) * push))
    side1, side2, side3 = sides
    try:
        vertices = []
        for (a1, b1, c1), (a2, b2, c2) in ((side3, side2), (side2, side1), (side1, side3)):
            w = (a1 * b2 - b1 * a2) * tri._d  # two lines meet at their cross product
            vertices.append(((b1 * c2 - c1 * b2) / w, (c1 * a2 - a1 * c2) / w))
        return PlanarTriangle(*vertices)
    except (OverflowError, ConicError):
        raise ConicError(f"envelope vertex or side is out of the float range, or its vertices "
                         f"round onto one line, for k={fmt(k)}") from None


def _scale(tri: PlanarTriangle, s: int, k: float) -> tuple[float, int, int]:
    """The ratio 1 + s / (k |cross|), s = l1^2 + l2^2 + l3^2: rounded once, and as its exact
    (numerator, denominator).  Raises ``ConicError`` beyond the float range."""
    kn, kd = k.as_integer_ratio()
    den = abs(tri._area2) * kn
    num = den + kd * s
    try:
        return num / den, num, den
    except OverflowError:
        raise ConicError(f"homothety ratio 1 + (l1^2 + l2^2 + l3^2)/(2 k area) is out of the float "
                         f"range for k={fmt(k)}, l1={fmt(tri.l1)}, l2={fmt(tri.l2)}, "
                         f"l3={fmt(tri.l3)}") from None


def homothety_ratio(tri: PlanarTriangle, k: float) -> float:
    """Scale factor 1 + (l1^2 + l2^2 + l3^2) / (2 k area) mapping the triangle onto its
    k-envelope (1 + 2 l1 / (k h1) for a right triangle), rounded once from its exact value.

    Raises ``ConicError`` when the ratio is out of the float range.
    """
    return _scale(tri, _symmedian(tri._v)[2], _check_k(k))[0]


class HomothetyReport(NamedTuple):
    centre: Point
    ratio: float
    enveloping: PlanarTriangle
    max_deviation: float


def verify_homothety(tri: PlanarTriangle, k: float) -> HomothetyReport:
    """Compare the constructed envelope with the exact homothety image of ``tri``.

    ``max_deviation`` is the largest distance, in length units, between a
    printed (rounded) envelope vertex and the exact image K + ratio (P - K) of
    its original vertex P about the exact centre K.  The two agree exactly for
    every triangle, so the deviation is output rounding alone: at most half an
    ulp in each coordinate of an envelope vertex.
    Raises ``ConicError`` if the ratio or the envelope is out of the float range.
    """
    k = _check_k(k)
    v, d = tri._v, tri._d
    cx, cy, s = _symmedian(v)  # K = (cx, cy) / (d s)
    ratio, num, den = _scale(tri, s, k)
    env = enveloping_triangle(tri, k)
    # the image K + ratio (P - K) of P is (K (den - num) + num P) / den: over d s den
    scale = d * s * den
    ev, ed = env._v, env._d  # the envelope's coordinates are ev / ed

    def off(q: int, c: int, p: int) -> float:  # q / ed minus the image coordinate, rounded once
        return (q * scale - (c * (den - num) + s * num * p) * ed) / (ed * scale)

    max_deviation = max(math.hypot(off(qx, cx, px), off(qy, cy, py))
                        for qx, qy, px, py in zip(ev[0::2], ev[1::2], v[0::2], v[1::2]))
    return HomothetyReport(_centre(d, cx, cy, s), ratio, env, max_deviation)
