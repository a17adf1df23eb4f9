"""Drawable scenes of any triangle: arc triple, envelope, altitude from P1, centre.

Arcs are sampled in their chord frame and mapped onto each side so they bulge
outward.  The centre is the symmedian point: for a right triangle, the midpoint of
the altitude.  A ``Scene`` holds seven layers, ``triangle, arc1, arc2, arc3,
envelope, altitude, centre``, each a flat tuple of floats ``(x0, y0, x1, y1, ...)``
holding no -0.0.  JSON (one point array per layer) and stroke-only SVG (one path
per layer) both follow that order, so identical input gives identical bytes.

An arc of at most ``_MATH_SAMPLES`` samples is built with ``math`` alone, so a
scene of the default size loads no numpy; a larger one goes through numpy's
``sample_points``, which is faster there, when numpy is installed, and is built
with ``math`` otherwise.  Both give the same floats bit for bit.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from .conic import ConicArc, _check_feasible, construct_arc, sample_points
from .errors import ConicError
from .homothety import (
    PlanarTriangle,
    Point,
    _refuse_change,
    _sides,
    altitude_from_right_angle,
    enveloping_triangle,
    pythagorean_centre,
)
from .textfmt import fmt

__all__ = ["Scene", "build_scene", "scene_to_json", "scene_to_svg"]

# Samples per arc up to which the pure-``math`` builder runs; above it, numpy's
# runs if numpy imports.  In one process with numpy loaded, the two builders took
# equal time at about 64 samples, and numpy's was 1.2-1.3x faster at 80-96 and
# 3-5x at 8,192; a cold scene pays numpy's import besides.
_MATH_SAMPLES = 64

Layer = tuple[float, ...]  # (x0, y0, x1, y1, ...)
Box = tuple[float, float, float, float]  # (min x, min y, max x, max y)


class _Layers(NamedTuple):
    triangle: Layer
    arc1: Layer
    arc2: Layer
    arc3: Layer
    envelope: Layer
    altitude: Layer
    centre: Layer


class Scene(_Layers):
    """The named tuple of a drawing's seven layers, each a flat tuple of floats, in
    the order both emitters write them; ``==`` and ``hash`` are a tuple's."""

    __setattr__ = __delattr__ = _refuse_change

    @cached_property
    def bounds(self) -> Box:
        """The extremes of every layer's x and y.

        ``build_scene`` fills it from each arc builder's own extremes, so a
        large arc is never scanned here.  Not a field, like ``rows``.
        """
        return _extremes([v for pts in self for v in pts])

    @cached_property
    def rows(self) -> tuple[str, ...]:
        """Each layer's points as ``"x y\\n"`` rows at 17 digits, in field order.

        Formatted on first use and kept, so the SVG and JSON emitters share one
        formatting pass.  Not a field: ``==`` and ``_replace`` ignore it.
        """
        return tuple(map(fmt_rows, self))


def fmt_rows(pts: Layer) -> str:
    """Every (x, y) pair of a layer as ``"x y\\n"``, each number as ``fmt`` prints it.

    ``%.17g`` prints a float exactly as ``fmt`` does, but for -0.0, which
    ``fmt`` folds into 0.0 and a built layer no longer holds; the whole layer
    goes through one ``%`` instead of a call per number.
    """
    return "%.17g %.17g\n" * (len(pts) // 2) % pts


def _extremes(flat) -> Box:
    xs, ys = flat[0::2], flat[1::2]
    return min(xs), min(ys), max(xs), max(ys)


def _frame(a: Point, b: Point, length: float, orient: float) -> tuple[float, ...]:
    """Midpoint, unit tangent and outward normal of side ab, each as (x, y)."""
    t0, t1 = (b.x - a.x) / length, (b.y - a.y) / length
    return (a.x + b.x) / 2.0, (a.y + b.y) / 2.0, t0, t1, orient * t1, orient * -t0


def _arc_math(arc: ConicArc, n: int, a: Point, b: Point, orient: float) -> tuple[Layer, Box]:
    """The arc on side ab and its extremes, from ``math`` alone.

    Each interior point takes ``sample_points``' steps (``np.linspace``'s
    angles ``i*step - beta``, the middle one 0 for even n, then the polar form)
    and ``_arc_numpy``'s map onto the side, so the floats are the same bit for
    bit.  The ends are the side's vertices.
    """
    e, p, s, beta = arc.e, arc.p, arc.s, arc.beta
    step = (beta + beta) / n
    mx, my, t0, t1, n0, n1 = _frame(a, b, arc.l, orient)
    flat = [0.0, 0.0] * (n + 1)  # sized first: an n too large for memory fails here
    flat[0], flat[1], flat[-2], flat[-1] = a.x + 0.0, a.y + 0.0, b.x + 0.0, b.y + 0.0
    for i in range(1, n):
        theta = 0.0 if i + i == n else i * step - beta
        c = math.cos(theta)
        r = p / (1.0 + e * c)
        x, y = r * math.sin(theta), c * r - s
        flat[i + i] = mx + x * t0 + y * n0 + 0.0
        flat[i + i + 1] = my + x * t1 + y * n1 + 0.0
    return tuple(flat), _extremes(flat)


def _arc_numpy(arc: ConicArc, n: int, a: Point, b: Point, orient: float) -> tuple[Layer, Box]:
    """The arc on side ab and its extremes, from ``sample_points``' array; the
    ends are the side's vertices."""
    import numpy as np

    pts = sample_points(arc, n)
    mx, my, t0, t1, n0, n1 = _frame(a, b, arc.l, orient)
    pts = np.array([mx, my]) + np.outer(pts[:, 0], (t0, t1)) + np.outer(pts[:, 1], (n0, n1))
    pts[0], pts[-1] = a, b  # the chord ends, mapped, can miss the vertices by an ulp
    pts += 0.0  # folds -0.0 into 0.0, as fmt does
    xs, ys = pts[:, 0], pts[:, 1]  # one column at a time: far faster than axis=0
    return tuple(pts.ravel().tolist()), (float(xs.min()), float(ys.min()),
                                         float(xs.max()), float(ys.max()))


def build_scene(tri: PlanarTriangle, e: float, k: float, samples: int) -> Scene:
    """Assemble the full drawing for one (e, k) family on an embedded triangle."""
    e, k = _check_feasible(e, k)  # rejects k <= 0 before any division
    if samples < 2:
        raise ConicError(f"need samples >= 2 per arc, got {samples}")
    orient = 1.0 if tri._area2 > 0 else -1.0  # outward: to the right of a counter-clockwise side
    build = _arc_math
    if samples > _MATH_SAMPLES:
        try:
            import numpy  # noqa: F401  the faster builder, where numpy is installed
            build = _arc_numpy
        except ImportError:
            pass
    arcs, boxes = zip(*(build(construct_arc(l, l / k, e), samples, a, b, orient)
                        for a, b, l in _sides(tri)))
    env = enveloping_triangle(tri, k)
    foot, _ = altitude_from_right_angle(tri)
    flat = lambda *points: tuple(v + 0.0 for p in points for v in p)
    scene = Scene(flat(*tri), *arcs, flat(*env), flat(tri.p1, foot),
                  flat(pythagorean_centre(tri)))
    # each arc's extremes stand in for its points: a box is two points of the arc's range
    small = scene.triangle + scene.envelope + scene.altitude + scene.centre
    vars(scene)["bounds"] = _extremes(small + sum(boxes, ()))
    return scene


def scene_to_json(scene: Scene) -> str:
    """JSON document with one point array per layer, floats at 17 significant digits."""
    parts = []
    for name, rows in zip(scene._fields, scene.rows):
        body = rows[:-1].replace(" ", ", ").replace("\n", "], [")
        parts.append(f'  "{name}": [[{body}]]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def scene_to_svg(scene: Scene) -> str:
    """Stroke-only SVG, one path per layer, viewBox = scene bounds + 5% margin.

    SVG's y axis points down, so each path flips it with ``scale(1 -1)`` and
    keeps the JSON's coordinates; the viewBox is in the flipped frame.
    """
    lo_x, lo_y, hi_x, hi_y = scene.bounds
    pad = 0.05 * max(hi_x - lo_x, hi_y - lo_y)
    width = hi_x - lo_x + 2.0 * pad
    height = hi_y - lo_y + 2.0 * pad
    view = f"{fmt(lo_x - pad)} {fmt(-hi_y - pad)} {fmt(width)} {fmt(height)}"
    stroke = 0.004 * max(width, height)
    tick = 0.02 * max(width, height)

    paths = []
    for name, pts, rows in zip(scene._fields, scene, scene.rows):
        if name == "centre":
            cx, cy = pts
            d = (f"M {fmt(cx - tick)} {fmt(cy + tick)} L {fmt(cx + tick)} {fmt(cy - tick)} "
                 f"M {fmt(cx - tick)} {fmt(cy - tick)} L {fmt(cx + tick)} {fmt(cy + tick)}")
        else:
            d = "M " + rows[:-1].replace("\n", " L ")
            if name in ("triangle", "envelope"):
                d += " Z"
        paths.append(f'  <path id="{name}" transform="scale(1 -1)" d="{d}" fill="none" '
                     f'stroke="black" stroke-width="{fmt(stroke)}"/>')

    head = f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">'
    return "\n".join(['<?xml version="1.0" encoding="UTF-8"?>', head, *paths, "</svg>", ""])
