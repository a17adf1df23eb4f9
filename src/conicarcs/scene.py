"""Drawable scenes of any triangle: arc triple, envelope, altitude from P1, centre.

Arcs are sampled in their chord frame and mapped onto each side so they bulge
outward.  The centre is the symmedian point: for a right triangle, the midpoint of
the altitude.  Scenes serialize to JSON (named layers with point arrays) and to
stroke-only SVG in a fixed element order, so identical input gives identical bytes.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .conic import _check_feasible, construct_arc, sample_points
from .homothety import (
    PlanarTriangle,
    Point,
    _orientation,
    _refuse_change,
    _sides,
    altitude_from_right_angle,
    enveloping_triangle,
    pythagorean_centre,
)
from .textfmt import fmt

if TYPE_CHECKING:  # imported where used, so that importing this module loads no numpy
    import numpy as np

__all__ = ["Scene", "build_scene", "scene_to_json", "scene_to_svg"]


class _Layers(NamedTuple):
    triangle: np.ndarray
    arcs: tuple[np.ndarray, np.ndarray, np.ndarray]
    envelope: np.ndarray
    altitude: np.ndarray
    centre: np.ndarray


class Scene(_Layers):
    """The named tuple of a drawing's point arrays; ``==`` compares them by value."""

    __setattr__ = __delattr__ = _refuse_change

    def layers(self) -> list[tuple[str, np.ndarray]]:
        """Layer name/points pairs in the fixed emission order."""
        return [
            ("triangle", self.triangle),
            ("arc1", self.arcs[0]),
            ("arc2", self.arcs[1]),
            ("arc3", self.arcs[2]),
            ("envelope", self.envelope),
            ("altitude", self.altitude),
            ("centre", self.centre.reshape(1, 2)),
        ]

    def __eq__(self, other) -> bool:
        """Equal when every layer holds the same shape and values; never equal to
        another tuple, whose own ``==`` would ask numpy for an array's truth value."""
        if not isinstance(other, Scene):
            return False if isinstance(other, tuple) else NotImplemented
        import numpy as np

        return all(np.array_equal(a, b) for (_, a), (_, b) in zip(self.layers(), other.layers()))

    def __ne__(self, other) -> bool:  # tuple's own != would compare the arrays
        return not self == other

    @cached_property
    def rows(self) -> tuple[str, ...]:
        """Each layer's points as ``"x y\\n"`` rows at 17 digits, in ``layers()`` order.

        Formatted on first use and kept, so the SVG and JSON emitters share one
        formatting pass.  Not a field: ``==`` and ``_replace`` ignore it.
        """
        return tuple(fmt_rows(pts) for _, pts in self.layers())


def fmt_rows(pts: np.ndarray) -> str:
    """Every (x, y) row of ``pts`` as ``"x y\\n"``, each number as ``fmt`` prints it.

    ``%.17g`` prints a float exactly as ``fmt`` does; the whole array goes
    through one ``%`` instead of a call per number.
    """
    flat = (pts + 0.0).ravel().tolist()  # +0.0 folds -0.0 into 0.0, as in fmt
    return "%.17g %.17g\n" * len(pts) % tuple(flat)


def _arc_on_side(a: Point, b: Point, length: float, sagitta: float, e: float,
                 samples: int, orient: float) -> np.ndarray:
    import numpy as np

    arc = construct_arc(length, sagitta, e)
    pts = sample_points(arc, samples)
    mid = np.array([(a.x + b.x) / 2.0, (a.y + b.y) / 2.0])
    t = np.array([b.x - a.x, b.y - a.y]) / length
    n = orient * np.array([t[1], -t[0]])
    return mid + np.outer(pts[:, 0], t) + np.outer(pts[:, 1], n)


def build_scene(tri: PlanarTriangle, e: float, k: float, samples: int) -> Scene:
    """Assemble the full drawing for one (e, k) family on an embedded triangle."""
    import numpy as np

    e, k = _check_feasible(e, k)  # rejects k <= 0 before any division
    orient = _orientation(tri)
    arcs = tuple(_arc_on_side(a, b, l, l / k, e, samples, orient) for a, b, l in _sides(tri))
    env = enveloping_triangle(tri, k)
    foot, _ = altitude_from_right_angle(tri)
    centre = pythagorean_centre(tri)
    as_row = lambda p: [p.x, p.y]
    return Scene(
        triangle=np.array([as_row(tri.p1), as_row(tri.p2), as_row(tri.p3)]),
        arcs=arcs,
        envelope=np.array([as_row(env.p1), as_row(env.p2), as_row(env.p3)]),
        altitude=np.array([as_row(tri.p1), as_row(foot)]),
        centre=np.array(as_row(centre)),
    )


def scene_to_json(scene: Scene) -> str:
    """JSON document with one point array per layer, floats at 17 significant digits."""
    parts = []
    for (name, _), rows in zip(scene.layers(), scene.rows):
        body = rows[:-1].replace(" ", ", ").replace("\n", "], [")
        parts.append(f'  "{name}": [[{body}]]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def scene_to_svg(scene: Scene) -> str:
    """Stroke-only SVG, one path per layer, viewBox = scene bounds + 5% margin.

    SVG's y axis points down, so each path flips it with ``scale(1 -1)`` and
    keeps the JSON's coordinates; the viewBox is in the flipped frame.
    """
    import numpy as np

    all_pts = np.vstack([pts for _, pts in scene.layers()])
    xs, ys = all_pts[:, 0], all_pts[:, 1]  # one column at a time: far faster than axis=0
    lo = (xs.min(), ys.min())
    hi = (xs.max(), ys.max())
    pad = 0.05 * max(hi[0] - lo[0], hi[1] - lo[1])
    width = hi[0] - lo[0] + 2.0 * pad
    height = hi[1] - lo[1] + 2.0 * pad
    view = f"{fmt(lo[0] - pad)} {fmt(-hi[1] - pad)} {fmt(width)} {fmt(height)}"
    stroke = 0.004 * max(width, height)
    tick = 0.02 * max(width, height)

    paths = []
    for (name, pts), rows in zip(scene.layers(), scene.rows):
        if name == "centre":
            cx, cy = pts[0]
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
