"""Symmetric conic arcs on a chord.

An arc of eccentricity ``e`` is erected on a chord of length ``l`` so that it
is symmetric about the chord's perpendicular bisector and bulges out to a
sagitta of height ``f``.  Everything lives in the *chord frame*: the chord on
the x-axis centred at the origin, the arc in the upper half plane, apex at
``(0, f)``.

All shape quantities depend on the pair ``(e, k)`` with ``k = l/f`` only;
lengths scale linearly with ``l``.  The construction is feasible only for
``k > 2*sqrt(|1 - e^2|)`` (strict), which for the circle restricts arcs to
the minor-arc regime.

The focus-centred polar form is ``r(theta) = p / (1 + e*cos(theta))`` with
``theta = 0`` pointing from the focus towards the apex, where

    p / l = k/8 + (1 - e^2) / (2k)        (semi-latus rectum, all classes)
    s / l = k/(8(1+e)) - (1+e) / (2k)     (signed focus-to-chord offset)

and the chord endpoints sit at the angles ``+-beta``, ``beta = atan2(l/2, s)``.
``s < 0`` (obtuse ``beta``) occurs for ``2*sqrt(|1-e^2|) < k < 2(1+e)``, so
angles are always taken with ``atan2``, never a bare arctangent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConicError, InfeasibleSagitta
from .textfmt import fmt

__all__ = [
    "ConicClass",
    "ConicArc",
    "classify",
    "feasibility_min_k",
    "construct_arc",
    "centre_half_angle",
    "focus_half_angle",
    "polar_radius",
    "sample_points",
    "canonical_residual",
]


class ConicClass(enum.Enum):
    CIRCLE = "circle"
    ELLIPSE = "ellipse"
    PARABOLA = "parabola"
    HYPERBOLA = "hyperbola"


def _check_eccentricity(e: float) -> float:
    e = float(e)
    if not math.isfinite(e):
        raise ConicError(f"eccentricity must be finite, got {e}")
    if e < 0.0:
        raise ConicError(f"eccentricity must be >= 0, got {e}")
    return e


def classify(e: float) -> ConicClass:
    """Conic class for eccentricity ``e`` (0 circle, (0,1) ellipse, 1 parabola, >1 hyperbola)."""
    e = _check_eccentricity(e)
    if e == 0.0:
        return ConicClass.CIRCLE
    if e < 1.0:
        return ConicClass.ELLIPSE
    if e == 1.0:
        return ConicClass.PARABOLA
    return ConicClass.HYPERBOLA


def feasibility_min_k(e: float) -> float:
    """Lower bound on k = l/f below which no symmetric arc of eccentricity e exists.

    Equals ``2*sqrt(|1 - e^2|)``; arcs require k strictly above it.  For the
    parabola (e = 1) there is no constraint and 0 is returned.
    """
    e = _check_eccentricity(e)
    return 2.0 * math.sqrt(abs(1.0 - e * e))


def _check_feasible(e: float, k: float) -> float:
    k_min = feasibility_min_k(e)
    if not (k > k_min):
        if k_min > 0.0:
            msg = (f"sagitta too large for e={fmt(e)}: k = l/f = {fmt(k)} must exceed "
                   f"{fmt(k_min)} (requires f < l/{fmt(k_min)})")
        else:
            msg = f"k = l/f = {fmt(k)} must be positive"
        raise InfeasibleSagitta(msg)
    return k_min


def _unit_shape(cls: ConicClass, e: float, k: float):
    """Shape of the (e, k) arc per unit chord: ``(p, s, a, m, beta, alpha)``.

    ``a`` and ``alpha`` are None for the parabola, whose ``m`` is its focal
    length.  Every angle and length of an arc comes from here, so arcs of equal
    (e, k) agree bit for bit whatever their chord.
    """
    _check_feasible(e, k)
    q = 1.0 - e * e
    p = k / 8.0 + q / (2.0 * k)
    s = k / (8.0 * (1.0 + e)) - (1.0 + e) / (2.0 * k)
    beta = math.atan2(0.5, s)
    if cls is ConicClass.PARABOLA:
        return p, s, None, k / 16.0, beta, None
    # ellipse and hyperbola differ only in the sign of the 1/(2k) term
    axis = k / (8.0 * abs(q))
    half = math.copysign(1.0 / (2.0 * k), q)
    m = axis - half
    return p, s, axis + half, m, beta, math.atan2(0.5, m)


@dataclass(frozen=True)
class ConicArc:
    """Fully resolved symmetric arc on chord ``l`` with sagitta ``f`` and ``k = l/f``.

    ``m`` is the axial coordinate of the chord in the conic's canonical frame
    (centre at the origin, apex vertex on the positive axis): ``m = a - f``
    for circle/ellipse, ``m = a + f`` for the hyperbola (chord beyond the
    near-branch vertex), and the focal length ``F`` for the parabola, whose
    canonical frame has no centre.  ``s`` is the signed offset from the focus
    to the chord, positive towards the apex; ``beta`` and ``alpha`` are the
    focus and centre half-angles subtended by the chord.
    """

    conic_class: ConicClass
    e: float
    l: float
    f: float
    k: float
    a: float | None
    b: float | None
    c_focal: float | None
    m: float
    p: float
    s: float
    beta: float
    alpha: float | None


def construct_arc(l: float, f: float, e: float) -> ConicArc:
    """Build the unique symmetric arc of eccentricity ``e`` on chord ``l`` with sagitta ``f``.

    Checks e, then l and f, then feasibility: raises ``ConicError`` for a bad
    eccentricity or a non-finite or non-positive length, and
    ``InfeasibleSagitta`` when ``l/f <= feasibility_min_k(e)``.  Also raises
    ``ConicError`` when a dimension of the arc overflows the float range.
    """
    cls = classify(e)
    l, f = float(l), float(f)
    if not (math.isfinite(l) and math.isfinite(f)):
        raise ConicError(f"chord and sagitta must be finite, got l={l}, f={f}")
    if l <= 0.0 or f <= 0.0:
        raise ConicError(f"chord and sagitta must be positive, got l={l}, f={f}")
    k = l / f
    p_u, s_u, a_u, m_u, beta, alpha = _unit_shape(cls, e, k)
    p, s, m = l * p_u, l * s_u, l * m_u
    a = b = c_focal = None
    if a_u is not None:
        a = l * a_u
        b = a * math.sqrt(abs(1.0 - e * e))
        c_focal = e * l * a_u
    scaled = (p, s, m) if a is None else (p, s, m, a, b, c_focal)
    if not all(map(math.isfinite, scaled)):
        raise ConicError(f"arc dimensions overflow for l={l}, f={f}, e={e}")
    return ConicArc(cls, e, l, f, k, a=a, b=b, c_focal=c_focal, m=m, p=p, s=s,
                    beta=beta, alpha=alpha)


def centre_half_angle(e: float, k: float) -> float:
    """Half-angle subtended by the chord at the conic's centre; function of (e, k) only."""
    cls = classify(e)
    if cls is ConicClass.PARABOLA:
        raise ConicError("a parabola has no centre")
    return _unit_shape(cls, e, k)[5]


def focus_half_angle(e: float, k: float) -> float:
    """Half-angle subtended by the chord at the focus; function of (e, k) only.

    Obtuse for ``feasibility_min_k(e) < k < 2(1+e)``.
    """
    return _unit_shape(classify(e), e, k)[4]


def polar_radius(arc: ConicArc, theta: float) -> float:
    """Focal distance r(theta) = p / (1 + e cos theta), theta = 0 towards the apex."""
    if abs(theta) > arc.beta:
        raise ConicError(f"|theta| = {fmt(abs(theta))} exceeds beta = {fmt(arc.beta)}")
    denom = 1.0 + arc.e * math.cos(theta)
    if denom <= 0.0:
        raise ConicError(f"1 + e*cos(theta) = {fmt(denom)} <= 0")
    return arc.p / denom


def sample_points(arc: ConicArc, n: int) -> np.ndarray:
    """Sample the arc at n+1 uniformly spaced polar angles in [-beta, beta].

    Returns an (n+1, 2) array of chord-frame points running from (-l/2, 0) to
    (l/2, 0); both endpoints are exact and for even n the middle sample is the
    apex (0, f) to rounding error.
    """
    if n < 2:
        raise ConicError(f"need n >= 2 samples, got {n}")
    theta = np.linspace(-arc.beta, arc.beta, n + 1)
    if n % 2 == 0:
        theta[n // 2] = 0.0
    r = arc.p / (1.0 + arc.e * np.cos(theta))
    pts = np.column_stack((r * np.sin(theta), r * np.cos(theta) - arc.s))
    pts[0] = (-arc.l / 2.0, 0.0)
    pts[-1] = (arc.l / 2.0, 0.0)
    return pts


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
