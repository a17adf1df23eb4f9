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
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConicError, InfeasibleSagitta
from .textfmt import fmt

if TYPE_CHECKING:  # imported where used: construct_arc and every length run without numpy
    import numpy as np

__all__ = [
    "ConicClass",
    "ConicArc",
    "classify",
    "feasibility_min_k",
    "construct_arc",
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
    return _min_k(_check_eccentricity(e))


def _one_minus_e2(e: float) -> float:
    """1 - e^2 without the cancellation of 1 - e*e near e = 1: with d = 1 - e (exact
    there) it is 2d - d*d below e = 2, where d*d is small next to 2d, and d (1 + e)
    above, where 2d is small next to d*d; either way it is rounded about once."""
    d = 1.0 - e
    return 2.0 * d - d * d if e < 2.0 else d * (1.0 + e)


def _min_k(e: float) -> float:
    return 2.0 * math.sqrt(abs(_one_minus_e2(e)))


def _check_feasible(e: float, k: float) -> tuple[float, float]:
    """(e, k) as floats for a valid e and a finite k above ``feasibility_min_k(e)``."""
    e, k = _check_eccentricity(e), float(k)
    if not math.isfinite(k):
        raise ConicError(f"k must be finite, got {k}")
    return e, _feasible_k(e, k)


def _feasible_k(e: float, k: float) -> float:
    """k, if it exceeds the limit of an eccentricity already checked; else InfeasibleSagitta."""
    k_min = _min_k(e)
    if not (k > k_min):
        if k_min > 0.0:
            msg = (f"sagitta too large for e={fmt(e)}: k = l/f = {fmt(k)} must exceed "
                   f"{fmt(k_min)} (requires f < l/{fmt(k_min)})")
        else:
            msg = f"k = l/f = {fmt(k)} must be positive"
        raise InfeasibleSagitta(msg)
    return k


class ConicArc(NamedTuple):
    """Fully resolved symmetric arc on chord ``l`` with sagitta ``f`` and ``k = l/f``.

    ``m`` is the axial coordinate of the chord in the conic's canonical frame
    (centre at the origin, apex vertex on the positive axis): ``m = a - f``
    for circle/ellipse, ``m = a + f`` for the hyperbola (chord beyond the
    near-branch vertex), and the focal length ``F`` for the parabola, whose
    canonical frame has no centre.  ``s`` is the signed offset from the focus
    to the chord, positive towards the apex; ``beta`` and ``alpha`` are the
    focus and centre half-angles subtended by the chord, functions of (e, k)
    only (``alpha`` is None for the parabola).
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
    ``ConicError`` when a dimension of the arc overflows the float range or
    the semi-latus rectum ``p`` underflows to 0.
    """
    cls, e = classify(e), float(e)  # classify checks float(e)
    l, f = float(l), float(f)
    if not (math.isfinite(l) and math.isfinite(f)):
        raise ConicError(f"chord and sagitta must be finite, got l={l}, f={f}")
    if l <= 0.0 or f <= 0.0:
        raise ConicError(f"chord and sagitta must be positive, got l={l}, f={f}")
    k = _feasible_k(e, l / f)
    # Each angle is taken, and each length rounded, per unit chord before it is
    # scaled by l, so arcs of equal (e, k) agree bit for bit whatever their chord.
    q = _one_minus_e2(e)
    p = l * (k / 8.0 + q / (2.0 * k))
    s_u = k / (8.0 * (1.0 + e)) - (1.0 + e) / (2.0 * k)
    s = l * s_u
    beta = math.atan2(0.5, s_u)
    if cls is ConicClass.PARABOLA:  # m is the focal length; there is no centre
        m = l * (k / 16.0)
        a = b = c_focal = alpha = None
        scaled = (p, s, m)
    else:
        # ellipse and hyperbola differ only in the sign of the 1/(2k) term
        axis = k / (8.0 * abs(q))
        half = math.copysign(1.0 / (2.0 * k), q)
        m_u, a_u = axis - half, axis + half
        m, a = l * m_u, l * a_u
        b = a * math.sqrt(abs(q))
        c_focal = e * l * a_u
        alpha = math.atan2(0.5, m_u)
        scaled = (p, s, m, a, b, c_focal)
    if not all(map(math.isfinite, scaled)):
        raise ConicError(f"arc dimensions overflow for l={l}, f={f}, e={e}")
    if p == 0.0:
        raise ConicError(f"semi-latus rectum underflows to 0 for l={l}, f={f}, e={e}")
    return ConicArc(cls, e, l, f, k, a, b, c_focal, m, p, s, beta, alpha)


def sample_points(arc: ConicArc, n: int) -> np.ndarray:
    """Sample the arc at n+1 uniformly spaced polar angles in [-beta, beta].

    Returns an (n+1, 2) array of chord-frame points running from (-l/2, 0) to
    (l/2, 0); both endpoints are exact and for even n the middle sample is the
    apex (0, f) to rounding error.
    """
    if n < 2:
        raise ConicError(f"need n >= 2 samples, got {n}")
    import numpy as np

    theta = np.linspace(-arc.beta, arc.beta, n + 1)
    if n % 2 == 0:
        theta[n // 2] = 0.0
    # Only the interior angles go through the polar form: at +-beta the
    # denominator 1 + e cos(beta) can round to 0 (a parabola with tiny k).
    # cos and sin run on the whole array, so each interior value is the one
    # the same call gives for the full set of angles.  Products are written
    # in place (into pts, and over cos) to keep large-n peak memory down.
    cos = np.cos(theta)[1:-1]
    r = arc.p / (1.0 + arc.e * cos)
    pts = np.empty((n + 1, 2))
    pts[0] = (-arc.l / 2.0, 0.0)
    np.multiply(r, np.sin(theta)[1:-1], out=pts[1:-1, 0])
    cos *= r
    pts[1:-1, 1] = cos - arc.s
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
