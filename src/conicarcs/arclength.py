"""Arc lengths of symmetric conic arcs.

The primary route integrates the focus-centred polar form,

    c = integral_{-beta}^{beta} sqrt(r^2 + r'^2) dtheta
      = p * integral_{-beta}^{beta} sqrt(1 + 2 e cos(theta) + e^2)
                                    / (1 + e cos(theta))^2 dtheta,

so the chord length factors out completely: c = g(e, k) * l.  The integral
has no elementary antiderivative in general, hence adaptive quadrature; the
circle and parabola do have elementary closed forms, kept here as independent
oracles, together with a brute-force polyline length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .conic import ConicArc, ConicClass, _check_feasible, construct_arc, sample_points
from .errors import ConicError, QuadratureNonConvergence
from .textfmt import fmt

__all__ = [
    "ArcLengthResult",
    "arc_length",
    "closed_form_circle",
    "closed_form_parabola",
    "polyline_length",
    "g_factor",
]


_MAX_SUBDIVISIONS = 60
_REL_TOL = 1e-12


@dataclass(frozen=True)
class ArcLengthResult:
    length: float
    error_estimate: float
    evaluations: int


def arc_length(arc: ConicArc) -> ArcLengthResult:
    """Arc length by adaptive quadrature of the polar integrand.

    The dimensionless integral over [-beta, beta] is evaluated first and then
    scaled by the semi-latus rectum, so equal (e, k) give bitwise-equal length
    ratios across chords.  Raises ``QuadratureNonConvergence`` if the error
    estimate still exceeds 1e-12 * c after the subdivision budget,
    which only happens extremely close to the hyperbola's asymptote domain.
    """
    e = arc.e
    esq = e * e

    def integrand(theta: float) -> float:
        denom = 1.0 + e * math.cos(theta)
        return math.sqrt(1.0 + 2.0 * e * math.cos(theta) + esq) / (denom * denom)

    out = quad(
        integrand,
        -arc.beta,
        arc.beta,
        epsabs=0.0,
        epsrel=_REL_TOL,
        limit=_MAX_SUBDIVISIONS,
        full_output=1,
    )
    value, abserr, info = out[0], out[1], out[2]
    length = arc.p * value
    error = arc.p * abserr
    if error > _REL_TOL * abs(length):
        raise QuadratureNonConvergence(
            f"error estimate {fmt(error)} above tolerance after "
            f"{_MAX_SUBDIVISIONS} subdivisions (e={fmt(e)}, k={fmt(arc.k)})"
        )
    return ArcLengthResult(length=length, error_estimate=error, evaluations=int(info["neval"]))


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
    pts = sample_points(arc, n)
    seg = np.diff(pts, axis=0)
    return float(np.hypot(seg[:, 0], seg[:, 1]).sum())


def g_factor(e: float, k: float) -> float:
    """Arc length per unit chord: c(l, l/k, e) = g_factor(e, k) * l."""
    _check_feasible(e, k)
    return arc_length(construct_arc(1.0, 1.0 / k, e)).length
