"""Arc lengths of symmetric conic arcs.

The primary route integrates the focus-centred polar form,

    c = integral_{-beta}^{beta} sqrt(r^2 + r'^2) dtheta
      = p * integral_{-beta}^{beta} sqrt(1 + 2 e cos(theta) + e^2)
                                    / (1 + e cos(theta))^2 dtheta,

so the chord length factors out completely: c = g(e, k) * l.  The integral
has no elementary antiderivative in general, hence adaptive quadrature:
QUADPACK's QAGS, ported to pure Python in ``quadpack`` bit for bit.  The
circle and parabola do have elementary closed forms, kept here as independent
oracles, together with a brute-force polyline length.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

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


@functools.cache
def _qags():
    """``quadpack.qags``, imported on the first length: commands without one never compile it."""
    from .quadpack import qags

    return qags


class ArcLengthResult(NamedTuple):
    """An arc length, its error estimate, and QUADPACK's count of integrand evaluations.

    ``evaluations`` is QUADPACK's nominal count, 21 per Gauss-Kronrod rule
    (42 * last - 21 after ``last`` subintervals), not the number of integrand
    calls made: rules on mirror-image subintervals are computed once.
    """

    length: float
    error_estimate: float
    evaluations: int


def arc_length(arc: ConicArc) -> ArcLengthResult:
    """Arc length by adaptive quadrature of the polar integrand.

    The dimensionless integral over [-beta, beta] is evaluated first and then
    scaled by the semi-latus rectum, so equal (e, k) give bitwise-equal length
    ratios across chords.  Raises ``QuadratureNonConvergence`` if the error
    estimate still exceeds 1e-12 of the integral after the subdivision budget,
    or 1 + e cos(theta) rounds to 0 at a node: both only next to the asymptote.
    """
    e = arc.e
    try:
        value, abserr, evaluations = _qags()(e, arc.beta, _REL_TOL, _MAX_SUBDIVISIONS)
    except ZeroDivisionError:
        raise QuadratureNonConvergence(f"1 + e*cos(theta) rounds to 0 at a quadrature node "
                                       f"(e={fmt(e)}, k={fmt(arc.k)})") from None
    # judged before scaling by p, so an underflowing p cannot hide a failure; NaN fails too
    if not abserr <= _REL_TOL * value:
        raise QuadratureNonConvergence(
            f"relative error estimate {fmt(abserr / value)} above {_REL_TOL!r} after "
            f"{_MAX_SUBDIVISIONS} subdivisions (e={fmt(e)}, k={fmt(arc.k)})"
        )
    return ArcLengthResult(arc.p * value, arc.p * abserr, evaluations)


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


def g_factor(e: float, k: float) -> float:
    """Arc length per unit chord: c(l, l/k, e) = g_factor(e, k) * l."""
    e, k = _check_feasible(e, k)
    # l / k is a power of two, so l / (l / k) is k exactly (1 / (1 / k) need not be)
    l = math.frexp(k)[0]
    return arc_length(construct_arc(l, l / k, e)).length / l
