"""Arc lengths of symmetric conic arcs.

The primary route integrates the focus-centred polar form,

    c = integral_{-beta}^{beta} sqrt(r^2 + r'^2) dtheta
      = p * integral_{-beta}^{beta} sqrt(1 + 2 e cos(theta) + e^2)
                                    / (1 + e cos(theta))^2 dtheta,

so the chord length factors out completely: c = g(e, k) * l.  The integral
has no elementary antiderivative in general, hence adaptive quadrature:
QUADPACK's QAGS, ported to pure Python in ``quadpack`` bit for bit.  The
circle and parabola do have elementary closed forms, kept in ``oracle`` as
independent checks.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .conic import ConicArc, _check_feasible, construct_arc
from .errors import QuadratureNonConvergence
from .textfmt import fmt

__all__ = [
    "ArcLengthResult",
    "arc_length",
    "g_factor",
]


@functools.cache
def _quadpack():
    """``quadpack``, imported on the first length: commands without one never compile it."""
    from . import quadpack

    return quadpack


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
    ratios across chords.  Raises ``QuadratureNonConvergence`` if the error estimate
    still exceeds ``quadpack.EPSREL`` of the integral after ``quadpack.LIMIT`` subintervals,
    or 1 + e cos(theta) rounds to 0 at a node: both only next to the asymptote.
    """
    e, quadpack = arc.e, _quadpack()
    try:
        value, abserr, evaluations = quadpack.qags(e, arc.beta)
    except ZeroDivisionError:
        raise QuadratureNonConvergence(f"1 + e*cos(theta) rounds to 0 at a quadrature node "
                                       f"(e={fmt(e)}, k={fmt(arc.k)})") from None
    # judged before scaling by p, so an underflowing p cannot hide a failure; NaN fails too
    if not abserr <= quadpack.EPSREL * value:
        raise QuadratureNonConvergence(
            f"relative error estimate {fmt(abserr / value)} above {quadpack.EPSREL!r} after "
            f"{quadpack.LIMIT} subdivisions (e={fmt(e)}, k={fmt(arc.k)})"
        )
    return tuple.__new__(ArcLengthResult, (arc.p * value, arc.p * abserr, evaluations))


def g_factor(e: float, k: float) -> float:
    """Arc length per unit chord: c(l, l/k, e) = g_factor(e, k) * l."""
    e, k = _check_feasible(e, k)
    # l / k is a power of two, so l / (l / k) is k exactly (1 / (1 / k) need not be)
    l = math.frexp(k)[0]
    return arc_length(construct_arc(l, l / k, e)).length / l
