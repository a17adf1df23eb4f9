"""Exception types raised by the geometry and quadrature layers.

Only the distinctions a caller acts on get their own class: an infeasible
(e, k) (CLI exit 3, a flagged row in ``sweep``) and a quadrature that did not
converge.  Every other invalid input is a plain ``ConicError`` whose message
names the check that failed.
"""


class ConicError(ValueError):
    """Invalid geometric or numerical input."""


class InfeasibleSagitta(ConicError):
    """The sagitta is too large for an arc of the requested eccentricity."""


class QuadratureNonConvergence(RuntimeError):
    """Error estimate still above tolerance after the subdivision budget, or the
    integrand's pole, 1 + e cos(theta) = 0, met at a quadrature node."""
