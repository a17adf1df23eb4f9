"""Triples of conic arcs on the sides of a triangle.

For a fixed eccentricity e and side-to-sagitta ratio k, the arcs erected on
the three sides have lengths c_i = g(e, k) * l_i, so they inherit the law of
cosines c1^2 = c2^2 + c3^2 - 2 c2 c3 cos A1, with A1 the angle at P1; for the
paper's right triangle, the hypotenuse and two legs, c1^2 = c2^2 + c3^2.  This
module builds such triples, measures the identity's residual, and sweeps
(e, k) grids.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arclength import arc_length
from .conic import ConicArc, _check_feasible, construct_arc, feasibility_min_k
from .errors import ConicError, InfeasibleSagitta
from .homothety import PlanarTriangle, place_triangle
from .textfmt import fmt  # noqa: F401  # perfbench counts fmt calls through this name

__all__ = [
    "ConicTriple",
    "SweepRow",
    "make_right_triangle",
    "conic_triple",
    "sweep",
    "sweep_csv",
    "SWEEP_CSV_HEADER",
]


def make_right_triangle(l2: float, l3: float) -> PlanarTriangle:
    """Right triangle from its two legs, embedded as by ``place_triangle`` with l2 >= l3."""
    tri = place_triangle(l2, l3)  # validates the legs in the order given
    return place_triangle(tri.l3, tri.l2) if tri.l3 > tri.l2 else tri


class ConicTriple(NamedTuple):
    """The arcs of one (e, k) on sides l1, l2, l3, their lengths, and the residual
    |r1^2 - r2^2 - r3^2 + 2 r2 r3 cos A1| of the law of cosines, r_i = c_i / max(c1, c2, c3)."""

    e: float
    k: float
    arcs: tuple[ConicArc, ConicArc, ConicArc]
    lengths: tuple[float, float, float]
    residual: float


def _residual(c1: float, c2: float, c3: float, cos_a1: float) -> float:
    # Ratios to the largest length are at most 1: squared, they cannot overflow, as
    # a squared length could, and underflow only where negligible next to 1.  For
    # a right triangle c1 is the largest, so r1 is exactly 1.
    top = max(c1, c2, c3)
    r1, r2, r3 = c1 / top, c2 / top, c3 / top
    return abs(r1 * r1 - r2 * r2 - r3 * r3 + 2.0 * r2 * r3 * cos_a1)


def conic_triple(tri: PlanarTriangle, e: float, k: float) -> ConicTriple:
    """Arcs of one (e, k) family on all three sides, with lengths and residual.

    Each side i carries the arc with sagitta f_i = l_i / k; infeasible (e, k)
    propagates ``InfeasibleSagitta`` from the construction.
    """
    e, k = _check_feasible(e, k)  # rejects k <= 0 before any division
    l1, l2, l3 = tri.l1, tri.l2, tri.l3
    arcs = construct_arc(l1, l1 / k, e), construct_arc(l2, l2 / k, e), construct_arc(l3, l3 / k, e)
    lengths = arc_length(arcs[0]).length, arc_length(arcs[1]).length, arc_length(arcs[2]).length
    return tuple.__new__(ConicTriple, (e, k, arcs, lengths, _residual(*lengths, tri.cos_a1)))


class SweepRow(NamedTuple):
    """One (e, k) cell of a verification sweep; numeric fields absent when infeasible."""

    e: float
    k: float
    feasible: bool
    c1: float | None = None
    c2: float | None = None
    c3: float | None = None
    residual: float | None = None
    g: float | None = None


def sweep(tri: PlanarTriangle, e_values: list[float], k_values: list[float]) -> list[SweepRow]:
    """Evaluate the (e, k) grid in ascending order; infeasible cells are flagged rows."""
    e_values, k_values = sorted(map(float, e_values)), sorted(map(float, k_values))
    if not e_values or not k_values:
        raise ConicError("e_values and k_values must be non-empty")
    if not all(map(math.isfinite, e_values + k_values)):
        raise ConicError("sweep grid values must be finite")
    rows = []
    for e in e_values:
        k_min = feasibility_min_k(e)
        for k in k_values:
            row = (e, k, False, None, None, None, None, None)
            if k > k_min:  # checked first, so most infeasible cells raise nothing
                try:
                    _, _, _, (c1, c2, c3), residual = conic_triple(tri, e, k)
                except InfeasibleSagitta:  # a side's l/(l/k) can round onto the limit
                    pass
                else:
                    row = (e, k, True, c1, c2, c3, residual, c1 / tri.l1)
            rows.append(tuple.__new__(SweepRow, row))
    return rows


SWEEP_CSV_HEADER = "e,k,feasible,c1,c2,c3,residual,g"
_FEASIBLE_ROW = "%s,%s,true,%.17g,%.17g,%.17g,%.17g,%.17g\n"
_INFEASIBLE_ROW = "%s,%s,false,,,,,\n"


def sweep_csv(rows: list[SweepRow]) -> str:
    """Serialize sweep rows to CSV (17 significant digits, empty cells when infeasible).

    Each row goes through one ``%``: ``%.17g`` prints a float exactly as
    ``fmt`` does, and ``+ 0.0`` folds -0.0 into 0.0 as it does there.  A grid
    repeats its e and k values, so each distinct one is printed once (-0.0 and
    0.0 are one key, which the fold makes safe).
    """
    text = {v: "%.17g" % (v + 0.0) for v in {r[0] for r in rows} | {r[1] for r in rows}}
    lines = [SWEEP_CSV_HEADER + "\n"]
    for e, k, feasible, c1, c2, c3, residual, g in rows:
        if feasible:
            lines.append(_FEASIBLE_ROW % (text[e], text[k], c1 + 0.0, c2 + 0.0, c3 + 0.0,
                                          residual + 0.0, g + 0.0))
        else:
            lines.append(_INFEASIBLE_ROW % (text[e], text[k]))
    return "".join(lines)
