"""Triples of conic arcs on the sides of a right triangle.

For a fixed eccentricity e and side-to-sagitta ratio k, the arcs erected on
the hypotenuse and the two legs have lengths c_i = g(e, k) * l_i, so they
inherit the quadratic side relation: c1^2 = c2^2 + c3^2.  This module builds
such triples, measures the identity's residual, and sweeps (e, k) grids.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from .arclength import arc_length
from .conic import ConicArc, _check_feasible, construct_arc, feasibility_min_k
from .errors import ConicError, InfeasibleSagitta
from .homothety import PlanarTriangle, place_triangle
from .textfmt import fmt

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


@dataclass(frozen=True)
class ConicTriple:
    e: float
    k: float
    arcs: tuple[ConicArc, ConicArc, ConicArc]
    lengths: tuple[float, float, float]
    residual: float


def _residual(c1: float, c2: float, c3: float) -> float:
    # Ratios to the largest length c1 cannot overflow, and their squares only
    # underflow where they are negligible next to 1; squaring c1 itself would.
    r2, r3 = c2 / c1, c3 / c1
    return abs(1.0 - r2 * r2 - r3 * r3)


def conic_triple(tri: PlanarTriangle, e: float, k: float) -> ConicTriple:
    """Arcs of one (e, k) family on all three sides, with lengths and residual.

    Each side i carries the arc with sagitta f_i = l_i / k; infeasible (e, k)
    propagates ``InfeasibleSagitta`` from the construction.
    """
    _check_feasible(e, k)  # rejects k <= 0 before any division
    arcs = tuple(construct_arc(l, l / k, e) for l in (tri.l1, tri.l2, tri.l3))
    lengths = tuple(arc_length(a).length for a in arcs)
    return ConicTriple(e=e, k=k, arcs=arcs, lengths=lengths,
                       residual=_residual(*lengths))


@dataclass(frozen=True)
class SweepRow:
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
    if not e_values or not k_values:
        raise ConicError("e_values and k_values must be non-empty")
    if not all(math.isfinite(v) for v in list(e_values) + list(k_values)):
        raise ConicError("sweep grid values must be finite")
    rows = []
    for e in sorted(e_values):
        k_min = feasibility_min_k(e)
        for k in sorted(k_values):
            t = None
            if k > k_min:  # checked first, so most infeasible cells raise nothing
                try:
                    t = conic_triple(tri, e, k)
                except InfeasibleSagitta:  # a side's l/(l/k) can round onto the limit
                    pass
            if t is None:
                rows.append(SweepRow(e=e, k=k, feasible=False))
                continue
            rows.append(SweepRow(e=e, k=k, feasible=True, c1=t.lengths[0],
                                 c2=t.lengths[1], c3=t.lengths[2],
                                 residual=t.residual, g=t.lengths[0] / tri.l1))
    return rows


SWEEP_CSV_HEADER = "e,k,feasible,c1,c2,c3,residual,g"


def sweep_csv(rows: list[SweepRow]) -> str:
    """Serialize sweep rows to CSV (17 significant digits, empty cells when infeasible)."""
    buf = io.StringIO()
    buf.write(SWEEP_CSV_HEADER + "\n")
    for r in rows:
        cells = [fmt(r.e), fmt(r.k), "true" if r.feasible else "false"]
        cells += ["" if v is None else fmt(v) for v in (r.c1, r.c2, r.c3, r.residual, r.g)]
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()
