"""Triples of conic arcs on the sides of a triangle.

For a fixed eccentricity e and side-to-sagitta ratio k, the arcs erected on
the three sides have lengths c_i = g(e, k) * l_i, so they inherit the law of
cosines c1^2 = c2^2 + c3^2 - 2 c2 c3 cos A1, with A1 the angle at P1; for the
paper's right triangle, the hypotenuse and two legs, c1^2 = c2^2 + c3^2.  This
module builds such triples, measures the identity's residual, and sweeps
(e, k) grids.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
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


def _cell(tri: PlanarTriangle, e: float, k: float) -> tuple:
    """The row of one cell whose k exceeds e's limit."""
    try:
        _, _, _, (c1, c2, c3), residual = conic_triple(tri, e, k)
    except InfeasibleSagitta:  # a side's l/(l/k) can round onto the limit
        return (e, k, False, None, None, None, None, None)
    return (e, k, True, c1, c2, c3, residual, c1 / tri.l1)


def sweep(tri: PlanarTriangle, e_values: list[float], k_values: list[float]) -> list[SweepRow]:
    """Evaluate the (e, k) grid in ascending order; infeasible cells are flagged rows.

    A grid with enough feasible cells is split over processes (see ``_processes``);
    the rows, and the exception of the first failing cell in grid order, are the
    serial loop's.
    """
    e_values, k_values = sorted(map(float, e_values)), sorted(map(float, k_values))
    if not e_values or not k_values:
        raise ConicError("e_values and k_values must be non-empty")
    if not all(map(math.isfinite, e_values + k_values)):
        raise ConicError("sweep grid values must be finite")
    rows, cells = [], []
    for e in e_values:
        k_min = feasibility_min_k(e)
        for k in k_values:
            if k > k_min:  # checked first, so most infeasible cells raise nothing
                cells.append((len(rows), e, k))
            rows.append(tuple.__new__(SweepRow, (e, k, False, None, None, None, None, None)))
    n = _processes(len(cells))
    done = _split(tri, cells, n) if n > 1 else {}
    for i, e, k in cells:  # what no process computed, in grid order: this raises as serially
        rows[i] = tuple.__new__(SweepRow, done.get(i) or _cell(tri, e, k))
    return rows


# Feasible cells per process below which a sweep stays in one process.  On a
# 2-vCPU Linux host (Python 3.11) one easy cell took ~31 us and one that
# subdivides ~190 us or more, while a fork plus reading 300 rows back from the
# worker cost the parent 0.5 ms in a 16-MB process and 1.4 ms in a 58-MB one:
# the time of 15-45 easy cells.  64 easy cells per process pay for it with room.
_SPLIT_CELLS = 64


def _processes(cells: int) -> int:
    """Processes for a sweep of this many feasible cells: one per CPU this process
    may run on, while each gets ``_SPLIT_CELLS``; 1 off Linux, or while other
    threads run (a fork copies only the calling thread)."""
    if cells < 2 * _SPLIT_CELLS or sys.platform != "linux":
        return 1
    try:
        if len(os.listdir("/proc/self/task")) != 1:
            return 1
        return min(len(os.sched_getaffinity(0)), cells // _SPLIT_CELLS)
    except OSError:
        return 1


def _split(tri: PlanarTriangle, cells: list, n: int) -> dict:
    """{row index: row} of the cells, dealt by index over this process and n - 1
    forked workers.  A worker sends its rows through a pipe in ``marshal``'s
    format, which keeps each float's bits and which the interpreter has loaded at
    start-up.  Each process stops at its first failing cell, and a worker that
    dies or cannot start sends nothing, so the caller computes what is missing.
    Every worker is reaped before this returns or raises; on an exception here,
    killed first."""
    import signal

    pids, pipes = [], []
    try:
        for j in range(1, n):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the caller computes this share
                os.close(r)
                os.close(w)
                break
            if pid == 0:  # the worker: never returns into the caller
                try:
                    os.close(r)
                    with open(w, "wb") as out:
                        marshal.dump(_rows(tri, cells[j::n]), out)
                finally:
                    os._exit(0)
            os.close(w)
            pids.append(pid)
            pipes.append(r)
        done = _rows(tri, cells[::n])
        for r in pipes:
            with open(r, "rb", closefd=False) as src:
                data = src.read()
            try:
                done.update(marshal.loads(data))
            except EOFError:  # the worker died before it wrote them all
                pass
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for r in pipes:
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)
    return done


def _rows(tri: PlanarTriangle, cells: list) -> dict:
    """{row index: row} of the cells, in order, up to the first that raises."""
    done = {}
    try:
        for i, e, k in cells:
            done[i] = _cell(tri, e, k)
    except Exception:  # the caller computes that cell again, in grid order, and raises
        pass
    return done


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
