"""Arc triples on right triangles, residuals, and the sweep harness."""

import hashlib
import math
import random

import pytest
from pytest import approx

from conicarcs import (
    ConicError,
    InfeasibleSagitta,
    PlanarTriangle,
    arc_length,
    build_scene,
    conic_triple,
    construct_arc,
    feasibility_min_k,
    g_factor,
    make_right_triangle,
    place_triangle,
    sweep,
    sweep_csv,
)
from conicarcs.textfmt import fmt
from conicarcs.triples import SWEEP_CSV_HEADER, _residual


def test_make_right_triangle_classic_triples():
    assert make_right_triangle(3.0, 4.0).l1 == approx(5.0, rel=1e-15)
    assert make_right_triangle(1.0, 1.0).l1 == approx(math.sqrt(2.0), rel=1e-15)
    assert make_right_triangle(5.0, 12.0).l1 == approx(13.0, rel=1e-15)


def test_make_right_triangle_normalizes_leg_order():
    tri = make_right_triangle(3.0, 4.0)
    assert tri.l2 == 4.0 and tri.l3 == 3.0
    assert tri.l1 ** 2 == approx(tri.l2 ** 2 + tri.l3 ** 2, rel=1e-14)


def test_make_right_triangle_rejects_bad_legs():
    with pytest.raises(ConicError, match="legs must be positive"):
        make_right_triangle(0.0, 1.0)
    with pytest.raises(ConicError, match="legs must be finite"):
        make_right_triangle(float("inf"), 1.0)
    with pytest.raises(ConicError, match="legs must be finite"):
        make_right_triangle(1.0, float("nan"))
    with pytest.raises(ConicError, match="legs must be positive"):
        make_right_triangle(1.0, -1.0)


def test_triple_focus_angles_identical():
    triple = conic_triple(make_right_triangle(3.0, 4.0), 0.0, 8.0)
    betas = [a.beta for a in triple.arcs]
    assert max(betas) - min(betas) < 1e-13
    assert betas[0] == approx(0.4899573262537283, rel=1e-13)


def test_triple_centre_angles_identical():
    triple = conic_triple(make_right_triangle(5.0, 12.0), 0.5, 4.0)
    alphas = [a.alpha for a in triple.arcs]
    assert max(alphas) - min(alphas) < 1e-13


def test_triple_parabola_lengths():
    triple = conic_triple(make_right_triangle(3.0, 4.0), 1.0, 8.0)
    sides = (triple.arcs[0].l, triple.arcs[1].l, triple.arcs[2].l)
    assert sides == (5.0, 4.0, 3.0)
    for c, l in zip(triple.lengths, sides):
        assert c / l == approx(1.0402288194345509, rel=1e-11)


def test_triple_infeasible_propagates():
    with pytest.raises(InfeasibleSagitta):
        conic_triple(make_right_triangle(3.0, 4.0), 2.0, 3.0)


def test_triple_nonpositive_k_infeasible():
    with pytest.raises(InfeasibleSagitta):
        conic_triple(make_right_triangle(3.0, 4.0), 1.0, 0.0)
    with pytest.raises(InfeasibleSagitta):
        conic_triple(make_right_triangle(3.0, 4.0), 0.5, -2.0)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["conic_triple", "build_scene", "g_factor"])
def test_nonfinite_k_is_named(entry, k):
    calls = {
        "conic_triple": lambda e, k: conic_triple(make_right_triangle(3.0, 4.0), e, k),
        "build_scene": lambda e, k: build_scene(place_triangle(4.0, 3.0), e, k, 16),
        "g_factor": g_factor,
    }
    with pytest.raises(ConicError, match=f"^k must be finite, got {k}$") as info:
        calls[entry](0.5, k)
    assert type(info.value) is ConicError
    with pytest.raises(ConicError, match="eccentricity must be >= 0"):  # e is still checked first
        calls[entry](-0.5, k)


def test_triple_sagittae_exactly_proportional():
    k = 8.0
    tri = make_right_triangle(3.0, 4.0)
    triple = conic_triple(tri, 0.5, k)
    for arc, l in zip(triple.arcs, (tri.l1, tri.l2, tri.l3)):
        assert arc.f == l / k        # stored values, no tolerance
        assert arc.l == l


@pytest.mark.parametrize("e,k", [(1.0, 8.0), (0.5, 4.0)])
def test_residual_small(e, k):
    triple = conic_triple(make_right_triangle(3.0, 4.0), e, k)
    assert triple.residual < 1e-10
    assert _residual(*triple.lengths, 0.0) == triple.residual


def test_residual_formula_sanity():
    triple = conic_triple(make_right_triangle(3.0, 4.0), 1.0, 8.0)
    c1, c2, _ = triple.lengths
    assert _residual(c1, c2, 0.0, 0.0) == approx(abs(c1 ** 2 - c2 ** 2) / c1 ** 2, rel=1e-15)


def test_residual_is_the_law_of_cosines():  # |1 - r2^2 - r3^2| alone would read 1.44 here
    tri = place_triangle(6.0, 4.0)._replace(p3=(3.0, 4.0))  # (0, 0), (6, 0), (3, 4)
    for row in sweep(tri, [0.0, 0.5, 1.0, 2.0], [8.0]):
        assert conic_triple(tri, row.e, row.k).residual == row.residual <= 2.0 ** -51


def test_residual_of_a_needle_is_finite():  # c2 / c1 = 1e170 would square to inf
    tri = PlanarTriangle((0, 0), (1, 0), (1, 1e-170))
    triple = conic_triple(tri, 0.5, 8.0)
    assert triple.lengths[0] < 1e-169 and triple.residual <= 2.0 ** -51
    row = sweep_csv(sweep(tri, [0.5], [8.0])).splitlines()[1].split(",")
    assert row[6] == fmt(triple.residual) and "nan" not in row


@pytest.mark.parametrize("lam", [0.01, 100.0])
def test_residual_invariant_under_scaling(lam):
    base = conic_triple(make_right_triangle(3.0, 4.0), 0.7, 4.0)
    scaled = conic_triple(make_right_triangle(3.0 * lam, 4.0 * lam), 0.7, 4.0)
    assert abs(scaled.residual - base.residual) < 1e-10


def test_sweep_grid_shape_and_order():
    tri = make_right_triangle(3.0, 4.0)
    rows = sweep(tri, [1.0, 0.0], [8.0])
    assert [(r.e, r.k) for r in rows] == [(0.0, 8.0), (1.0, 8.0)]
    assert all(r.feasible for r in rows)


def test_sweep_flags_infeasible_cells():
    tri = make_right_triangle(3.0, 4.0)
    rows = sweep(tri, [2.0], [3.0, 4.0])
    assert rows[0].feasible is False
    assert rows[0].c1 is None and rows[0].residual is None and rows[0].g is None
    assert rows[1].feasible is True
    assert rows[1].residual < 1e-10


def test_sweep_g_column_matches_g_factor():
    tri = make_right_triangle(5.0, 12.0)
    rows = sweep(tri, [0.0, 0.7, 1.5], [4.0, 16.0])
    for r in rows:
        assert r.feasible
        assert r.g == approx(g_factor(r.e, r.k), rel=1e-12)


def test_sweep_rejects_empty_or_nonfinite_grids():
    tri = make_right_triangle(3.0, 4.0)
    with pytest.raises(ConicError, match="e_values and k_values must be non-empty"):
        sweep(tri, [], [8.0])
    with pytest.raises(ConicError, match="sweep grid values must be finite"):
        sweep(tri, [0.5], [float("nan")])


def test_sweep_csv_format():
    tri = make_right_triangle(3.0, 4.0)
    text = sweep_csv(sweep(tri, [2.0], [3.0, 4.0]))
    lines = text.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER == "e,k,feasible,c1,c2,c3,residual,g"
    assert lines[1] == "2,3,false,,,,,"
    cells = lines[2].split(",")
    assert cells[:3] == ["2", "4", "true"]
    # 17-significant-digit cells round-trip to the computed values
    triple = conic_triple(tri, 2.0, 4.0)
    assert float(cells[3]) == triple.lengths[0]
    assert float(cells[7]) == triple.lengths[0] / tri.l1


def test_sweep_csv_deterministic():
    tri = make_right_triangle(3.0, 4.0)
    a = sweep_csv(sweep(tri, [0.0, 1.0, 2.0], [3.0, 8.0]))
    b = sweep_csv(sweep(tri, [0.0, 1.0, 2.0], [3.0, 8.0]))
    assert a == b


def test_sweep_csv_bytes_pinned():
    # SHA-256 pinned from a sweep that sent every cell through conic_triple.  The
    # grid holds k <= 0, the exact limit (e = 0, k = 2), k = 3.7, where l/(l/k) != k
    # on two sides, and the float just above e = 1000's limit, where the
    # hypotenuse's l/(l/k) rounds onto the limit and conic_triple raises
    tri = make_right_triangle(7.0, 4.0)
    k_edge = math.nextafter(feasibility_min_k(1000.0), math.inf)
    assert any(l / (l / 3.7) != 3.7 for l in (tri.l1, tri.l2, tri.l3))
    assert not tri.l1 / (tri.l1 / k_edge) > feasibility_min_k(1000.0)
    rows = sweep(tri, [1000.0, 2.0, 1.0, 0.5, 0.0], [2500.0, k_edge, 8.0, 3.7, 2.0, 0.0, -1.0])
    assert [r.feasible for r in rows if r.e == 1000.0] == [False] * 6 + [True]
    assert hashlib.sha256(sweep_csv(rows).encode()).hexdigest() == (
        "de2eb0158330590a98649ee6006b6c0aaa84c0097b39c31a9db75e74833ade73")


def _sweep_csv_by_fmt(rows) -> str:
    """The CSV built one cell at a time with ``fmt``."""
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        cells = [fmt(r.e), fmt(r.k), "true" if r.feasible else "false"]
        cells += ["" if v is None else fmt(v) for v in (r.c1, r.c2, r.c3, r.residual, r.g)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("legs", [(3.0, 4.0), (1e-300, 2.5e-300), (1.1e300, 3e299)])
def test_sweep_csv_matches_fmt_cell_by_cell(legs):
    rng = random.Random(2)
    e_values = [-0.0, 1.0] + [rng.uniform(0.0, 3.0) for _ in range(6)]
    k_values = [10.0 ** rng.uniform(-0.3, 3.0) for _ in range(8)]
    rows = sweep(make_right_triangle(*legs), e_values, k_values)
    assert {r.feasible for r in rows} == {True, False}
    assert math.copysign(1.0, rows[0].e) == -1.0
    text = sweep_csv(rows)
    assert text == _sweep_csv_by_fmt(rows)
    assert text.splitlines()[1].startswith("0,")
    # e and k share values, and each list holds -0.0 before the 0.0 equal to it: a
    # value's text must not depend on which of the equal floats was seen first
    shared = sweep(make_right_triangle(*legs), [-0.0, 0.0, 1.0, 2.0, 4.0, 8.0],
                   [-0.0, 0.0, 1.0, 2.0, 4.0, 8.0])
    assert [math.copysign(1.0, r.e) for r in shared[:7]] == [-1.0] * 6 + [1.0]
    assert [math.copysign(1.0, r.k) for r in shared[:2]] == [-1.0, 1.0]
    assert {r.feasible for r in shared} == {True, False}
    text = sweep_csv(shared)
    assert text == _sweep_csv_by_fmt(shared)
    assert text.splitlines()[1:3] == ["0,0,false,,,,,"] * 2 and "-0," not in text


def test_triple_lengths_equal_single_arc_lengths_bitwise():
    # each side's length is the length of its own arc, built from f = l/k,
    # also on sides where l/(l/k) != k
    rng = random.Random(1)
    rounded = 0
    for _ in range(3):
        tri = make_right_triangle(10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3))
        sides = (tri.l1, tri.l2, tri.l3)
        e_values = [0.0, 1.0] + [rng.uniform(0.0, 3.0) for _ in range(6)]
        k_values = [10.0 ** rng.uniform(math.log10(0.5), math.log10(200.0)) for _ in range(8)]
        for row in sweep(tri, e_values, k_values):
            if not row.feasible:
                continue
            single = [arc_length(construct_arc(l, l / row.k, row.e)).length for l in sides]
            assert [row.c1, row.c2, row.c3] == single
            assert list(conic_triple(tri, row.e, row.k).lengths) == single
            rounded += any(l / (l / row.k) != row.k for l in sides)
    assert rounded > 0
