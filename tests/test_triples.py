"""Arc triples on right triangles, residuals, and the sweep harness."""

import hashlib
import math

import pytest
from pytest import approx

from conicarcs import (
    ConicError,
    InfeasibleSagitta,
    conic_triple,
    feasibility_min_k,
    g_factor,
    make_right_triangle,
    sweep,
    sweep_csv,
)
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
    assert _residual(*triple.lengths) == triple.residual


def test_residual_formula_sanity():
    triple = conic_triple(make_right_triangle(3.0, 4.0), 1.0, 8.0)
    c1, c2, _ = triple.lengths
    assert _residual(c1, c2, 0.0) == approx(abs(c1 ** 2 - c2 ** 2) / c1 ** 2, rel=1e-15)


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
