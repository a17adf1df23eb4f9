"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report; the whole module stays well under the two-minute budget.
"""

import math

import pytest
from pytest import approx

from conicarcs import (
    InfeasibleSagitta,
    arc_length,
    conic_triple,
    construct_arc,
    enveloping_triangle,
    feasibility_min_k,
    g_factor,
    make_right_triangle,
    place_triangle,
    pythagorean_centre,
    verify_homothety,
)
from conicarcs.oracle import closed_form_circle, closed_form_parabola, polyline_length
from conicarcs.cli import main

GRID_E = [0.0, 0.3, 0.7, 1.0, 1.5, 3.0]
GRID_K = [4.0, 8.0, 16.0]
FEASIBLE = [(e, k) for e in GRID_E for k in GRID_K if k > feasibility_min_k(e)]


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_quadratic_identity_residual_grid():
    worst = 0.0
    cells = 0
    for legs in ((3.0, 4.0), (1.0, 1.0), (5.0, 12.0)):
        tri = make_right_triangle(*legs)
        for e, k in FEASIBLE:
            triple = conic_triple(tri, e, k)
            assert triple.residual < 1e-9
            worst = max(worst, triple.residual)
            cells += 1
    assert cells == 3 * len(FEASIBLE) == 51
    report(1, f"quadratic identity residual < 1e-9 on {cells} cells (worst {worst:.3g})")


def test_criterion_2_factorization_constant_over_4_decades():
    pairs = [(0.0, 8.0), (0.3, 4.0), (0.7, 16.0), (1.0, 8.0), (1.5, 4.0), (3.0, 8.0)]
    chords = [0.1, 1.0, 5.0, 300.0, 1000.0]
    for e, k in pairs:
        ratios = [arc_length(construct_arc(l, l / k, e)).length / l for l in chords]
        for r in ratios[1:]:
            assert r == approx(ratios[0], rel=1e-10)
    report(2, f"c/l constant over l in {chords} for {len(pairs)} (e,k) pairs")


def test_criterion_3_oracle_equivalence():
    for e, k in FEASIBLE:
        arc = construct_arc(1.0, 1.0 / k, e)
        c = arc_length(arc).length
        assert abs(polyline_length(arc, 200000) - c) / c < 1e-6
        if e == 0.0:
            assert abs(closed_form_circle(arc) - c) / c < 1e-11
        elif e == 1.0:
            assert abs(closed_form_parabola(arc) - c) / c < 1e-11
    report(3, f"quadrature vs 200000-segment polyline and closed forms on {len(FEASIBLE)} cells")


def test_criterion_4_angle_constancy():
    tri = make_right_triangle(3.0, 4.0)
    for e, k in FEASIBLE:
        triple = conic_triple(tri, e, k)
        betas = [a.beta for a in triple.arcs]
        assert max(betas) - min(betas) < 1e-13
    for e in (0.3, 0.7):
        for k in GRID_K:
            formula = math.atan((1.0 - e * e) / ((k * k - 4.0 * (1.0 - e * e)) / (4.0 * k)))
            arc = construct_arc(2.5, 2.5 / k, e)
            assert math.atan2(arc.l / 2.0, arc.m) == approx(formula, abs=1e-13)
            assert arc.alpha == approx(formula, abs=1e-13)
    report(4, "focus half-angles agree to 1e-13 per triple; ellipse centre-angle formula matches")


def test_criterion_5_feasibility_boundary():
    for e in (0.0, 0.5, 2.0):
        k_min = feasibility_min_k(e)
        construct_arc(1.0, 1.0 / (k_min * (1.0 + 1e-9)), e)
        with pytest.raises(InfeasibleSagitta):
            construct_arc(1.0, 1.0 / (k_min * (1.0 - 1e-9)), e)
    report(5, "construct accepts k_min*(1+1e-9) and rejects k_min*(1-1e-9) for e in {0, 0.5, 2}")


def test_criterion_6_homothety():
    tri = place_triangle(4.0, 3.0)
    tol = 1e-10 * tri.l1
    h1 = tri.l2 * tri.l3 / tri.l1
    centres = []
    for k in (4.0, 8.0, 16.0):
        rep = verify_homothety(tri, k)
        assert rep.max_deviation < tol
        assert rep.ratio == approx(1.0 + 2.0 * tri.l1 / (k * h1), rel=1e-12)
        centres.append(rep.centre)
        # concurrency of the three vertex-image lines at the centre
        env = enveloping_triangle(tri, k)
        for orig, img in ((tri.p1, env.p1), (tri.p2, env.p2), (tri.p3, env.p3)):
            dx, dy = img.x - orig.x, img.y - orig.y
            cross = dx * (0.96 - orig.y) - dy * (0.72 - orig.x)
            assert abs(cross) / math.hypot(dx, dy) < tol
    expected = pythagorean_centre(tri)
    assert (expected.x, expected.y) == approx((0.72, 0.96), rel=1e-14)
    for c in centres:
        assert (c.x, c.y) == (centres[0].x, centres[0].y)
    report(6, "envelope = homothety image about (0.72, 0.96) for k in {4, 8, 16}")


def test_criterion_7_unified_semi_latus_rectum_and_continuity():
    l = 1.3
    for e, k in FEASIBLE:
        arc = construct_arc(l, l / k, e)
        if e == 0.0:
            per_class = l * l / (8.0 * arc.f) + arc.f / 2.0
        elif e == 1.0:
            per_class = k * l / 8.0
        elif e < 1.0:
            per_class = arc.a * (1.0 - e * e)
        else:
            per_class = arc.a * (e * e - 1.0)
        assert arc.p == approx(per_class, rel=1e-14)
    g0 = g_factor(1.0, 8.0)
    assert abs(g_factor(1.0 - 1e-6, 8.0) - g0) < 1e-4
    assert abs(g_factor(1.0 + 1e-6, 8.0) - g0) < 1e-4
    report(7, "p/l = k/8 + (1-e^2)/(2k) matches per-class forms; g(.,8) continuous at e=1")


def test_criterion_8_cli_determinism(capsys):
    invocations = [
        ("construct", "--l", "1", "--f", "0.25", "--e", "0.5"),
        ("arclen", "--l", "1", "--f", "0.125", "--e", "1"),
        ("verify", "--leg2", "3", "--leg3", "4", "--e", "1", "--k", "8"),
        ("sweep", "--leg2", "3", "--leg3", "4", "--e-list", "0,0.3,0.7,1,1.5,3",
         "--k-list", "4,8,16"),
        ("scene", "--leg2", "4", "--leg3", "3", "--e", "1", "--k", "8"),
        ("centre", "--leg2", "4", "--leg3", "3", "--k-list", "4,8,16"),
        ("oracle", "--l", "1", "--f", "0.125", "--e", "0", "--n", "5000"),
    ]
    for argv in invocations:
        code_a = main(list(argv))
        out_a = capsys.readouterr()
        code_b = main(list(argv))
        out_b = capsys.readouterr()
        assert code_a == code_b == 0
        assert out_a.out == out_b.out
        assert out_a.out
    svg_argv = ["scene", "--leg2", "4", "--leg3", "3", "--e", "1", "--k", "8"]
    main(svg_argv)
    svg_a = capsys.readouterr().out.encode()
    main(svg_argv)
    svg_b = capsys.readouterr().out.encode()
    assert svg_a == svg_b
    report(8, f"{len(invocations)} subcommands byte-identical across runs; SVG byte-stable")
