"""Quadrature vs closed forms, brute-force polylines, and the g(e, k) factor."""

import math

import pytest
from pytest import approx
from scipy.integrate import quad

from conicarcs import (
    ConicClass,
    ConicError,
    InfeasibleSagitta,
    QuadratureNonConvergence,
    arc_length,
    closed_form_circle,
    closed_form_parabola,
    construct_arc,
    feasibility_min_k,
    g_factor,
    polyline_length,
)

GRID_E = [0.0, 0.3, 0.7, 1.0, 1.5, 3.0]
GRID_K = [4.0, 8.0, 16.0]


def feasible_cells():
    return [(e, k) for e in GRID_E for k in GRID_K if k > feasibility_min_k(e)]


def parametric_oracle(arc):
    """Arc length from the canonical parametrization, independent of the polar route."""
    if arc.conic_class is ConicClass.ELLIPSE:
        t1 = math.acos(arc.m / arc.a)
        ds = lambda t: math.hypot(arc.a * math.sin(t), arc.b * math.cos(t))
    elif arc.conic_class is ConicClass.HYPERBOLA:
        t1 = math.asinh((arc.l / 2.0) / arc.b)
        ds = lambda t: math.hypot(arc.a * math.sinh(t), arc.b * math.cosh(t))
    else:
        raise AssertionError("oracle covers central conics without closed forms")
    value, _ = quad(ds, -t1, t1, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def test_circle_semicircle_limit():
    arc = construct_arc(2.0, 1.0 - 1e-12, 0.0)
    assert arc_length(arc).length == approx(math.pi, abs=1e-10)


def test_circle_frozen_value():
    # 2 R asin(l / 2R) with R = 1.0625
    arc = construct_arc(1.0, 0.125, 0.0)
    assert closed_form_circle(arc) == approx(2.0 * 1.0625 * math.asin(0.5 / 1.0625), rel=1e-15)
    assert closed_form_circle(arc) == approx(1.0411593182891727, rel=1e-14)
    assert arc_length(arc).length == approx(1.0411593182891727, rel=1e-12)


def test_parabola_frozen_value():
    # l * (u sqrt(1+u^2) + asinh u) at u = 1/2
    arc = construct_arc(1.0, 0.125, 1.0)
    expected = 0.5 * math.sqrt(1.25) + math.asinh(0.5)
    assert closed_form_parabola(arc) == approx(expected, rel=1e-15)
    assert closed_form_parabola(arc) == approx(1.0402288194345509, rel=1e-14)
    assert arc_length(arc).length == approx(1.0402288194345509, rel=1e-12)


def test_parabola_closed_form_scales_linearly():
    base = closed_form_parabola(construct_arc(1.0, 0.125, 1.0))
    for lam in (0.01, 3.0, 250.0):
        scaled = closed_form_parabola(construct_arc(lam, 0.125 * lam, 1.0))
        assert scaled == approx(lam * base, rel=1e-14)


def test_closed_forms_reject_wrong_class():
    ell = construct_arc(1.0, 0.25, 0.5)
    with pytest.raises(ConicError, match="expected a circle"):
        closed_form_circle(ell)
    with pytest.raises(ConicError, match="expected a parabola"):
        closed_form_parabola(ell)


@pytest.mark.parametrize("l,f,e", [(1.0, 0.125, 0.0), (3.0, 0.2, 0.0), (1.0, 0.125, 1.0), (5.0, 1.0, 1.0)])
def test_quadrature_matches_closed_forms(l, f, e):
    arc = construct_arc(l, f, e)
    closed = closed_form_circle(arc) if e == 0.0 else closed_form_parabola(arc)
    assert arc_length(arc).length == approx(closed, rel=1e-11)


def test_quadrature_matches_parametric_oracle():
    cases = [(1.0, 0.25, 0.5), (1.0, 0.125, 2.0), (2.7, 2.7 / 5.0, 0.9), (4.0, 0.5, 1.6)]
    for l, f, e in cases:
        arc = construct_arc(l, f, e)
        assert arc_length(arc).length == approx(parametric_oracle(arc), rel=1e-10)


def test_frozen_central_conic_values():
    assert arc_length(construct_arc(1.0, 0.25, 0.5)).length == approx(1.1560751223644281, rel=1e-12)
    assert arc_length(construct_arc(1.0, 0.125, 2.0)).length == approx(1.0377798008325553, rel=1e-12)


def test_result_fields():
    res = arc_length(construct_arc(1.0, 0.25, 0.5))
    assert res.error_estimate >= 0.0
    assert res.error_estimate <= 1e-12 * res.length
    assert res.evaluations >= 15


def test_polyline_two_segments_near_semicircle():
    arc = construct_arc(2.0, 1.0 - 1e-12, 0.0)
    assert polyline_length(arc, 2) == approx(2.0 * math.sqrt(2.0), abs=1e-9)


@pytest.mark.parametrize("e,k", [(0.5, 4.0), (2.0, 8.0), (1.0, 8.0), (0.0, 16.0)])
def test_polyline_monotone_and_below_arc(e, k):
    arc = construct_arc(1.0, 1.0 / k, e)
    c = arc_length(arc).length
    prev = 0.0
    for n in (2, 4, 8, 16, 32, 64):
        length = polyline_length(arc, n)
        assert length >= prev
        assert length < c
        prev = length


def test_polyline_converges_to_quadrature():
    arc = construct_arc(1.0, 0.25, 0.5)
    c = arc_length(arc).length
    assert abs(polyline_length(arc, 200000) - c) / c < 1e-6


@pytest.mark.parametrize("e,k", [(0.5, 4.0), (2.0, 4.0), (0.5, 8.0), (2.0, 8.0)])
def test_quadrature_vs_polyline_grid(e, k):
    if k <= feasibility_min_k(e):
        pytest.skip("infeasible cell")
    arc = construct_arc(1.0, 1.0 / k, e)
    c = arc_length(arc).length
    assert abs(polyline_length(arc, 200000) - c) / c < 1e-6


@pytest.mark.parametrize("e,k", [(0.0, 8.0), (0.3, 4.0), (0.7, 16.0), (1.0, 8.0), (1.5, 4.0), (3.0, 8.0)])
def test_factorization_constant_across_chord_lengths(e, k):
    g = g_factor(e, k)
    for l in (0.1, 1.0, 5.0, 300.0, 1000.0):
        c = arc_length(construct_arc(l, l / k, e)).length
        assert c / l == approx(g, rel=1e-10)


def test_g_factor_values():
    assert g_factor(0.0, 2.0 + 1e-12) == approx(math.pi / 2.0, abs=1e-9)
    assert g_factor(1.0, 8.0) == approx(1.0402288194345509, rel=1e-12)
    assert g_factor(0.0, 8.0) == approx(1.0411593182891727, rel=1e-12)
    with pytest.raises(InfeasibleSagitta):
        g_factor(0.0, 2.0)
    with pytest.raises(InfeasibleSagitta):
        g_factor(1.0, 0.0)


def test_g_factor_continuous_across_parabola():
    g0 = g_factor(1.0, 8.0)
    assert abs(g_factor(1.0 - 1e-6, 8.0) - g0) < 1e-4
    assert abs(g_factor(1.0 + 1e-6, 8.0) - g0) < 1e-4


def test_arc_exceeds_chord():
    for e, k in feasible_cells():
        assert arc_length(construct_arc(1.0, 1.0 / k, e)).length > 1.0


def test_nonconvergence_near_asymptote_domain():
    # hyperbola hugging the feasibility boundary: p -> 0 and the integrand
    # spikes at the endpoints; the subdivision budget runs out
    e = 3.0
    k = feasibility_min_k(e) * (1.0 + 1e-6)
    with pytest.raises(QuadratureNonConvergence):
        arc_length(construct_arc(1.0, 1.0 / k, e))
