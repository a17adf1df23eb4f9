"""Quadrature vs closed forms, brute-force polylines, and the g(e, k) factor."""

import math
import random
import re

import pytest
from pytest import approx
from scipy.integrate import quad

from conicarcs import (
    ConicClass,
    ConicError,
    InfeasibleSagitta,
    QuadratureNonConvergence,
    arc_length,
    conic_triple,
    construct_arc,
    feasibility_min_k,
    g_factor,
    make_right_triangle,
    sample_points,
)
from conicarcs.oracle import closed_form_circle, closed_form_parabola, polyline_length
from conicarcs.quadpack import _EPMACH, EPSREL, LIMIT, qags
from conicarcs.textfmt import fmt

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


# (length, error_estimate, evaluations) of the unit-chord arc, bit for bit as the
# integrand with two cosines per evaluation gave them; at e = 5e-324, e*cos(theta)
# is subnormal, where 2*e*cos(theta) and 2*(e*cos(theta)) can differ
@pytest.mark.parametrize("e,k,expected", [
    (0.0, 8.0, (1.0411593182891725, 1.1559190474676714e-14, 21)),
    (0.5, 4.0, (1.156075122364428, 1.2835012190453332e-14, 21)),
    (1.0, 8.0, (1.0402288194345508, 1.1548859862148828e-14, 21)),
    (2.0, 8.0, (1.0377798008325552, 6.091838578212034e-14, 63)),
    (1000.0, 2500.0, (1.0000003481832742, 2.6263690875655495e-14, 231)),
    (5e-324, 4.0, (1.1591190225020152, 1.2868806270627424e-14, 21)),
])
def test_arc_length_bits_pinned(e, k, expected):
    res = arc_length(construct_arc(1.0, 1.0 / k, e))
    assert (res.length, res.error_estimate, res.evaluations) == expected


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
    for n0 in (2, 3, 5):  # odd n too: the nodes of n are among those of 2n
        prev = 0.0
        for n in (n0 << i for i in range(6)):
            length = polyline_length(arc, n)
            assert length >= prev
            assert length < c
            prev = length


def numpy_polyline(arc, n):  # reference: sample_points' n + 1 points, summed by numpy
    import numpy as np

    seg = np.diff(sample_points(arc, n), axis=0)
    return float(np.hypot(seg[:, 0], seg[:, 1]).sum())


def polyline_cases(rng, band):  # (e, k = l/f, n): n = 200000 for one arc of each class first
    for i in range(160):
        e = (0.0, rng.uniform(0.0, 1.0), 1.0, 1.0 + 10.0 ** rng.uniform(-8.0, 3.0))[i % 4]
        k = feasibility_min_k(e) * (1.0 + 10.0 ** rng.uniform(-6.0, 3.0))
        if band == "near-semicircle":
            e, k = 0.0, 2.0 * (1.0 + 10.0 ** rng.uniform(-12.0, -3.0))
        elif band == "thin-parabola" or e == 1.0:
            e, k = 1.0, 10.0 ** rng.uniform(-6.0, -2.0 if band == "thin-parabola" else 4.0)
        yield e, k, (200000 if i < 4 else (2, 3, 4, 7, 64, 1001)[i - 4] if i < 10
                     else rng.randint(2, 3000))


@pytest.mark.parametrize("band", ["every-class", "thin-parabola", "near-semicircle"])
def test_polyline_matches_numpy_sum(band):
    for e, k, n in polyline_cases(random.Random(band), band):
        arc = construct_arc(k, 1.0, e)
        want = numpy_polyline(arc, n)
        assert abs(polyline_length(arc, n) - want) <= 1e-15 * want, (e, k, n)


def test_polyline_names_a_node_on_the_pole():  # beta rounds to pi: l/f = 1e-16
    arc = construct_arc(1e-16, 1.0, 1.0)
    assert polyline_length(arc, 10**4) == approx(2.0, rel=1e-7)
    with pytest.raises(ConicError, match="rounds to 0 at a polyline node for n=1000000000"):
        polyline_length(arc, 10**9)  # the first node past -beta is within 1e-8 of pi


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
    assert g_factor(0.5, 1e300) == approx(1.0, rel=1e-15)  # an arc on a chord of k overflows
    with pytest.raises(InfeasibleSagitta):
        g_factor(0.0, 2.0)
    with pytest.raises(InfeasibleSagitta):
        g_factor(1.0, 0.0)


def test_g_factor_accepts_every_k_above_the_limit():
    # 1 / (1 / k) can round onto the limit, which refused some of these as infeasible
    rng = random.Random("g_factor at the limit")
    for _ in range(500):
        e = rng.uniform(0.0, 3.0)
        try:
            g_factor(e, math.nextafter(feasibility_min_k(e), math.inf))
        except QuadratureNonConvergence:  # next to the asymptote, as documented
            pass


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


def test_integrand_pole_at_a_node_raises_nonconvergence():
    # k = l/f is one ulp above 2 sqrt(e^2 - 1); 1 + e cos(theta) rounds to 0 at a node
    e = 1.3525812688823207
    arc = construct_arc(0.8193141995619333, 0.4497990671475703, e)
    named = rf"e=1.3525812688823207, k={re.escape(fmt(arc.k))}"
    with pytest.raises(QuadratureNonConvergence, match=named):
        arc_length(arc)
    with pytest.raises(QuadratureNonConvergence, match=named):
        conic_triple(make_right_triangle(4.0, 3.0), e, arc.k)


def test_nonconvergence_judged_before_scaling():
    # the integral fails to converge at the k of arclen --l 2.6472860049620684e-159
    # --f 3.420752431176742e+74 --e 1; with p = 0 the scaled error estimate (0)
    # is no larger than the scaled tolerance (0), and the failure must still show
    k = 2.6472860049620684e-159 / 3.420752431176742e+74
    arc = construct_arc(1.0, 1.0 / k, 1.0)
    for p in (arc.p, 0.0):
        with pytest.raises(QuadratureNonConvergence, match="relative error estimate"):
            arc_length(arc._replace(p=p))


def scipy_quad_outcome(e, beta):
    """(value, abserr, neval) of scipy's compiled QUADPACK for arc_length's integrand at
    qags's setting, or the name of the exception the integrand raised."""

    def integrand(theta):
        c = e * math.cos(theta)
        denom = 1.0 + c
        return math.sqrt(1.0 + 2.0 * c + e * e) / (denom * denom)

    try:
        value, abserr, info = quad(integrand, -beta, beta, full_output=1, epsabs=0.0,
                                   epsrel=EPSREL, limit=LIMIT)[:3]
    except ZeroDivisionError as exc:
        return type(exc).__name__
    return value, abserr, info["neval"]


def seeded_arcs(n):
    """n feasible arcs, a quarter per conic class: half with k up to 1e-13 relative above the
    limit (parabola k from 1e-6 to 0.1), half with k log-uniform up to 1e8."""
    rng = random.Random("qags against scipy")
    arcs = []
    while len(arcs) < n:
        e = (0.0, rng.uniform(0.0, 1.0), 1.0, 10.0 ** rng.uniform(0.0, 3.0))[len(arcs) % 4]
        k_min = feasibility_min_k(e)
        near = rng.random() < 0.5
        if near and e == 1.0:  # the parabola has no limit; small k is its boundary layer
            k = 10.0 ** rng.uniform(-6.0, -1.0)
        elif near:
            k = k_min * (1.0 + 10.0 ** rng.uniform(-13.0, 0.0))
        else:
            k = 10.0 ** rng.uniform(math.log10(max(1.1 * k_min, 1e-6)), 8.0)
        try:
            arcs.append(construct_arc(1.0, 1.0 / k, e))
        except InfeasibleSagitta:  # 1 / (1 / k) rounded onto the limit
            pass
    return arcs


def test_qags_matches_scipy_quad_bitwise():
    # the pure-Python QAGS returns scipy's (value, abserr, neval) bit for bit, also where
    # the 60-subdivision budget runs out, and raises where scipy's integrand raises:
    # first at a pole on a node (the arc of test_integrand_pole_at_a_node_raises_nonconvergence)
    pole = construct_arc(0.8193141995619333, 0.4497990671475703, 1.3525812688823207)
    arcs = [pole] + seeded_arcs(2400)
    mismatches, paths = [], dict.fromkeys(("first rule", "one bisection", "several", "budget"), 0)
    for arc in arcs:
        expected = scipy_quad_outcome(arc.e, arc.beta)
        try:
            got = qags(arc.e, arc.beta)
        except ZeroDivisionError as exc:
            got = type(exc).__name__
        if isinstance(expected, tuple):  # the path is read off neval = 42 * last - 21
            neval = expected[2]
            paths["first rule" if neval == 21 else "one bisection" if neval == 63
                  else "budget" if neval == 42 * LIMIT - 21 else "several"] += 1
        # repr round-trips a float: equal text is equal bits, -0.0 and nan included
        if repr(got) != repr(expected):
            mismatches.append((arc.e, arc.k, expected, got))
    assert scipy_quad_outcome(pole.e, pole.beta) == "ZeroDivisionError"
    assert not mismatches
    # each path through qags's tables is checked on many arcs: no subdivision, one (the
    # tables, no epsilon table), several (the epsilon table) and the whole budget
    floors = {"first rule": 1000, "one bisection": 100, "several": 500, "budget": 50}
    assert all(paths[path] >= floor for path, floor in floors.items()), paths
    # qags drops dqagse's first-rule exit for abserr in (EPSREL * result, 100 eps * result]
    assert EPSREL > 100 * _EPMACH


@pytest.mark.parametrize("e, k_over_min", [(0.5, 3.0), (1.0, 2.0), (2.0, 1.5), (3.0, 1.0 + 1e-6)])
def test_qagse_matches_scipy_quad(e, k_over_min):
    # the pure-Python port of QUADPACK's qagse agrees bitwise with the compiled routine
    # scipy.integrate.quad runs on a finite interval: value, error estimate and
    # evaluation count (the last case needs 40 subdivisions)
    k = max(feasibility_min_k(e), 1.0) * k_over_min
    beta = construct_arc(1.0, 1.0 / k, e).beta
    expected = scipy_quad_outcome(e, beta)
    assert repr(qags(e, beta)) == repr(expected)
