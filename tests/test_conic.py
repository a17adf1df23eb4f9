"""Construction, angles, feasibility, and sampling of single arcs."""

import math

import numpy as np
import pytest
from pytest import approx

from conicarcs import (
    ConicArc,
    ConicClass,
    ConicError,
    InfeasibleSagitta,
    classify,
    construct_arc,
    feasibility_min_k,
    sample_points,
)
from conicarcs.cli import main
from conicarcs.oracle import canonical_residual

# (e, k) cells used for property checks; all feasible.
GRID = [(0.0, 4.0), (0.0, 8.0), (0.3, 4.0), (0.7, 8.0), (1.0, 4.0),
        (1.0, 16.0), (1.5, 4.0), (2.0, 8.0), (3.0, 8.0)]


def test_classify():
    assert classify(0.0) is ConicClass.CIRCLE
    assert classify(0.5) is ConicClass.ELLIPSE
    assert classify(1.0) is ConicClass.PARABOLA
    assert classify(2.5) is ConicClass.HYPERBOLA


def test_classify_rejects_bad_eccentricity():
    with pytest.raises(ConicError, match="eccentricity must be >= 0"):
        classify(-0.1)
    with pytest.raises(ConicError, match="eccentricity must be finite"):
        classify(float("nan"))
    with pytest.raises(ConicError, match="eccentricity must be finite"):
        classify(float("inf"))


def test_feasibility_min_k():
    assert feasibility_min_k(0.0) == approx(2.0)
    assert feasibility_min_k(1.0) == 0.0
    assert feasibility_min_k(2.0) == approx(2.0 * math.sqrt(3.0), rel=1e-15)
    with pytest.raises(ConicError, match="eccentricity must be >= 0"):
        feasibility_min_k(-1.0)


@pytest.mark.parametrize("e", [0.0, 0.5, 2.0])
def test_feasibility_boundary_is_strict(e):
    k_min = feasibility_min_k(e)
    arc = construct_arc(1.0, 1.0 / (k_min * (1.0 + 1e-9)), e)
    assert arc.k > k_min
    with pytest.raises(InfeasibleSagitta):
        construct_arc(1.0, 1.0 / (k_min * (1.0 - 1e-9)), e)


def test_construct_rejects_nonpositive_lengths():
    with pytest.raises(ConicError, match="chord and sagitta must be positive"):
        construct_arc(0.0, 0.1, 0.5)
    with pytest.raises(ConicError, match="chord and sagitta must be positive"):
        construct_arc(1.0, -0.1, 0.5)


@pytest.mark.parametrize("l,f,e,message", [
    (1.0, -0.1, -0.5, "eccentricity must be >= 0"),          # bad e beats bad f
    (1.0, float("inf"), float("nan"), "eccentricity must be finite"),
    (1.0, -0.1, 0.0, "chord and sagitta must be positive"),  # bad f beats infeasible k
    (1.0, float("inf"), 0.5, "chord and sagitta must be finite"),
    (-1.0, 0.6, 0.0, "chord and sagitta must be positive"),
])
def test_construct_validation_order(l, f, e, message):
    with pytest.raises(ConicError, match=message):
        construct_arc(l, f, e)


@pytest.mark.parametrize("l,f,e,cls,message", [
    (-1.0, 0.5, float("nan"), ConicError, "eccentricity must be finite, got nan"),
    (float("inf"), -0.1, 0.5, ConicError, "chord and sagitta must be finite, got l=inf, f=-0.1"),
    (-1.0, 0.6, 0.0, ConicError, "chord and sagitta must be positive, got l=-1.0, f=0.6"),
    # infeasible, and p = l (k/8 + (1 - e^2)/(2k)) would overflow
    (1e10, 1e10, 1e150, InfeasibleSagitta, "sagitta too large for e=9.9999999999999998e+149: "
     "k = l/f = 1 must exceed 2e+150 (requires f < l/2e+150)"),
    # p underflows to 0 where the true length is about 2f
    (2.6472860049620684e-159, 3.420752431176742e+74, 1.0, ConicError,
     "semi-latus rectum underflows to 0 for l=2.6472860049620684e-159, "
     "f=3.420752431176742e+74, e=1.0"),
], ids=["nan-e-negative-l", "inf-l-negative-f", "negative-l-infeasible-k",
        "infeasible-overflowing", "underflowing-p"])
def test_construct_refusal_precedence_and_text(l, f, e, cls, message):
    # of two faults, the refusal named is the one checked first, in its own class and words
    with pytest.raises(ConicError) as info:
        construct_arc(l, f, e)
    assert type(info.value) is cls
    assert str(info.value) == message


@pytest.mark.parametrize("l,f,e", [
    (1e300, 1e-300, 0.5),  # k = l/f overflows
    (1e300, 1e-7, 0.0),    # p = l * p/l overflows
    (1e300, 1e-7, 0.5),
    (1e300, 1e-7, 1.0),
    (1e300, 1e-7, 2.0),
])
def test_construct_rejects_overflowing_arc(capsys, l, f, e):
    with pytest.raises(ConicError, match="arc dimensions overflow"):
        construct_arc(l, f, e)
    assert main(["arclen", "--l", repr(l), "--f", repr(f), "--e", repr(e)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "arc dimensions overflow" in err


@pytest.mark.parametrize("l,f,e", [
    (1e308, 1e308 / 16.0, 1.0),    # p alone overflows
    (1.6e308, 1.6e308 / 6.8, 0.5),  # a alone, and b = a sqrt(1 - e^2) with it
    (1e308, 1e308 / 5.9, 1.2),     # c_focal = e a alone
])
def test_construct_rejects_one_overflowing_dimension(l, f, e):
    with pytest.raises(ConicError, match="arc dimensions overflow"):
        construct_arc(l, f, e)


@pytest.mark.parametrize("l,f,e", [
    (2.6472860049620684e-159, 3.420752431176742e+74, 1.0),  # true length ~2f, not 0
    (5e-324, 5e-324, 1.0),
])
def test_construct_rejects_underflowing_arc(capsys, l, f, e):
    with pytest.raises(ConicError, match="semi-latus rectum underflows"):
        construct_arc(l, f, e)
    assert main(["arclen", "--l", repr(l), "--f", repr(f), "--e", repr(e)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "semi-latus rectum underflows" in err


def test_construct_huge_parabola_stays_finite():
    arc = construct_arc(2e154, 1.0, 1.0)
    assert all(math.isfinite(v) for v in (arc.p, arc.s, arc.m))


def test_construct_infeasible_sagitta_message_names_bound():
    with pytest.raises(InfeasibleSagitta, match=r"f < l/2"):
        construct_arc(1.0, 0.6, 0.0)
    # at 17 digits a k just below k_min(2) reads as below it
    with pytest.raises(InfeasibleSagitta,
                       match=r"k = l/f = 3\.4641015999999998 must exceed 3\.4641016151377544"):
        construct_arc(1.0, 1.0 / 3.4641016, 2.0)


def test_construct_near_semicircle():
    # k = 2 itself is the open boundary; probe just inside it
    arc = construct_arc(2.0, 1.0 - 1e-12, 0.0)
    assert arc.conic_class is ConicClass.CIRCLE
    assert arc.a == approx(1.0, abs=1e-11)
    assert arc.m == approx(0.0, abs=1e-11)
    assert arc.beta == approx(math.pi / 2.0, abs=1e-11)
    assert arc.c_focal == 0.0


def test_construct_parabola():
    arc = construct_arc(1.0, 0.125, 1.0)
    assert arc.conic_class is ConicClass.PARABOLA
    assert arc.p == approx(1.0, rel=1e-15)      # k l / 8
    assert arc.m == approx(0.5, rel=1e-15)      # focal length l^2 / 16 f
    assert arc.a is None and arc.b is None and arc.c_focal is None
    assert arc.alpha is None


def test_construct_ellipse_closed_form_axes():
    arc = construct_arc(1.0, 0.25, 0.5)
    a = 1.0 / (8.0 * 0.25 * 0.75) + 0.125
    assert arc.a == approx(a, rel=1e-15)
    assert arc.a == approx(0.7916666666666666, rel=1e-14)
    assert arc.b == approx(a * math.sqrt(0.75), rel=1e-14)
    assert arc.b == approx(0.6856034446626806, rel=1e-13)
    assert arc.m == approx(arc.a - arc.f, rel=1e-13)
    assert arc.c_focal == approx(0.5 * arc.a, rel=1e-14)
    assert arc.a ** 2 == approx(arc.b ** 2 + arc.c_focal ** 2, rel=1e-14)
    assert arc.s == approx(arc.m - arc.e * arc.a, rel=1e-12)   # focus offset, unfolded
    # oracle: the three defining points satisfy the canonical equation
    for x, y in ((-0.5, 0.0), (0.5, 0.0), (0.0, 0.25)):
        assert abs(canonical_residual(arc, x, y)) < 1e-12


def test_construct_hyperbola():
    arc = construct_arc(1.0, 0.125, 2.0)
    a = 1.0 / (8.0 * 0.125 * 3.0) - 0.0625
    assert arc.a == approx(a, rel=1e-14)
    assert arc.b == approx(a * math.sqrt(3.0), rel=1e-14)
    assert arc.m == approx(a + 0.125, rel=1e-14)         # chord beyond the vertex
    assert arc.c_focal == approx(2.0 * a, rel=1e-14)
    assert arc.c_focal ** 2 == approx(arc.a ** 2 + arc.b ** 2, rel=1e-13)
    assert arc.p == approx(0.8125, rel=1e-14)
    assert arc.s == approx(7.0 / 48.0, rel=1e-13)
    assert arc.s == approx(arc.c_focal - arc.m, rel=1e-12)     # focus offset, unfolded
    assert arc.beta == approx(1.2870022175865688, rel=1e-14)
    for x, y in ((-0.5, 0.0), (0.5, 0.0), (0.0, 0.125)):
        assert abs(canonical_residual(arc, x, y)) < 1e-12


@pytest.mark.parametrize("e,k", GRID)
def test_defining_points_on_conic(e, k):
    for l in (0.4, 1.0, 37.0):
        arc = construct_arc(l, l / k, e)
        for x, y in ((-l / 2.0, 0.0), (l / 2.0, 0.0), (0.0, arc.f)):
            assert abs(canonical_residual(arc, x, y)) < 1e-12


@pytest.mark.parametrize("e,k", GRID)
def test_unified_semi_latus_rectum(e, k):
    l = 1.7
    arc = construct_arc(l, l / k, e)
    if arc.conic_class is ConicClass.CIRCLE:
        per_class = l * l / (8.0 * arc.f) + arc.f / 2.0
    elif arc.conic_class is ConicClass.PARABOLA:
        per_class = k * l / 8.0
    elif arc.conic_class is ConicClass.ELLIPSE:
        per_class = arc.a * (1.0 - e * e)
    else:
        per_class = arc.a * (e * e - 1.0)
    assert arc.p == approx(per_class, rel=1e-14)
    assert arc.p > 0.0


@pytest.mark.parametrize("e,k", GRID)
@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
def test_scale_invariance(e, k, lam):
    base = construct_arc(1.0, 1.0 / k, e)
    scaled = construct_arc(lam, lam / k, e)
    for name in ("a", "b", "c_focal", "m", "p", "s"):
        v0 = getattr(base, name)
        v1 = getattr(scaled, name)
        if v0 is None:
            assert v1 is None
        elif v0 == 0.0:
            assert v1 == 0.0
        else:
            assert v1 == approx(lam * v0, rel=1e-13)
    assert scaled.beta == approx(base.beta, rel=1e-13)


@pytest.mark.parametrize("e", [0.0, 0.5, 1.0, 2.0])
def test_constructed_arc_is_a_plain_conic_arc(e):
    arc = construct_arc(3.0, 0.375, e)
    plain = ConicArc(**{name: getattr(arc, name) for name in ConicArc._fields})
    assert arc == plain and hash(arc) == hash(plain) and repr(arc) == repr(plain)
    assert type(arc) is ConicArc
    moved = arc._replace(p=1.0)
    assert moved.p == 1.0 and moved != arc
    assert moved._replace(p=arc.p) == arc
    with pytest.raises(AttributeError):
        arc.p = 1.0


def test_centre_half_angle_circle():
    alpha = construct_arc(1.0, 0.125, 0.0).alpha
    assert alpha == approx(math.atan(0.5 / 0.9375), rel=1e-15)
    assert alpha == approx(0.4899573262537283, rel=1e-14)
    with pytest.raises(InfeasibleSagitta):
        construct_arc(1.0, 0.5, 0.0)   # boundary k = 2 itself is excluded


def test_centre_half_angle_ellipse_formula():
    # tan(alpha) = (1 - e^2) / ((k^2 - 4 (1 - e^2)) / (4 k))
    for e, k in ((0.3, 4.0), (0.5, 4.0), (0.7, 16.0)):
        expected = math.atan((1.0 - e * e) / ((k * k - 4.0 * (1.0 - e * e)) / (4.0 * k)))
        alpha = construct_arc(k, 1.0, e).alpha
        assert alpha == approx(expected, abs=1e-13)
        assert 0.0 < alpha < math.pi / 2.0


@pytest.mark.parametrize("e", [0.5, 2.0, 1.0])
def test_angles_independent_of_chord_length(e):
    unit = construct_arc(1.0, 0.25, e)
    assert (unit.alpha is None) == (unit.conic_class is ConicClass.PARABOLA)
    for l in (3.0, 37.0):
        arc = construct_arc(l, l / 4.0, e)
        assert arc.k == 4.0 and arc.beta == unit.beta and arc.alpha == unit.alpha


@pytest.mark.parametrize("e,k", GRID)
def test_angles_match_concrete_geometry(e, k):
    # recompute from a concrete arc's stored lengths; must match the stored angles
    arc = construct_arc(13.7, 13.7 / k, e)
    assert math.atan2(arc.l / 2.0, arc.s) == approx(arc.beta, abs=1e-13)
    if arc.conic_class is not ConicClass.PARABOLA:
        assert math.atan2(arc.l / 2.0, arc.m) == approx(arc.alpha, abs=1e-13)


def test_focus_half_angle_circle_equals_centre():
    arc = construct_arc(1.0, 0.125, 0.0)
    assert arc.beta == arc.alpha


def test_focus_half_angle_parabola():
    # s = l (k^2 - 16) / (16 k); tan(beta) = 8 k / (k^2 - 16) = 4/3 at k = 8
    arc = construct_arc(1.0, 0.125, 1.0)
    assert arc.alpha is None
    assert arc.beta == approx(math.atan(4.0 / 3.0), rel=1e-15)
    assert arc.beta == approx(0.9272952180016122, rel=1e-14)


def test_focus_half_angle_obtuse():
    # s < 0 exactly when k < 2 (1 + e); at e = 0.5 the switch is k = 3
    arc = construct_arc(2.9, 1.0, 0.5)
    assert arc.beta > math.pi / 2.0
    assert arc.beta == approx(1.6046913864077064, rel=1e-14)
    # chord-frame sampling oracle: angle at the focus (0, -s) to the endpoint
    vx, vy = arc.l / 2.0 - 0.0, 0.0 - (-arc.s)
    assert math.atan2(vx, vy) == approx(arc.beta, abs=1e-13)
    assert construct_arc(3.1, 1.0, 0.5).beta < math.pi / 2.0


def polar_radius(arc, theta):
    """Focal distance r(theta) = p / (1 + e cos theta), theta = 0 towards the apex."""
    return arc.p / (1.0 + arc.e * math.cos(theta))


def test_polar_radius_circle_constant():
    arc = construct_arc(1.0, 0.125, 0.0)
    R = arc.a
    for theta in np.linspace(-arc.beta, arc.beta, 17):
        assert polar_radius(arc, float(theta)) == approx(R, rel=1e-15)


def test_polar_radius_apex_values():
    parab = construct_arc(1.0, 0.125, 1.0)
    assert polar_radius(parab, 0.0) == approx(0.5, rel=1e-15)   # p / (1 + e)
    ell = construct_arc(1.0, 0.25, 0.5)
    assert polar_radius(ell, 0.0) == approx(ell.a - ell.c_focal, rel=1e-13)
    hyp = construct_arc(1.0, 0.125, 2.0)
    assert polar_radius(hyp, 0.0) == approx(hyp.c_focal - hyp.a, rel=1e-13)


def test_polar_radius_endpoint_distance():
    # r(beta) must equal the focus-to-endpoint distance sqrt((l/2)^2 + s^2)
    arc = construct_arc(1.0, 0.25, 0.5)
    assert polar_radius(arc, arc.beta) == approx(math.hypot(0.5, arc.s), rel=1e-13)


def test_sample_points_counts_and_landmarks():
    arc = construct_arc(2.0, 1.0 - 1e-12, 0.0)
    pts = sample_points(arc, 2)
    assert pts.shape == (3, 2)
    assert pts[0] == approx([-1.0, 0.0], abs=1e-9)
    assert pts[1] == approx([0.0, 1.0], abs=1e-9)
    assert pts[2] == approx([1.0, 0.0], abs=1e-9)


@pytest.mark.parametrize("e,k", GRID)
def test_sample_points_endpoints_and_apex(e, k):
    l = 3.0
    arc = construct_arc(l, l / k, e)
    for n in (2, 7, 64):
        pts = sample_points(arc, n)
        assert pts.shape == (n + 1, 2)
        assert pts[0, 0] == -l / 2.0 and pts[0, 1] == 0.0
        assert pts[-1, 0] == l / 2.0 and pts[-1, 1] == 0.0
        if n % 2 == 0:
            assert pts[n // 2, 0] == approx(0.0, abs=1e-12 * l)
            assert pts[n // 2, 1] == approx(arc.f, abs=1e-12 * l)
        assert np.all(pts[1:-1, 1] > 0.0)


def test_sample_points_on_canonical_conic():
    arc = construct_arc(1.0, 0.25, 0.5)
    pts = sample_points(arc, 1000)
    res = [canonical_residual(arc, float(x), float(y)) for x, y in pts]
    assert max(abs(r) for r in res) < 1e-10


def test_sample_points_degenerate_count():
    arc = construct_arc(1.0, 0.25, 0.5)
    with pytest.raises(ConicError, match="need n >= 2 samples"):
        sample_points(arc, 1)


def test_chord_sagitta_ratio_is_derived():
    arc = construct_arc(3.0, 0.375, 1.0)
    assert arc.k == 3.0 / 0.375
    with pytest.raises(ConicError, match="chord and sagitta must be positive"):
        construct_arc(3.0, 0.0, 1.0)
