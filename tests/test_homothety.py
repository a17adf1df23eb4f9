"""Embedded triangles, enveloping triangles, and the shared homothety centre."""

import math
import random
import sys
from fractions import Fraction

import pytest
from pytest import approx

from conicarcs import (
    ConicError,
    PlanarTriangle,
    Point,
    altitude_from_right_angle,
    build_scene,
    conic_triple,
    enveloping_triangle,
    homothety_ratio,
    place_triangle,
    pythagorean_centre,
    verify_homothety,
)


def dist(a, b):
    return math.hypot(a.x - b.x, a.y - b.y)


def line_distance(p, a, b):
    return abs((b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)) / dist(a, b)


def test_place_triangle():
    tri = place_triangle(4.0, 3.0)
    assert (tri.p2.x, tri.p2.y) == (4.0, 0.0)
    assert (tri.p3.x, tri.p3.y) == (0.0, 3.0)
    assert tri.l1 == approx(5.0, rel=1e-15)
    assert tri.l2 == 4.0 and tri.l3 == 3.0


def test_place_triangle_isoceles():
    tri = place_triangle(1.0, 1.0)
    assert tri.l1 == approx(math.sqrt(2.0), rel=1e-15)


def test_place_triangle_legs_orthogonal():
    tri = place_triangle(2.5, 7.0)
    u = tri.p2 - tri.p1
    v = tri.p3 - tri.p1
    assert u.x * v.x + u.y * v.y == 0.0


def test_place_triangle_rejects_bad_legs():
    with pytest.raises(ConicError, match="legs must be positive"):
        place_triangle(0.0, 1.0)
    with pytest.raises(ConicError, match="legs must be positive"):
        place_triangle(4.0, -3.0)


def test_planar_triangle_requires_right_angle():
    with pytest.raises(ValueError):
        PlanarTriangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0))


@pytest.mark.parametrize("s", [1e-170, 1e200])
def test_right_angle_check_holds_at_every_scale(s):
    # the dot product and its tolerance would under- or overflow as plain products
    with pytest.raises(ConicError, match="not right-angled at P1"):
        PlanarTriangle(Point(0.0, 0.0), Point(s, 0.0), Point(s, s))
    tri = PlanarTriangle(Point(0.0, 0.0), Point(3 * s, 4 * s), Point(-4 * s, 3 * s))
    assert (tri.l2, tri.l3) == approx((5 * s, 5 * s), rel=1e-15)


def test_planar_triangle_derives_its_sides():
    tri = PlanarTriangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0))
    assert (tri.l1, tri.l2, tri.l3) == (5.0, 4.0, 3.0)
    with pytest.raises(TypeError):
        PlanarTriangle(Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 3.0), l1=5.0)
    # lengths agree with the vertices downstream: leg arcs in ratio 4:3, and
    # the envelope is the homothety image
    lengths = conic_triple(tri, 0.5, 8.0).lengths
    assert lengths[1] / lengths[2] == approx(4.0 / 3.0, rel=1e-15)
    assert verify_homothety(tri, 8.0).max_deviation <= 1e-12 * tri.l1


@pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_point_rejects_non_finite_components(x, y):
    with pytest.raises(ConicError, match="point components must be finite"):
        Point(x, y)


def test_planar_triangle_rejects_repeated_vertex():
    with pytest.raises(ConicError, match="triangle vertices must be distinct"):
        PlanarTriangle(Point(0.0, 0.0), Point(0.0, 0.0), Point(0.0, 3.0))


def test_altitude_foot_and_length():
    tri = place_triangle(4.0, 3.0)
    foot, h1 = altitude_from_right_angle(tri)
    assert foot.x == approx(36.0 / 25.0, rel=1e-14)
    assert foot.y == approx(48.0 / 25.0, rel=1e-14)
    assert h1 == approx(2.4, rel=1e-14)
    assert dist(tri.p1, foot) == approx(h1, rel=1e-13)


def test_altitude_isoceles():
    _, h1 = altitude_from_right_angle(place_triangle(1.0, 1.0))
    assert h1 == approx(math.sqrt(2.0) / 2.0, rel=1e-14)


def test_altitude_foot_on_hypotenuse_segment():
    tri = place_triangle(4.0, 3.0)
    foot, _ = altitude_from_right_angle(tri)
    d = tri.p3 - tri.p2
    t = ((foot.x - tri.p2.x) * d.x + (foot.y - tri.p2.y) * d.y) / (d.x ** 2 + d.y ** 2)
    assert 0.0 < t < 1.0
    assert line_distance(foot, tri.p2, tri.p3) < 1e-14 * tri.l1


def test_pythagorean_centre_values():
    c = pythagorean_centre(place_triangle(4.0, 3.0))
    assert c.x == approx(0.72, rel=1e-14)
    assert c.y == approx(0.96, rel=1e-14)
    c2 = pythagorean_centre(place_triangle(1.0, 1.0))
    assert (c2.x, c2.y) == approx((0.25, 0.25), rel=1e-14)


def test_pythagorean_centre_is_midpoint():
    tri = place_triangle(5.0, 2.0)
    foot, _ = altitude_from_right_angle(tri)
    c = pythagorean_centre(tri)
    assert dist(c, tri.p1) == approx(dist(c, foot), rel=1e-13)


def test_enveloping_triangle_side_offsets():
    tri = place_triangle(4.0, 3.0)
    env = enveloping_triangle(tri, 8.0)
    # each envelope side is the matching original side pushed out by l_i / 8
    assert line_distance(tri.p2, env.p2, env.p3) == approx(5.0 / 8.0, rel=1e-12)
    assert line_distance(tri.p1, env.p1, env.p2) == approx(4.0 / 8.0, rel=1e-12)
    assert line_distance(tri.p1, env.p3, env.p1) == approx(3.0 / 8.0, rel=1e-12)
    # right angle survives (the PlanarTriangle constructor already checks, but
    # assert the similarity ratio explicitly)
    assert env.l1 / tri.l1 == approx(homothety_ratio(tri, 8.0), rel=1e-12)
    assert env.l2 / tri.l2 == approx(env.l1 / tri.l1, rel=1e-12)


def test_enveloping_triangle_vertex_beyond_right_angle():
    # Q1 sits at (-f3, -f2): the segment P1-Q1 has length f1, perpendicular
    # to the hypotenuse
    tri = place_triangle(4.0, 3.0)
    env = enveloping_triangle(tri, 8.0)
    assert (env.p1.x, env.p1.y) == approx((-3.0 / 8.0, -4.0 / 8.0), rel=1e-12)
    assert dist(env.p1, tri.p1) == approx(5.0 / 8.0, rel=1e-12)
    hyp = tri.p3 - tri.p2
    seg = env.p1 - tri.p1
    assert hyp.x * seg.x + hyp.y * seg.y == approx(0.0, abs=1e-12)


def test_enveloping_triangle_large_k_limit():
    tri = place_triangle(4.0, 3.0)
    env = enveloping_triangle(tri, 1e8)
    for orig, img in ((tri.p1, env.p1), (tri.p2, env.p2), (tri.p3, env.p3)):
        assert dist(orig, img) < 1e-6 * tri.l1


@pytest.mark.parametrize("legs", [(1000.0, 0.01), (0.01, 1000.0)])
@pytest.mark.parametrize("k", [1e5, 1e8])
def test_skinny_triangle_envelope_stays_right_angled(legs, k):
    tri = place_triangle(*legs)
    assert verify_homothety(tri, k).max_deviation <= 1e-12 * tri.l1
    c, s = math.cos(0.6), math.sin(0.6)
    rotated = PlanarTriangle(*(Point(c * p.x - s * p.y, s * p.x + c * p.y)
                               for p in (tri.p1, tri.p2, tri.p3)))
    verify_homothety(rotated, k)
    build_scene(rotated, 0.5, k, 16)


def test_enveloping_triangle_rejects_bad_k():
    with pytest.raises(ConicError, match="k must be positive and finite"):
        enveloping_triangle(place_triangle(4.0, 3.0), 0.0)


def test_homothety_ratio_values():
    tri = place_triangle(4.0, 3.0)
    assert homothety_ratio(tri, 8.0) == approx(1.0 + 2.0 * 5.0 / (8.0 * 2.4), rel=1e-14)
    assert homothety_ratio(tri, 8.0) == approx(1.5208333333333333, rel=1e-14)
    assert homothety_ratio(tri, 1e12) == approx(1.0, rel=1e-11)
    assert homothety_ratio(place_triangle(1.0, 1.0), 4.0) == approx(2.0, rel=1e-14)
    assert homothety_ratio(place_triangle(1e308, 1e308), 4.0) == 2.0  # 2 l1 is above the float range


# Finite inputs whose envelope leaves the float range: each raises ConicError
# naming the quantity instead of a ZeroDivisionError or an infinite deviation.
def test_verify_homothety_rejects_infinite_deviation():
    # ratio about 4e10, envelope about 5.7e310: no deviation can be measured on it
    tri = place_triangle(1e300, 1e300)
    with pytest.raises(ConicError, match="envelope vertex or hypotenuse is out of the float range"):
        verify_homothety(tri, 1e-10)


# the true ratios, 1 + 2 l1/(k h1), are about 2e310
@pytest.mark.parametrize("legs, k, h1", [
    ((1.0, 1e-300), 1e-10, "1e-300"),
    ((1e300, 1e-10), 1.0, "1e-10"),
], ids=["short-altitude", "long-hypotenuse"])
def test_homothety_ratio_rejects_ratio_out_of_range(legs, k, h1):
    for check in (homothety_ratio, verify_homothety):
        with pytest.raises(ConicError, match=rf"ratio .* out of the float range .* altitude h1={h1}$"):
            check(place_triangle(*legs), k)


# the envelopes' true ratios are about 1e617 and 5e404
@pytest.mark.parametrize("legs, k", [
    ((2.505949602059389e+295, 3.5e-323), 14.413404039972242),
    ((2e-323, 8.015632967165127e+307), 1.7580264592430306e+226),
], ids=["long-leg2", "long-leg3"])
def test_enveloping_triangle_legs_at_both_float_range_ends(legs, k):
    with pytest.raises(ConicError, match="envelope vertex or hypotenuse is out of the float range"):
        enveloping_triangle(place_triangle(*legs), k)


def test_enveloping_triangle_rejects_sides_parallel_to_rounding():
    # P3 - P2 rounds to -P2, so the hypotenuse is parallel to the leg P1P2 in floats
    c, s = math.cos(0.5), math.sin(0.5)
    tri = PlanarTriangle(Point(0.0, 0.0), Point(c, s), Point(-1e-20 * s, 1e-20 * c))
    with pytest.raises(ConicError, match="envelope vertex undefined"):
        enveloping_triangle(tri, 8.0)


def test_altitude_exact_where_the_hypotenuse_square_underflows():
    # l1^2 = 2e-400 is below the float range; the foot is exactly (l/2, l/2)
    tri = place_triangle(1e-200, 1e-200)
    foot, h1 = altitude_from_right_angle(tri)
    assert (foot.x, foot.y) == (0.5e-200, 0.5e-200)
    assert h1 == approx(1e-200 / math.sqrt(2.0), rel=2.2e-16)
    centre = pythagorean_centre(tri)
    assert (centre.x, centre.y) == (0.25e-200, 0.25e-200)


def test_verify_homothety_closes_the_loop():
    tri = place_triangle(4.0, 3.0)
    rep = verify_homothety(tri, 8.0)
    assert rep.max_deviation < 1e-10 * tri.l1
    assert rep.ratio > 1.0
    assert rep.ratio == homothety_ratio(tri, 8.0)


def test_verify_homothety_report_ratio_definition():
    tri = place_triangle(1.0, 2.0)
    rep = verify_homothety(tri, 5.0)
    h1 = tri.l2 * tri.l3 / tri.l1
    assert rep.ratio == approx(1.0 + 2.0 * tri.l1 / (5.0 * h1), rel=1e-14)


def test_centre_identical_across_k():
    tri = place_triangle(4.0, 3.0)
    centres = [verify_homothety(tri, k).centre for k in (3.0, 4.0, 8.0, 16.0)]
    for c in centres[1:]:
        assert (c.x, c.y) == (centres[0].x, centres[0].y)


@pytest.mark.parametrize("k", [3.0, 4.0, 8.0, 16.0])
def test_homothety_lines_concurrent_at_centre(k):
    tri = place_triangle(4.0, 3.0)
    env = enveloping_triangle(tri, k)
    centre = pythagorean_centre(tri)
    pairs = [(tri.p1, env.p1), (tri.p2, env.p2), (tri.p3, env.p3)]

    def meet(i, j):
        a, b = pairs[i]
        c, d = pairs[j]
        d1 = b - a
        d2 = d - c
        den = d1.x * d2.y - d1.y * d2.x
        t = ((c.x - a.x) * d2.y - (c.y - a.y) * d2.x) / den
        return Point(a.x + t * d1.x, a.y + t * d1.y)

    for i, j in ((0, 1), (1, 2), (0, 2)):
        assert dist(meet(i, j), centre) < 1e-10 * tri.l1


def test_sagitta_triangle_similar_to_original():
    tri = place_triangle(4.0, 3.0)
    k = 7.0
    sides = sorted((tri.l1, tri.l2, tri.l3))
    sagittae = sorted((tri.l1 / k, tri.l2 / k, tri.l3 / k))
    ratios = [f / s for f, s in zip(sagittae, sides)]
    assert ratios[0] == approx(ratios[1], rel=1e-14)
    assert ratios[1] == approx(ratios[2], rel=1e-14)
    assert ratios[0] == approx(1.0 / k, rel=1e-14)


def test_centre_foot_and_ratio_against_exact_rationals():
    """Only squares and products of the legs enter, so the exact centre, altitude
    foot and ratio are rationals in the float legs: with s = l2^2 + l3^2 the centre
    is (l2 l3^2, l2^2 l3) / 2s, the foot twice that, and the ratio
    1 + 2s / (k l2 l3).  Bounds: the largest errors seen on 20,000 such
    triangles (0.744 and 1.49 ulp(l1), 2.04 eps) plus a small margin."""
    rng = random.Random("exact homothety")
    centre_ulps, foot_ulps, ratio_eps = [], [], []
    for _ in range(2000):
        l2, l3 = (10.0 ** rng.uniform(-6.0, 6.0) for _ in range(2))
        k = 10.0 ** rng.uniform(-3.0, 8.0)
        tri = place_triangle(l2, l3)
        L2, L3 = Fraction(l2), Fraction(l3)
        s = L2 * L2 + L3 * L3
        exact = (L2 * L3 * L3 / (2 * s), L2 * L2 * L3 / (2 * s))
        ulp = math.ulp(tri.l1)
        centre = pythagorean_centre(tri)
        foot, _ = altitude_from_right_angle(tri)
        for got, want in zip((centre.x, centre.y), exact):
            centre_ulps.append(float(abs(Fraction(got) - want)) / ulp)
        for got, want in zip((foot.x, foot.y), exact):
            foot_ulps.append(float(abs(Fraction(got) - 2 * want)) / ulp)
        ratio = 1 + 2 * s / (Fraction(k) * L2 * L3)
        error = abs(Fraction(homothety_ratio(tri, k)) - ratio) / ratio
        ratio_eps.append(float(error) / sys.float_info.epsilon)
    assert max(centre_ulps) <= 0.8
    assert max(foot_ulps) <= 1.6
    assert max(ratio_eps) <= 2.2


def test_centre_altitude_and_ratio_exact_at_extreme_magnitudes():
    """The exact-rational check above, with legs log-uniform in 1e-290..1e300,
    where the squares of the legs leave the float range.  Nothing but a ratio
    beyond the float range is refused, and the bounds are the ones above; h1 is
    compared with l2 l3 / l1 for the stored l1.  k is log-uniform in 1e-300..1e300,
    where k h1 and 2 l1 / (k h1) leave the float range."""
    rng = random.Random("exact homothety at extreme magnitudes")
    cases = [((1e150, 1e200), 8.0)]  # l2 * l3 overflows; the ratio is 2.5e49
    cases += [((10.0 ** rng.uniform(-290.0, 300.0), 10.0 ** rng.uniform(-290.0, 300.0)),
               10.0 ** rng.uniform(-300.0, 300.0)) for _ in range(2000)]
    centre_ulps, foot_ulps, h1_err, ratio_eps = [], [], [], []
    for (l2, l3), k in cases:
        tri = place_triangle(l2, l3)
        L2, L3 = Fraction(l2), Fraction(l3)
        s = L2 * L2 + L3 * L3
        exact = (L2 * L3 * L3 / (2 * s), L2 * L2 * L3 / (2 * s))
        ulp = math.ulp(tri.l1)
        centre = pythagorean_centre(tri)
        foot, h1 = altitude_from_right_angle(tri)
        for got, want in zip((centre.x, centre.y), exact):
            centre_ulps.append(float(abs(Fraction(got) - want)) / ulp)
        for got, want in zip((foot.x, foot.y), exact):
            foot_ulps.append(float(abs(Fraction(got) - 2 * want)) / ulp)
        altitude = L2 * L3 / Fraction(tri.l1)
        h1_err.append(float(abs(Fraction(h1) - altitude) / altitude))
        ratio = 1 + 2 * s / (Fraction(k) * L2 * L3)
        try:
            error = abs(Fraction(homothety_ratio(tri, k)) - ratio) / ratio
        except ConicError:
            assert ratio > sys.float_info.max
            continue
        ratio_eps.append(float(error) / sys.float_info.epsilon)
    assert max(centre_ulps) <= 0.8
    assert max(foot_ulps) <= 1.6
    assert max(h1_err) <= 2.2e-16
    assert max(ratio_eps) <= 2.2
