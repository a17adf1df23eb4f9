"""Embedded triangles, enveloping triangles, and the shared homothety centre."""

import math
import pickle
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
    make_right_triangle,
    place_triangle,
    pythagorean_centre,
    verify_homothety,
)


def dist(a, b):
    return math.hypot(a.x - b.x, a.y - b.y)


def line_distance(p, a, b):
    return abs((b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)) / dist(a, b)


def exact_placed(l2, l3, k):
    """Exact centre, ratio and k-envelope of ``place_triangle(l2, l3)``, as Fractions.

    With s = l2^2 + l3^2 the centre is (l2 l3^2, l2^2 l3) / 2s, the altitude foot
    twice that, the ratio 1 + 2s / (k l2 l3), and the envelope's vertices
    Q1 = (-l3/k, -l2/k), Q2 = (l2 + l3/k + 2 l2^2/(k l3), -l2/k) and
    Q3 = (-l3/k, l3 + l2/k + 2 l3^2/(k l2)).
    """
    L2, L3, K = Fraction(l2), Fraction(l3), Fraction(k)
    s = L2 * L2 + L3 * L3
    centre = (L2 * L3 * L3 / (2 * s), L2 * L2 * L3 / (2 * s))
    envelope = [(-L3 / K, -L2 / K), (L2 + L3 / K + 2 * L2 * L2 / (K * L3), -L2 / K),
                (-L3 / K, L3 + L2 / K + 2 * L3 * L3 / (K * L2))]
    return centre, 1 + 2 * s / (K * L2 * L3), envelope


def exact_offset_envelope(tri, k):
    """The k-envelope of any triangle, in Fractions: each side a->b pushed outward by
    b - a turned a quarter and divided by k, and neighbouring sides met exactly."""
    (x1, y1), (x2, y2), (x3, y3) = pts = [tuple(map(Fraction, p)) for p in tri]
    K = Fraction(k)
    orient = 1 if (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) > 0 else -1
    lines = []
    for (ax, ay), (bx, by) in ((pts[1], pts[2]), (pts[0], pts[1]), (pts[2], pts[0])):
        dx, dy = bx - ax, by - ay
        lines.append(((ax + orient * dy / K, ay - orient * dx / K), (dx, dy)))

    def meet(first, second):
        ((px, py), (dx, dy)), ((qx, qy), (ex, ey)) = first, second
        t = ((qx - px) * ey - (qy - py) * ex) / (dx * ey - dy * ex)
        return px + t * dx, py + t * dy

    side1, side2, side3 = lines
    return [meet(side3, side2), meet(side2, side1), meet(side1, side3)]


def exact_homothety(tri, k):
    """Exact centre, ratio and k-envelope of any triangle, as Fractions: the symmedian
    point K = (l1^2 P1 + l3^2 P2 + l2^2 P3) / s with s = l1^2 + l2^2 + l3^2, the ratio
    1 + s / (2 k area), and the offset-side envelope, asserted to be the homothety image
    K + ratio (P - K) of the vertices."""
    (x1, y1), (x2, y2), (x3, y3) = pts = [tuple(map(Fraction, p)) for p in tri]
    s1, s2, s3 = ((bx - ax) ** 2 + (by - ay) ** 2
                  for (ax, ay), (bx, by) in ((pts[1], pts[2]), (pts[0], pts[1]), (pts[2], pts[0])))
    s = s1 + s2 + s3
    cx, cy = (s1 * x1 + s3 * x2 + s2 * x3) / s, (s1 * y1 + s3 * y2 + s2 * y3) / s
    ratio = 1 + s / (Fraction(k) * abs((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)))
    envelope = exact_offset_envelope(tri, k)
    assert envelope == [(cx + ratio * (px - cx), cy + ratio * (py - cy)) for px, py in pts]
    return (cx, cy), ratio, envelope


def rounded(points):
    """Each exact (x, y) as the nearest floats; OverflowError beyond the float range."""
    return tuple((float(x), float(y)) for x, y in points)


def rounding_bound(env):
    """The farthest that rounding each coordinate to nearest can move a vertex of ``env``."""
    return max(math.hypot(math.ulp(x), math.ulp(y)) for x, y in env) / 2


def check_exact(tri, k, exact=None):
    """Centre, ratio and envelope of ``tri`` at k are each the exact value (``exact``,
    by default from ``exact_homothety``) rounded once, or refused where that value is
    beyond the float range (or the rounded envelope is collinear), and
    ``verify_homothety`` reports the same values with a ``max_deviation`` within
    output rounding.  True if it reported."""
    centre, ratio, envelope = exact or exact_homothety(tri, k)
    assert pythagorean_centre(tri) == rounded([centre])[0], tri
    try:
        want_ratio = float(ratio)
    except OverflowError:
        with pytest.raises(ConicError, match="ratio .* out of the float range"):
            homothety_ratio(tri, k)
        want_ratio = None
    else:
        assert homothety_ratio(tri, k) == want_ratio, (tri, k)
    try:
        want_env = rounded(envelope)
        (x1, y1), (x2, y2), (x3, y3) = want_env
        sides = map(math.hypot, (x3 - x2, x2 - x1, x1 - x3), (y3 - y2, y2 - y1, y1 - y3))
        X1, Y1, X2, Y2, X3, Y3 = map(Fraction, (x1, y1, x2, y2, x3, y3))
        fits = max(sides) < math.inf and (X2 - X1) * (Y3 - Y1) != (Y2 - Y1) * (X3 - X1)
    except OverflowError:
        fits = False
    if not fits:
        with pytest.raises(ConicError, match="envelope vertex or side"):
            enveloping_triangle(tri, k)
        return False
    assert enveloping_triangle(tri, k) == want_env, (tri, k)
    if want_ratio is None:
        return False
    rep = verify_homothety(tri, k)
    assert rep[:3] == (pythagorean_centre(tri), want_ratio, want_env)
    assert rep.max_deviation <= rounding_bound(rep.enveloping), (tri, k)
    return True


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


def test_planar_triangle_accepts_any_non_collinear_triangle():
    tri = PlanarTriangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0))  # right angle at P2
    assert (tri.l1, tri.l2, tri.l3) == (1.0, 1.0, math.sqrt(2.0))
    with pytest.raises(ValueError, match="triangle vertices must not be collinear"):
        PlanarTriangle(Point(0.0, 0.0), Point(1.0, 1.0), Point(3.0, 3.0))


@pytest.mark.parametrize("s", [1e-170, 1e200])
def test_collinear_check_holds_at_every_scale(s):
    # the cross product would under- or overflow as plain products
    with pytest.raises(ConicError, match="must not be collinear"):
        PlanarTriangle(Point(0.0, 0.0), Point(s, s), Point(3 * s, 3 * s))
    PlanarTriangle(Point(0.0, 0.0), Point(s, s), Point(3 * s, math.nextafter(3 * s, math.inf)))
    tri = PlanarTriangle(Point(0.0, 0.0), Point(3 * s, 4 * s), Point(-4 * s, 3 * s))
    assert (tri.l2, tri.l3) == approx((5 * s, 5 * s), rel=1e-15)


def test_triangle_with_hypotenuse_beyond_float_range_is_refused():
    # the hypotenuse, about 1.8e308, is no float; h1 = l2 l3 / l1 would be 0
    with pytest.raises(ConicError, match="triangle side is out of the float range: l1=inf"):
        place_triangle(1e308, 1.5e308)
    c = s = math.sqrt(0.5)  # turned by 45 degrees: every coordinate difference fits
    with pytest.raises(ConicError, match="triangle side is out of the float range: l1=inf"):
        PlanarTriangle(Point(0.0, 0.0), Point(1e308 * c, 1e308 * s),
                       Point(-1.5e308 * s, 1.5e308 * c))
    # the side vector P2 - P1 overflows before any Point could hold it; the others fit
    with pytest.raises(ConicError, match=r"range: l1=1e\+308, l2=inf, l3=1e\+308$"):
        PlanarTriangle(Point(1e308, 0.0), Point(-1e308, 0.0), Point(0.0, 1.0))
    assert place_triangle(1e308, 1.3e308).l1 == approx(math.hypot(1e308, 1.3e308))


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


@pytest.mark.parametrize("make", [lambda: Point._make([math.nan, 0.0]),
                                  lambda: Point(1.0, 2.0)._replace(y=math.inf)],
                         ids=["make", "replace"])
def test_point_make_and_replace_check_components(make):
    with pytest.raises(ConicError, match="point components must be finite"):
        make()


def test_planar_triangle_make_and_replace_check_collinearity():
    tri = place_triangle(4.0, 3.0)
    with pytest.raises(ConicError, match="must not be collinear"):
        tri._replace(p3=Point(8.0, 0.0))
    with pytest.raises(ConicError, match="must not be collinear"):
        PlanarTriangle._make([Point(0.0, 0.0), Point(1.0, 1.0), Point(1.0, 1.0)])
    moved = tri._replace(p2=Point(8.0, 0.0))
    assert (moved.l1, moved.l2, moved.l3) == (math.hypot(8.0, 3.0), 8.0, 3.0)


def test_planar_triangle_makes_each_vertex_a_finite_point():
    tri = PlanarTriangle((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    assert all(type(p) is Point for p in tri) and tri.l1 == math.hypot(1.0, 1.0)
    for bad in [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0)]:
        with pytest.raises(ConicError, match="must be finite"):
            PlanarTriangle(bad, (1.0, 0.0), (0.0, 1.0))
        with pytest.raises(ConicError, match="must be finite"):
            tri._replace(p1=bad)


def test_points_and_triangles_are_named_tuples():
    tri = place_triangle(4.0, 3.0)
    assert Point._fields == ("x", "y") and PlanarTriangle._fields == ("p1", "p2", "p3")
    assert tri == ((0.0, 0.0), (4.0, 0.0), (0.0, 3.0)) and hash(tri) == hash(tuple(tri))
    p1, (x2, y2), p3 = tri
    assert (p1, x2, y2, p3) == (Point(0.0, 0.0), 4.0, 0.0, Point(0.0, 3.0))
    for obj, name in [(tri.p2, "x"), (tri, "p1"), (tri, "l1"), (tri, "area")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 1.0)
    with pytest.raises(AttributeError):
        del tri.l1
    copy = pickle.loads(pickle.dumps(tri))
    assert copy == tri and type(copy) is PlanarTriangle and copy.l1 == tri.l1


@pytest.mark.parametrize("legs", [(4.0, 3.0), (3.0, 4.0), (0.1, 0.7), (1e-300, 2.5e-300),
                                  (1.1e300, 3e299)])
def test_cos_a1_of_a_right_angle_is_zero(legs):
    for tri in (place_triangle(*legs), make_right_triangle(*legs)):
        assert tri.cos_a1 == 0.0 and math.copysign(1.0, tri.cos_a1) == 1.0


def test_cos_a1_is_kept_and_leaves_the_triangle_as_it_was():
    tri = PlanarTriangle((0.0, 0.0), (6.0, 0.0), (3.0, 4.0))
    twin = PlanarTriangle((0.0, 0.0), (6.0, 0.0), (3.0, 4.0))
    before = hash(tri)
    assert tri.cos_a1 == 0.6 == 18 / 30 and "cos_a1" in vars(tri) and "cos_a1" not in vars(twin)
    assert tri == twin and hash(tri) == hash(twin) == before == hash(tuple(tri))
    assert tri._fields == ("p1", "p2", "p3") and len(tri) == 3
    with pytest.raises(AttributeError):
        tri.cos_a1 = 0.5
    with pytest.raises(AttributeError):
        del tri.cos_a1
    assert tri.cos_a1 == 0.6
    right = tri._replace(p3=(0.0, 4.0))  # its own angle at P1, not the one read above
    assert right.cos_a1 == 0.0 and tri.cos_a1 == 0.6
    obtuse = tri._replace(p3=(-3.0, 4.0))
    assert obtuse.cos_a1 == -0.6


def test_planar_triangle_rejects_repeated_vertex():
    with pytest.raises(ConicError, match="triangle vertices must not be collinear"):
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
    # the envelope is similar to the triangle, with the homothety ratio
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


def test_envelope_vertices_against_exact_rationals():
    """A placed triangle's k-envelope has rational vertices (see ``exact_placed``);
    each coordinate is the correctly rounded exact value."""
    rng = random.Random(7)
    for _ in range(2000):
        l2, l3 = (10.0 ** rng.uniform(-3.0, 3.0) for _ in range(2))
        k = 10.0 ** rng.uniform(-1.0, 3.0)
        env = enveloping_triangle(place_triangle(l2, l3), k)
        assert env == rounded(exact_placed(l2, l3, k)[2]), (l2, l3, k)


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
    assert check_exact(rotated, k)  # the exact image of a nearly right triangle
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
    with pytest.raises(ConicError, match="envelope vertex or side is out of the float range"):
        verify_homothety(tri, 1e-10)


# the true ratios, 1 + 2 l1/(k h1), are about 2e310
@pytest.mark.parametrize("legs, k, l3", [
    ((1.0, 1e-300), 1e-10, "1e-300"),
    ((1e300, 1e-10), 1.0, "1e-10"),
], ids=["short-altitude", "long-hypotenuse"])
def test_homothety_ratio_rejects_ratio_out_of_range(legs, k, l3):
    for check in (homothety_ratio, verify_homothety):
        with pytest.raises(ConicError, match=rf"ratio .* out of the float range .* l3={l3}$"):
            check(place_triangle(*legs), k)


# the envelopes' true ratios are about 1e617 and 5e404
@pytest.mark.parametrize("legs, k", [
    ((2.505949602059389e+295, 3.5e-323), 14.413404039972242),
    ((2e-323, 8.015632967165127e+307), 1.7580264592430306e+226),
], ids=["long-leg2", "long-leg3"])
def test_enveloping_triangle_legs_at_both_float_range_ends(legs, k):
    with pytest.raises(ConicError, match="envelope vertex or side is out of the float range"):
        enveloping_triangle(place_triangle(*legs), k)


def test_envelope_exact_where_float_sides_are_parallel():
    # P3 - P2 rounds to -P2, so the hypotenuse is parallel to the leg P1P2 in floats;
    # in exact arithmetic the offset sides still meet, about 2.5e19 away
    c, s = math.cos(0.5), math.sin(0.5)
    tri = PlanarTriangle(Point(0.0, 0.0), Point(c, s), Point(-1e-20 * s, 1e-20 * c))
    env = enveloping_triangle(tri, 8.0)
    assert env == rounded(exact_offset_envelope(tri, 8.0))
    assert env.l2 == approx(verify_homothety(tri, 8.0).ratio * tri.l2, rel=1e-15)


# collinearity is decided from the exact cross product, not from its float value:
# the first triangle is collinear though (P2 - P1) x (P3 - P1) is 1.4e-17 in floats,
# the second is not though it is 0 in floats
@pytest.mark.parametrize("pts, collinear", [
    (((0.078, 0.2), (0.161, 0.497), (0.327, 1.091)), True),
    (((0.18, 0.08), (0.83, 0.11), (2.13, 0.17)), False),
], ids=["collinear", "float-cross-is-0"])
def test_collinearity_decided_exactly(pts, collinear):
    (x1, y1), (x2, y2), (x3, y3) = pts
    assert ((x2 - x1) * (y3 - y1) == (y2 - y1) * (x3 - x1)) != collinear
    X1, Y1, X2, Y2, X3, Y3 = map(Fraction, (x1, y1, x2, y2, x3, y3))
    assert ((X2 - X1) * (Y3 - Y1) == (Y2 - Y1) * (X3 - X1)) == collinear
    if collinear:
        with pytest.raises(ConicError, match="must not be collinear"):
            PlanarTriangle(*(Point(*p) for p in pts))
    else:
        PlanarTriangle(*(Point(*p) for p in pts))


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


@pytest.mark.parametrize("k", [0.5, 8.0])
def test_max_deviation_of_a_nearly_right_triangle_is_rounding(k):
    # |cos| at P1 is 1e-13: the altitude's midpoint is not the centre, but the
    # envelope is still the exact image about the symmedian point, so the report
    # measures output rounding alone
    tri = PlanarTriangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(1e-13, 1.0))
    assert check_exact(tri, k)
    foot, _ = altitude_from_right_angle(tri)
    assert pythagorean_centre(tri) != (foot.x / 2, foot.y / 2)


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
    foot and ratio are rationals in the float legs (see ``exact_placed``).  Each
    printed value is the correctly rounded exact one."""
    rng = random.Random("exact homothety")
    for _ in range(2000):
        l2, l3 = (10.0 ** rng.uniform(-6.0, 6.0) for _ in range(2))
        k = 10.0 ** rng.uniform(-3.0, 8.0)
        tri = place_triangle(l2, l3)
        (cx, cy), ratio, _ = exact_placed(l2, l3, k)
        assert pythagorean_centre(tri) == (float(cx), float(cy)), (l2, l3)
        assert altitude_from_right_angle(tri)[0] == (float(2 * cx), float(2 * cy)), (l2, l3)
        assert homothety_ratio(tri, k) == float(ratio), (l2, l3, k)


def test_centre_altitude_and_ratio_exact_at_extreme_magnitudes():
    """The exact-rational check above, with legs and k log-uniform in 1e-300..1e300,
    where squares and products of the legs and k leave the float range: ``check_exact``
    against the closed forms of ``exact_placed``.  The foot is rounded once, and h1 is
    l2 l3 / l1 for the stored l1, rounded once."""
    rng = random.Random("exact homothety at extreme magnitudes")
    cases = [((1e150, 1e200), 8.0)]  # l2 * l3 overflows; the ratio is 2.5e49
    cases += [((10.0 ** rng.uniform(-300.0, 300.0), 10.0 ** rng.uniform(-300.0, 300.0)),
               10.0 ** rng.uniform(-300.0, 300.0)) for _ in range(2000)]
    reported = 0
    for (l2, l3), k in cases:
        tri = place_triangle(l2, l3)
        exact = exact_placed(l2, l3, k)
        (cx, cy), _, _ = exact
        foot, h1 = altitude_from_right_angle(tri)
        assert foot == (float(2 * cx), float(2 * cy)), (l2, l3)
        assert h1 == float(Fraction(l2) * Fraction(l3) / Fraction(tri.l1)), (l2, l3)
        reported += check_exact(tri, k, exact)
    assert reported >= 800


# (0, 0), (6, 0), (3, 4): squared sides l1^2 = l3^2 = 25 and l2^2 = 36 sum to 86, and
# twice the area is 24, so K = (25 P1 + 25 P2 + 36 P3) / 86 = (3, 72/43) and the
# ratio is 1 + 86 / (24 k)
@pytest.mark.parametrize("k, ratio, envelope", [
    (8.0, Fraction(139, 96), [(Fraction(-43, 32), Fraction(-3, 4)),
                              (Fraction(235, 32), Fraction(-3, 4)), (3, Fraction(121, 24))]),
    (2.5, Fraction(73, 30), [(Fraction(-43, 10), Fraction(-12, 5)),
                             (Fraction(103, 10), Fraction(-12, 5)), (3, Fraction(22, 3))]),
], ids=["k=8", "k=5/2"])
def test_lattice_triangle_homothety_exact(k, ratio, envelope):
    tri = PlanarTriangle(Point(0.0, 0.0), Point(6.0, 0.0), Point(3.0, 4.0))
    assert exact_homothety(tri, k) == ((3, Fraction(72, 43)), ratio, envelope)
    assert check_exact(tri, k)
    assert verify_homothety(tri, k)[:2] == ((3.0, 1.6744186046511629), float(ratio))


@pytest.mark.parametrize("decades", [6.0, 75.0])
def test_altitude_foot_coordinates_correctly_rounded(decades):
    """Each coordinate of the foot, (l2 l3^2, l2^2 l3) / s, is its exact value rounded
    once, also next to the vertex of the longer leg, where measuring from the far end
    of the hypotenuse in floats cancels every digit.  Legs are log-uniform in
    10^-decades..10^decades."""
    rng = random.Random(f"altitude foot to a few eps, {decades}")
    for _ in range(2000):
        l2, l3 = (10.0 ** rng.uniform(-decades, decades) for _ in range(2))
        foot, _ = altitude_from_right_angle(place_triangle(l2, l3))
        (cx, cy), _, _ = exact_placed(l2, l3, 1.0)
        assert foot == (float(2 * cx), float(2 * cy)), (l2, l3)


def test_altitude_foot_correctly_rounded_for_legs_far_apart():
    """The check above for legs 1e150 to 1e300 apart, where t = l_short^2 / l1^2
    underflows as a float: the foot coordinate next to the far vertex,
    about l_short^2 / l_long, is still its exact value rounded once."""
    rng = random.Random("altitude foot, legs far apart")
    cases = [(1e100, 1e-100), (1e-100, 1e100)]
    for _ in range(1000):
        ratio = 10.0 ** rng.uniform(150.0, 300.0)
        long_leg = 10.0 ** rng.uniform(2.0 * math.log10(ratio) - 305.0, 306.0)
        legs = (long_leg, long_leg / ratio)
        cases.append(legs if rng.random() < 0.5 else legs[::-1])
    for l2, l3 in cases:
        foot, _ = altitude_from_right_angle(place_triangle(l2, l3))
        (cx, cy), _, _ = exact_placed(l2, l3, 1.0)
        assert min(cx, cy) >= sys.float_info.min / 2
        assert foot == (float(2 * cx), float(2 * cy)), (l2, l3)
    assert pythagorean_centre(place_triangle(1e100, 1e-100)) == (5e-301, 5e-101)
