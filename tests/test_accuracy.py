"""The accuracy table: each row names a quantity, a band of inputs, a reference and a
bound.  A row's sampler draws its band, seeded with its name; ``check(*case)`` gives a
case's error in the bound's unit and the labels the row's coverage counts; raising, or
an error of nan, fails the case.  A failing row reports its worst input and, for each label
of a failed case, the share of that label's cases that passed.  A band never
narrows: a fix widens its row's band, or tightens its bound, in the same diff."""

import functools
import importlib.util
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conicarcs import (InfeasibleSagitta, PlanarTriangle, QuadratureNonConvergence,
                       altitude_from_right_angle, arc_length, conic_triple, construct_arc,
                       feasibility_min_k, g_factor, make_right_triangle, place_triangle, sweep)
from test_homothety import check_exact, exact_placed, rounded


@functools.cache
def perfbench_oracle():  # its 40-digit mpmath g_reference, loaded from its file
    pytest.importorskip("mpmath")
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    oracle.load()
    return oracle


def decades(rng, lo, hi):
    return 10.0 ** rng.uniform(lo, hi)


def placed_legs(rng):  # the first case's l2 l3 overflows, and its ratio is 2.5e49
    yield from ((1e150, 1e200, 8.0), (1e100, 1e-100, 8.0), (1e-100, 1e100, 8.0))
    for span in (300.0, 8.0) * 2000:
        yield decades(rng, -span, span), decades(rng, -span, span), decades(rng, -span, span)
    for _ in range(1000):  # legs far apart; the foot next to the far vertex, about
        ratio = decades(rng, 150.0, 300.0)  # l_short^2 / l_long >= 1e-305, stays normal
        long_leg = decades(rng, 2.0 * math.log10(ratio) - 305.0, 306.0)
        legs = (long_leg, long_leg / ratio) if rng.random() < 0.5 else (long_leg / ratio, long_leg)
        yield (*legs, decades(rng, -1.0, 3.0))


def any_triangle(rng, i, far):  # on a circle about the origin, or every fourth far from it
    ox, oy, size = 0.0, 0.0, decades(rng, -far, far)
    if i % 4 == 0:
        r, phi = decades(rng, 0.0, 6.0), rng.uniform(0.0, 2.0 * math.pi)
        ox, oy, size = r * math.cos(phi), r * math.sin(phi), decades(rng, -3.0, 3.0)
    pts = []
    for _ in range(3):
        turn, r = rng.uniform(0.0, 2.0 * math.pi), size * rng.uniform(0.1, 1.0)
        pts.append((ox + r * math.cos(turn), oy + r * math.sin(turn)))
    return PlanarTriangle(*pts)


def turned_right(rng):  # rounded vertices: the angle at P1 is only nearly right
    (ox, oy), l2, l3, turn, k = (1e6, 1e6), 1e-3, 1e-3, 0.6, 8.0
    for _ in range(1581):
        c, s = math.cos(turn), math.sin(turn)
        yield PlanarTriangle((ox, oy), (ox + l2 * c, oy + l2 * s), (ox - l3 * s, oy + l3 * c)), k
        r, phi = decades(rng, 0.0, 6.0), rng.uniform(0.0, 2.0 * math.pi)
        ox, oy = r * math.cos(phi), r * math.sin(phi)
        l2, l3 = decades(rng, -3.0, 1.0), decades(rng, -3.0, 1.0)
        turn, k = rng.uniform(0.0, 2.0 * math.pi), decades(rng, -1.0, 3.0)


def near_limit(rng, i):
    e = (0.0, 1.0 - decades(rng, -8.0, 0.0), 1.0, 1.0 + decades(rng, -8.0, 3.0))[i % 4]
    k_min = 2.0 * math.sqrt(abs(float(1 - Fraction(e) ** 2)))
    k = k_min * (1.0 + decades(rng, -3.0, 3.0)) if k_min else decades(rng, -6.0, 8.0)
    return e, k, 2.0 ** rng.randint(-4, 4)


def interior(rng, i):  # f is a power of two, so l = k f gives l / f == k
    e = (0.0, rng.uniform(0.0, 1.0), 1.0, decades(rng, 0.0, 3.0))[i % 4]
    lo = 0.1 if e == 1.0 else 1.1 * feasibility_min_k(e)
    return e, lo * (1e4 / lo) ** rng.random(), 2.0 ** rng.randint(-4, 4)


def homothety(tri, k, exact=None):
    a, b, c = sorted((tri.l1, tri.l2, tri.l3))
    labels = ["obtuse" if (a / c) ** 2 + (b / c) ** 2 < 1.0 else "acute"]
    return 0.0, labels + ["reported"] * check_exact(tri, k, exact)


def placed_homothety(l2, l3, k):  # and the foot, twice the centre, at height l2 l3 / l1
    tri, exact = place_triangle(l2, l3), exact_placed(l2, l3, k)
    (cx, cy), _, _ = exact
    h1 = Fraction(l2) * Fraction(l3) / Fraction(tri.l1)
    assert altitude_from_right_angle(tri) == (rounded([(2 * cx, 2 * cy)])[0], float(h1)), tri
    return homothety(tri, k, exact)


def construction(e, k, f):  # the worst field's ulps times 1 - k_min/k = delta/(1 + delta)
    arc = construct_arc(k * f, f, e)
    E, K, L = Fraction(e), Fraction(k), Fraction(k * f)
    q = 1 - E * E
    want = {"p": L * (K / 8 + q / (2 * K)), "m": L * K / 16}
    if q:
        axis, half = K / (8 * abs(q)), (1 if q > 0 else -1) / (2 * K)
        want.update(a=L * (axis + half), m=L * (axis - half), c_focal=E * L * (axis + half))
    ulps = max(abs(Fraction(getattr(arc, name)) - x) / Fraction(math.ulp(float(x)))
               for name, x in want.items())
    return float(ulps) * (1.0 - math.sqrt(float(4 * abs(q) / (K * K)))), ()


def feasibility(e):
    k = math.nextafter(feasibility_min_k(e), math.inf)
    for k in (k, math.nextafter(k, math.inf)):
        assert construct_arc(k, 1.0, e).k == k and Fraction(k) ** 2 > 4 * abs(1 - Fraction(e) ** 2)
    return 0.0, ()


def length(e, k, f):
    oracle = perfbench_oracle()
    res = arc_length(construct_arc(k * f, f, e))
    with oracle.mp.workdps(oracle.PRIMARY_DPS):
        truth = k * f * oracle.g_reference(e, k)  # an OracleDisagreement fails the case
        error = abs(res.length - truth)
        assert error <= res.error_estimate <= 1e-12 * res.length, (res.error_estimate, error)
        return float(error / truth), ()


def near_limit_arcs(rng):  # ROADMAP's sample: delta = k/k_min - 1 in 1e-15..1, with circles
    for i in range(10000):  # and parabolas (k 1e-6..1e8); the cases of the claimed strata
        e = (0.0, rng.uniform(0.0, 3.0), 1.0 + rng.choice((-1.0, 1.0)) * decades(rng, -12.0, -1.0),
             decades(rng, -8.0, 3.0), 1.0)[i % 5]
        k_min, delta = 2.0 * math.sqrt(abs(float(1 - Fraction(e) ** 2))), decades(rng, -15.0, 0.0)
        k = k_min * (1.0 + delta) if k_min else decades(rng, -6.0, 8.0)
        kind = "circle" if e == 0.0 else "ellipse" if e < 1.0 else "hyperbola" if k_min else "parabola"
        sub = rng.random() < 1 / 60  # about 100 of the accurate cases
        if (kind == "circle" or kind == "ellipse" and k >= 1e-3 or kind == "parabola" and k >= 1e-2
                or kind == "hyperbola" and delta >= 1e-3 and k >= 0.1):
            # QAGS misses 3e-14 below k 0.1, and for hyperbolas below delta 0.1 or k 1
            accurate = k >= 0.1 and (kind != "hyperbola" or delta >= 0.1 and k >= 1.0)
            stratum = f"{kind} delta 1e{math.floor(math.log10(delta))} " if k_min else "parabola "
            yield e, k, stratum + f"k 1e{math.floor(math.log10(k))}", sub and accurate


def answered(e, k, stratum, reference):  # a length if feasible, else InfeasibleSagitta
    if not Fraction(k) ** 2 > 4 * abs(1 - Fraction(e) ** 2):
        with pytest.raises(InfeasibleSagitta):
            g_factor(e, k)
        return 0.0, (stratum,)
    try:
        g = g_factor(e, k)
    except QuadratureNonConvergence:
        return math.inf, (stratum,)
    if not reference:
        return 0.0, (stratum,)
    oracle = perfbench_oracle()
    return oracle.rel_err(g, oracle.g_reference(e, k)), (stratum,)


def needle(rng):  # a vertex 1e-290..1e-3 of the size from another one or from their side
    size, width = decades(rng, -3.0, 3.0), decades(rng, -290.0, -3.0)
    pts = [(0.0, 0.0), (size, 0.0), (rng.choice((0.0, 1.0, rng.random())) * size, width * size)]
    rng.shuffle(pts)
    return PlanarTriangle(*pts)


def residual(tri, e, k):  # in eps over ((l2 + l3) / max(l1, l2, l3))^2, which bounds its terms
    value = conic_triple(tri, e, k).residual
    assert sweep(tri, [e], [k])[0].residual == value
    return value / 2.0 ** -52 / ((tri.l2 + tri.l3) / max(tri.l1, tri.l2, tri.l3)) ** 2, ()


# (name, quantity, band, reference, bound, unit, sampler, check, least cases per label)
ROWS = [
    ("homothety-placed", "centre, foot and length of the altitude, ratio, envelope",
     "placed right triangles, legs and k 1e-300..1e300, or legs 1e150..1e300 apart",
     "exact_placed", 0.0, "(exact)", placed_legs, placed_homothety, {"reported": 3000}),
    ("homothety-any", "centre, ratio, envelope", "triangles of every shape, k 1e-3..1e8",
     "exact_homothety", 0.0, "(exact)", lambda rng: ((any_triangle(rng, i, 300.0),
     decades(rng, -3.0, 8.0)) for i in range(2000)), homothety,
     {"obtuse": 500, "acute": 500, "reported": 1900}),
    ("homothety-turned", "centre, ratio, envelope", "right triangles, legs 1e-3..10, turned, "
     "up to 1e6 from the origin, k 0.1..1e3", "exact_homothety", 0.0, "(exact)",
     turned_right, homothety, {"reported": 1581}),
    ("construction", "construct_arc's p, a, m, c_focal", "k/k_min - 1 >= 1e-3, every class, "
     "e up to 1e3 and within 1e-8 of 1", "Fraction", 3.0, "ulps x (1 - k_min/k)",
     lambda rng: (near_limit(rng, i) for i in range(4000)), construction, {}),
    ("feasibility", "k one and two ulps above the float limit", "e within 1e-8..1e-2 of 1",
     "k^2 > 4 |1 - e^2| in Fractions", 0.0, "refusals", lambda rng: ((1.0 + rng.choice(
         (-1.0, 1.0)) * decades(rng, -8.0, -2.0),) for _ in range(400)), feasibility, {}),
    ("lengths", "arc_length, within its error_estimate <= 1e-12", "k 1.1 k_min (0.1 for the "
     "parabola) to 1e4, every class", "g_reference", 3e-14, "relative",
     lambda rng: (interior(rng, i) for i in range(60)), length, {}),
    ("answered", "g_factor returns, and is within 3e-14 on about 100 cases with k >= 0.1 "
     "(hyperbolas: k >= 1, delta >= 0.1)", "delta = k/k_min - 1 from 1e-15 to 1: circles, "
     "ellipses with k >= 1e-3, parabolas with k >= 1e-2, hyperbolas with delta >= 1e-3 and "
     "k >= 0.1", "k^2 > 4 |1 - e^2| in Fractions; g_reference", 3e-14, "relative",
     near_limit_arcs, answered, {}),
    ("residual", "conic_triple's and sweep's residual", "2,000 triangles of every shape, "
     "1,000 right triangles, 1,000 needles, (e, k) as for lengths", "the law of cosines",
     4 * 3e-14 / 2.0 ** -52, "eps x ((l2 + l3)/max(l1, l2, l3))^2, as two lengths within "
     "3e-14 allow", lambda rng: ((any_triangle(rng, i, 100.0) if i < 2000 else
     make_right_triangle(decades(rng, -3.0, 3.0), decades(rng, -3.0, 3.0)) if i < 3000 else
     needle(rng), *interior(rng, i)[:2]) for i in range(4000)), residual, {}),
]


@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_row(row):
    name, quantity, band, _, bound, unit, sampler, check, coverage = row
    worst, over, counts, missed = (-1.0, None, ""), 0, Counter(), Counter()
    for case in sampler(random.Random(name)):
        try:
            (err, labels), note = check(*case), ""
        except Exception as exc:  # a wrong value, a refusal or an oracle disagreement
            err, labels, note = math.inf, (), f": {exc!r}"
        if not err <= bound:  # nan too
            over += 1
            missed.update(labels)
        counts.update(labels)
        worst = max(worst, (err, case, note), key=lambda w: w[0])
    short = {label: counts[label] for label, least in coverage.items() if counts[label] < least}
    passed = {label: f"{counts[label] - missed[label]}/{counts[label]}" for label in missed}
    assert not over and not short, (
        f"{quantity} on {band}: {over} cases raise or exceed {bound} {unit}; worst "
        f"{worst[0]:.3g} at {worst[1]}{worst[2]}; passed per label {passed}; too few cases "
        f"{short} of {coverage}")
