"""Metamorphic relations that hold bit for bit: scaling by a power of two, swapping
legs, and passing a real number of another type.

Multiplying every length by 2^j is exact in binary floating point (barring
under- and overflow, which these ranges stay clear of), and every formula on
the path is homogeneous in the lengths, so the results must scale exactly.
Inputs come from seeded stdlib ``random``.  An int or a numpy scalar is
converted to float once, where it is checked, so it must give the float result.
"""

import enum
import math
import random

import numpy as np
import pytest

from conicarcs import (
    arc_length,
    build_scene,
    conic_triple,
    construct_arc,
    enveloping_triangle,
    feasibility_min_k,
    g_factor,
    homothety_ratio,
    place_triangle,
    sweep,
    verify_homothety,
)

POWERS = (-3, -1, 1, 2, 10)


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_e(rng: random.Random) -> float:
    return rng.choice([0.0, rng.uniform(0.0, 1.0), 1.0, rng.uniform(1.0, 20.0)])


def draw_k(rng: random.Random, e: float) -> float:
    """Feasible k: 1e-2..1e4 for a parabola, else k_min*(1 + 1e-3) to k_min*1e3."""
    if e == 1.0:
        return log_uniform(rng, 1e-2, 1e4)
    return feasibility_min_k(e) * log_uniform(rng, 1.0 + 1e-3, 1e3)


def draw_legs(rng: random.Random) -> tuple[float, float]:
    return log_uniform(rng, 1e-5, 1e5), log_uniform(rng, 1e-5, 1e5)


def scaled(point, j: int) -> tuple[float, float]:
    return math.ldexp(point.x, j), math.ldexp(point.y, j)


def test_arc_length_scales_by_powers_of_two():
    rng = random.Random(1)
    misses = []
    for _ in range(200):
        e = draw_e(rng)
        l = log_uniform(rng, 1e-5, 1e5)
        f, j = l / draw_k(rng, e), rng.choice(POWERS)
        base = arc_length(construct_arc(l, f, e))
        big = arc_length(construct_arc(math.ldexp(l, j), math.ldexp(f, j), e))
        expected = (math.ldexp(base.length, j), math.ldexp(base.error_estimate, j),
                    base.evaluations)
        if (big.length, big.error_estimate, big.evaluations) != expected:
            misses.append((l, f, e, j))
    assert misses == []


def test_homothety_ratio_ignores_leg_doubling_and_order():
    rng = random.Random(2)
    misses = []
    for _ in range(200):
        (l2, l3), k = draw_legs(rng), log_uniform(rng, 1e-2, 1e4)
        ratio = homothety_ratio(place_triangle(l2, l3), k)
        if (homothety_ratio(place_triangle(2.0 * l2, 2.0 * l3), k) != ratio
                or homothety_ratio(place_triangle(l3, l2), k) != ratio):
            misses.append((l2, l3, k))
    assert misses == []


def test_verify_homothety_scales_by_powers_of_two():
    rng = random.Random(3)
    misses = []
    for _ in range(200):
        (l2, l3), k, j = draw_legs(rng), log_uniform(rng, 1e-2, 1e4), rng.choice(POWERS)
        base = verify_homothety(place_triangle(l2, l3), k)
        big = verify_homothety(place_triangle(math.ldexp(l2, j), math.ldexp(l3, j)), k)
        env, big_env = base.enveloping, big.enveloping
        if ((big.centre.x, big.centre.y) != scaled(base.centre, j)
                or big.ratio != base.ratio
                or big.max_deviation != math.ldexp(base.max_deviation, j)
                or [(p.x, p.y) for p in (big_env.p1, big_env.p2, big_env.p3)]
                != [scaled(p, j) for p in (env.p1, env.p2, env.p3)]):
            misses.append((l2, l3, k, j))
    assert misses == []


def test_scene_scales_by_powers_of_two():
    rng = random.Random(4)
    misses = []
    for _ in range(60):
        e = draw_e(rng)
        (l2, l3), k, j = draw_legs(rng), draw_k(rng, e), rng.choice(POWERS)
        samples = rng.randint(2, 64)
        base = build_scene(place_triangle(l2, l3), e, k, samples)
        big = build_scene(place_triangle(math.ldexp(l2, j), math.ldexp(l3, j)), e, k, samples)
        if not all(np.array_equal(np.ldexp(a, j), b) for a, b in zip(base, big)):
            misses.append((l2, l3, e, k, j, samples))
    assert misses == []


def entries(l, f, e, k) -> dict:
    """Each public entry that takes a real number, with its arguments."""
    tri = place_triangle(4.0, 3.0)
    return {
        "construct_arc": (construct_arc, (l, f, e)),
        "g_factor": (g_factor, (e, k)),
        "conic_triple": (conic_triple, (tri, e, k)),
        "sweep": (sweep, (tri, np.array([e, e + e]), np.array([k, k + k]))),
        "build_scene": (lambda tri, e, k: build_scene(tri, e, k, 16), (tri, e, k)),
        "enveloping_triangle": (enveloping_triangle, (tri, k)),
        "homothety_ratio": (homothety_ratio, (tri, k)),
        "verify_homothety": (verify_homothety, (tri, k)),
    }


def as_float(arg):
    if isinstance(arg, np.ndarray):
        return [float(v) for v in arg]
    return float(arg) if isinstance(arg, (int, float, np.number)) else arg


def non_floats(value, path: str = "result") -> list[str]:
    """Every number in ``value`` that is not a Python float (or a float64 array)."""
    if isinstance(value, (tuple, list)):
        return [bad for i, v in enumerate(value) for bad in non_floats(v, f"{path}[{i}]")]
    if isinstance(value, np.ndarray):
        return [] if value.dtype == np.float64 else [f"{path}: {value.dtype}"]
    if value is None or isinstance(value, (bool, enum.Enum)) or type(value) is float:
        return []
    return [f"{path}: {type(value).__name__}"]


@pytest.mark.parametrize("name", list(entries(1.0, 1.0, 1.0, 1.0)))
@pytest.mark.parametrize("kind", [np.float32, np.float64, int, float],
                         ids=["float32", "float64", "int", "float"])
def test_real_number_inputs_give_the_float_result(kind, name):
    # 7.3 and 0.3 are inexact in float32, so a float32 that reached the
    # arithmetic would round differently from float(x)
    values = (7, 2, 1, 7) if kind is int else (7.3, 0.3, 0.3, 7.3)
    fn, args = entries(*map(kind, values))[name]
    result = fn(*args)
    assert result == fn(*map(as_float, args))
    assert non_floats(result) == []
