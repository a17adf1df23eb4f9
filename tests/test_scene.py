"""Scene assembly and its JSON/SVG serializations."""

import hashlib
import json
import math
import random
import re
import warnings
import xml.etree.ElementTree as ET
from array import array

import numpy as np
import pytest
from pytest import approx

from conicarcs import (
    ConicError,
    InfeasibleSagitta,
    PlanarTriangle,
    Point,
    Scene,
    build_scene,
    construct_arc,
    feasibility_min_k,
    place_triangle,
    pythagorean_centre,
    scene_to_json,
    scene_to_svg,
)
from conicarcs import scene as scene_module
from conicarcs.homothety import _sides
from conicarcs.scene import _MATH_SAMPLES, _arc_math, _arc_numpy, fmt_rows
from conicarcs.textfmt import fmt


@pytest.fixture()
def tri():
    return place_triangle(4.0, 3.0)


# place_triangle's vertices run counter-clockwise; these run clockwise
CLOCKWISE = PlanarTriangle(Point(0.0, 0.0), Point(0.0, 3.0), Point(4.0, 0.0))


def points(layer) -> list[tuple[float, float]]:
    """The (x, y) pairs of a flat layer."""
    return list(zip(layer[0::2], layer[1::2]))


def line_distance(p, a, b):
    ax, ay = a
    bx, by = b
    return abs((bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)) / math.hypot(bx - ax, by - ay)


def test_scene_layer_shapes(tri):
    for samples in (64, 1024):  # one per builder
        scene = build_scene(tri, 1.0, 8.0, samples)
        arc = 2 * samples + 2
        assert [len(pts) for pts in scene] == [6, arc, arc, arc, 6, 4, 2]
        assert all(type(pts) is tuple and all(type(v) is float for v in pts) for pts in scene)


def test_arc_endpoints_meet_vertices(tri):
    # the chord ends mapped through floats missed their vertex by up to ~1e-16 l1
    rng = random.Random("endpoints")
    seeded = [place_triangle(10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-2, 2))
              for _ in range(100)]
    for t in (tri, CLOCKWISE, *seeded):
        for samples in (16, 1024):  # one per builder
            scene = build_scene(t, 1.0, 8.0, samples)
            p1, p2, p3 = points(scene.triangle)
            arcs = scene.arc1, scene.arc2, scene.arc3
            for arc, (start, end) in zip(arcs, ((p2, p3), (p1, p2), (p3, p1))):
                assert (points(arc)[0], points(arc)[-1]) == (start, end)


def test_arc_apexes_on_envelope_sides(tri):
    k = 8.0
    scene = build_scene(tri, 1.0, k, 64)
    env, vertices = points(scene.envelope), points(scene.triangle)
    env_sides = [(env[1], env[2]), (env[0], env[1]), (env[2], env[0])]
    tri_sides = [(vertices[1], vertices[2]), (vertices[0], vertices[1]),
                 (vertices[2], vertices[0])]
    lengths = (tri.l1, tri.l2, tri.l3)
    arcs = scene.arc1, scene.arc2, scene.arc3
    for i in range(3):
        apex = points(arcs[i])[32]
        assert line_distance(apex, *tri_sides[i]) == approx(lengths[i] / k, rel=1e-10)
        assert line_distance(apex, *env_sides[i]) < 1e-10 * tri.l1


def test_arcs_bulge_outward(tri):
    for t in (tri, CLOCKWISE):
        scene = build_scene(t, 0.5, 4.0, 32)
        p1, p2, p3 = points(scene.triangle)
        tri_sides = [(p2, p3, p1), (p1, p2, p3), (p3, p1, p2)]
        arcs = scene.arc1, scene.arc2, scene.arc3
        for i, (a, b, interior) in enumerate(tri_sides):
            cross = lambda p: (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            apex = points(arcs[i])[16]
            assert cross(apex) * cross(interior) < 0.0


def test_scene_centre_and_altitude(tri):
    scene = build_scene(tri, 1.0, 8.0, 8)
    centre = pythagorean_centre(tri)
    assert scene.centre == approx([centre.x, centre.y], rel=1e-14)
    assert scene.altitude == approx([0.0, 0.0, 1.44, 1.92], rel=1e-13, abs=1e-15)


def test_scene_infeasible_raises(tri):
    with pytest.raises(InfeasibleSagitta):
        build_scene(tri, 2.0, 3.0, 8)
    with pytest.raises(InfeasibleSagitta):
        build_scene(tri, 1.0, 0.0, 8)


def test_circle_arc_matches_direct_circle_sampling(tri):
    # same points whether driven by the polar form or by plain circle geometry
    n = 50
    scene = build_scene(tri, 0.0, 8.0, n)
    arc = construct_arc(tri.l1, tri.l1 / 8.0, 0.0)
    a = np.array([tri.p2.x, tri.p2.y])
    b = np.array([tri.p3.x, tri.p3.y])
    mid = (a + b) / 2.0
    t = (b - a) / np.linalg.norm(b - a)
    nrm = np.array([t[1], -t[0]])  # outward for this CCW placement
    phi = np.linspace(-arc.beta, arc.beta, n + 1)
    chord_x = arc.a * np.sin(phi)
    chord_y = arc.a * np.cos(phi) - arc.s
    direct = mid + np.outer(chord_x, t) + np.outer(chord_y, nrm)
    assert np.abs(np.reshape(scene.arc1, (-1, 2))[1:-1] - direct[1:-1]).max() < 1e-10


def test_json_layers_and_determinism(tri):
    scene = build_scene(tri, 1.0, 8.0, 16)
    doc = scene_to_json(scene)
    assert doc == scene_to_json(build_scene(tri, 1.0, 8.0, 16))
    data = json.loads(doc)
    assert list(data) == ["triangle", "arc1", "arc2", "arc3", "envelope", "altitude", "centre"]
    assert len(data["arc1"]) == 17
    assert data["centre"] == [[0.72, 0.96]]
    assert data["triangle"][1] == [4.0, 0.0]


def test_svg_structure_and_determinism(tri):
    scene = build_scene(tri, 1.0, 8.0, 16)
    doc = scene_to_svg(scene)
    assert doc == scene_to_svg(build_scene(tri, 1.0, 8.0, 16))
    assert doc.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert doc.count("<path") == 7
    assert 'viewBox="' in doc
    assert 'fill="none"' in doc
    order = [field.split('"')[0] for field in doc.split('<path id="')[1:]]
    assert order == ["triangle", "arc1", "arc2", "arc3", "envelope", "altitude", "centre"]


LAYERS = ["triangle", "arc1", "arc2", "arc3", "envelope", "altitude", "centre"]


def test_emission_order_is_the_field_order(tri):
    # both emitters follow the record, so its field order is the documents' order
    assert list(Scene._fields) == LAYERS
    assert not hasattr(Scene, "layers") and not hasattr(Scene, "arcs")
    for samples in (16, 1024):  # one per builder
        scene = build_scene(tri, 1.0, 8.0, samples)
        assert list(json.loads(scene_to_json(scene))) == LAYERS
        assert [path.get("id") for path in ET.fromstring(scene_to_svg(scene))] == LAYERS


# SHA-256 of (upright SVG, JSON) from the per-coordinate emitters these
# replaced: the SVG hash is of the text that printed each y as fmt(-y) with no
# transform, so matching it means the flipped paths draw the same points to the
# bit. The points come from numpy sin/cos, which match libm bit for bit.
# The last two were pinned again when envelope vertices became their exact
# values rounded once, which moved their envelope layers in the last digit.
PINNED = [
    ((4.0, 3.0), 0.0, 8.0, 64,
     "2d7c82c146974eee0199d7efb2ff62baf29e64b760b6504b5387cd9ec725b07e",
     "d59ebe4049a603a2871b552f43e89beb2c7ec46de847e1f78b29c08d3bb4d687"),
    ((4.0, 3.0), 0.5, 8.0, 64,
     "f58e107f6da8c4ec642f5e8835cd49c4fe4ce5dbeb134c76106fd50130712b95",
     "39bd0545d08c320b94990b4dd3a965a2c8ed1f2379f1bdaba3eebc3a2c425e9f"),
    ((4.0, 3.0), 1.0, 8.0, 64,
     "889230cd27663bc1a1d9eabfeaa4da3393c4aec6a1a63a992e697ed4d5f3fb59",
     "7c1ed3ff840a12f5202759fc2c668d9e69379bd98dfe4993be586cf5a0f6c870"),
    ((4.0, 3.0), 2.0, 8.0, 64,
     "838f853457035ab245f057de8a1d906211babbab38862f64061f9658fba1a680",
     "e583d08afccefbcf62dcd4c4ee3e14230ba766f35ec1d54aac9f64e66d3e2723"),
    ((3.0, 7.0), 1.5, 5.0, 1024,
     "ff169f463987531e7ed31a945f97541934ec32741003c15a9c5ddd0ee1965d54",
     "b0128f2c9485f06e32733e07ca3b130ebe99a9af207a49bf69c3a763c9d88cf1"),
    ((4.0, 3.0), 1.5, 5.0, 8192,
     "bb4dc8e821d7f1f12f8d9f3459618b2ab93d66650fc6d27770a0151d3be3f7ff",
     "b2b92dacedae4ef3a98d7ef7bd0757d15f3d88b5e2f66d76832d08376c196374"),
]


def upright(svg: str) -> str:
    """``svg`` with each path's ``scale(1 -1)`` applied as text: the attribute
    dropped and every y of its ``d`` printed as ``fmt(-y)``."""
    def flip(d: str) -> str:
        return re.sub(r"([ML]) (\S+) (\S+)",
                      lambda m: f"{m[1]} {m[2]} {fmt(-float(m[3]))}", d)

    text, flipped = re.subn(r' transform="scale\(1 -1\)" d="([^"]*)"',
                            lambda m: f' d="{flip(m[1])}"', svg)
    assert flipped == svg.count("<path ")
    return text


@pytest.mark.parametrize("legs,e,k,samples,svg_sha,json_sha", PINNED,
                         ids=[f"{a:g}x{b:g}-e{e:g}-k{k:g}-n{n}" for (a, b), e, k, n, *_ in PINNED])
def test_emitters_byte_identical(legs, e, k, samples, svg_sha, json_sha):
    scene = build_scene(place_triangle(*legs), e, k, samples)
    assert hashlib.sha256(upright(scene_to_svg(scene)).encode()).hexdigest() == svg_sha
    assert hashlib.sha256(scene_to_json(scene).encode()).hexdigest() == json_sha


EDGE = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
        math.inf, -math.inf, math.nan, 1e16, 2.0**53 + 2, 0.1, -0.1]


def test_fmt_rows_matches_fmt():
    values = EDGE[:6] + EDGE[9:]
    for sign in (1.0, -1.0):
        layer = tuple(sign * v + 0.0 for v in values)  # a built layer holds no -0.0
        expected = "".join(f"{fmt(x)} {fmt(y)}\n" for x, y in points(layer))
        assert fmt_rows(layer) == expected


@pytest.mark.parametrize("y", EDGE)
@pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
def test_negate_y_rows_matches_fmt(x, y):
    # every path, flipped by its transform, puts (x, y) where fmt(x) fmt(-y) does
    pt = (x + 0.0, y + 0.0)
    svg = scene_to_svg(Scene(triangle=pt, arc1=pt, arc2=pt, arc3=pt, envelope=pt, altitude=pt,
                             centre=pt))
    paths = dict(re.findall(r'<path id="(\w+)" d="([^"]*)"', upright(svg)))
    for name in ("triangle", "arc1", "arc2", "arc3", "envelope", "altitude"):
        d = f"M {fmt(x)} {fmt(-y)}"
        assert paths[name] == (d + " Z" if name in ("triangle", "envelope") else d)


def edge_scene() -> Scene:
    grid = [(x + 0.0, y + 0.0) for x in EDGE for y in EDGE]  # a built layer holds no -0.0
    flat = lambda pts: tuple(v for p in pts for v in p)
    return Scene(triangle=flat(grid[:3]), arc1=flat(grid), arc2=flat(grid[::-1]),
                 arc3=flat(grid[::7]), envelope=flat(grid[-3:]), altitude=flat(grid[40:42]),
                 centre=(0.0, math.nan))


def drawn_paths(svg: str) -> dict:
    """Each path's subpaths as the points it draws: ``d`` mapped through its ``transform``."""
    paths = {}
    for path in ET.fromstring(svg):
        sx, sy = map(float, re.fullmatch(r"scale\((\S+) (\S+)\)",
                                         path.get("transform", "scale(1 1)")).groups())
        tokens, subpaths = path.get("d").split(), []
        while tokens:
            op = tokens.pop(0)
            if op == "Z":
                subpaths[-1].append(subpaths[-1][0])
                continue
            point = (sx * float(tokens.pop(0)), sy * float(tokens.pop(0)))
            if op == "M":
                subpaths.append([point])
            else:
                subpaths[-1].append(point)
        paths[path.get("id")] = subpaths
    return paths


def json_points(doc: str) -> dict:
    """The JSON layers as float points; ``fmt`` prints non-finite values as nan/inf."""
    names = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
    return json.loads(re.sub(r"-?inf|nan", lambda m: names[m.group()], doc))


def same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("case", [row[:4] for row in PINNED] + ["edge"])
def test_svg_draws_the_json_points(case):
    scene = edge_scene() if case == "edge" else build_scene(place_triangle(*case[0]), *case[1:])
    svg = scene_to_svg(scene)
    drawn, layers = drawn_paths(svg), json_points(scene_to_json(scene))
    for name in ("triangle", "arc1", "arc2", "arc3", "envelope", "altitude"):
        (points,) = drawn[name]
        if name in ("triangle", "envelope"):
            assert points.pop() == points[0]
        expected = [(x, -y) for x, y in layers[name]]
        assert len(points) == len(expected)
        assert all(same(a, c) and same(b, d) for (a, b), (c, d) in zip(points, expected))
    (cx, cy), = layers["centre"]
    (a, b), (c, d) = drawn["centre"]
    if not all(math.isfinite(v) for p in (a, b, c, d) for v in p):
        # the edge scene's bounds, so also the mark's size, are not finite
        assert not all(map(math.isfinite, map(float, ET.fromstring(svg).get("viewBox").split())))
        return
    # two diagonals of one square: same x span, swapped y ends, both centred on the centre
    assert (a[0], b[0], a[1], b[1]) == (c[0], d[0], d[1], c[1])
    tick = (b[0] - a[0]) / 2.0
    assert tick > 0.0 and abs(b[1] - a[1]) == approx(2.0 * tick)
    for p, q in ((a, b), (c, d)):
        assert (p[0] + q[0]) / 2.0 == approx(cx, abs=1e-12 * tick)
        assert (p[1] + q[1]) / 2.0 == approx(-cy, abs=1e-12 * tick)


def test_emitters_match_per_coordinate_fmt_on_edge_values():
    scene = edge_scene()
    layers = list(zip(scene._fields, scene))
    expected_json = "{\n" + ",\n".join(
        f'  "{name}": [' + ", ".join(f"[{fmt(x)}, {fmt(y)}]" for x, y in points(pts)) + "]"
        for name, pts in layers) + "\n}\n"
    assert scene_to_json(scene) == expected_json
    svg = scene_to_svg(scene)
    paths = dict(re.findall(r'<path id="(\w+)" transform="[^"]*" d="([^"]*)"', svg))
    for name, pts in layers[:-1]:  # the centre is a mark, not its points
        d = "M " + " L ".join(f"{fmt(x)} {fmt(y)}" for x, y in points(pts))
        assert paths[name] == (d + " Z" if name in ("triangle", "envelope") else d)


@pytest.mark.parametrize("make", [edge_scene, lambda: build_scene(place_triangle(3.0, 7.0),
                                                                  0.5, 4.0, 256)])
def test_emitters_independent_of_call_order(make):
    first, second = make(), make()
    svg, doc = scene_to_svg(first), scene_to_json(first)
    assert (scene_to_json(second), scene_to_svg(second)) == (doc, svg)
    assert (scene_to_svg(first), scene_to_json(first)) == (svg, doc)
    assert (scene_to_svg(second), scene_to_json(second)) == (svg, doc)


def test_cached_rows_are_not_a_field(tri):
    scene = build_scene(tri, 1.0, 8.0, 16)
    scene_to_json(scene)  # fills the cache
    assert {"rows", "bounds"} <= set(vars(scene))
    assert not {"rows", "bounds"} & set(Scene._fields) and len(scene) == len(Scene._fields) == 7
    copy = scene._replace()
    assert not vars(copy)
    assert copy == scene and scene == copy
    # build_scene's bounds, from each arc builder's extremes, are those of every point
    assert copy.bounds == scene.bounds
    moved = scene._replace(centre=(9.0, -9.0))
    assert '"centre": [[9, -9]]' in scene_to_json(moved)
    assert f'"centre": [[{fmt(scene.centre[0])}, {fmt(scene.centre[1])}]]' in scene_to_json(scene)
    # a copy with one arc moved formats that arc and finds its extremes anew
    bent = scene._replace(arc2=scene.arc2[:-2] + (99.0, -99.0))
    assert bent.rows[2] == fmt_rows(bent.arc2) != scene.rows[2]
    assert bent.rows[:2] + bent.rows[3:] == scene.rows[:2] + scene.rows[3:]
    lo_x, _, _, hi_y = scene.bounds
    assert bent.bounds == (lo_x, -99.0, 99.0, hi_y)


def test_scenes_compare_layers_by_value(tri):
    # layers are tuples of floats, so a scene compares and hashes as a plain tuple
    scene, again = build_scene(tri, 1.0, 8.0, 16), build_scene(tri, 1.0, 8.0, 16)
    assert scene == again and not scene != again and hash(scene) == hash(again)
    assert scene != scene._replace(centre=(9.0, -9.0))
    assert scene != build_scene(tri, 1.0, 8.0, 32)
    assert scene == tuple(again) and scene != list(zip(scene._fields, scene))


def test_scene_is_an_immutable_named_tuple(tri):
    scene = build_scene(tri, 1.0, 8.0, 16)
    triangle, arc1, arc2, arc3, envelope, altitude, centre = scene
    assert centre is scene.centre
    assert arc1 is scene.arc1 and arc2 is scene.arc2 and arc3 is scene.arc3
    scene_to_json(scene)  # fills the cache, which stays out of reach of setattr
    for name in ("centre", "rows", "bounds", "colour"):
        with pytest.raises(AttributeError):
            setattr(scene, name, None)
    assert scene.rows[-1] == f"{fmt(centre[0])} {fmt(centre[1])}\n"


def test_tiny_k_parabola_scene_warns_nothing(tri):
    # beta = pi - 5e-10, so 1 + cos(beta) rounds to 0 at the chord ends; those
    # samples are the exact chord ends and must not go through the polar form
    for samples in (64, 1024):  # one per builder
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scene = build_scene(tri, 1.0, 1e-9, samples)
            scene_to_svg(scene)
            scene_to_json(scene)
        for pts in scene:
            assert all(map(math.isfinite, pts))


def twin_cases() -> list[tuple[PlanarTriangle, float, float]]:
    """Seeded (triangle, e, k) of every arc class: near-semicircles, thin parabolas, a
    parabola whose beta is pi to rounding (k = 1e-9), flat arcs up to k = 1e8 and
    hyperbolas next to their limit, on right, clockwise and general triangles."""
    rng = random.Random("twin")
    near = lambda e, lo, hi: feasibility_min_k(e) * (1.0 + 10.0 ** rng.uniform(lo, hi))
    shapes = [(1.0, 1e-9), (rng.uniform(0.0, 3.0), 1e8)]
    for _ in range(3):
        e = rng.choice([0.0, rng.uniform(0.0, 0.99)])
        shapes += [(e, near(e, -9.0, -3.0)), (1.0, 10.0 ** rng.uniform(-3.0, -1.0)),
                   (rng.uniform(0.0, 3.0), 10.0 ** rng.uniform(6.0, 8.0))]
        e = rng.uniform(1.01, 20.0)
        shapes.append((e, near(e, -6.0, -1.0)))
    triangles = [place_triangle(10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)),
                 CLOCKWISE, PlanarTriangle((-0.0, -0.0), (4.0, -0.0), (-0.0, 3.0))]
    triangles += [PlanarTriangle(*((rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(3)))
                  for _ in range(len(shapes) - len(triangles))]
    return [(t, e, k) for t, (e, k) in zip(triangles, shapes)]


def bits(values) -> bytes:
    return array("d", values).tobytes()


def test_math_and_numpy_arcs_are_bitwise_equal():
    above = (_MATH_SAMPLES + 1, 100, 1001)
    for tri, e, k in twin_cases():
        orient = 1.0 if tri._area2 > 0 else -1.0
        for a, b, l in _sides(tri):
            arc = construct_arc(l, l / k, e)
            for n in (*range(2, _MATH_SAMPLES + 1), *above):
                (pts, box), (twin, twin_box) = (build(arc, n, a, b, orient)
                                                for build in (_arc_math, _arc_numpy))
                assert (bits(pts), bits(box)) == (bits(twin), bits(twin_box)), (e, k, n)


def test_too_few_samples_refused():
    for n in (1, 0, -3):
        with pytest.raises(ConicError, match=rf"^need samples >= 2 per arc, got {n}$"):
            build_scene(place_triangle(4.0, 3.0), 1.0, 8.0, n)


def test_scene_bytes_do_not_depend_on_the_builder(monkeypatch):
    for tri, e, k in twin_cases():
        for n in (2, 3, _MATH_SAMPLES, _MATH_SAMPLES + 1, 1001):
            outputs = []
            for limit in (0, 1 << 30):  # every arc through _arc_numpy, then _arc_math
                monkeypatch.setattr(scene_module, "_MATH_SAMPLES", limit)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    scene = build_scene(tri, e, k, n)
                    outputs.append((scene_to_svg(scene), scene_to_json(scene), scene.bounds))
                # layers hold no -0.0, and the bounds are those of every point
                assert not any(v == 0.0 and math.copysign(1.0, v) < 0.0
                               for pts in scene for v in pts)
                assert scene._replace().bounds == scene.bounds
            assert outputs[0] == outputs[1], (e, k, n)
