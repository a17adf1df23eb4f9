"""Scene assembly and its JSON/SVG serializations."""

import dataclasses
import hashlib
import json
import math
import re
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from pytest import approx

from conicarcs import (
    InfeasibleSagitta,
    Scene,
    build_scene,
    construct_arc,
    place_triangle,
    pythagorean_centre,
    scene_to_json,
    scene_to_svg,
)
from conicarcs.scene import fmt_rows
from conicarcs.textfmt import fmt


@pytest.fixture()
def tri():
    return place_triangle(4.0, 3.0)


def line_distance(p, a, b):
    ax, ay = a
    bx, by = b
    return abs((bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)) / math.hypot(bx - ax, by - ay)


def test_scene_layer_shapes(tri):
    scene = build_scene(tri, 1.0, 8.0, 64)
    assert scene.triangle.shape == (3, 2)
    assert all(a.shape == (65, 2) for a in scene.arcs)
    assert scene.envelope.shape == (3, 2)
    assert scene.altitude.shape == (2, 2)
    assert scene.centre.shape == (2,)


def test_arc_endpoints_meet_vertices(tri):
    scene = build_scene(tri, 1.0, 8.0, 16)
    vertices = {
        0: (scene.triangle[1], scene.triangle[2]),  # hypotenuse arc: P2 -> P3
        1: (scene.triangle[0], scene.triangle[1]),
        2: (scene.triangle[2], scene.triangle[0]),
    }
    for i, (start, end) in vertices.items():
        assert np.linalg.norm(scene.arcs[i][0] - start) < 1e-10 * tri.l1
        assert np.linalg.norm(scene.arcs[i][-1] - end) < 1e-10 * tri.l1


def test_arc_apexes_on_envelope_sides(tri):
    k = 8.0
    scene = build_scene(tri, 1.0, k, 64)
    env = scene.envelope
    env_sides = [(env[1], env[2]), (env[0], env[1]), (env[2], env[0])]
    tri_sides = [(scene.triangle[1], scene.triangle[2]),
                 (scene.triangle[0], scene.triangle[1]),
                 (scene.triangle[2], scene.triangle[0])]
    lengths = (tri.l1, tri.l2, tri.l3)
    for i in range(3):
        apex = scene.arcs[i][32]
        assert line_distance(apex, *tri_sides[i]) == approx(lengths[i] / k, rel=1e-10)
        assert line_distance(apex, *env_sides[i]) < 1e-10 * tri.l1


def test_arcs_bulge_outward(tri):
    scene = build_scene(tri, 0.5, 4.0, 32)
    tri_sides = [(scene.triangle[1], scene.triangle[2], scene.triangle[0]),
                 (scene.triangle[0], scene.triangle[1], scene.triangle[2]),
                 (scene.triangle[2], scene.triangle[0], scene.triangle[1])]
    for i, (a, b, interior) in enumerate(tri_sides):
        cross = lambda p: (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        apex = scene.arcs[i][16]
        assert cross(apex) * cross(interior) < 0.0


def test_scene_centre_and_altitude(tri):
    scene = build_scene(tri, 1.0, 8.0, 8)
    centre = pythagorean_centre(tri)
    assert scene.centre == approx([centre.x, centre.y], rel=1e-14)
    assert scene.altitude[0] == approx([0.0, 0.0], abs=1e-15)
    assert scene.altitude[1] == approx([1.44, 1.92], rel=1e-13)


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
    assert np.abs(scene.arcs[0][1:-1] - direct[1:-1]).max() < 1e-10


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


# SHA-256 of (upright SVG, JSON) from the per-coordinate emitters these
# replaced: the SVG hash is of the text that printed each y as fmt(-y) with no
# transform, so matching it means the flipped paths draw the same points to the
# bit. The points come from numpy sin/cos, which match libm bit for bit.
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
     "5af22d23ba85aaa0bef1db2836472653284a077dc267e940142aff751b33fdcd",
     "b433069200ebd3b75974371cda91eea62408a48c204ff382e470a4100439d57e"),
    ((4.0, 3.0), 1.5, 5.0, 8192,
     "a3daea3ad2bb170fa8853932af439fdc824c3a1e6c5d3115a86988e25e9bdcda",
     "395954089a34aa608f83056cfba2a8f3bd5254cc42506870032b4acd672913f3"),
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
    pts = np.array(values).reshape(-1, 2)
    for sign in (1.0, -1.0):
        expected = "".join(f"{fmt(sign * x)} {fmt(sign * y)}\n" for x, y in pts)
        assert fmt_rows(sign * pts) == expected


@pytest.mark.parametrize("y", EDGE)
@pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
def test_negate_y_rows_matches_fmt(x, y):
    # every path, flipped by its transform, puts (x, y) where fmt(x) fmt(-y) does
    pt = np.array([[x, y]])
    scene = Scene(triangle=pt, arcs=(pt, pt, pt), envelope=pt, altitude=pt, centre=pt[0])
    with np.errstate(over="ignore", invalid="ignore"):  # a one-point viewBox of edge values
        svg = scene_to_svg(scene)
    paths = dict(re.findall(r'<path id="(\w+)" d="([^"]*)"', upright(svg)))
    for name in ("triangle", "arc1", "arc2", "arc3", "envelope", "altitude"):
        d = f"M {fmt(x)} {fmt(-y)}"
        assert paths[name] == (d + " Z" if name in ("triangle", "envelope") else d)


def edge_scene() -> Scene:
    grid = np.array([(x, y) for x in EDGE for y in EDGE])
    return Scene(triangle=grid[:3], arcs=(grid, grid[::-1], grid[::7]), envelope=grid[-3:],
                 altitude=grid[40:42], centre=np.array([-0.0, math.nan]))


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
    layers = scene.layers()
    expected_json = "{\n" + ",\n".join(
        f'  "{name}": [' + ", ".join(f"[{fmt(x)}, {fmt(y)}]" for x, y in pts) + "]"
        for name, pts in layers) + "\n}\n"
    assert scene_to_json(scene) == expected_json
    svg = scene_to_svg(scene)
    paths = dict(re.findall(r'<path id="(\w+)" transform="[^"]*" d="([^"]*)"', svg))
    for name, pts in layers[:-1]:  # the centre is a mark, not its points
        d = "M " + " L ".join(f"{fmt(x)} {fmt(y)}" for x, y in pts)
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
    assert "rows" in vars(scene)
    assert "rows" not in [f.name for f in dataclasses.fields(Scene)]
    copy = dataclasses.replace(scene)
    assert "rows" not in vars(copy)
    assert copy == scene and scene == copy
    moved = dataclasses.replace(scene, centre=np.array([9.0, -9.0]))
    assert '"centre": [[9, -9]]' in scene_to_json(moved)
    assert f'"centre": [[{fmt(scene.centre[0])}, {fmt(scene.centre[1])}]]' in scene_to_json(scene)


def test_scenes_compare_layers_by_value(tri):
    scene, again = build_scene(tri, 1.0, 8.0, 16), build_scene(tri, 1.0, 8.0, 16)
    assert scene == again and not scene != again
    assert scene != dataclasses.replace(scene, centre=np.array([9.0, -9.0]))
    assert scene != build_scene(tri, 1.0, 8.0, 32)
    assert scene != scene.layers() and scene.__eq__(scene.layers()) is NotImplemented
    with pytest.raises(TypeError):
        hash(scene)


def test_tiny_k_parabola_scene_warns_nothing(tri):
    # beta = pi - 5e-10, so 1 + cos(beta) rounds to 0 at the chord ends; those
    # samples are the exact chord ends and must not go through the polar form
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scene = build_scene(tri, 1.0, 1e-9, 64)
        scene_to_svg(scene)
        scene_to_json(scene)
    for _, pts in scene.layers():
        assert np.isfinite(pts).all()
