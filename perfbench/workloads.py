"""What one operation of each workload runs, and how its output is checked.

A workload turns a generated item into one timed call (``execute``), a compact
record of the output (``digest``, taken outside the timed window), the (e, k)
pairs whose reference lengths the check needs (``pairs``), and a list of
failures (``check``, empty when the output is correct).  Repeats of an item
must reproduce the first digest exactly; only the first is checked in full.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

from . import gen, oracle

REL_TOL = 1e-12  # the library's default QuadratureSettings.rel_tol
RESIDUAL_LIMIT = 1e-8  # verify's default threshold
DEVIATION_LIMIT = 1e-12  # homothety max_deviation, relative to l1
GEOMETRY_TOL = 1e-13  # construct/centre/scene coordinates, relative to the size
SCENE_LAYERS = ("triangle", "arc1", "arc2", "arc3", "envelope", "altitude", "centre")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def raised(exc: BaseException) -> tuple:
    return ("raised", type(exc).__name__, str(exc))


def _close(value: float, ref, scale) -> bool:
    with oracle.mp.workdps(oracle.PRIMARY_DPS):
        return abs(oracle.mp.mpf(value) - ref) <= GEOMETRY_TOL * scale


def _length_failures(what: str, value: float, ref) -> list[str]:
    err = oracle.rel_err(value, ref)
    return [] if err <= REL_TOL else [f"{what} off by {err:.3g} relative (rel_tol {REL_TOL:g})"]


# -- sweeps (grid_sweep, boundary_layer) --------------------------------------

def sweep_detail(item: dict, rows, text: str) -> dict:
    """Everything the sweep check needs, taken from the rows and their CSV."""
    parsed = list(csv.reader(io.StringIO(text)))
    checked = set(map(tuple, item["checked"]))
    return {
        "cells": [(r.e, r.k, r.feasible) for r in rows],
        "residuals": [(r.e, r.k, r.residual) for r in rows if r.feasible],
        "checked": {(r.e, r.k): (r.c1, r.c2, r.c3, r.g) for r in rows if (r.e, r.k) in checked},
        "csv_ok": parsed[0] == "e,k,feasible,c1,c2,c3,residual,g".split(",") and all(
            [float(x) for x in line[:2]] == [r.e, r.k]
            and line[2] == ("true" if r.feasible else "false")
            and all((v is None and x == "") or (v is not None and x != "" and float(x) == v)
                    for x, v in zip(line[3:], (r.c1, r.c2, r.c3, r.residual, r.g)))
            for line, r in zip(parsed[1:], rows)) and len(parsed) == len(rows) + 1,
    }


def check_sweep(item: dict, key: tuple, d: dict, refs: dict) -> list[str]:
    if key[0] == "raised":
        return [f"sweep aborted: {key[1]}: {key[2]}"]
    out = []
    expect = [(e, k, gen.feasible(e, k)) for e in sorted(item["e"]) for k in sorted(item["k"])]
    if d["cells"] != expect:
        out.append("rows or feasibility flags differ from the exact (e, k) grid")
    bad = [(e, k, res) for e, k, res in d["residuals"] if not res < RESIDUAL_LIMIT]
    if bad:
        out.append(f"{len(bad)} residuals >= {RESIDUAL_LIMIT:g}, first e={bad[0][0]!r} "
                   f"k={bad[0][1]!r} residual={bad[0][2]!r}")
    if not d["csv_ok"]:
        out.append("CSV does not round-trip the rows")
    sides = oracle.side_lengths(item["legs"])
    for (e, k), values in d["checked"].items():
        g = refs[(e, k)]
        for name, value, side in zip(("c1", "c2", "c3"), values[:3], sides):
            out += _length_failures(f"e={e!r} k={k!r} {name}", value, side * g)
        out += _length_failures(f"e={e!r} k={k!r} g", values[3], g)
    return out


# -- single arcs (boundary_layer) ---------------------------------------------

def check_arc(item: dict, key: tuple, refs: dict) -> list[str]:
    if key[0] == "raised":
        return [f"{key[1]}: {key[2]}"]
    return _length_failures("length", key[1], item["l"] * refs[(item["e"], item["k"])])


# -- scenes (scene_render) ----------------------------------------------------

def _homothety_ratio(legs, k: float) -> Fraction:
    """Exact 1 + 2 l1 / (k h1) = 1 + 2 l1^2 / (k l2 l3)."""
    l2, l3 = Fraction(float(legs[0])), Fraction(float(legs[1]))
    return 1 + 2 * (l2 * l2 + l3 * l3) / (Fraction(k) * l2 * l3)


def _scene_vertices(legs):
    """Exact P1, P2, P3, centre and l1 for place_triangle(l2, l3)."""
    l2, l3 = Fraction(legs[0]), Fraction(legs[1])
    s = l2 * l2 + l3 * l3
    centre = (l2 * l3 * l3 / (2 * s), l2 * l2 * l3 / (2 * s))
    return (0, 0), (l2, 0), (0, l3), centre, math.sqrt(float(s))


def scene_detail(item: dict, svg: str, doc: str, reports) -> dict:
    layers = json.loads(doc)
    root = ET.fromstring(svg)
    return {
        "layers": list(layers),
        "points": {name: layers[name] for name in ("triangle", "envelope", "centre")},
        "arcs": [(pts[0], pts[len(pts) // 2], pts[-1], len(pts))
                 for pts in (layers["arc1"], layers["arc2"], layers["arc3"])],
        "svg_ids": [p.get("id") for p in root],
        "reports": [(r.ratio, r.max_deviation) for r in reports],
    }


def check_scene(item: dict, key: tuple, d: dict) -> list[str]:
    if key[0] == "raised":
        return [f"{key[1]}: {key[2]}"]
    out = []
    if d["layers"] != list(SCENE_LAYERS) or d["svg_ids"] != list(SCENE_LAYERS):
        out.append(f"layers {d['layers']} / svg paths {d['svg_ids']}")
    p1, p2, p3, centre, l1 = _scene_vertices(item["legs"])
    l2, l3 = (float(x) for x in item["legs"])
    size = max(l1, 1.0)

    def near(point, exact, what):
        if max(abs(float(Fraction(point[0]) - Fraction(exact[0]))),
               abs(float(Fraction(point[1]) - Fraction(exact[1])))) > GEOMETRY_TOL * size:
            out.append(f"{what} at {point}, expected {[float(x) for x in exact]}")

    for got, exact, what in zip(d["points"]["triangle"], (p1, p2, p3), ("P1", "P2", "P3")):
        near(got, exact, what)
    near(d["points"]["centre"][0], centre, "centre")
    k = item["k"]
    for name, (a, b), length, (first, mid, last, count) in zip(
            ("arc1", "arc2", "arc3"), ((p2, p3), (p1, p2), (p3, p1)), (l1, l2, l3), d["arcs"]):
        if count != item["samples"] + 1:
            out.append(f"{name} has {count} points, expected {item['samples'] + 1}")
        near(first, a, f"{name} start")
        near(last, b, f"{name} end")
        # the middle sample is the apex: sagitta l/k from the side, on the far
        # side from the triangle's interior
        ax, ay = float(a[0]), float(a[1])
        bx, by = float(b[0]), float(b[1])
        side = math.hypot(bx - ax, by - ay)
        cross = ((bx - ax) * (mid[1] - ay) - (by - ay) * (mid[0] - ax)) / side
        if abs(abs(cross) - length / k) > GEOMETRY_TOL * size or cross > 0:
            out.append(f"{name} apex at distance {cross!r} from its side, expected {-length / k!r}")
    for kk, (ratio, dev) in zip(item["k_list"], d["reports"]):
        exact = _homothety_ratio(item["legs"], kk)
        if abs(Fraction(ratio) - exact) > GEOMETRY_TOL * exact:
            out.append(f"k={kk!r} homothety ratio {ratio!r}, expected {float(exact)!r}")
        if not dev <= DEVIATION_LIMIT * l1:
            out.append(f"k={kk!r} max_deviation {dev!r} above {DEVIATION_LIMIT:g} * l1")
    envelope_ratio = _homothety_ratio(item["legs"], k)
    for got, p, what in zip(d["points"]["envelope"], (p1, p2, p3), ("Q1", "Q2", "Q3")):
        near(got, tuple(c + (Fraction(v) - c) * envelope_ratio for v, c in zip(p, centre)), what)
    return out


# -- CLI processes (cli_cold) ------------------------------------------------

def _flags(argv: list[str]) -> dict:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def cli_pairs(item: dict) -> list:
    argv, fl = item["argv"], _flags(item["argv"])
    if item["expect"] != 0:
        return []
    if argv[0] in ("arclen", "oracle"):
        return [(float(fl["e"]), Fraction(float(fl["l"])) / Fraction(float(fl["f"])))]
    if argv[0] == "verify":
        return [(float(fl["e"]), float(fl["k"]))]
    if argv[0] == "sweep":
        return [(e, k) for e in map(float, fl["e-list"].split(","))
                for k in map(float, fl["k-list"].split(",")) if gen.feasible(e, k)]
    return []


def _lines(stdout: str) -> dict:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def _construct_expected(l: float, f: float, e: float) -> dict:
    """Exact chord-frame geometry of the arc, as construct prints it."""
    mp = oracle.mp
    fl, fe = Fraction(l), Fraction(e)
    k = fl / Fraction(f)
    out = {"k": float(fl) / float(f)}
    with mp.workdps(oracle.PRIMARY_DPS):
        def m(q):
            return mp.mpf(q.numerator) / q.denominator
        out["p"] = m(fl * (k / 8 + (1 - fe * fe) / (2 * k)))
        s_u = k / (8 * (1 + fe)) - (1 + fe) / (2 * k)
        out["s"] = m(fl * s_u)
        out["beta"] = mp.atan2(mp.mpf(1) / 2, m(s_u))
        if e == 1.0:
            out["m"] = m(fl * k / 16)
            return out
        sign = 1 if e > 1.0 else -1
        q = sign * (fe * fe - 1)
        a_u = k / (8 * q) - sign * 1 / (2 * k)
        m_u = k / (8 * q) + sign * 1 / (2 * k)
        out["a"] = m(fl * a_u)
        out["b"] = out["a"] * mp.sqrt(m(q))
        out["c_focal"] = out["a"] * mp.mpf(e)
        out["m"] = m(fl * m_u)
        out["alpha"] = mp.atan2(mp.mpf(1) / 2, m(m_u))
    return out


def check_cli(item: dict, detail: tuple, refs: dict) -> list[str]:
    status, stdout, stderr = detail
    argv, fl = item["argv"], _flags(item["argv"])
    if status != item["expect"]:
        return [f"exit code {status}, expected {item['expect']}: {stderr.strip()[-200:]}"]
    if item["expect"] == 3:
        return [] if stdout == "" and "infeasible" in stderr else ["infeasible input not reported"]
    out = []
    cmd = argv[0]
    if cmd == "construct":
        got = json.loads(stdout)
        l, f, e = float(fl["l"]), float(fl["f"]), float(fl["e"])
        expected = _construct_expected(l, f, e)
        if got["class"] != gen_class(e):
            out.append(f"class {got['class']}, expected {gen_class(e)}")
        if got["k"] != expected.pop("k"):
            out.append("k is not l/f")
        for name, ref in expected.items():
            scale = max(abs(float(ref)), 1.0 if name in ("beta", "alpha") else l)
            if got[name] is None or not _close(got[name], ref, scale):
                out.append(f"{name}={got[name]!r}, expected {float(ref)!r}")
    elif cmd == "arclen":
        ref = float(fl["l"]) * refs[cli_pairs(item)[0]]
        out += _length_failures("length", float(_lines(stdout)["length"]), ref)
    elif cmd == "verify":
        vals = _lines(stdout)
        g = refs[cli_pairs(item)[0]]
        for name, side in zip(("c1", "c2", "c3"), oracle.side_lengths((fl["leg2"], fl["leg3"]))):
            out += _length_failures(name, float(vals[name]), side * g)
        if not float(vals["residual"]) < RESIDUAL_LIMIT:
            out.append(f"residual {vals['residual']}")
    elif cmd == "sweep":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        sides = oracle.side_lengths((fl["leg2"], fl["leg3"]))
        e_list = sorted(map(float, fl["e-list"].split(",")))
        k_list = sorted(map(float, fl["k-list"].split(",")))
        grid = [(e, k) for e in e_list for k in k_list]
        if [(float(r["e"]), float(r["k"])) for r in rows] != grid:
            out.append("sweep rows are not the sorted grid")
        for r in rows:
            e, k = float(r["e"]), float(r["k"])
            if (r["feasible"] == "true") != gen.feasible(e, k):
                out.append(f"e={e!r} k={k!r} feasible={r['feasible']}")
            elif r["feasible"] == "true":
                for name, side in zip(("c1", "c2", "c3"), sides):
                    out += _length_failures(f"e={e!r} k={k!r} {name}", float(r[name]),
                                            side * refs[(e, k)])
                if not float(r["residual"]) < RESIDUAL_LIMIT:
                    out.append(f"e={e!r} k={k!r} residual {r['residual']}")
    elif cmd == "scene":
        ids = [p.get("id") for p in ET.fromstring(stdout)]
        if ids != list(SCENE_LAYERS):
            out.append(f"svg paths {ids}")
    elif cmd == "centre":
        vals = stdout.splitlines()
        _, _, _, centre, l1 = _scene_vertices((float(fl["leg2"]), float(fl["leg3"])))
        head = _lines("\n".join(vals[:2]))
        for name, exact in zip(("centre_x", "centre_y"), centre):
            if abs(Fraction(float(head[name])) - exact) > GEOMETRY_TOL * max(l1, 1.0):
                out.append(f"{name}={head[name]}, expected {float(exact)!r}")
        ks = [float(x) for x in fl["k-list"].split(",")]
        for k, line in zip(ks, vals[2:]):
            fields = dict(part.split("=") for part in line.split())
            if not float(fields["max_deviation"]) <= DEVIATION_LIMIT * l1:
                out.append(f"k={k!r} max_deviation {fields['max_deviation']}")
        if len(vals) != 2 + len(ks):
            out.append(f"{len(vals)} lines, expected {2 + len(ks)}")
    elif cmd == "oracle":
        rows = {r["method"]: r for r in csv.DictReader(io.StringIO(stdout))}
        ref = float(fl["l"]) * refs[cli_pairs(item)[0]]
        out += _length_failures("quadrature", float(rows["quadrature"]["value"]), ref)
        poly = float(rows["polyline"]["value"])
        if not (poly <= float(ref) and oracle.rel_err(poly, ref) < 1e-6):
            out.append(f"polyline {poly!r} not just below the reference {float(ref)!r}")
        if "closed_form" in rows:
            out += _length_failures("closed_form", float(rows["closed_form"]["value"]), ref)
    return out


def gen_class(e: float) -> str:
    if e == 0.0:
        return "circle"
    return "ellipse" if e < 1.0 else "parabola" if e == 1.0 else "hyperbola"


# -- dispatch ------------------------------------------------------------------

def execute(api, item: dict):
    """The timed call.  Raises whatever the library raises."""
    kind = item["kind"]
    if kind == "arc":
        return api.arc_length(api.construct_arc(item["l"], item["f"], item["e"]))
    if kind == "sweep":
        rows = api.sweep(api.make_right_triangle(*item["legs"]), item["e"], item["k"])
        return rows, api.sweep_csv(rows)
    if kind == "scene":
        tri = api.place_triangle(*item["legs"])
        scene = api.build_scene(tri, item["e"], item["k"], item["samples"])
        svg, doc = api.scene_to_svg(scene), api.scene_to_json(scene)
        return svg, doc, [api.verify_homothety(tri, k) for k in item["k_list"]]
    raise ValueError(f"not an in-process item: {kind}")


def digest(item: dict, result, first: bool) -> tuple:
    """(key, detail) for one output.

    Every run of an item must give the same key.  The detail is what the check
    needs; it is taken only on the first run of an item, and is None otherwise.
    """
    kind = item["kind"]
    if kind == "arc":
        return ("ok", result.length, result.error_estimate, result.evaluations), None
    if kind == "sweep":
        rows, text = result
        return ("ok", sha(text)), sweep_detail(item, rows, text) if first else None
    if kind == "scene":
        svg, doc, reports = result
        return ("ok", sha(svg), sha(doc)), scene_detail(item, svg, doc, reports) if first else None
    child = result
    stdout, stderr = child.stdout.decode(), child.stderr.decode()
    # a traced run adds the import-time log and the shim's timing line
    stderr = "\n".join(line for line in stderr.splitlines()
                       if line and not line.startswith(("import time:", "perfbench ")))
    return (child.status, sha(stdout)), (child.status, stdout, stderr) if first else None


def pairs(item: dict) -> list:
    kind = item["kind"]
    if kind == "arc":
        return [(item["e"], item["k"])]
    if kind == "sweep":
        return [tuple(c) for c in item["checked"]]
    if kind == "cli":
        return cli_pairs(item)
    return []


def check(item: dict, key: tuple, detail, refs: dict) -> list[str]:
    """Failures of the first output of an item; empty when it is correct."""
    kind = item["kind"]
    if kind == "arc":
        return check_arc(item, key, refs)
    if kind == "sweep":
        return check_sweep(item, key, detail, refs)
    if kind == "scene":
        return check_scene(item, key, detail)
    return check_cli(item, detail, refs)
