"""Spans around calls into conicarcs, recorded from outside the package.

``Tracer.install()`` replaces each traced function in the module that calls
it (for example ``conicarcs.triples.arc_length`` and
``conicarcs.scene.construct_arc``) with a wrapper that records one span, and
``uninstall()`` puts the originals back.  The package itself is not edited.
Spans stay in memory as parallel arrays (name, start, end, parent, operation
id) and are written out once, when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import conicarcs.arclength
import conicarcs.cli
import conicarcs.scene
import conicarcs.triples
from conicarcs import homothety

# (module, attribute, span name): each call site where one layer calls another.
CALL_SITES = (
    (conicarcs.triples, "construct_arc", "conic.construct_arc"),
    (conicarcs.triples, "arc_length", "arclength.arc_length"),
    (conicarcs.triples, "conic_triple", "triples.conic_triple"),
    (conicarcs.scene, "construct_arc", "conic.construct_arc"),
    (conicarcs.scene, "sample_points", "conic.sample_points"),
    (conicarcs.scene, "enveloping_triangle", "homothety.enveloping_triangle"),
    (conicarcs.scene, "altitude_from_right_angle", "homothety.altitude_from_right_angle"),
    (conicarcs.scene, "pythagorean_centre", "homothety.pythagorean_centre"),
)
# Formatting is counted, not timed: a span per number would cost more than the call.
COUNTED = ((conicarcs.triples, "fmt"), (conicarcs.scene, "fmt"), (conicarcs.cli, "fmt"))
# Entry points the benchmark itself calls.
ENTRY_POINTS = {
    "construct_arc": (conicarcs.conic.construct_arc, "conic.construct_arc"),
    "arc_length": (conicarcs.arclength.arc_length, "arclength.arc_length"),
    "sweep": (conicarcs.triples.sweep, "triples.sweep"),
    "sweep_csv": (conicarcs.triples.sweep_csv, "triples.sweep_csv"),
    "make_right_triangle": (conicarcs.triples.make_right_triangle, "triples.make_right_triangle"),
    "place_triangle": (homothety.place_triangle, "homothety.place_triangle"),
    "build_scene": (conicarcs.scene.build_scene, "scene.build_scene"),
    "scene_to_svg": (conicarcs.scene.scene_to_svg, "scene.scene_to_svg"),
    "scene_to_json": (conicarcs.scene.scene_to_json, "scene.scene_to_json"),
    "verify_homothety": (homothety.verify_homothety, "homothety.verify_homothety"),
}


class Api:
    """The conicarcs functions the workloads call, plain or traced."""

    def __init__(self, funcs: dict):
        self.__dict__.update(funcs)


PLAIN = Api({name: fn for name, (fn, _) in ENTRY_POINTS.items()})


class Tracer:
    def __init__(self, observers: dict | None = None, keep_args=()):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.args: list = []  # arguments of each span, kept only for observed names and keep_args
        self.counts: dict = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._observers = observers or {}
        self._keep_args = set(keep_args) | set(self._observers)
        self._plain = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in CALL_SITES]
        self._plain += [(mod, attr, getattr(mod, attr)) for mod, attr in COUNTED]
        self._traced = [(mod, attr, self.wrap(getattr(mod, attr), span))
                        for mod, attr, span in CALL_SITES]
        self._traced += [(mod, attr, self._counted(getattr(mod, attr), "textfmt.fmt.calls"))
                         for mod, attr in COUNTED]
        self.api = Api({name: self.wrap(fn, span) for name, (fn, span) in ENTRY_POINTS.items()})

    def wrap(self, fn, name: str):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops = self.parents, self.ops
        stack, args_log = self._stack, self.args
        observe = self._observers.get(name)
        keep = name in self._keep_args
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            args_log.append(args if keep else None)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                stack.pop()
                if observe:
                    observe(self, i, args, None, exc)
                raise
            ends[i] = clock()
            stack.pop()
            if observe:
                observe(self, i, args, out, None)
            return out

        return traced

    def _counted(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for mod, attr, fn in self._traced:
            setattr(mod, attr, fn)

    def uninstall(self) -> None:
        for mod, attr, fn in self._plain:
            setattr(mod, attr, fn)

    def parent_args(self, i: int):
        """Arguments of the span that called span i, or None."""
        parent = self.parents[i]
        return None if parent < 0 else self.args[parent]

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as out:
            out.write("id\tname\tstart\tend\tparent\top\n")
            for i, name in enumerate(self.names):
                out.write(f"{i}\t{name}\t{self.starts[i]!r}\t{self.ends[i]!r}\t"
                          f"{self.parents[i]}\t{self.ops[i]}\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[i], ends[i]))
    return [ends[i] - starts[i] - covered(children.get(i, ()), starts[i], ends[i])
            for i in range(len(starts))]
