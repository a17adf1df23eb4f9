"""conicarcs benchmark: one workload per run, one closed-loop client, no threads.

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  The run builds its inputs from the seed,
measures set-up time in fresh interpreters, warms up, then runs operations
back to back for ``--seconds`` and checks every output against mpmath
references afterwards.  It prints a report, then one JSON line with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``).  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench import gen, oracle, procs, workloads  # noqa: E402  (none of these imports conicarcs)

WORKLOADS = ("grid_sweep", "boundary_layer", "scene_render", "cli_cold")
# The highest of p50/p75/p90/p95/p99 with at least ten operations above it,
# once each operation counts at its item's median (see ``mix``), at the count
# a 20 s run reaches: grid_sweep 5 items, ~170 operations; boundary_layer 24
# items, ~4e4; scene_render 12 items, ~330; cli_cold 8 items, ~20.
TAIL_PERCENTILE = {"grid_sweep": 75, "boundary_layer": 95, "scene_render": 90, "cli_cold": 50}
SETUP_REPEATS = 3
KERNEL_NOMINAL_S, KERNEL_EVERY_S = 4e-4, 0.05  # python_kernel on an idle 2-core x86 box
FLOOR_NOMINAL_S, FLOOR_EVERY_S = 0.75, 2.5  # Spawner.floor on the same box
BARE_REPEATS = 5


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the number of samples above it."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    value = sorted_values[rank - 1]
    return value, sum(1 for v in sorted_values[rank:] if v > value)


def python_kernel() -> float:
    """Seconds for a fixed piece of pure-Python float and string work, best of 3."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc, parts = 0.0, []
        for i in range(300):
            x = math.sqrt(i + 0.5) * 1.000001
            acc += math.cos(x) / (1.0 + x)
            parts.append(format(x, ".17g"))
        "".join(parts)
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """How fast the host runs a fixed reference job right now, sampled through a run.

    On a shared host the same code runs up to 1.7x slower for seconds or
    minutes at a time (other tenants on the same cores, caches and disks).
    A fixed reference job slows down by about the same factor as the work it
    resembles, so each operation's time is rescaled to the host speed at
    which the job takes ``nominal_s``.  In-process operations use
    ``python_kernel`` (0.4 ms, sampled every 50 ms); fresh interpreters use
    ``Spawner.floor``, an interpreter that imports numpy and scipy.integrate
    (0.75 s, sampled at most every 2.5 s).  The job is the benchmark's own
    code, so no change to conicarcs can move it.
    """

    def __init__(self, job, nominal_s: float, every_s: float):
        self.job, self.nominal_s, self.every_s = job, nominal_s, every_s
        self.times: list[float] = []
        self.costs: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= self.every_s:
            self.costs.append(self.job())
            self.times.append(now)

    def rescale(self, start: float, seconds: float) -> float:
        """seconds, as they would be at nominal speed; start is when the operation began."""
        i = bisect.bisect_right(self.times, start)
        local = (self.costs[max(i - 1, 0)] + self.costs[min(i, len(self.costs) - 1)]) / 2
        return seconds * self.nominal_s / local

    def factor(self) -> float:
        return self.nominal_s / statistics.median(self.costs)


def mix(latencies: list[float], idents: list) -> list[float]:
    """Each operation's time replaced by the median time of its item, sorted.

    Every item runs many times in a run.  Other processes on a shared host
    slow everything down in bursts of a few seconds (1.7x on a 2-core test
    box), which moves means and raw percentiles from run to run; the median
    of each item does not move, and the spread between items (the workload's
    mix of easy and hard inputs) is kept.
    """
    by_item = defaultdict(list)
    for dt, ident in zip(latencies, idents):
        by_item[ident].append(dt)
    median = {ident: statistics.median(v) for ident, v in by_item.items()}
    return sorted(median[ident] for ident in idents)


class Run:
    """One workload's inputs, outputs and checks for one seed."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seconds = seconds
        inputs = gen.GENERATORS[workload](seed)
        self.timed, self.probe = inputs["timed"], inputs["probe"]
        self.scratch = ROOT / ".perfbench"
        self.scratch.mkdir(exist_ok=True)
        self.spawner = procs.Spawner(ROOT, self.scratch)
        self.first: dict = {}  # item id -> (key, detail) of its first run
        self.mismatch: dict = defaultdict(int)  # item id -> runs whose key differed

    def items(self):
        return [("t", i, it) for i, it in enumerate(self.timed)] + \
               [("p", i, it) for i, it in enumerate(self.probe)]

    def record(self, ident, item, result) -> None:
        first = ident not in self.first
        if isinstance(result, Exception):
            key = workloads.raised(result)
            detail = key
        else:
            key, detail = workloads.digest(item, result, first)
        if first:
            self.first[ident] = (key, detail)
        elif key != self.first[ident][0]:
            self.mismatch[ident] += 1

    def run_item(self, api, ident, item):
        """Execute one in-process item; returns (seconds, result or exception)."""
        t0 = time.perf_counter()
        try:
            result = workloads.execute(api, item)
        except Exception as exc:  # a failed operation is data, not a crash
            result = exc
        return time.perf_counter() - t0, result

    def check(self):
        """Reference lengths, then the failures of every item that ran."""
        oracle.load()
        pairs = set()
        for _, _, item in self.items():
            pairs.update(workloads.pairs(item))
        refs = oracle.references(pairs)
        failures = {}
        for (kind, i), (key, detail) in self.first.items():
            item = (self.timed if kind == "t" else self.probe)[i]
            fails = workloads.check(item, key, detail, refs)
            if self.mismatch.get((kind, i)):
                fails.append(f"{self.mismatch[(kind, i)]} repeated runs gave a different output")
            failures[(kind, i)] = fails
        return refs, failures


# -- the untraced run: end-to-end metrics -------------------------------------

def measure(run: Run) -> dict:
    from perfbench.tracing import PLAIN

    cli = run.workload == "cli_cold"
    spawns = HostSpeed(run.spawner.floor, FLOOR_NOMINAL_S, FLOOR_EVERY_S)
    setups = []
    for _ in range(SETUP_REPEATS):
        spawns.sample(force=True)
        setups.append((time.perf_counter(), run.spawner.setup(run.workload)[0]))
    spawns.sample(force=True)
    setup = statistics.median(spawns.rescale(t0, dt) for t0, dt in setups)
    if not cli:
        for ident_kind, i, item in run.items():  # warm-up, and the probe's only run
            _, result = run.run_item(PLAIN, (ident_kind, i), item)
            run.record((ident_kind, i), item, result)
    speed = spawns if cli else HostSpeed(python_kernel, KERNEL_NOMINAL_S, KERNEL_EVERY_S)
    starts, lat, idents, child_rss = [], [], [], []
    start = time.perf_counter()
    n = 0
    while time.perf_counter() - start < run.seconds:
        i = n % len(run.timed)
        item = run.timed[i]
        speed.sample()
        starts.append(time.perf_counter())
        if cli:
            child = run.spawner.cli(item["argv"], traced=False)
            dt, result = time.perf_counter() - starts[-1], child
            child_rss.append(child.maxrss_kb)
        else:
            dt, result = run.run_item(PLAIN, ("t", i), item)
        run.record(("t", i), item, result)
        lat.append(dt)
        idents.append(("t", i))
        n += 1
    elapsed = time.perf_counter() - start
    rss_kb = max(child_rss) if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    speed.sample(force=True)
    measured, lat = lat, [speed.rescale(t0, dt) for t0, dt in zip(starts, lat)]
    refs, failures = run.check()
    failed = sum(1 for ident in idents if failures[ident])
    typical = mix(lat, idents)
    q = TAIL_PERCENTILE[run.workload]
    tail, above = percentile(typical, q)
    raw = sorted(measured)
    return {
        "attempted": n, "failed": failed, "failures": failures, "refs": refs,
        "tail": (q, above, len(set(idents))),
        "raw": (n / elapsed, percentile(raw, 50)[0], percentile(raw, q)[0]),
        "speed": (speed.factor(), spawns.factor()),
        "metrics": {
            "ops_per_s": ((n - failed) / sum(typical), "1/s"),
            "latency_p50_ms": (percentile(typical, 50)[0] * 1e3, "ms"),
            "latency_tail_ms": (tail * 1e3, "ms"),
            "correct_share": ((n - failed) / n, "ratio"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        },
    }


# -- the traced run: per-layer metrics -----------------------------------------

class Layers:
    """Counts taken at span boundaries, fed by the tracer's observers."""

    def __init__(self):
        self.calls = []  # first pass: (arc, result or exception, caller's args) of arc_length
        self.evaluations = 0
        self.evaluations_max = 0
        self.points = 0
        self.cells = self.cells_infeasible = 0
        self.sweeps = []  # first pass: rows or exception of each sweep
        self.csv_bytes = self.scene_bytes = 0
        self.deviations = []  # max_deviation / l1

    def observers(self):
        return {
            "arclength.arc_length": self.arc_length,
            "conic.sample_points": self.sample_points,
            "triples.sweep": self.sweep,
            "triples.sweep_csv": self.sweep_csv,
            "scene.scene_to_svg": self.scene_text,
            "scene.scene_to_json": self.scene_text,
            "homothety.verify_homothety": self.homothety,
        }

    def arc_length(self, tracer, i, args, out, exc):
        if out is not None:
            self.evaluations += out.evaluations
            self.evaluations_max = max(self.evaluations_max, out.evaluations)
        if tracer.op < 0:
            self.calls.append((args[0], out if exc is None else exc, tracer.parent_args(i)))

    def sample_points(self, tracer, i, args, out, exc):
        self.points += args[1] + 1

    def sweep(self, tracer, i, args, out, exc):
        if out is not None:
            self.cells += len(out)
            self.cells_infeasible += sum(1 for r in out if not r.feasible)
        if tracer.op < 0:
            self.sweeps.append(out if exc is None else exc)

    def sweep_csv(self, tracer, i, args, out, exc):
        self.csv_bytes += len(out or "")

    def scene_text(self, tracer, i, args, out, exc):
        self.scene_bytes += len(out or "")

    def homothety(self, tracer, i, args, out, exc):
        if out is not None:
            self.deviations.append(out.max_deviation / args[0].l1)


PER_LAYER = {
    "arclength.arc_length.calls": "count/op", "arclength.arc_length.self_ms": "ms/op",
    "arclength.evaluations": "count/op", "arclength.evaluations_max": "count",
    "arclength.nonconvergent": "count", "arclength.accuracy_miss": "count",
    "arclength.max_rel_err": "ratio", "arclength.estimate_understated": "count",
    "arclength.useful_ratio": "ratio",
    "conic.construct_arc.calls": "count/op", "conic.construct_arc.self_ms": "ms/op",
    "conic.sample_points.calls": "count/op", "conic.sample_points.self_ms": "ms/op",
    "conic.sample_points.points": "count/op",
    "triples.conic_triple.self_ms": "ms/op", "triples.sweep.self_ms": "ms/op",
    "triples.sweep.cells": "count/op", "triples.sweep.cells_infeasible": "count/op",
    "triples.sweep.aborted": "count", "triples.max_residual": "ratio",
    "triples.sweep_csv.ms": "ms/op", "triples.sweep_csv.bytes": "B/op",
    "scene.build_scene.self_ms": "ms/op", "scene.scene_to_svg.ms": "ms/op",
    "scene.scene_to_json.ms": "ms/op", "scene.bytes": "B/op", "textfmt.fmt.calls": "count/op",
    "homothety.verify_homothety.calls": "count/op", "homothety.verify_homothety.self_ms": "ms/op",
    "homothety.max_deviation": "ratio",
    "cli.python_start_ms": "ms", "cli.import.numpy_ms": "ms", "cli.import.scipy_ms": "ms",
    "cli.import.conicarcs_ms": "ms", "cli.compute_ms": "ms",
    "trace.overhead_share": "ratio",
}


def measure_traced(run: Run) -> dict:
    values = dict.fromkeys(PER_LAYER, 0.0)
    values["cli.python_start_ms"] = 1e3 * statistics.median(
        run.spawner.bare() for _ in range(BARE_REPEATS))
    if run.workload == "cli_cold":
        out = _traced_cli(run, values)
    else:
        splits = [procs.import_split_ms(run.spawner.setup(run.workload, True)[1].stderr.decode())
                  for _ in range(SETUP_REPEATS)]
        for group in procs.IMPORT_GROUPS:
            values[f"cli.import.{group}_ms"] = statistics.median(s[group] for s in splits)
        out = _traced_in_process(run, values)
    out["metrics"] = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    return out


def _alternate(run: Run, one) -> tuple[int, float, float]:
    """Run each timed item traced and untraced, alternating which goes first."""
    start = time.perf_counter()
    n = traced_total = plain_total = 0
    while time.perf_counter() - start < run.seconds:
        i = n % len(run.timed)
        for traced in ((True, False) if n % 2 == 0 else (False, True)):
            dt = one(i, run.timed[i], traced, n)
            if traced:
                traced_total += dt
            else:
                plain_total += dt
        n += 1
    return n, traced_total, plain_total


def _traced_cli(run: Run, values: dict) -> dict:
    splits, compute = [], []

    def one(i, item, traced, op):
        t0 = time.perf_counter()
        child = run.spawner.cli(item["argv"], traced)
        dt = time.perf_counter() - t0
        run.record(("t", i), item, child)
        if traced:
            err = child.stderr.decode()
            splits.append(procs.import_split_ms(err))
            _, imported, returned = procs.shim_times(err)
            compute.append(1e3 * (returned - imported))
        return dt

    n, traced_total, plain_total = _alternate(run, one)
    for group in procs.IMPORT_GROUPS:
        values[f"cli.import.{group}_ms"] = statistics.median(s[group] for s in splits)
    values["cli.compute_ms"] = statistics.median(compute)
    values["trace.overhead_share"] = traced_total / plain_total - 1.0
    return _finish(run, 2 * n, [("t", i % len(run.timed)) for i in range(n) for _ in (0, 1)])


def _traced_in_process(run: Run, values: dict) -> dict:
    from perfbench import tracing

    layers = Layers()
    # conic_triple's (tri, e, k) tells an arc_length call inside a sweep its cell's k
    tracer = tracing.Tracer(layers.observers(), keep_args={"triples.conic_triple"})
    tracer.install()
    try:
        # first pass, traced: every item once, for the accuracy and defect counts
        for n, (kind, i, item) in enumerate(run.items()):
            tracer.op = -1 - n
            _, result = run.run_item(tracer.api, (kind, i), item)
            run.record((kind, i), item, result)
    finally:
        tracer.uninstall()
    first_spans = len(tracer.names)
    layers.evaluations = layers.points = layers.cells = layers.cells_infeasible = 0
    layers.csv_bytes = layers.scene_bytes = 0
    tracer.counts.clear()

    def one(i, item, traced, op):
        if traced:
            tracer.op = op
            tracer.install()
            try:
                dt, result = run.run_item(tracer.api, ("t", i), item)
            finally:
                tracer.uninstall()
        else:
            dt, result = run.run_item(tracing.PLAIN, ("t", i), item)
        run.record(("t", i), item, result)
        return dt

    n, traced_total, plain_total = _alternate(run, one)
    values["trace.overhead_share"] = traced_total / plain_total - 1.0
    out = _finish(run, 2 * n, [("t", i % len(run.timed)) for i in range(n) for _ in (0, 1)])

    parents = [p - first_spans if p >= 0 else -1 for p in tracer.parents[first_spans:]]
    selfs = tracing.self_times(tracer.starts[first_spans:], tracer.ends[first_spans:], parents)
    busy = defaultdict(float)
    calls = defaultdict(int)
    for name, dt in zip(tracer.names[first_spans:], selfs):
        busy[name] += dt
        calls[name] += 1
    per_op = 1.0 / n
    for name in ("arclength.arc_length", "conic.construct_arc", "conic.sample_points",
                 "homothety.verify_homothety"):
        values[f"{name}.calls"] = calls[name] * per_op
    for name in ("arclength.arc_length", "conic.construct_arc", "conic.sample_points",
                 "triples.conic_triple", "triples.sweep", "scene.build_scene",
                 "homothety.verify_homothety"):
        values[f"{name}.self_ms"] = 1e3 * busy[name] * per_op
    for name in ("triples.sweep_csv", "scene.scene_to_svg", "scene.scene_to_json"):
        values[f"{name}.ms"] = 1e3 * busy[name] * per_op
    values["arclength.evaluations"] = layers.evaluations * per_op
    values["arclength.evaluations_max"] = layers.evaluations_max
    values["conic.sample_points.points"] = layers.points * per_op
    values["triples.sweep.cells"] = layers.cells * per_op
    values["triples.sweep.cells_infeasible"] = layers.cells_infeasible * per_op
    values["triples.sweep_csv.bytes"] = layers.csv_bytes * per_op
    values["scene.bytes"] = layers.scene_bytes * per_op
    values["textfmt.fmt.calls"] = tracer.counts["textfmt.fmt.calls"] * per_op
    values["homothety.max_deviation"] = max(layers.deviations, default=0.0)
    _accuracy(layers, out["refs"], values)
    tracer.write(run.scratch / f"spans-{run.workload}.tsv")
    return out


def _accuracy(layers: Layers, refs: dict, values: dict) -> None:
    """Defect counts over the first pass, where every item ran once."""
    from conicarcs.errors import QuadratureNonConvergence

    nonconvergent = miss = understated = 0
    worst = 0.0
    for arc, result, caller in layers.calls:
        if isinstance(result, QuadratureNonConvergence):
            nonconvergent += 1
            continue
        if isinstance(result, Exception):
            continue
        # inside a sweep the cell's k comes from conic_triple(tri, e, k)
        k = caller[2] if caller is not None and len(caller) >= 3 else arc.k
        g = refs.get((arc.e, k))
        if g is None:
            continue
        ref = arc.l * g
        err = oracle.rel_err(result.length, ref)
        worst = max(worst, err)
        miss += err > workloads.REL_TOL
        understated += err * float(ref) > result.error_estimate
    values["arclength.nonconvergent"] = nonconvergent
    values["arclength.accuracy_miss"] = miss
    values["arclength.max_rel_err"] = worst
    values["arclength.estimate_understated"] = understated
    values["arclength.useful_ratio"] = (
        (len(layers.calls) - nonconvergent - miss) / len(layers.calls) if layers.calls else 0.0)
    values["triples.sweep.aborted"] = sum(isinstance(s, Exception) for s in layers.sweeps)
    values["triples.max_residual"] = max(
        (r.residual for rows in layers.sweeps if not isinstance(rows, Exception)
         for r in rows if r.feasible), default=0.0)


def _finish(run: Run, attempted: int, idents: list) -> dict:
    refs, failures = run.check()
    failed = sum(1 for ident in idents if failures[ident])
    return {"attempted": attempted, "failed": failed, "failures": failures, "refs": refs}


# -- report --------------------------------------------------------------------

def report(run: Run, out: dict) -> dict:
    print(f"workload {run.workload}: {out['attempted']} operations attempted, "
          f"{out['failed']} failed (fail_share {out['failed'] / out['attempted']:.6g})")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:36s} {value:.6g} {unit}")
    if "tail" in out:
        q, above, items = out["tail"]
        note = "" if above >= 10 else "  (fewer than 10 samples above it)"
        print(f"  latency_tail_ms is p{q} of {out['attempted']} samples of {items} items, "
              f"each at its item's median; {above} samples above it{note}")
        ops, p50, tail = out["raw"]
        print(f"  raw, every sample as measured: {ops:.6g} ops/s, p50 {p50 * 1e3:.6g} ms, "
              f"p{q} {tail * 1e3:.6g} ms")
        print(f"  host ran at {out['speed'][0]:.3g}x nominal speed for the operations and "
              f"{out['speed'][1]:.3g}x for the set-up interpreters (medians); times are "
              f"rescaled to nominal speed")
    for (kind, i), fails in sorted(out["failures"].items()):
        item = (run.timed if kind == "t" else run.probe)[i]
        where = "timed" if kind == "t" else "probe, untimed"
        for reason in fails:
            print(f"  FAIL [{where}] {item['label']}: {reason}")
    if run.probe:
        bad = sum(1 for (kind, _), f in out["failures"].items() if kind == "p" and f)
        print(f"  probe: {bad} of {len(run.probe)} inputs fail "
              f"(probe fail_share {bad / len(run.probe):.6g})")
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "conicarcs" / "__init__.py").is_file():
        print(f"perfbench: no conicarcs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd, check=False).returncode)
        return status
    sys.path.insert(0, str(ROOT / "src"))
    if not oracle.available():
        print("perfbench: mpmath is required for the reference lengths", file=sys.stderr)
        return 2
    import conicarcs

    if Path(conicarcs.__file__).resolve().parent != ROOT / "src" / "conicarcs":
        print(f"perfbench: imported conicarcs from {conicarcs.__file__}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    out = measure_traced(run) if args.trace else measure(run)
    print(json.dumps(report(run, out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
