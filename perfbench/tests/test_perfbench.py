"""Tests of the benchmark itself: generators, checker, oracle and self time.

Run with ``python -m pytest perfbench/tests``.
"""

import math

import pytest

from perfbench import gen, oracle, procs, tracing, workloads
from perfbench.run import percentile
from conicarcs import ArcLengthResult, QuadratureNonConvergence
from conicarcs.triples import SweepRow

pytest.importorskip("mpmath")
oracle.load()


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_same_seed_gives_identical_inputs(workload):
    make = gen.GENERATORS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_boundary_inputs_have_exact_chord_ratio():
    for item in gen.boundary_layer(3)["timed"] + gen.boundary_layer(3)["probe"]:
        if item["kind"] == "arc":
            assert item["l"] / item["f"] == item["k"]
            assert gen.feasible(item["e"], item["k"])


def _arc_item():
    return {"kind": "arc", "l": 8.0, "f": 2.0, "e": 0.5, "k": 4.0, "label": "test arc"}


def _arc_refs():
    return oracle.references([(0.5, 4.0)])


def test_checker_passes_the_reference_length():
    item, refs = _arc_item(), _arc_refs()
    exact = float(item["l"] * refs[(0.5, 4.0)])
    key, _ = workloads.digest(item, ArcLengthResult(exact, 1e-15, 21), True)
    assert workloads.check(item, key, None, refs) == []


def test_checker_flags_length_off_by_1e_11():
    item, refs = _arc_item(), _arc_refs()
    off = float(item["l"] * refs[(0.5, 4.0)]) * (1 + 1e-11)
    key, _ = workloads.digest(item, ArcLengthResult(off, 1e-15, 21), True)
    [failure] = workloads.check(item, key, None, refs)
    assert "off by 1e-11" in failure


def test_checker_flags_raised_nonconvergence():
    item = _arc_item()
    key = workloads.raised(QuadratureNonConvergence("error estimate above tolerance"))
    [failure] = workloads.check(item, key, key, _arc_refs())
    assert failure.startswith("QuadratureNonConvergence")


def test_checker_flags_aborted_sweep():
    item = {"kind": "sweep", "legs": [3.0, 4.0], "e": [2.0], "k": [4.0], "checked": [],
            "label": "test sweep"}
    key = workloads.raised(QuadratureNonConvergence("cell did not converge"))
    [failure] = workloads.check(item, key, key, {})
    assert failure.startswith("sweep aborted")


def test_checker_flags_sweep_residual_and_wrong_flag():
    item = {"kind": "sweep", "legs": [3.0, 4.0], "e": [0.0], "k": [1.0, 4.0], "checked": [],
            "label": "test sweep"}
    rows = [SweepRow(0.0, 1.0, True, 5.0, 4.0, 3.0, 1e-6, 1.0), SweepRow(0.0, 4.0, False)]
    text = ("e,k,feasible,c1,c2,c3,residual,g\n0,1,true,5,4,3,9.9999999999999995e-07,1\n"
            "0,4,false,,,,,\n")
    key, detail = workloads.digest(item, (rows, text), True)
    failures = workloads.check(item, key, detail, {})
    assert any("feasibility flags" in f for f in failures)
    assert any("residuals >= 1e-08" in f for f in failures)


def _child(status, stdout=b"", stderr=b""):
    return procs.Child(status=status, stdout=stdout, stderr=stderr, wall_s=1.0,
                       started=0.0, maxrss_kb=1)


def test_checker_flags_wrong_exit_code():
    item = {"kind": "cli", "argv": ["arclen", "--l", "1.0", "--f", "0.9", "--e", "2.0"],
            "expect": 3, "label": "infeasible"}
    key, detail = workloads.digest(item, _child(1, stderr=b"conicarcs: error: x\n"), True)
    [failure] = workloads.check(item, key, detail, {})
    assert failure.startswith("exit code 1, expected 3")
    key, detail = workloads.digest(item, _child(3, stderr=b"conicarcs: infeasible: x\n"), True)
    assert workloads.check(item, key, detail, {}) == []


def test_self_time_subtracts_covered_child_time():
    # root [0, 10] has children [1, 3] and [2, 5] (overlapping: union 4) and a
    # grandchild [6, 8] under a child [6, 9]; the child [6, 9] has self time 1.
    starts = [0.0, 1.0, 2.0, 6.0, 6.0]
    ends = [10.0, 3.0, 5.0, 9.0, 8.0]
    parents = [-1, 0, 0, 0, 3]
    assert tracing.self_times(starts, ends, parents) == [3.0, 2.0, 3.0, 1.0, 2.0]


def test_covered_clips_to_the_parent():
    assert tracing.covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == 4.0
    assert tracing.covered([], 0.0, 1.0) == 0.0


def test_oracle_matches_closed_forms():
    mp = oracle.mp
    with mp.workdps(40):
        # circle: g = 2 R beta / l with R = (k^2 + 4) / (8 k), sin(beta) = 1 / (2 R)
        k = mp.mpf(3)
        radius = (k * k + 4) / (8 * k)
        circle = 2 * radius * mp.asin(1 / (2 * radius))
        # parabola: g = p (u sqrt(1 + u^2) + asinh(u)), p = k / 8, u = 4 / k
        k = mp.mpf(2) ** -10
        u = 4 / k
        parabola = k / 8 * (u * mp.sqrt(1 + u * u) + mp.asinh(u))
        assert abs(oracle.g_reference(0.0, 3.0) - circle) < mp.mpf(10) ** -35
        assert abs(oracle.g_reference(1.0, 2.0 ** -10) / parabola - 1) < mp.mpf(10) ** -32


def test_oracle_boundary_layer_agrees_with_cross_check():
    # g_reference raises OracleDisagreement when the two quadratures differ
    e = 2.0
    k = gen.k_min(e) * (1 + 1e-9)
    assert oracle.g_reference(e, k) > 1


def test_import_split_groups_self_time():
    log = ("import time: self [us] | cumulative | imported package\n"
           "import time:       100 |        100 |   numpy.core\n"
           "import time:      2000 |       2100 | numpy\n"
           "import time:      3000 |       3000 |     scipy.integrate\n"
           "import time:        50 |       5150 | conicarcs.arclength\n"
           "import time:        10 |         10 | json\n")
    assert procs.import_split_ms(log) == {"numpy": 2.1, "scipy": 3.0, "conicarcs": 0.05}


def test_percentile_reports_samples_above():
    values = [float(i) for i in range(1, 101)]
    assert percentile(values, 90) == (90.0, 10)
    assert percentile(values, 50) == (50.0, 50)
    assert math.isclose(percentile([1.0], 99)[0], 1.0)


def test_benchmark_json_lists_the_metrics_run_emits():
    import json
    from pathlib import Path

    from perfbench import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == [
        "ops_per_s", "latency_p50_ms", "latency_tail_ms", "correct_share", "setup_s", "peak_rss_mb"]


def test_mix_uses_each_items_median():
    from perfbench.run import mix

    lat = [1.0, 1.0, 9.0, 2.0, 2.0, 2.0]
    items = ["a", "a", "a", "b", "b", "b"]
    assert mix(lat, items) == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
