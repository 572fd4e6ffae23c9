"""Tests of the benchmark's own code.

    python3 -m pytest bench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import report  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Span, Tracer, covered, self_times  # noqa: E402


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (7.0, 12.0)], 0.0, 10.0) == 7.0
    assert covered([(1.0, 9.0), (2.0, 3.0)], 0.0, 10.0) == 8.0
    assert covered([(-4.0, -1.0), (11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_only_direct_children():
    tree = [
        Span("bench.task", 0.0, 10.0, None, 0),
        Span("density.pdf", 1.0, 3.0, 0, 0),
        Span("core.cf", 1.5, 2.5, 1, 0),
        Span("cli.density", 2.0, 5.0, 0, 0),
        Span("density.mode", 7.0, 12.0, 0, 0),
    ]
    # root: children cover [1, 5] and [7, 10]; grandchild lies inside them
    assert self_times(tree) == pytest.approx([3.0, 1.0, 1.0, 3.0, 5.0])


def test_tracer_links_spans_to_parent_and_task_and_marks_errors():
    tr = Tracer()
    with tr.task(7):
        with tr.span("density.grid", nodes=16) as attrs:
            attrs["extra"] = 1
        with pytest.raises(ValueError):
            with tr.span("measure.esscher_martingale"):
                raise ValueError("probe")
    root, grid, esscher = tr.spans
    assert (root.parent, grid.parent, esscher.parent) == (None, 0, 0)
    assert {s.task for s in tr.spans} == {7}
    assert grid.attrs == {"nodes": 16, "extra": 1}
    assert (grid.error, esscher.error) == (None, "ValueError")
    assert root.start <= grid.start <= grid.end <= esscher.start <= esscher.end <= root.end


def _fake_workload():
    def task(i, tr, env):
        with tr.span("core.cf", points=1):
            pass
        if i % 2:
            raise workloads.CheckFailed("odd input", tolerance=True)

    return workloads.Workload("fake", lambda seed, count: list(range(count)), task)


def test_untraced_run_records_no_spans():
    tracer = NullTracer()
    records = run.run_tasks(_fake_workload(), range(6), tracer, None)
    assert len(records) == 6
    assert tracer.spans == ()
    assert {r.outcome for r in records} == {"ok", "tolerance"}


def test_traced_run_records_one_root_per_task():
    tracer = Tracer()
    records = run.run_tasks(_fake_workload(), range(6), tracer, None)
    roots = [s for s in tracer.spans if s.name == spans.ROOT]
    assert len(roots) == len(records) == len(tracer.spans) // 2
    assert [s.task for s in roots] == [r.index for r in records]


def test_inputs_repeat_for_a_seed_and_fill_every_slice():
    k = workloads.STRATA
    first = workloads.price_inputs(3, k * k + 1)
    assert first == workloads.price_inputs(3, k * k + 1) != workloads.price_inputs(4, k * k + 1)
    # after the fixed first law, one block of draws: the maturities in
    # [0.25, 3] fall once into each of k*k slices, and (alpha+, maturity)
    # once into each cell of a k x k grid
    mats = np.array([(inp.maturity - 0.25) / 2.75 for inp in first[1:]])
    alphas = np.array([(inp.law.plus.alpha - 0.3) / 0.7 for inp in first[1:]])
    assert sorted((mats * k * k).astype(int)) == list(range(k * k))
    assert len(set(zip((mats * k).astype(int), (alphas * k).astype(int)))) == k * k
    assert len(workloads.price_inputs(3, 2 * k * k)) == 2 * k * k
    assert run.task_count("simulate_fit", 0.1) == 1


def test_tail_leaves_ten_values_beyond():
    value, pct, beyond = report.tail([float(v) for v in range(30, 0, -1)])
    assert (value, beyond) == (20.0, 10)
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert report.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_timings_are_scaled_to_nominal_host_speed():
    nominal = speed.NOMINAL
    # the host runs at half speed from task 10 on: tasks and references
    # both take twice as long, so every scaled time is the same
    records = [report.TaskRecord(i, 0.5 * f, "ok", ref=nominal * f)
               for i, f in enumerate([1.0] * 10 + [2.0] * 10)]
    records.append(report.TaskRecord(20, 0.002, "error", ref=2 * nominal))
    m = report.end_to_end(records, [(1.0, nominal), (3.0, 2 * nominal), (9.0, nominal)], 80.0)
    assert m["task_p50_ms"]["value"] == pytest.approx(500.0)
    assert m["task_p50_ms"]["raw"] == pytest.approx(750.0)
    assert m["task_tail_ms"]["value"] == pytest.approx(500.0)
    assert m["task_tail_ms"]["beyond"] == 10
    assert m["tasks_per_s"]["value"] == pytest.approx(20 / (20 * 0.5 + 0.001))
    assert m["setup_s"]["value"] == pytest.approx(1.5)
    assert m["setup_s"]["raw"] == pytest.approx(3.0)
    assert m["ok_frac"]["value"] == pytest.approx(20 / 21)


def test_busy_fractions_add_up_to_task_time():
    tree = [
        Span("bench.task", 0.0, 10.0, None, 0),
        Span("density.pdf", 1.0, 3.0, 0, 0, {"points": 4}),
        Span("core.cf", 1.5, 2.5, 1, 0, {"points": 2}),
        Span("cli.density", 4.0, 9.0, 0, 0, {"bytes": 10}),
    ]
    m = report.per_layer(tree, 1, span_cost=0.0)
    busy = sum(m[f"{mod}.busy_frac"]["value"] for mod in report.MODULES)
    assert busy + m["bench.self.busy_frac"]["value"] == pytest.approx(1.0)
    assert m["density.busy_frac"]["value"] == pytest.approx(0.1)
    assert m["density.pdf.us_per_point"]["value"] == pytest.approx(0.5e6)
    assert m["core.cf.ns_per_point"]["value"] == pytest.approx(0.5e9)
    assert m["pricing.fourier.ms_per_price"]["value"] == 0.0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_first_task_passes_and_spans_name_a_module(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    tracer = Tracer()
    with tracer.task(0):
        wl.task(wl.inputs(1, 2)[0], tracer, workloads.Env(tmp_path))
    modules = {s.module for s in tracer.spans}
    assert modules <= set(report.MODULES) | {"bench"}
    assert all(s.name.count(".") == 1 for s in tracer.spans)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    record = report.TaskRecord(0, 0.1, "ok", ref=0.02)
    e2e = report.end_to_end([record], [(1.0, 0.02)], 100.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]]["unit"] for m in spec["end_to_end"])
    layer = report.per_layer([Span(spans.ROOT, 0.0, 1.0, None, 0)], 1, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]]["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
