"""Seconds-long check of the benchmark machinery at toy size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import signal
import subprocess
import sys
import types

import run  # pins the BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

import speed  # noqa: E402
import time  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from couette_gevrey import harness  # noqa: E402


def test_spans_nest_and_self_time_subtracts_children():
    calls = []
    ns = types.SimpleNamespace()
    ns.leaf = lambda: calls.append("leaf")

    def outer(depth):
        ns.leaf()
        if depth:
            ns.outer(depth - 1)

    ns.outer = outer
    tr = tracer.Tracer()
    tr.patch(ns, "leaf", "toy.leaf")
    tr.patch(ns, "outer", "toy.outer")
    ns.outer(2)
    tr.restore()
    assert ns.outer is outer and calls == ["leaf"] * 3
    names = [s[2] for s in tr.spans]
    assert names.count("toy.outer") == 3 and names.count("toy.leaf") == 3
    (root,) = [s for s in tr.spans if s[1] < 0]
    stats = tracer.span_stats(tr.spans)
    # recursion: busy time counts the outermost span once
    assert stats["toy.outer"]["busy_s"] == root[4] - root[3]
    total_self = sum(st["self_s"] for st in stats.values())
    assert abs(total_self - tracer.top_level_time(tr.spans)) < 1e-12


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracer.tail_percentile(list(range(3155)))[::2] == (99.0, 31)
    assert tracer.tail_percentile(list(range(62)))[::2] == (75.0, 15)
    assert tracer.tail_percentile([1.0, 2.0, 3.0]) == (100.0, 3.0, 0)


def test_compare_tolerances():
    ref = {"a": 1.0, "n": 3, "flag": True, "max_abs_residuals": [1.0]}
    assert workloads.compare({**ref, "a": 1.0 + 1e-9, "max_abs_residuals": [2.0]}, ref) == []
    assert workloads.compare({**ref, "a": 1.1}, ref)
    assert workloads.compare({**ref, "n": 4}, ref)
    assert workloads.compare({"a": 1.0}, ref)


class ToyWorkload(workloads.Workload):
    """A tiny surrogate-like run through the same pass machinery."""

    fail = False

    def ops(self):
        cfg = harness.ExperimentConfig(ny=16, kmax=1, nu=(1e-2,), truncation_m=1, cadence=0.05,
                                       t_final_policy="absolute", t_final_value=0.1,
                                       output_dir=str(self.work_dir))

        def call():
            if self.fail:
                raise RuntimeError("toy failure")
            return harness.run(cfg)

        return [workloads.Op("toy run", call, lambda r: {"samples": len(r["_full"][0]["series"])})]

    def counts(self, summaries):
        return {"samples": sum(s["samples"] for s in summaries.values())}


def test_passes_count_check_and_trace(tmp_path):
    original = harness.run
    toy = ToyWorkload(tmp_path, 0)
    untraced = run.run_pass(toy, toy.ops(), None)
    reference = {"summaries": untraced["summaries"]}
    traced, stats, covered, span_cost = run.traced_pass(toy, toy.ops(), reference, tmp_path / "trace.json")
    assert harness.run is original  # wrappers removed
    assert untraced["counts"] == traced["counts"] == {"samples": 3}
    assert traced["problems"] == {"toy run": []}
    assert run.call_counts(stats)["steps"] == stats["scalar.step_scalar"]["calls"] > 0
    assert 0.0 < covered <= traced["wall_s"] * 1.01
    assert span_cost > 0.0
    metrics = run.layer_metrics(stats, traced, untraced, covered, span_cost)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    assert json.loads((tmp_path / "trace.json").read_text())["spans"]

    missed = run.run_pass(toy, toy.ops(), {"summaries": {"toy run": {"samples": 4}}})
    assert missed["problems"]["toy run"]

    bad = ToyWorkload(tmp_path, 0)
    bad.fail = True
    broken = run.run_pass(bad, bad.ops(), reference)
    assert "toy failure" in broken["problems"]["toy run"][0]


def test_sampler_clock_excludes_its_samples():
    handler = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    sampler.start()
    try:
        real, program = time.perf_counter(), sampler.clock()
        while time.perf_counter() - real < 3 * speed.PERIOD_S:
            pass
        real, program = time.perf_counter() - real, sampler.clock() - program
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 2 and all(k > 0.0 for k in sampler.samples)
    assert sum(sampler.samples) <= sampler.spent
    assert abs((real - program) - sampler.spent) < 1e-4
    assert signal.getsignal(signal.SIGALRM) == handler


def test_declared_workloads_exist():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    reference = json.loads((run.HERE / "reference.json").read_text())
    assert set(workloads.WORKLOADS) <= set(reference)


def test_fails_without_package_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "surrogate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
