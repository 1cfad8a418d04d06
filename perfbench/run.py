"""Benchmark of the couette-gevrey drivers, end to end and per layer.

    python3 perfbench/run.py --workload surrogate --seed 0 --seconds 57 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, and the run fails if that is missing.  ``--trace 0``
repeats the workload's driver calls as often as they fit in ``--seconds``
(one full pass at least) and reports wall time at a reference machine
speed (``speed.py``; the sum over the driver calls of each one's median),
set-up time and peak memory.  ``--trace 1`` runs the workload once untraced and once with spans around the package's functions
and reports per-layer metrics.  The last line of standard output is one
JSON object; perfbench/README.md describes the workloads and metrics.
"""

import os

# pin BLAS before numpy is imported: default OpenBLAS threading
# oversubscribes a 2-core machine by an order of magnitude
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5  # at least
PROBE_TIMEOUT_S = 120

# (span name, stats reported); every traced run reports all of them, with
# zeros for layers the workload does not reach
LAYER_STATS = [
    ("functionals.full_report", ("calls", "busy_s", "p50_ms", "tail_ms")),
    ("scalar.step_scalar", ("calls", "busy_s", "p50_ms", "tail_ms")),
    ("coordinates.step_coordinates", ("calls", "busy_s", "p50_ms", "tail_ms")),
    ("coordinates.build_gamma_stack", ("calls", "busy_s")),
    ("coordinates.monitor_assumptions", ("busy_s",)),
    ("spectral.green_solve", ("calls", "busy_s")),
    ("elliptic.decompose_phi", ("calls", "self_s")),
    ("elliptic.eval_elliptic_functionals", ("busy_s",)),
    ("elliptic.interior_greens_response", ("calls", "busy_s")),
    ("identities.find_theta_params", ("busy_s",)),
    ("identities.check_combinatorics", ("busy_s",)),
    ("spectral.ChannelGrid", ("busy_s",)),
    ("weights.build_cascade", ("busy_s",)),
    ("harness.run_single_nu", ("self_s",)),
    ("harness.run", ("self_s",)),
    ("harness._write_run_files", ("busy_s",)),
    ("harness.decompose_suite", ("self_s",)),
    ("harness.identity_suite", ("self_s",)),
    ("harness.damping_suite", ("self_s",)),
]
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms", "tail_ms": "ms"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config.CONFIG["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__),
        "scipy_blas": blas(scipy.__config__),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it; "unknown"
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_setup(workload: str) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.split()[-1])


def run_pass(workload, ops, reference: dict | None, before_op=lambda: None,
             sampler=None) -> dict:
    """Each driver call once; its wall time counts, its checks and
    ``before_op`` do not.  With no reference, only the workload's own rules
    are checked.  With a started ``speed.Sampler``, calls are timed on its
    clock and the kernel samples taken during each call are kept."""
    clock = sampler.clock if sampler else time.perf_counter
    op_walls, op_samples, summaries, problems = {}, {}, {}, {}
    for op in ops:
        before_op()
        first = len(sampler.samples) if sampler else 0
        start = clock()
        try:
            out = op.call()
            op_walls[op.label] = clock() - start
            summaries[op.label] = op.summarize(out)
            problems[op.label] = op.rule(summaries[op.label])
        except Exception:  # a failing driver call is counted, not fatal
            op_walls.setdefault(op.label, clock() - start)
            problems[op.label] = ["raised:\n" + traceback.format_exc()]
        if sampler:
            op_samples[op.label] = sampler.samples[first:]
    import workloads

    for label, msgs in workload.rules(summaries).items():
        problems[label] += msgs
    if reference is not None:
        for label, summary in summaries.items():
            problems[label] += workloads.compare(summary, reference["summaries"][label])
    return {"wall_s": sum(op_walls.values()), "op_walls": op_walls, "op_samples": op_samples,
            "summaries": summaries, "problems": problems, "counts": workload.counts(summaries)}


def traced_pass(workload, ops, reference: dict | None, trace_path: Path):
    """``run_pass`` with spans; also returns the span statistics, the time
    inside top-level spans and the estimated time the spans themselves cost."""
    import tracer
    import workloads

    tr = tracer.Tracer()
    for module, attr in workloads.TRACED:
        tr.patch(module, attr)
    try:
        result = run_pass(workload, ops, reference)
    finally:
        tr.restore()
    stats = tracer.span_stats(tr.spans)
    trace_path.write_text(json.dumps({"stats": stats, "spans": tr.to_json()}) + "\n")
    return result, stats, tracer.top_level_time(tr.spans), len(tr.spans) * tracer.span_cost_s()


DRIVERS = ("harness.run", "harness.run_single_nu", "harness.decompose_suite",
           "harness.identity_suite", "harness.damping_suite")


def layer_metrics(stats: dict, traced: dict, untraced: dict, covered_s: float,
                  span_cost: float) -> dict:
    metrics = {}
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "p50_ms": 0.0, "tail_ms": 0.0}
    for name, keys in LAYER_STATS:
        st = stats.get(name, empty)
        for key in keys:
            metrics[f"{name}.{key}"] = {"value": st[key], "unit": UNITS[key]}
    other = sum((st["busy_s"] for name, st in stats.items()
                 if name.startswith("identities.check_") and name != "identities.check_combinatorics"), 0.0)
    driver_self = sum(stats[name]["self_s"] for name in DRIVERS if name in stats)
    counts = traced["counts"]
    metrics.update({
        "identities.other_checks.busy_s": {"value": other, "unit": "s"},
        "elliptic.picard_iterations": {"value": counts.get("picard_iterations", 0), "unit": "count"},
        "harness.output_bytes": {"value": counts.get("output_bytes", 0), "unit": "bytes"},
        "bench.traced_wall_s": {"value": traced["wall_s"], "unit": "s"},
        # the difference of two passes is dominated by run-to-run noise;
        # span_cost_s is the direct estimate of what the wrappers add
        "bench.tracing_overhead_s": {"value": traced["wall_s"] - untraced["wall_s"], "unit": "s"},
        "bench.span_cost_s": {"value": span_cost, "unit": "s"},
        # share of the traced driver-call time inside spans, and inside
        # spans below the drivers' own code
        "bench.span_coverage": {"value": 100.0 * covered_s / traced["wall_s"], "unit": "%"},
        "bench.layer_coverage": {"value": 100.0 * (covered_s - driver_self) / traced["wall_s"],
                                 "unit": "%"},
    })
    return metrics


def call_counts(stats: dict) -> dict:
    return {
        "steps": stats.get("scalar.step_scalar", {}).get("calls", 0),
        "gamma_stacks": stats.get("coordinates.build_gamma_stack", {}).get("calls", 0),
        "green_solves": stats.get("spectral.green_solve", {}).get("calls", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=57.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "couette_gevrey" / "__init__.py").is_file():
        return fail(f"no package source at {SRC / 'couette_gevrey'}; run from a source checkout")
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import couette_gevrey

    if Path(couette_gevrey.__file__).resolve().parent != SRC / "couette_gevrey":
        return fail(f"imported couette_gevrey from {couette_gevrey.__file__}, not from {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    seed = args.seed % 2**32
    workload = workloads.WORKLOADS[args.workload](WORK_DIR, seed)
    env = environment()
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload}, seed {seed} (fed to identity_suite and"
          " find_theta_params only), serial=True")

    passes, partial = [], []
    if args.trace:
        passes.append(run_pass(workload, workload.ops(), reference))
        trace_path = WORK_DIR / f"trace_{args.workload}_seed{seed}.json"
        traced, stats, covered_s, span_cost = traced_pass(workload, workload.ops(), reference,
                                                             trace_path)
        passes.append(traced)
        metrics = layer_metrics(stats, traced, passes[0], covered_s, span_cost)
        for name, st in sorted(stats.items()):
            print(f"# span {name}: {st['calls']} calls, busy {st['busy_s']:.4f} s,"
                  f" self {st['self_s']:.4f} s, p50 {st['p50_ms']:.4g} ms,"
                  f" p{st['tail_percentile']:g} {st['tail_ms']:.4g} ms ({st['tail_beyond']} beyond)")
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    else:
        # set-up probes run before every operation, so that they sample the
        # machine across the run rather than in one burst; the speed sampler
        # pauses for them
        import speed

        setup = []
        sampler = speed.Sampler()

        def before_op():
            sampler.stop()
            setup.append(probe_setup(args.workload))
            sampler.start()

        # one full pass, then cycles that run each operation whose expected
        # time (its median so far plus a probe) still fits in --seconds;
        # a cycle that runs every operation is a full pass
        walls, kernel_s = {}, {}
        n_ops = len(workload.ops())
        start = time.perf_counter()
        try:
            while True:
                chosen = workload.ops()
                if passes:
                    budget = args.seconds - (time.perf_counter() - start)
                    fits = []
                    for op in chosen:
                        cost = statistics.median(walls[op.label]) + statistics.median(setup)
                        if cost <= budget:
                            fits.append(op)
                            budget -= cost
                    if not fits:
                        break
                    chosen = fits
                result = run_pass(workload, chosen, reference, before_op, sampler)
                for label, wall in result["op_walls"].items():
                    walls.setdefault(label, []).append(wall)
                    kernel_s.setdefault(label, []).append(result["op_samples"][label])
                (passes if len(chosen) == n_ops else partial).append(result)
        finally:
            sampler.stop()
        # each call's wall time at the reference speed: scaled by the mean
        # kernel time during the call, or during the whole run for a call
        # shorter than the sampling period
        run_kernel_s = statistics.median(sampler.samples)
        ref_walls = {
            label: [wall * speed.REF_KERNEL_S / statistics.fmean(k or [run_kernel_s])
                    for wall, k in zip(walls[label], kernel_s[label])]
            for label in walls
        }
        while len(setup) < SETUP_REPEATS:
            setup.append(probe_setup(args.workload))
        wall_s = sum(statistics.median(w) for w in walls.values())
        metrics = {
            "wall_ref_s": {"value": sum(statistics.median(w) for w in ref_walls.values()),
                           "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        print(f"# {len(passes)} full passes and {len(partial)} partial ones in"
              f" {time.perf_counter() - start:.1f} s; {len(sampler.samples)} speed samples,"
              f" median kernel {run_kernel_s * 1e3:.2f} ms (reference"
              f" {speed.REF_KERNEL_S * 1e3:.2f} ms), {sampler.spent:.2f} s in the sampler")
        print("# setup_s per probe: " + " ".join(f"{x:.3f}" for x in setup))
        for label, w in walls.items():
            print(f"# op {label}: median {statistics.median(w):.3f} s,"
                  f" at reference speed {statistics.median(ref_walls[label]):.3f} s,"
                  f" of {len(w)} calls: " + " ".join(f"{x:.3f}" for x in w))
        print(f"{args.workload} wall_s = {wall_s:.6g} s (at the machine's speed; see wall_ref_s)")

    runs = passes + partial
    attempted = sum(len(p["problems"]) for p in runs)
    failed = sum(1 for p in runs for msgs in p["problems"].values() if msgs)
    for p in runs:
        for label, msgs in p["problems"].items():
            for msg in msgs:
                print(f"# FAILED {label}: {msg}")
    counts = passes[0]["counts"]
    stable = all(p["counts"] == counts for p in passes)
    if not stable:
        print(f"# FAILED counts differ between passes: {[p['counts'] for p in passes]}")
    if args.trace:
        counts = {**counts, **call_counts(stats)}
    for key, value in counts.items():
        ref = reference["counts"].get(key)
        note = "" if ref == value else f" (seed reference {ref})"
        print(f"# count {key} = {value}{note}")
    for line in workload.verdicts(passes[-1]["summaries"]):
        print(f"# verdict {line}")
    error_rate = failed / attempted
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate = {error_rate:.6g} (failed/attempted = {failed}/{attempted})")
    print(json.dumps({"correct": failed == 0 and stable, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
