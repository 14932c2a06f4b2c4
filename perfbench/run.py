"""Benchmark of the rossby_resonance package, run from the root of a checkout:

    python3 perfbench/run.py --workload box-sweep --seed 1 --seconds 30 --trace 0

Workloads: box-sweep, partner-queries, cli-session (see perfbench/README.md).
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a separate traced run. The
line before it is a detail record: seed, sample counts, the tail percentile,
failures, per-layer span summaries and the machine metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Half the set-up samples are taken before the passes and half after, so
# that their median spans the run rather than its first second.
SETUP_SAMPLES = 10
# A median needs three samples; the traced run needs two of each kind.
MIN_PASSES = 3
MIN_TRACED_PASSES = 4
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
}
PER_LAYER = {
    "exact_core.quartic_solve_us": "us",
    "exact_core.is_resonant_us": "us",
    "partner_search.find_partners_cheap_ms": "ms",
    "partner_search.find_partners_costly_ms": "ms",
    "partner_search.search_s": "s",
    "partner_search.expand_s": "s",
    "partner_search.jsonl_write_ms": "ms",
    "partner_search.jsonl_read_ms": "ms",
    "partner_search.cache_resume_ms": "ms",
    "partner_search.resume_recomputed_points": "count",
    "cluster_graph.build_components_ms": "ms",
    "cluster_graph.clusters_to_json_ms": "ms",
    "verification.axis_ms": "ms",
    "verification.lemma_ms": "ms",
    "verification.identity_ms": "ms",
    "cli.startup_ms": "ms",
    "cli.enumerate_jobs2_ms": "ms",
    "cli.resume_ms": "ms",
    "trace_overhead_share": "share",
}

# Run in a fresh interpreter: what a user pays before the first operation.
# The benchmark's own modules are imported outside the timed parts.
_SETUP_CODE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
import rossby_resonance
t1 = time.perf_counter()
import workloads
t2 = time.perf_counter()
workloads.WORKLOADS[{workload!r}]({seed!r}, {workdir!r})
print((t1 - t0) + (time.perf_counter() - t2))
"""


def measure_setup(workload: str, seed: int, workdir: str, count: int) -> list[float]:
    """Package import plus input generation, each in its own interpreter."""
    code = _SETUP_CODE.format(src=SRC, bench=BENCH_DIR, workload=workload, seed=seed, workdir=workdir)
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def metadata() -> dict:
    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown: git unavailable"
    import numpy

    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine_settings": "unchanged: no page-cache drop, no CPU pinning, no frequency or scheduler change",
    }


def run_passes(workload, seconds: float, tracers: list, min_passes: int) -> list[tuple[int, object]]:
    """Closed loop: passes cycle through tracers; after min_passes, a new
    pass starts only if one like the last would still fit in the budget."""
    results = []
    t0 = time.perf_counter()
    b = 0
    while True:
        which = b % len(tracers)
        results.append((which, workload.run_pass(b, tracers[which])))
        b += 1
        elapsed = time.perf_counter() - t0
        if b >= min_passes and elapsed + results[-1][1].seconds > seconds:
            return results


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["box-sweep", "partner-queries", "cli-session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rossby_resonance", "__init__.py")):
        print(f"error: no package source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rossby_resonance

    if os.path.dirname(os.path.dirname(os.path.abspath(rossby_resonance.__file__))) != SRC:
        print(f"error: imported {rossby_resonance.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def _run(args, workdir: str) -> int:
    import inputs
    import layers
    import spans
    import workloads

    setup = measure_setup(args.workload, args.seed, workdir, SETUP_SAMPLES // 2)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": inputs.HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "metadata": metadata(),
    }

    if args.trace:
        traced = spans.Tracer()
        results = run_passes(workload, args.seconds, [spans.NullTracer(), traced], MIN_TRACED_PASSES)
    else:
        results = run_passes(workload, args.seconds, [spans.NullTracer()], MIN_PASSES)
    setup += measure_setup(args.workload, args.seed, workdir, SETUP_SAMPLES - len(setup))
    ops = [op for _, r in results for op in r.ops]
    run_s = [r.seconds for _, r in results]

    if args.trace:
        untraced = statistics.median(r.seconds for which, r in results if which == 0)
        traced_s = statistics.median(r.seconds for which, r in results if which == 1)
        probe_tracer = spans.Tracer()
        try:
            metrics, probe_ops, probe_summary = layers.run_probes(probe_tracer, args.seed, workdir)
        except Exception:
            traceback.print_exc()
            metrics, probe_ops, probe_summary = {}, [workloads.Op("probes", 0.0, ["probes raised"])], {}
        ops += probe_ops
        metrics["trace_overhead_share"] = traced_s / untraced - 1.0
        values = {name: _metric(metrics.get(name, -1.0), unit) for name, unit in PER_LAYER.items()}
        detail["run_s_untraced"] = untraced
        detail["run_s_traced"] = traced_s
        workload_summary = spans.summarize(traced.spans)
        detail["workload_layers"] = spans.by_layer(workload_summary)
        detail["workload_spans"] = workload_summary
        detail["probe_spans"] = probe_summary
    else:
        latencies = [op.seconds for op in ops]
        percentile, tail_s = spans.tail(latencies)
        if args.workload == "cli-session":
            rss_kb = max(r.extra["maxrss_kb"] for _, r in results)
            detail["resume_s"] = [r.extra["resume_s"] for _, r in results]
            detail["resume_recomputed_points"] = [r.extra.get("resume_recomputed_points") for _, r in results]
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        measured = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(run_s),
            "peak_rss_mb": rss_kb / 1024.0,
            "query_p50_ms": statistics.median(latencies) * 1e3,
            "query_tail_ms": tail_s * 1e3,
        }
        values = {name: _metric(measured[name], unit) for name, unit in END_TO_END.items()}
        detail["query_tail_percentile"] = percentile

    failures = [f"{op.name}: {p}" for op in ops for p in op.problems]
    failed = sum(1 for op in ops if op.problems)
    detail["samples"] = {"setup_s": len(setup), "run_s": len(run_s), "operations": len(ops)}
    detail["failed_share"] = failed / len(ops)
    detail["failures"] = failures[:20]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
