"""Per-layer probes for the traced run. Each probe calls public functions of
one module on fixed inputs, inside a span named after the metric it feeds, so
a per-layer figure means the same thing whichever workload the traced run
belongs to. Every probe output is checked like workload output.
"""

from __future__ import annotations

import os
import shutil
import statistics

import rossby_resonance as rr
from rossby_resonance.partner_search import report_to_jsonl

import checks
import spans
from inputs import (
    CLI_BOX_NORM,
    IDENTITY_BOUND,
    IDENTITY_SAMPLES,
    VERIFY_AXIS_MAX,
    VERIFY_LEMMA_MAX,
    predicate_set,
    quartic_set,
    resonant_ref,
)
from workloads import BoxSweep, CliSession, Op

REPS = 5
CHEAP_POINT = (60, 1)
COSTLY_POINT = (1, 60)
COSTLY_REPS = 3


def _checked(name: str, problems: list[str]) -> Op:
    return Op(name, 0.0, problems)


def run_probes(tracer: spans.Tracer, seed: int, workdir: str) -> tuple[dict, list[Op], dict]:
    """Run every probe under tracer; returns (per-layer metrics, checked
    operations, the span summary)."""
    ops: list[Op] = []

    # exact_core: root isolation for one quartic, and the exact predicate.
    quartics = quartic_set()
    for _ in range(REPS):
        with tracer.span("exact_core.quartic_solve"):
            roots = [rr.integer_roots(rr.quartic_coeffs(n, x), ymax) for n, x, ymax in quartics]
    ops.append(_checked("quartic_solve", [
        f"root {y} of the quartic for n={n}, x={x} is not a resonant partner"
        for (n, x, _), ys in zip(quartics, roots) for y in ys if not resonant_ref(n, (x, y))
    ]))
    pairs = predicate_set()
    for _ in range(REPS):
        with tracer.span("exact_core.is_resonant"):
            verdicts = [rr.is_resonant(n, k) for n, k in pairs]
    ops.append(_checked("is_resonant", [
        f"is_resonant{n, k} is wrong" for (n, k), v in zip(pairs, verdicts) if v != resonant_ref(n, k)
    ]))

    # partner_search: a cheap and a costly single point.
    for name, point, reps in (("cheap", CHEAP_POINT, 3 * REPS), ("costly", COSTLY_POINT, COSTLY_REPS)):
        for _ in range(reps):
            with tracer.span(f"partner_search.find_partners_{name}"):
                got = rr.find_partners(point)
        ops.append(_checked(f"find_partners_{name}", checks.check_partners(point, got, ())))

    # partner_search and cluster_graph: one box-sweep pass, then the stages
    # after the search again on its report so that each has REPS samples.
    sweep = BoxSweep(seed, workdir).run_pass(0, tracer)
    ops.extend(sweep.ops)
    report = sweep.extra["report"]
    for _ in range(REPS - 1):
        ops.append(_checked("box-sweep downstream", checks.check_box_sweep(BoxSweep.downstream(report, tracer))))

    # partner_search: resume from a complete cache.
    full = os.path.join(workdir, "complete-cache.jsonl")
    rr.enumerate_lambda(CLI_BOX_NORM, cache_path=full)
    for i in range(REPS):
        copy = os.path.join(workdir, f"resume-{i}.jsonl")
        shutil.copyfile(full, copy)
        with tracer.span("partner_search.cache_resume"):
            resumed = rr.enumerate_lambda(CLI_BOX_NORM, cache_path=copy)
        ops.append(_checked("cache_resume", checks.check_cli_box(report_to_jsonl(resumed))))

    # verification at the cli-session bounds.
    for _ in range(REPS):
        with tracer.span("verification.axis"):
            axis = rr.verify_axis_theorem(VERIFY_AXIS_MAX)
        with tracer.span("verification.lemma"):
            lemma = rr.verify_diophantine_lemma(VERIFY_LEMMA_MAX)
        with tracer.span("verification.identity"):
            identity = rr.check_proof_identity(IDENTITY_SAMPLES, IDENTITY_BOUND, seed=0)
    for name, rep in (("axis", axis), ("lemma", lemma), ("identity", identity)):
        ops.append(_checked(f"verify_{name}", [f"counterexamples {rep.counterexamples[:3]}"]
                            if rep.counterexamples else []))

    # cli: one session gives start-up (the check commands), enumerate
    # --jobs 2 and the two resumes after the simulated kill.
    session = CliSession(seed, workdir).run_pass(0, tracer)
    ops.extend(session.ops)

    summary = spans.summarize(tracer.spans)

    def median_self(name: str) -> float:
        return summary[name]["self_median_s"]

    search_ms = report.stats["wall_time_ms"]
    metrics = {
        "exact_core.quartic_solve_us": median_self("exact_core.quartic_solve") / len(quartics) * 1e6,
        "exact_core.is_resonant_us": median_self("exact_core.is_resonant") / len(pairs) * 1e6,
        "partner_search.find_partners_cheap_ms": median_self("partner_search.find_partners_cheap") * 1e3,
        "partner_search.find_partners_costly_ms": median_self("partner_search.find_partners_costly") * 1e3,
        "partner_search.search_s": search_ms["search"] / 1e3,
        "partner_search.expand_s": search_ms["expand"] / 1e3,
        "partner_search.jsonl_write_ms": median_self("partner_search.report_to_jsonl") * 1e3,
        "partner_search.jsonl_read_ms": median_self("partner_search.read_triads_jsonl") * 1e3,
        "partner_search.cache_resume_ms": median_self("partner_search.cache_resume") * 1e3,
        "partner_search.resume_recomputed_points": session.extra.get("resume_recomputed_points", -1),
        "cluster_graph.build_components_ms": median_self("cluster_graph.build_components") * 1e3,
        "cluster_graph.clusters_to_json_ms": median_self("cluster_graph.clusters_to_json") * 1e3,
        "verification.axis_ms": median_self("verification.axis") * 1e3,
        "verification.lemma_ms": median_self("verification.lemma") * 1e3,
        "verification.identity_ms": median_self("verification.identity") * 1e3,
        "cli.startup_ms": median_self("cli.check") * 1e3,
        "cli.enumerate_jobs2_ms": median_self("cli.enumerate") * 1e3,
        "cli.resume_ms": session.extra["resume_s"] * 1e3,
    }
    if "resume_recomputed_points" not in session.extra:
        ops.append(_checked("resume summary", ["second resume printed no cache-hits summary"]))
    return metrics, ops, summary
