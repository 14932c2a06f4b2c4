"""The three workloads. Each run_pass call is one pass of its workload: one
client in a closed loop, timing each operation and keeping its output; the
checks run after the timed region, so checking costs no measured time.

The package is called only through `rossby_resonance/__init__.py` exports and
the module-level serializers report_to_jsonl, read_triads_jsonl,
report_from_triads (partner_search) and clusters_to_json (cluster_graph).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import rossby_resonance as rr
from rossby_resonance.cluster_graph import clusters_to_json
from rossby_resonance.partner_search import read_triads_jsonl, report_from_triads, report_to_jsonl

import checks
from inputs import (
    BOX_SWEEP_NORM,
    CLI_BOX_NORM,
    FAMILY_MAX,
    IDENTITY_BOUND,
    IDENTITY_SAMPLES,
    VERIFY_AXIS_MAX,
    VERIFY_LEMMA_MAX,
    PartnerQueries,
    cli_plan,
)

CLI_COMMAND_TIMEOUT_S = 120.0
_SUMMARY = re.compile(r"(\d+) quadrant points.*cache hits (\d+)")


@dataclass
class Op:
    name: str
    seconds: float
    problems: list[str]


@dataclass
class PassResult:
    seconds: float
    ops: list[Op]
    extra: dict = field(default_factory=dict)


def _raised(exc: Exception) -> list[str]:
    return [f"raised {type(exc).__name__}: {exc}"]


def _check(check, *args) -> list[str]:
    """Run a check; output it cannot even parse is a failed check, not a crash."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"check {check.__name__} {_raised(exc)[0]}"]


class BoxSweep:
    """enumerate_lambda(35, jobs=1), then JSONL out and back, then clusters."""

    def __init__(self, seed: int, workdir: str):
        self.max_norm = BOX_SWEEP_NORM

    def run_pass(self, b: int, tracer) -> PassResult:
        t0 = time.perf_counter()
        try:
            with tracer.span("box-sweep.pass"):
                with tracer.span("partner_search.enumerate_lambda"):
                    report = rr.enumerate_lambda(self.max_norm, jobs=1)
                out = self.downstream(report, tracer)
        except Exception as exc:
            seconds = time.perf_counter() - t0
            return PassResult(seconds, [Op("box-sweep", seconds, _raised(exc))])
        seconds = time.perf_counter() - t0
        problems = _check(checks.check_box_sweep, out)
        return PassResult(seconds, [Op("box-sweep", seconds, problems)], {"report": report})

    @staticmethod
    def downstream(report, tracer) -> dict:
        """JSONL out and back in, then clusters: what follows the search."""
        with tracer.span("partner_search.report_to_jsonl"):
            body = report_to_jsonl(report)
        with tracer.span("partner_search.read_triads_jsonl"):
            header, triads = read_triads_jsonl(body.splitlines())
        with tracer.span("partner_search.report_from_triads"):
            rebuilt = report_from_triads(header["max_norm"], triads)
        with tracer.span("cluster_graph.build_components"):
            components = rr.build_components(rebuilt.triads)
        with tracer.span("cluster_graph.clusters_to_json"):
            doc = clusters_to_json(components, rebuilt.max_norm)
        return {"jsonl": body, "read_triads": rebuilt.triads, "report_triads": report.triads, "clusters": doc}


class PartnerQueriesWorkload:
    """One find_partners(n) at a time over a seeded batch of 150 points."""

    def __init__(self, seed: int, workdir: str, find_partners=rr.find_partners):
        self.queries = PartnerQueries(seed)
        self.find_partners = find_partners

    def run_pass(self, b: int, tracer) -> PassResult:
        batch = self.queries.batch(b)
        outputs = []
        t0 = time.perf_counter()
        with tracer.span("partner-queries.pass"):
            for n, known in batch:
                q0 = time.perf_counter()
                try:
                    with tracer.span("partner_search.find_partners"):
                        got = self.find_partners(n)
                except Exception as exc:
                    got = exc
                outputs.append((n, known, got, time.perf_counter() - q0))
        seconds = time.perf_counter() - t0
        ops = [
            Op(
                "find_partners",
                latency,
                _raised(got) if isinstance(got, Exception) else _check(checks.check_partners, n, got, known),
            )
            for n, known, got, latency in outputs
        ]
        return PassResult(seconds, ops)


@dataclass
class CliRun:
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int


def run_cli(argv: list[str], cwd: str, env: dict) -> CliRun:
    """`python -m rossby_resonance argv` in cwd; waits for the process and
    takes its own peak RSS (with its waited-for children, such as a Pool)."""
    out_path = os.path.join(cwd, ".stdout")
    err_path = os.path.join(cwd, ".stderr")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "rossby_resonance", *argv], cwd=cwd, env=env, stdout=out, stderr=err
        )
        killer = threading.Timer(CLI_COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliRun(
            seconds, proc.returncode, out.read().decode("utf-8"), err.read().decode("utf-8"), usage.ru_maxrss
        )


def _expect(run: CliRun, code: int, problems: list[str]) -> list[str]:
    if run.returncode != code:
        return [f"exit code {run.returncode}, expected {code}; stderr {run.stderr.strip()[-200:]!r}"]
    return problems


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def truncate_mid_record(path: str, fraction: float) -> int:
    """Cut the file at `fraction` of its size, moved forward off a line
    boundary so that the cut lands inside a record, as a kill would."""
    with open(path, "rb") as fh:
        data = fh.read()
    offset = max(data.index(b"\n") + 2, int(len(data) * fraction))
    while data[offset - 1 : offset] == b"\n" or data[offset : offset + 1] == b"\n":
        offset += 1
    with open(path, "r+b") as fh:
        fh.truncate(offset)
    return offset


class CliSession:
    """A scripted series of CLI subprocesses, ROSSBY_RESONANCE_CONFIG unset."""

    def __init__(self, seed: int, workdir: str):
        self.plan = cli_plan(seed)
        self.workdir = workdir
        src = os.path.dirname(os.path.dirname(os.path.abspath(rr.__file__)))
        self.env = {k: v for k, v in os.environ.items() if k != "ROSSBY_RESONANCE_CONFIG"}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run_pass(self, b: int, tracer) -> PassResult:
        session = tempfile.mkdtemp(prefix=f"session{b}-", dir=self.workdir)
        try:
            return self._session(session, tracer)
        finally:
            shutil.rmtree(session, ignore_errors=True)

    def _session(self, cwd: str, tracer) -> PassResult:
        (n, k) = self.plan["resonant_pair"]
        plain_n, plain_k, plain_res = self.plan["plain_pair"]
        trivial_n, trivial_k = self.plan["trivial_pair"]
        box = ["enumerate", "--max-norm", str(CLI_BOX_NORM), "--jobs", "2", "--cache", "C", "--out"]
        ops: list[Op] = []
        runs: list[CliRun] = []
        extra: dict = {}

        def step(name: str, argv: list, code: int, check) -> CliRun:
            with tracer.span(f"cli.{name}"):
                run = run_cli([str(a) for a in argv], cwd, self.env)
            runs.append(run)
            ops.append(Op(name, run.seconds, _expect(run, code, _check(check, run) if run.returncode == code else [])))
            return run

        def stdout_is(text):
            return lambda run: [] if run.stdout == text else [f"stdout {run.stdout!r}, expected {text!r}"]

        def body_is_a(out):
            return lambda run: [] if _read(os.path.join(cwd, out)) == _read(os.path.join(cwd, "A")) else [
                f"resumed output {out} differs from the uninterrupted output A"
            ]

        t0 = time.perf_counter()
        with tracer.span("cli-session.pass"):
            step("check", ["check", *n, *k], 0, stdout_is("resonant, residual 0/1\n"))
            step("check", ["check", *plain_n, *plain_k], 0,
                 stdout_is(f"not resonant, residual {plain_res.numerator}/{plain_res.denominator}\n"))
            step("check", ["check", *trivial_n, *trivial_k], 2, lambda run: [])
            step("partners", ["partners", 1, 11], 0, stdout_is(checks.PARTNERS_1_11))
            step("enumerate", [*box, "A"], 0, lambda run: checks.check_cli_box(_read(os.path.join(cwd, "A"))))
            extra["truncated_at"] = truncate_mid_record(os.path.join(cwd, "C"), self.plan["truncate_at"])
            first = step("resume", [*box, "B1"], 0, body_is_a("B1"))
            second = step("resume", [*box, "B2"], 0, body_is_a("B2"))
            step("clusters", ["clusters", "--in", "A"], 0,
                 lambda run: [] if checks.sha256(run.stdout) == checks.CLI_CLUSTERS_SHA256
                 else ["clusters --in A differs from the pinned digest"])
            step("stats", ["stats", "--in", "A"], 0,
                 lambda run: [] if checks.sha256(run.stdout) == checks.CLI_STATS_SHA256
                 and "axis_count 0" in run.stderr else ["stats --in A differs from the pinned output"])
            step("verify-axis", ["verify-axis", "--max", VERIFY_AXIS_MAX], 0,
                 lambda run: checks.check_verification(run.stdout))
            step("verify-lemma", ["verify-lemma", "--max", VERIFY_LEMMA_MAX], 0,
                 lambda run: checks.check_verification(run.stdout))
            step("verify-identity",
                 ["verify-identity", "--samples", IDENTITY_SAMPLES, "--bound", IDENTITY_BOUND, "--seed", 0], 0,
                 lambda run: checks.check_verification(run.stdout, cases=IDENTITY_SAMPLES))
            step("family", ["family", "--m-max", FAMILY_MAX, "--l-max", FAMILY_MAX], 0,
                 lambda run: checks.check_family(run.stdout, FAMILY_MAX, FAMILY_MAX))
        seconds = time.perf_counter() - t0
        extra["resume_s"] = first.seconds + second.seconds
        summary = _SUMMARY.search(second.stderr)
        if summary:
            extra["resume_recomputed_points"] = int(summary.group(1)) - int(summary.group(2))
        extra["maxrss_kb"] = max(run.maxrss_kb for run in runs)
        return PassResult(seconds, ops, extra)


WORKLOADS = {
    "box-sweep": BoxSweep,
    "partner-queries": PartnerQueriesWorkload,
    "cli-session": CliSession,
}
