"""Correctness gates. Every check compares against an anchor that does not
come from the code under test: the listed golden triads, the README's
documented outputs, the exact Fraction reference in inputs.py, or digests
pinned from the outputs of the seed implementation. Each function returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json

from inputs import BOX_SWEEP_NORM, CLI_BOX_NORM, GOLDEN_TRIADS, resonant_ref

# sha256 of the JSONL records (every line after the header) and of the
# cluster document, as the seed implementation writes them.
BOX_SWEEP_RECORDS_SHA256 = "f4b54fb457e20bd2baca2e30b41fd506a9a9b5c8fabd2777f8a83fbf7ea29426"
BOX_SWEEP_CLUSTERS_SHA256 = "82c2f66dfdc62c766152495a5c5062fef424ed2bcd3df24f286624b590fb088b"
CLI_RECORDS_SHA256 = "94520c30620ccceb269d7ebd5d64f27e3322e80362cfb009256865ef63419868"
CLI_CLUSTERS_SHA256 = "88f007111394f52ca08fb5efce2d9da8ab0e19ee5f4ebc5859bdaa55bdd94996"
CLI_STATS_SHA256 = "cbf44afd46821ed9ff43e7617579561b1b720181066edc5cf97ee7f18d23464b"

# README: `partners 1 11` prints these two lines.
PARTNERS_1_11 = "-8 34\n9 -23\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_partners(n, partners, known) -> list[str]:
    """A partner list is sorted without repeats, every member resonates with
    n, the list is closed under k -> n - k, and it holds every known partner."""
    problems = []
    got = [tuple(k) for k in partners]
    if got != sorted(set(got)):
        problems.append(f"partners of {n} not sorted and unique")
    found = set(got)
    for k in got:
        if not resonant_ref(n, k):
            problems.append(f"partner {k} of {n} is not resonant")
        if (n[0] - k[0], n[1] - k[1]) not in found:
            problems.append(f"partners of {n} hold {k} but not its complement")
    missing = sorted(set(known) - found)
    if missing:
        problems.append(f"partners of {n} miss known partners {missing}")
    return problems


def _triads_from_jsonl(body: str, max_norm: int) -> tuple[list[frozenset], list[str]]:
    lines = body.splitlines()
    problems = []
    header = json.loads(lines[0]) if lines else {}
    if header.get("max_norm") != max_norm or header.get("quadrant") is not True:
        problems.append(f"JSONL header {header} does not describe box {max_norm}")
    triads = []
    for line in lines[1:]:
        members = [tuple(m) for m in json.loads(line)["triad"]]
        if (sum(m[0] for m in members), sum(m[1] for m in members)) != (0, 0):
            problems.append(f"triad {members} does not sum to zero")
        elif not resonant_ref((-members[0][0], -members[0][1]), members[1]):
            problems.append(f"triad {members} is not resonant")
        if any(m[1] == 0 for m in members):
            problems.append(f"triad {members} has a member on the zonal axis")
        triads.append(frozenset(members))
    return triads, problems


def _records_digest(body: str) -> str:
    return sha256(body.split("\n", 1)[1] if "\n" in body else "")


def check_enumeration(body: str, max_norm: int, records_sha256: str) -> list[str]:
    """A JSONL result: header, triad sanity, golden triads present (up to
    sign) where they reach into the box, and the pinned record digest."""
    triads, problems = _triads_from_jsonl(body, max_norm)
    present = set(triads)
    m2 = max_norm * max_norm
    for triad in GOLDEN_TRIADS:
        if not any(a * a + b * b <= m2 for a, b in triad):
            continue
        negated = frozenset((-a, -b) for a, b in triad)
        if frozenset(triad) not in present and negated not in present:
            problems.append(f"golden triad {triad} missing from box {max_norm}")
    if _records_digest(body) != records_sha256:
        problems.append(f"box {max_norm} JSONL records differ from the pinned digest")
    return problems


def check_box_sweep(out: dict) -> list[str]:
    problems = check_enumeration(out["jsonl"], BOX_SWEEP_NORM, BOX_SWEEP_RECORDS_SHA256)
    if out["read_triads"] != out["report_triads"]:
        problems.append("JSONL read-back does not reproduce the enumerated triads")
    if sha256(out["clusters"]) != BOX_SWEEP_CLUSTERS_SHA256:
        problems.append("box-sweep cluster document differs from the pinned digest")
    return problems


def check_cli_box(body: str) -> list[str]:
    return check_enumeration(body, CLI_BOX_NORM, CLI_RECORDS_SHA256)


def check_family(stdout: str, m_max: int, l_max: int) -> list[str]:
    """The family n = (m^4, m l^3), partner (l^4, -m^3 l), one record per m != l."""
    lines = stdout.splitlines()
    problems = []
    expected = {
        (m**4, m * l**3) for m in range(1, m_max + 1) for l in range(1, l_max + 1) if m != l
    }
    sources = set()
    for line in lines[1:]:
        rec = json.loads(line)
        members = [tuple(v) for v in rec["triad"]]
        sources.add(tuple(rec["source_n"]))
        if (sum(v[0] for v in members), sum(v[1] for v in members)) != (0, 0) or not resonant_ref(
            (-members[0][0], -members[0][1]), members[1]
        ):
            problems.append(f"family triad {members} is not a resonant zero-sum triple")
    if sources != expected or len(lines) - 1 != len(expected):
        problems.append("family records do not cover m != l exactly once")
    return problems


def check_verification(stdout: str, cases: int | None = None) -> list[str]:
    """verify-* must find no counterexample (exit 0 is checked by the caller)."""
    words = stdout.split()
    if len(words) < 4 or words[0] != "0" or words[1:3] != ["counterexamples", "/"]:
        return [f"verification reported {stdout.strip()!r}"]
    if cases is not None and int(words[3]) != cases:
        return [f"verification checked {words[3]} cases, expected {cases}"]
    return []
