"""Complete bounded search for resonant partners and box enumeration.

The partner search scans only the columns x that a sign argument on
sigma(k) = k1 / |k|^2 allows, caps the x < 0 branch at
n1^2 x^4 <= |n|^6 with a bound on the gradient of sigma, searches the
0 < x < n1 branch only for the leg with x <= n1/2, and skips odd x when n1
is even and n2 odd, where a parity argument rules the column out;
find_partners proves the three branches, the cap and the parity rule.

A column (x, lo, hi) is solved in one place, _column_hits: its partner
quartic is the numerator of the resonance residual, so the quartic's exact
integer roots are the partners. find_partners solves the partner columns;
both add the complement n - k of every hit. The brute-force cell scan
_cell_hits, which tests every cell with is_resonant, is only an oracle:
naive_partner_oracle runs it over the disk |k| <= search_radius(n) =
ceil(2 |n|^2 / |n1|) (the triangle inequality on the three dispersion
terms), and tests compare the fast paths with it.

Enumeration over a norm box works in the quadrant n1 >= 1, n2 >= 0 and
expands results through the sign symmetries, which cuts the work by four
without affecting the output. Each source solves only its x < 0 branch,
_outer_columns, because every triad with a box member is found that way
from a member in the box; enumerate_lambda proves it. Results can be
streamed to a JSON Lines cache so an interrupted run resumes where it
stopped.

This module owns the result file, JSON Lines with a header naming the box
and one record per triad: report_to_jsonl and family_to_jsonl write it,
read_triads_jsonl, report_from_triads and read_report read and check it.
A family file is a result file whose box holds every family member.

The angular histogram of the resonant set lives here too; its binning is the
package's only floating point, and no verdict depends on it.
"""

from __future__ import annotations

import os
import time
from math import atan2, isqrt, pi
from typing import Iterable, Iterator, NamedTuple

from .exact_core import (
    ResonantTriad,
    Wavenumber,
    _integer_roots_between,
    is_resonant,
    quartic_coeffs,
    sign_class,
)

JSONL_SCHEMA = 1
CACHE_SCHEMA = 2
# Below this many partner quartics over the pending sources, enumerate_lambda
# runs in one process whatever jobs says. On a 2-core machine a two-worker
# pool costs about 33 ms to start, feed and stop, and saves about 3.9 us of the
# 8.7 us a quartic takes inline: it breaks even near 8 400 quartics on an idle
# machine and near 21 000 beside one other busy process.
POOL_MIN_QUARTICS = 12_000


class EnumerationReport(NamedTuple):
    """Outcome of a box enumeration.

    triads holds every canonical triad discovered from box members (legs may
    lie outside the box); lambda_members holds exactly the box wavenumbers
    that admit a non-trivial resonant decomposition. stats carries counts and
    wall times per phase; it is left out of equality, the hash and the
    deterministic JSONL serialization.
    """

    max_norm: int
    triads: frozenset[ResonantTriad]
    lambda_members: frozenset[Wavenumber]
    stats: dict

    def __eq__(self, other):
        return self[:3] == other[:3] if isinstance(other, EnumerationReport) else NotImplemented

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:3])


def search_radius(n) -> int:
    """ceil(2 |n|^2 / |n1|): inclusive Euclidean bound on the smaller leg of
    any decomposition of n."""
    n1, n2 = n
    if n1 == 0:
        raise ValueError("partner search requires a nonzero zonal component")
    b = n1 * n1 + n2 * n2
    return -((-2 * b) // abs(n1))


def _disk_columns(n) -> Iterator[tuple[int, int, int]]:
    """Admissible columns (x, -ymax, ymax) of the search disk of n.

    The disk is x^2 + y^2 <= search_radius(n)^2, which rejects n1 = 0; the
    columns x = 0 and x = n1 are trivial interactions and are skipped.
    """
    n1 = n[0]
    radius = search_radius(n)
    r2 = radius * radius
    for x in range(-radius, radius + 1):
        if x != 0 and x != n1:
            ymax = isqrt(r2 - x * x)
            yield x, -ymax, ymax


def _column_step(n1: int, n2: int) -> int:
    """2 when n1 is even and n2 odd, where only even columns x can hold a
    partner (the parity rule of find_partners), else 1."""
    return 2 if n1 % 2 == 0 and n2 % 2 == 1 else 1


def _outer_us(n1: int, n2: int) -> range:
    """The u = n1 - x of the x < 0 branch of the partner search of a point
    n with n1 > 0; find_partners proves it."""
    b = n1 * n1 + n2 * n2
    cap = isqrt(isqrt(b**3 // (n1 * n1)))
    step = _column_step(n1, n2)
    return range(n1 + step, min((b - 1) // n1, n1 + cap) + 1, step)


def _outer_columns(n) -> Iterator[tuple[int, int, int]]:
    """Columns (x, lo, hi) of the x < 0 branch of the partner search of n,
    for n1 > 0: every partner of n with x < 0 lies in one of them."""
    n1, n2 = n
    b = n1 * n1 + n2 * n2
    for u in _outer_us(n1, n2):
        w = isqrt((u * (b - u * n1) - 1) // n1)
        yield n1 - u, n2 - w, n2 + w


def _outer_count(n) -> int:
    """The number of columns of _outer_columns(n), each one partner quartic:
    the exact cost of source n in enumerate_lambda."""
    return len(_outer_us(*n))


def _partner_columns(n) -> Iterator[tuple[int, int, int]]:
    """Columns (x, lo, hi) of the partner search of n, for n1 > 0.

    Every partner (x, y) of n, or its complement n - (x, y), lies in some
    column with lo <= y <= hi; see find_partners for the proof.
    """
    n1, n2 = n
    b4 = 4 * (n1 * n1 + n2 * n2)
    yield from _outer_columns(n)
    step = _column_step(n1, n2)
    for x in range(step, n1 // 2 + 1, step):
        w = isqrt(b4 - x * x)
        yield x, -w, w


def _column_hits(n, columns) -> Iterator[Wavenumber]:
    """Resonant (x, y) of n in columns (x, lo, hi): the column solver."""
    for x, lo, hi in columns:
        for y in _integer_roots_between(quartic_coeffs(n, x), lo, hi):
            yield Wavenumber(x, y)


def _cell_hits(n, columns) -> Iterator[Wavenumber]:
    """Brute-force oracle for _column_hits: is_resonant at every cell."""
    for x, lo, hi in columns:
        for y in range(lo, hi + 1):
            if is_resonant(n, (x, y)):
                yield Wavenumber(x, y)


def find_partners(n) -> list[Wavenumber]:
    """All partners (x, y) with is_resonant(n, (x, y)), sorted.

    Complete: both legs of every decomposition are returned (if k appears,
    so does n - k). For negative n1 the partners are the negations of those
    of -n, because sigma(-k) = -sigma(k). For n1 > 0 let k = (x, y),
    u = n1 - x and b = |n|^2; resonance reads n1/b = sigma(k) + sigma(n - k)
    with sigma(n - k) = u / (u^2 + (n2 - y)^2). Columns x = 0 and x = n1 are
    trivial interactions, which leaves three branches:

    - x < 0: sigma(k) < 0, so sigma(n - k) > n1/b, that is
      n1 (n2 - y)^2 < u (b - u n1). Then u runs from n1 + 1 while u n1 < b,
      and in integers |n2 - y| <= isqrt((u (b - u n1) - 1) // n1).
      A gradient bound caps |x| further. With D = n - k, resonance reads
      sigma(n) = sigma(D) - sigma(D - n), the integral of n . grad sigma
      along the segment from D - n = -k to D. On that segment z1 >= -x > 0,
      and |grad sigma(z)| = 1/|z|^2 <= 1/x^2, so n1/b <= |n|/x^2, that is
      n1^2 x^4 <= b^3, and in integers |x| <= isqrt(isqrt(b^3 // n1^2)).
    - x > n1: then n - k has first component u < 0, so it is a partner of
      the x < 0 branch and k is found as its complement. Never visited.
    - 0 < x < n1: x and u are positive. If k is the smaller leg,
      |k| <= |n - k|, then n1/b = x/|k|^2 + u/|n - k|^2 <= (x + u)/|k|^2
      = n1/|k|^2, so |k|^2 <= b (the smaller-leg lemma). Since x + u = n1,
      one leg has x <= n1/2, and only that leg is searched: if it is the
      smaller one, |k|^2 <= b; if not, |n - k|^2 <= b and
      |k| <= |n| + |n - k| <= 2 sqrt(b). So x runs over 1..n1//2 with
      |y| <= isqrt(4b - x^2), and the other leg is found as the complement.

    Parity bars half the columns of both branches when n1 is even and n2
    odd: then a4 = n1, a3, a2 and a1 of quartic_coeffs(n, x) are even and
    a0 = n2^4 x (mod 2), so for odd x the quartic is odd at every integer y
    and the column holds no partner. Both branches visit even x only.

    The columns are solved by _column_hits, which isolates the quartic's
    integer roots exactly in each y window. The quartic is the residual
    numerator (test_quartic_equals_residual_numerator), so every root is a
    partner; naive_partner_oracle checks the search in
    test_criterion_6_oracle_equivalence and TestFindPartners.
    """
    n1, n2 = n
    if n1 == 0:
        raise ValueError("partner search requires a nonzero zonal component")
    if n1 < 0:
        return sorted(-k for k in find_partners((-n1, -n2)))
    n = Wavenumber(n1, n2)
    return sorted({m for k in _column_hits(n, _partner_columns(n)) for m in (k, n - k)})


def naive_partner_oracle(n) -> list[Wavenumber]:
    """Brute-force reference for find_partners: test every disk point.

    Intentionally simple and slow; this is the ground truth the fast search
    is validated against.
    """
    n = Wavenumber(*n)
    return sorted({m for k in _cell_hits(n, _disk_columns(n)) for m in (k, n - k)})


def _quadrant_points(max_norm: int) -> list[Wavenumber]:
    """Canonical work order: n1 >= 1, n2 >= 0, |n| <= max_norm, lexicographic."""
    points = []
    m2 = max_norm * max_norm
    for n1 in range(1, max_norm + 1):
        for n2 in range(0, isqrt(m2 - n1 * n1) + 1):
            points.append(Wavenumber(n1, n2))
    return points


def _worker(n: Wavenumber) -> tuple[Wavenumber, list[ResonantTriad]]:
    """n with the canonical triads it finds in its x < 0 branch, sorted."""
    return n, sorted({ResonantTriad(k, n - k, -n) for k in _column_hits(n, _outer_columns(n))})


def _triad_record(triad: ResonantTriad, source: Wavenumber) -> dict:
    return {"triad": triad, "source_n": source, "norms2": [m.norm2() for m in triad]}


def _dump_line(obj: dict) -> str:
    import json  # here and in the readers, so that a partner search does not load it

    return json.dumps(obj, separators=(",", ":"))


def _header(max_norm: int) -> dict:
    return {"schema": JSONL_SCHEMA, "max_norm": max_norm, "quadrant": True}


def _cache_header(max_norm: int) -> dict:
    """The result header marked so that no reader takes a cache for a result."""
    return {**_header(max_norm), "schema": CACHE_SCHEMA, "kind": "cache"}


def _wavenumber(pair) -> Wavenumber:
    """A wavenumber read from JSON; ValueError, quoting the input, unless it
    is a pair of ints, so that a true, a 1.0 or a third component is not
    taken for a wavenumber."""
    if type(pair) is not list or len(pair) != 2 or any(type(c) is not int for c in pair):
        import json

        raise ValueError(f"a wavenumber must be two integers [n1, n2], got {json.dumps(pair)}")
    return Wavenumber(*pair)


def _triad_members(members) -> list[Wavenumber]:
    """The members of a triad read from JSON, in their order; ValueError,
    quoting the input, unless there are exactly three wavenumbers."""
    if type(members) is not list or len(members) != 3:
        import json

        raise ValueError(f"a triad must list exactly three members, got {json.dumps(members)}")
    return [_wavenumber(p) for p in members]


def _read_cache(path, max_norm: int) -> tuple[dict[Wavenumber, list[ResonantTriad]], int]:
    """Finished sources from a cache file with their triads, and the byte
    offset just after the last complete line; ({}, 0) when absent or empty.

    Each line after the header is one finished source n of the box's
    quadrant, n1 >= 1, n2 >= 0 and |n| <= max_norm. A line without its
    newline was cut mid-write and ends the read. A complete line that is not
    JSON is skipped: its source is recomputed and the later lines still
    count. A header cut before its newline counts as an absent cache. A JSON
    line that is not a record of a quadrant source, or that holds a triad
    with neither the source nor its negation as a member, raises ValueError.
    """
    import json

    done: dict[Wavenumber, list[ResonantTriad]] = {}
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return {}, 0
    with fh:
        first = fh.readline()
        if not first:
            return {}, 0
        try:
            header = json.loads(first)
        except ValueError:
            raise ValueError(f"cache file {path} has a corrupt header line")
        if not isinstance(header, dict) or header.get("kind") != "cache":
            raise ValueError(f'{path} is not a resume cache: its header has no "kind":"cache"')
        if header != _cache_header(max_norm):
            raise ValueError(
                f"cache file {path} was written for different parameters: {header}"
            )
        if not first.endswith(b"\n"):
            return {}, 0
        offset = len(first)
        for i, line in enumerate(fh, start=2):
            if not line.endswith(b"\n"):
                break
            offset += len(line)
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            try:
                if not isinstance(rec, dict) or type(rec.get("triads")) is not list:
                    raise ValueError('expected {"n": [n1, n2], "triads": [...]}')
                n = _wavenumber(rec.get("n"))
                triads = [ResonantTriad(*_triad_members(t)) for t in rec["triads"]]
            except ValueError as exc:
                raise ValueError(
                    f"cache file {path} line {i}: not a finished-source record: {exc}"
                ) from exc
            if n.n1 < 1 or n.n2 < 0 or n.norm2() > max_norm * max_norm:
                raise ValueError(
                    f"cache file {path} line {i}: source {rec['n']} is outside the box quadrant"
                )
            if any(n not in t and -n not in t for t in triads):
                raise ValueError(
                    f"cache file {path} line {i}: a triad without the source or its negation"
                )
            done[n] = triads
    return done, offset


def enumerate_lambda(max_norm: int, jobs: int = 1, cache_path=None) -> EnumerationReport:
    """Every resonant triad with a box member |n| <= max_norm = N.

    Work is restricted to the canonical quadrant: the triads of the cached
    and the computed sources go into one list, and the report adds the
    mirror of each. Identical inputs give identical reports for any jobs
    value. The cache file, when given, is opened once, cut after its last
    complete line, appended to as sources complete and read on the next run.

    A source n solves only its x < 0 branch, _outer_columns(n). Write a
    triad's members with positive first components as s, m and l = s + m:
    m finds -s and s finds -m in that branch, and by the smaller-leg
    lemma of find_partners min(|s|, |m|) <= |l|, so a triad with a box
    member has s or m in the box. A member with a negative second component
    is the mirror of a quadrant point, which finds the mirrored triad; the
    expansion adds the mirrors.

    So a source's cache line may hold a part of its partners' triads. Lines
    of earlier versions, with every partner's triad or without the in-box
    cells of the columns n1 < |x| <= N, resume to the same report: each
    holds at least the trimmed line, and those alone reach every triad.
    """
    if type(max_norm) is not int or max_norm < 1:
        raise ValueError(f"max_norm must be an integer >= 1, got {max_norm!r}")
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")

    t0 = time.perf_counter()
    points = _quadrant_points(max_norm)
    cached, keep = _read_cache(cache_path, max_norm) if cache_path else ({}, 0)
    pending = [n for n in points if n not in cached]

    found = [t for triads_n in cached.values() for t in triads_n]
    writer = open(cache_path, "a", encoding="utf-8") if cache_path is not None else None
    workers = 0
    try:
        if writer is not None:
            if writer.tell() > keep:
                # drop a cut line or header, so appended lines start on a fresh line
                writer.truncate(keep)
            if keep == 0:
                writer.write(_dump_line(_cache_header(max_norm)) + "\n")
                writer.flush()
        if jobs == 1 or sum(map(_outer_count, pending)) < POOL_MIN_QUARTICS:
            _collect(map(_worker, pending), found, writer)
        else:
            from multiprocessing import Pool  # here so that a run in one process does not load it

            # costliest first, ties in canonical order, so no worker ends on a long source alone
            order = sorted(pending, key=_outer_count, reverse=True)
            workers = min(jobs, len(pending), os.cpu_count() or 1)
            chunk = max(1, len(pending) // (workers * 8))
            with Pool(processes=workers) as pool:
                _collect(pool.imap_unordered(_worker, order, chunksize=chunk), found, writer)
    finally:
        if writer is not None:
            writer.close()
    t_search = time.perf_counter()

    report = report_from_triads(max_norm, (m for t in found for m in (t, t.mirrored())))
    t_end = time.perf_counter()

    stats = {
        "quadrant_points": len(points),
        "cache_hits": len(points) - len(pending),
        "quadrant_lambda": sum(1 for m in report.lambda_members if m.n1 > 0 and m.n2 >= 0),
        "jobs": jobs,
        "workers": workers,
        "wall_time_ms": {
            "search": (t_search - t0) * 1000.0,
            "expand": (t_end - t_search) * 1000.0,
            "total": (t_end - t0) * 1000.0,
        },
    }
    return report._replace(stats=stats)


def _collect(results, found: list[ResonantTriad], writer) -> None:
    """Extend found by each finished source's triads; append its cache line."""
    for n, triads_n in results:
        found.extend(triads_n)
        if writer is not None:
            writer.write(_dump_line({"n": n, "triads": triads_n}) + "\n")
            writer.flush()


def _box_source(triad: ResonantTriad, max_norm: int) -> Wavenumber:
    """Smallest sign-normalized box member of the triad: its box anchor."""
    m2 = max_norm * max_norm
    candidates = [s for s in map(sign_class, triad) if s.norm2() <= m2]
    if not candidates:
        raise ValueError("triad has no member inside the box")
    return min(candidates)


def report_to_jsonl(report: EnumerationReport) -> str:
    """Deterministic JSONL body: header line plus one sorted record per triad.

    No timing or other run-dependent data appears here, so bodies from runs
    with different parallelism are byte-identical.
    """
    lines = [_dump_line(_header(report.max_norm))]
    for triad in sorted(report.triads):
        lines.append(_dump_line(_triad_record(triad, _box_source(triad, report.max_norm))))
    return "\n".join(lines) + "\n"


def family_to_jsonl(m_max: int, l_max: int) -> str:
    """The family n = (m^4, m l^3) as a result file that read_report accepts.

    One record per member in m-major order, with source_n the member n. The
    header's max_norm is the smallest box holding every source_n, 1 when
    there is no member (m_max = l_max = 1).
    """
    from .verification import _family_triads  # here so that a search or a file read does not load verification

    pairs = list(_family_triads(m_max, l_max))
    max_norm = max((isqrt(n.norm2() - 1) + 1 for n, _ in pairs), default=1)
    header = {"schema": JSONL_SCHEMA, "max_norm": max_norm, "m_max": m_max, "l_max": l_max}
    lines = [_dump_line(header)]
    lines.extend(_dump_line(_triad_record(triad, n)) for n, triad in pairs)
    return "\n".join(lines) + "\n"


def read_triads_jsonl(stream: Iterable[str]) -> tuple[dict, list[ResonantTriad]]:
    """Parse a result file: (header, triads).

    Blank lines aside, a result file is one header line followed by triad
    records and nothing else. The header, an object with a schema and no
    triad, is the first non-blank line, and its schema must be JSONL_SCHEMA.
    Every later line must be a triad record, so a second header, a stray
    object or a cache appended to a result raises ValueError naming the
    line. A cache file is rejected: its unexpanded source triads would read
    as a wrong result. A triad record's derived fields, when present, must
    hold: norms2 the members' squared norms, and source_n a member up to
    sign.
    """
    import json

    header: dict | None = None
    triads: list[ResonantTriad] = []
    for i, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {i}: not valid JSON: {exc}") from exc
        if header is None:
            if not isinstance(rec, dict) or "schema" not in rec or "triad" in rec:
                raise ValueError(f"line {i}: no result header")
            if rec.get("kind") == "cache":
                raise ValueError(f'line {i}: a resume cache ("kind":"cache"), not a result file')
            schema = rec["schema"]
            if type(schema) is not int or schema != JSONL_SCHEMA:
                raise ValueError(f"line {i}: unknown schema {schema!r}, expected {JSONL_SCHEMA}")
            header = rec
            continue
        if not isinstance(rec, dict) or "triad" not in rec:
            raise ValueError(f"line {i}: not a triad record")
        try:
            members = _triad_members(rec["triad"])
            triad = ResonantTriad(*members)
            source = _wavenumber(rec["source_n"]) if "source_n" in rec else members[0]
            norms2 = [m.norm2() for m in members]
            given = rec.get("norms2", norms2)
            if given != norms2 or any(type(v) is not int for v in given):
                raise ValueError(f"norms2 {given} are not the squared norms {norms2}")
            if source not in triad and -source not in triad:
                raise ValueError(f"source_n {list(source)} is not a member up to sign")
        except ValueError as exc:
            raise ValueError(f"line {i}: not a triad record: {exc}") from exc
        triads.append(triad)
    if header is None:
        raise ValueError("no result header")
    return header, triads


def report_from_triads(max_norm: int, triads: Iterable[ResonantTriad]) -> EnumerationReport:
    """An EnumerationReport from a complete triad set, read back from a file
    or expanded by enumerate_lambda.

    lambda_members is derived here and only here: the box wavenumbers
    appearing (up to sign) in some triad. A triad without a member in the
    box is not a result of the box and raises ValueError, and so does a
    max_norm that is not an integer >= 1.
    """
    if type(max_norm) is not int or max_norm < 1:
        raise ValueError(f"max_norm must be an integer >= 1, got {max_norm!r}")
    triad_set = frozenset(triads)
    m2 = max_norm * max_norm
    members: set[Wavenumber] = set()
    for t in triad_set:
        inside = [m for m in t if m.norm2() <= m2]
        if not inside:
            raise ValueError(
                f"triad {[list(m) for m in t]} has no member inside the box "
                f"|n| <= {max_norm}"
            )
        members.update(inside)
        members.update(-m for m in inside)
    return EnumerationReport(max_norm, triad_set, frozenset(members), stats={})


def read_report(lines: Iterable[str]) -> EnumerationReport:
    """A result file read back: its triads in the box that its header names."""
    header, triads = read_triads_jsonl(lines)
    return report_from_triads(header.get("max_norm"), triads)


class AngularHistogram(NamedTuple):
    """Angular occupancy of the resonant set within a box.

    counts bins the members by atan2(n2, n1) over (-pi, pi], one entry per
    bin; axis_count is the exact number of members with n2 = 0 (an integer
    test, never a bin boundary artifact) and is zero for every box.
    """

    counts: list[int]
    axis_count: int


def stats_anisotropy(report: EnumerationReport, bins: int) -> AngularHistogram:
    """Histogram the box members of the resonant set by angle.

    bins must be even and at least 4 so that bin edges sit symmetrically
    around both axes. Angles are floating point for binning only; no verdict
    depends on them.
    """
    if bins < 4 or bins % 2 != 0:
        raise ValueError("bins must be an even number >= 4")
    counts = [0] * bins
    axis_count = 0
    width = 2.0 * pi / bins
    for m in sorted(report.lambda_members):
        if m.n2 == 0:
            axis_count += 1
        theta = atan2(m.n2, m.n1)
        idx = min(bins - 1, int((theta + pi) / width))
        counts[idx] += 1
    return AngularHistogram(counts, axis_count)


def histogram_to_csv(hist: AngularHistogram) -> str:
    lines = ["bin_center_radians,count"]
    width = 2.0 * pi / len(hist.counts)
    for i, count in enumerate(hist.counts):
        center = -pi + (i + 0.5) * width
        lines.append(f"{center!r},{count}")
    return "\n".join(lines) + "\n"
