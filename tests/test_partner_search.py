import hashlib
import json
import os
import random
from itertools import accumulate
from math import isqrt

import pytest

from rossby_resonance.exact_core import (
    ResonantTriad,
    Wavenumber,
    _factor,
    _integer_roots_between,
    _norm_hits,
    quartic_coeffs,
)
from rossby_resonance.partner_search import (
    POOL_MIN_QUARTICS,
    EnumerationReport,
    _cache_header,
    _column_hits,
    _dump_line,
    _header,
    _outer_columns,
    _outer_count,
    _partner_columns,
    _quadrant_points,
    _triad_record,
    _worker,
    enumerate_lambda,
    family_to_jsonl,
    find_partners,
    naive_partner_oracle,
    read_report,
    read_triads_jsonl,
    report_from_triads,
    report_to_jsonl,
    search_radius,
)
from rossby_resonance.verification import _family_triads, generate_family


def _uncapped_partners(n):
    """find_partners with the x < 0 branch over its full range u n1 < |n|^2."""
    n1, n2 = n
    if n1 < 0:
        return sorted(-k for k in _uncapped_partners((-n1, -n2)))
    b = n1 * n1 + n2 * n2
    columns = [(x, lo, hi) for x, lo, hi in _partner_columns(n) if x > 0]
    for u in range(n1 + 1, (b - 1) // n1 + 1):
        w = isqrt((u * (b - u * n1) - 1) // n1)
        columns.append((n1 - u, n2 - w, n2 + w))
    found = set()
    for x, lo, hi in columns:
        for y in _integer_roots_between(quartic_coeffs(n, x), lo, hi):
            found.update({Wavenumber(x, y), Wavenumber(n1 - x, n2 - y)})
    return sorted(found)


def _full_source_triads(n):
    """The canonical triads of every partner of n, as the enumeration found
    them when each source ran the whole of find_partners."""
    return sorted({ResonantTriad(k, n - k, -n) for k in find_partners(n)})


def _trimmed_source_triads(n, max_norm):
    """The canonical triads of n as the enumeration found them when each
    source trimmed the in-box cells of its columns n1 < |x| <= max_norm."""
    hits = _column_hits(n, _outer_columns(n))
    return sorted({ResonantTriad(k, n - k, -n) for k in hits
                   if -k.n1 <= n.n1 or k.norm2() > max_norm * max_norm})


@pytest.fixture(scope="module")
def every_source_union():
    """The triads of every box-36 quadrant source with their mirrors: the
    enumeration's result when every source searched all its partners."""
    union = set()
    for n in _quadrant_points(36):
        for t in _full_source_triads(n):
            union.update((t, t.mirrored()))
    return union


class TestSearchRadius:
    @pytest.mark.parametrize(
        "n, radius",
        [((1, 11), 244), ((3, 19), 247), ((5, 0), 10), ((-3, 19), 247), ((1, 60), 7202)],
    )
    def test_values(self, n, radius):
        assert search_radius(n) == radius

    def test_zero_zonal_rejected(self):
        with pytest.raises(ValueError):
            search_radius((0, 7))


class TestFindPartners:
    def test_finite_cluster_seed(self):
        assert find_partners((1, 11)) == [Wavenumber(-8, 34), Wavenumber(9, -23)]

    def test_family_seed(self):
        assert find_partners((1, 8)) == [Wavenumber(-15, 10), Wavenumber(16, -2)]

    @pytest.mark.parametrize("n", [(5, 0), (7, 0), (-4, 0)])
    def test_zonal_axis_is_empty(self, n):
        assert find_partners(n) == []

    def test_scaled_seed_contains_scaled_partners(self):
        partners = set(find_partners((2, 22)))
        assert {Wavenumber(-16, 68), Wavenumber(18, -46)} <= partners

    def test_zero_zonal_rejected(self):
        with pytest.raises(ValueError):
            find_partners((0, 3))
        with pytest.raises(ValueError):
            naive_partner_oracle((0, 3))

    @pytest.mark.parametrize("n", [(1, 11), (1, 8), (3, 11), (2, 22)])
    def test_complement_closure(self, n):
        partners = find_partners(n)
        n = Wavenumber(*n)
        for k in partners:
            assert n - k in partners

    def test_matches_oracle_in_small_quadrant(self):
        for n1 in range(1, 9):
            for n2 in range(0, isqrt(64 - n1 * n1) + 1):
                assert find_partners((n1, n2)) == naive_partner_oracle((n1, n2))

    def test_matches_oracle_on_signed_points(self):
        # every sign combination, so the negation path for n1 < 0 is covered
        for n1 in range(-12, 13):
            for n2 in range(-12, 13):
                if n1 != 0 and n1 * n1 + n2 * n2 <= 144:
                    assert find_partners((n1, n2)) == naive_partner_oracle((n1, n2)), (n1, n2)

    def test_column_counts(self):
        # one quartic per column: a work count that does not depend on the hardware
        assert sum(1 for n in _quadrant_points(20) for _ in _partner_columns(n)) == 4500
        assert sum(1 for _ in _partner_columns((1, 60))) == 464
        assert sum(1 for n in _quadrant_points(20) for _ in _outer_columns(n)) == 3374

    def test_parity_rules_out_odd_columns(self):
        # n1 even, n2 odd, x odd: a4..a1 even and a0 odd, so no integer root
        for n1 in range(-40, 41, 2):
            for n2 in range(-39, 40, 2):
                for x in range(-39, 40, 2):
                    if n1 != 0:
                        *high, a0 = quartic_coeffs((n1, n2), x)
                        assert all(a % 2 == 0 for a in high) and a0 % 2 == 1, (n1, n2, x)

    def test_parity_skips_odd_columns_in_both_branches(self):
        assert [x for x, _, _ in _partner_columns((6, 5))] == [-2, -4, 2]
        assert [x for x, _, _ in _partner_columns((6, 6))] == [-1, -2, -3, -4, -5, 1, 2, 3]

    def test_middle_branch_searches_the_leg_with_x_at_most_half_n1(self):
        # (8, 14) has the middle partners (3, -11) and (5, 25); only x <= 4
        # is searched, and (5, 25) comes back as the complement
        assert [x for x, _, _ in _partner_columns((8, 14)) if x > 0] == [1, 2, 3, 4]
        assert find_partners((8, 14)) == [Wavenumber(3, -11), Wavenumber(5, 25)]

    def test_gradient_cap_keeps_a_far_partner(self):
        # |x| = 15 against a cap of isqrt(isqrt(65**3)) = 22; a cap below 15 loses it
        assert (-15, 10) in find_partners((1, 8))

    def test_capped_search_matches_uncapped_scan(self):
        # near-meridional n, where the cap cuts the x < 0 branch the most and
        # naive_partner_oracle is too slow; the reference scans every column
        # with u n1 < |n|^2
        for n1 in (-3, -2, -1, 1, 2, 3):
            for n2 in range(-30, 31):
                assert find_partners((n1, n2)) == _uncapped_partners((n1, n2)), (n1, n2)


def _norm_partners(n):
    n1, n2 = n
    return sorted(_norm_hits(n, _factor(n1 * n1 + n2 * n2)))


class TestNormHits:
    def test_matches_oracle_on_signed_points(self):
        # all four sign quadrants, 0 < |n| <= 12
        for n1 in range(-12, 13):
            for n2 in range(-12, 13):
                if n1 != 0 and n1 * n1 + n2 * n2 <= 144:
                    assert _norm_partners((n1, n2)) == naive_partner_oracle((n1, n2)), (n1, n2)

    def test_matches_find_partners_on_a_seeded_sample(self, report60):
        # random points rarely resonate, so the members of the box-60 triads
        # (472 partners in all) join the 300 seeded points
        report, _ = report60
        rng = random.Random(7)
        points = {(1, 60)}
        while len(points) < 301:
            n = (rng.randint(-120, 120), rng.randint(-120, 120))
            if n[0] != 0:
                points.add(n)
        points.update(m for t in report.triads for m in t
                      if abs(m.n1) <= 120 and abs(m.n2) <= 120)
        found = 0
        for n in sorted(points):
            expected = find_partners(n)
            assert _norm_partners(n) == expected, n
            found += len(expected)
        assert found >= 472

    def test_matches_find_partners_on_signed_box35(self):
        # every signed n with 0 < |n| <= 35 and n1 != 0: the sources of a
        # box-35 enumeration, which the norm solver will take over from the
        # column search, and the three other sign quadrants, where the
        # parity rule and the halved middle branch also act
        points = [(n1, n2) for n1 in range(-35, 36) if n1 != 0
                  for n2 in range(-isqrt(1225 - n1 * n1), isqrt(1225 - n1 * n1) + 1)]
        assert len(points) == 3782
        assert sum(n1 > 0 and n2 >= 0 for n1, n2 in points) == len(_quadrant_points(35)) == 963
        for n in points:
            assert _norm_partners(n) == find_partners(n), n

    @pytest.mark.parametrize("n1", [1, 5, 12, 60, 65, 325, 1105])
    def test_zonal_axis_has_no_hits(self, n1):
        # b = n1^2, so the factors of n1 with doubled exponents suffice
        doubled = {p: 2 * e for p, e in _factor(n1).items()}
        assert list(_norm_hits((n1, 0), doubled)) == []
        assert list(_norm_hits((-n1, 0), doubled)) == []

    def test_zero_zonal_rejected(self):
        with pytest.raises(ValueError):
            list(_norm_hits((0, 3), {3: 2}))


@pytest.fixture
def in_process_pool(monkeypatch):
    """multiprocessing.Pool replaced by one that starts no process. The
    returned list records each pool's processes, then each imap_unordered's
    (chunksize, fed order); the results come back in reverse order."""
    import multiprocessing

    started = []

    class InProcessPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, func, iterable, chunksize):
            order = list(iterable)
            started.append((chunksize, order))
            return map(func, reversed(order))

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    return started


class TestEnumerateLambda:
    def test_tiny_box_is_empty(self):
        report = enumerate_lambda(3)
        assert report.lambda_members == frozenset()
        assert report.triads == frozenset()

    def test_box_12_membership(self, report12):
        quadrant_hits = {(1, 8), (1, 11), (3, 11)}
        expected = set()
        for n1, n2 in quadrant_hits:
            expected.update(
                {
                    Wavenumber(n1, n2),
                    Wavenumber(-n1, -n2),
                    Wavenumber(n1, -n2),
                    Wavenumber(-n1, n2),
                }
            )
        assert set(report12.lambda_members) == expected

    def test_no_axis_members(self, report12):
        assert all(m.n1 != 0 and m.n2 != 0 for m in report12.lambda_members)
        for t in report12.triads:
            assert all(w.n2 != 0 for w in t)

    def test_symmetry_closure(self, report12):
        members = report12.lambda_members
        for m in members:
            assert -m in members
            assert m.mirror() in members
            assert -m.mirror() in members

    def test_members_appear_in_triads(self, report12):
        in_triads = set()
        for t in report12.triads:
            for w in t:
                in_triads.update((w, -w))
        assert set(report12.lambda_members) <= in_triads

    def test_triad_members_inside_box_are_members(self, report12):
        box2 = report12.max_norm ** 2
        for t in report12.triads:
            for w in t:
                if w.norm2() <= box2:
                    assert w in report12.lambda_members

    def test_box_monotonicity(self, report12):
        bigger = enumerate_lambda(14)
        assert set(report12.lambda_members) <= set(bigger.lambda_members)
        assert set(report12.triads) <= set(bigger.triads)

    @pytest.mark.parametrize("max_norm", [*range(1, 26), 34, 36])
    def test_matches_every_source_union(self, every_source_union, max_norm):
        # the box columns of each source find every triad with a box member
        m2 = max_norm * max_norm
        expected = {t for t in every_source_union if any(m.norm2() <= m2 for m in t)}
        assert enumerate_lambda(max_norm).triads == expected

    def test_quadrant_lambda(self, report12):
        assert report12.stats["quadrant_lambda"] == 3
        assert enumerate_lambda(20).stats["quadrant_lambda"] == 9

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_lambda(0)
        with pytest.raises(ValueError):
            enumerate_lambda(5, jobs=0)

    @pytest.mark.parametrize("max_norm, jobs, named", [
        (2.5, 1, "max_norm"), (True, 1, "max_norm"), ("5", 1, "max_norm"),
        (40, 1.5, "jobs"), (5, True, "jobs"), (5, "2", "jobs"),
    ])
    def test_non_int_arguments_rejected_before_any_work(self, tmp_path, max_norm, jobs, named):
        # a bool or float is refused before the cache opens, so no file is left
        cache = tmp_path / "cache.jsonl"
        with pytest.raises(ValueError, match=f"^{named} must be an integer >= 1, got "):
            enumerate_lambda(max_norm, jobs=jobs, cache_path=cache)
        assert not cache.exists()

    def test_parallel_runs_identical(self):
        serial = enumerate_lambda(14, jobs=1)
        parallel = enumerate_lambda(14, jobs=3)
        assert serial.triads == parallel.triads
        assert serial.lambda_members == parallel.lambda_members
        assert report_to_jsonl(serial) == report_to_jsonl(parallel)

    def test_pool_has_no_more_workers_than_pending_sources(
            self, monkeypatch, tmp_path, in_process_pool):
        # a box-35 cache that leaves pending only the fewest costliest sources
        # whose summed cost reaches POOL_MIN_QUARTICS, fewer than jobs; in
        # canonical order with the costliest first, the order the pool is fed
        cache = tmp_path / "cache.jsonl"
        full = enumerate_lambda(35, cache_path=cache)
        by_cost = sorted(_quadrant_points(35), key=_outer_count, reverse=True)
        totals = accumulate(map(_outer_count, by_cost))
        pending = by_cost[: next(i for i, t in enumerate(totals, 1) if t >= POOL_MIN_QUARTICS)]
        lines = cache.read_text().splitlines(True)
        cache.write_text(lines[0] + "".join(
            line for line in lines[1:] if Wavenumber(*json.loads(line)["n"]) not in pending))
        jobs = len(pending) + 5
        # as many CPUs as jobs, so that the pending sources are the cap
        monkeypatch.setattr(os, "cpu_count", lambda: jobs)
        report = enumerate_lambda(35, jobs=jobs, cache_path=cache)
        assert in_process_pool == [len(pending), (1, pending)]
        assert report.stats["jobs"] == jobs
        assert report.stats["workers"] == len(pending)
        assert report.stats["cache_hits"] == report.stats["quadrant_points"] - len(pending)
        assert report_to_jsonl(report) == report_to_jsonl(full)

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
    def test_pool_has_no_more_workers_than_cpus(
            self, monkeypatch, in_process_pool, report35, cpus, workers):
        # os.cpu_count() is None when the count is unknown
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        report = enumerate_lambda(35, jobs=10**6)
        assert in_process_pool[0] == workers
        assert report.stats["workers"] == workers
        assert report_to_jsonl(report) == report_to_jsonl(report35)

    def test_small_box_runs_in_one_process(self):
        report = enumerate_lambda(20, jobs=2)
        assert sum(map(_outer_count, _quadrant_points(20))) < POOL_MIN_QUARTICS
        assert report.stats["workers"] == 0
        assert report.stats["jobs"] == 2
        assert enumerate_lambda(20).stats["workers"] == 0

    def test_pool_run_matches_one_process_and_resumes(self, monkeypatch, tmp_path, report35):
        # box 35 solves 19 808 quartics, enough to start the pool; two CPUs
        # make the two workers independent of the machine
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial = report_to_jsonl(report35)
        cache = tmp_path / "cache.jsonl"
        pooled = enumerate_lambda(35, jobs=2, cache_path=cache)
        assert pooled.stats["workers"] == 2
        assert report_to_jsonl(pooled) == serial
        data = cache.read_bytes()
        cache.write_bytes(data[: len(data) // 2])
        resumed = enumerate_lambda(35, jobs=2, cache_path=cache)
        assert 0 < resumed.stats["cache_hits"] < resumed.stats["quadrant_points"]
        assert report_to_jsonl(resumed) == serial

    def test_outer_count_is_the_column_count(self):
        points = _quadrant_points(35)
        assert all(_outer_count(n) == len(list(_outer_columns(n))) for n in points)
        assert sum(map(_outer_count, points)) == 19808


# sha256 of report_to_jsonl(enumerate_lambda(35)); the body after the header
# line is the benchmark's BOX_SWEEP_RECORDS_SHA256
BOX35_JSONL_SHA256 = "539d418f40f25a50d99d8135469cfcdf0321ae59107c20818089437c376d51cc"
# sha256 of report_to_jsonl(enumerate_lambda(60)), also the stdout of
# enumerate --max-norm 60
BOX60_JSONL_SHA256 = "2490724a7c8eeafa3a40daa6b0c7f78f239ca4ed3b48faaa3cf5299e1c4848f8"
# sha256 of the cache that a fresh enumerate_lambda(35, cache_path=P) writes
BOX35_CACHE_SHA256 = "18b04f2c10512a25733640b52c4e6afbb8c23beb6e72876f58c4fafe690e0872"


class TestJsonl:
    def test_box35_body_is_pinned(self, report35):
        body = report_to_jsonl(report35)
        assert hashlib.sha256(body.encode()).hexdigest() == BOX35_JSONL_SHA256

    def test_box60_body_is_pinned(self, report60):
        report, _ = report60
        body = report_to_jsonl(report)
        assert hashlib.sha256(body.encode()).hexdigest() == BOX60_JSONL_SHA256

    def test_box60_cut_to_box35_is_the_box35_result(self, report60):
        # the box-N result is every triad with a member |m| <= N, so a larger
        # box's triads whose smallest member lies in box 35 are box 35's
        report, _ = report60
        cut = [t for t in report.triads if min(m.norm2() for m in t) <= 35 * 35]
        body = report_to_jsonl(report_from_triads(35, cut))
        assert hashlib.sha256(body.encode()).hexdigest() == BOX35_JSONL_SHA256

    def test_header_and_sorted_records(self, report12):
        body = report_to_jsonl(report12)
        lines = body.splitlines()
        assert json.loads(lines[0]) == {"schema": 1, "max_norm": 12, "quadrant": True}
        records = [json.loads(line) for line in lines[1:]]
        assert len(records) == len(report12.triads)
        triads = [rec["triad"] for rec in records]
        assert triads == sorted(triads)
        for rec in records:
            members = [Wavenumber(*m) for m in rec["triad"]]
            assert rec["norms2"] == [m.norm2() for m in members]
            source = Wavenumber(*rec["source_n"])
            assert source.norm2() <= 144 and source.n1 > 0
            assert source in members or -source in members

    def test_no_floats_in_body(self, report12):
        for line in report_to_jsonl(report12).splitlines():
            for value in json.loads(line).values():
                flat = value if isinstance(value, list) else [value]
                for item in flat:
                    for x in item if isinstance(item, list) else [item]:
                        assert not isinstance(x, float)

    def test_round_trip(self, report12):
        body = report_to_jsonl(report12)
        header, triads = read_triads_jsonl(body.splitlines())
        assert header["max_norm"] == 12
        rebuilt = report_from_triads(12, triads)
        assert rebuilt.triads == report12.triads
        assert rebuilt.lambda_members == report12.lambda_members
        # the header is the first non-blank line, not line 0
        assert read_triads_jsonl(["", *body.splitlines()]) == (header, triads)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            read_triads_jsonl(["not json at all"])

    def test_derived_fields_must_match_the_triad(self):
        triad = [[-9, 23], [1, 11], [8, -34]]

        def read(**fields):
            lines = [_dump_line(_header(40)), _dump_line({"triad": triad, **fields})]
            return read_triads_jsonl(lines)[1]

        expected = [ResonantTriad(*triad)]
        assert read() == expected
        assert read(source_n=[-8, 34], norms2=[610, 122, 1220]) == expected
        for fields in ({"source_n": [5, 5]}, {"source_n": [1, 11.0]}, {"source_n": 1},
                       {"norms2": [1, 2, 3]}, {"norms2": [610, 122, 1220.0]},
                       {"norms2": [122, 610, 1220]}, {"norms2": 5}):
            with pytest.raises(ValueError, match="line 2: not a triad record"):
                read(**fields)

    def test_family_records_pass_the_derived_field_checks(self):
        # a family record's source_n is its n, a member up to sign
        lines = [_dump_line(_triad_record(t, n)) for n, t in _family_triads(5, 5)]
        assert read_triads_jsonl([_dump_line(_header(1)), *lines])[1] == generate_family(5, 5)

    def test_read_report_takes_the_box_from_the_header(self, report12):
        rebuilt = read_report(report_to_jsonl(report12).splitlines())
        assert rebuilt == report12._replace(stats={})
        records = report_to_jsonl(report12).splitlines()[1:]
        with pytest.raises(ValueError, match="max_norm must be an integer >= 1, got None"):
            read_report([_dump_line({"schema": 1}), *records])
        with pytest.raises(ValueError, match="line 1: no result header"):
            read_report(records)

    def test_report_from_triads_rejects_a_max_norm_that_is_not_a_box(self):
        for max_norm in (None, "40", 0, -3, 2.5, True):
            with pytest.raises(ValueError, match="max_norm must be an integer >= 1"):
                report_from_triads(max_norm, [])

    @pytest.mark.parametrize("m_max, l_max, max_norm", [(1, 1, 1), (2, 2, 17), (3, 3, 85),
                                                        (8, 8, 4931), (2, 5, 251)])
    def test_family_file_is_a_result_file(self, m_max, l_max, max_norm):
        lines = family_to_jsonl(m_max, l_max).splitlines()
        assert json.loads(lines[0]) == {
            "schema": 1, "max_norm": max_norm, "m_max": m_max, "l_max": l_max}
        pairs = list(_family_triads(m_max, l_max))
        assert lines[1:] == [_dump_line(_triad_record(t, n)) for n, t in pairs]
        # max_norm is the smallest box that holds every family member n
        norms2 = [n.norm2() for n, _ in pairs]
        assert all(b <= max_norm**2 for b in norms2)
        assert max_norm == 1 or max(norms2) > (max_norm - 1) ** 2
        report = read_report(lines)
        assert report.max_norm == max_norm
        assert report.triads == frozenset(generate_family(m_max, l_max))

    def test_rejects_a_header_of_another_schema(self):
        for schema in (2, 99, "1", True):
            with pytest.raises(ValueError, match="line 1: unknown schema"):
                read_triads_jsonl([_dump_line({"schema": schema, "max_norm": 5})])
        assert read_triads_jsonl([_dump_line({"schema": 1, "max_norm": 5})]) == (
            {"schema": 1, "max_norm": 5}, [])


class TestCache:
    def test_cache_written_and_reused(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        first = enumerate_lambda(12, cache_path=cache)
        assert cache.exists()
        second = enumerate_lambda(12, cache_path=cache)
        assert second.stats["cache_hits"] == second.stats["quadrant_points"]
        assert second.triads == first.triads
        assert second.lambda_members == first.lambda_members

    def test_resume_after_interruption(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        full = report_to_jsonl(enumerate_lambda(12, cache_path=cache))
        lines = cache.read_text().splitlines(True)
        assert len(lines) > 30
        # drop the tail, leaving a dangling half-written line
        cache.write_text("".join(lines[:25]) + '{"triad":[[1,')
        resumed = enumerate_lambda(12, cache_path=cache)
        assert 0 < resumed.stats["cache_hits"] < resumed.stats["quadrant_points"]
        assert report_to_jsonl(resumed) == full
        # the first resume dropped the fragment, so nothing is recomputed now
        again = enumerate_lambda(12, cache_path=cache)
        assert again.stats["cache_hits"] == again.stats["quadrant_points"]
        assert report_to_jsonl(again) == full
        for line in cache.read_text().splitlines():
            json.loads(line)

    def test_resume_after_header_cut_before_its_newline(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        full = report_to_jsonl(enumerate_lambda(12, cache_path=cache))
        header = cache.read_text().split("\n", 1)[0]
        cache.write_text(header)
        assert report_to_jsonl(enumerate_lambda(12, cache_path=cache)) == full
        again = enumerate_lambda(12, cache_path=cache)
        assert again.stats["cache_hits"] == again.stats["quadrant_points"]
        assert report_to_jsonl(again) == full
        # any other first line is not a cache of ours and is left alone
        cache.write_text(header[:-1])
        with pytest.raises(ValueError):
            enumerate_lambda(12, cache_path=cache)
        assert cache.read_text() == header[:-1]

    @pytest.mark.parametrize("writers", ["full", "trimmed", "mixed", "every-trimmed"])
    def test_resume_from_full_source_lines(self, tmp_path, writers):
        # Earlier versions wrote, per source, the triads of all its partners
        # or of its x < 0 branch less the in-box cells of the columns
        # n1 < |x| <= N. Both hold at least the trimmed line, and the trimmed
        # lines alone reach every triad, so any mix resumes the same. The
        # other cases cache the first half of the quadrant; "every-trimmed"
        # caches a trimmed line for every source, so nothing is recomputed.
        fresh = enumerate_lambda(20)
        points = _quadrant_points(20)
        cached = points if writers == "every-trimmed" else points[: len(points) // 2]
        line = {
            "full": {n: _full_source_triads(n) for n in cached},
            "trimmed": {n: _trimmed_source_triads(n, 20) for n in cached},
            "outer": dict(_worker(n) for n in cached),
        }
        outer = line["outer"]
        assert all(set(line["trimmed"][n]) <= set(outer[n]) <= set(line["full"][n]) for n in cached)
        kinds = {"mixed": ("full", "outer", "trimmed"), "every-trimmed": ("trimmed",)}.get(
            writers, (writers,))
        writer = {n: kinds[i % len(kinds)] for i, n in enumerate(cached)}
        # each earlier writer lands on a source whose line differs from today's
        for k in set(kinds) - {"outer"}:
            assert any(line[k][n] != outer[n] for n in cached if writer[n] == k), k
        lines = [_dump_line(_cache_header(20))]
        for n in cached:
            lines.append(_dump_line({"n": n, "triads": line[writer[n]][n]}))
        cache = tmp_path / "cache.jsonl"
        cache.write_text("\n".join(lines) + "\n")
        resumed = enumerate_lambda(20, cache_path=cache)
        assert resumed.stats["cache_hits"] == len(cached)
        if writers == "every-trimmed":
            assert len(cached) == resumed.stats["quadrant_points"] == 314
        assert resumed.stats["quadrant_lambda"] == fresh.stats["quadrant_lambda"]
        assert report_to_jsonl(resumed) == report_to_jsonl(fresh)

    def test_empty_cache_file_resumes_as_absent(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(b"")
        report = enumerate_lambda(12, cache_path=cache)
        assert report.stats["cache_hits"] == 0
        assert report_to_jsonl(report) == report_to_jsonl(enumerate_lambda(12))
        lines = cache.read_text().splitlines()
        assert lines[0] == _dump_line(_cache_header(12))
        assert all(set(json.loads(line)) == {"n", "triads"} for line in lines[1:])
        # the null device reads empty too, and cannot be truncated
        assert enumerate_lambda(12, cache_path=os.devnull).stats["cache_hits"] == 0

    def test_resumed_cache_equals_the_uninterrupted_one(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        enumerate_lambda(12, cache_path=cache)
        whole = cache.read_bytes()
        # three bytes short of a line's end, in the second half of the sources
        cache.write_bytes(whole[: whole.index(b"\n", len(whole) // 2) - 3])
        resumed = enumerate_lambda(12, cache_path=cache)
        assert 0 < resumed.stats["cache_hits"] < resumed.stats["quadrant_points"]
        assert cache.read_bytes() == whole

    def test_fresh_cache_bytes_are_pinned(self, tmp_path):
        # the header and one line per quadrant source, in canonical order
        cache = tmp_path / "cache.jsonl"
        enumerate_lambda(35, cache_path=cache)
        data = cache.read_bytes()
        assert data.count(b"\n") == 1 + len(_quadrant_points(35)) == 964
        assert hashlib.sha256(data).hexdigest() == BOX35_CACHE_SHA256

    def test_mismatched_cache_rejected(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        enumerate_lambda(5, cache_path=cache)
        with pytest.raises(ValueError):
            enumerate_lambda(6, cache_path=cache)

    def test_cache_and_parallel_agree(self, tmp_path):
        plain = report_to_jsonl(enumerate_lambda(13))
        cached = report_to_jsonl(enumerate_lambda(13, jobs=2, cache_path=tmp_path / "c.jsonl"))
        assert plain == cached


def test_report_is_value_like(report12):
    clone = EnumerationReport(
        max_norm=report12.max_norm,
        triads=report12.triads,
        lambda_members=report12.lambda_members,
        stats={"different": "stats"},
    )
    assert clone == report12  # stats excluded from equality


def test_reports_of_one_box_are_equal_whatever_their_stats():
    serial = enumerate_lambda(12, jobs=1)
    parallel = enumerate_lambda(12, jobs=2)
    assert serial.stats != parallel.stats
    assert serial == parallel
    assert not serial != parallel
    assert hash(serial) == hash(parallel)
    assert serial._replace(max_norm=13) != serial
    assert serial._replace(stats={}) == serial


def test_every_triad_is_canonical(report12):
    for t in report12.triads:
        assert isinstance(t, ResonantTriad)
        assert t == ResonantTriad(*t)
