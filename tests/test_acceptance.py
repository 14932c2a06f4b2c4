"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; a failing assertion marks the criterion FAILED via pytest.
"""

import random
import time
from math import isqrt

import pytest

from conftest import GOLDEN_TRIADS
from rossby_resonance.cli import run
from rossby_resonance.cluster_graph import (
    NO_SCALING_DETECTED,
    build_components,
    flag_scaling,
)
from rossby_resonance.exact_core import (
    ResonantTriad,
    Wavenumber,
    _poly_eval,
    _residual_numden,
    is_resonant,
    quartic_coeffs,
)
from rossby_resonance.partner_search import find_partners, naive_partner_oracle
from rossby_resonance.rational import residual
from rossby_resonance.verification import (
    generate_family,
    verify_axis_theorem,
    verify_diophantine_lemma,
)


def _passed(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_golden_triads():
    """Every listed triad checks resonant with exact zero residual, < 1 ms each."""
    checks = 0
    worst = 0.0
    for triple in GOLDEN_TRIADS:
        members = [Wavenumber(*w) for w in triple]
        assert sum(members, Wavenumber(0, 0)) == (0, 0)
        for i, m in enumerate(members):
            others = [w for j, w in enumerate(members) if j != i]
            for k in others:
                t0 = time.perf_counter()
                resonant = is_resonant(-m, k)
                res = residual(-m, k)
                elapsed = time.perf_counter() - t0
                assert resonant
                assert (res.numerator, res.denominator) == (0, 1)
                worst = max(worst, elapsed)
                checks += 1
    assert worst < 1e-3, f"slowest check took {worst * 1e3:.3f} ms"
    _passed(1, f"{checks} checks over {len(GOLDEN_TRIADS)} listed triads, "
               f"all residual 0/1, slowest {worst * 1e6:.0f} us")


def test_criterion_2_cluster_reproduction(report60):
    """Box-60 components reproduce both listed finite clusters, in order."""
    report, elapsed = report60
    assert elapsed <= 300.0, f"enumeration took {elapsed:.0f} s"
    components = build_components(report.triads)

    def abs_classes(cluster):
        return {(abs(w.n1), abs(w.n2)) for w in cluster.members}

    first_target = {(1, 11), (8, 34), (9, 23)}
    second_target = {(3, 19), (32, 44), (35, 25), (8, 26), (27, 51)}
    first_idx = [
        i for i, c in enumerate(components)
        if abs_classes(c) == first_target and len(c.members) == 3
    ]
    second_idx = [
        i for i, c in enumerate(components)
        if abs_classes(c) == second_target and len(c.members) == 5
    ]
    assert first_idx, "no component matches the first listed cluster"
    assert second_idx, "no component matches the second listed cluster"

    # the two mirror twins of each listed cluster, with exact sign-classes
    first_sets = {components[i].members for i in first_idx}
    assert first_sets == {
        frozenset({Wavenumber(1, 11), Wavenumber(8, -34), Wavenumber(9, -23)}),
        frozenset({Wavenumber(1, -11), Wavenumber(8, 34), Wavenumber(9, 23)}),
    }
    for i in first_idx:
        assert components[i].lambda_seq == (122, 610, 1220)
        assert flag_scaling(components[i]) == NO_SCALING_DETECTED
    for i in second_idx:
        assert components[i].lambda_seq == (370, 740, 1850, 2960, 3330)

    assert max(first_idx) < min(second_idx), "lambda ordering violated"
    _passed(2, f"clusters of sizes 3 and 5 reproduced at indices {first_idx} < "
               f"{second_idx}; enumeration {elapsed:.1f} s (limit 300 s)")


def test_criterion_3_axis_theorem(report60, report12):
    """Every zonal wavenumber (n1, 0) to 200 is clean; no enumerated member touches the axis."""
    report = verify_axis_theorem(200)
    assert report.counterexamples == []
    assert report.checked == 200
    box60, _ = report60
    for rep in (box60, report12):
        assert all(m.n2 != 0 for m in rep.lambda_members)
        assert all(w.n2 != 0 for t in rep.triads for w in t)
    _passed(3, f"{report.checked} axis cases clean in {report.wall_time_ms:.0f} ms; "
               f"boxes 12 and 60 have no members with n2 = 0")


def test_criterion_4_diophantine_lemma():
    """No nontrivial X, Y <= 500 makes X^4 + X^2 Y^2 + Y^4 a perfect square."""
    report = verify_diophantine_lemma(500)
    assert report.counterexamples == []
    assert report.checked == 500 * 501 // 2
    assert report.wall_time_ms <= 10_000.0
    _passed(4, f"{report.checked} pairs checked in {report.wall_time_ms:.0f} ms, "
               "zero counterexamples")


def test_criterion_5_infinite_family(report17):
    """56 exact triads from the 8x8 family; small members appear in box 17."""
    triads = generate_family(8, 8)
    assert len(triads) == 56
    assert len(set(triads)) == 56
    small = generate_family(2, 2)  # the (1,2) and (2,1) members
    assert len(small) == 2
    assert set(small) <= set(report17.triads)
    _passed(5, "56/56 family triads pass the exact check; (1,2) and (2,1) "
               "triads appear in the box-17 enumeration")


def test_criterion_6_oracle_equivalence():
    """Fast search equals the brute-force oracle on the whole quadrant |n| <= 20."""
    t0 = time.perf_counter()
    points = 0
    for n1 in range(1, 21):
        for n2 in range(0, isqrt(400 - n1 * n1) + 1):
            points += 1
            assert find_partners((n1, n2)) == naive_partner_oracle((n1, n2)), (n1, n2)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"oracle sweep took {elapsed:.0f} s"
    _passed(6, f"find_partners == naive_partner_oracle on {points} quadrant "
               f"points in {elapsed:.1f} s (limit 60 s)")


def test_criterion_7_property_suite():
    """1000 fixed-seed randomized cases per invariant, zero violations."""
    rng = random.Random(20240601)

    def draw_pair():
        n1 = 0
        while n1 == 0:
            n1 = rng.randint(-50, 50)
        n2 = rng.randint(-50, 50)
        x = 0
        while x == 0 or x == n1:
            x = rng.randint(-50, 50)
        y = rng.randint(-50, 50)
        return Wavenumber(n1, n2), Wavenumber(x, y)

    cases = [draw_pair() for _ in range(1000)]
    for n, k in cases:
        assert residual(n, k) == residual(n, n - k)
    for n, k in cases:
        assert is_resonant(-n, -k) == is_resonant(n, k)
        assert residual(-n, -k) == -residual(n, k)
    for n, k in cases:
        assert residual(n.mirror(), k.mirror()) == residual(n, k)
    for n, k in cases:
        zn = Wavenumber(-n.n1, n.n2)
        zk = Wavenumber(-k.n1, k.n2)
        assert residual(zn, zk) == -residual(n, k)
    for n, k in cases:
        for j in (2, 3, 5):
            assert is_resonant(j * n, j * k) == is_resonant(n, k)
    for n, k in cases:
        assert (residual(n, k) == 0) == is_resonant(n, k)
    for n, k in cases:
        num, _ = _residual_numden(n.n1, n.n2, k.n1, k.n2)
        value = _poly_eval(quartic_coeffs(n, k.n1), k.n2)
        assert value == num
        assert (value == 0) == is_resonant(n, k)
    _passed(7, "7 invariant families x 1000 fixed-seed cases, zero violations")


def test_criterion_8_parallel_determinism(tmp_path):
    """JSONL bodies from --jobs 1 and --jobs 8 are byte-identical at box 40."""
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    assert run(["enumerate", "--max-norm", "40", "--jobs", "1", "--out", str(serial)]) == 0
    assert run(["enumerate", "--max-norm", "40", "--jobs", "8", "--out", str(parallel)]) == 0
    body_serial = serial.read_bytes()
    body_parallel = parallel.read_bytes()
    assert body_serial == body_parallel
    assert len(body_serial.splitlines()) > 1
    _passed(8, f"box-40 bodies identical across jobs 1 and 8 "
               f"({len(body_serial.splitlines()) - 1} triad records)")
