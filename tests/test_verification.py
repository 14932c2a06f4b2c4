import json
from math import gcd, isqrt

import pytest

from rossby_resonance.exact_core import (
    Wavenumber,
    _factor,
    _norm_hits,
    _poly_eval,
    is_resonant,
    quartic_coeffs,
)
from rossby_resonance.partner_search import (
    _cell_hits,
    _column_hits,
    _disk_columns,
    naive_partner_oracle,
)
from rossby_resonance import verification
from rossby_resonance.verification import (
    _lemma_sweep,
    _primitive_120_pairs,
    check_proof_identity,
    generate_family,
    verify_axis_theorem,
    verify_diophantine_lemma,
)


class TestAxisTheorem:
    def test_smallest_disk(self):
        report = verify_axis_theorem(1)
        assert report.counterexamples == []
        # one zonal wavenumber, (1, 0), is decided
        assert report.checked == 1
        assert not report.counterexamples

    def test_moderate_range_clean(self):
        report = verify_axis_theorem(40)
        assert report.counterexamples == []
        assert report.claim == "axis-exclusion"
        assert report.bounds == {"n1_max": 40}

    def test_vector_and_scalar_paths_agree(self):
        fast = verify_axis_theorem(25)
        slow = [(n1, x, y) for n1 in range(1, 26) for x, y in naive_partner_oracle((n1, 0))]
        assert fast.checked == 25
        assert fast.counterexamples == slow == []

    def test_column_and_scalar_scans_agree_per_n1(self):
        for n1 in range(1, 31):
            n = (n1, 0)
            assert list(_column_hits(n, _disk_columns(n))) == list(_cell_hits(n, _disk_columns(n))), n1

    @pytest.mark.parametrize(
        "n, expected",
        [((1, 11), [(-8, 34), (9, -23)]), ((8, 14), [(3, -11), (5, 25)])],
        ids=["n=(1,11)", "n=(8,14)"],
    )
    def test_scans_report_the_resonant_cells_off_axis(self, n, expected):
        # Off the axis the disk does hold resonant cells, so both scans must
        # report them; (8, 14) has both partners in 0 < x < n1.
        assert [tuple(k) for k in naive_partner_oracle(n)] == expected
        assert list(_column_hits(n, _disk_columns(n))) == expected
        assert list(_cell_hits(n, _disk_columns(n))) == expected
        assert sorted(_norm_hits(n, _factor(n[0] ** 2 + n[1] ** 2))) == expected

    def test_agrees_with_the_norm_solver_per_n1(self):
        # the Gaussian norm solver decides each (n1, 0) without the reduction
        solved = [
            (n1, x, y)
            for n1 in range(1, 2001)
            for x, y in sorted(_norm_hits((n1, 0), {p: 2 * e for p, e in _factor(n1).items()}))
        ]
        report = verify_axis_theorem(2000)
        assert report.counterexamples == solved == []
        assert report.checked == 2000

    def test_lemma_solution_is_mapped_to_its_axis_partners(self, monkeypatch):
        # no real coprime pair solves the lemma, so feed the fake primitive
        # pair of the lemma test: x^2 - xy + y^2 = 49 and z = 10 give
        # r = 70, so n1 = 3^4 + 8^4 = 4177 and y = 3 * 8 * 70
        monkeypatch.setattr(verification, "_primitive_120_pairs", lambda b_max: [(3, 8, 10)])
        assert verify_axis_theorem(4176).counterexamples == []
        report = verify_axis_theorem(5000)
        assert report.counterexamples == [
            (4177, 81, -1680), (4177, 81, 1680), (4177, 4096, -1680), (4177, 4096, 1680)
        ]
        assert report.checked == 5000

    def test_points_of_several_solutions_are_sorted(self, monkeypatch):
        # two fake pairs with x^2 - xy + y^2 = 49: (3, 8) maps to n1 = 4177
        # and 8354 (g = 2), (5, 8) to 4721 and 9442
        fake_pairs = [(3, 8, 10), (5, 8, 11)]
        monkeypatch.setattr(verification, "_primitive_120_pairs", lambda b_max: fake_pairs)
        report = verify_axis_theorem(10000)
        n1s = [n1 for n1, _, _ in report.counterexamples]
        assert n1s == [4177] * 4 + [4721] * 4 + [8354] * 4 + [9442] * 4
        assert report.counterexamples == sorted(report.counterexamples)

    def test_search_stops_at_the_fourth_root(self, monkeypatch):
        # Y^4 < n1 <= n1_max: the pairs are searched up to floor(n1_max^(1/4))
        seen = []

        def recording(b_max):
            seen.append(b_max)
            return []

        monkeypatch.setattr(verification, "_primitive_120_pairs", recording)
        for n1_max in (1, 15, 16, 4095, 4096, 10**12 - 1, 10**12):
            assert verify_axis_theorem(n1_max).counterexamples == []
        assert seen == [1, 1, 2, 7, 8, 999, 1000]

    @pytest.mark.parametrize("x, y", [(1, 2), (2, 3), (3, 8), (5, 7), (4, 4), (1, 11)])
    @pytest.mark.parametrize("g", [1, 2, 6])
    def test_partner_quartic_factors_at_the_mapped_point(self, x, y, g):
        # at n1 = g (x^4 + y^4), column g x^4 (or g y^4) and height g x y r,
        # the quartic is zero exactly when r^2 = x^4 + x^2 y^2 + y^4
        n1 = g * (x**4 + y**4)
        for r in range(-3, 40):
            expected = (
                n1 * g**4 * x**4 * y**4
                * (r * r - x**4 - x * x * y * y - y**4)
                * (r * r - x * x * y * y + x**4 + y**4)
            )
            for leg in (x**4, y**4):
                assert _poly_eval(quartic_coeffs((n1, 0), g * leg), g * x * y * r) == expected

    def test_square_columns_are_g_times_squares(self):
        # the decomposition step: 0 < x < n1 with x (n1 - x) a square are
        # exactly x = g p^2 with n1 = g (p^2 + q^2), gcd(p, q) = 1
        for n1 in range(1, 400):
            square = {x for x in range(1, n1) if isqrt(x * (n1 - x)) ** 2 == x * (n1 - x)}
            decomposed = {
                n1 // (p * p + q * q) * p * p
                for p in range(1, isqrt(n1) + 1)
                for q in range(1, isqrt(n1) + 1)
                if gcd(p, q) == 1 and n1 % (p * p + q * q) == 0
            }
            assert square == decomposed, n1

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            verify_axis_theorem(0)

    def test_json_shape(self):
        doc = verify_axis_theorem(3).to_json_dict()
        assert set(doc) == {"claim", "bounds", "checked", "counterexamples", "wall_time_ms"}
        json.dumps(doc)  # serializable


class TestDiophantineLemma:
    def test_small_sweep_clean(self):
        report = verify_diophantine_lemma(30)
        assert report.counterexamples == []
        assert report.checked == 30 * 31 // 2

    def test_smallest_case_is_not_square(self):
        # X = Y = 1 gives 3
        report = verify_diophantine_lemma(1)
        assert report.checked == 1
        assert report.counterexamples == []

    def test_trivial_solutions_outside_sweep(self):
        # X = 0 would give Z = Y^2 exactly; the sweep starts at X = 1, so a
        # clean report demonstrates only non-trivial pairs were examined.
        report = verify_diophantine_lemma(3)
        assert report.checked == 6
        assert report.counterexamples == []

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            verify_diophantine_lemma(0)

    @pytest.mark.parametrize("b_max", [50, 300])
    def test_factorisation_matches_the_pair_sweep(self, b_max):
        report = verify_diophantine_lemma(b_max)
        assert report.counterexamples == _lemma_sweep(b_max)
        assert report.checked == b_max * (b_max + 1) // 2

    def test_square_second_factor_is_reported_with_its_multiples(self, monkeypatch):
        # no real pair has both factors square, so feed a fake primitive pair
        # with x^2 - xy + y^2 = 49 and a made-up z = 10
        monkeypatch.setattr(verification, "_primitive_120_pairs", lambda b_max: [(3, 8, 10)])
        report = verify_diophantine_lemma(20)
        assert report.counterexamples == [(3, 8, 70), (6, 16, 280)]
        assert report.checked == 210

    @pytest.mark.parametrize("b_max", [50, 300])
    def test_primitive_120_pairs_match_brute_force(self, b_max):
        def is_square(v):
            return isqrt(v) ** 2 == v

        brute = [
            (x, y)
            for x in range(1, b_max + 1)
            for y in range(x, b_max + 1)
            if gcd(x, y) == 1 and is_square(x * x + x * y + y * y)
        ]
        listed = list(_primitive_120_pairs(b_max))
        assert sorted((x, y) for x, y, _ in listed) == brute
        assert all(z * z == x * x + x * y + y * y for x, y, z in listed)
        # (11, 24) comes from (m, n) = (7, 4) with g = 3, after (7, 3) overshoots
        assert (3, 5) in brute and (11, 24) in brute


class TestGenerateFamily:
    def test_reference_members(self):
        triads = generate_family(2, 2)
        assert len(triads) == 2
        assert triads[0] == (
            Wavenumber(-16, 2),
            Wavenumber(1, 8),
            Wavenumber(15, -10),
        )
        assert triads[1] == (
            Wavenumber(-16, -2),
            Wavenumber(1, -8),
            Wavenumber(15, 10),
        )

    def test_equal_indices_excluded(self):
        assert generate_family(1, 1) == []

    def test_count_and_distinctness(self):
        triads = generate_family(5, 5)
        assert len(triads) == 20
        assert len(set(triads)) == 20

    def test_legs_are_pairwise_distinct(self):
        for triad in generate_family(4, 4):
            a, b, c = triad
            assert len({a, b, c}) == 3

    def test_every_member_is_resonant(self):
        # construction already runs the exact check; re-verify independently
        for triad in generate_family(3, 3):
            a, b, c = triad
            assert is_resonant(-c, a)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            generate_family(0, 3)


class TestProofIdentity:
    def test_clean_at_scale(self):
        report = check_proof_identity(1000, 10_000, seed=0)
        assert report.counterexamples == []
        assert report.checked == 1000
        assert report.seed == 0

    def test_deterministic_given_seed(self):
        a = check_proof_identity(50, 100, seed=42)
        b = check_proof_identity(50, 100, seed=42)
        assert a.counterexamples == b.counterexamples == []
        assert a.checked == b.checked

    def test_seed_lands_in_json(self):
        doc = check_proof_identity(5, 10, seed=7).to_json_dict()
        assert doc["seed"] == 7

    def test_odd_coefficients_vanish_on_axis(self):
        from rossby_resonance.exact_core import quartic_coeffs

        _, a3, _, a1, _ = quartic_coeffs((4, 0), 1)
        assert a3 == 0 and a1 == 0

    def test_reports_each_column_with_a_wrong_quartic(self, wrong_axis_quartic):
        report = check_proof_identity(200, 100, seed=3)
        assert len(wrong_axis_quartic) == report.checked == 200
        expected = [(n1, x) for n1, x in wrong_axis_quartic if x % 7 == 0]
        assert len(expected) == 21
        assert report.counterexamples == expected

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            check_proof_identity(0, 10)
        with pytest.raises(ValueError):
            check_proof_identity(10, 1)


def test_family_members_surface_in_enumeration(report17):
    triads = generate_family(2, 2)
    assert set(triads) <= set(report17.triads)
