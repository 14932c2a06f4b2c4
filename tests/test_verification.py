import json

import pytest

from rossby_resonance.exact_core import Wavenumber, is_resonant
from rossby_resonance.partner_search import naive_partner_oracle
from rossby_resonance.verification import (
    _axis_disk_scan_columns,
    _axis_disk_scan_scalar,
    check_proof_identity,
    generate_family,
    verify_axis_theorem,
    verify_diophantine_lemma,
)


class TestAxisTheorem:
    def test_smallest_disk(self):
        report = verify_axis_theorem(1)
        assert report.counterexamples == []
        # disk of radius 2 around (1, 0): x in {-2, -1, 2}, y constrained
        assert report.checked == 5
        assert report.consistent

    def test_moderate_range_clean(self):
        report = verify_axis_theorem(40)
        assert report.counterexamples == []
        assert report.claim == "axis-exclusion"
        assert report.bounds == {"n1_max": 40}

    def test_vector_and_scalar_paths_agree(self):
        fast = verify_axis_theorem(25)
        slow = verify_axis_theorem(25, predicate=is_resonant)
        assert fast.checked == slow.checked
        assert fast.counterexamples == slow.counterexamples == []

    def test_column_and_scalar_scans_agree_per_n1(self):
        for n1 in range(1, 31):
            n = (n1, 0)
            assert _axis_disk_scan_columns(n) == _axis_disk_scan_scalar(n, is_resonant), n1

    @pytest.mark.parametrize(
        "n, expected",
        [((1, 11), [(-8, 34), (9, -23)]), ((8, 14), [(3, -11), (5, 25)])],
        ids=["n=(1,11)", "n=(8,14)"],
    )
    def test_scans_report_the_resonant_cells_off_axis(self, n, expected):
        # Off the axis the disk does hold resonant cells, so both scans must
        # report them; (8, 14) has both partners in 0 < x < n1.
        assert [tuple(k) for k in naive_partner_oracle(n)] == expected
        columns = _axis_disk_scan_columns(n)
        assert columns == _axis_disk_scan_scalar(n, is_resonant)
        assert columns[1] == expected

    def test_corrupted_predicate_is_caught(self):
        flipped_at = ((5, 0), (2, 3))

        def almost_is_resonant(n, k):
            verdict = is_resonant(n, k)
            if (tuple(n), tuple(k)) == flipped_at:
                return not verdict
            return verdict

        report = verify_axis_theorem(6, predicate=almost_is_resonant)
        assert report.counterexamples == [(5, 2, 3)]

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


class TestGenerateFamily:
    def test_reference_members(self):
        triads = generate_family(2, 2)
        assert len(triads) == 2
        assert triads[0].members() == (
            Wavenumber(-16, 2),
            Wavenumber(1, 8),
            Wavenumber(15, -10),
        )
        assert triads[1].members() == (
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
            a, b, c = triad.members()
            assert len({a, b, c}) == 3

    def test_every_member_is_resonant(self):
        # construction already runs the exact check; re-verify independently
        for triad in generate_family(3, 3):
            a, b, c = triad.members()
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

        poly = quartic_coeffs((4, 0), 1)
        assert poly.a3 == 0 and poly.a1 == 0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            check_proof_identity(0, 10)
        with pytest.raises(ValueError):
            check_proof_identity(10, 1)


def test_family_members_surface_in_enumeration(report17):
    triads = generate_family(2, 2)
    assert set(triads) <= set(report17.triads)
