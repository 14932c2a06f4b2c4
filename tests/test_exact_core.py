import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from conftest import GOLDEN_TRIADS
from rossby_resonance.exact_core import (
    ResonantTriad,
    TrivialInteractionError,
    Wavenumber,
    _factor,
    _gaussian_sqrt,
    _integer_roots_between,
    _p2_floors,
    _poly_eval,
    _refine_floors,
    _residual_numden,
    _split_prime,
    gaussian_norm_solutions,
    integer_roots,
    is_resonant,
    quartic_coeffs,
)
from rossby_resonance.rational import residual, sigma


class TestWavenumber:
    def test_arithmetic_is_componentwise(self):
        a = Wavenumber(2, -3)
        b = Wavenumber(-1, 5)
        assert a + b == Wavenumber(1, 2)
        assert a - b == Wavenumber(3, -8)
        assert -a == Wavenumber(-2, 3)
        assert 3 * a == Wavenumber(6, -9)
        assert a * 3 == Wavenumber(6, -9)

    def test_norm_and_mirror(self):
        assert Wavenumber(3, -4).norm2() == 25
        assert Wavenumber(3, -4).mirror() == Wavenumber(3, 4)

    def test_lexicographic_order(self):
        assert Wavenumber(-9, 23) < Wavenumber(1, 11) < Wavenumber(1, 12)


class TestSigma:
    @pytest.mark.parametrize(
        "n, num, den",
        [
            ((1, 11), 1, 122),
            ((0, 5), 0, 1),
            ((-16, -2), -4, 65),
            ((2, 0), 1, 2),
        ],
    )
    def test_values(self, n, num, den):
        s = sigma(n)
        assert (s.numerator, s.denominator) == (num, den)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            sigma((0, 0))

    def test_serialization_form(self):
        # check prints numerator/denominator, so a zero is 0/1
        for n, form in [((0, 5), (0, 1)), ((-16, -2), (-4, 65))]:
            s = sigma(n)
            assert type(s) is Fraction
            assert (s.numerator, s.denominator) == form

    def test_reduced_fraction_invariants(self):
        import math

        # sigma and residual are in lowest terms with denominator >= 1
        for f in (sigma((-2, 0)), sigma((4, -6)), sigma((0, 7)), sigma((-9, 3)),
                  residual((2, 2), (1, 1)), residual((-4, 6), (2, 0)), residual((1, 11), (-8, 34))):
            assert type(f) is Fraction
            assert f.denominator >= 1
            assert math.gcd(abs(f.numerator), f.denominator) == 1


class TestIsResonant:
    def test_finite_cluster_pair(self):
        assert is_resonant((1, 11), (-8, 34)) is True

    def test_family_pair(self):
        assert is_resonant((1, 8), (16, -2)) is True

    def test_plain_failure(self):
        assert is_resonant((2, 2), (1, 1)) is False

    def test_axis_failure(self):
        assert is_resonant((5, 0), (2, 3)) is False

    @pytest.mark.parametrize(
        "n, k, which",
        [
            ((0, 3), (1, 1), "n1"),
            ((2, 3), (0, 1), "x"),
            ((2, 3), (2, 1), "n1 - x"),
        ],
    )
    def test_trivial_interactions_identified(self, n, k, which):
        with pytest.raises(TrivialInteractionError) as exc:
            is_resonant(n, k)
        assert exc.value.which == which
        with pytest.raises(TrivialInteractionError):
            residual(n, k)


class TestResidual:
    def test_zero_for_resonant(self):
        assert residual((1, 11), (-8, 34)) == 0
        assert residual((1, 8), (16, -2)) == 0

    def test_exact_value(self):
        r = residual((2, 2), (1, 1))
        assert r == Fraction(-3, 4)
        assert (r.numerator, r.denominator) == (-3, 4)

    def test_zero_iff_resonant(self):
        rng = random.Random(7)
        for _ in range(300):
            n1 = rng.randint(-20, 20) or 1
            n2 = rng.randint(-20, 20)
            x = rng.randint(-20, 20)
            if x in (0, n1):
                continue
            y = rng.randint(-20, 20)
            assert (residual((n1, n2), (x, y)) == 0) == is_resonant((n1, n2), (x, y))


class TestCanonicalTriad:
    def test_finite_cluster_triad(self):
        # the pair n = (1, 11), k = (-8, 34) as {k, n - k, -n}
        t = ResonantTriad((-8, 34), (9, -23), (-1, -11))
        assert t == (
            Wavenumber(-9, 23),
            Wavenumber(1, 11),
            Wavenumber(8, -34),
        )

    def test_family_triad(self):
        # the pair n = (1, 8), k = (16, -2) as {k, n - k, -n}
        t = ResonantTriad((16, -2), (-15, 10), (-1, -8))
        assert t == (
            Wavenumber(-16, 2),
            Wavenumber(1, 8),
            Wavenumber(15, -10),
        )

    def test_rederivation_is_idempotent(self):
        t = ResonantTriad((-8, 34), (9, -23), (-1, -11))
        for m in t:
            # m appears in the triad, so n = -m decomposes into the other two:
            # each k of them gives the same triad {k, n - k, -n}
            for k in (w for w in t if w != m):
                assert ResonantTriad(k, -m - k, m) == t

    def test_scaling_homogeneity(self):
        t1 = ResonantTriad((-8, 34), (9, -23), (-1, -11))
        t2 = ResonantTriad((-16, 68), (18, -46), (-2, -22))
        assert t2 == tuple(2 * m for m in t1)

    def test_non_resonant_rejected(self):
        # the triad {k, n - k, -n} of the pair n = (2, 2), k = (1, 1)
        with pytest.raises(ValueError, match="not resonant"):
            ResonantTriad((1, 1), (1, 1), (-2, -2))
        # a zero zonal component, k = (0, 1) of n = (3, 1)
        with pytest.raises(ValueError, match="nonzero zonal"):
            ResonantTriad((0, 1), (3, 0), (-3, -1))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ResonantTriad(Wavenumber(1, 1), Wavenumber(2, 2), Wavenumber(3, 3))
        # zero-sum but not resonant
        with pytest.raises(ValueError):
            ResonantTriad(Wavenumber(-2, 0), Wavenumber(1, 1), Wavenumber(1, -1))
        # members in another order, or negated, are put in canonical form
        canonical = ResonantTriad((-8, 34), (9, -23), (-1, -11))
        assert ResonantTriad(Wavenumber(1, 11), Wavenumber(-9, 23), Wavenumber(8, -34)) == canonical
        assert ResonantTriad(Wavenumber(-8, 34), Wavenumber(-1, -11), Wavenumber(9, -23)) == canonical

    def test_hash_and_order_are_those_of_the_plain_tuple(self):
        members = (((1, 11), (8, -34), (-9, 23)), ((3, 19), (32, -44), (-35, 25)), ((1, -8), (15, 10), (-16, -2)))
        triads = [ResonantTriad(*m) for m in members]
        for t in triads:
            assert t == tuple(t)
            assert hash(t) == hash(tuple(t))
        assert [tuple(t) for t in sorted(triads)] == sorted(tuple(t) for t in triads)
        assert list(set(triads)) == list(set(tuple(t) for t in triads))

    def test_pickle_round_trip_revalidates(self):
        t = ResonantTriad((-8, 34), (9, -23), (-1, -11))
        # tuple.__new__ skips the checks; unpickling must run them again
        forged = tuple.__new__(ResonantTriad, (Wavenumber(1, 1), Wavenumber(2, 2), Wavenumber(-3, -3)))
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(t, protocol))
            assert back == t and type(back) is ResonantTriad
            with pytest.raises(ValueError, match="not resonant"):
                pickle.loads(pickle.dumps(forged, protocol))

    def test_make_and_replace_revalidate(self):
        t = ResonantTriad((-8, 34), (9, -23), (-1, -11))
        assert ResonantTriad._make(iter(t)) == t
        assert t._replace(a=t.a) == t
        with pytest.raises(ValueError, match="sum to zero"):
            t._replace(a=Wavenumber(-16, 2))
        with pytest.raises(ValueError, match="sum to zero"):
            ResonantTriad._make([(1, 1), (2, 2), (3, 3)])

    @pytest.mark.parametrize("triple", GOLDEN_TRIADS)
    def test_constructor_accepts_any_order_and_sign(self, triple):
        p, q, r = triple
        # the pair n = -r, k = p as {k, n - k, -n}; its canonical form is the
        # smaller of the sorted members and their sorted negations
        canonical = ResonantTriad(p, -Wavenumber(*r) - p, r)
        members = sorted(Wavenumber(*m) for m in triple)
        assert canonical == min(tuple(members), tuple(sorted(-m for m in members)))
        built = {ResonantTriad(*(sign * Wavenumber(*m) for m in order))
                 for order in itertools.permutations(triple) for sign in (1, -1)}
        assert built == {canonical}
        for back in (copy.copy(canonical), copy.deepcopy(canonical), pickle.loads(pickle.dumps(canonical))):
            assert back == canonical and type(back) is ResonantTriad


class TestQuarticCoeffs:
    def test_reference_coefficients(self):
        assert quartic_coeffs((1, 8), 16) == (1, -16, 480, 12544, 23024)

    def test_known_root_matches_predicate(self):
        poly = quartic_coeffs((1, 8), 16)
        assert _poly_eval(poly, -2) == 0
        assert is_resonant((1, 8), (16, -2))

    @pytest.mark.parametrize("x", [-5, -1, 2, 3, 17])
    def test_zonal_wavenumber_constant_term(self, x):
        _, a3, _, a1, a0 = quartic_coeffs((1, 0), x)
        assert a3 == a1 == 0
        assert a0 == -x * (1 - x) * (x * x - x + 1)

    def test_matches_residual_numerator(self):
        rng = random.Random(11)
        for _ in range(500):
            n1 = rng.randint(-30, 30) or 3
            n2 = rng.randint(-30, 30)
            x = rng.randint(-30, 30)
            if x in (0, n1):
                continue
            y = rng.randint(-30, 30)
            num, _ = _residual_numden(n1, n2, x, y)
            assert _poly_eval(quartic_coeffs((n1, n2), x), y) == num

    def test_roots_scale_with_the_lattice(self):
        rng = random.Random(13)
        cases = 0
        while cases < 20:
            n1 = rng.randint(-10, 10) or 2
            n2 = rng.randint(-10, 10)
            x = rng.randint(-10, 10)
            if x in (0, n1):
                continue
            y = rng.randint(-10, 10)
            j = rng.choice([2, 3, 5])
            cases += 1
            base = _poly_eval(quartic_coeffs((n1, n2), x), y)
            scaled = _poly_eval(quartic_coeffs((j * n1, j * n2), j * x), j * y)
            assert scaled == j**5 * base

    def test_inadmissible_rejected(self):
        with pytest.raises(TrivialInteractionError):
            quartic_coeffs((0, 1), 2)
        with pytest.raises(TrivialInteractionError):
            quartic_coeffs((3, 1), 0)
        with pytest.raises(TrivialInteractionError):
            quartic_coeffs((3, 1), 3)


def _scan_roots(poly, bound):
    return [y for y in range(-bound, bound + 1) if _poly_eval(list(poly), y) == 0]


class TestIntegerRoots:
    def test_reference_quartic(self):
        poly = (1, -16, 480, 12544, 23024)
        assert integer_roots(poly, 100) == _scan_roots(poly, 100) == [-2]

    def test_root_outside_bound(self):
        assert integer_roots((1, -16, 480, 12544, 23024), 1) == []

    def test_quadruple_root_at_zero(self):
        assert integer_roots((1, 0, 0, 0, 0), 5) == [0]

    def test_repeated_and_mixed_roots(self):
        # (y - 3)^2 (y + 1)(y + 7) = y^4 + 2y^3 - 32y^2 + 30y + 63
        poly = (1, 2, -32, 30, 63)
        assert integer_roots(poly, 10) == [-7, -1, 3]
        # (y - 2)^2 (y + 5)^2 = y^4 + 6y^3 - 11y^2 - 60y + 100
        poly = (1, 6, -11, -60, 100)
        assert integer_roots(poly, 10) == [-5, 2]

    def test_degenerate_leading_coefficients(self):
        # only a quartic with a4 != 0 is taken: a4 = 0 (cubic, linear, nonzero
        # constant, zero polynomial) and four or six coefficients are rejected
        for p in ((0, 2, 0, -2, 0), (0, 0, 0, 3, -6), (0, 0, 0, 0, 4), (0, 0, 0, 0, 0),
                  (1, 0, 0, 0), (1, 0, 0, 0, 0, 0)):
            with pytest.raises(ValueError):
                integer_roots(p, 9)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            integer_roots((0, 0, 0, 0, 0), 3)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            integer_roots((1, 0, 0, 0, 0), -1)

    def test_non_int_arguments_rejected(self):
        # a float coefficient or bound would be evaluated in floating point:
        # -2.0**64 - 1.0 rounds to -2**64, whose quartic has the roots
        # -+65536, although the int quartic below has no integer root
        assert integer_roots((1, 0, 0, 0, -(2**64 + 1)), 70000) == []
        for p, bound, named in (
            ((1, 0, 0, 0, -2.0**64 - 1.0), 70000, "takes p "),
            ((1.0, 0, 0, 0, -16), 5, "takes p "),
            ((True, 0, 0, 0, -1), 5, "takes p "),
            ((1, 0, 0, 0, -16), 5.0, "bound"),
            ((1, 0, 0, 0, -16), True, "bound"),
        ):
            with pytest.raises(ValueError, match=named):
                integer_roots(p, bound)

    def test_against_exhaustive_scan(self):
        rng = random.Random(5)
        for _ in range(400):
            lead = rng.choice([c for c in range(-9, 10) if c])
            poly = (lead, *(rng.randint(-9, 9) for _ in range(4)))
            bound = rng.randint(0, 60)
            assert integer_roots(poly, bound) == _scan_roots(poly, bound)

    def test_constructed_roots_are_recovered(self):
        rng = random.Random(17)
        for _ in range(200):
            r1, r2 = rng.randint(-40, 40), rng.randint(-40, 40)
            lead = rng.choice([1, 2, 3, -2])
            # lead * (y - r1)^2 (y - r2) * y
            p = [lead]
            for r in (r1, r1, r2, 0):
                p = p + [0]
                for i in range(len(p) - 1, 0, -1):
                    p[i] -= r * p[i - 1]
            poly = tuple(p)
            expected = sorted({r1, r2, 0})
            assert integer_roots(poly, 40) == expected


def _scan_between(coeffs, lo, hi):
    return [y for y in range(lo, hi + 1) if _poly_eval(coeffs, y) == 0]


def _expand(lead, roots):
    """Coefficients of lead * prod (y - r), highest degree first."""
    p = [lead]
    for r in roots:
        p = p + [0]
        for i in range(len(p) - 1, 0, -1):
            p[i] -= r * p[i - 1]
    return p


class TestIntegerRootsBetween:
    def test_random_polynomials_on_asymmetric_windows(self):
        rng = random.Random(29)
        for _ in range(600):
            coeffs = [rng.choice([-3, -2, -1, 1, 2, 3])]
            coeffs += [rng.randint(-40, 40) for _ in range(4)]
            lo = rng.randint(-50, 30)
            hi = lo + rng.randint(-2, 70)
            assert _integer_roots_between(coeffs, lo, hi) == _scan_between(coeffs, lo, hi)

    def test_constructed_double_roots_with_either_leading_sign(self):
        rng = random.Random(31)
        for _ in range(400):
            r1, r2, r3 = (rng.randint(-60, 60) for _ in range(3))
            lead = rng.choice([-5, -2, -1, 1, 3])
            coeffs = _expand(lead, (r1, r1, r2, r3))
            # windows that end on, just miss or straddle the double root
            for lo, hi in ((r1, r1), (r1 + 1, r1 + 40), (r1 - 40, r1 - 1), (r1 - rng.randint(0, 9), r2)):
                assert _integer_roots_between(coeffs, lo, hi) == _scan_between(coeffs, lo, hi)
            # clustered roots, so that roots of p, p' and p'' share a few unit cells
            coeffs = _expand(lead, (r1, r1, r1 + 1, r1 - rng.randint(1, 3)))
            assert _integer_roots_between(coeffs, r1 - 5, r1 + 5) == _scan_between(coeffs, r1 - 5, r1 + 5)

    def test_partner_quartics_up_to_norm_100(self):
        rng = random.Random(37)
        cases = []
        # known partners scaled up to |n| <= 100, so some windows hold roots
        for (n1, n2), (x, y) in (((1, 11), (-8, 34)), ((1, 11), (9, -23)), ((1, 8), (-15, 10)), ((1, 8), (16, -2))):
            for j in range(1, 10):
                for sign in (1, -1):
                    n = (sign * j * n1, sign * j * n2)
                    cases.append((n, sign * j * x, sign * j * y))
        while len(cases) < 400:
            n1, n2 = rng.randint(-100, 100), rng.randint(-100, 100)
            x = rng.randint(-300, 300)
            if n1 == 0 or n1 * n1 + n2 * n2 > 10000 or x in (0, n1):
                continue
            cases.append(((n1, n2), x, n2 + rng.randint(-200, 200)))
        for n, x, y in cases:
            coeffs = list(quartic_coeffs(n, x))
            lo, hi = y - rng.randint(0, 120), y + rng.randint(0, 120)
            assert _integer_roots_between(coeffs, lo, hi) == _scan_between(coeffs, lo, hi), (n, x)
            assert _integer_roots_between(coeffs, y + 1, hi) == _scan_between(coeffs, y + 1, hi), (n, x)

    def test_quartic_markers_hold_the_floors_of_the_p2_roots(self):
        # the roots (m -+ sqrt(disc)) / c of p''/2 = 6 a4 t^2 + 3 a3 t + a2
        # come from isqrt, so check their floors with the integer test t <= root
        rng = random.Random(41)
        for _ in range(1000):
            coeffs = [rng.choice([-4, -3, -1, 1, 2, 5])] + [rng.randint(-400, 400) for _ in range(4)]
            a4, a3, a2 = coeffs[:3] if coeffs[0] > 0 else [-c for c in coeffs[:3]]
            m, c, disc = -3 * a3, 12 * a4, 9 * a3 * a3 - 24 * a4 * a2
            if disc < 0:
                continue
            below_lower = lambda t: m - c * t >= 0 and (m - c * t) ** 2 >= disc
            below_upper = lambda t: c * t - m <= 0 or (c * t - m) ** 2 <= disc
            lo, hi = rng.randint(-60, 0), rng.randint(0, 60)
            floors = {
                t
                for t in range(lo, hi + 1)
                for below in (below_lower, below_upper)
                if below(t) and not below(t + 1)
            }
            assert floors <= set(_p2_floors(a4, a3, a2, lo, hi)), coeffs

    def test_cubic_markers_hold_the_floors_of_the_p1_roots(self):
        # the p' stage passes the cubic as the quartic (0, 4 a4, 3 a3, 2 a2, a1);
        # an integer sign scan of p' finds every root that it can see: an exact
        # zero, or a strict sign change across a unit cell
        rng = random.Random(43)
        cases = []
        for _ in range(600):
            cases.append([rng.choice([-4, -3, -1, 1, 2, 5])] + [rng.randint(-400, 400) for _ in range(4)])
        for _ in range(300):
            r1 = rng.randint(-40, 40)
            lead = rng.choice([-3, -1, 1, 2])
            cases.append(_expand(lead, (r1, r1, r1 + rng.randint(0, 2), r1 - rng.randint(0, 3))))
        seen = 0
        for coeffs in cases:
            a4, a3, a2, a1, _ = coeffs if coeffs[0] > 0 else [-c for c in coeffs]
            dp = lambda t: ((4 * a4 * t + 3 * a3) * t + 2 * a2) * t + a1
            lo, hi = rng.randint(-60, 0), rng.randint(0, 60)
            inherited = _p2_floors(a4, a3, a2, lo, hi)
            roots, markers = _refine_floors(0, 4 * a4, 3 * a3, 2 * a2, a1, inherited, lo, hi)
            zeros = [t for t in range(lo, hi + 1) if dp(t) == 0]
            crossings = [t for t in range(lo, hi) if dp(t) * dp(t + 1) < 0]
            assert roots == zeros, coeffs
            assert set(inherited) | set(zeros) | set(crossings) <= set(markers), coeffs
            seen += len(zeros) + len(crossings)
        assert seen > 500


class TestGaussianNormSolutions:
    def test_factor(self):
        assert _factor(1) == {}
        assert _factor(2) == {2: 1}
        assert _factor(360) == {2: 3, 3: 2, 5: 1}
        assert _factor(97 * 97 * 101) == {97: 2, 101: 1}
        with pytest.raises(ValueError):
            _factor(0)

    def test_equals_a_lattice_scan_for_every_norm_to_2000(self):
        scan = {}
        for x in range(-45, 46):
            for y in range(-45, 46):
                scan.setdefault(x * x + y * y, set()).add((x, y))
        for norm in range(1, 2001):
            solutions = gaussian_norm_solutions(_factor(norm))
            assert len(solutions) == len(set(solutions)), norm
            assert set(solutions) == scan.get(norm, set()), norm

    def test_split_primes(self):
        # every prime p = 1 (mod 4) below 20 000 is a^2 + b^2 with a, b > 0
        primes = [p for p in range(5, 20_000, 4) if _factor(p) == {p: 1}]
        assert len(primes) == 1_125
        for p in primes:
            a, b = _split_prime(p)
            assert a > 0 and b > 0 and a * a + b * b == p, p

    def test_odd_power_of_a_3_mod_4_prime_has_no_solution(self):
        assert gaussian_norm_solutions({3: 1}) == []
        assert gaussian_norm_solutions({5: 2, 7: 3}) == []
        assert sorted(gaussian_norm_solutions({3: 2})) == [(-3, 0), (0, -3), (0, 3), (3, 0)]

    def test_gaussian_sqrt_is_exact(self):
        for a in range(-25, 26):
            for b in range(-25, 26):
                assert _gaussian_sqrt((a * a - b * b, 2 * a * b)) in ((a, b), (-a, -b))
        squares = {(a * a - b * b, 2 * a * b) for a in range(-60, 61) for b in range(-60, 61)}
        for c1 in range(-40, 41):
            for c2 in range(-40, 41):
                z = _gaussian_sqrt((c1, c2))
                if (c1, c2) in squares:
                    assert (z[0] * z[0] - z[1] * z[1], 2 * z[0] * z[1]) == (c1, c2)
                else:
                    assert z is None, (c1, c2)
