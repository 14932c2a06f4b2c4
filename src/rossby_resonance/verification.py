"""Verification of the number-theoretic resonance claims.

The lemma and axis verifiers decide every case of an exhaustive range;
check_proof_identity samples columns (n1, x) and decides each exactly. Each
records any counterexample and reports counts and wall time. An empty
counterexample list is the expected outcome for every claim; the harness
makes that checkable at any desk-scale bound rather than taken on faith.

Both the lemma and the axis check run on one search,
_coprime_lemma_solutions, the coprime pairs with X^4 + X^2 Y^2 + Y^4 a
square, found among the primitive 120 degree pairs. The lemma check scales
each by d; the axis check maps each to the zonal wavenumbers (n1, 0)
that would have partners, by the paper's reduction of the on-axis quartic
to the lemma. The pair sweep _lemma_sweep and, for the axis, partner_search's
naive_partner_oracle and exact_core's Gaussian norm solver _norm_hits are
the oracles that tests compare them with.
"""

from __future__ import annotations

import random
import time
from math import gcd, isqrt
from typing import Iterator, NamedTuple

from .exact_core import ResonantTriad, Wavenumber, quartic_coeffs


class VerificationReport(NamedTuple):
    claim: str
    bounds: dict
    checked: int
    counterexamples: list
    wall_time_ms: float
    seed: int | None = None

    def to_json_dict(self) -> dict:
        doc = self._asdict()
        if self.seed is None:
            del doc["seed"]
        return doc


def _primitive_120_pairs(b_max: int) -> Iterator[tuple[int, int, int]]:
    """(x, y, z) with gcd(x, y) = 1, 1 <= x < y <= b_max and
    x^2 + xy + y^2 = z^2: the primitive integer triangles with a 120 degree
    angle, unordered.

    The conic X^2 + XY + Y^2 = 1 holds (-1, 0), and the line
    Y = t (X + 1) meets it again at X = (1 - t^2)/(1 + t + t^2),
    Y = (2t + t^2)/(1 + t + t^2). So a primitive solution with x, y > 0 has
    t = y/(x + z) = n/m in lowest terms with 0 < n < m (y < z), and is
    (m^2 - n^2, 2mn + n^2, m^2 + mn + n^2)/g with g the gcd of the three.
    A prime p | g divides y = n (2m + n) and z - x = n (m + 2n) but not n
    (else p | m^2), so p | 2 (m + 2n) - (2m + n) = 3n and p = 3. 9 | g
    would need m = n + 3k with 3 | k, from 9 | x = 3k (2n + 3k), and then
    3 | n, from 9 | y = 3n (n + 2k); so g is 3 when m = n (mod 3) and 1
    otherwise. Each t gives one ordered pair, so keeping x < y lists each
    unordered pair once (x = y = 1 gives 3, no square). With g <= 3, y <= b_max needs 2mn + n^2 <= 3 b_max, which
    grows with n, and x < y makes m^2 = g x + n^2 <= 2 g y <= 6 b_max.
    """
    for m in range(2, isqrt(6 * b_max) + 1):
        for n in range(1, m):
            if 2 * m * n + n * n > 3 * b_max:
                break
            g = 3 if (m - n) % 3 == 0 else 1
            x, y = (m * m - n * n) // g, (2 * m * n + n * n) // g
            if x < y <= b_max and gcd(m, n) == 1:
                yield x, y, (m * m + m * n + n * n) // g


def _lemma_sweep(b_max: int) -> list[tuple[int, int, int]]:
    """Brute-force oracle for verify_diophantine_lemma: (x, y, r) for every
    1 <= x <= y <= b_max with x^4 + x^2 y^2 + y^4 = r^2."""
    counterexamples = []
    for x in range(1, b_max + 1):
        x2 = x * x
        x4 = x2 * x2
        for y in range(x, b_max + 1):
            y2 = y * y
            val = x4 + x2 * y2 + y2 * y2
            r = isqrt(val)
            if r * r == val:
                counterexamples.append((x, y, r))
    return counterexamples


def _coprime_lemma_solutions(b_max: int) -> Iterator[tuple[int, int, int]]:
    """(x, y, r) with gcd(x, y) = 1, 1 <= x < y <= b_max and
    x^4 + x^2 y^2 + y^4 = r^2: the search that both the lemma and the axis
    check run.

    For coprime x, y the value is A B with A = x^2 + xy + y^2 and
    B = x^2 - xy + y^2. Both are odd, since x and y are not both even. A
    common prime factor p would divide A - B = 2xy and A + B =
    2 (x^2 + y^2), so p divides x or y and then both. So A and B are
    coprime, and A B is a square exactly when A and B both are. The pairs
    with A = z^2 are _primitive_120_pairs, and each is kept when the exact
    square test finds B = t^2, with r = z t. x = y = 1 gives 3, no square,
    so x < y loses nothing.
    """
    for x, y, z in _primitive_120_pairs(b_max):
        t = isqrt(x * x - x * y + y * y)
        if t * t == x * x - x * y + y * y:
            yield x, y, z * t


def verify_diophantine_lemma(b_max: int) -> VerificationReport:
    """X^4 + X^2 Y^2 + Y^4 is never a perfect square for 1 <= X <= Y <= b_max.

    X = 0 or Y = 0 always give squares and are the excluded trivial
    solutions. Every pair is decided, so checked is b_max (b_max + 1)/2,
    but only the coprime pairs are searched: a pair d (x, y) with
    gcd(x, y) = 1 gives d^4 times the value of (x, y), so it is a square
    exactly when that one is, and each coprime solution of
    _coprime_lemma_solutions is reported with all its multiples d.
    """
    if b_max < 1:
        raise ValueError("b_max must be >= 1")
    t0 = time.perf_counter()
    counterexamples = [
        (d * x, d * y, d * d * r)
        for x, y, r in _coprime_lemma_solutions(b_max)
        for d in range(1, b_max // y + 1)
    ]
    return VerificationReport(
        claim="quartic-form-never-square",
        bounds={"b_max": b_max},
        checked=b_max * (b_max + 1) // 2,
        counterexamples=sorted(counterexamples),
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
    )


def verify_axis_theorem(n1_max: int) -> VerificationReport:
    """No purely zonal wavenumber admits a non-trivial resonant decomposition.

    Every (n1, 0) with n1 in [1, n1_max] is decided, and checked counts
    these n1; negative n1 follows from the zonal mirror symmetry. No column
    and no norm equation is solved: the paper reduces the on-axis quartic
    to the lemma.

    - For n1 > 0 the partner quartic of (n1, 0) in the column x is
      n1 ((y^2 - w)^2 - n1^2 w) with w = x (n1 - x) (check_proof_identity).
      A root needs n1^2 w to be a square, so w = s^2 with s > 0 and
      0 < x < n1, since x = 0 and x = n1 are trivial.
    - Let g = gcd(x, n1 - x). The cofactors x/g and (n1 - x)/g are coprime
      with a square product, so x = g p^2 and n1 - x = g q^2 with
      gcd(p, q) = 1, and s = g p q. A root has y^2 = s (s +- n1), and the
      minus branch is negative, because s = g p q < g (p^2 + q^2) = n1.
    - So y^2 = s (s + n1) = g^2 p q (p^2 + p q + q^2). A prime of p q
      divides p or q but then not p^2 + p q + q^2, so the two factors are
      coprime squares: p = X^2, q = Y^2 and X^4 + X^2 Y^2 + Y^4 = r^2.
    - Conversely such coprime X, Y >= 1 and any g >= 1 give the root
      y = +-g X Y r in the column x = g X^4 of n1 = g (X^4 + Y^4), and by
      the symmetry of p and q in the column x = g Y^4.

    So (n1, 0) has a partner exactly when n1 = g (X^4 + Y^4) for a coprime
    lemma solution, and its partners are then (g X^4, +-g X Y r) and
    (g Y^4, +-g X Y r). Y^4 < n1 <= n1_max bounds the search at
    Y <= isqrt(isqrt(n1_max)), the fourth root of n1_max rounded down.
    That x^4 + x^2 y^2 + y^4 = z^2 has no solution with xy != 0 is a
    classical result (see for example Mordell, Diophantine Equations,
    1969); it implies the claim for every n1, and this sweep checks the
    claim up to n1_max without assuming it.
    """
    if n1_max < 1:
        raise ValueError("n1_max must be >= 1")
    t0 = time.perf_counter()
    counterexamples = [
        (g * (x**4 + y**4), g * leg, sign * g * x * y * r)
        for x, y, r in _coprime_lemma_solutions(isqrt(isqrt(n1_max)))
        for g in range(1, n1_max // (x**4 + y**4) + 1)
        for leg in (x**4, y**4) for sign in (-1, 1)
    ]
    return VerificationReport(
        claim="axis-exclusion",
        bounds={"n1_max": n1_max},
        checked=n1_max,
        counterexamples=sorted(counterexamples),
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
    )


def _family_triads(m_max: int, l_max: int) -> Iterator[tuple[Wavenumber, ResonantTriad]]:
    """(n, canonical triad) of each member of the family, m-major order.

    Every member is resonant by an identity that the test suite decides
    exactly (test_family_is_resonant), so no member is tested here; the
    ResonantTriad constructor still refuses a pair that is not resonant.
    """
    if m_max < 1 or l_max < 1:
        raise ValueError("m_max and l_max must be >= 1")
    for m in range(1, m_max + 1):
        for l in range(1, l_max + 1):
            if m == l:
                continue
            n = Wavenumber(m**4, m * l**3)
            k = Wavenumber(l**4, -(m**3) * l)
            yield n, ResonantTriad(k, n - k, -n)


def generate_family(m_max: int, l_max: int) -> list[ResonantTriad]:
    """The two-parameter family n = (m^4, m l^3), partner (l^4, -m^3 l).

    Every pair 1 <= m <= m_max, 1 <= l <= l_max with m != l is resonant:
    the residual numerator of (m^4, m l^3) and (l^4, -m^3 l) is the zero
    polynomial in m and l, which test_family_is_resonant decides exactly.
    """
    return [triad for _, triad in _family_triads(m_max, l_max)]


def check_proof_identity(sample_count: int, bound: int, seed: int = 0) -> VerificationReport:
    """The on-axis reduction, decided on seeded random columns (n1, x).

    With w = x (n1 - x), the quartic of (n1, 0) is, as a polynomial in y,

        n1 ((y^2 - w)^2 - n1^2 w) = n1 y^4 - 2 w n1 y^2 + n1 (w^2 - n1^2 w).

    Comparing the five coefficients of quartic_coeffs((n1, 0), x) with these
    decides a column for every y at once; a mismatch is reported as (n1, x).
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if bound < 2:
        raise ValueError("bound must be >= 2")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    counterexamples = []
    for _ in range(sample_count):
        n1 = 0
        while n1 == 0:
            n1 = rng.randint(-bound, bound)
        x = 0
        while x == 0 or x == n1:
            x = rng.randint(-bound, bound)
        w = x * (n1 - x)
        if quartic_coeffs((n1, 0), x) != (n1, 0, -2 * w * n1, 0, n1 * (w * w - n1 * n1 * w)):
            counterexamples.append((n1, x))
    return VerificationReport(
        claim="on-axis-quartic-identity",
        bounds={"sample_count": sample_count, "bound": bound},
        checked=sample_count,
        counterexamples=counterexamples,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        seed=seed,
    )
