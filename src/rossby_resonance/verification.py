"""Exhaustive verification of the number-theoretic resonance claims.

Each verifier sweeps an exhaustive range, records any counterexample, and
reports counts and wall time. An empty counterexample list is the expected
outcome for every claim; the harness exists to make that checkable at any
desk-scale bound rather than taken on faith.

The axis check solves the Gaussian norm equation of partner_search's
_norm_hits at each (n1, 0); checked counts the cells of its search disk.
The brute-force disk scan, naive_partner_oracle, is only the oracle that
tests compare it with.
"""

from __future__ import annotations

import random
import time
from math import isqrt
from typing import Iterator, NamedTuple

from .exact_core import (
    ResonantTriad,
    Wavenumber,
    _factor,
    _poly_eval,
    canonical_triad,
    is_resonant,
    quartic_coeffs,
)
from .partner_search import _norm_hits


class VerificationReport(NamedTuple):
    claim: str
    bounds: dict
    checked: int
    counterexamples: list
    wall_time_ms: float
    seed: int | None = None

    @property
    def consistent(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        doc = self._asdict()
        if self.seed is None:
            del doc["seed"]
        return doc


def _axis_disk_cells(n1: int) -> int:
    """The cells of partner_search._disk_columns((n1, 0)): the radius is
    2 n1, the columns x and -x are counted as a pair over x >= 1, and the
    column x = n1 is taken out."""
    r2 = 4 * n1 * n1
    half = sum(2 * isqrt(r2 - x * x) + 1 for x in range(1, 2 * n1 + 1))
    return 2 * half - (2 * isqrt(r2 - n1 * n1) + 1)


def verify_axis_theorem(n1_max: int) -> VerificationReport:
    """No purely zonal wavenumber admits a non-trivial resonant decomposition.

    For every n1 in [1, n1_max] every admissible (x, y) of the search disk
    of (n1, 0) is decided non-resonant; checked counts those disk cells.
    Negative n1 follows from the zonal mirror symmetry. The cells are
    decided at once by the norm equation of _norm_hits, which lists every
    partner of (n1, 0) from the Gaussian integers of norm 4 n1^6; since
    b = n1^2, the factors of n1 with doubled exponents give them, and no
    cell is tested on its own.
    """
    if n1_max < 1:
        raise ValueError("n1_max must be >= 1")
    t0 = time.perf_counter()
    checked = 0
    counterexamples: list = []
    for n1 in range(1, n1_max + 1):
        checked += _axis_disk_cells(n1)
        hits = sorted(_norm_hits((n1, 0), {p: 2 * e for p, e in _factor(n1).items()}))
        counterexamples.extend((n1, x, y) for x, y in hits)
    return VerificationReport(
        claim="axis-exclusion",
        bounds={"n1_max": n1_max},
        checked=checked,
        counterexamples=counterexamples,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
    )


def verify_diophantine_lemma(b_max: int) -> VerificationReport:
    """X^4 + X^2 Y^2 + Y^4 is never a perfect square for 1 <= X <= Y <= b_max.

    X = 0 or Y = 0 always give squares and are the excluded trivial
    solutions. Perfect squares are detected with the exact integer square
    root; only even powers appear, so negative values need no extra sweep.
    """
    if b_max < 1:
        raise ValueError("b_max must be >= 1")
    t0 = time.perf_counter()
    checked = 0
    counterexamples = []
    for x in range(1, b_max + 1):
        x2 = x * x
        x4 = x2 * x2
        for y in range(x, b_max + 1):
            y2 = y * y
            val = x4 + x2 * y2 + y2 * y2
            checked += 1
            r = isqrt(val)
            if r * r == val:
                counterexamples.append((x, y, r))
    return VerificationReport(
        claim="quartic-form-never-square",
        bounds={"b_max": b_max},
        checked=checked,
        counterexamples=counterexamples,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
    )


def _family_triads(m_max: int, l_max: int) -> Iterator[tuple[Wavenumber, ResonantTriad]]:
    """(n, canonical triad) of each member of the family, m-major order."""
    if m_max < 1 or l_max < 1:
        raise ValueError("m_max and l_max must be >= 1")
    for m in range(1, m_max + 1):
        for l in range(1, l_max + 1):
            if m == l:
                continue
            n = Wavenumber(m**4, m * l**3)
            k = Wavenumber(l**4, -(m**3) * l)
            if not is_resonant(n, k):
                raise RuntimeError(
                    f"family member m={m}, l={l} failed the exact resonance check"
                )
            yield n, canonical_triad(n, k)


def generate_family(m_max: int, l_max: int) -> list[ResonantTriad]:
    """The two-parameter family n = (m^4, m l^3), partner (l^4, -m^3 l).

    Every pair 1 <= m <= m_max, 1 <= l <= l_max with m != l is resonant by
    an exact algebraic identity; a failing member would be a contract
    violation, not a data point, hence the hard error.
    """
    return [triad for _, triad in _family_triads(m_max, l_max)]


def check_proof_identity(sample_count: int, bound: int, seed: int = 0) -> VerificationReport:
    """Algebraic reduction used for the on-axis case, checked at random points.

    For admissible (n1, x) and any y the on-axis quartic satisfies

        y^4 - 2 x (n1-x) y^2 + x^2 (n1-x)^2 - n1^2 x (n1-x)
            = (y^2 - x (n1-x))^2 - n1^2 x (n1-x),

    and quartic_coeffs((n1, 0), x) equals n1 times that polynomial, with the
    odd coefficients vanishing. Sampling is seeded for reproducible reports.
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
        y = rng.randint(-bound, bound)

        u = n1 - x
        w = x * u
        lhs = y**4 - 2 * w * y * y + w * w - n1 * n1 * w
        rhs = (y * y - w) ** 2 - n1 * n1 * w
        poly = quartic_coeffs((n1, 0), x)
        reduced_ok = (
            poly.a3 == 0
            and poly.a1 == 0
            and poly == (n1, 0, -2 * w * n1, 0, n1 * (w * w - n1 * n1 * w))
            and _poly_eval(poly, y) == n1 * lhs
        )
        if lhs != rhs or not reduced_ok:
            counterexamples.append((n1, x, y))
    return VerificationReport(
        claim="on-axis-quartic-identity",
        bounds={"sample_count": sample_count, "bound": bound},
        checked=sample_count,
        counterexamples=counterexamples,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        seed=seed,
    )
