"""Algebraic invariants checked over randomized inputs.

The acceptance module runs the same properties with its own fixed-seed
driver; here hypothesis explores the space more adaptively (derandomized so
CI runs are reproducible).
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rossby_resonance.exact_core import (
    QuarticPoly,
    Wavenumber,
    _poly_eval,
    _residual_numden,
    canonical_triad,
    integer_roots,
    is_resonant,
    quartic_coeffs,
)
from rossby_resonance.rational import ReducedFraction, residual

components = st.integers(min_value=-50, max_value=50)


@st.composite
def admissible_pairs(draw):
    n1 = draw(components.filter(lambda v: v != 0))
    n2 = draw(components)
    x = draw(components.filter(lambda v: v != 0))
    assume(x != n1)
    y = draw(components)
    return Wavenumber(n1, n2), Wavenumber(x, y)


@given(admissible_pairs())
@settings(max_examples=1000, derandomize=True)
def test_leg_symmetry(pair):
    n, k = pair
    assert residual(n, k) == residual(n, n - k)


@given(admissible_pairs())
@settings(max_examples=1000, derandomize=True)
def test_negation_symmetry(pair):
    n, k = pair
    assert residual(-n, -k) == -residual(n, k)
    assert is_resonant(-n, -k) == is_resonant(n, k)


@given(admissible_pairs())
@settings(max_examples=1000, derandomize=True)
def test_meridional_mirror(pair):
    n, k = pair
    assert residual(n.mirror(), k.mirror()) == residual(n, k)


@given(admissible_pairs())
@settings(max_examples=1000, derandomize=True)
def test_zonal_mirror(pair):
    n, k = pair
    flipped_n = Wavenumber(-n.n1, n.n2)
    flipped_k = Wavenumber(-k.n1, k.n2)
    assert residual(flipped_n, flipped_k) == -residual(n, k)
    assert is_resonant(flipped_n, flipped_k) == is_resonant(n, k)


@given(admissible_pairs(), st.sampled_from([2, 3, 5]))
@settings(max_examples=1000, derandomize=True)
def test_scaling_closure(pair, j):
    n, k = pair
    assert residual(j * n, j * k) * j == residual(n, k)
    assert is_resonant(j * n, j * k) == is_resonant(n, k)


@given(admissible_pairs())
@settings(max_examples=1000, derandomize=True)
def test_residual_zero_iff_resonant(pair):
    n, k = pair
    res = residual(n, k)
    assert (res == 0) == is_resonant(n, k)
    if res == 0:
        assert str(res) == "0/1"


@given(admissible_pairs())
@settings(max_examples=1000, derandomize=True)
def test_quartic_equals_residual_numerator(pair):
    n, k = pair
    num, _ = _residual_numden(n.n1, n.n2, k.n1, k.n2)
    poly = quartic_coeffs(n, k.n1)
    assert _poly_eval(poly, k.n2) == num
    assert (_poly_eval(poly, k.n2) == 0) == is_resonant(n, k)


small = st.integers(min_value=-200, max_value=200)
nonzero_den = st.integers(min_value=-200, max_value=200).filter(lambda v: v != 0)


@given(small, nonzero_den, small, nonzero_den)
@settings(max_examples=500, derandomize=True)
def test_reduced_fraction_arithmetic_cross_multiplied(a, b, c, d):
    lhs = ReducedFraction(a, b)
    rhs = ReducedFraction(c, d)
    for op, num, den in [
        (lhs + rhs, a * d + c * b, b * d),
        (lhs - rhs, a * d - c * b, b * d),
        (lhs * rhs, a * c, b * d),
    ]:
        g = math.gcd(abs(num), abs(den))
        if g:
            num, den = num // g, den // g
        if den < 0:
            num, den = -num, -den
        assert (op.numerator, op.denominator) == (num, den)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
       st.booleans(), st.booleans())
@settings(max_examples=300, derandomize=True)
def test_canonical_triad_is_presentation_invariant(m, l, j, mirror, negate):
    assume(m != l)
    n = Wavenumber(m**4, m * l**3) * j
    k = Wavenumber(l**4, -(m**3) * l) * j
    if mirror:
        n, k = n.mirror(), k.mirror()
    if negate:
        n, k = -n, -k
    triad = canonical_triad(n, k)
    for member in triad.members():
        others = [w for w in triad.members() if w != member]
        assert canonical_triad(-member, others[0]) == triad


@given(st.tuples(st.integers(-15, 15).filter(bool), *(st.integers(-15, 15) for _ in range(4))),
       st.integers(0, 40))
@settings(max_examples=1000, derandomize=True)
def test_integer_roots_complete(coeffs, bound):
    poly = QuarticPoly(*coeffs)
    expected = [y for y in range(-bound, bound + 1) if _poly_eval(poly, y) == 0]
    assert integer_roots(poly, bound) == expected


@given(admissible_pairs())
@settings(max_examples=500, derandomize=True)
def test_sigma_additivity_of_resonance(pair):
    """residual is literally sigma(n) - sigma(k) - sigma(n - k)."""
    n, k = pair
    expected = (
        Fraction(n.n1, n.norm2())
        - Fraction(k.n1, k.norm2())
        - Fraction((n - k).n1, (n - k).norm2())
    )
    assert residual(n, k) == expected


@st.composite
def resonant_or_random_pairs(draw):
    """An admissible pair, half the time a scaled, mirrored or negated member
    of the (m^4, m l^3) family, so that resonant pairs are drawn too."""
    if draw(st.booleans()):
        return draw(admissible_pairs())
    m, l = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    assume(m != l)
    j = draw(st.integers(1, 3))
    n = Wavenumber(m**4, m * l**3) * j
    k = Wavenumber(l**4, -(m**3) * l) * j
    if draw(st.booleans()):
        n, k = n.mirror(), k.mirror()
    if draw(st.booleans()):
        n, k = -n, -k
    if draw(st.booleans()):
        k = n - k
    return n, k


@given(resonant_or_random_pairs())
@settings(max_examples=1000, derandomize=True)
def test_resonance_is_the_gaussian_norm_equation(pair):
    """With b = |n|^2 and Z = 2k - n read as Gaussian integers, resonance
    holds exactly when |n1 Z^2 + n (2b - n1 n)|^2 = 4 b^3."""
    n, k = pair
    b = n.norm2()
    z1, z2 = 2 * k.n1 - n.n1, 2 * k.n2 - n.n2
    w1, w2 = 2 * b - n.n1 * n.n1, -n.n1 * n.n2  # 2b - n1 n
    g1 = n.n1 * (z1 * z1 - z2 * z2) + n.n1 * w1 - n.n2 * w2
    g2 = n.n1 * (2 * z1 * z2) + n.n1 * w2 + n.n2 * w1
    assert is_resonant(n, k) == (g1 * g1 + g2 * g2 == 4 * b**3)
