"""Algebraic invariants of the exact kernel: polynomial identities decided
exactly on finite grids, and the properties that are not identities checked
over randomized inputs.

The grid argument. A polynomial in variables v1..vk whose degree in each
variable is at most D, and which vanishes at every point of a product
S1 x ... x Sk with more than D values in each Si, is the zero polynomial.
Read it as a polynomial in v1 whose coefficients are polynomials in
v2..vk: at each point of S2 x ... x Sk it has more than D roots in S1, so
every coefficient vanishes on that smaller grid, and induction on k ends
the proof. So an identity between two polynomials of
degree at most D in each variable is proved by evaluating both sides on
such a grid. _residual_numden, quartic_coeffs and _poly_eval are
branch-free integer code, sums and products whose course does not depend on
the values (quartic_coeffs' admissibility check only raises, and no grid
point here is trivial), so on every input they return the values of fixed
polynomials, and each check below states the degree bound of its identity.
The argument is only as sound as that: a branch on the data, such as a
term added when 7 | x, is not a polynomial and can hide between grid
points. The acceptance suite's criterion 7 therefore still samples the same
invariants over -50..50, through the residual and is_resonant wrappers.

The common grid: n1 in 1..7 and x in -1..-7, so x is never 0 or n1, and
n2, y in 0..6. Every residual expression has total degree at most 6, so
7 values per variable decide it.

The hypothesis properties below are not polynomial identities; hypothesis
explores them adaptively (derandomized so CI runs are reproducible).
"""

import math
from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rossby_resonance.exact_core import (
    ResonantTriad,
    Wavenumber,
    _poly_eval,
    _residual_numden,
    integer_roots,
    is_resonant,
    quartic_coeffs,
    residual,
    sigma,
)

N1 = range(1, 8)
X = range(-1, -8, -1)
N2 = Y = range(0, 7)


def _grid(degree, *axes):
    """The product of axes, each with more values than degree, on which an
    identity of at most that degree in each variable is decided."""
    assert all(len(axis) > degree for axis in axes)
    return product(*axes)


def test_quartic_equals_residual_numerator():
    # degree 5: a0 and n1 y^4 are quintic, as is the numerator
    for n1, n2, x, y in _grid(5, N1, N2, X, Y):
        num, _ = _residual_numden(n1, n2, x, y)
        assert _poly_eval(quartic_coeffs((n1, n2), x), y) == num


def test_sigma_additivity_of_resonance():
    """The residual is literally sigma(n) - sigma(k) - sigma(n - k)
    = n1/b - x/d - u/f, cross-multiplied. Degree 6: b d f."""
    for n1, n2, x, y in _grid(6, N1, N2, X, Y):
        u, v = n1 - x, n2 - y
        b, d, f = n1 * n1 + n2 * n2, x * x + y * y, u * u + v * v
        assert _residual_numden(n1, n2, x, y) == (n1 * d * f - x * b * f - u * b * d, b * d * f)


def _assert_symmetry(image, sign):
    # the maps are linear, so both sides keep degree 6 (the denominator)
    for point in _grid(6, N1, N2, X, Y):
        num, den = _residual_numden(*point)
        assert _residual_numden(*image(*point)) == (sign * num, den)


def test_leg_symmetry():
    _assert_symmetry(lambda n1, n2, x, y: (n1, n2, n1 - x, n2 - y), 1)


def test_negation_symmetry():
    _assert_symmetry(lambda n1, n2, x, y: (-n1, -n2, -x, -y), -1)


def test_meridional_mirror():
    _assert_symmetry(lambda n1, n2, x, y: (n1, -n2, x, -y), 1)


def test_zonal_mirror():
    _assert_symmetry(lambda n1, n2, x, y: (-n1, n2, -x, y), -1)


def test_scaling_closure():
    # sigma(j n) = sigma(n)/j; degree 6 in each variable, j included
    for n1, n2, x, y, j in _grid(6, N1, N2, X, Y, range(2, 9)):
        num, den = _residual_numden(n1, n2, x, y)
        assert _residual_numden(j * n1, j * n2, j * x, j * y) == (j**5 * num, j**6 * den)


def test_resonance_is_the_gaussian_norm_equation():
    """With b = |n|^2 and Z = 2k - n read as Gaussian integers,
    |n1 Z^2 + n (2b - n1 n)|^2 - 4 b^3 = 16 n1 num, so for n1 != 0 resonance
    holds exactly when the norm is 4 b^3. Degree 6: |G|^2 and b^3."""
    for n1, n2, x, y in _grid(6, N1, N2, X, Y):
        b = n1 * n1 + n2 * n2
        z1, z2 = 2 * x - n1, 2 * y - n2
        w1, w2 = 2 * b - n1 * n1, -n1 * n2  # 2b - n1 n
        g1 = n1 * (z1 * z1 - z2 * z2) + n1 * w1 - n2 * w2
        g2 = n1 * (2 * z1 * z2) + n1 * w2 + n2 * w1
        num, _ = _residual_numden(n1, n2, x, y)
        assert g1 * g1 + g2 * g2 - 4 * b**3 == 16 * n1 * num


def test_on_axis_quartic():
    """quartic_coeffs((n1, 0), x) is n1 ((y^2 - w)^2 - n1^2 w) with
    w = x (n1 - x), the form that reduces the axis claim to the lemma.
    Degree 5: n1 w^2 and n1^3 w."""
    for n1, x in _grid(5, N1, X):
        w = x * (n1 - x)
        assert quartic_coeffs((n1, 0), x) == (n1, 0, -2 * w * n1, 0, n1 * (w * w - n1 * n1 * w))


def test_family_is_resonant():
    """n = (m^4, m l^3) and k = (l^4, -m^3 l) are resonant for all m, l:
    the numerator is homogeneous of degree 20 in (m, l), so at most 20 in
    each, and generate_family needs no run-time check."""
    for m, l in _grid(20, range(1, 22), range(1, 22)):
        assert _residual_numden(m**4, m * l**3, l**4, -(m**3) * l)[0] == 0


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
def test_residual_zero_iff_resonant(pair):
    n, k = pair
    res = residual(n, k)
    assert (res == 0) == is_resonant(n, k)
    if res == 0:
        assert (res.numerator, res.denominator) == (0, 1)


@given(admissible_pairs())
@settings(max_examples=500, derandomize=True)
def test_reduced_fraction_arithmetic_cross_multiplied(pair):
    # residual reduces the cross-multiplied numerator and denominator, and
    # equals the Fraction arithmetic of the three sigma values
    n, k = pair
    num, den = _residual_numden(n.n1, n.n2, k.n1, k.n2)
    g = math.gcd(num, den)
    res = residual(n, k)
    assert (res.numerator, res.denominator) == (num // g, den // g)
    assert res == sigma(n) - sigma(k) - sigma(n - k)


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
    triad = ResonantTriad(k, n - k, -n)
    for member in triad:
        others = [w for w in triad if w != member]
        assert ResonantTriad(others[0], -member - others[0], member) == triad


@given(st.tuples(st.integers(-15, 15).filter(bool), *(st.integers(-15, 15) for _ in range(4))),
       st.integers(0, 40))
@settings(max_examples=1000, derandomize=True)
def test_integer_roots_complete(coeffs, bound):
    expected = [y for y in range(-bound, bound + 1) if _poly_eval(coeffs, y) == 0]
    assert integer_roots(coeffs, bound) == expected
