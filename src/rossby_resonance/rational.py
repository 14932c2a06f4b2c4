"""Exact rational values of the dispersion surrogate and the resonance residual.

These are the package's only users of fractions.Fraction; the verdicts in
exact_core need none. Keeping them here means that only the check command
pays for importing fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .exact_core import _check_admissible, _residual_numden


def sigma(n) -> Fraction:
    """Dispersion surrogate n1 / (n1^2 + n2^2) in lowest terms."""
    n1, n2 = n
    b = n1 * n1 + n2 * n2
    if b == 0:
        raise ValueError("sigma is undefined for the zero wavenumber")
    return Fraction(n1, b)


def residual(n, k) -> Fraction:
    """sigma(n) - sigma(k) - sigma(n-k) as an exact reduced fraction."""
    n1, n2 = n
    x, y = k
    _check_admissible(n1, x)
    num, den = _residual_numden(n1, n2, x, y)
    return Fraction(num, den)
