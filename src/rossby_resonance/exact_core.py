"""Exact integer kernel for Rossby-wave triad resonance.

Every resonance verdict in this package reduces to integer identities over
Python's arbitrary-precision integers. A wavenumber n = (n1, n2) carries the
dispersion surrogate

    sigma(n) = n1 / (n1^2 + n2^2),

which equals the angular frequency up to a fixed negative multiple of the
beta parameter; since that factor scales every term of a resonance relation
identically, it never affects a verdict and is dropped throughout.

A pair (n, k) is a non-trivial resonance when n1, k1 and n1 - k1 are all
nonzero and sigma(n) - sigma(k) - sigma(n - k) = 0 exactly. Cross-multiplying
the three fractions turns that relation, for fixed n and first component x of
k, into a quartic in the second component y with integer coefficients; the
quartic is the workhorse of the fast partner search. Read as Gaussian
integers, the same relation is a norm equation whose solutions the
factorisation of |n|^2 lists (gaussian_norm_solutions), with no columns;
_norm_hits keeps the solutions that are partners. No command runs it yet:
it is the oracle that tests compare the partner search and the axis
verifier with.

No floating point appears anywhere on a verdict path, and no rational
either: every verdict is decided in integers. Only the two values that the
check command prints, sigma and residual, are fractions.Fraction; each
imports fractions in its body, so importing this module loads none. The
entry points take ints only: anything else raises ValueError naming the
argument. A wavenumber component goes through _check_ints,
"n takes ints, not float: got 1.0", and a count or bound through
_check_count, "max_norm must be an integer >= 1, got True".
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction


class TrivialInteractionError(ValueError):
    """An interaction term has a zero zonal component.

    ``which`` names the offending quantity: "n1", "x" or "n1 - x".
    """

    def __init__(self, which: str):
        super().__init__(f"trivial interaction: {which} = 0")
        self.which = which


class Wavenumber(NamedTuple):
    """2D integer lattice point: zonal (n1) and meridional (n2) components."""

    n1: int
    n2: int

    def __add__(self, other) -> "Wavenumber":
        return Wavenumber(self.n1 + other[0], self.n2 + other[1])

    def __sub__(self, other) -> "Wavenumber":
        return Wavenumber(self.n1 - other[0], self.n2 - other[1])

    def __neg__(self) -> "Wavenumber":
        return Wavenumber(-self.n1, -self.n2)

    def __mul__(self, factor: int) -> "Wavenumber":
        return Wavenumber(self.n1 * factor, self.n2 * factor)

    __rmul__ = __mul__

    def norm2(self) -> int:
        """Squared Euclidean norm n1^2 + n2^2."""
        return self.n1 * self.n1 + self.n2 * self.n2

    def mirror(self) -> "Wavenumber":
        """Meridional reflection (n1, -n2)."""
        return Wavenumber(self.n1, -self.n2)


def sign_class(w) -> Wavenumber:
    """The sign class {w, -w}, represented by its member with n1 > 0.

    sigma is odd in n, so w resonates exactly when -w does.
    """
    w = Wavenumber(*w)
    _check_ints("w", *w)
    if w.n1 == 0:
        raise ValueError("sign-classes require a nonzero zonal component")
    return w if w.n1 > 0 else -w


class _TriadFields(NamedTuple):
    a: Wavenumber
    b: Wavenumber
    c: Wavenumber


class ResonantTriad(_TriadFields):
    """Zero-sum triple of wavenumbers in exact resonance, in canonical form.

    The members may be given in any order and either sign: the constructor
    sorts them and stores the lexicographically smaller of the sorted triple
    and its sorted negation; a resonant pair (n, k) gives the triad
    ResonantTriad(k, n - k, -n). Invariants, enforced at construction,
    unpickling, _make and _replace: the members sum to (0, 0) componentwise,
    every member has a nonzero zonal component, and (-c, a) passes
    is_resonant. Hash and order are those of (a, b, c).
    """

    __slots__ = ()

    def __new__(cls, a, b, c):
        members = sorted(Wavenumber(*m) for m in (a, b, c))
        self = super().__new__(cls, *min(members, sorted(-m for m in members)))
        total = self.a + self.b + self.c
        if total != (0, 0):
            raise ValueError(f"triad members must sum to zero, got {total}")
        if any(m.n1 == 0 for m in self):
            raise ValueError("triad members must have nonzero zonal components")
        if not is_resonant(-self.c, self.a):
            raise ValueError("triad is not resonant: sigma values do not sum to zero")
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def mirrored(self) -> "ResonantTriad":
        """The meridionally reflected triad, re-canonicalized."""
        return ResonantTriad(*(m.mirror() for m in self))


def _check_ints(name: str, *values) -> None:
    """The guard for wavenumber components and a seed: ValueError naming the
    argument unless every value is an int. A bool or a float would give a
    verdict or a value that no integer input has."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{name} takes ints, not {type(v).__name__}: got {v!r}")


def _check_count(name: str, value, minimum: int = 1) -> None:
    """The guard for a count or bound: ValueError naming the argument unless
    value is an int, not a bool, and at least minimum."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_source(n) -> tuple[int, int]:
    """The components (n1, n2) of a partner-search source n: ints, n1 != 0."""
    n1, n2 = n
    _check_ints("n", n1, n2)
    if n1 == 0:
        raise ValueError("partner search requires a nonzero zonal component")
    return n1, n2


def _check_admissible(n1: int, n2: int, x: int, y: int = 0, k: str = "k") -> None:
    """Refuse a pair (n, k = (x, y)), or a column x of n (then k = "x"),
    that is not made of ints (_check_ints) or is a trivial interaction.
    The inline test spares the per-column quartic_coeffs a guard call."""
    if not type(n1) is type(n2) is type(x) is type(y) is int:
        _check_ints("n", n1, n2)
        _check_ints(k, x, y)
    if n1 == 0:
        raise TrivialInteractionError("n1")
    if x == 0:
        raise TrivialInteractionError("x")
    if n1 == x:
        raise TrivialInteractionError("n1 - x")


def _residual_numden(n1: int, n2: int, x: int, y: int) -> tuple[int, int]:
    """Unreduced numerator/denominator of sigma(n) - sigma(k) - sigma(n-k).

    The caller guarantees admissibility, which makes all three squared norms
    positive. The denominator is their (positive) product.
    """
    u = n1 - x
    v = n2 - y
    b = n1 * n1 + n2 * n2
    d = x * x + y * y
    f = u * u + v * v
    return n1 * d * f - x * b * f - u * b * d, b * d * f


def is_resonant(n, k) -> bool:
    """True iff sigma(n) - sigma(k) - sigma(n-k) vanishes exactly.

    Evaluated by cross-multiplication over arbitrary-precision integers.
    Raises TrivialInteractionError when n1, k1 or n1 - k1 is zero.
    """
    n1, n2 = n
    x, y = k
    _check_admissible(n1, n2, x, y)
    num, _ = _residual_numden(n1, n2, x, y)
    return num == 0


def sigma(n) -> Fraction:
    """Dispersion surrogate n1 / (n1^2 + n2^2) in lowest terms."""
    from fractions import Fraction

    n1, n2 = n
    _check_ints("n", n1, n2)
    b = n1 * n1 + n2 * n2
    if b == 0:
        raise ValueError("sigma is undefined for the zero wavenumber")
    return Fraction(n1, b)


def residual(n, k) -> Fraction:
    """sigma(n) - sigma(k) - sigma(n-k) as an exact reduced fraction."""
    from fractions import Fraction

    n1, n2 = n
    x, y = k
    _check_admissible(n1, n2, x, y)
    num, den = _residual_numden(n1, n2, x, y)
    return Fraction(num, den)


def quartic_coeffs(n, x: int) -> tuple[int, int, int, int, int]:
    """Integer coefficients (a4, a3, a2, a1, a0) of the quartic in y whose
    roots are the resonant partners (x, y) of n.

    The polynomial is the cross-multiplied numerator of
    sigma(n) - sigma((x, y)) - sigma(n - (x, y)) for fixed admissible x:

        a4 = n1
        a3 = -2 n2 n1
        a2 = -2 x (n1 - x) n1
        a1 =  2 n2 x (n1 (n1 - x) + n2^2)
        a0 = -n1 x (n1 - x) (x^2 - n1 x + n1^2 + 2 n2^2) - n2^4 x

    For every integer y the polynomial vanishes at y iff is_resonant(n, (x, y)).
    """
    n1, n2 = n
    _check_admissible(n1, n2, x, k="x")
    u = n1 - x
    return (
        n1,
        -2 * n2 * n1,
        -2 * x * u * n1,
        2 * n2 * x * (n1 * u + n2 * n2),
        -n1 * x * u * (x * x - n1 * x + n1 * n1 + 2 * n2 * n2) - n2**4 * x,
    )


def _poly_eval(coeffs: Iterable[int], t: int) -> int:
    """Horner evaluation; coeffs ordered highest degree first."""
    acc = 0
    for c in coeffs:
        acc = acc * t + c
    return acc


def _refine_floors(
    c4: int, c3: int, c2: int, c1: int, c0: int, inherited: list[int], lo: int, hi: int
) -> tuple[list[int], list[int]]:
    """One degree of _integer_roots_between for the polynomial
    c4 t^4 + c3 t^3 + c2 t^2 + c1 t + c0, whose Horner form is evaluated
    inline at each checkpoint and bisection midpoint; c4 = 0 gives the
    cubic p'. inherited are the sorted markers of its derivative, repeats
    allowed. Returns the integer roots of the polynomial in [lo, hi], each
    a checkpoint or met exactly by bisection, and its markers: inherited
    plus the floor of every root found."""
    points = [lo]
    for f in inherited:
        if f > points[-1]:
            points.append(f)
        if f == points[-1] and f < hi:
            points.append(f + 1)
    if hi > points[-1]:
        points.append(hi)
    roots, floors = [], []
    p, vp = lo, (((c4 * lo + c3) * lo + c2) * lo + c1) * lo + c0
    if vp == 0:
        roots.append(lo)
    for q in points[1:]:
        vq = (((c4 * q + c3) * q + c2) * q + c1) * q + c0
        if vq == 0:
            roots.append(q)
        elif vp * vq < 0:
            a, b, va = p, q, vp
            while b - a > 1:
                mid = (a + b) // 2
                vm = (((c4 * mid + c3) * mid + c2) * mid + c1) * mid + c0
                if vm == 0:
                    roots.append(mid)
                    break
                if (vm > 0) == (va > 0):
                    a, va = mid, vm
                else:
                    b = mid
            else:
                floors.append(a)
        p, vp = q, vq
    return roots, sorted(inherited + roots + floors)


def _p2_floors(a4: int, a3: int, a2: int, lo: int, hi: int) -> list[int]:
    """Floors in [lo, hi] of the real roots of p''/2 = 6 a4 t^2 + 3 a3 t + a2,
    for a4 > 0. With m = -3 a3, c = 12 a4 and s the square root of a
    non-negative discriminant the roots are (m -+ s) / c, so their floors
    are (m - ceil(s)) // c and (m + floor(s)) // c, both from isqrt."""
    m, c, disc = -3 * a3, 12 * a4, 9 * a3 * a3 - 24 * a4 * a2
    if disc < 0:
        return []
    s = isqrt(disc)
    return [f for f in ((m - s - (s * s < disc)) // c, (m + s) // c) if lo <= f <= hi]


def _integer_roots_between(coeffs: Iterable[int], lo: int, hi: int) -> list[int]:
    """All integers y with lo <= y <= hi and p(y) = 0, sorted ascending, for
    the quartic p with coefficients a4..a0 and a4 != 0.

    The sign is normalised to a4 > 0, which keeps every root. The root
    floors of p'' (_p2_floors) are refined into markers for p', passed to
    _refine_floors as the coefficients (0, 4 a4, 3 a3, 2 a2, a1), and then
    into the roots of p, passed as (a4, a3, a2, a1, a0); Horner is inlined
    in _refine_floors. Carrying each derivative's markers makes the search
    complete: a root either gives a strict sign change between consecutive
    checkpoints (found by bisection, valid because a segment wider than one
    unit holds no derivative root and is monotone), lands on a checkpoint,
    or shares its unit cell with a derivative root (even multiplicity
    directly; two roots in one cell or a root next to a root endpoint via
    Rolle) and is a checkpoint through the inherited marker. A root is
    returned only where exact evaluation gives 0.
    """
    if lo > hi:
        return []
    a4, a3, a2, a1, a0 = coeffs
    if a4 < 0:
        a4, a3, a2, a1, a0 = -a4, -a3, -a2, -a1, -a0
    markers = _p2_floors(a4, a3, a2, lo, hi)
    _, markers = _refine_floors(0, 4 * a4, 3 * a3, 2 * a2, a1, markers, lo, hi)
    roots, _ = _refine_floors(a4, a3, a2, a1, a0, markers, lo, hi)
    return roots


def integer_roots(p: tuple[int, int, int, int, int], bound: int) -> list[int]:
    """All integers y with |y| <= bound and p(y) = 0, sorted ascending, for
    a quartic p = (a4, a3, a2, a1, a0) with a4 != 0. The coefficients and
    the bound must be ints (not bools or floats), so every evaluation is exact."""
    ints = len(p) == 5 and type(p[0]) is type(p[1]) is type(p[2]) is type(p[3]) is type(p[4]) is int
    if not ints or not p[0]:
        raise ValueError(f"integer_roots takes p = (a4, ..., a0), five ints with a4 != 0, got {p!r}")
    _check_count("bound", bound, 0)
    return _integer_roots_between(p, -bound, bound)


def _factor(m: int) -> dict[int, int]:
    """Prime factorisation {p: e} of m >= 1 by trial division."""
    _check_count("m", m)
    factors: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def _gmul(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    """Product of the Gaussian integers z = z0 + i z1 and w."""
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


@lru_cache(maxsize=1 << 14)  # bounded: the primes met grow with the inputs
def _split_prime(p: int) -> tuple[int, int]:
    """(a, b) with a^2 + b^2 = p, for a prime p = 1 (mod 4).

    t = c^((p - 1)/4) is a square root of -1 mod p for any quadratic
    non-residue c, and the Euclidean algorithm on (p, t) stops at its first
    remainder a below sqrt(p), which is one of the two squares
    (Hermite-Serret).
    """
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    r, a = p, pow(c, (p - 1) // 4, p)
    root = isqrt(p)
    while a > root:
        r, a = a, r % a
    return a, isqrt(p - a * a)


def gaussian_norm_solutions(factors: dict[int, int]) -> list[tuple[int, int]]:
    """Every Gaussian integer G = (g1, g2) with g1^2 + g2^2 = prod p^e.

    factors maps distinct primes p to exponents e. Gaussian integers factor
    uniquely up to the units 1, i, -1, -i: 2 = -i (1 + i)^2, a prime
    q = 3 (mod 4) stays prime, and a prime p = 1 (mod 4) splits as
    pi * conj(pi) with |pi|^2 = p (_split_prime). So G is a unit times
    (1 + i)^e2, times q^(f/2) for each q^f, times pi^j conj(pi)^(e - j)
    with 0 <= j <= e for each p^e; an odd f admits no G. Each G is listed
    once.

    _norm_hits lists the partners of a wavenumber n with it. Read n and k
    as Gaussian integers, so that sigma(k) = Re(1/k), and let b = |n|^2
    and Z = 2k - n. Then k (n - k) = (n^2 - Z^2)/4, so

        1/k + 1/(n - k) = n / (k (n - k)) = 4n / W,  W = n^2 - Z^2,

    and for k != 0, n, that is W != 0, resonance sigma(n) = sigma(k) +
    sigma(n - k) reads n1/b = 4 Re(n conj(W)) / |W|^2, or

        n1 |W|^2 - 2b (n conj(W) + conj(n) W) = 0.

    Multiplied by n1 and completed by 4 b^2 |n|^2 = 4 b^3 this is
    |n1 W - 2b n|^2 = 4 b^3, and n1 W - 2b n = -(n1 Z^2 + n (2b - n1 n)):

        |n1 Z^2 + n (2b - n1 n)|^2 = 4 b^3.

    So G = n1 Z^2 + n (2b - n1 n) has norm 4 b^3, whose factors are those
    of b with tripled exponents and two more 2s. Z = +-n, the trivial
    k = 0 and k = n, gives G = 2b n.
    """
    solutions = [(1, 0)]
    for p, e in factors.items():
        if p % 4 == 3:
            if e % 2:
                return []
            powers = [(p ** (e // 2), 0)]
        else:
            pi = (1, 1) if p == 2 else _split_prime(p)
            up = [(1, 0)]  # pi^j as running products, and conj(pi)^j = conj(pi^j)
            for _ in range(e):
                up.append(_gmul(up[-1], pi))
            down = [(a, -b) for a, b in reversed(up)]  # conj(pi)^(e - j) at j
            powers = up[e:] if p == 2 else list(map(_gmul, up, down))
        solutions = [_gmul(g, h) for g in solutions for h in powers]
    return [u for g1, g2 in solutions for u in ((g1, g2), (-g2, g1), (-g1, -g2), (g2, -g1))]


def _gaussian_sqrt(c: tuple[int, int]) -> tuple[int, int] | None:
    """A Gaussian integer Z with Z^2 = c, or None when c is no square.

    With Z = a + i b, Z^2 = c means a^2 - b^2 = c1 and 2ab = c2, so
    a^2 + b^2 = |c| = s must be an integer, a^2 = (s + c1)/2 and
    b^2 = (s - c1)/2 must be squares, and then 2|ab| = |c2|; the sign of b
    follows c2. The other root is -Z.
    """
    c1, c2 = c
    norm = c1 * c1 + c2 * c2
    s = isqrt(norm)
    if s * s != norm or (s + c1) % 2:
        return None
    a = isqrt((s + c1) // 2)
    b = isqrt((s - c1) // 2)
    if 2 * a * a != s + c1 or 2 * b * b != s - c1:
        return None
    return a, b if c2 >= 0 else -b


def _norm_hits(n, factors_of_b) -> Iterator[Wavenumber]:
    """Resonant k of n from the Gaussian norm equation, both legs of each
    decomposition; factors_of_b is the factorisation {p: e} of b = |n|^2.

    Every partner k has G = n1 Z^2 + n (2b - n1 n) of norm 4 b^3, with
    Z = 2k - n (see gaussian_norm_solutions). So each such G is kept when
    Z^2 = (G - n (2b - n1 n)) / n1 is a Gaussian square with Z = n (mod 2),
    and gives k = (Z + n)/2 and its complement from -Z. The trivial
    columns x = 0 and x = n1 are skipped, and every hit is confirmed with
    is_resonant.
    """
    n1, n2 = _check_source(n)
    factors = {p: 3 * e for p, e in factors_of_b.items()}
    factors[2] = factors.get(2, 0) + 2
    m1, m2 = n1 * (n1 * n1 + 3 * n2 * n2), 2 * n2**3  # n (2b - n1 n)
    for g1, g2 in gaussian_norm_solutions(factors):
        c1, c2 = g1 - m1, g2 - m2
        if c1 % n1 or c2 % n1:
            continue
        z = _gaussian_sqrt((c1 // n1, c2 // n1))
        if z is None or (z[0] - n1) % 2 or (z[1] - n2) % 2:
            continue
        for z1, z2 in (z, (-z[0], -z[1])):
            k = Wavenumber((z1 + n1) // 2, (z2 + n2) // 2)
            if k.n1 != 0 and k.n1 != n1 and is_resonant(n, k):
                yield k
