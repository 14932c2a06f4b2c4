"""Seeded input generation and the independent resonance reference.

The workload seed drives the partner-query mix, the golden scale factors and
transforms, the CLI check pairs and the cache truncation offset. Layer probes
use fixed seeds so that a per-layer figure means the same thing in every run.
Nothing here imports the package under test: the anchors the checks compare
against must not come from the code they check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

# A second seed, never used while tuning the benchmark, for confirming a
# claimed gain on inputs the change was not written against.
HELD_OUT_SEED = 7919

# Zero-sum resonant triples listed for the paper's known clusters.
GOLDEN_TRIADS = (
    ((1, 11), (8, -34), (-9, 23)),
    ((3, 19), (32, -44), (-35, 25)),
    ((8, 26), (27, -51), (-35, 25)),
    ((1, -8), (15, 10), (-16, -2)),
    ((3, -11), (13, 13), (-16, -2)),
    ((5, 25), (27, -21), (-32, -4)),
)

BOX_SWEEP_NORM = 35
CLI_BOX_NORM = 20
ANNULUS = (30, 90)
ANNULUS_PER_BATCH = 120
GOLDEN_PER_BATCH = 30
GOLDEN_SCALES = range(1, 7)
TRUNCATE_WINDOW = (0.48, 0.52)
VERIFY_AXIS_MAX = 100
VERIFY_LEMMA_MAX = 500
IDENTITY_SAMPLES, IDENTITY_BOUND = 1000, 10000
FAMILY_MAX = 8

QUARTIC_SET_SEED = 1409
QUARTIC_SET_SIZE = 300
PREDICATE_SET_SEED = 1031
PREDICATE_SET_SIZE = 2000

# (n1, n2) -> one of the four sign/mirror images; resonance is invariant
# under each (sigma is odd in n and even in n2).
TRANSFORMS = (
    lambda v: (v[0], v[1]),
    lambda v: (-v[0], -v[1]),
    lambda v: (v[0], -v[1]),
    lambda v: (-v[0], v[1]),
)


def sigma_ref(n) -> Fraction:
    return Fraction(n[0], n[0] * n[0] + n[1] * n[1])


def residual_ref(n, k) -> Fraction:
    m = (n[0] - k[0], n[1] - k[1])
    return sigma_ref(n) - sigma_ref(k) - sigma_ref(m)


def resonant_ref(n, k) -> bool:
    """Non-trivial exact resonance, decided with fractions.Fraction."""
    if n[0] == 0 or k[0] == 0 or n[0] == k[0]:
        return False
    return residual_ref(n, k) == 0


def search_radius_ref(n) -> int:
    """ceil(2 |n|^2 / |n1|): the disk the box sweep scans for each point."""
    return -((-2 * (n[0] * n[0] + n[1] * n[1])) // abs(n[0]))


def quadrant(max_norm: int) -> list[tuple[int, int]]:
    m2 = max_norm * max_norm
    return [(n1, n2) for n1 in range(1, max_norm + 1) for n2 in range(isqrt(m2 - n1 * n1) + 1)]


def _cost_key(n):
    # Partner-search cost grows like |n|^2 / |n1|; ties broken by the point.
    return ((n[0] * n[0] + n[1] * n[1]) / abs(n[0]), n)


def _vdc(b: int) -> float:
    """Base-2 van der Corput: any prefix of the sequence spreads over [0, 1)."""
    out, denom = 0.0, 1.0
    while b:
        denom *= 2.0
        b, bit = divmod(b, 2)
        out += bit / denom
    return out


def _stratified(population: list, m: int, offset: float) -> list:
    """One draw from each of m equal strata of population, at `offset` in [0, 1)."""
    size = len(population)
    return [population[int((i + offset) * size / m)] for i in range(m)]


def golden_queries() -> list[tuple[tuple[int, int], frozenset]]:
    """(n, known partners) for every scaled and transformed golden member.

    For a triad {a, b, c} with a + b + c = 0, a decomposes as (-b) + (-c), so
    -b and -c are partners of a; scaling and the sign/mirror images carry
    partners to partners.
    """
    known: dict[tuple[int, int], set] = {}
    for triad in GOLDEN_TRIADS:
        for i, m in enumerate(triad):
            others = [triad[j] for j in range(3) if j != i]
            known.setdefault(m, set()).update((-o[0], -o[1]) for o in others)
    out = []
    for m, partners in sorted(known.items()):
        for j in GOLDEN_SCALES:
            for t in TRANSFORMS:
                n = t((j * m[0], j * m[1]))
                out.append((n, frozenset(t((j * k[0], j * k[1])) for k in partners)))
    out.sort(key=lambda q: _cost_key(q[0]))
    return out


def annulus_points() -> list[tuple[int, int]]:
    lo, hi = ANNULUS
    pts = [
        (n1, n2)
        for n1 in range(-hi, hi + 1)
        if n1 != 0
        for n2 in range(-hi, hi + 1)
        if lo * lo < n1 * n1 + n2 * n2 <= hi * hi
    ]
    pts.sort(key=_cost_key)
    return pts


class PartnerQueries:
    """Seeded stream of partner-query batches.

    Each batch takes one point from each of ANNULUS_PER_BATCH equal strata of
    the annulus ranked by cost, and one from each of GOLDEN_PER_BATCH strata
    of the golden queries. The in-stratum offset of batch b is the seeded
    start plus the b-th van der Corput term, so every prefix of batches
    covers the cost distribution evenly: each query is uniform over its
    population, while the tail percentile stays steady from seed to seed.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.annulus = annulus_points()
        self.golden = golden_queries()
        rng = random.Random(seed)
        self._start = (rng.random(), rng.random())

    def batch(self, b: int) -> list[tuple[tuple[int, int], frozenset]]:
        shift = _vdc(b)
        a_off, g_off = ((s + shift) % 1.0 for s in self._start)
        queries = [(n, frozenset()) for n in _stratified(self.annulus, ANNULUS_PER_BATCH, a_off)]
        queries += _stratified(self.golden, GOLDEN_PER_BATCH, g_off)
        random.Random(f"{self.seed}/{b}").shuffle(queries)
        return queries


def cli_plan(seed: int) -> dict:
    """Seeded arguments of the CLI session: a golden resonant pair, a
    non-resonant pair with its exact residual, a trivial pair (exit 2), and
    the fraction of the cache at which the simulated kill cuts it."""
    rng = random.Random(seed)
    triad = rng.choice(GOLDEN_TRIADS)
    i, j = rng.sample(range(3), 2)
    scale = rng.randint(1, 3)
    t = rng.choice(TRANSFORMS)
    n = t((scale * triad[i][0], scale * triad[i][1]))
    k = t((-scale * triad[j][0], -scale * triad[j][1]))
    while True:
        plain_n = (rng.randint(-40, 40), rng.randint(-40, 40))
        plain_k = (rng.randint(-40, 40), rng.randint(-40, 40))
        if plain_n[0] and plain_k[0] and plain_n[0] != plain_k[0] and not resonant_ref(plain_n, plain_k):
            break
    trivial_n = (rng.randint(1, 40), rng.randint(-40, 40))
    return {
        "resonant_pair": (n, k),
        "plain_pair": (plain_n, plain_k, residual_ref(plain_n, plain_k)),
        "trivial_pair": (trivial_n, (trivial_n[0], rng.randint(-40, 40))),
        "truncate_at": rng.uniform(*TRUNCATE_WINDOW),
    }


def _box_pairs(rng: random.Random, count: int):
    """(n, x, ymax) drawn like the box sweep's work: n from the box quadrant
    weighted by its disk width, then an admissible x uniform in the disk."""
    points = quadrant(BOX_SWEEP_NORM)
    radii = [search_radius_ref(n) for n in points]
    chosen = rng.choices(range(len(points)), weights=[2 * r + 1 for r in radii], k=count)
    out = []
    for idx in chosen:
        n, r = points[idx], radii[idx]
        x = 0
        while x == 0 or x == n[0]:
            x = rng.randint(-r, r)
        out.append((n, x, isqrt(r * r - x * x)))
    return out


def quartic_set() -> list[tuple[tuple[int, int], int, int]]:
    return _box_pairs(random.Random(QUARTIC_SET_SEED), QUARTIC_SET_SIZE)


def predicate_set() -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Admissible (n, k) pairs from the box-sweep disks, plus every golden
    resonant pair, so that both verdicts are exercised."""
    rng = random.Random(PREDICATE_SET_SEED)
    pairs = [(n, (x, rng.randint(-ymax, ymax))) for n, x, ymax in _box_pairs(rng, PREDICATE_SET_SIZE)]
    for n, known in golden_queries():
        pairs.extend((n, k) for k in sorted(known))
    return pairs
