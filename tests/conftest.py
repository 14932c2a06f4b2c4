import time

import pytest

from rossby_resonance import enumerate_lambda

# Zero-sum triples as listed for the known clusters; each is an exact
# resonant triad and doubles as golden data for check/cluster tests.
FINITE_CLUSTER_1 = ((1, 11), (8, -34), (-9, 23))
FINITE_CLUSTER_2_TRIADS = (
    ((3, 19), (32, -44), (-35, 25)),
    ((8, 26), (27, -51), (-35, 25)),
)
INFINITE_CLUSTER_TRIADS = (
    ((1, -8), (15, 10), (-16, -2)),
    ((3, -11), (13, 13), (-16, -2)),
    ((5, 25), (27, -21), (-32, -4)),
)
GOLDEN_TRIADS = (FINITE_CLUSTER_1,) + FINITE_CLUSTER_2_TRIADS + INFINITE_CLUSTER_TRIADS


@pytest.fixture(scope="session")
def report60():
    t0 = time.perf_counter()
    report = enumerate_lambda(60)
    elapsed = time.perf_counter() - t0
    return report, elapsed


@pytest.fixture(scope="session")
def report35():
    return enumerate_lambda(35)


@pytest.fixture(scope="session")
def report17():
    return enumerate_lambda(17)


@pytest.fixture(scope="session")
def report12():
    return enumerate_lambda(12)


@pytest.fixture
def wrong_axis_quartic(monkeypatch):
    """Make verification's quartic_coeffs wrong in a0 by one when 7 | x;
    yields the (n1, x) of every column the verifier built, in order."""
    from rossby_resonance import verification

    real = verification.quartic_coeffs
    columns = []

    def wrong(n, x):
        assert n[1] == 0
        columns.append((n[0], x))
        *poly, a0 = real(n, x)
        return (*poly, a0 + 1) if x % 7 == 0 else (*poly, a0)

    monkeypatch.setattr(verification, "quartic_coeffs", wrong)
    return columns
