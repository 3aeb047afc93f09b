"""Shared independent oracles for the test suite.

Everything here deliberately avoids the package's own sieve/quotient code
paths: trial division for primality, mpmath at 40 digits for square-root
differences, so the fast implementations are always checked against a
slow-but-obvious reference.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest
from mpmath import mp, mpf, sqrt as mp_sqrt


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def trial_division_primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi) if trial_division_is_prime(n)]


def sqrt_diff_oracle(p: int, q: int) -> float:
    """sqrt(q) - sqrt(p) at 40 decimal digits, rounded to a double at the end."""
    with mp.workdps(40):
        return float(mp_sqrt(mpf(q)) - mp_sqrt(mpf(p)))


@contextlib.contextmanager
def sieve_segments(length: int | None):
    """Sieve ``length`` odd entries per segment inside the block (None keeps
    the default), so small scans cross many segment boundaries."""
    from gaplab import sieve

    with mock.patch.object(sieve, "SEGMENT_LENGTH", length or sieve.SEGMENT_LENGTH):
        yield


@pytest.fixture
def no_sieve(monkeypatch):
    """Make any segment mask or base prime computed by the sieve fail the test."""
    from gaplab import sieve

    def fail(*args, **kwargs):
        raise AssertionError("the sieve ran")

    monkeypatch.setattr(sieve, "_odd_mask", fail)
    monkeypatch.setattr(sieve, "_base_primes", fail)


@pytest.fixture(scope="session")
def bundled_table():
    from gaplab import reference

    return reference.load_bundled_table()
