"""Fault injection: a claim that no plausible fault can flip checks nothing.

Each test swaps one plausible fault into what a claim reads and asserts that
the claim then fails.
"""

import math

import numpy as np

from raflab import claims
from raflab.claims import CLAIMS
from raflab.sieve import MobiusTable, sieve


def _claim(name):
    (claim,) = [c for c in CLAIMS if c.name == name]
    return claim


def _sieve_stopping_at(pmax):
    """sieve() with a loop that stops at the primes <= pmax, short of sqrt(N)."""

    def faulty(limit):
        val = np.ones(limit + 1, dtype=np.int64)
        for p in range(2, min(pmax, math.isqrt(limit)) + 1):
            if all(p % d for d in range(2, math.isqrt(p) + 1)):
                val[p::p] *= -p
                val[p * p :: p * p] = 0
        mu = np.sign(val).astype(np.int8)
        np.negative(mu, out=mu, where=np.abs(val) != np.arange(limit + 1))
        mu[0] = 0
        return MobiusTable(limit, mu, np.concatenate(([0], np.cumsum(mu[1:], dtype=np.int64))))

    return faulty


def test_criterion_16_fails_on_a_sieve_short_of_sqrt_n(monkeypatch):
    # the primes 907..997 are missed, so mu is wrong only at large x: the
    # max over all x (0.894 at x = 5) stays below 1, the companion over
    # x >= 1e4 does not stay below 0.5
    faulty = _sieve_stopping_at(900)
    assert not np.array_equal(faulty(1_000_000).mu, sieve(1_000_000).mu)
    monkeypatch.setattr(claims, "sieve", faulty)
    ok, detail = _claim("criterion-16 mertens-ratio").check()
    assert not ok
    assert "0.8944 at x=5 (<1)" in detail
