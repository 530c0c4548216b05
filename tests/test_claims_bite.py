"""Fault injection: a claim that no plausible fault can flip checks nothing.

Each test swaps one plausible fault into what a claim reads and asserts that
the claim then fails.
"""

import cmath
import math

import numpy as np
import pytest

from raflab import claims
from raflab.claims import CLAIMS
from raflab.kernels import Ingham, Scaled, TransformResult
from raflab.mellin import zeta
from raflab.sieve import MobiusTable, sieve
from raflab.solver import VerificationError


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


def test_criterion_06_fails_on_a_sign_slip_in_the_ingham_transform(monkeypatch):
    # z/(1-z) for z/(z-1): every closed value flips sign, the patched
    # phi*(0) = 1 does not
    def slipped(self, z):
        if abs(z) < 1e-8:
            return TransformResult(1.0 + 0.0j, "closed", note="removable singularity at z=0 patched")
        return TransformResult(z / (1.0 - z) * zeta(1.0 - z), "closed")

    monkeypatch.setattr(Ingham, "transform", slipped)
    ok, detail = _claim("criterion-06 mellin-agreement").check()
    assert not ok
    assert "phi*(0)=(1+0j)" in detail


def _slipped_exp_transform(numerator_2, denominator_sign):
    """Scaled.transform with the q^x+1 formula changed to
    (q^2z - c q^z + q) / (s (q - q^z)); other rescalings unchanged."""
    original = Scaled.transform

    def transform(self, z):
        if self.f.kind != "exp_plus_one":
            return original(self, z)
        q = self.f.q
        t = cmath.exp(z * math.log(q))
        return TransformResult((t * t - numerator_2 * t + q) / (denominator_sign * (q - t)), "closed")

    return transform


def test_criterion_08_fails_on_a_denominator_sign_slip(monkeypatch):
    # (q^z - q) for (q - q^z) keeps every zero in place, so only the
    # closed-vs-limit companion at z = -1 sees it: -5/6 against 5/6
    monkeypatch.setattr(Scaled, "transform", _slipped_exp_transform(2.0, -1.0))
    ok, detail = _claim("criterion-08 scaled-transform").check()
    assert not ok
    assert "closed-vs-limit 1.7e+00 (<1e-6)" in detail


def test_criterion_08_fails_on_a_dropped_factor_two(monkeypatch):
    # -q^z for -2q^z moves the zeros off Re z = 1/2; phi_f_zeros's own
    # check of |phi_f*| at each zero raises before the claim can report
    monkeypatch.setattr(Scaled, "transform", _slipped_exp_transform(1.0, 1.0))
    with pytest.raises(VerificationError, match="zero verification failed"):
        _claim("criterion-08 scaled-transform").check()
