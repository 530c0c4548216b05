"""Exact floor/Mobius counting identities and their independent oracles.

Five counting kinds, each with a Mobius-sum formula (count_formula, exact
integer arithmetic over a sieve table) and a Mobius-free brute-force oracle
(count_oracle) so the two sides of every identity are computed by genuinely
different routes:

    coprime_tuples(m)   sum_k mu(k) floor(n/k)^m     — m-tuples with gcd 1
                        oracle: gcd-count recursion c(n) = n^m - sum c(n//d)
                        (m=2 additionally cross-checked by 2*sum phi - 1)
    p_free(p)           sum_k mu(k) floor(n/k^p)     — p-th-power-free count
                        oracle: boolean sieve striking k^p multiples
    prime_powers(p)     -sum_k mu(pk) floor(n/k) = 1 + floor(log_p n)
                        oracle: direct power listing
    smooth(P)           (-1)^|P| sum_k mu(Pk) floor(n/k)
                        oracle: factor-out divisibility test
    elias_gamma         sum_k (-1)^(k-1) mu(k) floor(n/k) = 1 + 2 floor(log2 n)
                        oracle: bit length

Every floor(log) here is integer arithmetic (bit_length, repeated
multiplication): floating logs are off-by-one-prone exactly at the powers
where these identities are sharpest.

The *_scan helpers evaluate a whole identity for every n <= N at once in
O(N log N): sum_k w_k floor(n/k) = sum_{m<=n} sum_{k|m} w_k, so scattering
w_k onto multiples of k (sieve.divisor_pass) and taking a cumulative sum
gives all n in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .sieve import MobiusTable, _iroot, divisor_pass, totient_table
from .solver import VerificationError, l0_three_smooth

_COUNT_KINDS = ("coprime_tuples", "p_free", "prime_powers", "smooth", "elias_gamma")


class CostLimitError(ValueError):
    """Oracle would exceed its brute-force budget."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class CountSpec:
    """One counting problem: a kind, its parameters, and the bound n."""

    kind: str
    n: int
    m: int = 1
    p: int = 2
    primes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _COUNT_KINDS:
            raise ValueError("unknown counting kind %r" % (self.kind,))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.kind == "coprime_tuples" and self.m < 1:
            raise ValueError("tuple arity m must be >= 1")
        if self.kind == "p_free" and self.p < 2:
            raise ValueError("p_free needs p >= 2")
        if self.kind == "prime_powers" and not _is_prime(self.p):
            raise ValueError("prime_powers needs a prime p, got %d" % self.p)
        if self.kind == "smooth":
            ps = tuple(self.primes)
            if not ps:
                raise ValueError("smooth needs a non-empty prime set")
            if len(set(ps)) != len(ps):
                raise ValueError("smooth primes must be pairwise distinct")
            for q in ps:
                if not _is_prime(q):
                    raise ValueError("smooth set contains non-prime %d" % q)
            object.__setattr__(self, "primes", ps)

    @property
    def label(self) -> str:
        if self.kind == "coprime_tuples":
            return "coprime:%d" % self.m
        if self.kind == "p_free":
            return "pfree:%d" % self.p
        if self.kind == "prime_powers":
            return "ppow:%d" % self.p
        if self.kind == "smooth":
            return "smooth:" + ",".join(str(q) for q in self.primes)
        return "elias"

    @property
    def mu_limit(self) -> int:
        """The mu range count_formula needs: floor(n^(1/p)) for p_free, p*n
        for prime_powers, P*n for smooth (P the product of the primes), n
        for every other kind."""
        if self.kind == "p_free":
            return _iroot(self.n, self.p)
        if self.kind == "prime_powers":
            return self.p * self.n
        if self.kind == "smooth":
            return math.prod(self.primes) * self.n
        return self.n


def parse_count_what(what: str, n: int) -> CountSpec:
    """Parse the CLI grammar coprime:<m>|pfree:<p>|ppow:<p>|smooth:<p1,p2,..>|elias."""
    w = what.strip()
    try:
        if w == "elias":
            return CountSpec("elias_gamma", n)
        head, _, arg = w.partition(":")
        if head == "coprime":
            return CountSpec("coprime_tuples", n, m=int(arg))
        if head == "pfree":
            return CountSpec("p_free", n, p=int(arg))
        if head == "ppow":
            return CountSpec("prime_powers", n, p=int(arg))
        if head == "smooth":
            return CountSpec("smooth", n, primes=tuple(int(q) for q in arg.split(",")))
    except ValueError as exc:
        if isinstance(exc, CostLimitError):
            raise
        raise ValueError("bad count spec %r: %s" % (what, exc)) from exc
    raise ValueError(
        "bad count spec %r — use coprime:<m>|pfree:<p>|ppow:<p>|smooth:<p,..>|elias" % (what,)
    )


# --------------------------------------------------------------------------
# formula side
# --------------------------------------------------------------------------


def count_formula(spec: CountSpec, table: MobiusTable) -> int:
    """Evaluate the Mobius-sum formula exactly in integer arithmetic.

    Raises:
        ValueError: the table ends below spec.mu_limit.
    """
    if spec.mu_limit > table.limit:
        raise ValueError(
            "%s at n=%d needs mu up to %d > table limit %d"
            % (spec.label, spec.n, spec.mu_limit, table.limit)
        )
    n = spec.n
    mu = table.mu
    if spec.kind == "coprime_tuples":
        ks = np.arange(1, n + 1, dtype=np.int64)
        floors = n // ks
        if spec.m * n.bit_length() <= 62:
            return int(np.sum(mu[1 : n + 1].astype(np.int64) * floors**spec.m))
        # n^m overflows int64: fall back to Python big ints
        return sum(int(mu[k]) * int(n // k) ** spec.m for k in range(1, n + 1) if mu[k])
    if spec.kind == "p_free":
        kmax = _iroot(n, spec.p)
        ks = np.arange(1, kmax + 1, dtype=np.int64)
        return int(np.sum(mu[1 : kmax + 1].astype(np.int64) * (n // ks**spec.p)))
    if spec.kind == "prime_powers":
        ks = np.arange(1, n + 1, dtype=np.int64)
        return -int(np.sum(mu[spec.p * ks].astype(np.int64) * (n // ks)))
    if spec.kind == "smooth":
        prod = math.prod(spec.primes)
        ks = np.arange(1, n + 1, dtype=np.int64)
        s = int(np.sum(mu[prod * ks].astype(np.int64) * (n // ks)))
        return s if len(spec.primes) % 2 == 0 else -s
    # elias_gamma
    ks = np.arange(1, n + 1, dtype=np.int64)
    signs = np.where(ks % 2 == 1, 1, -1)
    return int(np.sum(signs * mu[1 : n + 1].astype(np.int64) * (n // ks)))


# --------------------------------------------------------------------------
# oracle side (Mobius-free)
# --------------------------------------------------------------------------


def coprime_oracle_table(limit: int, m: int) -> np.ndarray:
    """c[v] = #{m-tuples in [1,v]^m with gcd 1} for all v <= limit, via the
    Mobius-free recursion c(v) = v^m - sum_{d=2}^{v} c(v//d)."""
    c = np.zeros(limit + 1, dtype=object if m * limit.bit_length() > 62 else np.int64)
    for v in range(1, limit + 1):
        if v == 1:
            c[1] = 1
            continue
        inner = c[v // np.arange(2, v + 1)]
        c[v] = v**m - int(inner.sum())
    return c


def p_free_oracle_table(limit: int, p: int) -> np.ndarray:
    """Cumulative count of p-th-power-free integers (boolean strike sieve)."""
    free = np.ones(limit + 1, dtype=np.int64)
    free[0] = 0
    k = 2
    while k**p <= limit:
        free[k**p :: k**p] = 0
        k += 1
    return np.cumsum(free)


def smooth_oracle_table(limit: int, primes: Tuple[int, ...]) -> np.ndarray:
    """Cumulative count of P-smooth integers by the factor-out test."""
    mask = np.zeros(limit + 1, dtype=np.int64)
    for v in range(1, limit + 1):
        w = v
        for q in primes:
            while w % q == 0:
                w //= q
        if w == 1:
            mask[v] = 1
    return np.cumsum(mask)


def count_oracle(spec: CountSpec) -> int:
    """Brute-force/recursive count with no Mobius function anywhere.

    Budget: coprime tuples n <= 10^4 for m <= 3 and n <= 2000 for m >= 4;
    p_free and smooth n <= 10^4.  prime_powers and elias_gamma use integer
    log loops and have no practical limit.
    """
    n = spec.n
    if spec.kind == "coprime_tuples":
        cap = 2000 if spec.m >= 4 else 10_000
        if n > cap:
            raise CostLimitError("coprime oracle capped at n=%d for m=%d" % (cap, spec.m))
        val = int(coprime_oracle_table(n, spec.m)[n])
        if spec.m == 2:
            # second, independent route: pairs with gcd 1 = 2*sum phi(k) - 1
            alt = 2 * int(totient_table(n).sum()) - 1
            if val != alt:
                raise VerificationError("coprime m=2 oracles disagree: %d vs %d" % (val, alt))
        return val
    if spec.kind == "p_free":
        if n > 10_000:
            raise CostLimitError("p_free oracle capped at n=10^4")
        return int(p_free_oracle_table(n, spec.p)[n])
    if spec.kind == "prime_powers":
        count = 1  # p^0
        v = spec.p
        while v <= n:
            count += 1
            v *= spec.p
        return count
    if spec.kind == "smooth":
        if n > 10_000:
            raise CostLimitError("smooth oracle capped at n=10^4")
        return int(smooth_oracle_table(n, spec.primes)[n])
    # elias_gamma: 1 + 2*floor(log2 n), bit-length only
    return 1 + 2 * (n.bit_length() - 1)


# --------------------------------------------------------------------------
# whole-range scans (all n <= N at once)
# --------------------------------------------------------------------------


def _floor_scan(weights: np.ndarray) -> np.ndarray:
    """T[n] = sum_{k<=n} w_k floor(n/k) for all n in one divisor-sieve pass."""
    acc = weights.copy()
    divisor_pass(acc, weights, 1)
    return np.cumsum(acc)


def meissel_scan(table: MobiusTable, limit: int) -> np.ndarray:
    """sum_{k<=n} mu(k) floor(n/k) for every n <= limit (identically 1)."""
    if limit > table.limit:
        raise ValueError("limit exceeds table limit")
    return _floor_scan(table.mu[: limit + 1].astype(np.int64))


def elias_scan(table: MobiusTable, limit: int) -> np.ndarray:
    """sum_{k<=n} (-1)^(k-1) mu(k) floor(n/k) for every n <= limit."""
    if limit > table.limit:
        raise ValueError("limit exceeds table limit")
    w = table.mu[: limit + 1].astype(np.int64)
    w[2::2] *= -1
    return _floor_scan(w)


def smooth_bridge_scan(table: MobiusTable, limit: int) -> np.ndarray:
    """sum_{k<=n} mu(6k) floor(n/k) for every n <= limit (= 3-smooth count)."""
    if 6 * limit > table.limit:
        raise ValueError("needs mu up to 6*limit = %d" % (6 * limit))
    w = table.mu[6 : 6 * limit + 1 : 6].astype(np.int64)
    return _floor_scan(np.concatenate(([0], w)))


def log2_floor_table(limit: int) -> np.ndarray:
    """floor(log2 n) for n = 1..limit (index 0 unused), by power doubling."""
    out = np.zeros(limit + 1, dtype=np.int64)
    e = 0
    lo = 1
    while lo <= limit:
        hi = min(2 * lo - 1, limit)
        out[lo : hi + 1] = e
        lo *= 2
        e += 1
    return out


# --------------------------------------------------------------------------
# Ramanujan 3-smooth comparison
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RamanujanReport:
    checkpoints: np.ndarray
    ratios: np.ndarray
    max_abs_dev: float
    dev_first: float
    dev_last: float


def ramanujan_l0_compare(limit: int) -> RamanujanReport:
    """L0(n) against log(2n)log(3n)/(2 log 2 log 3) at doubling checkpoints.

    Reports the ratio L0/asymptotic at n = 10^3 * 2^j (plus the endpoint)
    and its worst deviation from 1; the deviation at the end should not
    exceed the deviation at 10^3 by more than noise.
    """
    if limit < 1000:
        raise ValueError("need limit >= 10^3")
    l0 = l0_three_smooth(limit)
    cps = []
    x = 1000
    while x <= limit:
        cps.append(x)
        x *= 2
    if cps[-1] != limit:
        cps.append(limit)
    cps_arr = np.asarray(cps, dtype=np.int64)
    xs = cps_arr.astype(np.float64)
    pred = np.log(2.0 * xs) * np.log(3.0 * xs) / (2.0 * math.log(2.0) * math.log(3.0))
    ratios = l0[cps_arr] / pred
    devs = np.abs(ratios - 1.0)
    return RamanujanReport(
        checkpoints=cps_arr,
        ratios=ratios,
        max_abs_dev=float(devs.max()),
        dev_first=float(devs[0]),
        dev_last=float(devs[-1]),
    )
