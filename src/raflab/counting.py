"""Exact floor/Mobius counting identities and their independent oracles.

Every counting kind counts with one Mobius floor sum,

    sign * sum_{k <= n^(1/e)} chi(k) mu(s k) floor(n / k^e)^m,

declared once as a row of _KINDS; the --what grammar, the label, mu_limit
(= s * floor(n^(1/e))), count_formula and the scans all read that row:

    kind            --what         sign      s       e  m  chi(k)      counts
    coprime_tuples  coprime:<m>    +         1       1  m  1           m-tuples in [1,n]^m, gcd 1
    p_free          pfree:<p>      +         1       p  1  1           p-th-power-free integers
    prime_powers    ppow:<p>       -         p       1  1  1           1 + floor(log_p n) powers
    smooth          smooth:<p,..>  (-1)^|P|  prod P  1  1  1           P-smooth integers
    elias_gamma     elias          +         1       1  1  (-1)^(k-1)  1 + 2 floor(log2 n)

count_formula sums exactly over a sieve table (int64 while m * bitlength(n)
<= 62, Python ints beyond).  count_oracle counts each kind by a Mobius-free
route: the gcd recursion c(n) = n^m - sum c(n//d) (m = 2 also as
2 sum phi - 1), a sieve striking k^p multiples, power listing, a factor-out
test and the bit length.  Every floor(log) is integer arithmetic: floating
logs are off by one exactly at the powers where these identities are sharpest.

The *_scan helpers give a kind with e = m = 1 at every n <= N in one
O(N log N) pass: sum_k w_k floor(n/k) = sum_{j<=n} sum_{k|j} w_k, so
scattering w_k onto the multiples of k (sieve.divisor_pass) and taking a
cumulative sum gives all n at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .sieve import MobiusTable, _iroot, divisor_pass, totient_table
from .solver import VerificationError, l0_three_smooth


class _Kind(NamedTuple):
    """One row of the module docstring's table."""

    term: str  # the --what grammar term, "<head>:<argument>" or a bare head
    field: Optional[str]  # the CountSpec field the argument sets
    shape: Callable[["CountSpec"], Tuple[int, int, int, int]]  # spec -> (sign, s, e, m)
    alternating: bool = False  # chi(k) = (-1)^(k-1) rather than 1


_KINDS = {
    "coprime_tuples": _Kind("coprime:<m>", "m", lambda c: (1, 1, 1, c.m)),
    "p_free": _Kind("pfree:<p>", "p", lambda c: (1, 1, c.p, 1)),
    "prime_powers": _Kind("ppow:<p>", "p", lambda c: (-1, c.p, 1, 1)),
    "smooth": _Kind("smooth:<p,..>", "primes",
                    lambda c: ((-1) ** len(c.primes), math.prod(c.primes), 1, 1)),
    "elias_gamma": _Kind("elias", None, lambda c: (1, 1, 1, 1), alternating=True),
}
_HEADS = {row.term.partition(":")[0]: kind for kind, row in _KINDS.items()}
_GRAMMAR = "|".join(row.term for row in _KINDS.values())


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
        if self.kind not in _KINDS:
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
        row = _KINDS[self.kind]
        head = row.term.partition(":")[0]
        if row.field is None:
            return head
        arg = getattr(self, row.field)
        return "%s:%s" % (head, ",".join(map(str, arg)) if isinstance(arg, tuple) else "%d" % arg)

    @property
    def mu_limit(self) -> int:
        """The mu range count_formula needs: s * floor(n^(1/e))."""
        _, s, e, _ = _KINDS[self.kind].shape(self)
        return s * _iroot(self.n, e)


def parse_count_what(what: str, n: int) -> CountSpec:
    """Parse the --what grammar _GRAMMAR into a CountSpec at n."""
    head, colon, arg = what.strip().partition(":")
    kind = _HEADS.get(head)
    if kind is None or (colon and _KINDS[kind].field is None):
        raise ValueError("bad count spec %r — use %s" % (what, _GRAMMAR))
    field = _KINDS[kind].field
    try:
        params = {} if field is None else {
            field: tuple(map(int, arg.split(","))) if field == "primes" else int(arg)}
        return CountSpec(kind, n, **params)
    except ValueError as exc:
        raise ValueError("bad count spec %r: %s" % (what, exc)) from exc


# --------------------------------------------------------------------------
# formula side
# --------------------------------------------------------------------------


def _weights(spec: CountSpec, table: MobiusTable) -> np.ndarray:
    """w[k] = sign * chi(k) * mu(s k) for 1 <= k <= floor(n^(1/e)), w[0] = 0:
    the weights of spec's floor sum, read from a table reaching mu_limit."""
    row = _KINDS[spec.kind]
    sign, s, e, _ = row.shape(spec)
    top = _iroot(spec.n, e)
    w = np.zeros(top + 1, dtype=np.int64)
    w[1:] = table.mu[s : s * top + 1 : s]
    if row.alternating:
        w[2::2] *= -1
    if sign < 0:
        np.negative(w, out=w)
    return w


def count_formula(spec: CountSpec, table: MobiusTable) -> int:
    """Evaluate the Mobius floor sum exactly in integer arithmetic.

    Raises:
        ValueError: the table ends below spec.mu_limit.
    """
    if spec.mu_limit > table.limit:
        raise ValueError(
            "%s at n=%d needs mu up to %d > table limit %d"
            % (spec.label, spec.n, spec.mu_limit, table.limit)
        )
    n = spec.n
    _, _, e, m = _KINDS[spec.kind].shape(spec)
    w = _weights(spec, table)[1:]
    if m * n.bit_length() <= 62:
        ks = np.arange(1, len(w) + 1, dtype=np.int64)
        floors = n // (ks**e if e > 1 else ks)  # x**1 would cost a copy
        return int(np.sum(w * (floors**m if m > 1 else floors)))
    # floor(n/k^e)^m overflows int64: fall back to Python big ints
    return sum(wk * (n // k**e) ** m for k, wk in enumerate(w.tolist(), 1) if wk)


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


def _floor_scan(spec: CountSpec, table: MobiusTable, short: str) -> np.ndarray:
    """T[n] = sum_{k<=n} w_k floor(n/k) for every n <= spec.n in one
    divisor-sieve pass, w_k the weights of spec's kind (e = m = 1); raises
    ValueError(short) when the table ends below spec.mu_limit."""
    if spec.mu_limit > table.limit:
        raise ValueError(short)
    weights = _weights(spec, table)
    acc = weights.copy()
    divisor_pass(acc, weights, 1)
    return np.cumsum(acc)


def meissel_scan(table: MobiusTable, limit: int) -> np.ndarray:
    """sum_{k<=n} mu(k) floor(n/k) for every n <= limit (identically 1)."""
    return _floor_scan(CountSpec("coprime_tuples", limit), table, "limit exceeds table limit")


def elias_scan(table: MobiusTable, limit: int) -> np.ndarray:
    """sum_{k<=n} (-1)^(k-1) mu(k) floor(n/k) for every n <= limit."""
    return _floor_scan(CountSpec("elias_gamma", limit), table, "limit exceeds table limit")


def smooth_bridge_scan(table: MobiusTable, limit: int) -> np.ndarray:
    """sum_{k<=n} mu(6k) floor(n/k) for every n <= limit (= 3-smooth count)."""
    return _floor_scan(CountSpec("smooth", limit, primes=(2, 3)), table,
                       "needs mu up to 6*limit = %d" % (6 * limit))


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
