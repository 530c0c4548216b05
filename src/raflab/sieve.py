"""Sieved arithmetic tables: Mobius, Mertens, primes, totient.

Provides:
- sieve(limit)         -> MobiusTable (mu and its Mertens prefix sums), by
  a segmented sieve: one int32 buffer of SIEVE_BLOCK entries is reused for
  every block, so the peak is the 9 bytes per entry of the table itself
  plus O(SIEVE_BLOCK)
- primes_upto(limit)   -> the primes <= limit, ascending
- largest_primes(limit, count) -> the count largest of them, from a window
  below limit, with no limit-long array
- totient_table(limit) -> Euler phi for all n <= limit (one divisor_pass)
- save_cache / load_cache -> binary mu cache ("RAFSIEVE1" format); a load
  validates the whole file, the part past the kept prefix a block at a
  time, and keeps the prefix up to a requested limit
- divisor_pass(target, weights, sign, mult) -> target[i*d] += sign*mult[i]*weights[d]
  for d ascending: sum_{k<=n} w_k floor(n/k) forwards, or its in-place
  inverse (with mult, the inverse of b -> v * b).  One strided slice per
  d <= sqrt(N), then one per multiplier i in each dyadic block [d0, 2*d0)
  of the larger d: about 3*sqrt(N) slices in all, and no temporary longer
  than SIEVE_BLOCK.  It is the one loop over multiples: the solver's
  divisor path, disc's Dirichlet weights, the floor-sum counts, the Ingham
  closed form and totient_table all call it.

The table is immutable after construction and safe to share read-only
across workers; sieving itself is single-threaded.
"""

from __future__ import annotations

import math
import operator
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Refuse sieve requests whose arrays would not plausibly fit in memory
# (sieve() holds 9 bytes per entry, int8 mu and int64 mertens, plus
# O(SIEVE_BLOCK); sieve(2e8) peaks at about 1.75 GB RSS).
MAX_SIEVE_LIMIT = 200_000_000

# Entries per block of the segmented sieve and of the Mertens ratio scan.
# Larger blocks cut the per-block loop over the primes (sieve(1e8) is ~15%
# faster at 2^20), but a block's buffers (9 bytes per entry) fall below
# glibc's adaptive mmap threshold and stay in the heap once freed: at 2^20 a
# sieve(1e6) leaves ~4 MB more peak RSS behind than the whole-array sieve.
SIEVE_BLOCK = 1 << 18

_CACHE_MAGIC = b"RAFSIEVE1"


class CapacityError(ValueError):
    """Sieve limit is zero or exceeds the configured memory budget."""


@dataclass(frozen=True)
class MobiusTable:
    """Mobius values and Mertens sums up to ``limit``.

    Attributes:
        limit: Maximum index N.
        mu: int8 array of length N+1, mu[n] in {-1, 0, +1}, mu[0] = 0.
        mertens: int64 array of length N+1, mertens[x] = sum_{n<=x} mu[n].
    """

    limit: int
    mu: np.ndarray
    mertens: np.ndarray


def sieve(limit: int) -> MobiusTable:
    """Build the MobiusTable for 1..limit.

    A segmented Eratosthenes sieve over the primes p <= sqrt(limit), which
    come from primes_upto(isqrt(limit)).  The range goes in blocks of
    SIEVE_BLOCK entries through one reused int32 buffer val of signed
    products: multiply val[n] by -p at the multiples of p, zero it at the
    multiples of p^2, then flip the sign where |val[n]| != n, i.e. where one
    prime factor > sqrt(limit) is left over.  Each block's mu goes straight
    into the int8 output, and _mertens sums it in place in its int64
    output, so the peak is the 9 bytes per entry of mu and mertens plus
    O(SIEVE_BLOCK).

    Args:
        limit: Upper bound N >= 1.

    Returns:
        MobiusTable with mu and mertens populated.

    Raises:
        CapacityError: limit < 1 or limit > MAX_SIEVE_LIMIT.
    """
    if limit < 1:
        raise CapacityError("sieve limit must be >= 1, got %r" % (limit,))
    if limit > MAX_SIEVE_LIMIT:
        raise CapacityError(
            "sieve limit %d exceeds memory budget (max %d)" % (limit, MAX_SIEVE_LIMIT)
        )

    n = limit
    primes = primes_upto(math.isqrt(n)).tolist()
    mu = np.empty(n + 1, dtype=np.int8)
    # |val[k]| is a product of distinct primes dividing k, so |val[k]| <= k
    # <= MAX_SIEVE_LIMIT < 2^31: int32 cannot overflow
    buf = np.empty(min(SIEVE_BLOCK, n + 1), dtype=np.int32)
    for lo in range(0, n + 1, SIEVE_BLOCK):
        hi = min(lo + SIEVE_BLOCK, n + 1)
        val = buf[: hi - lo]
        val.fill(1)
        for p in primes:
            val[-lo % p :: p] *= -p
            first = -lo % (p * p)
            if first < hi - lo:  # most p^2 miss most blocks
                val[first :: p * p] = 0
        # mu = sign(val), 0 where a square divides k; |val[k]| < k means
        # exactly one prime factor > sqrt(N) is left over, which flips the sign
        block = mu[lo:hi]
        np.sign(val, out=block, casting="unsafe")
        np.abs(val, out=val)
        np.negative(block, out=block, where=val != np.arange(lo, hi, dtype=np.int32))
    mu[0] = 0
    return MobiusTable(limit=n, mu=mu, mertens=_mertens(mu))


def _mertens(mu: np.ndarray) -> np.ndarray:
    """Prefix sums M(x) = sum_{n<=x} mu[n], with M(0) = 0.

    Widened to int64 once, into the output, and summed there in place, so
    no temporary copy of mu is made.
    """
    mertens = mu.astype(np.int64)
    mertens[0] = 0
    np.cumsum(mertens, out=mertens)
    return mertens


def totient_table(limit: int) -> np.ndarray:
    """phi(n) for n = 0..limit (phi[0] = 0), int64.

    Inverts sum_{d|n} phi(d) = n in place: divisor_pass(phi, phi, -1) turns
    phi = n into phi(n) = n - sum_{d|n, d<n} phi(d).  No mu is read, so
    phi stays a Mobius-free oracle.
    """
    if limit < 1:
        raise CapacityError("totient limit must be >= 1, got %r" % (limit,))
    if limit > MAX_SIEVE_LIMIT:
        raise CapacityError(
            "totient limit %d exceeds memory budget (max %d)" % (limit, MAX_SIEVE_LIMIT)
        )
    phi = np.arange(limit + 1, dtype=np.int64)
    divisor_pass(phi, phi, -1)
    return phi


def save_cache(table: MobiusTable, path: str) -> None:
    """Write the binary mu cache: magic, little-endian u64 limit, mu bytes.

    The bytes go to a temp file next to path, which replaces path only once
    it is complete: a failed write leaves an existing cache as it was.
    """
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(struct.pack("<Q", table.limit))
            fh.write(np.asarray(table.mu, dtype=np.int8))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_cache(path: str, limit: Optional[int] = None) -> MobiusTable:
    """Load a mu cache written by save_cache, then recompute mertens.

    The header, the file size and every mu byte are validated, whatever
    limit asks for.  With a limit below the file's, only mu[:limit+1] is
    kept (and summed); otherwise the whole file is.

    Raises:
        ValueError: wrong magic, a header limit above MAX_SIEVE_LIMIT, a file
            size other than header + limit + 1, or a mu byte outside {-1, 0, 1}.
    """
    header = len(_CACHE_MAGIC) + 8
    with open(path, "rb") as fh:
        head = fh.read(header)
        if len(head) != header or head[: len(_CACHE_MAGIC)] != _CACHE_MAGIC:
            raise ValueError("not a RAFSIEVE1 cache file: %r" % (path,))
        (stored,) = struct.unpack("<Q", head[len(_CACHE_MAGIC) :])
        if stored > MAX_SIEVE_LIMIT:
            raise ValueError(
                "RAFSIEVE1 cache %r: limit %d exceeds max %d" % (path, stored, MAX_SIEVE_LIMIT)
            )
        size = os.fstat(fh.fileno()).st_size
        if size != header + stored + 1:
            raise ValueError(
                "RAFSIEVE1 cache %r: %d bytes, limit %d needs %d"
                % (path, size, stored, header + stored + 1)
            )
        keep = int(stored) if limit is None else min(int(stored), limit)
        mu = np.empty(keep + 1, dtype=np.int8)
        if fh.readinto(mu) != keep + 1:
            raise ValueError("RAFSIEVE1 cache %r: truncated while reading" % (path,))
        _check_mu_bytes(mu, path)
        # the bytes past the kept prefix are checked a block at a time
        for _ in range(keep + 1, stored + 1, SIEVE_BLOCK):
            _check_mu_bytes(np.frombuffer(fh.read(SIEVE_BLOCK), dtype=np.int8), path)
    return MobiusTable(limit=keep, mu=mu, mertens=_mertens(mu))


def _check_mu_bytes(mu: np.ndarray, path: str) -> None:
    if mu.min() < -1 or mu.max() > 1:
        raise ValueError("RAFSIEVE1 cache %r: mu value outside {-1, 0, 1}" % (path,))


def _iroot(n: int, p: int) -> int:
    """floor(n^(1/p)), exact for every n and p >= 1.

    Below 2^52 a float seed lands within a step or two of the root; above,
    a float is off by ~n^(1/p) / 2^53 (or overflows), so integer Newton
    descends from 2^ceil(bits/p), an upper bound, to the floor.
    """
    if n < 1:
        return 0
    if p == 1:
        return n
    if n.bit_length() > 52:
        r = 1 << -(-n.bit_length() // p)
        while True:
            y = ((p - 1) * r + n // r ** (p - 1)) // p
            if y >= r:
                return r
            r = y
    r = int(round(n ** (1.0 / p)))
    while r > 0 and r**p > n:
        r -= 1
    while (r + 1) ** p <= n:
        r += 1
    return r


def primes_upto(limit: int) -> np.ndarray:
    """The primes p <= limit, ascending, int64 (empty below 2).

    A boolean Eratosthenes sieve: each p <= sqrt(limit) still marked prime
    strikes p^2, p^2 + p, ... .
    """
    is_prime = np.ones(max(limit + 1, 2), dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime[: limit + 1])


def largest_primes(limit: int, count: int) -> np.ndarray:
    """The count largest primes <= limit, ascending (all of them when there
    are fewer): primes_upto(limit)[-count:], in O(sqrt(limit) + width)
    memory.

    The window (limit - width, limit] is struck by the primes up to
    sqrt(limit), each from the larger of p^2 and its first multiple in the
    window; width starts at count * bit_length(limit), about count average
    prime gaps, and doubles until the window holds count primes or reaches
    down to 2.
    """
    primes = primes_upto(math.isqrt(limit)).tolist()
    width = count * max(1, limit.bit_length())
    while True:
        lo = max(2, limit - width + 1)
        is_prime = np.ones(max(limit - lo + 1, 0), dtype=bool)
        for p in primes:
            is_prime[max(p * p, -(-lo // p) * p) - lo :: p] = False
        found = np.flatnonzero(is_prime) + lo
        if len(found) >= count or lo == 2:
            return found[max(0, len(found) - count) :]
        width *= 2


def divisor_pass(target: np.ndarray, weights: np.ndarray, sign: int, mult=None) -> None:
    """target[i*d] += sign*mult[i]*weights[d] for all d >= 1, i >= 2 with i*d <= N.

    N = len(target) - 1 and sign is +1 or -1.  mult=None means mult[i] = 1
    for every i; a shorter mult reads as zero past its end.  d ascends, so
    weights may be target itself: divisor_pass(b, b, -1) turns s(m) into
    b_m = s(m) - sum_{d|m, d<m} b_d, and divisor_pass(b, b, -1, v) turns
    c(m) into b_m = c(m) - sum_{d|m, d<m} v_{m/d} b_d.  Works on float, int
    and object (Fraction) arrays.
    """
    update = operator.iadd if sign > 0 else operator.isub  # in place on a view
    n = len(target) - 1
    top = n if mult is None else len(mult) - 1  # the largest i with a mult[i]
    r = math.isqrt(n)
    # d <= sqrt(N): one strided slice per d.
    for d in range(1, r + 1):
        w = weights[d]
        if w:
            if mult is None:
                update(target[2 * d :: d], w)
            else:
                m = mult[2 : n // d + 1]
                _update_scaled(update, target[2 * d : (len(m) + 1) * d + 1 : d], m, w)
    # d > sqrt(N) in dyadic blocks [d0, 2*d0).  No d of a block divides
    # another, so the block reads only finished weights, and its i-th
    # multiples form one strided slice.  A target i*d = i'*d' with d < d' in
    # one block has i > i', so running i downwards gives every target its
    # terms in ascending d, the per-d loop's order: floats round the same way.
    d0 = r + 1
    while 2 * d0 <= n:
        d1 = min(2 * d0 - 1, n // 2)
        w = weights[d0 : d1 + 1]
        for i in range(min(n // d0, top), 1, -1):
            hi = min(d1, n // i)
            if mult is None:
                update(target[i * d0 : i * hi + 1 : i], w[: hi - d0 + 1])
            elif mult[i]:
                _update_scaled(update, target[i * d0 : i * hi + 1 : i], w[: hi - d0 + 1], mult[i])
        d0 = d1 + 1


def _update_scaled(update, target: np.ndarray, v: np.ndarray, c) -> None:
    """update(target, v * c), SIEVE_BLOCK entries at a time, so the products
    never form an N-long temporary; v itself where c == 1."""
    for lo in range(0, len(v), SIEVE_BLOCK):
        block = v[lo : lo + SIEVE_BLOCK]
        update(target[lo : lo + SIEVE_BLOCK], block if c == 1 else block * c)
