import functools
import io
import json
import math
import os
import struct
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raflab.asymptotics import mertens_ratio_report
from raflab.sieve import (
    CapacityError,
    MAX_SIEVE_LIMIT,
    SIEVE_BLOCK,
    _iroot,
    divisor_pass,
    largest_primes,
    load_cache,
    primes_upto,
    save_cache,
    sieve,
    totient_table,
)

# hand table: mu and Mertens for n = 1..10
MU_10 = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
MERTENS_10 = [1, 0, -1, -1, -2, -1, -2, -2, -2, -1]


def naive_mu(n):
    out, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def _primes(limit):
    return [p for p in range(2, limit + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


# n = p^2 and (pq)^2, and next to them, where the largest prime <= sqrt(n)
# changes; n <= 3e4 keeps the trial-division reference cheap
_SQUARE_ROOTS = sorted({p * q for p in _primes(173) for q in [1] + _primes(173) if p * q <= 173})
DIFF_SIZES = st.one_of(
    st.builds(lambda r, e: r * r + e, st.sampled_from(_SQUARE_ROOTS), st.sampled_from([-1, 0, 1])),
    st.integers(min_value=1, max_value=30_000),
)


@functools.lru_cache(maxsize=None)
def _trial_division_mu(limit):
    return np.array([0] + [naive_mu(m) for m in range(1, limit + 1)], dtype=np.int8)


@settings(max_examples=60, deadline=None)
@given(DIFF_SIZES)
def test_sieve_matches_trial_division(n):
    ref = _trial_division_mu(30_001)[: n + 1]
    t = sieve(n)
    assert t.limit == n
    assert np.array_equal(t.mu, ref)
    assert np.array_equal(t.mertens, np.concatenate(([0], np.cumsum(ref[1:], dtype=np.int64))))


def _whole_array_mu(n):
    """mu by one int64 signed-product array over 0..n, with no blocks and
    trial-division primes."""
    val = np.ones(n + 1, dtype=np.int64)
    for p in _primes(math.isqrt(n)):
        val[p::p] *= -p
        val[p * p :: p * p] = 0
    mu = np.sign(val).astype(np.int8)
    np.negative(mu, out=mu, where=np.abs(val) != np.arange(n + 1))
    mu[0] = 0
    return mu


def _cumsum_mertens(mu):
    return np.concatenate(([0], np.cumsum(mu[1:], dtype=np.int64)))


@pytest.mark.parametrize(
    "n", [1, 2, 3, 97, SIEVE_BLOCK - 1, SIEVE_BLOCK, SIEVE_BLOCK + 1, 2 * SIEVE_BLOCK + 7, 10**7]
)
def test_blocked_sieve_matches_whole_array_sieve(n):
    t = sieve(n)
    assert t.mu.dtype == np.int8 and t.mertens.dtype == np.int64
    assert np.array_equal(t.mu, _whole_array_mu(n))
    assert np.array_equal(t.mertens, _cumsum_mertens(t.mu))


def test_cache_roundtrip_across_blocks(tmp_path):
    n = 2 * SIEVE_BLOCK + 7
    t = sieve(n)
    path = tmp_path / "sieve.bin"
    save_cache(t, str(path))
    for limit in (None, SIEVE_BLOCK + 1, n):
        keep = n if limit is None else limit
        loaded = load_cache(str(path), limit)
        assert loaded.limit == keep
        assert np.array_equal(loaded.mu, t.mu[: keep + 1])
        assert np.array_equal(loaded.mertens, _cumsum_mertens(t.mu[: keep + 1]))
    # a bad byte two blocks past a short prefix is still found
    raw = bytearray(path.read_bytes())
    raw[-3] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="outside"):
        load_cache(str(path), 100)


def test_blocked_passes_allocate_nothing_n_long_beyond_the_outputs(tmp_path, traced_peak):
    # the outputs take 9 bytes per entry (int8 mu, int64 mertens); the blocks
    # add O(SIEVE_BLOCK) on top, however large N is.  At its peak a
    # whole-array sieve holds 16 more bytes per entry, a whole-array load 9
    # and a whole-array ratio scan 32.
    n = 4 * SIEVE_BLOCK
    bound = 9 * (n + 1) + 16 * SIEVE_BLOCK
    t, peak = traced_peak(lambda: sieve(n))
    assert peak <= bound
    path = str(tmp_path / "sieve.bin")
    # mu is written from its own int8 buffer, not from an n + 1 byte copy
    _, peak = traced_peak(lambda: save_cache(t, path))
    assert peak < n + 1
    loaded, peak = traced_peak(lambda: load_cache(path))
    assert np.array_equal(loaded.mertens, t.mertens)
    assert peak <= bound
    # one float64 block buffer, one block temporary and numpy's cast
    # buffers, against the 8n bytes of a single n-long float64 array
    rep, peak = traced_peak(lambda: mertens_ratio_report(t, n))
    assert rep.argmax_x == 5
    assert peak <= 2 * 8 * SIEVE_BLOCK + 2**18 < 8 * n


def test_hand_rows(table_small):
    assert table_small.mu[1:11].tolist() == MU_10
    assert table_small.mertens[1:11].tolist() == MERTENS_10


def test_limit_one():
    t = sieve(1)
    assert t.limit == 1
    assert t.mu[1] == 1
    assert t.mertens[1] == 1


def test_capacity_guard():
    with pytest.raises(CapacityError):
        sieve(0)
    with pytest.raises(CapacityError):
        sieve(MAX_SIEVE_LIMIT + 1)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**400), st.integers(min_value=1, max_value=40))
def test_iroot_is_the_exact_floor_root(n, p):
    # beyond 2^53 a float seed is off by far more than a step, or overflows
    r = _iroot(n, p)
    assert r**p <= n < (r + 1) ** p
    assert _iroot(n, 1) == n and _iroot(n, 2) == math.isqrt(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=100_000))
def test_mu_matches_naive(table_100k, n):
    assert int(table_100k.mu[n]) == naive_mu(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=100_000))
def test_mobius_sum_over_divisors(table_100k, n):
    # sum_{d|n} mu(d) = 0 for n > 1
    divs = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divs += [n // d for d in divs if d * d != n]
    assert sum(int(table_100k.mu[d]) for d in divs) == 0


def test_primes_upto_matches_trial_division():
    for limit in (0, 1, 2, 3, 4, 1000):
        want = [n for n in range(2, limit + 1)
                if all(n % q for q in range(2, math.isqrt(n) + 1))]
        assert primes_upto(limit).tolist() == want


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 100, 541, 542, 10**6])
def test_largest_primes_are_the_tail_of_primes_upto(limit):
    # 541 is the 100th prime: its window must reach down to 2
    want = primes_upto(limit)
    for count in (1, 100):
        got = largest_primes(limit, count)
        assert got.dtype == want.dtype
        assert got.tolist() == want[max(0, len(want) - count) :].tolist()


def test_largest_primes_holds_no_limit_long_array(traced_peak):
    n = 4 * SIEVE_BLOCK
    got, peak = traced_peak(lambda: largest_primes(n, 100))
    assert got.tolist() == primes_upto(n)[-100:].tolist()
    assert peak <= n // 16  # an n-long bool array alone takes n bytes


def test_totient_table():
    phi = totient_table(200)

    def naive_phi(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    for n in range(1, 201):
        assert phi[n] == naive_phi(n)
    assert phi[0] == 0
    assert totient_table(1).tolist() == [0, 1]


def test_cache_roundtrip(tmp_path, table_small):
    path = tmp_path / "sieve.bin"
    save_cache(table_small, str(path))
    loaded = load_cache(str(path))
    assert loaded.limit == table_small.limit
    assert np.array_equal(loaded.mu, table_small.mu)
    assert np.array_equal(loaded.mertens, table_small.mertens)


def test_cache_prefix_equals_smaller_sieve(tmp_path, table_small):
    path = tmp_path / "sieve.bin"
    save_cache(table_small, str(path))
    for limit in (1, 2, 3, 24, 25, 26, 500, 999, 1000, 5000):
        loaded = load_cache(str(path), limit)
        want = sieve(min(limit, 1000))  # a larger request gets the whole file
        assert loaded.limit == want.limit
        for got, ref in ((loaded.mu, want.mu), (loaded.mertens, want.mertens)):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)


def test_cache_prefix_still_checks_every_byte(tmp_path, table_small):
    path = tmp_path / "sieve.bin"
    save_cache(table_small, str(path))
    raw = path.read_bytes()
    header = len(raw) - (table_small.limit + 1)
    for bad in (7, 0x80):  # 7 and -128, both past the requested limit
        corrupt = bytearray(raw)
        corrupt[header + 900] = bad
        path.write_bytes(bytes(corrupt))
        with pytest.raises(ValueError, match="outside"):
            load_cache(str(path), 100)


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    header = b"RAFSIEVE1"
    for raw in (
        b"not a sieve cache at all",
        header + struct.pack("<Q", 2**63),  # limit far above the memory budget
        header + struct.pack("<Q", MAX_SIEVE_LIMIT + 1),
        header + struct.pack("<Q", 3) + bytes([0, 1, 7, 0x80]),  # mu = [0, 1, 7, -128]
    ):
        path.write_bytes(raw)
        with pytest.raises(ValueError):
            load_cache(str(path))


def test_cache_rejects_truncated(tmp_path, table_small):
    path = tmp_path / "sieve.bin"
    save_cache(table_small, str(path))
    raw = path.read_bytes()
    for bad in (raw[:-5], raw + b"\x00"):  # short, then one trailing byte
        path.write_bytes(bad)
        with pytest.raises(ValueError):
            load_cache(str(path))


def test_failed_save_keeps_old_cache(tmp_path, table_small, monkeypatch):
    path = tmp_path / "sieve.bin"
    save_cache(table_small, str(path))
    before = path.read_bytes()
    header = len(before) - (table_small.limit + 1)

    class FullDisk(io.FileIO):
        def write(self, b):
            if self.tell() >= header:  # the mu bytes, after the header
                raise OSError("disk full")
            return super().write(b)

    monkeypatch.setitem(save_cache.__globals__, "open", FullDisk)
    with pytest.raises(OSError, match="disk full"):
        save_cache(table_small, str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["sieve.bin"]


# ------------------------------------------------------------ divisor_pass


def reference_divisor_pass(target, weights, sign, mult=None):
    """The per-d loop divisor_pass replaces: every d, one strided slice."""
    n = len(target) - 1
    for d in range(1, n // 2 + 1):
        w = weights[d]
        top = n // d if mult is None else min(n // d, len(mult) - 1)
        if w and top >= 2:
            step = w if mult is None else mult[2 : top + 1] * w
            if sign > 0:
                target[2 * d : top * d + 1 : d] += step
            else:
                target[2 * d : top * d + 1 : d] -= step


# where divisor_pass's split moves: at squares r^2 the strided part gains
# d = r, and at powers of two the dyadic blocks of the larger d shift; each
# with its neighbours
PASS_SIZES = st.one_of(
    st.sampled_from(sorted({m + e for m in [r * r for r in (2, 3, 7, 8, 31, 32, 54)]
                            + [2**j for j in (1, 2, 3, 6, 7, 10, 11)]
                            for e in (-1, 0, 1)} - {0})),
    st.integers(min_value=1, max_value=3000),
)


def _weights(kind, n, rng):
    if kind == "float":
        w = rng.standard_normal(n + 1) * 10.0 ** rng.integers(-6, 7, n + 1)
        w[rng.random(n + 1) < 0.2] = 0.0
        return w
    if kind == "int":
        return rng.integers(-1000, 1001, n + 1)
    num, den = rng.integers(-9, 10, n + 1), rng.integers(1, 10, n + 1)
    return np.array([Fraction(int(a), int(b)) for a, b in zip(num, den)], dtype=object)


def _mult(kind, length, rng):
    """Per-multiple factors of magnitude <= 1, so in-place passes stay small."""
    v = rng.integers(-1, 2, length)
    if kind == "float":
        return v * rng.random(length)
    if kind == "int":
        return v
    return np.array([Fraction(int(a), int(b)) for a, b in zip(v, rng.integers(1, 4, length))],
                    dtype=object)


@pytest.mark.parametrize("kind", ["float", "int", "fraction"])
@settings(max_examples=40, deadline=None)
@given(n=PASS_SIZES, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_divisor_pass_matches_per_d_loop(kind, n, seed):
    if kind == "fraction":
        n = min(n, 500)
    rng = np.random.default_rng(seed)
    # in place, sign -1: the Ingham inversion b_m = s(m) - sum_{d|m, d<m} b_d
    s = _weights(kind, n, rng)
    got, want = s.copy(), s.copy()
    divisor_pass(got, got, -1)
    reference_divisor_pass(want, want, -1)
    assert np.array_equal(got, want)
    # separate weights, sign +1: the forward floor-sum scatter
    w = _weights(kind, n, rng)
    got, want = s.copy(), s.copy()
    divisor_pass(got, w, 1)
    reference_divisor_pass(want, w, 1)
    assert np.array_equal(got, want)
    # separate weights, sign +1, a full-length per-multiple factor: the
    # Ingham closed form's scatter of mu(j)*t(m) into j*m
    t = _mult(kind, n + 1, rng)
    got, want = s.copy(), s.copy()
    divisor_pass(got, w, 1, t)
    reference_divisor_pass(want, w, 1, t)
    assert np.array_equal(got, want)
    # in place with a per-multiple factor of any length: the genin inversion
    # b_m = c(m) - sum_{d|m, d<m} v_{m/d} b_d
    v = _mult(kind, int(rng.integers(0, n + 2)), rng)
    got, want = s.copy(), s.copy()
    divisor_pass(got, got, -1, v)
    reference_divisor_pass(want, want, -1, v)
    assert np.array_equal(got, want)


def test_import_of_the_sieve_submodule_gives_the_module():
    # the package re-exports no function under the name of its submodule
    import raflab.sieve as s

    assert s.sieve(10).mu[1:].tolist() == MU_10


def test_importing_a_module_loads_only_the_modules_it_imports():
    # the package root holds only __version__, so it loads no submodule, and
    # raflab.sieve, which imports nothing from the package, loads itself alone
    code = (
        "import json, sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('raflab.'))\n"
        "import raflab\n"
        "root = loaded()\n"
        "import raflab.sieve\n"
        "print(json.dumps([root, loaded()]))\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], ["raflab.sieve"]]
