"""Independent output checks, run outside every timed region.

Each check returns a list of items ``(label, ok, detail, known)``.  ``known``
marks a failure of the documented zeta defect, a relative error above 1e-9
in the left half-plane: it counts towards ``failed_frac`` but is reported
apart from the failures nobody expects.  The formulas here are the benchmark's own: integer
floors, trial-division Mobius, ``math.fsum`` and, where installed, mpmath.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

HAVE_MPMATH = importlib.util.find_spec("mpmath") is not None

Item = Tuple[str, bool, str, bool]

ZETA_TOL = 1e-9
# The known zeta defect: Euler-Maclaurin round-off for Re s < 0.  Misses reach
# 0.6 below Re s = -3; nearer the imaginary axis they show only where |zeta|
# is small, e.g. 2e-9 at s = -2.87+0.01i.
ZETA_DEFECT_RE = 0.0


def item(label: str, ok: bool, detail: str = "", known: bool = False) -> Item:
    return (label, bool(ok), detail, known)


# ---------------------------------------------------------------------------
# reference arithmetic
# ---------------------------------------------------------------------------


def mu_trial(n: int) -> int:
    """Mobius function by trial division."""
    if n == 1:
        return 1
    sign, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign


def mu_table(limit: int) -> np.ndarray:
    """Mobius function for 0..limit (mu[0] = 0) by a sieve of Eratosthenes."""
    mu = np.ones(limit + 1, dtype=np.int64)
    mu[0] = 0
    composite = np.zeros(limit + 1, dtype=bool)
    for p in range(2, limit + 1):
        if not composite[p]:
            composite[p * p :: p] = True
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
    return mu


def floor_sum(w: np.ndarray, n: int) -> int:
    """sum_{k<=n} w[k-1] floor(n/k) in integers."""
    k = np.arange(1, n + 1, dtype=np.int64)
    return int(np.dot(w[:n].astype(np.int64), n // k))


def three_smooth_count(n: int) -> int:
    """#{m <= n : m = 2^a 3^b}."""
    count, p2 = 0, 1
    while p2 <= n:
        v = p2
        while v <= n:
            count += 1
            v *= 3
        p2 *= 2
    return count


def delta_nan(n: int) -> int:
    """n*a_n for the delta right-hand side: mu(n) - [2|n] mu(n/2)."""
    return mu_trial(n) - (mu_trial(n // 2) if n % 2 == 0 else 0)


def ingham_residual(a: np.ndarray, n: int, rn: float) -> float:
    """sum_{k<=n} a_k k floor(n/k) / n - R(n), floors in int64, sum by fsum."""
    k = np.arange(1, n + 1, dtype=np.int64)
    terms = a[1 : n + 1] * (k * (n // k)).astype(np.float64) / n
    return math.fsum(terms.tolist()) - rn


def scalar_residual(kernel, a: np.ndarray, n: int, rn: float) -> float:
    """Residual with the scalar Kernel.eval (not the solver's vectorised row)."""
    return math.fsum(float(a[k]) * kernel.eval(n, k) for k in range(1, n + 1)) - rn


def budget(n: int, rn: float) -> float:
    """The solver's own residual budget, 1e-9 * n * max(1, |R(n)|)."""
    return 1e-9 * n * max(1.0, abs(rn))


# ---------------------------------------------------------------------------
# reading job outputs
# ---------------------------------------------------------------------------


def last_json(stdout: str):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    return json.loads(lines[-1])


def read_coeff_csv(path: str) -> np.ndarray:
    """a_0..a_N from an `n,a_n` CSV (a_0 = 0); rows must be n = 1..N in order."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        if header != ["n", "a_n"]:
            raise ValueError("unexpected header %r" % (header,))
        vals = [0.0]
        for i, (n, a) in enumerate(rows, start=1):
            if int(n) != i:
                raise ValueError("row %d has n=%s" % (i, n))
            vals.append(float(a))
    return np.asarray(vals)


def read_fraction_csv(path: str) -> List[Fraction]:
    """a_0..a_N from an `n,a_num,a_den` CSV written by the exact backend."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        if next(rows) != ["n", "a_num", "a_den"]:
            raise ValueError("unexpected header")
        vals = [Fraction(0)]
        for i, (n, num, den) in enumerate(rows, start=1):
            if int(n) != i:
                raise ValueError("row %d has n=%s" % (i, n))
            vals.append(Fraction(int(num), int(den)))
    return vals


# ---------------------------------------------------------------------------
# checks shared by several jobs
# ---------------------------------------------------------------------------


def residual_items(a: np.ndarray, samples: Sequence[int], beta: float, kernel=None) -> List[Item]:
    """Residuals of R(n) = n^-beta at the sampled n, Ingham floors or scalar kernel."""
    out = []
    for n in samples:
        rn = float(n) ** -beta
        if kernel is None:
            res = ingham_residual(a, n, rn)
        else:
            res = scalar_residual(kernel, a, n, rn)
        tol = budget(n, rn)
        out.append(item("residual n=%d" % n, abs(res) <= tol, "|res|/budget=%.3g" % (abs(res) / tol)))
    return out


def exact_residual(a: List[Fraction], n: int, rn: Fraction) -> Fraction:
    """Exact sum_{k<=n} a_k k floor(n/k) / n - R(n)."""
    return sum((a[k] * (k * (n // k)) for k in range(1, n + 1)), Fraction(0)) / n - rn


def small_ingham_solve(rn: Sequence[float], count: int) -> List[float]:
    """a_1..a_count for the Ingham kernel by direct forward substitution in floats."""
    a = [0.0] * (count + 1)
    for n in range(1, count + 1):
        acc = math.fsum(a[k] * (k * (n // k)) / n for k in range(1, n))
        a[n] = rn[n] - acc
    return a


def zeta_items(points: Sequence[complex], values: Sequence[complex]) -> List[Item]:
    """zeta against mpmath at relative error ZETA_TOL; misses at Re s < 0 are the known defect."""
    import mpmath

    out = []
    with mpmath.workdps(30):
        for s, got in zip(points, values):
            ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
            rel = abs(got - ref) / abs(ref)
            ok = rel <= ZETA_TOL
            out.append(item("zeta s=%.4g%+.4gi" % (s.real, s.imag), ok, "rel=%.3g" % rel,
                            known=not ok and s.real < ZETA_DEFECT_RE))
    return out


def ingham_transform_ref(z: complex) -> complex:
    """z/(z-1) * zeta(1-z) by mpmath."""
    import mpmath

    with mpmath.workdps(30):
        zz = mpmath.mpc(z.real, z.imag)
        return complex(zz / (zz - 1) * mpmath.zeta(1 - zz))


def own_count(what: str, n: int) -> int:
    """The counting identities' left-hand sides, computed without raflab."""
    head, _, arg = what.partition(":")
    if head == "coprime":
        m = int(arg)
        return sum(mu_trial(d) * (n // d) ** m for d in range(1, n + 1))
    if head == "pfree":
        p = int(arg)
        powers = [k**p for k in range(2, int(round(n ** (1.0 / p))) + 2) if k**p <= n]
        return sum(1 for v in range(1, n + 1) if all(v % q for q in powers))
    if head == "ppow":
        p, count, v = int(arg), 1, int(arg)
        while v <= n:
            count, v = count + 1, v * p
        return count
    if head == "smooth":
        primes = [int(q) for q in arg.split(",")]
        count = 0
        for v in range(1, n + 1):
            for q in primes:
                while v % q == 0:
                    v //= q
            count += v == 1
        return count
    if head == "elias":
        return 1 + 2 * (n.bit_length() - 1)
    raise ValueError("unknown count %r" % (what,))
