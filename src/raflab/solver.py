"""Triangular-recurrence solver for sum_{k<=n} a_k G(n,k) = R(n), a_1 = 1.

Right-hand sides (RhsSpec, the one evaluator of R, at any n): R(n) = n^-beta
("power"), the delta sequence (1,0,0,...) — the beta = infinity limit — and
n^-beta * L0(n) with L0 the 3-smooth counting function ("l0pow").

solve() picks its path from the one declaration Kernel.structure(limit)
returns, never from the kernel's class:
  * Divisor   — O(N log N), for n^rho G(n,k)/k^rho = sum_{m<=n/k} w_m
                with rho = 1/p (ingham, genin, disc with integer lam:
                rho = 1; ingham rescaled by x^(1/p): rho = 1/p); float, or,
                on ints and Fractions, exact when w = 1 (w = None), rho = 1
                and every R(n) is rational (delta, integer beta >= 0).
  * Separable — O(N), float only, for rank-2 separable kernels (affine, log).
  * Hankel    — O(N log^2 N), float only, for G(n,k) = h[n+k] (ratraf), by
                divide and conquer over the rows: solve the left half of
                [lo, hi), add its part of every row sum of the right half
                with one FFT correlation, then solve the right half; blocks
                of _HANKEL_LEAF rows or fewer run the per-row dot.
  * Band      — O(N c), float only, for rows n >= n0 that are 1.0 up to a
                band of c + 1 entries at the diagonal (ingham rescaled by
                q^x+1): rows below n0 from kernel.eval_row, then a running
                prefix sum plus c band terms per row.  Row n0 is compared
                with eval_row before the band is used.
  * None      — generic O(N^2) forward substitution, float only, for every
                other kernel (non-integer disc, other rescalings), with rows
                from kernel.eval_row; refused above GENERIC_CAP.
The Hankel, Band and rho < 1 divisor solves sum in another order than the
dense eval_row rows, and the generic one builds each row on its own, so
after them the post-solve check tests the whole verify_residuals sample on
eval_row rows; after the rho = 1 divisor and separable paths it tests n = N.

Divisor-path algebra (convention-free, used by both backends): when
n^rho G(n,k)/k^rho = sum_{m<=n/k} w_m, multiply the defining relation by
n^rho and write b_k = k^rho a_k, so

    sum_{k<=n} b_k sum_{m<=n/k} w_m = sum_{j<=n} (w * b)(j) = n^rho R(n),

with * the Dirichlet convolution.  Hence (w * b)(m) = s(m) :=
T(m) - T(m-1), T(m) = m^rho R(m) (RhsSpec.t_exact or m^rho * r_float on
the two backends), and one in-place pass, sieve.divisor_pass(s, s, -1,
w/w_1) after s /= w_1, solves w_1 b_m = s(m) - sum_{d|m, d<m} w_{m/d} b_d
(Apostol, Introduction to Analytic Number Theory, 1976, ch. 2).  The
kernel declares w: none (w = 1) for x*floor(1/x), the indicator of the
p-th powers for its x^(1/p) rescaling, the staircase steps
w = delta_1 + sum_{i>=1} (lam^i - lam^(i-1)) delta_{lam^i} for disc with
integer lam, and 1 * u for genin's n*G(n,k)/k = sum_j u_j floor(n/(j*k)).

A float divisor-path solve holds a_0..a_N (in the one array that held T,
then s, then b), the weights w, and O(SIEVE_BLOCK) besides: R, T, s, the
finite checks and the division by m go a block at a time, and so do the
residual rows, partial_sums and the HLR report that read a_n afterwards.

The Ingham closed form (ingham_coeff_closed) reaches the same solutions
forwards: n*a_n = (mu * t)(n) with t(d) = d^(1-beta) - (d-1)^(1-beta), one
divisor_pass(out, mu, +1, t) plus the m = 1 term mu(n).  It reads the
sieve's mu where the divisor path inverts in place, so the two stay
independent routes to the same numbers.

Separable-path recurrence: when G(n,k) = sum_i P[i,n] Q[i,k] (i = 0, 1),
the row sum over k < n is sum_i P[i,n] S_i(n) with the running sums
S_i(n) = sum_{k<n} a_k Q[i,k], so

    a_n = (R(n) - sum_i P[i,n] S_i(n)) / sum_i P[i,n] Q[i,n],

and each step updates S_i by a_n Q[i,n].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .kernels import Band, Divisor, Hankel, Kernel, Separable, _num
from .sieve import SIEVE_BLOCK, MobiusTable, divisor_pass

# Largest N the generic O(N^2) forward substitution accepts.
GENERIC_CAP = 20_000

# Rows per leaf of the Hankel divide and conquer.  The optimum is broad:
# leaves of 128 to 2048 rows solved 1e6 rows in 1.9 to 2.8 s on 2 cores,
# with no size best in repeated runs.
_HANKEL_LEAF = 256


class SingularKernelError(ZeroDivisionError):
    """G(n,n) = 0 at some n: the triangular system is unsolvable."""

    def __init__(self, n: int):
        super().__init__("kernel is singular: G(n,n) = 0 at n = %d" % n)
        self.n = n


class BackendMismatchError(TypeError):
    """Exact backend requested for a kernel/RHS pair that is not rational."""


class VerificationError(ArithmeticError):
    """A computed result failed its independent check (residual, identity, zero)."""


# The --rhs grammar: each RhsSpec kind, and whether its spec takes ":<beta>"
_KINDS = {"power": True, "delta": False, "l0pow": True}
_GRAMMAR = " | ".join(kind + ":<beta>" * takes_beta for kind, takes_beta in _KINDS.items())


@dataclass(frozen=True)
class RhsSpec:
    """Right-hand side description.

    kind: "power" (R(n) = n^-beta), "delta" (R = 1,0,0,...; beta = inf),
    or "l0pow" (R(n) = n^-beta * L0(n), L0 the 3-smooth counting function,
    which each evaluator reads off the sorted 3-smooth numbers up to the
    largest n asked: 142 of them at 10^6).
    """

    kind: str
    beta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError("unknown rhs kind %r" % (self.kind,))
        if not _KINDS[self.kind]:
            object.__setattr__(self, "beta", math.inf)
        elif not math.isfinite(self.beta):
            raise ValueError("%s rhs needs finite beta" % self.kind)

    @property
    def beta_is_integer(self) -> bool:
        return math.isfinite(self.beta) and float(self.beta) == int(self.beta)

    @property
    def exactable(self) -> bool:
        """True when every R(n) is rational: delta, or integer beta >= 0."""
        if self.kind == "delta":
            return True
        return self.beta_is_integer and self.beta >= 0

    @property
    def label(self) -> str:
        """The spec parse_rhs reads back to this RhsSpec."""
        return "%s:%s" % (self.kind, _num(self.beta)) if _KINDS[self.kind] else self.kind

    def r_float(self, ns: np.ndarray) -> np.ndarray:
        """R(n) as float64 at each n of the int array ns (R(0) = 0), bit for
        bit what R over all of 0..N holds at that n."""
        ns = np.asarray(ns, dtype=np.int64)
        if self.kind == "delta":
            return (ns == 1).astype(np.float64)
        with np.errstate(divide="ignore", over="ignore"):
            r = ns.astype(np.float64) ** (-self.beta)
        r[ns == 0] = 0.0
        if self.kind == "l0pow":
            r *= _l0(ns)
        return r

    def t_exact(self, ns: np.ndarray) -> np.ndarray:
        """T(n) = n R(n) at each n of the int array ns (T(0) = 0) as an object
        array: Python ints where T is integral (delta, beta <= 1), which is
        much faster, and Fractions otherwise; ValueError for non-integer beta."""
        ns = np.asarray(ns, dtype=np.int64)
        if self.kind == "delta":
            return np.array([int(n == 1) for n in ns.tolist()], dtype=object)
        if not self.beta_is_integer:
            raise ValueError("rhs %s: T(n) is exact only for integer beta" % self.label)
        e = 1 - int(self.beta)  # T(n) = n^e for n >= 1
        t = [0 if not n else n**e if e >= 0 else Fraction(1, n**-e) for n in ns.tolist()]
        if self.kind == "l0pow":
            t = [v * c for v, c in zip(t, _l0(ns).tolist())]
        return np.array(t, dtype=object)


def parse_rhs(spec: str) -> RhsSpec:
    """Parse the --rhs grammar _GRAMMAR into an RhsSpec."""
    kind, colon, beta = spec.strip().partition(":")
    try:
        if kind in _KINDS and _KINDS[kind] == bool(colon):
            return RhsSpec(kind, float(beta)) if colon else RhsSpec(kind)
    except ValueError as exc:
        raise ValueError("bad rhs spec %r — use %s" % (spec, _GRAMMAR)) from exc
    raise ValueError("bad rhs spec %r — use %s" % (spec, _GRAMMAR))


@dataclass(frozen=True)
class Coefficients:
    """Solved coefficient sequence a_1..a_N for a (kernel, rhs) pair.

    values: length N+1; index 0 unused.  Exact backend stores Fractions,
    float backend a float64 array.  n_a_n gives the n*a_n sequence, the
    natural object for the bounded-coefficient (HLR) statements.
    """

    kernel: Kernel
    rhs: RhsSpec
    limit: int
    backend: str
    values: Union[np.ndarray, list]

    def n_a_n(self) -> Union[np.ndarray, list]:
        """n * a_n, same container type as values (index 0 unused)."""
        if self.backend == "exact":
            return [Fraction(0)] + [n * self.values[n] for n in range(1, self.limit + 1)]
        return np.arange(self.limit + 1, dtype=np.float64) * self.values

    def values_float(self) -> np.ndarray:
        if self.backend == "exact":
            return np.array(self.values, dtype=np.float64)
        return self.values


@dataclass(frozen=True)
class PartialSumSeries:
    """Checkpointed A(x) = sum_{n<=x} a_n and A1(x) = sum_{n<=x} n a_n."""

    checkpoints: np.ndarray
    A: np.ndarray
    A1: np.ndarray

    def __post_init__(self) -> None:
        if len(self.checkpoints) == 0:
            raise ValueError("empty checkpoint list")
        if len(self.A) != len(self.checkpoints) or len(self.A1) != len(self.checkpoints):
            raise ValueError("checkpoint/value length mismatch")
        if np.any(np.diff(self.checkpoints) <= 0):
            raise ValueError("checkpoints must be strictly increasing")


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------


def solve(
    kernel: Kernel,
    rhs: RhsSpec,
    limit: int,
    backend: str = "float",
    force_generic: bool = False,
) -> Coefficients:
    """Solve the triangular system for a_1..a_limit.

    Unless force_generic is set, the path is the one kernel.structure(limit)
    declares (see the module docstring): Divisor, O(N log N), solves
    (w * b) = s with b_k = k^rho a_k; Separable, O(N), runs the rank-2
    recurrence; Hankel, O(N log^2 N), forms the row sums
    sum_{k<n} a_k h[n+k] by divide and conquer with FFT correlations; Band,
    O(N c), reads rows below n0 from eval_row and every later row as a
    prefix sum plus its band.  With no structure, the generic forward
    substitution a_n = (R(n) - sum_{k<n} a_k G(n,k)) / G(n,n) runs on
    kernel.eval_row rows, which is O(N^2), float only, and refused above
    GENERIC_CAP.  force_generic always runs that loop, capped too, so it
    stays the reference for every faster path.  The post-solve residual
    check evaluates the kernel with eval_row, never from the declaration,
    at n = limit after a rho = 1 divisor or a separable solve, and on the
    whole verify_residuals sample after any other.  The exact backend needs
    a Divisor with w = None and rho = 1 (the x*floor(1/x) kernel).

    Raises:
        SingularKernelError: G(n,n) = 0 for some n (w_1 = 0 on the divisor
            path, sum_i P[i,n] Q[i,n] = 0 on the separable path).
        BackendMismatchError: exact backend with any other structure, or an
            RHS whose values are not rational (delta / integer beta >= 0 are
            rational; fractional beta is not).
        ValueError: an unknown backend, a generic solve above GENERIC_CAP,
            or a float R(n), s(m) or a_n that is not finite (e.g. n^-beta
            overflows).
        VerificationError: the declared band differs from eval_row at n0,
            or the post-solve a_1 or residual check fails.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")

    if backend == "exact":
        st = kernel.structure(limit)
        if not (isinstance(st, Divisor) and st.rho == 1 and st.w is None):
            raise BackendMismatchError(
                "exact backend supports only the ingham kernel, got %s" % kernel.spec
            )
        if not rhs.exactable:
            raise BackendMismatchError(
                "exact backend needs rational RHS values (delta or integer beta >= 0), "
                "got %s" % rhs.label
            )
        full_sample = False
        values = _divisor_solve(rhs.t_exact(np.arange(limit + 1)), None, rhs.label)
    elif backend == "float":
        st = None if force_generic else kernel.structure(limit)
        if st is None and limit > GENERIC_CAP:
            raise ValueError(
                "generic O(N^2) solve capped at N=%d (asked %d)" % (GENERIC_CAP, limit)
            )
        rho = st.rho if isinstance(st, Divisor) else None
        r = np.empty(limit + 1)  # R(n), or T(n) = n^rho R(n) on the divisor path
        for lo in range(0, limit + 1, SIEVE_BLOCK):
            ns = np.arange(lo, min(lo + SIEVE_BLOCK, limit + 1), dtype=np.int64)
            block = rhs.r_float(ns)
            bad = _first_nonfinite(block)
            if bad is not None:
                raise ValueError("rhs %s: R(n) is not finite at n=%d" % (rhs.label, lo + bad))
            if rho is not None:
                with np.errstate(over="ignore"):
                    block *= ns if rho == 1 else ns**rho
            r[lo : lo + len(ns)] = block
        if isinstance(st, Divisor):
            values = _divisor_solve(r, st.w, rhs.label, rho)
        elif isinstance(st, Separable):
            values = _separable_solve_float(r, st.p, st.q)
        elif isinstance(st, Hankel):
            values = _hankel_solve(st.h, r, limit)
        elif isinstance(st, Band):
            values = _band_solve(kernel, st, r, limit)
        else:
            values = _solve_generic_float(kernel, r, limit)
        bad = _first_nonfinite(values, 1)
        if bad is not None:
            raise ValueError("rhs %s: a_n is not finite at n=%d" % (rhs.label, bad))
        full_sample = not (rho == 1 or isinstance(st, Separable))
    else:
        raise ValueError("backend must be 'exact' or 'float', got %r" % (backend,))

    coeffs = Coefficients(kernel=kernel, rhs=rhs, limit=limit, backend=backend, values=values)
    _spot_check(coeffs, full_sample)
    return coeffs


def _divisor_solve(
    t: np.ndarray, w: Optional[np.ndarray], label: str, rho: float = 1.0
) -> Union[np.ndarray, list]:
    """a_0..a_N from T(0..N), T(m) = m^rho R(m), overwriting t: float64 from a
    float t, Fractions from ints and Fractions (w = None, rho = 1 only).
    b_m = m^rho a_m solves (w * b)(m) = s(m) = T(m) - T(m-1), w = None
    meaning w_m = 1.  Raises ValueError, naming the RHS label, when a float
    s(m) is not finite (T overflows), and SingularKernelError when w_1 = 0.
    Beyond t and w it holds O(SIEVE_BLOCK), and w/w_1 when w_1 != 1: s, the
    finite check and the division by m^rho go a block at a time."""
    prev = t[0]  # T(0) = 0, so s(0) = 0
    for lo in range(1, len(t), SIEVE_BLOCK):
        block = t[lo : lo + SIEVE_BLOCK]
        last = block[-1]  # the T that the next block's first s subtracts
        with np.errstate(over="ignore", invalid="ignore"):
            block[1:] -= block[:-1].copy()  # block becomes s
            block[0] -= prev
        prev = last
        if t.dtype != object:
            bad = _first_nonfinite(block)
            if bad is not None:
                raise ValueError("rhs %s: s(m) is not finite at m=%d" % (label, lo + bad))
    if w is not None and w[1] != 1:
        if not w[1]:
            raise SingularKernelError(1)
        t /= w[1]
        w = w / w[1]
    divisor_pass(t, t, -1, w)  # b_m = s(m)/w_1 - sum_{d|m, d<m} (w_{m/d}/w_1) b_d
    if t.dtype == object:
        return [Fraction(0)] + [
            Fraction(v, m) if isinstance(v, int) else v / m for m, v in enumerate(t[1:].tolist(), 1)
        ]
    for lo in range(1, len(t), SIEVE_BLOCK):
        block = t[lo : lo + SIEVE_BLOCK]
        ms = np.arange(lo, lo + len(block))
        block /= ms if rho == 1 else ms**rho
    return t


def _first_nonfinite(a: np.ndarray, start: int = 0) -> Optional[int]:
    """The first index i >= start with a[i] not finite, or None; float a,
    scanned a block at a time."""
    for lo in range(start, len(a), SIEVE_BLOCK):
        bad = np.flatnonzero(~np.isfinite(a[lo : lo + SIEVE_BLOCK]))
        if len(bad):
            return lo + int(bad[0])
    return None


# The separable loop reads its inputs as Python floats, converted this many
# at a time so no N-long list is ever alive.
_SEPARABLE_CHUNK = 2048


def _separable_solve_float(r: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """a_0..a_N in float64 for G(n,k) = P[0,n] Q[0,k] + P[1,n] Q[1,k]."""
    a = np.zeros(len(r), dtype=np.float64)
    diag = p[0] * q[0] + p[1] * q[1]  # G(n,n)
    bad = np.flatnonzero(diag[1:] == 0.0)
    if len(bad):
        raise SingularKernelError(int(bad[0]) + 1)
    s0 = s1 = 0.0  # sum_{k<n} a_k Q[i,k]
    for lo in range(1, len(r), _SEPARABLE_CHUNK):
        hi = min(lo + _SEPARABLE_CHUNK, len(r))
        out = []
        for rn, p0, p1, q0, q1, g in zip(
            r[lo:hi].tolist(), p[0, lo:hi].tolist(), p[1, lo:hi].tolist(),
            q[0, lo:hi].tolist(), q[1, lo:hi].tolist(), diag[lo:hi].tolist(),
        ):
            an = (rn - p0 * s0 - p1 * s1) / g
            s0 += an * q0
            s1 += an * q1
            out.append(an)
        a[lo:hi] = out
    return a


def _solve_generic_float(kernel: Kernel, r: np.ndarray, top: int) -> np.ndarray:
    """a_0..a_N (N = len(r) - 1) by forward substitution up to row top, the
    rest left 0; row n is G(n, 1..n) from kernel.eval_row."""
    a = np.zeros(len(r), dtype=np.float64)
    ks = np.arange(1, top + 1, dtype=np.int64)
    g11 = kernel.eval(1, 1)
    if g11 == 0.0:
        raise SingularKernelError(1)
    a[1] = r[1] / g11
    for n in range(2, top + 1):
        row = kernel.eval_row(n, ks[:n])
        gnn = row[n - 1]
        if gnn == 0.0:
            raise SingularKernelError(n)
        # numpy dot is pairwise/BLAS-accumulated: error ~ eps*log2(n),
        # well inside the 1e-9*n residual budget
        acc = float(np.dot(a[1:n], row[: n - 1]))
        a[n] = (r[n] - acc) / gnn
    return a


def _hankel_solve(h: np.ndarray, r: np.ndarray, limit: int) -> np.ndarray:
    """a_0..a_N for G(n,k) = h[n+k]: a_n = (R(n) - sum_{k<n} a_k h[n+k]) / h[2n].

    Divide and conquer over the rows [lo, hi), with acc[n] holding the part
    of row n's sum over k < lo on entry (van der Hoeven's relaxed product,
    "Relax, but don't be too lazy", J. Symbolic Comput. 34, 2002).  Once
    the left half [lo, mid) is solved, one FFT correlation adds
    sum_{lo<=k<mid} a_k h[n+k] to acc[n] for every n in [mid, hi); a block of
    _HANKEL_LEAF rows or fewer runs the per-row dot over k in [lo, n).
    O(N log^2 N) time; a, acc and the FFT buffers of the top split besides h.

    Raises:
        SingularKernelError: h[2n] = G(n,n) = 0 at some n.
    """
    a = np.zeros(limit + 1, dtype=np.float64)
    _hankel_rows(h, r, a, np.zeros(limit + 1, dtype=np.float64), 1, limit + 1)
    return a


def _hankel_rows(h, r, a, acc, lo: int, hi: int) -> None:
    """Rows [lo, hi) of _hankel_solve.  A module-level function, so the
    recursion holds no closure cell that refers to itself: a nested one
    would keep h, r, a and acc in a reference cycle after the solve."""
    if hi - lo <= _HANKEL_LEAF:
        for n in range(lo, hi):
            gnn = h[2 * n]
            if gnn == 0.0:
                raise SingularKernelError(n)
            a[n] = (r[n] - (acc[n] + float(np.dot(a[lo:n], h[n + lo : 2 * n])))) / gnn
        return
    mid = (lo + hi) // 2
    _hankel_rows(h, r, a, acc, lo, mid)
    acc[mid:hi] += _correlate(a[lo:mid], h[mid + lo : hi + mid - 1])
    _hankel_rows(h, r, a, acc, mid, hi)


def _band_solve(kernel: Kernel, band: Band, r: np.ndarray, limit: int) -> np.ndarray:
    """a_0..a_N when every row n >= n0 is [1.0, ..., 1.0, e[c], ..., e[1],
    e[0]] (c = len(e) - 1): rows below n0 by the generic loop, then
    a_n = (R(n) - (P(n-c-1) + sum_{d=1..c} e[d] a_{n-d})) / e[0], with P the
    running prefix sum of a.

    Raises:
        VerificationError: eval_row's row n0 is not the declared band.
    """
    n0, c = band.n0, len(band.e) - 1
    a = _solve_generic_float(kernel, r, min(limit, n0 - 1))
    if limit < n0:
        return a
    want = np.ones(n0)
    want[n0 - 1 - c :] = band.e[::-1]
    if not np.array_equal(kernel.eval_row(n0, np.arange(1, n0 + 1)), want):
        raise VerificationError("%s: row %d is not its declared band" % (kernel.spec, n0))
    gnn = band.e[0]
    weights = np.array(band.e[:0:-1])  # e[c], ..., e[1]: the weights of a_{n-c}..a_{n-1}
    prefix = float(np.sum(a[1 : n0 - c]))  # P(n0 - c - 1)
    for n in range(n0, limit + 1):
        a[n] = (r[n] - (prefix + float(np.dot(weights, a[n - c : n])))) / gnn
        prefix += a[n - c]
    return a


def _correlate(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c[j] = sum_i x[i] y[i + j] for 0 <= j <= len(y) - len(x), by one
    rfft/irfft product: the linear convolution of x reversed with y holds
    c[j] at index len(x) - 1 + j, and a cyclic one of length >= len(y)
    wraps only indices below len(x) - 1 onto it."""
    size = 1 << (len(y) - 1).bit_length()
    prod = np.fft.rfft(x[::-1], size)
    prod *= np.fft.rfft(y, size)
    return np.fft.irfft(prod, size)[len(x) - 1 : len(y)]


def _spot_check(coeffs: Coefficients, full_sample: bool) -> None:
    """Post-solve checks: a_1, then verify_residuals at n = limit, or on its
    default sample when full_sample is set (see the module docstring).

    Raises:
        VerificationError: either check fails (a NaN residual fails too).
    """
    g11 = coeffs.kernel.eval(1, 1)
    if coeffs.backend == "exact":
        if coeffs.values[1] != 1:
            raise VerificationError("a_1 != 1 on exact backend")
    elif g11 == 1.0 and not abs(coeffs.values[1] - 1.0) < 1e-12:
        raise VerificationError("a_1 = %g, expected 1" % coeffs.values[1])
    worst = verify_residuals(coeffs, None if full_sample else [coeffs.limit])
    if not worst <= 1.0:
        raise VerificationError(
            "post-solve residual check: worst |residual|/tolerance %g" % worst
        )


def _exact_sum(p: np.ndarray) -> float:
    """math.fsum(p) bit for bit, with no Python list of p; p is overwritten."""
    return math.fsum(_exact_parts(p))


def _exact_parts(p: np.ndarray) -> list:
    """A short list of floats whose exact sum is that of p; p is overwritten.
    fsum of the parts of several arrays is fsum of their concatenation.

    Error-free vector extraction (Rump, Ogita and Oishi, "Accurate
    floating-point summation part I: faithful rounding", SIAM J. Sci.
    Comput. 31, 2008): with max|p| < 2^E and sigma = 2^(E + g), 2^g >= n + 2,
    q = (sigma + p) - sigma holds the high bits of each p_i as multiples of
    ulp(sigma)/2, so sum(q) is exact in any order and p - q is exact.  Each
    round moves the sum of q into the list and strips about 53 - g bits
    from p, until p is zero; fsum of the list is the correctly rounded sum
    of p, which is what fsum(p) returns.  A non-finite max|p| or one above
    2^900 (where sigma could overflow) gives p itself as the list, so NaN,
    inf and fsum's OverflowError behave as fsum's do; so does a p of zeros,
    whose sign fsum decides.
    """
    guard = (len(p) + 1).bit_length()
    parts = []
    while len(p):
        top = max(float(p.max()), -float(p.min()))
        if top == 0.0 and parts:
            break
        if not 0.0 < top <= 2.0**900:
            return p.tolist()
        sigma = math.ldexp(1.0, guard + math.frexp(top)[1])
        q = p + sigma
        q -= sigma
        parts.append(float(q.sum()))
        p -= q
    return parts


def _exact_row_sum(values: list, n: int) -> Fraction:
    """sum_{k<=n} a_k * k*floor(n/k) / n, exact, for the ingham kernel.

    With a_k = p/q in lowest terms, q divides p*m (m = k*floor(n/k)) iff it
    divides m; those terms add p*(m//q) to one int, the rest go into a
    Fraction, and the total is divided by n once.
    """
    whole = 0
    rest = Fraction(0)
    for k in range(1, n + 1):
        a = values[k]
        m = k * (n // k)
        q = a.denominator
        if m % q:
            rest += Fraction(a.numerator * m, q)
        else:
            whole += a.numerator * (m // q)
    return (rest + whole) / n


def _residuals(coeffs: Coefficients, ns: Sequence[int]):
    """(sum_{k<=n} a_k G(n,k) - R(n), R(n)) for each n of ns, with R read once,
    at those n: RhsSpec.r_float, or T(n)/n from RhsSpec.t_exact."""
    if not all(1 <= n <= coeffs.limit for n in ns):
        raise IndexError("n outside solved range")
    at = np.asarray(ns, dtype=np.int64)
    if coeffs.backend == "exact":
        for n, t in zip(ns, coeffs.rhs.t_exact(at)):
            rn = Fraction(t, n)
            yield _exact_row_sum(coeffs.values, n) - rn, rn
        return
    a = coeffs.values
    for n, rn in zip(ns, coeffs.rhs.r_float(at)):
        parts = []  # row n a block of k at a time, so memory is O(SIEVE_BLOCK)
        for lo in range(1, n + 1, SIEVE_BLOCK):
            ks = np.arange(lo, min(lo + SIEVE_BLOCK, n + 1), dtype=np.int64)
            parts += _exact_parts(coeffs.kernel.eval_row(n, ks) * a[lo : lo + len(ks)])
        yield math.fsum(parts) - rn, rn


def residual(coeffs: Coefficients, n: int):
    """sum_{k<=n} a_k G(n,k) - R(n), by direct kernel evaluation.

    Exact backend returns an exact Fraction (ingham only); float backend
    sums the row correctly rounded, bit for bit what math.fsum gives, by
    error-free vector extraction (_exact_sum), so the report is trustworthy.
    """
    return next(_residuals(coeffs, [n]))[0]


def verify_residuals(coeffs: Coefficients, ns: Optional[Sequence[int]] = None) -> float:
    """Check the residual invariant on a set of n; returns the worst |residual|
    relative to its tolerance 1e-9*max(1,|R(n)|)*n (<= 1 means pass; a NaN
    residual or a nonzero exact one gives inf, a passing exact run 0.0);
    R is read once, at the sampled n only.

    Default sample: all n <= 64, then a geometric sweep (ratio 1.5) up to
    the limit.
    """
    if ns is None:
        ns = sorted(
            set(range(1, min(coeffs.limit, 64) + 1))
            | {min(coeffs.limit, int(round(64 * 1.5**j))) for j in range(64)}
        )
    ns = list(ns)
    worst = 0.0
    for n, (res, rn) in zip(ns, _residuals(coeffs, ns)):
        if coeffs.backend == "exact":
            if res != 0:
                return math.inf
            continue
        ratio = abs(res) / (1e-9 * max(1.0, abs(rn)) * n)
        if math.isnan(ratio):
            return math.inf
        worst = max(worst, ratio)
    return worst


# --------------------------------------------------------------------------
# closed forms for the x*floor(1/x) kernel
# --------------------------------------------------------------------------


def ingham_coeff_closed(
    table: MobiusTable, beta: float, limit: int, exact: bool = False
) -> Union[np.ndarray, list]:
    """All n*a_n for R(n) = n^-beta in O(N log N), via Mobius inversion.

    n*a_n = sum_{d|n} mu(n/d) t(d) with t(1) = 1 and, for d >= 2,
    t(d) = d^(1-beta) - (d-1)^(1-beta).  (The d=1 summand is mu(n)*1 for
    every beta: x^0 := 1 for x > 0 and 0^(1-beta) := 0, which reproduces
    both the beta=1 row n*a_n = mu(n) and the beta=0 row [n=1].)

    One sieve.divisor_pass(out, mu, +1, t) adds mu(j)*t(m) into index j*m
    for every m >= 2, j ascending; the m = 1 term mu(n) is added last.  Per
    n that is the summation order of one pass over every squarefree j, so
    the float64 default is bit-identical to that loop.  The float pass reads
    the sieve's int8 mu as it is; exact=True (integer beta only) runs the
    same pass on object arrays of ints and Fractions and returns Fractions.

    Raises:
        ValueError: limit < 1 or past the table, a non-finite beta, or a
            t(n) that is not finite (d^(1-beta) overflows for beta far
            below 0).
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > table.limit:
        raise ValueError("limit %d exceeds table limit %d" % (limit, table.limit))
    if not math.isfinite(beta):
        raise ValueError("beta must be finite (use delta_coeff_closed for the limit case)")
    mu = table.mu[: limit + 1]
    if exact:
        if float(beta) != int(beta):
            raise BackendMismatchError("exact closed form needs integer beta")
        mu = mu.astype(object)  # Python ints
        t = RhsSpec("power", beta).t_exact(np.arange(limit + 1))
        t[2:] = t[2:] - t[1:-1]
        t[:2] = 0
        out = np.zeros(limit + 1, dtype=object)
    else:
        # t holds p(d) = d^(1-beta), then t(d) = p(d) - p(d-1) in place, the
        # top block first, so each block still reads the p(lo-1) below it
        t = np.arange(limit + 1, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t **= 1.0 - beta
            for hi in range(limit + 1, 2, -SIEVE_BLOCK):
                lo = max(2, hi - SIEVE_BLOCK)
                t[lo:hi] -= t[lo - 1 : hi - 1]
        t[:2] = 0.0
        bad = _first_nonfinite(t, 2)
        if bad is not None:
            raise ValueError("beta %g: t(n) is not finite at n=%d" % (beta, bad))
        out = np.zeros(limit + 1, dtype=np.float64)
    divisor_pass(out, mu, 1, t)
    out += mu
    return [Fraction(v) for v in out] if exact else out


def delta_coeff_closed(table: MobiusTable, limit: int) -> np.ndarray:
    """n*a_n for the delta RHS: mu(n) - [n even] mu(n/2), int64."""
    if limit > table.limit:
        raise ValueError("limit %d exceeds table limit %d" % (limit, table.limit))
    mu = table.mu
    out = mu[: limit + 1].astype(np.int64)
    evens = np.arange(2, limit + 1, 2)
    out[evens] -= mu[evens // 2]
    out[0] = 0
    return out


# --------------------------------------------------------------------------
# partial sums and the slowly varying RHS
# --------------------------------------------------------------------------


def _checkpoint_array(coeffs: Coefficients, checkpoints: Sequence[int]) -> np.ndarray:
    """checkpoints as int64, refused unless non-empty, strictly increasing
    and inside [1, limit]."""
    cps = np.asarray(list(checkpoints), dtype=np.int64)
    if len(cps) == 0:
        raise ValueError("empty checkpoint list")
    if np.any(np.diff(cps) <= 0):
        raise ValueError("checkpoints must be strictly increasing")
    if cps[0] < 1 or cps[-1] > coeffs.limit:
        raise ValueError("checkpoints outside [1, limit]")
    return cps


def partial_sums(coeffs: Coefficients, checkpoints: Sequence[int]) -> PartialSumSeries:
    """A(x) and A1(x) at the given ascending checkpoints.

    One cumulative pass, a block of n at a time: each block's cumsum starts
    from the last sum of the block before, added into its first element,
    which is np.cumsum's own sequence of additions, so the values are its
    bits, in O(SIEVE_BLOCK) memory.
    """
    cps = _checkpoint_array(coeffs, checkpoints)
    a = coeffs.values_float()
    ca, cb = np.empty(len(cps)), np.empty(len(cps))
    sum_a = sum_b = 0.0  # A(lo - 1) and A1(lo - 1)
    for lo in range(0, int(cps[-1]) + 1, SIEVE_BLOCK):
        hi = min(lo + SIEVE_BLOCK, int(cps[-1]) + 1)
        block_a = a[lo:hi].copy()
        block_b = np.arange(lo, hi, dtype=np.float64) * block_a
        if lo:  # a[0] + 0.0 would turn a -0.0 into 0.0
            block_a[0] += sum_a
            block_b[0] += sum_b
        np.cumsum(block_a, out=block_a)
        np.cumsum(block_b, out=block_b)
        sum_a, sum_b = block_a[-1], block_b[-1]
        j = slice(np.searchsorted(cps, lo), np.searchsorted(cps, hi))
        ca[j] = block_a[cps[j] - lo]
        cb[j] = block_b[cps[j] - lo]
    return PartialSumSeries(checkpoints=cps, A=ca, A1=cb)


def partial_sums_exact(coeffs: Coefficients, checkpoints: Sequence[int]):
    """Exact (A, A1) Fraction lists at the same checkpoints partial_sums
    takes; exact backend only."""
    if coeffs.backend != "exact":
        raise BackendMismatchError("exact partial sums need the exact backend")
    cps = _checkpoint_array(coeffs, checkpoints).tolist()
    ca = list(itertools.accumulate(coeffs.values))
    cb = list(itertools.accumulate(coeffs.n_a_n()))
    return [ca[x] for x in cps], [cb[x] for x in cps]


def l0_three_smooth(limit: int) -> np.ndarray:
    """L0(n) = #{m <= n : m = 2^a 3^b}, n = 0..limit (L0[0] = 0), int64."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return _l0(np.arange(limit + 1, dtype=np.int64))


def _l0(ns: np.ndarray) -> np.ndarray:
    """L0(n) at each n >= 0 of the int array ns, int64: the number of
    3-smooth m = 2^a 3^b <= n, found by one searchsorted over them."""
    top = int(ns.max(initial=1))
    smooth = []
    p2 = 1
    while p2 <= top:
        v = p2
        while v <= top:
            smooth.append(v)
            v *= 3
        p2 *= 2
    return np.searchsorted(np.sort(np.array(smooth, dtype=np.int64)), ns, side="right")
