"""Kernel catalog: every two-index function G(n,k) used by the solver.

FGV kernels are defined by a one-variable profile g on (0,1] with
G(n,k) = g(k/n); the rational kernel (n+k+x)/(n+k+y) is the one non-FGV
member of the catalog.  Scaled kernels compose an FGV profile with a
rescaling f, G(n,k) = g(f(k)/f(n)).

Evaluators: an FGV kernel states its formula once, in profile_vec;
profile(t) is its value at the one point t, eval(n, k) is profile(k/n)
and eval_row(n, ks) is profile_vec(ks/n).  ingham and genin override eval/eval_row to floor n/k by
integer division (below), ratraf defines its own, and a scaled kernel
evaluates g at f(k)/f(n).

Structure: Kernel.structure(limit) declares the one property of G that
solver.solve() dispatches on, or None for none of them:
    Divisor(u, rho)   n^rho G(n,k)/k^rho = sum_j u_j floor((n/(j*k))^rho),
                      rho = 1/p: ingham, genin, disc with integer lam, and
                      ingham rescaled by x^(1/p) (u = delta, rho = 1/p)
    Separable(p, q)   G(n,k) = p[0,n] q[0,k] + p[1,n] q[1,k]: affine, log
    Hankel(h)         G(n,k) = h[n+k]: ratraf
    Band(n0, e)       rows n >= n0 are 1 up to a fixed band e at the
                      diagonal: ingham rescaled by q^x+1
A kernel rescaled by the identity declares its base's structure.

Floor conventions: wherever the profile contains a floor of a rational
ratio (the x*floor(1/x) profile and its generalized version), the floor is
computed by integer division of integers, never by flooring a float ratio —
floating division is off-by-one-prone exactly at divisor points, where the
counting identities need exactness.  The same holds for ingham rescaled by
x^(1/p): floor((n/k)^(1/p)) is the integer p-th root of n // k.

Each kernel declares its arithmetic Mellin transform
G*(z) = lim_n (-z/n) sum_{k<=n} G(n,k) (k/n)^(-z-1): transform(z) is the
closed form, pole-checked (PoleError within 1e-8 of a pole) with removable
singularities patched, and mellin_sum(z, n) the defining sum at finite n.
Closed forms:
    x*floor(1/x)      z/(z-1) * zeta(1-z)            pole z=1, value 1 at 0
    affine(lam)       lam + (1-lam) z/(z-1)          pole z=1, zero z=lam
    log(lam)          1 - lam/z                      pole z=0, zero z=lam
    disc(lam)         z/(z-1)*(lam^(z-1)-1)/(lam^z-1)
                      poles 2*pi*i*k/ln lam (k!=0), removable at 0 and 1
    rational          constant 1 (entire)
A scaled kernel's transform is the f-relative one,
G_f*(z) = lim f(n)^z sum_{k<=n} (f(k)^-z - f(k-1)^-z) g(f(k)/f(n)):
    scaled ingham, f=q^x+1:
                      (q^(2z) - 2 q^z + q)/(q - q^z)  poles z = 1 + 2*pi*i*k/ln q
    scaled ingham, f=x^r:
                      same as x*floor(1/x) (the f-relative transform is
                      invariant under power rescaling)
    f = identity:     the base kernel's transform
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .sieve import SIEVE_BLOCK, _iroot, divisor_pass


class KernelDomainError(ValueError):
    """k outside [1, n] or invalid kernel parameters."""


class UnsupportedKernelError(TypeError):
    """Operation not defined for this kernel kind (e.g. scaling a non-FGV)."""


class PoleError(ZeroDivisionError):
    """Evaluation requested at (or within 1e-8 of) a pole."""


@dataclass(frozen=True)
class TransformResult:
    """A transform value plus how it was obtained.

    method is "closed" or "limit"; for "limit", n is the truncation and
    value_2n the doubled-truncation value (raw, for convergence reports).
    """

    value: complex
    method: str
    n: Optional[int] = None
    value_2n: Optional[complex] = None
    note: str = ""


_PATCH_RADIUS = 1e-8


def _near(z: complex, w: complex, eps: float = _PATCH_RADIUS) -> bool:
    return abs(z - w) < eps


# --------------------------------------------------------------------------
# rescaling specs f(x)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FSpec:
    """Rescaling function: identity, x^r (0<r<=1), or q^x + 1 (integer q>=2).

    f is positive and strictly increasing on [1, inf); f(0) is defined by
    the formula (0 for power, 2 for exp_plus_one).
    """

    kind: str  # "identity" | "power" | "exp_plus_one"
    r: float = 1.0
    q: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "power", "exp_plus_one"):
            raise KernelDomainError("unknown FSpec kind %r" % (self.kind,))
        if self.kind == "power" and not (0.0 < self.r <= 1.0):
            raise KernelDomainError("power FSpec needs 0 < r <= 1, got %r" % (self.r,))
        if self.kind == "exp_plus_one":
            if int(self.q) != self.q or self.q < 2:
                raise KernelDomainError(
                    "exp_plus_one FSpec needs integer q >= 2, got %r" % (self.q,)
                )

    def value(self, x: int):
        """f(x); exact int for identity/exp_plus_one, float for power."""
        if self.kind == "identity":
            return x
        if self.kind == "power":
            return float(x) ** self.r
        return self.q ** x + 1  # exact Python int

    def log_value(self, x: int) -> float:
        """log f(x), overflow-free (exp_plus_one uses x*log q + log1p(q^-x))."""
        if self.kind == "identity":
            return math.log(x)
        if self.kind == "power":
            return self.r * math.log(x)
        if x == 0:
            return math.log(2.0)
        return x * math.log(self.q) + math.log1p(self.q ** (-float(x)) if x < 1020 else 0.0)

    @property
    def root(self) -> Optional[int]:
        """p when f(x) = x^(1/p) for an integer p, i.e. r is the float 1/p;
        None for every other f."""
        if self.kind != "power":
            return None
        p = round(1.0 / self.r)
        return p if 1.0 / p == self.r else None

    @property
    def label(self) -> str:
        if self.kind == "identity":
            return "id"
        if self.kind == "power":
            return "pow:" + _num(self.r)
        return "exp:%d" % self.q


IDENTITY = FSpec("identity")


# --------------------------------------------------------------------------
# structure declarations (Kernel.structure), read by solver.solve alone
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Divisor:
    """n^rho G(n,k)/k^rho = sum_{j<=n/k} u_j floor((n/(j*k))^rho) for all
    k <= n <= limit, with rho = 1/p for an integer p >= 1; u_0..u_L, u_0
    unused and u_j = 0 past the array."""

    u: np.ndarray
    rho: float = 1.0


@dataclass(frozen=True)
class Separable:
    """G(n,k) = p[0,n] q[0,k] + p[1,n] q[1,k] for all k <= n <= limit; p and
    q of shape (2, limit+1)."""

    p: np.ndarray
    q: np.ndarray


@dataclass(frozen=True)
class Hankel:
    """G(n,k) = h[n+k] for all k <= n <= limit, bit for bit eval_row's
    entries; h_0..h_{2*limit}."""

    h: np.ndarray


@dataclass(frozen=True)
class Band:
    """For every n >= n0: G(n, n-d) = e[d] for 0 <= d < len(e), and
    G(n,k) = 1.0 for k <= n - len(e), bit for bit eval_row's entries;
    rows below n0 follow no pattern.  n0 >= len(e)."""

    n0: int
    e: tuple


Structure = Union[Divisor, Separable, Hankel, Band]


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------


class Kernel:
    """Base class; concrete kernels are immutable value objects."""

    name = "kernel"
    is_fgv = False
    unproven_index = False

    def eval(self, n: int, k: int) -> float:
        """G(n, k) for 1 <= k <= n."""
        self._check(n, k)
        return self.profile(k / n)

    def eval_row(self, n: int, ks: np.ndarray) -> np.ndarray:
        """Vectorized G(n, k) over an int array of k values in [1, n]."""
        return self.profile_vec(np.asarray(ks, dtype=np.float64) / n)

    def profile(self, t: float) -> float:
        """g(t) for FGV kernels, 0 < t <= 1: profile_vec at the one point t."""
        return float(self.profile_vec(np.array([t], dtype=np.float64))[0])

    def profile_vec(self, t: np.ndarray) -> np.ndarray:
        """g(t) over a float array of t in (0, 1], for FGV kernels."""
        raise UnsupportedKernelError("%s has no one-variable profile" % self.name)

    def structure(self, limit: int) -> Optional[Structure]:
        """The structure G has on 1 <= k <= n <= limit (Divisor, Separable,
        Hankel or Band; see the module docstring), or None when it has none
        of them and solve() runs the generic O(N^2) loop."""
        return None

    def transform(self, z: complex) -> TransformResult:
        """Closed-form transform G*(z) at a finite complex z (see the table
        in the module docstring); PoleError within 1e-8 of a pole."""
        raise UnsupportedKernelError("no closed transform for kernel %s" % self.name)

    def mellin_sum(self, z: complex, n: int) -> complex:
        """The defining sum (-z/n) sum_{k<=n} G(n,k) (k/n)^(-z-1) at n.

        k runs in blocks of SIEVE_BLOCK, so memory is O(SIEVE_BLOCK) for any
        n.  Each summand is computed as in a sum over the whole row; only
        the grouping differs: np.sum within a block, the block sums added in
        order of k.  For n <= SIEVE_BLOCK that is one np.sum over the row.
        """
        ln_n = math.log(n)
        total = 0.0 + 0.0j
        for start in range(1, n + 1, SIEVE_BLOCK):
            ks = np.arange(start, min(start + SIEVE_BLOCK, n + 1), dtype=np.int64)
            # (k/n)^(-z-1) = exp((-z-1) (ln k - ln n))
            w = np.exp((-z - 1.0) * (np.log(ks) - ln_n))
            total += complex(np.sum(self.eval_row(n, ks) * w))
        return (-z / n) * total

    def _check(self, n: int, k: int) -> None:
        if k < 1 or k > n:
            raise KernelDomainError("need 1 <= k <= n, got n=%d k=%d" % (n, k))

    @property
    def spec(self) -> str:
        """The CLI spec that parse_kernel reads back to this kernel: the head
        (self.name, a key of _HEADS), then the fields, comma-separated."""
        params = [getattr(self, f.name) for f in fields(self)]
        if _HEADS[self.name][1] is None:  # one field holding the list
            (params,) = params
        return self.name + ":" + ",".join(map(_num, params)) if params else self.name


@dataclass(frozen=True)
class Ingham(Kernel):
    """G(n,k) = (k/n) * floor(n/k), the x*floor(1/x) profile on rationals."""

    name = "ingham"
    is_fgv = True

    def eval(self, n: int, k: int) -> float:
        self._check(n, k)
        return (k * (n // k)) / n

    def eval_row(self, n: int, ks: np.ndarray) -> np.ndarray:
        ks = np.asarray(ks, dtype=np.int64)
        return (ks * (n // ks)) / float(n)

    def structure(self, limit: int) -> Divisor:
        return Divisor(np.array([0.0, 1.0]))  # u = delta: n*G(n,k)/k = floor(n/k)

    def transform(self, z: complex) -> TransformResult:
        from .mellin import zeta  # mellin imports this module

        if _near(z, 1.0):
            raise PoleError("transform pole at z = 1")
        if abs(z) < _PATCH_RADIUS:
            return TransformResult(1.0 + 0.0j, "closed", note="removable singularity at z=0 patched")
        return TransformResult(z / (z - 1.0) * zeta(1.0 - z), "closed")

    def profile_vec(self, t: np.ndarray) -> np.ndarray:
        # below 1e-300 floor(1/t) overflows float and g is within t of 1;
        # the snap, as in GeneralizedIngham: t = 1/m computed one ulp high
        # must still floor 1/t to m
        out = np.ones_like(t)
        pos = t > 1e-300
        tp = t[pos]
        out[pos] = tp * np.floor(1.0 / tp + 1e-12)
        return out


@dataclass(frozen=True)
class Affine(Kernel):
    """g(t) = (1-lam)*t + lam with 0 < lam < 1."""

    lam: float
    name = "affine"
    is_fgv = True

    def __post_init__(self) -> None:
        if not (0.0 < self.lam < 1.0):
            raise KernelDomainError("affine needs 0 < lam < 1, got %r" % (self.lam,))

    def profile_vec(self, t: np.ndarray) -> np.ndarray:
        return (1.0 - self.lam) * t + self.lam

    def transform(self, z: complex) -> TransformResult:
        if _near(z, 1.0):
            raise PoleError("transform pole at z = 1")
        return TransformResult(self.lam + (1.0 - self.lam) * z / (z - 1.0), "closed")

    def structure(self, limit: int) -> Separable:
        # G(n,k) = lam*1 + ((1-lam)/n)*k; index 0 is unused
        n = np.arange(limit + 1, dtype=np.float64)
        p = np.stack([np.full(limit + 1, self.lam), (1.0 - self.lam) / np.maximum(n, 1.0)])
        return Separable(p, np.stack([np.ones(limit + 1), n]))


@dataclass(frozen=True)
class LogKernel(Kernel):
    """g(t) = 1 - lam*ln(t) with 0 < lam <= 1 (unbounded as t -> 0+)."""

    lam: float
    name = "log"
    is_fgv = True

    def __post_init__(self) -> None:
        if not (0.0 < self.lam <= 1.0):
            raise KernelDomainError("log kernel needs 0 < lam <= 1, got %r" % (self.lam,))

    def profile_vec(self, t: np.ndarray) -> np.ndarray:
        return 1.0 - self.lam * np.log(t)

    def transform(self, z: complex) -> TransformResult:
        if abs(z) < _PATCH_RADIUS:
            raise PoleError("transform pole at z = 0")
        return TransformResult(1.0 - self.lam / z, "closed")

    def structure(self, limit: int) -> Separable:
        # G(n,k) = (1 + lam*ln n)*1 + (-lam)*ln k; index 0 is unused
        ln = np.log(np.maximum(np.arange(limit + 1, dtype=np.float64), 1.0))
        p = np.stack([1.0 + self.lam * ln, np.full(limit + 1, -self.lam)])
        return Separable(p, np.stack([np.ones(limit + 1), ln]))


# Snap tolerance for floor(-ln t / ln lam): float logs jitter by ~1e-16
# relative, so a computed exponent within 1e-9 of an integer can only happen
# at a true power boundary (for integer lam and denominators <= 1e7 the
# nearest non-equal rational is >= 1e-7 away in log scale).
_DISC_SNAP = 1e-9


@dataclass(frozen=True)
class Disc(Kernel):
    """g(t) = t * lam^floor(-ln t / ln lam), lam > 1 (geometric staircase).

    Integer lam >= 2 is the proven-index case; non-integer lam is accepted
    but carries unproven_index = True.
    """

    lam: float
    name = "disc"
    is_fgv = True

    def __post_init__(self) -> None:
        if not (1.0 < self.lam < math.inf):
            raise KernelDomainError("disc needs a finite lam > 1, got %r" % (self.lam,))

    @property
    def unproven_index(self) -> bool:  # type: ignore[override]
        return float(self.lam) != float(int(self.lam))

    def profile_vec(self, t: np.ndarray) -> np.ndarray:
        j = np.floor(-np.log(t) / math.log(self.lam) + _DISC_SNAP)
        return t * np.power(self.lam, j)

    def structure(self, limit: int) -> Optional[Divisor]:
        # Integer lam: n*G(n,k)/k = lam^floor(log_lam floor(n/k)), which is
        # sum_{m<=n/k} w(m) for w = delta_1 + sum_{i>=1} (lam^i - lam^(i-1))
        # delta_{lam^i}.  So 1 * u = w, and u = mu * w.  The powers are
        # exact integers; no float log decides a step.
        if self.unproven_index:
            return None
        lam = int(self.lam)
        u = np.zeros(limit + 1)
        u[1] = 1.0
        p = lam
        while p <= limit:
            u[p] = p - p // lam
            p *= lam
        divisor_pass(u, u, -1)  # w becomes mu * w
        return Divisor(u)

    def transform(self, z: complex) -> TransformResult:
        lam = self.lam
        lnl = math.log(lam)
        # poles where lam^z = 1 with z != 0, i.e. z = 2*pi*i*k/ln(lam), k != 0
        w = z * lnl
        k_near = round(w.imag / (2.0 * math.pi))
        if k_near != 0 and abs(w - 2j * math.pi * k_near) < _PATCH_RADIUS * lnl:
            raise PoleError("transform pole at z = 2*pi*i*%d/ln(%g)" % (k_near, lam))
        if abs(z) < _PATCH_RADIUS:
            return TransformResult(
                (1.0 - 1.0 / lam) / lnl + 0.0j, "closed", note="removable singularity at z=0 patched"
            )
        if _near(z, 1.0):
            return TransformResult(
                lnl / (lam - 1.0) + 0.0j, "closed", note="removable singularity at z=1 patched"
            )
        num = cmath.exp((z - 1.0) * lnl) - 1.0
        den = cmath.exp(z * lnl) - 1.0
        return TransformResult(z / (z - 1.0) * num / den, "closed")


@dataclass(frozen=True)
class RationalRaf(Kernel):
    """G(n,k) = (n+k+x)/(n+k+y) — a RAF that is not an FGV (depends on n+k)."""

    x: float
    y: float
    name = "ratraf"
    is_fgv = False

    def __post_init__(self) -> None:
        if self.x == self.y:
            raise KernelDomainError("rational kernel needs x != y")
        if not (0.0 < self.x < math.inf and 0.0 < self.y < math.inf):
            raise KernelDomainError("rational kernel needs finite x > 0 and y > 0")

    def eval(self, n: int, k: int) -> float:
        self._check(n, k)
        return (n + k + self.x) / (n + k + self.y)

    def eval_row(self, n: int, ks: np.ndarray) -> np.ndarray:
        s = n + np.asarray(ks, dtype=np.float64)
        return (s + self.x) / (s + self.y)

    def structure(self, limit: int) -> Hankel:
        # s = n+k <= 2*limit is an exact float64, so h[s] repeats eval_row's
        # float ops on the same operands and matches it bit for bit
        s = np.arange(2 * limit + 1, dtype=np.float64)
        return Hankel((s + self.x) / (s + self.y))

    def transform(self, z: complex) -> TransformResult:
        return TransformResult(1.0 + 0.0j, "closed", note="constant transform")


# GeneralizedIngham.profile_vec takes O(sqrt(floor(1/t))) time and memory per
# t (one t at this cap, t ~ 6e-14, sums two 4e6-entry arrays); smaller t is refused
GENIN_PROFILE_MAX_Q = 2**44

# Below this q, W(q) is the direct sum, one np.dot over j <= q; from it on,
# the O(sqrt q) block sum of _w, whose twenty-odd numpy calls cost more.
_GENIN_DIRECT_Q = 4096


@dataclass(frozen=True)
class GeneralizedIngham(Kernel):
    """G(n,k) = sum_{1<=j<=n/k} (u_j/j) * Phi(j*k/n), weights periodic.

    u_j cycles through the supplied weight table (period = len(weights)),
    e.g. a Dirichlet-character sign pattern.  Equivalent profile:
    Phi_u(x) = x * sum_{j<=1/x} u_j * floor(1/(j x)), so this is an FGV.
    """

    weights: tuple
    name = "genin"
    is_fgv = True

    def __post_init__(self) -> None:
        if len(self.weights) == 0:
            raise KernelDomainError("generalized kernel needs >= 1 weight")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not all(map(math.isfinite, self.weights)):
            raise KernelDomainError("generalized kernel needs finite weights, got %r"
                                    % (self.weights,))

    def eval(self, n: int, k: int) -> float:
        self._check(n, k)
        w = self.weights
        period = len(w)
        total = 0.0
        for j in range(1, n // k + 1):
            uj = w[(j - 1) % period]
            if uj != 0.0:
                total += uj * (n // (j * k))
        return total * k / n

    def eval_row(self, n: int, ks: np.ndarray) -> np.ndarray:
        # G(n,k) = (k/n) W(floor(n/k)), one _w per distinct q (about
        # 2*sqrt(n) of them); kept apart from the solver's divisor_pass so a
        # residual row stays an independent check of it
        ks = np.asarray(ks, dtype=np.int64)
        qs, where = np.unique(n // ks, return_inverse=True)
        return self._ws(qs.tolist())[where] * ks / float(n)

    def structure(self, limit: int) -> Divisor:
        u = np.zeros(limit + 1)
        for j, w in enumerate(self.weights, 1):  # u_j = weights[(j-1) % period]
            u[j :: len(self.weights)] = w
        return Divisor(u)

    def profile_vec(self, t: np.ndarray) -> np.ndarray:
        # t * W(floor(1/t)); the same snap as Ingham: t = 1/m computed one
        # ulp high must still floor 1/t to m
        with np.errstate(divide="ignore", over="ignore"):
            x = 1.0 / t + 1e-12
        big = x >= GENIN_PROFILE_MAX_Q + 1
        if big.any():
            raise KernelDomainError("genin profile at t=%g needs floor(1/t) <= %d"
                                    % (t[big][0], GENIN_PROFILE_MAX_Q))
        return self._ws(np.floor(x).astype(np.int64).tolist()) * t

    def _ws(self, qs: list) -> np.ndarray:
        """W(q) for each integer q >= 1 of qs: the direct sum
        sum_{j<=q} u_j floor(q/j), one np.dot, below _GENIN_DIRECT_Q, else _w."""
        top = min(max(qs, default=0), _GENIN_DIRECT_Q - 1)
        u = np.resize(np.array(self.weights), top)  # u_j = weights[(j-1) % period]
        j = np.arange(1, top + 1)
        return np.array([np.dot(u[:q], q // j[:q]) if q < _GENIN_DIRECT_Q else self._w(q)
                         for q in qs], dtype=np.float64)

    def _w(self, q: int) -> float:
        """W(q) = sum_{j<=q} u_j floor(q/j) for an integer q >= 1."""
        w = np.array(self.weights)
        # j <= r = isqrt(q) one at a time; the larger j form blocks
        # (q//(v+1), q//v] of equal v = floor(q/j) <= r, each adding
        # v * (U(q//v) - U(q//(v+1))) with U(m) = sum_{j<=m} u_j: O(sqrt q)
        r = math.isqrt(q)
        j = np.arange(1, r + 1)
        cum = np.concatenate(([0.0], np.cumsum(w)))  # cum[i] = sum(w[:i])
        ends = q // np.arange(1, q // (r + 1) + 2)  # q//v for v = 1..V+1
        u_ends = (ends // len(w)) * cum[-1] + cum[ends % len(w)]
        head = np.dot(w[(j - 1) % len(w)], q // j)
        return float(head + np.dot(np.arange(1, len(ends)), u_ends[:-1] - u_ends[1:]))

    def transform(self, z: complex) -> TransformResult:
        raise UnsupportedKernelError(
            "closed transform of the generalized floor-weight kernel needs "
            "Dirichlet L-function data; use limit_transform"
        )


@dataclass(frozen=True)
class Scaled(Kernel):
    """G(n,k) = g(f(k)/f(n)) for an FGV base profile g and rescaling f.

    Not an FGV itself (G is not a function of k/n), so it cannot be a base.
    """

    base: Kernel
    f: FSpec
    name = "scaled"

    def __post_init__(self) -> None:
        if not self.base.is_fgv:
            raise UnsupportedKernelError(
                "cannot rescale %s: only FGV kernels have a profile" % self.base.name
            )

    def eval(self, n: int, k: int) -> float:
        self._check(n, k)
        if self.f.kind == "identity":
            return self.base.eval(n, k)
        if self.f.kind == "exp_plus_one" and isinstance(self.base, Ingham):
            # exact: t = (q^k+1)/(q^n+1), floor(1/t) by integer division;
            # int true division rounds the exact ratio correctly
            fk = self.f.value(k)
            fn = self.f.value(n)
            m = fn // fk
            return m * fk / fn
        lt = self.f.log_value(k) - self.f.log_value(n)
        t = math.exp(lt)
        if t < sys.float_info.min:
            # subnormal or 0: the base profile would take a log of 0 or
            # overflow a power of 1/t
            raise KernelDomainError(
                "%s at n=%d, k=%d: f(k)/f(n) = exp(%.6g) is below the smallest "
                "normal float" % (self.spec, n, k, lt)
            )
        p = self._ingham_root
        if p is not None:
            return t * _iroot(n // k, p)  # floor((n/k)^(1/p)) = floor((n//k)^(1/p))
        return self.base.profile(t)

    def eval_row(self, n: int, ks: np.ndarray) -> np.ndarray:
        f = self.f
        if f.kind == "identity":
            return self.base.eval_row(n, ks)
        ks = np.asarray(ks, dtype=np.int64)
        if f.kind == "power":
            t = np.exp(f.r * np.log(ks.astype(np.float64)) - f.r * math.log(n))
            p = self._ingham_root
            if p is not None:
                return t * _iroot_vec(n // ks, p)
            return self.base.profile_vec(t)
        if isinstance(self.base, Ingham):
            # G = m f(k)/f(n) = 1 - r/f(n) with 0 <= r < f(k), so where
            # f(k) 2^54 <= f(n) it lies above 1 - 2^-54 and int division rounds
            # it to exactly 1.0; f increases, so those k are the k <= kmax.
            # f(k) = q^n // q^(n-k) + 1 takes one big power for the row, the
            # same integers as f.value(k)
            qn = f.q**n
            fn = qn + 1

            def fv(k: int) -> int:
                return qn // f.q ** (n - k) + 1

            kmax = max(0, n - math.ceil(54 / math.log2(f.q)))
            while kmax < n and fv(kmax + 1) << 54 <= fn:
                kmax += 1
            while kmax > 0 and fv(kmax) << 54 > fn:
                kmax -= 1
            row = np.ones(len(ks))
            tail = np.flatnonzero(ks > kmax)
            row[tail] = [(fn // fk) * fk / fn for fk in map(fv, ks[tail].tolist())]
            return row
        return np.array([self.eval(n, k) for k in ks.tolist()], dtype=np.float64)

    @property
    def _ingham_root(self) -> Optional[int]:
        """p when this is ingham rescaled by x^(1/p), else None."""
        return self.f.root if isinstance(self.base, Ingham) else None

    def structure(self, limit: int) -> Optional[Structure]:
        if self.f.kind == "identity":
            return self.base.structure(limit)
        if not isinstance(self.base, Ingham):
            return None
        if self.f.kind == "exp_plus_one":
            return _exp_band(self.f.q)
        # x^(1/p): n^(1/p) G(n,k)/k^(1/p) = floor((n/k)^(1/p)), u = delta
        return None if self._ingham_root is None else Divisor(np.array([0.0, 1.0]), self.f.r)

    def transform(self, z: complex) -> TransformResult:
        f = self.f
        if f.kind == "identity":
            return self.base.transform(z)
        if isinstance(self.base, Ingham):
            if f.kind == "power":
                res = self.base.transform(z)
                return TransformResult(res.value, "closed", note="power rescaling balances")
            lnq = math.log(f.q)
            # poles where q^z = q: z = 1 + 2*pi*i*k/ln q
            w = (z - 1.0) * lnq
            k_near = round(w.imag / (2.0 * math.pi))
            if abs(w - 2j * math.pi * k_near) < _PATCH_RADIUS * lnq:
                raise PoleError("transform pole at z = 1 + 2*pi*i*%d/ln(%d)" % (k_near, f.q))
            t = cmath.exp(z * lnq)  # q^z
            return TransformResult((t * t - 2.0 * t + f.q) / (f.q - t), "closed")
        raise UnsupportedKernelError(
            "no closed transform for %s; use limit_transform_wrt_f" % self.spec
        )

    def mellin_sum(self, z: complex, n: int) -> complex:
        """The f-relative sum at n,

            f(n)^z sum_{k=1}^n (f(k)^-z - f(k-1)^-z) g(f(k)/f(n)),

        with the f(n)^z factor folded into each summand so every exponential
        has non-positive real part for Re z < 0: no overflow for any growth
        rate of f.  f(0) follows the FSpec formula (0 for power/identity,
        making the k=1 lower weight vanish; 2 for q^x+1).

        For power and identity f, k runs in blocks of SIEVE_BLOCK (memory
        O(SIEVE_BLOCK) for any n) and the last upper weight of a block is
        the first lower weight of the next; the sum is np.sum's within a
        block, the block sums added in order of k.  The q^x+1 sum adds its
        n terms one at a time."""
        f = self.f
        if f.kind in ("identity", "power"):
            r = 1.0 if f.kind == "identity" else f.r
            # ln f(n) by the same array log as the ln f(k) below
            logfn = r * np.log(np.array([n], dtype=np.float64))[0]
            total = 0.0 + 0.0j
            prev_up = 0.0  # f(0) = 0 and Re z < 0 kill the k=1 lower term
            for start in range(1, n + 1, SIEVE_BLOCK):
                ks = np.arange(start, min(start + SIEVE_BLOCK, n + 1), dtype=np.float64)
                logf = r * np.log(ks)  # ln f(k) over the block
                # folded weights: exp(z(L(n)-L(k))) - exp(z(L(n)-L(k-1))); L(0) = -inf
                up = np.exp(z * (logfn - logf))
                lo = np.concatenate(([prev_up], up[:-1]))
                prev_up = up[-1]
                g = self.base.profile_vec(np.exp(logf - logfn))
                total += complex(np.sum((up - lo) * g))
            return total

        # f(x) = q^x + 1: geometric decay away from k=n
        logf = [f.log_value(k) for k in range(n + 1)]
        g = self.eval_row(n, np.arange(1, n + 1)).tolist()
        acc = 0.0 + 0.0j
        prev_up = cmath.exp(z * (logf[n] - logf[0]))
        for k in range(1, n + 1):
            up = cmath.exp(z * (logf[n] - logf[k]))
            acc += (up - prev_up) * g[k - 1]
            prev_up = up
        return acc

    @property
    def spec(self) -> str:
        return "scaled:%s:%s" % (self.base.spec, self.f.label)


def _iroot_vec(x: np.ndarray, p: int) -> np.ndarray:
    """floor(x^(1/p)) for each x of an int64 array, 0 <= x < 2^53: the float
    root, then one -1 and one +1 fix-up in int64.  A power whose float value
    passes 2^62 counts as above x, so no int64 power that is compared
    overflows."""

    def above(m):  # m^p > x
        with np.errstate(over="ignore"):
            return (m.astype(np.float64) ** p > 2.0**62) | (m**p > x)

    m = np.floor(x ** (1.0 / p)).astype(np.int64)
    m -= above(m)
    m += ~above(m + 1)
    return m


@functools.lru_cache(maxsize=None)
def _exp_band(q: int) -> Band:
    """The band of ingham rescaled by f(x) = q^x + 1.

    With d = n - k <= k, f(n) = (q^d - 1) f(k) + q^k + 2 - q^d, so
    G(n, n-d) = x_d + delta with x_d = 1 - q^-d and
    0 < delta = (q^d + q^-d - 2)/(q^n + 1) < q^(d-n).  x_d rounds to e_d
    and lies at or above the rounding midpoint below e_d, so G(n, n-d)
    rounds to e_d too once x_d + q^(d-n) is at most the midpoint above:
    from n = d + k_d on, k_d the least k with q^k (mid - x_d) >= 1 (Goldberg,
    "What every computer scientist should know about floating-point
    arithmetic", ACM Computing Surveys 23, 1991).  With
    c = ceil(54/log2 q) + 1, q^(c-1) >= 2^54, so for d > c
    f(k) 2^54 <= f(n) and G(n,k) = 1.0, eval_row's own fill.  n0 is the
    largest of 2d and d + k_d over d <= c: 2c at q = 2, 3 and 10.
    """
    c = math.ceil(54 / math.log2(q)) + 1
    e, n0 = [1.0], 1
    for d in range(1, c + 1):
        qd = q**d
        e.append((qd - 1) / qd)  # int true division rounds the exact ratio
        gap = Fraction(e[d]) + Fraction(math.ulp(e[d])) / 2 - Fraction(qd - 1, qd)
        k = 0
        while q**k * gap < 1:
            k += 1
        n0 = max(n0, 2 * d, d + k)
    return Band(n0, tuple(e))


# --------------------------------------------------------------------------
# spec-string grammar (shared by the CLI)
# --------------------------------------------------------------------------

_GRAMMAR = (
    'kernel spec grammar: "ingham" | "affine:<lam>" | "log:<lam>" | '
    '"disc:<lam>" | "ratraf:<x>,<y>" | "genin:<w1>,<w2>,..." | '
    '"scaled:ingham:exp:<q>" | "scaled:ingham:pow:<r>" | "scaled:ingham:id"'
)

# A spec is a head, then ":" and its comma-separated floats (none for
# ingham), or "scaled:ingham:" and id, exp:<q> or pow:<r>.  Kernel.spec and
# Scaled.spec write, through _num, what parse_kernel reads back to an equal
# kernel.  head -> (class, number of floats, None for a list of any length)
_HEADS = {
    "ingham": (Ingham, 0),
    "affine": (Affine, 1),
    "log": (LogKernel, 1),
    "disc": (Disc, 1),
    "ratraf": (RationalRaf, 2),
    "genin": (GeneralizedIngham, None),
}


def _num(x: float) -> str:
    """x as a spec or label writes it: %g when that parses back to x, else repr."""
    text = "%g" % x
    return text if float(text) == x else repr(float(x))


def parse_kernel(spec: str) -> Kernel:
    """Parse a kernel spec string (see _GRAMMAR); raises KernelDomainError."""
    parts = spec.strip().split(":")
    head = parts[0]
    try:
        if head in _HEADS:
            cls, arity = _HEADS[head]
            if arity == 0 and len(parts) == 1:
                return cls()
            if arity != 0 and len(parts) == 2:
                params = [float(p) for p in parts[1].split(",")]
                if arity is None:
                    return cls(tuple(params))
                if len(params) == arity:
                    return cls(*params)
        if head == "scaled" and len(parts) >= 3:
            base = parse_kernel(parts[1])
            tag = parts[2]
            if tag == "id" and len(parts) == 3:
                return Scaled(base, IDENTITY)
            if tag == "exp" and len(parts) == 4:
                return Scaled(base, FSpec("exp_plus_one", q=int(parts[3])))
            if tag == "pow" and len(parts) == 4:
                return Scaled(base, FSpec("power", r=float(parts[3])))
    except (ValueError, TypeError) as exc:
        if isinstance(exc, (KernelDomainError, UnsupportedKernelError)):
            raise
        raise KernelDomainError("bad kernel spec %r — %s" % (spec, _GRAMMAR)) from exc
    raise KernelDomainError("bad kernel spec %r — %s" % (spec, _GRAMMAR))
