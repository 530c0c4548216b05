"""Evaluation routes for the kernels' transforms, plus a self-contained zeta.

Each kernel declares its own arithmetic Mellin transform (the closed forms
are tabled in raflab.kernels); this module evaluates them:

  * closed_transform  — the kernel's closed form, pole-checked, with
    removable singularities patched;
  * limit_transform   — the raw defining sum at finite n (no
    extrapolation, so convergence claims stay falsifiable), valid for
    Re z < 0; for a scaled kernel, the f-relative Stieltjes variant
    G_f*(z) = lim f(n)^z sum_{k<=n} (f(k)^-z - f(k-1)^-z) g(f(k)/f(n));
  * limit_transform_wrt_f — the same f-relative limit for a base kernel
    and a rescaling f.

zeta uses Euler-Maclaurin with K=10 Bernoulli correction terms and a
truncation point M chosen adaptively from the first-omitted-term bound,
capped where float round-off in the head sum would start to dominate;
supported region Re s > -10, |Im s| <= 100.  Absolute accuracy target
1e-12; attained for Re s >= 0 (and to ~1e-11 down to Re s = -3), but for
deeply negative Re s the head terms grow like M^-Re(s), so double
precision floors the error at ~eps * max(20, |Im s|)^(1-Re s) — the
routine stays at that floor rather than amplifying it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .kernels import (  # PoleError is re-exported
    FSpec,
    Ingham,
    Kernel,
    PoleError,
    Scaled,
    TransformResult,
)
from .solver import VerificationError


class RegionError(ValueError):
    """Argument outside the implemented/convergent region."""


def _check_finite(z: complex, what: str = "z") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("%s must have finite components" % what)
    return z


# --------------------------------------------------------------------------
# zeta
# --------------------------------------------------------------------------

# B_2 .. B_20 drive the K=10 correction terms; B_22 only sizes the
# first omitted term for the adaptive choice of M.
_BERNOULLI = [
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
]
_B22 = Fraction(854513, 138)
_ZETA_K = 10
_ZETA_TARGET = 1e-13

_B_OVER_FACT = [float(_BERNOULLI[k - 1]) / math.factorial(2 * k) for k in range(1, _ZETA_K + 1)]
_B22_OVER_FACT = float(_B22) / math.factorial(22)


def _zeta_truncation(s: complex) -> int:
    # First omitted Euler-Maclaurin term: B22/22! * prod_{j<=20}(s+j) * M^(-s-21).
    # Bound |prod| by prod(|s|+j) and solve C * M^-(sigma+21) <= target,
    # with a 4x safety factor for the remainder-vs-first-term slack.  At
    # s = 0 the product vanishes (every correction term carries a factor s),
    # so the zero factor is dropped rather than logged.
    a = abs(s)
    logc = math.log(4 * _B22_OVER_FACT) + math.fsum(
        math.log(a + j) for j in range(21) if a + j > 0.0
    )
    denom = s.real + 21.0
    logm = (logc - math.log(_ZETA_TARGET)) / denom
    m = int(math.ceil(math.exp(min(logm, 16.0))))
    # For sigma < 0 the head terms grow like M^-sigma, so float round-off
    # grows like eps*M^(1-sigma) while the truncation term shrinks like
    # M^-(sigma+21): past the crossover, raising M makes the answer WORSE.
    # Cap at the minimiser of C*M^-(sigma+21) + eps*M^(1-sigma), i.e.
    # M_opt = ((sigma+21) C / eps)^(1/22).
    if s.real < 0.0:
        log_opt = (math.log(denom) + logc - math.log(2.2e-16)) / 22.0
        m = min(m, int(math.ceil(math.exp(min(log_opt, 16.0)))))
    return max(20, int(math.ceil(abs(s.imag))), m)


def zeta(s: complex) -> complex:
    """Riemann zeta by Euler-Maclaurin on Re s > -10, |Im s| <= 100.

    zeta(s) = sum_{n<M} n^-s + M^(1-s)/(s-1) + M^-s/2
              + sum_{k=1}^{10} B_2k/(2k)! * s(s+1)...(s+2k-2) * M^(-s-2k+1).

    Raises PoleError at s=1 and RegionError outside the supported box.
    """
    s = _check_finite(s, "s")
    if abs(s - 1.0) < 1e-13:
        raise PoleError("zeta pole at s = 1")
    if s.real <= -10.0 or abs(s.imag) > 100.0:
        raise RegionError(
            "zeta implemented for Re s > -10, |Im s| <= 100; got %r" % (s,)
        )
    m = _zeta_truncation(s)
    n = np.arange(1, m, dtype=np.float64)
    head = np.exp(-s * np.log(n)).sum()
    logm = math.log(m)
    mz = cmath.exp(-s * logm)  # M^-s
    total = head + mz * m / (s - 1.0) + mz / 2.0
    # correction terms, Pochhammer built incrementally
    poch = s
    mpow = mz / m  # M^(-s-1)
    inv_m2 = 1.0 / (m * m)
    for k in range(1, _ZETA_K + 1):
        total += _B_OVER_FACT[k - 1] * poch * mpow
        poch *= (s + (2 * k - 1)) * (s + 2 * k)
        mpow *= inv_m2
    return total


# --------------------------------------------------------------------------
# closed form and defining limit
# --------------------------------------------------------------------------


def closed_transform(kernel: Kernel, z: complex) -> TransformResult:
    """Closed-form transform of kernel at z; PoleError within 1e-8 of a pole.

    Scaled kernels evaluate the f-relative transform.  A kernel with no
    closed form here (the generalized floor-weight kernel needs Dirichlet
    L-function data) raises UnsupportedKernelError — use limit_transform.
    """
    return kernel.transform(_check_finite(z))


# Largest truncation limit_transform takes.  It sums 3n terms, at 0.03 to
# 0.09 s per 10^6 on 2 cores (genin the slowest), so n = 10^8 takes up to
# about 26 s.
_LIMIT_N_MAX = 10**8


def limit_transform(kernel: Kernel, z: complex, n: int) -> TransformResult:
    """Finite-n value of the kernel's defining sum: (-z/n) sum G(n,k)(k/n)^(-z-1),
    or for a scaled kernel the f-relative sum (Scaled.mellin_sum).

    Re z < 0 (convergence region), 10 <= n <= 10^8.  Raw truncations at n
    and 2n are both reported; no extrapolation is applied.
    """
    z = _check_finite(z)
    if z.real >= 0:
        raise RegionError("limit transform defined for Re z < 0, got Re z = %g" % z.real)
    if n < 10:
        raise ValueError("truncation n must be >= 10")
    if n > _LIMIT_N_MAX:
        raise ValueError("truncation n = %d is above the cap of %d" % (n, _LIMIT_N_MAX))
    v1 = kernel.mellin_sum(z, n)
    v2 = kernel.mellin_sum(z, 2 * n)
    return TransformResult(
        v1, "limit", n=n, value_2n=v2, note="|F(2n)-F(n)| = %.3g" % abs(v2 - v1)
    )


def limit_transform_wrt_f(kernel: Kernel, f: FSpec, z: complex, n: int) -> TransformResult:
    """f-relative transform of an FGV kernel at truncation n (and 2n):
    limit_transform of Scaled(kernel, f).  For f = q^x+1 convergence is
    geometric and n = 60 already gives ~1e-8.
    """
    z = _check_finite(z)
    return limit_transform(Scaled(kernel, f), z, n)


# --------------------------------------------------------------------------
# zeros of the q^x+1 scaled transform
# --------------------------------------------------------------------------


# Most zeros phi_f_zeros returns; a wider Im range is refused.
_ZEROS_MAX = 100_000


def phi_f_zeros(q: int, im_range: Tuple[float, float]) -> List[complex]:
    """All zeros of (q^2z - 2q^z + q)/(q - q^z) with Im z in [t_lo, t_hi].

    Zeros solve q T^2 - 2T + 1 = 0 in T = q^-z, i.e. T = (1 ± i sqrt(q-1))/q
    with |T| = q^(-1/2), so every zero has Re z = 1/2 exactly; the two
    branch points repeat with period 2*pi/ln q in Im z.  Each returned z is
    verified to satisfy |Phi_f*(z)| < 1e-9 (VerificationError otherwise).
    More than _ZEROS_MAX zeros in the range is a ValueError, raised before
    any is built.
    """
    if int(q) != q or q < 2:
        raise ValueError("q must be an integer >= 2")
    q = int(q)
    t_lo, t_hi = float(im_range[0]), float(im_range[1])
    if not (-math.inf < t_lo < t_hi < math.inf):
        raise ValueError("need finite t_lo < t_hi, got %r" % ((t_lo, t_hi),))
    lnq = math.log(q)
    period = 2.0 * math.pi / lnq
    kernel = Scaled(Ingham(), FSpec("exp_plus_one", q=q))
    root = math.sqrt(q - 1.0)
    branches = []  # (imag0, m_lo, m_hi): the zeros imag0 + m * period, m_lo <= m <= m_hi
    for tt in ((1.0 + 1j * root) / q, (1.0 - 1j * root) / q):
        # |T| = q^(-1/2) identically, so Re z = 1/2 is pinned rather than
        # recomputed (float log/div would smear it by an ulp or two)
        imag0 = -cmath.phase(tt) / lnq
        m_lo = np.ceil((t_lo - imag0) / period - 1e-12)
        m_hi = np.floor((t_hi - imag0) / period + 1e-12)
        branches.append((imag0, m_lo, m_hi))
    # inf or nan where t/period passes the largest float
    count = sum(np.maximum(0.0, m_hi - m_lo + 1) for _, m_lo, m_hi in branches)
    if not count <= _ZEROS_MAX:
        raise ValueError("Im z in [%g, %g] holds %.6g zeros at q = %d, above the cap of %d"
                         % (t_lo, t_hi, count, q, _ZEROS_MAX))
    zeros = [complex(0.5, imag0 + m * period)
             for imag0, m_lo, m_hi in branches for m in range(int(m_lo), int(m_hi) + 1)]
    zeros.sort(key=lambda w: (w.imag, w.real))
    for w in zeros:
        v = closed_transform(kernel, w).value
        if not abs(v) < 1e-9:
            raise VerificationError("zero verification failed at %r: |F| = %g" % (w, abs(v)))
    return zeros
