"""Complex transforms of the kernel catalog, plus a self-contained zeta.

Three evaluation routes for the arithmetic Mellin transform
G*(z) = lim_n (-z/n) sum_{k<=n} G(n,k) (k/n)^(-z-1):

  * closed_transform  — the known closed forms (below), pole-checked,
    with removable singularities patched;
  * limit_transform   — the raw defining sum at finite n (no
    extrapolation, so convergence claims stay falsifiable), valid for
    Re z < 0;
  * limit_transform_wrt_f — the f-relative Stieltjes variant
    G_f*(z) = lim f(n)^z sum_{k<=n} (f(k)^-z - f(k-1)^-z) g(f(k)/f(n)).

Closed forms implemented:
    x*floor(1/x)      z/(z-1) * zeta(1-z)            pole z=1, value 1 at 0
    affine(lam)       lam + (1-lam) z/(z-1)          pole z=1, zero z=lam
    log(lam)          1 - lam/z                      pole z=0, zero z=lam
    disc(lam)         z/(z-1)*(lam^(z-1)-1)/(lam^z-1)
                      poles 2*pi*i*k/ln lam (k!=0), removable at 0 and 1
    rational          constant 1 (entire)
    scaled ingham, f=q^x+1:
                      (q^(2z) - 2 q^z + q)/(q - q^z)  poles z = 1 + 2*pi*i*k/ln q
    scaled ingham, f=x^r:
                      same as x*floor(1/x) (the f-relative transform is
                      invariant under power rescaling)

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
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .kernels import (
    Affine,
    Disc,
    FSpec,
    GeneralizedIngham,
    Ingham,
    Kernel,
    LogKernel,
    RationalRaf,
    Scaled,
    UnsupportedKernelError,
)
from .solver import VerificationError


class PoleError(ZeroDivisionError):
    """Evaluation requested at (or within 1e-8 of) a pole."""


class RegionError(ValueError):
    """Argument outside the implemented/convergent region."""


def _check_finite(z: complex, what: str = "z") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("%s must have finite components" % what)
    return z


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
# closed forms
# --------------------------------------------------------------------------

_PATCH_RADIUS = 1e-8


def _near(z: complex, w: complex, eps: float = _PATCH_RADIUS) -> bool:
    return abs(z - w) < eps


def _ingham_closed(z: complex) -> TransformResult:
    if _near(z, 1.0):
        raise PoleError("transform pole at z = 1")
    if abs(z) < _PATCH_RADIUS:
        return TransformResult(1.0 + 0.0j, "closed", note="removable singularity at z=0 patched")
    val = z / (z - 1.0) * zeta(1.0 - z)
    return TransformResult(val, "closed")


def _affine_closed(lam: float, z: complex) -> TransformResult:
    if _near(z, 1.0):
        raise PoleError("transform pole at z = 1")
    return TransformResult(lam + (1.0 - lam) * z / (z - 1.0), "closed")


def _log_closed(lam: float, z: complex) -> TransformResult:
    if abs(z) < _PATCH_RADIUS:
        raise PoleError("transform pole at z = 0")
    return TransformResult(1.0 - lam / z, "closed")


def _disc_closed(lam: float, z: complex) -> TransformResult:
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


def _scaled_exp_closed(q: int, z: complex) -> TransformResult:
    lnq = math.log(q)
    # poles where q^z = q: z = 1 + 2*pi*i*k/ln q
    w = (z - 1.0) * lnq
    k_near = round(w.imag / (2.0 * math.pi))
    if abs(w - 2j * math.pi * k_near) < _PATCH_RADIUS * lnq:
        raise PoleError("transform pole at z = 1 + 2*pi*i*%d/ln(%d)" % (k_near, q))
    t = cmath.exp(z * lnq)  # q^z
    return TransformResult((t * t - 2.0 * t + q) / (q - t), "closed")


def closed_transform(kernel: Kernel, z: complex) -> TransformResult:
    """Closed-form transform of kernel at z; PoleError within 1e-8 of a pole.

    Scaled kernels evaluate the f-relative transform: invariant under
    f(x)=x^r (power rescaling balances), the explicit rational-in-q^z
    formula for f(x)=q^x+1.  The generalized floor-weight kernel has no
    closed form here (it needs Dirichlet L-function data) — use
    limit_transform.
    """
    z = _check_finite(z)
    if isinstance(kernel, Ingham):
        return _ingham_closed(z)
    if isinstance(kernel, Affine):
        return _affine_closed(kernel.lam, z)
    if isinstance(kernel, LogKernel):
        return _log_closed(kernel.lam, z)
    if isinstance(kernel, Disc):
        return _disc_closed(kernel.lam, z)
    if isinstance(kernel, RationalRaf):
        return TransformResult(1.0 + 0.0j, "closed", note="constant transform")
    if isinstance(kernel, Scaled):
        f = kernel.f
        if f.kind == "identity":
            return closed_transform(kernel.base, z)
        if isinstance(kernel.base, Ingham):
            if f.kind == "exp_plus_one":
                return _scaled_exp_closed(f.q, z)
            if f.kind == "power":
                res = _ingham_closed(z)
                return TransformResult(res.value, "closed", note="power rescaling balances")
        raise UnsupportedKernelError(
            "no closed transform for %s; use limit_transform_wrt_f" % kernel.spec
        )
    if isinstance(kernel, GeneralizedIngham):
        raise UnsupportedKernelError(
            "closed transform of the generalized floor-weight kernel needs "
            "Dirichlet L-function data; use limit_transform"
        )
    raise UnsupportedKernelError("no closed transform for kernel %s" % kernel.name)


# --------------------------------------------------------------------------
# defining-limit evaluation
# --------------------------------------------------------------------------


def _limit_sum(kernel: Kernel, z: complex, n: int) -> complex:
    ks = np.arange(1, n + 1, dtype=np.int64)
    row = kernel.eval_row(n, ks)
    # (k/n)^(-z-1) = exp((-z-1) (ln k - ln n))
    w = np.exp((-z - 1.0) * (np.log(ks) - math.log(n)))
    return (-z / n) * complex(np.sum(row * w))


def limit_transform(kernel: Kernel, z: complex, n: int) -> TransformResult:
    """Finite-n value of the defining sum (-z/n) sum G(n,k)(k/n)^(-z-1).

    Re z < 0 (convergence region), n >= 10.  Raw truncations at n and 2n
    are both reported; no extrapolation is applied.
    """
    z = _check_finite(z)
    if z.real >= 0:
        raise RegionError("limit transform defined for Re z < 0, got Re z = %g" % z.real)
    if n < 10:
        raise ValueError("truncation n must be >= 10")
    v1 = _limit_sum(kernel, z, n)
    v2 = _limit_sum(kernel, z, 2 * n)
    return TransformResult(
        v1, "limit", n=n, value_2n=v2, note="|F(2n)-F(n)| = %.3g" % abs(v2 - v1)
    )


def limit_transform_wrt_f(kernel: Kernel, f: FSpec, z: complex, n: int) -> TransformResult:
    """f-relative transform at truncation n (and 2n):

        f(n)^z sum_{k=1}^n (f(k)^-z - f(k-1)^-z) g(f(k)/f(n)),

    where g is the kernel's profile.  The f(n)^z factor is folded into
    each summand so every exponential has non-positive real part — no
    overflow for any growth rate of f.  f(0) follows the FSpec formula
    (0 for power/identity, making the k=1 lower weight vanish; 2 for
    q^x+1).  For f = q^x+1 with the x*floor(1/x) kernel the floor is
    taken on exact integers; convergence is geometric and n = 60 already
    gives ~1e-8.
    """
    z = _check_finite(z)
    if not kernel.is_fgv:
        raise UnsupportedKernelError(
            "f-relative transform needs an FGV kernel, got %s" % kernel.name
        )
    if z.real >= 0:
        raise RegionError("f-relative transform defined for Re z < 0, got Re z = %g" % z.real)
    if n < 10:
        raise ValueError("truncation n must be >= 10")
    v1 = _wrt_f_sum(kernel, f, z, n)
    v2 = _wrt_f_sum(kernel, f, z, 2 * n)
    return TransformResult(
        v1, "limit", n=n, value_2n=v2, note="|F(2n)-F(n)| = %.3g" % abs(v2 - v1)
    )


def _wrt_f_sum(kernel: Kernel, f: FSpec, z: complex, n: int) -> complex:
    if f.kind in ("identity", "power"):
        r = 1.0 if f.kind == "identity" else f.r
        ks = np.arange(1, n + 1, dtype=np.float64)
        logf = r * np.log(ks)  # ln f(k), k = 1..n
        logfn = logf[-1]
        # folded weights: exp(z(L(n)-L(k))) - exp(z(L(n)-L(k-1))); L(0) = -inf
        up = np.exp(z * (logfn - logf))
        lo = np.empty_like(up)
        lo[0] = 0.0  # f(0) = 0 and Re z < 0 kill the k=1 lower term
        lo[1:] = up[:-1]
        g = kernel.profile_vec(np.exp(logf - logfn))
        return complex(np.sum((up - lo) * g))

    # f(x) = q^x + 1: exact integer values, geometric decay away from k=n
    q = f.q
    fv = [q**k + 1 for k in range(n + 1)]
    fv[0] = 2
    logf2 = [f.log_value(k) for k in range(n + 1)]
    logfn2 = logf2[n]
    exact_floor = isinstance(kernel, Ingham)
    acc = 0.0 + 0.0j
    prev_up = cmath.exp(z * (logfn2 - logf2[0]))
    for k in range(1, n + 1):
        up = cmath.exp(z * (logfn2 - logf2[k]))
        w = up - prev_up
        prev_up = up
        if exact_floor:
            mq = fv[n] // fv[k]
            g = float(Fraction(mq * fv[k], fv[n]))
        else:
            g = kernel.profile(math.exp(logf2[k] - logfn2))
        acc += w * g
    return acc


# --------------------------------------------------------------------------
# zeros of the q^x+1 scaled transform
# --------------------------------------------------------------------------


def phi_f_zeros(q: int, im_range: Tuple[float, float]) -> List[complex]:
    """All zeros of (q^2z - 2q^z + q)/(q - q^z) with Im z in [t_lo, t_hi].

    Zeros solve q T^2 - 2T + 1 = 0 in T = q^-z, i.e. T = (1 ± i sqrt(q-1))/q
    with |T| = q^(-1/2), so every zero has Re z = 1/2 exactly; the two
    branch points repeat with period 2*pi/ln q in Im z.  Each returned z is
    verified to satisfy |Phi_f*(z)| < 1e-9 (VerificationError otherwise).
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
    zeros: List[complex] = []
    root = math.sqrt(q - 1.0)
    for tt in ((1.0 + 1j * root) / q, (1.0 - 1j * root) / q):
        # |T| = q^(-1/2) identically, so Re z = 1/2 is pinned rather than
        # recomputed (float log/div would smear it by an ulp or two)
        imag0 = -cmath.phase(tt) / lnq
        m_lo = math.ceil((t_lo - imag0) / period - 1e-12)
        m_hi = math.floor((t_hi - imag0) / period + 1e-12)
        for m in range(m_lo, m_hi + 1):
            zeros.append(complex(0.5, imag0 + m * period))
    zeros.sort(key=lambda w: (w.imag, w.real))
    for w in zeros:
        v = closed_transform(kernel, w).value
        if not abs(v) < 1e-9:
            raise VerificationError("zero verification failed at %r: |F| = %g" % (w, abs(v)))
    return zeros
