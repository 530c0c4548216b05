"""Empirical asymptotics: envelope regression, two-regime classification,
regularity-index bracketing, bounded-coefficient (HLR) reports, and the
Mertens / generalized-Jordan growth checks.

regime_scan is the one route from a kernel and a beta grid to verdicts: per
beta it solves the power RHS, takes partial sums at default_checkpoints and
classifies them with regime_check.  estimate_index, `raf scan` and the
regime claim all read their verdicts from it.

The central numerical device is the envelope fit: partial sums A(x) of
Mobius-flavoured series oscillate through zero, so raw log-log regression
is undefined or noisy.  fit_exponent instead keeps, for each checkpoint
x_j, the largest |A| over the trailing window x_j/ENV_SPAN <= x <= x_j,
and runs OLS on log|A| vs log x over those points.  On an exact power law
every point is kept and the fit is exact; on an oscillating series the fit
tracks the envelope, which is what an O(x^(-alpha+eps)) statement
constrains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .kernels import Kernel, UnsupportedKernelError
from .mellin import PoleError, RegionError, closed_transform, zeta
from .sieve import SIEVE_BLOCK, MobiusTable, largest_primes
from .solver import Coefficients, PartialSumSeries, RhsSpec, partial_sums, solve

VERDICT_MATCH = "asymptotic_match"
VERDICT_MISMATCH = "power_mismatch"
VERDICT_DECAY = "bounded_decay"

# The envelope's trailing window: x_j/ENV_SPAN <= x_i <= x_j.
ENV_SPAN = 2.0

# A series whose envelope slope is at most this decays (bounded_decay).
DECAY_SLOPE_MAX = -0.35

# Bisections of the index bracket after the grid scan.
INDEX_BISECTIONS = 6


class DegenerateSeriesError(ValueError):
    """Too few usable (nonzero) envelope points to fit."""


class BracketFailureError(ValueError):
    """Index estimation could not bracket: grid entirely matched or not."""

    def __init__(self, msg: str, one_sided: Optional[float]):
        super().__init__(msg)
        self.one_sided = one_sided


@dataclass(frozen=True)
class Tolerances:
    """Thresholds for regime classification (acceptance tests pin their own).

    slope_tol widens with |beta|: 0.05 up to |beta|=0.5, 0.10 from |beta|=1,
    linear in between — larger beta means weaker signal in the envelope.
    """

    slope_tol_low: float = 0.05
    slope_tol_high: float = 0.10
    const_tol: float = 0.05

    def __post_init__(self) -> None:
        for name in ("slope_tol_low", "slope_tol_high", "const_tol"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:
                raise ValueError("%s must be finite and > 0, got %r" % (name, v))

    def slope_tol(self, beta: float) -> float:
        if not math.isfinite(beta):
            return self.slope_tol_high
        a = abs(beta)
        if a <= 0.5:
            return self.slope_tol_low
        if a >= 1.0:
            return self.slope_tol_high
        frac = (a - 0.5) / 0.5
        return self.slope_tol_low + frac * (self.slope_tol_high - self.slope_tol_low)


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class RegimeVerdict:
    beta: float
    fitted_slope: float
    slope_stderr: float
    predicted_constant: Optional[complex]
    empirical_constant: Optional[float]
    verdict: str
    constant_applicable: bool = True
    note: str = ""


@dataclass(frozen=True)
class IndexEstimate:
    alpha_hat: float
    grid: Tuple[RegimeVerdict, ...]
    beta_lo: float
    beta_hi: float
    bisections: int = 0


@dataclass(frozen=True)
class HLRReport:
    sup_abs: float
    growth_exponent: float
    prime_tail_mean: float
    limit: int
    primes_used: int


@dataclass(frozen=True)
class JordanReport:
    beta: float
    limit: int
    checkpoints: np.ndarray
    values: np.ndarray
    slope: float
    stderr: float
    predicted_constant: float
    empirical_constant: float


@dataclass(frozen=True)
class MertensReport:
    limit: int
    max_ratio: float
    argmax_x: int


# --------------------------------------------------------------------------
# checkpoints and envelope fitting
# --------------------------------------------------------------------------


def default_checkpoints(limit: int, base: float = 100.0, ratio: float = 1.25) -> np.ndarray:
    """Geometric grid round(base * ratio^j) capped by limit, limit appended."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    pts: List[int] = []
    v = base
    while True:
        x = int(round(v))
        if x > limit:
            break
        if not pts or x > pts[-1]:
            pts.append(x)
        v *= ratio
    if not pts or pts[-1] != limit:
        pts.append(limit)
    return np.asarray(pts, dtype=np.int64)


def _envelope_points(
    xs: np.ndarray, vals: np.ndarray, span: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Running-maximum envelope over the trailing span-fold of the range:
    for each checkpoint x_j the maximiser of |v| on [x_j/span, x_j] is
    recorded at its own abscissa, and duplicates collapse.

    On a monotone series every window maximum is a raw sample, so the
    selected points ARE the series and a power law fits exactly; on a
    sign-oscillating series the selection rides the crests and never sits
    in a zero crossing.  Zero maxima are dropped; windows truncated by the
    start of the grid are skipped unless the series is too short to afford
    it."""
    xs = np.asarray(xs, dtype=np.float64)
    av = np.abs(np.asarray(vals, dtype=np.float64))
    m = len(av)

    def pick(require_full: bool) -> List[int]:
        chosen: Dict[int, None] = {}
        lo = 0
        for j in range(m):
            while xs[lo] * span < xs[j]:
                lo += 1
            if require_full and xs[j] < xs[0] * span:
                continue
            i = lo + int(np.argmax(av[lo : j + 1]))
            if av[i] > 0.0:
                chosen[i] = None
        return sorted(chosen)

    idx = pick(require_full=True)
    if len(idx) < 3:  # short series: accept warm-up windows rather than fail
        idx = pick(require_full=False)
    return xs[idx], av[idx]


def _ols_loglog(xs: np.ndarray, vals: np.ndarray) -> Tuple[float, float]:
    lx = np.log(xs)
    lv = np.log(vals)
    m = len(lx)
    mx = lx.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    if sxx == 0.0:
        raise DegenerateSeriesError("all checkpoints coincide")
    slope = float(np.sum((lx - mx) * (lv - lv.mean())) / sxx)
    intercept = float(lv.mean() - slope * mx)
    if m > 2:
        resid = lv - (intercept + slope * lx)
        stderr = math.sqrt(float(np.sum(resid**2)) / (m - 2) / sxx)
    else:
        stderr = 0.0
    return slope, stderr


def fit_exponent(series: PartialSumSeries) -> Tuple[float, float]:
    """Envelope slope of |A| against x, with its OLS stderr.

    env_j is the running maximum of |value| restricted to the upper
    two-fold of the range covered so far (x_j/2 <= x_i <= x_j); the slope
    is the OLS fit of log env_j against log x_j.  On a monotone power law
    the envelope is an exact shifted copy, so the slope is exact; on
    sign-oscillating series it rides the crests.
    """
    if len(series.checkpoints) < 4:
        raise ValueError("need >= 4 checkpoints to fit")
    xs, av = _envelope_points(series.checkpoints, series.A, ENV_SPAN)
    if len(xs) < 3:
        raise DegenerateSeriesError(
            "fewer than 3 nonzero envelope points (all-zero or degenerate tail)"
        )
    return _ols_loglog(xs, av)


# --------------------------------------------------------------------------
# regime classification
# --------------------------------------------------------------------------


def _predicted_constant(kernel: Kernel, beta: float) -> Tuple[Optional[complex], bool, str]:
    try:
        t = closed_transform(kernel, complex(beta)).value
    except PoleError:
        return None, False, "transform pole at beta"
    except RegionError:
        return None, False, "transform outside zeta region at beta"
    except UnsupportedKernelError:
        return None, False, "no closed transform for this kernel"
    if abs(t) < 1e-12:
        return None, False, "transform zero at beta (predicted constant diverges)"
    return 1.0 / t, True, ""


def regime_check(
    series: PartialSumSeries,
    beta: float,
    kernel: Kernel,
    tol: Tolerances = DEFAULT_TOL,
) -> RegimeVerdict:
    """Classify a partial-sum series against the two-regime dichotomy.

    asymptotic_match: envelope slope within slope_tol of -beta AND (where a
    predicted constant 1/G*(beta) applies) mean A(x) x^beta over the top
    quartile of checkpoints within const_tol of it.  Otherwise
    bounded_decay if the envelope decays at slope <= DECAY_SLOPE_MAX,
    else power_mismatch.  beta = inf (delta RHS) skips both beta-relative
    checks and classifies purely by decay.
    """
    slope, stderr = fit_exponent(series)
    pred: Optional[complex] = None
    emp: Optional[float] = None
    applicable = False
    note = ""
    if math.isfinite(beta):
        pred, applicable, note = _predicted_constant(kernel, beta)
        q = max(1, len(series.checkpoints) // 4)
        xs = series.checkpoints[-q:].astype(np.float64)
        emp = float(np.mean(series.A[-q:] * xs**beta))
    else:
        note = "delta RHS: no finite beta, decay check only"

    is_match = False
    if math.isfinite(beta) and abs(slope + beta) <= tol.slope_tol(beta):
        if applicable and pred is not None and emp is not None:
            is_match = abs(emp - pred) <= tol.const_tol * abs(pred)
        else:
            is_match = True
    if is_match:
        verdict = VERDICT_MATCH
    elif slope <= DECAY_SLOPE_MAX:
        verdict = VERDICT_DECAY
    else:
        verdict = VERDICT_MISMATCH
    return RegimeVerdict(
        beta=beta,
        fitted_slope=slope,
        slope_stderr=stderr,
        predicted_constant=pred,
        empirical_constant=emp,
        verdict=verdict,
        constant_applicable=applicable,
        note=note,
    )


def regime_scan(
    kernel: Kernel,
    betas: Sequence[float],
    limit: int,
    tol: Tolerances = DEFAULT_TOL,
) -> Tuple[RegimeVerdict, ...]:
    """The regime verdict of every beta: solve the power RHS to limit, take
    partial sums at default_checkpoints(limit), then regime_check."""
    cps = default_checkpoints(limit)
    return tuple(
        regime_check(partial_sums(solve(kernel, RhsSpec("power", b), limit), cps), b, kernel, tol)
        for b in betas
    )


def estimate_index(
    kernel: Kernel,
    beta_grid: Sequence[float],
    limit: int,
    tol: Tolerances = DEFAULT_TOL,
) -> IndexEstimate:
    """Bracket the regularity index: scan the grid for the first beta whose
    series stops matching x^-beta / G*(beta), then bisect the bracket
    INDEX_BISECTIONS times.

    alpha_hat is the midpoint of the refined bracket.  Raises
    BracketFailureError when the whole grid matches (index above grid) or
    nothing matches (index below grid), reporting the one-sided bound.
    """
    grid = [float(b) for b in beta_grid]
    if len(grid) < 3:
        raise ValueError("grid needs >= 3 points")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly ascending")
    verdicts = regime_scan(kernel, grid, limit, tol)
    first_miss = next((i for i, v in enumerate(verdicts) if v.verdict != VERDICT_MATCH), None)
    if first_miss is None:
        raise BracketFailureError(
            "all grid points match: index lies above %g" % grid[-1], grid[-1]
        )
    if first_miss == 0:
        raise BracketFailureError(
            "no grid point matches: index lies at or below %g" % grid[0], grid[0]
        )
    lo = grid[first_miss - 1]
    hi = grid[first_miss]
    for _ in range(INDEX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        (v,) = regime_scan(kernel, [mid], limit, tol)
        if v.verdict == VERDICT_MATCH:
            lo = mid
        else:
            hi = mid
    return IndexEstimate(
        alpha_hat=0.5 * (lo + hi),
        grid=verdicts,
        beta_lo=lo,
        beta_hi=hi,
        bisections=INDEX_BISECTIONS,
    )


# --------------------------------------------------------------------------
# bounded-coefficient (HLR) report
# --------------------------------------------------------------------------


def hlr_report(coeffs: Coefficients) -> HLRReport:
    """sup |n a_n| over 2<=n<=N, envelope growth of its running max, and the
    mean of p a_p over the 100 largest primes <= N (the n a_n = O(1) /
    p a_p -> -1 signature).  Needs an RHS with beta >= 0 (delta counts)."""
    if math.isfinite(coeffs.rhs.beta) and coeffs.rhs.beta < 0:
        raise ValueError("bounded-coefficient report needs beta >= 0")
    limit = coeffs.limit
    if limit < 2:
        raise ValueError("need limit >= 2")
    a = coeffs.values_float()
    cps = default_checkpoints(limit)
    cps = cps[cps >= 2]
    vals = np.empty(len(cps))  # max |n a_n| over 2 <= n <= x at each checkpoint x
    # one pass a block of n at a time; sup_abs is the running max at n = N
    sup_abs = 0.0
    for lo in range(2, limit + 1, SIEVE_BLOCK):
        hi = min(lo + SIEVE_BLOCK, limit + 1)
        cmax = np.abs(np.arange(lo, hi, dtype=np.float64) * a[lo:hi])
        cmax[0] = np.maximum(cmax[0], sup_abs)
        np.maximum.accumulate(cmax, out=cmax)
        sup_abs = float(cmax[-1])
        j = slice(np.searchsorted(cps, lo), np.searchsorted(cps, hi))
        vals[j] = cmax[cps[j] - lo]
    if sup_abs == 0.0:
        growth = 0.0
    else:
        pos = vals > 0
        if pos.sum() < 3:
            growth = 0.0
        else:
            growth, _ = _ols_loglog(cps[pos].astype(np.float64), vals[pos])
    tail = largest_primes(limit, 100)
    tail_mean = float(np.mean(tail * a[tail])) if len(tail) else 0.0
    return HLRReport(
        sup_abs=sup_abs,
        growth_exponent=growth,
        prime_tail_mean=tail_mean,
        limit=limit,
        primes_used=len(tail),
    )


# --------------------------------------------------------------------------
# Jordan partial sums and the Mertens ratio
# --------------------------------------------------------------------------


def jordan_sum(table: MobiusTable, beta: float, x: int) -> float:
    """sum_{n<=x} J_(-beta)(n) = sum_{k<=x} k^-beta M(floor(x/k))."""
    if x < 1 or x > table.limit:
        raise ValueError("x outside [1, table.limit]")
    ks = np.arange(1, x + 1, dtype=np.int64)
    return float(np.sum(ks ** (-beta) * table.mertens[x // ks]))


def jordan_partial_check(table: MobiusTable, beta: float, limit: int) -> JordanReport:
    """Growth of sum_{n<=x} J_(-beta)(n) against the main term
    x^(1-beta)/((1-beta) zeta(1-beta)), for 0 < beta < 1/2, at the
    default_checkpoints(limit).

    Fits the envelope exponent (expect 1-beta) and compares the top-quartile
    mean of S(x)/x^(1-beta) with the predicted constant — which is negative
    for 0 < beta < 1/2 since zeta(1-beta) < 0; the sign is part of the check.
    """
    if not (0.0 < beta < 0.5):
        raise ValueError("beta must lie in (0, 1/2); the rest is regime territory")
    if limit > table.limit:
        raise ValueError("limit exceeds table limit")
    cps = default_checkpoints(limit)
    vals = np.array([jordan_sum(table, beta, int(x)) for x in cps])
    series = PartialSumSeries(checkpoints=cps, A=vals, A1=vals)
    slope, stderr = fit_exponent(series)
    pred = 1.0 / ((1.0 - beta) * zeta(complex(1.0 - beta)).real)
    q = max(1, len(cps) // 4)
    emp = float(np.mean(vals[-q:] / cps[-q:].astype(np.float64) ** (1.0 - beta)))
    return JordanReport(
        beta=beta,
        limit=limit,
        checkpoints=cps,
        values=vals,
        slope=slope,
        stderr=stderr,
        predicted_constant=pred,
        empirical_constant=emp,
    )


def mertens_ratio_report(table: MobiusTable, limit: int, start: int = 2) -> MertensReport:
    """max over start <= x <= limit of |M(x)|/sqrt(x) and its first argmax.

    Scanned in blocks of SIEVE_BLOCK, so nothing limit-long is allocated; a
    later block replaces the maximum only when it beats it strictly.
    limit=1 degenerates to the x=1 ratio M(1)/1 = 1.
    """
    if limit < 1 or limit > table.limit:
        raise ValueError("limit outside [1, table.limit]")
    if limit == 1:
        return MertensReport(limit=1, max_ratio=1.0, argmax_x=1)
    if start < 2 or start > limit:
        raise ValueError("start outside [2, limit]")
    best, argmax = -1.0, start
    buf = np.empty(min(SIEVE_BLOCK, limit + 1 - start))
    for lo in range(start, limit + 1, SIEVE_BLOCK):
        hi = min(lo + SIEVE_BLOCK, limit + 1)
        ratios = buf[: hi - lo]
        np.sqrt(np.arange(lo, hi, dtype=np.float64), out=ratios)
        np.divide(np.abs(table.mertens[lo:hi]), ratios, out=ratios)
        i = int(np.argmax(ratios))
        if ratios[i] > best:
            best, argmax = float(ratios[i]), lo + i
    return MertensReport(limit=limit, max_ratio=best, argmax_x=argmax)
