"""The numbered claims, one registry for `raf verify` and the acceptance gate.

CLAIMS is an ordered tuple of Claim(name, suites, check).  check() builds
its own sieve tables, runs the claim end to end at its stated tolerance and
runtime budget, and returns (ok, detail); it raises no assert, so it also
runs under `python -O`.  Each threshold lives here and nowhere else:
`raf verify --suite full` runs every claim, and tests/test_acceptance.py
runs each claim as one test.

Suites: "exact" (01, 02, 03, 05, 15) and "asymptotic" (06, 08, 09, 11, 13,
16) name their members in Claim.suites; "full" is every claim.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Tuple

import numpy as np

from .asymptotics import (
    DEFAULT_TOL,
    VERDICT_MATCH,
    Tolerances,
    estimate_index,
    hlr_report,
    jordan_partial_check,
    mertens_ratio_report,
    regime_scan,
)
from .counting import (
    CountSpec,
    coprime_oracle_table,
    count_formula,
    count_oracle,
    elias_scan,
    log2_floor_table,
    meissel_scan,
    p_free_oracle_table,
    smooth_bridge_scan,
    smooth_oracle_table,
)
from .kernels import FSpec, Ingham, Scaled, parse_kernel
from .mellin import (
    closed_transform,
    limit_transform,
    limit_transform_wrt_f,
    phi_f_zeros,
    zeta,
)
from .sieve import sieve
from .solver import (
    RhsSpec,
    delta_coeff_closed,
    ingham_coeff_closed,
    l0_three_smooth,
    partial_sums_exact,
    solve,
)

SUITES = ("exact", "asymptotic", "full")


@dataclass(frozen=True)
class Claim:
    """One numbered claim; suites lists its named suites besides "full"."""

    name: str
    suites: Tuple[str, ...]
    check: Callable[[], Tuple[bool, str]]


def status_line(name: str, ok: bool, detail: str) -> str:
    """The one printed line of a claim: `PASS <name>: <detail>` or FAIL."""
    return "%s %s: %s" % ("PASS" if ok else "FAIL", name, detail)


def _exact_floor_identities() -> Tuple[bool, str]:
    table = sieve(100_000)
    t0 = time.monotonic()
    ms = meissel_scan(table, 100_000)
    es = elias_scan(table, 100_000)
    l2 = log2_floor_table(100_000)
    dt = time.monotonic() - t0
    ok_m = bool(np.all(ms[1:] == 1))
    ok_e = bool(np.all(es[1:] == 1 + 2 * l2[1:]))
    return (
        ok_m and ok_e and dt < 10.0,
        "meissel=1 %s; elias=1+2*floor(log2 n) %s; n<=1e5 in %.2fs (<10s)"
        % (ok_m, ok_e, dt),
    )


def _beta_one_exactness() -> Tuple[bool, str]:
    mu = sieve(10_000).mu
    c = solve(Ingham(), RhsSpec("power", 1.0), 10_000, backend="exact")
    bad = sum(
        1 for n in range(1, 10_001) if c.values[n] != Fraction(int(mu[n]), n)
    )
    return (
        bad == 0,
        "exact solve a_n == mu(n)/n for n<=1e4 (%d mismatches)" % bad,
    )


def _delta_exactness() -> Tuple[bool, str]:
    # the float backend stores a_n = (n a_n)/n and cannot hold -1/103
    # exactly; the exact-equality claim is the exact backend's
    table = sieve(10_000)
    c = solve(Ingham(), RhsSpec("delta"), 10_000, backend="exact")
    closed = delta_coeff_closed(table, 10_000)
    na = c.n_a_n()
    ok_coef = all(na[n] == int(closed[n]) for n in range(1, 10_001))
    cps = np.arange(200, 10_001, 200)
    _, a1 = partial_sums_exact(c, cps)
    m = table.mertens
    bad_a1 = sum(
        1
        for i, x in enumerate(cps)
        if a1[i] != int(m[x]) - int(m[x // 2])
    )
    return (
        ok_coef and bad_a1 == 0,
        "solve == closed form %s; A1(x) = M(x)-M(x/2) at %d checkpoints (%d bad)"
        % (ok_coef, len(cps), bad_a1),
    )


def _closed_form_vs_solver() -> Tuple[bool, str]:
    table = sieve(2000)
    bad_int = 0
    for b in (0.0, 1.0, 2.0, 3.0):
        closed = ingham_coeff_closed(table, b, 2000, exact=True)
        sol = solve(Ingham(), RhsSpec("power", b), 2000, backend="exact")
        bad_int += sum(
            1 for n in range(1, 2001) if closed[n] != sol.values[n] * n
        )
    closed_h = ingham_coeff_closed(table, 0.5, 2000)
    na = solve(Ingham(), RhsSpec("power", 0.5), 2000).n_a_n()
    rel = float(
        np.max(np.abs(closed_h[1:] - na[1:]) / np.abs(closed_h[1:]))
    )
    return (
        bad_int == 0 and rel <= 1e-9,
        "integer beta exact (%d mismatches); beta=0.5 max rel %.2e (<=1e-9)"
        % (bad_int, rel),
    )


def _three_smooth_rhs() -> Tuple[bool, str]:
    mu = sieve(30_000).mu
    t0 = time.monotonic()
    c = solve(Ingham(), RhsSpec("l0pow", 1.0), 5000, backend="exact")
    bad = sum(
        1 for k in range(1, 5001) if c.values[k] * k != int(mu[6 * k])
    )
    dt = time.monotonic() - t0
    return (
        bad == 0 and dt < 30.0,
        "a_k == mu(6k)/k for k<=5000 (%d mismatches) in %.2fs (<30s)" % (bad, dt),
    )


def _mellin_agreement() -> Tuple[bool, str]:
    k = Ingham()
    worst = 0.0
    for z in (-0.5, -1.0, -2.0, -1 + 1j):
        c = closed_transform(k, z).value
        l = limit_transform(k, z, 100_000).value
        worst = max(worst, abs(l - c) / abs(c))
    v0 = closed_transform(k, 0.0).value
    err1 = abs(closed_transform(k, -1.0).value - math.pi**2 / 12)
    return (
        worst < 0.01 and v0 == 1.0 and err1 < 1e-10,
        "limit-vs-closed worst rel %.2e (<1e-2); phi*(0)=%s; |phi*(-1)-pi^2/12|=%.1e"
        % (worst, v0, err1),
    )


def _zeta_evaluator() -> Tuple[bool, str]:
    err2 = abs(zeta(2.0) - math.pi**2 / 6)
    zero = abs(zeta(0.5 + 14.134725j))
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for _ in range(100):
        s = complex(rng.uniform(-9.5, 5.0), rng.uniform(0.01, 99.0))
        dev = abs(zeta(s.conjugate()) - zeta(s).conjugate())
        worst = max(worst, dev / max(1.0, abs(zeta(s))))
    return (
        err2 < 1e-12 and zero < 1e-5 and worst <= 1e-12,
        "zeta(2) err %.1e (<1e-12); |zeta(1/2+14.134725i)|=%.1e (<1e-5); "
        "conj dev %.1e on 100 points (<=1e-12)" % (err2, zero, worst),
    )


def _scaled_transform() -> Tuple[bool, str]:
    v = limit_transform_wrt_f(Ingham(), FSpec("exp_plus_one", q=2), -1.0, 60).value
    err = abs(v - 5.0 / 6.0)
    # the closed form against the limit: a slip that keeps the zeros in
    # place (the denominator's sign, say) still moves the value at z = -1
    err_c = abs(closed_transform(Scaled(Ingham(), FSpec("exp_plus_one", q=2)), -1.0).value - v)
    worst_re = 0.0
    worst_phi = 0.0
    n_zeros = 0
    for q in range(2, 11):
        kq = Scaled(Ingham(), FSpec("exp_plus_one", q=q))
        zs = phi_f_zeros(q, (0.0, 40.0))
        n_zeros += len(zs)
        worst_re = max(worst_re, max(abs(z.real - 0.5) for z in zs))
        worst_phi = max(
            worst_phi, max(abs(closed_transform(kq, z).value) for z in zs)
        )
    return (
        err < 1e-6 and err_c < 1e-6 and worst_re < 1e-9 and worst_phi < 1e-9,
        "wrt-f(q=2,z=-1,n=60) err %.1e (<1e-6), closed-vs-limit %.1e (<1e-6); "
        "%d zeros q=2..10: |Re-1/2| max %.1e (<1e-9), |phi_f*| max %.1e (<1e-9)"
        % (err, err_c, n_zeros, worst_re, worst_phi),
    )


def _regime_suite() -> Tuple[bool, str]:
    # beta = -1, 0.25 must match x^-beta/G*(beta) within 5%; beta = 0.75,
    # 1, 2 must decay at slope <= -0.35
    t0 = time.monotonic()
    ok = True
    parts = []
    for v in regime_scan(Ingham(), (-1.0, 0.25, 0.75, 1.0, 2.0), 1_000_000):
        if v.beta < 0.5:
            rel = abs(v.empirical_constant - v.predicted_constant) / abs(
                v.predicted_constant
            )
            ok = ok and v.verdict == VERDICT_MATCH and rel <= 0.05
            parts.append("b=%g %s rel %.3f" % (v.beta, v.verdict, rel))
        else:
            ok = ok and v.fitted_slope <= -0.35
            parts.append("b=%g slope %.2f" % (v.beta, v.fitted_slope))
    dt = time.monotonic() - t0
    return (
        ok and dt <= 120.0,
        "; ".join(parts) + "; %.1fs (<=120s)" % dt,
    )


def _index_estimation() -> Tuple[bool, str]:
    # Generic kernels at N=2e4 sit deep in their transients (corrections
    # O(x^{beta-alpha}), log factors for the log kernel), so the bracketing
    # runs pin wider, pilot-calibrated tolerances; the constant check is
    # the sharp detector: 1/G*(beta) diverges and flips sign across the
    # index while the measured value stays put.
    t0 = time.monotonic()
    grid9 = [round(0.1 * i, 1) for i in range(1, 10)]
    grid_disc = [round(0.5 + 0.1 * i, 1) for i in range(0, 10)]
    wide = Tolerances(0.2, 0.2, const_tol=0.6)
    disc_tol = Tolerances(0.1, 0.1, const_tol=0.15)
    runs = (
        ("affine:0.5", grid9, 20_000, wide, 0.4, 0.6),
        ("log:0.5", grid9, 20_000, wide, 0.4, 0.6),
        ("disc:2", grid_disc, 20_000, disc_tol, 0.85, 1.15),
        ("ingham", grid9, 1_000_000, DEFAULT_TOL, 0.35, 0.65),
    )
    ok = True
    parts = []
    for spec, grid, n, tol, lo, hi in runs:
        est = estimate_index(parse_kernel(spec), grid, n, tol)
        ok = ok and lo <= est.alpha_hat <= hi
        parts.append("%s %.3f in [%g,%g]" % (spec, est.alpha_hat, lo, hi))
    # companion: the Ingham estimate (index 1/2) must move down as N grows;
    # the last run above is ingham at 1e6
    alpha_1m = est.alpha_hat
    alpha_4m = estimate_index(Ingham(), grid9, 4_000_000, DEFAULT_TOL).alpha_hat
    ok = ok and alpha_4m < alpha_1m
    parts.append("ingham 4e6 %.4f < 1e6 %.4f" % (alpha_4m, alpha_1m))
    dt = time.monotonic() - t0
    return (
        ok and dt <= 600.0,
        "; ".join(parts) + "; %.0fs (<=600s)" % dt,
    )


def _bounded_coefficients() -> Tuple[bool, str]:
    rep1 = hlr_report(solve(Ingham(), RhsSpec("power", 1.0), 100_000))
    ok = rep1.sup_abs == 1.0
    parts = ["b=1 sup %.1f" % rep1.sup_abs]
    for b in (0.25, 0.5, 2.0):
        rep = hlr_report(solve(Ingham(), RhsSpec("power", b), 100_000))
        ok = (
            ok
            and rep.growth_exponent < 0.05
            and -1.05 <= rep.prime_tail_mean <= -0.95
        )
        parts.append(
            "b=%g growth %.3f tail %.3f" % (b, rep.growth_exponent, rep.prime_tail_mean)
        )
    return ok, "; ".join(parts)


def _oracle_equivalence() -> Tuple[bool, str]:
    table = sieve(100_000)
    t0 = time.monotonic()
    N = 2000
    bad = 0
    checked = 0
    cases = []
    for m in (1, 2, 3, 4):
        cases.append(
            (lambda n, m=m: CountSpec("coprime_tuples", n, m=m),
             coprime_oracle_table(N, m))
        )
    for p in (2, 3):
        cases.append(
            (lambda n, p=p: CountSpec("p_free", n, p=p), p_free_oracle_table(N, p))
        )
    for P in ((2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)):
        cases.append(
            (lambda n, P=P: CountSpec("smooth", n, primes=P),
             smooth_oracle_table(N, P))
        )
    for mk, oracle in cases:
        for n in range(1, N + 1):
            checked += 1
            if count_formula(mk(n), table) != int(oracle[n]):
                bad += 1
    for p in (2, 3, 5):
        for n in range(1, N + 1):
            checked += 1
            spec = CountSpec("prime_powers", n, p=p)
            if count_formula(spec, table) != count_oracle(spec):
                bad += 1
    for n in range(1, N + 1):
        checked += 1
        spec = CountSpec("elias_gamma", n)
        if count_formula(spec, table) != count_oracle(spec):
            bad += 1
    # a direct pass through count_oracle's own slow paths on a spread of n
    for n in (1, 2, 3, 5, 13, 55, 144, 610, 1000, 1597, 2000):
        for spec in (
            CountSpec("coprime_tuples", n, m=2),
            CountSpec("coprime_tuples", n, m=4),
            CountSpec("p_free", n, p=2),
            CountSpec("smooth", n, primes=(2, 3, 5)),
        ):
            checked += 1
            if count_formula(spec, table) != count_oracle(spec):
                bad += 1
    dt = time.monotonic() - t0
    return (
        bad == 0 and dt < 60.0,
        "%d comparisons, %d mismatches, %.1fs (<60s)" % (checked, bad, dt),
    )


def _jordan_sums() -> Tuple[bool, str]:
    rep = jordan_partial_check(sieve(1_000_000), 0.25, 1_000_000)
    rel = abs(rep.empirical_constant - rep.predicted_constant) / abs(
        rep.predicted_constant
    )
    return (
        abs(rep.slope - 0.75) <= 0.05 and rel <= 0.05,
        "fitted exponent %.4f (0.75 +/- 0.05); constant rel dev %.4f (<=0.05)"
        % (rep.slope, rel),
    )


def _performance() -> Tuple[bool, str]:
    table = sieve(1_000_000)
    t0 = time.monotonic()
    sieve(10_000_000)
    dt_sieve = time.monotonic() - t0
    t0 = time.monotonic()
    ingham_coeff_closed(table, 0.5, 1_000_000)
    dt_closed = time.monotonic() - t0
    t0 = time.monotonic()
    solve(Ingham(), RhsSpec("power", 0.5), 1_000_000)
    dt_solve = time.monotonic() - t0
    return (
        dt_sieve < 5.0 and dt_closed < 10.0 and dt_solve < 10.0,
        "sieve 1e7 %.2fs (<5s); closed-form n*a_n at 1e6 %.2fs (<10s); "
        "solve fast path 1e6 %.2fs (<10s)" % (dt_sieve, dt_closed, dt_solve),
    )


def _smooth_bridge() -> Tuple[bool, str]:
    lhs = smooth_bridge_scan(sieve(60_000), 10_000)
    rhs = l0_three_smooth(10_000)
    bad = int(np.count_nonzero(lhs[1:] != rhs[1:]))
    return (
        bad == 0,
        "sum mu(6k) floor(n/k) == 3-smooth count L0(n) for n<=1e4 (%d mismatches)" % bad,
    )


def _mertens_ratio() -> Tuple[bool, str]:
    table = sieve(1_000_000)
    rep = mertens_ratio_report(table, 1_000_000)
    # the maximum over all x sits at x = 5, so the companion bound over
    # x >= 1e4 is the part a fault in the large-x table can flip
    far = mertens_ratio_report(table, 1_000_000, start=10_000)
    return (
        rep.max_ratio < 1.0 and far.max_ratio < 0.5,
        "max |M(x)|/sqrt(x) over 2<=x<=1e6 %.4f at x=%d (<1), over 1e4<=x<=1e6 %.5f at x=%d (<0.5)"
        % (rep.max_ratio, rep.argmax_x, far.max_ratio, far.argmax_x),
    )


CLAIMS: Tuple[Claim, ...] = (
    Claim("criterion-01 exact-floor-identities", ("exact",), _exact_floor_identities),
    Claim("criterion-02 beta-one-exactness", ("exact",), _beta_one_exactness),
    Claim("criterion-03 delta-exactness", ("exact",), _delta_exactness),
    Claim("criterion-04 closed-form-vs-solver", (), _closed_form_vs_solver),
    Claim("criterion-05 three-smooth-rhs", ("exact",), _three_smooth_rhs),
    Claim("criterion-06 mellin-agreement", ("asymptotic",), _mellin_agreement),
    Claim("criterion-07 zeta-evaluator", (), _zeta_evaluator),
    Claim("criterion-08 scaled-transform", ("asymptotic",), _scaled_transform),
    Claim("criterion-09 regime-suite", ("asymptotic",), _regime_suite),
    Claim("criterion-10 index-estimation", (), _index_estimation),
    Claim("criterion-11 bounded-coefficients", ("asymptotic",), _bounded_coefficients),
    Claim("criterion-12 oracle-equivalence", (), _oracle_equivalence),
    Claim("criterion-13 jordan-sums", ("asymptotic",), _jordan_sums),
    Claim("criterion-14 performance", (), _performance),
    Claim("criterion-15 smooth-bridge", ("exact",), _smooth_bridge),
    Claim("criterion-16 mertens-ratio", ("asymptotic",), _mertens_ratio),
)


def suite(name: str) -> Tuple[Claim, ...]:
    """The claims of one of SUITES, in registry order."""
    if name not in SUITES:
        raise ValueError("unknown suite %r (%s)" % (name, "|".join(SUITES)))
    return tuple(c for c in CLAIMS if name == "full" or name in c.suites)
