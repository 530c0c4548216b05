import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raflab.asymptotics import (
    VERDICT_DECAY,
    VERDICT_MATCH,
    BracketFailureError,
    DegenerateSeriesError,
    Tolerances,
    default_checkpoints,
    estimate_index,
    fit_exponent,
    hlr_report,
    jordan_partial_check,
    jordan_sum,
    mertens_ratio_report,
    regime_check,
)
from raflab.kernels import Ingham
from raflab.sieve import SIEVE_BLOCK, MobiusTable, primes_upto
from raflab.solver import PartialSumSeries, RhsSpec, partial_sums, solve


def _series(limit, fn):
    cps = default_checkpoints(limit)
    xs = cps.astype(np.float64)
    v = fn(xs)
    return PartialSumSeries(cps, v, v)


# ---------------------------------------------------------------- checkpoints


def test_default_checkpoints_shape():
    cps = default_checkpoints(100_000)
    assert cps[-1] == 100_000
    assert cps[0] == 100
    assert np.all(np.diff(cps) > 0)
    # limit below the base still yields at least the endpoint
    assert default_checkpoints(7).tolist() == [7]
    with pytest.raises(ValueError):
        default_checkpoints(0)


def test_slope_tol_interpolation():
    t = Tolerances()
    assert t.slope_tol(0.3) == pytest.approx(0.05)
    assert t.slope_tol(-0.3) == pytest.approx(0.05)
    assert t.slope_tol(1.0) == pytest.approx(0.10)
    assert t.slope_tol(5.0) == pytest.approx(0.10)
    assert t.slope_tol(0.75) == pytest.approx(0.075)
    assert t.slope_tol(math.inf) == pytest.approx(0.10)


# the field no CLI option sets on its own (test_cli covers the others)
@pytest.mark.parametrize("kw", [{"slope_tol_high": -0.1}])
def test_invalid_tolerances_are_refused(kw):
    with pytest.raises(ValueError, match=next(iter(kw))):
        Tolerances(**kw)


# ---------------------------------------------------------------- envelope fit


def test_fit_exact_on_power_laws():
    for expo in (-0.3, 0.7, 0.0, -1.5):
        slope, stderr = fit_exponent(_series(1_000_000, lambda x, e=expo: 5.0 * x**e))
        assert slope == pytest.approx(expo, abs=1e-12)
        assert stderr < 1e-12


def test_fit_rides_oscillation_crests():
    # x^-1/2 with a sign-changing modulation: raw log-log would be undefined
    # at the zero crossings; the envelope stays on the crests
    slope, stderr = fit_exponent(
        _series(1_000_000, lambda x: x**-0.5 * np.cos(3.0 * np.log(x)))
    )
    assert slope == pytest.approx(-0.5, abs=0.05)
    assert stderr < 0.05


def test_fit_degenerate_and_short():
    with pytest.raises(DegenerateSeriesError):
        fit_exponent(_series(1_000_000, lambda x: np.zeros_like(x)))
    cps = np.array([10, 20, 30])
    with pytest.raises(ValueError):
        fit_exponent(PartialSumSeries(cps, np.ones(3), np.ones(3)))


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.1, max_value=100.0),
)
def test_fit_recovers_any_pure_power(expo, scale):
    slope, _ = fit_exponent(_series(200_000, lambda x: scale * x**expo))
    assert slope == pytest.approx(expo, abs=1e-9)


# ---------------------------------------------------------------- regimes


def test_regime_case1_beta_negative():
    c = solve(Ingham(), RhsSpec("power", -1.0), 100_000)
    s = partial_sums(c, default_checkpoints(100_000))
    v = regime_check(s, -1.0, Ingham())
    assert v.verdict == VERDICT_MATCH
    assert v.fitted_slope == pytest.approx(1.0, abs=0.01)
    # predicted constant is 1/transform(-1) = 12/pi^2
    assert v.predicted_constant.real == pytest.approx(12.0 / math.pi**2, rel=1e-6)
    assert v.empirical_constant == pytest.approx(v.predicted_constant.real, rel=0.01)


def test_regime_case2_beta_one():
    c = solve(Ingham(), RhsSpec("power", 1.0), 100_000)
    s = partial_sums(c, default_checkpoints(100_000))
    v = regime_check(s, 1.0, Ingham())
    assert v.verdict == VERDICT_DECAY
    assert v.fitted_slope <= -0.35
    # transform pole at z=1: no predicted constant applies
    assert not v.constant_applicable
    assert "pole" in v.note


def test_regime_delta_decays():
    c = solve(Ingham(), RhsSpec("delta"), 100_000)
    s = partial_sums(c, default_checkpoints(100_000))
    v = regime_check(s, math.inf, Ingham())
    assert v.verdict == VERDICT_DECAY
    assert v.empirical_constant is None


# ---------------------------------------------------------------- index bracketing


def test_index_bracket_failures():
    with pytest.raises(BracketFailureError) as hi:
        estimate_index(Ingham(), [0.05, 0.10, 0.15], 20_000)
    assert hi.value.one_sided == pytest.approx(0.15)
    with pytest.raises(BracketFailureError) as lo:
        estimate_index(Ingham(), [2.0, 2.5, 3.0], 20_000)
    assert lo.value.one_sided == pytest.approx(2.0)


def test_index_grid_validation():
    with pytest.raises(ValueError):
        estimate_index(Ingham(), [0.1, 0.2], 1000)
    with pytest.raises(ValueError):
        estimate_index(Ingham(), [0.3, 0.2, 0.4], 1000)


def test_index_brackets_ingham_half():
    est = estimate_index(Ingham(), [round(0.1 * i, 2) for i in range(1, 10)], 200_000)
    assert 0.35 <= est.alpha_hat <= 0.65
    assert est.beta_lo < est.alpha_hat < est.beta_hi
    assert est.bisections == 6
    # grid verdicts flip from match to non-match exactly once at the bracket
    kinds = [v.verdict == VERDICT_MATCH for v in est.grid]
    assert kinds[0] and not kinds[-1]


# ---------------------------------------------------------------- HLR report


def test_hlr_beta_one_is_mobius():
    c = solve(Ingham(), RhsSpec("power", 1.0), 20_000)
    h = hlr_report(c)
    assert h.sup_abs == 1.0
    assert h.growth_exponent == 0.0
    assert h.prime_tail_mean == -1.0
    assert h.primes_used == 100


def test_hlr_beta_zero_trivial():
    c = solve(Ingham(), RhsSpec("power", 0.0), 20_000)
    h = hlr_report(c)
    assert h.sup_abs == 0.0
    assert h.growth_exponent == 0.0
    assert h.prime_tail_mean == 0.0


@pytest.mark.parametrize("limit", [2, 3, 100, 541, 542, 10**6])
def test_hlr_prime_tail_is_the_last_100_primes(limit):
    c = solve(Ingham(), RhsSpec("power", 0.7), limit)
    tail = primes_upto(limit)[-100:]
    h = hlr_report(c)
    assert h.primes_used == len(tail)
    assert h.prime_tail_mean == float(np.mean(tail * c.values[tail]))


def test_hlr_validation():
    c = solve(Ingham(), RhsSpec("power", -1.0), 100)
    with pytest.raises(ValueError):
        hlr_report(c)
    c1 = solve(Ingham(), RhsSpec("delta"), 1)
    with pytest.raises(ValueError):
        hlr_report(c1)


# ---------------------------------------------------------------- Jordan sums


def test_jordan_sum_beta_zero_identity(table_small):
    # sum_{k<=x} M(floor(x/k)) telescopes to exactly 1 for every x
    for x in (1, 2, 10, 97, 512, 1000):
        assert jordan_sum(table_small, 0.0, x) == 1.0


def test_jordan_partial_check(table_100k):
    r = jordan_partial_check(table_100k, 0.25, 100_000)
    assert r.slope == pytest.approx(0.75, abs=0.05)
    assert r.predicted_constant < 0  # zeta(3/4) < 0 drives the sign
    assert r.empirical_constant == pytest.approx(r.predicted_constant, rel=0.1)


def test_jordan_validation(table_small):
    with pytest.raises(ValueError):
        jordan_partial_check(table_small, 0.6, 1000)
    with pytest.raises(ValueError):
        jordan_partial_check(table_small, 0.25, 5000)
    with pytest.raises(ValueError):
        jordan_sum(table_small, 0.25, 0)


# ---------------------------------------------------------------- Mertens ratio


def test_mertens_ratio_small_table(table_small):
    r = mertens_ratio_report(table_small, 1000)
    assert r.argmax_x == 5
    assert r.max_ratio == pytest.approx(2.0 / math.sqrt(5.0))
    # the reported pair is self-consistent
    assert abs(int(table_small.mertens[r.argmax_x])) / math.sqrt(r.argmax_x) == pytest.approx(
        r.max_ratio
    )


def test_mertens_ratio_edges(table_small):
    assert mertens_ratio_report(table_small, 1).max_ratio == 1.0
    with pytest.raises(ValueError):
        mertens_ratio_report(table_small, 2000)
    for start in (1, 1001):
        with pytest.raises(ValueError):
            mertens_ratio_report(table_small, 1000, start=start)


def test_mertens_ratio_from_start(table_small):
    whole = mertens_ratio_report(table_small, 1000)
    assert mertens_ratio_report(table_small, 1000, start=2) == whole
    tail = mertens_ratio_report(table_small, 1000, start=100)
    assert tail.argmax_x >= 100
    xs = np.arange(100, 1001)
    ratios = np.abs(table_small.mertens[100:]) / np.sqrt(xs)
    assert tail.max_ratio == ratios.max()
    assert tail.argmax_x == xs[np.argmax(ratios)]


@pytest.mark.parametrize("start", [2, 10_000])
def test_mertens_ratio_tie_across_blocks_keeps_first_x(start):
    # |M(x)|/sqrt(x) is exactly 3 at x = 4^7 and at x = 4^10, which the scan
    # reaches in different blocks; M is 0 everywhere else
    x1, x2 = 4**7, 4**10
    assert (x1 - start) // SIEVE_BLOCK < (x2 - start) // SIEVE_BLOCK
    limit = x2 + 4
    mertens = np.zeros(limit + 1, dtype=np.int64)
    mertens[x1], mertens[x2] = 3 * 2**7, -3 * 2**10
    table = MobiusTable(limit=limit, mu=np.zeros(limit + 1, dtype=np.int8), mertens=mertens)
    rep = mertens_ratio_report(table, limit, start=start)
    assert (rep.max_ratio, rep.argmax_x) == (3.0, x1)
    mertens[x2] -= 2**10  # ratio 4 in the later block now wins
    rep = mertens_ratio_report(table, limit, start=start)
    assert (rep.max_ratio, rep.argmax_x) == (4.0, x2)
