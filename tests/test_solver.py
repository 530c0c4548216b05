import dataclasses
import gc
import math
import struct
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raflab.asymptotics import _ols_loglog, default_checkpoints, hlr_report
from raflab import kernels
from raflab.kernels import (
    IDENTITY, Affine, Band, Disc, FSpec, GeneralizedIngham, Hankel, Ingham, LogKernel,
    RationalRaf, Scaled, parse_kernel,
)
from raflab.sieve import SIEVE_BLOCK, divisor_pass, primes_upto, sieve
from raflab.solver import (
    BackendMismatchError,
    Coefficients,
    PartialSumSeries,
    RhsSpec,
    SingularKernelError,
    VerificationError,
    _exact_sum,
    delta_coeff_closed,
    ingham_coeff_closed,
    l0_three_smooth,
    parse_rhs,
    partial_sums,
    partial_sums_exact,
    residual,
    solve,
    verify_residuals,
)


# ---------------------------------------------------------------- rhs specs


def test_parse_rhs():
    assert parse_rhs("power:0.5") == RhsSpec("power", 0.5)
    assert parse_rhs("delta").kind == "delta"
    assert parse_rhs("l0pow:1") == RhsSpec("l0pow", 1.0)
    for bad in ("", "power", "power:x", "gauss:1", "delta:1"):
        with pytest.raises(ValueError):
            parse_rhs(bad)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["power", "l0pow"]), st.floats(allow_nan=False, allow_infinity=False))
def test_rhs_label_parses_back_to_the_same_rhs(kind, beta):
    rhs = RhsSpec(kind, beta)
    assert parse_rhs(rhs.label) == rhs


def test_rhs_label_keeps_every_digit_g_would_drop():
    third = RhsSpec("power", 1 / 3)
    assert third.label == "power:0.3333333333333333" and parse_rhs(third.label) == third
    assert RhsSpec("l0pow", 1.0).label == "l0pow:1" and RhsSpec("delta").label == "delta"


def test_rhs_delta_forces_infinite_beta():
    r = RhsSpec("delta")
    assert math.isinf(r.beta)
    assert r.exactable
    with pytest.raises(ValueError):
        RhsSpec("power", math.inf)
    with pytest.raises(ValueError):
        RhsSpec("banana")


def test_rhs_exactable():
    assert RhsSpec("power", 2.0).exactable
    assert RhsSpec("power", 0.0).exactable
    assert not RhsSpec("power", 0.5).exactable
    assert not RhsSpec("power", -1.0).exactable  # negative beta: R not 1/int
    assert RhsSpec("l0pow", 1.0).exactable


# ---------------------------------------------------------------- tiny hand solves


def test_beta_zero_collapses_to_delta_sequence():
    # R(n) = 1 for all n: a_1 = 1 and every later a_n = 0
    c = solve(Ingham(), RhsSpec("power", 0.0), 50)
    assert c.values[1] == pytest.approx(1.0)
    np.testing.assert_allclose(c.values_float()[2:], 0.0, atol=1e-12)


def test_beta_one_gives_mobius_over_n(table_small):
    c = solve(Ingham(), RhsSpec("power", 1.0), 1000)
    expect = table_small.mu[: 1001].astype(np.float64)
    expect[1:] /= np.arange(1, 1001, dtype=np.float64)
    np.testing.assert_allclose(c.values_float()[1:], expect[1:], rtol=0, atol=1e-12)


def test_hand_forward_substitution_affine():
    # independent 4x4 forward substitution, written out longhand
    kern = Affine(0.5)
    rhs = RhsSpec("power", 1.0)
    a = [0.0] * 5
    for n in range(1, 5):
        acc = sum(a[k] * kern.eval(n, k) for k in range(1, n))
        a[n] = (n**-1.0 - acc) / kern.eval(n, n)
    c = solve(kern, rhs, 4)
    np.testing.assert_allclose(c.values_float()[1:], a[1:], rtol=1e-14)


def test_delta_exact_small():
    c = solve(Ingham(), RhsSpec("delta"), 8, backend="exact")
    nan = c.n_a_n()
    # mu(n) - [n even] mu(n/2)
    assert [int(v) for v in nan[1:]] == [1, -2, -1, 1, -1, 2, -1, 0]
    assert all(v.denominator == 1 for v in nan[1:])


# ---------------------------------------------------------------- backends agree


# genin weights: 1-4 entries, u_1 != 0 (u_1 = 0 is singular)
GENIN = st.builds(
    lambda u1, rest: GeneralizedIngham((u1,) + tuple(rest)),
    st.floats(0.5, 2.0) | st.floats(-2.0, -0.5),
    st.lists(st.floats(-2.0, 2.0) | st.just(0.0), max_size=3),
)


# the separable kernels (affine, log) and the integer-lam staircase
STRUCTURED = (
    st.floats(0.05, 0.95).map(Affine)
    | st.floats(0.05, 1.0).map(LogKernel)
    | st.sampled_from([2.0, 3.0, 5.0, 7.0]).map(Disc)
)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=2000),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0]),
    st.just(Ingham()) | GENIN | STRUCTURED,
)
def test_fast_path_matches_generic(limit, beta, kernel):
    if isinstance(kernel, GeneralizedIngham):
        limit = min(limit, 300)  # a generic genin row makes ~2 sqrt(n) numpy calls
    rhs = RhsSpec("power", beta)
    fast = solve(kernel, rhs, limit)
    slow = solve(kernel, rhs, limit, force_generic=True)
    np.testing.assert_allclose(
        fast.values_float()[1:], slow.values_float()[1:], rtol=1e-8, atol=1e-10
    )
    assert verify_residuals(fast, range(1, limit + 1)) <= 1.0


def test_exact_matches_float():
    for rhs in (RhsSpec("power", 2.0), RhsSpec("delta"), RhsSpec("l0pow", 1.0)):
        ex = solve(Ingham(), rhs, 400, backend="exact")
        fl = solve(Ingham(), rhs, 400)
        np.testing.assert_allclose(
            ex.values_float()[1:], fl.values_float()[1:], rtol=1e-9, atol=1e-12
        )


def test_backend_mismatch():
    with pytest.raises(BackendMismatchError):
        solve(Affine(0.5), RhsSpec("delta"), 100, backend="exact")
    with pytest.raises(BackendMismatchError):
        solve(Ingham(), RhsSpec("power", 0.5), 100, backend="exact")
    # genin and integer disc take the float divisor path, but their u is not
    # delta; ingham rescaled by x^(1/2) has u = delta but rho = 1/2
    for kern in (GeneralizedIngham((1.0, -1.0)), Disc(2.0), parse_kernel("scaled:ingham:pow:0.5")):
        with pytest.raises(BackendMismatchError):
            solve(kern, RhsSpec("delta"), 100, backend="exact")
    # the identity rescaling is ingham itself
    ex = solve(Scaled(Ingham(), IDENTITY), RhsSpec("delta"), 100, backend="exact")
    assert ex.values == solve(Ingham(), RhsSpec("delta"), 100, backend="exact").values
    with pytest.raises(ValueError):
        solve(Ingham(), RhsSpec("delta"), 100, backend="sympy")


def test_generic_cap():
    # kernels with no structure: non-integer disc, x^r with 1/r not an integer
    for kern in (Disc(2.5), Scaled(Ingham(), FSpec("power", r=0.4))):
        with pytest.raises(ValueError, match="capped at N=20000"):
            solve(kern, RhsSpec("power", 1.0), 25_000)
    # divisor (genin, integer disc, ingham rescaled by x^(1/p)), separable
    # (affine, log), Hankel (ratraf) and band (ingham rescaled by q^x+1)
    # kernels run no eval_row rows past the band's n0, so the cap does not apply
    for kern in (GeneralizedIngham((1.0, -1.0)), Disc(2.0), Affine(0.5), LogKernel(0.5),
                 RationalRaf(1.0, 2.0), Scaled(Ingham(), FSpec("power", r=0.5)),
                 Scaled(Ingham(), FSpec("exp_plus_one", q=2))):
        c = solve(kern, RhsSpec("power", 1.0), 25_000)
        assert c.limit == 25_000 and c.values[1] == 1.0 / kern.eval(1, 1)
    # force_generic is the dense eval_row reference, capped for every kernel
    with pytest.raises(ValueError, match="capped at N=20000"):
        solve(RationalRaf(1.0, 2.0), RhsSpec("power", 1.0), 25_000, force_generic=True)


RATRAF_RHS = [RhsSpec("power", b) for b in (-1.0, 0.0, 0.5, 2.0)] + [RhsSpec("delta")]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=2000),
    st.sampled_from(RATRAF_RHS),
    st.sampled_from([(1.0, 2.0), (2.0, 1.0), (0.3, 7.5)]),
)
def test_hankel_path_matches_eval_rows_row_scaled(limit, rhs, xy):
    # the FFT correlations round differently from the dense row dots, and
    # where the row sum cancels a_n is small, so the gap is bounded against
    # sum_{k<=n} |a_k| (worst measured 1.6e-15), not elementwise
    kern = RationalRaf(*xy)
    fast = solve(kern, rhs, limit).values
    ref = solve(kern, rhs, limit, force_generic=True).values
    scale = np.cumsum(np.abs(ref))
    assert np.all(np.abs(fast - ref)[1:] <= 1e-12 * scale[1:])


def test_hankel_path_refuses_a_zero_diagonal(monkeypatch):
    # G(n,n) = h[2n]: n = 1 and 200 fall in the first leaf, 700 after FFT
    # corrections from the rows below it
    true = RationalRaf.structure
    for n in (1, 200, 700):
        def zeroed(self, limit, n=n):
            h = true(self, limit).h
            h[2 * n] = 0.0
            return Hankel(h)

        monkeypatch.setattr(RationalRaf, "structure", zeroed)
        with pytest.raises(SingularKernelError) as err:
            solve(RationalRaf(1.0, 2.0), RhsSpec("power", 0.5), 1000)
        assert err.value.n == n


def test_hankel_solve_leaves_no_reference_cycle():
    # the recursion must not keep h, r, a and acc alive in a cycle: with the
    # cyclic collector off, the result dies on del and nothing is left for it
    kern, rhs = RationalRaf(1.0, 2.0), RhsSpec("power", 0.5)
    gc.collect()
    gc.disable()
    try:
        coeffs = solve(kern, rhs, 3000)
        alive = weakref.ref(coeffs.values)
        del coeffs
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def _nudged_hankel(monkeypatch, index):
    """RationalRaf.structure with h[index(limit)] moved up by 1e-6."""
    true = RationalRaf.structure

    def nudged(self, limit):
        h = true(self, limit).h
        h[index(limit)] += 1e-6
        return Hankel(h)

    monkeypatch.setattr(RationalRaf, "structure", nudged)


def test_residual_checks_do_not_read_the_hankel_table(monkeypatch):
    kern, rhs = RationalRaf(1.0, 2.0), RhsSpec("power", 0.5)
    # G(N,1) = h[N+1] is in the row the post-solve check recomputes at n = N
    _nudged_hankel(monkeypatch, lambda limit: limit + 1)
    with pytest.raises(VerificationError):
        solve(kern, rhs, 100)
    # h[51] sits only in rows 26..50 and h[325] in rows 163..324, below the
    # last: the generic spot check samples every n <= 64, and n = 324 in its
    # 1.5-fold sweep above
    for limit, m in ((100, 51), (1000, 325)):
        monkeypatch.undo()
        _nudged_hankel(monkeypatch, lambda _: m)
        with pytest.raises(VerificationError):
            solve(kern, rhs, limit)


# ingham rescaled by the identity, x^(1/p) and q^x+1: the divisor and band paths
SCALED = [Scaled(Ingham(), f) for f in (
    IDENTITY, FSpec("power", r=0.5), FSpec("power", r=1.0 / 3.0), FSpec("power", r=0.25),
    FSpec("exp_plus_one", q=2), FSpec("exp_plus_one", q=3), FSpec("exp_plus_one", q=10),
)]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=2000),
    st.sampled_from([RhsSpec("power", b) for b in (-1.0, 0.0, 0.5, 1.1, 2.0)] + [RhsSpec("delta")]),
    st.sampled_from(SCALED),
)
def test_scaled_paths_match_generic_row_scaled(limit, rhs, kern):
    # |a_n - ref_n| <= 1e-12 sum_{k<=n} |ref_k|, as for the Hankel path: the
    # divisor and band paths sum each row in another order
    fast = solve(kern, rhs, limit).values
    ref = solve(kern, rhs, limit, force_generic=True).values
    scale = np.cumsum(np.abs(ref))
    assert np.all(np.abs(fast - ref)[1:] <= 1e-12 * scale[1:])


def test_scaled_identity_keeps_its_base_bits():
    for base in (Ingham(), GeneralizedIngham((0.3, -1.0)), Disc(3.0), Affine(0.3), LogKernel(0.7)):
        for rhs in (RhsSpec("power", 0.5), RhsSpec("delta")):
            got = solve(Scaled(base, IDENTITY), rhs, 3000).values
            assert got.tobytes() == solve(base, rhs, 3000).values.tobytes()


def test_band_path_refuses_a_band_that_is_not_eval_row(monkeypatch):
    kern, rhs = Scaled(Ingham(), FSpec("exp_plus_one", q=2)), RhsSpec("power", 0.5)
    true = kernels._exp_band(2)
    e = list(true.e)
    e[3] = math.nextafter(e[3], 0.0)
    # one entry an ulp low, a start below the last row that differs, a band
    # cut short where its entries are not yet 1.0
    for wrong in (Band(true.n0, tuple(e)), Band(true.n0 - 10, true.e),
                  Band(true.n0, true.e[:5])):
        monkeypatch.setattr(kernels, "_exp_band", lambda q, wrong=wrong: wrong)
        with pytest.raises(VerificationError, match="declared band"):
            solve(kern, rhs, 500)
    # below n0 no band row is used, so none is checked
    assert solve(kern, rhs, true.n0 - 11).limit == true.n0 - 11


def test_singular_kernel():
    for weights in ((0.0,), (0.0, 1.0)):
        for force_generic in (False, True):
            with pytest.raises(SingularKernelError):
                solve(GeneralizedIngham(weights), RhsSpec("power", 1.0), 10,
                      force_generic=force_generic)


# ---------------------------------------------------------------- closed forms


def test_closed_beta_one_is_mu(table_small):
    out = ingham_coeff_closed(table_small, 1.0, 1000)
    np.testing.assert_array_equal(out, table_small.mu[:1001].astype(np.float64))


def test_closed_matches_solve(table_small):
    for beta in (0.0, 0.5, 1.0, 2.0, 3.0):
        c = solve(Ingham(), RhsSpec("power", beta), 600)
        nan = c.n_a_n()
        closed = ingham_coeff_closed(table_small, beta, 600)
        np.testing.assert_allclose(closed[1:], nan[1:], rtol=1e-9, atol=1e-9)


def reference_coeff_closed(table, beta, limit):
    """One pass over every squarefree j, j ascending: the summation order the
    closed form's divisor_pass call keeps, so its floats must match bit for bit."""
    d = np.arange(limit + 1, dtype=np.float64)
    t = np.zeros(limit + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        t[2:] = d[2:] ** (1.0 - beta) - d[1:-1] ** (1.0 - beta)
    t[1] = 1.0
    out = np.zeros(limit + 1, dtype=np.float64)
    for j in range(1, limit + 1):
        m = int(table.mu[j])
        if m == 0:
            continue
        ln = limit // j
        if m == 1:
            out[j :: j][: ln] += t[1 : ln + 1]
        else:
            out[j :: j][: ln] -= t[1 : ln + 1]
    return out


# at squares r^2 (where divisor_pass's strided part gains d = r) and powers
# of two (where its dyadic blocks of the larger d shift), and next to them
CLOSED_SIZES = st.one_of(
    st.sampled_from(sorted({m + e for m in [r * r for r in (2, 3, 8, 31, 32, 70)]
                            + [2**j for j in (1, 2, 6, 7, 11, 12)]
                            for e in (-1, 0, 1)} - {0})),
    st.integers(min_value=1, max_value=5000),
)
# beta = -400 overflows t(d) from d = 6 on, which the closed form refuses
CLOSED_BETAS = st.one_of(st.sampled_from([0.0, 1.0, 2.0, -1.0, -400.0]),
                         st.floats(min_value=-3.0, max_value=3.0))


@settings(max_examples=60, deadline=None)
@given(n=CLOSED_SIZES, beta=CLOSED_BETAS)
def test_closed_matches_per_j_loop_bit_for_bit(n, beta):
    table = sieve(n)
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_coeff_closed(table, beta, n)
    if not np.all(np.isfinite(want)):
        with pytest.raises(ValueError, match="not finite"):
            ingham_coeff_closed(table, beta, n)
        return
    got = ingham_coeff_closed(table, beta, n)
    assert got.dtype == np.float64 and len(got) == n + 1
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("beta", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_closed_exact_fractions(table_small, beta, n):
    closed = ingham_coeff_closed(table_small, float(beta), n, exact=True)
    ex = solve(Ingham(), RhsSpec("power", float(beta)), n, backend="exact")
    assert len(closed) == n + 1
    assert closed[1:] == ex.n_a_n()[1:]
    assert all(isinstance(v, Fraction) for v in closed)


def test_closed_exact_negative_beta_matches_float(table_small):
    # t(d) = d^2 - (d-1)^2 is an integer, and so is every n*a_n
    closed = ingham_coeff_closed(table_small, -1.0, 300, exact=True)
    assert closed == ingham_coeff_closed(table_small, -1.0, 300).tolist()


def test_closed_validation(table_small):
    with pytest.raises(ValueError):
        ingham_coeff_closed(table_small, 1.0, 5000)  # past the table
    for exact in (False, True):
        with pytest.raises(ValueError, match="limit must be >= 1"):
            ingham_coeff_closed(table_small, 1.0, 0, exact=exact)
    with pytest.raises(ValueError):
        ingham_coeff_closed(table_small, math.inf, 100)
    with pytest.raises(BackendMismatchError):
        ingham_coeff_closed(table_small, 0.5, 100, exact=True)


def test_closed_refuses_overflowing_t(table_small):
    # t(6) = 6^401 - 5^401 overflows; solve refuses this beta as well
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"beta -400: t\(n\) is not finite at n=6$"):
            ingham_coeff_closed(table_small, -400.0, 1000)
        assert np.all(np.isfinite(ingham_coeff_closed(table_small, -400.0, 5)))
    with pytest.raises(ValueError, match=r"R\(n\) is not finite"):
        solve(Ingham(), RhsSpec("power", -400.0), 1000)


def test_delta_closed_hand_row(table_small):
    out = delta_coeff_closed(table_small, 8)
    assert out[1:].tolist() == [1, -2, -1, 1, -1, 2, -1, 0]


def test_delta_closed_matches_solve(table_small):
    c = solve(Ingham(), RhsSpec("delta"), 1000)
    closed = delta_coeff_closed(table_small, 1000)
    np.testing.assert_allclose(c.n_a_n()[1:], closed[1:].astype(np.float64), atol=1e-9)


# ---------------------------------------------------------------- residuals


def test_residual_identity_holds():
    for kern in (Ingham(), Affine(0.3), LogKernel(0.5), RationalRaf(1.0, 2.0)):
        c = solve(kern, RhsSpec("power", 0.5), 300)
        assert verify_residuals(c) <= 1.0


@pytest.mark.parametrize("kern,rhs,limit", [
    (Ingham(), RhsSpec("power", 0.5), 2000),
    (Ingham(), RhsSpec("delta"), 2000),
    (Ingham(), RhsSpec("l0pow", 0.5), 2000),
    (Affine(0.3), RhsSpec("power", 0.25), 400),
])
def test_verify_residuals_matches_public_residual(kern, rhs, limit):
    # verify_residuals reads R once; it must still report exactly what the
    # per-n public residual() gives over its default sample
    c = solve(kern, rhs, limit)
    sample = sorted(set(range(1, min(limit, 64) + 1))
                    | {min(limit, int(round(64 * 1.5**j))) for j in range(64)})
    r = rhs.r_float(np.arange(limit + 1))
    expect = max(abs(residual(c, n)) / (1e-9 * max(1.0, abs(r[n])) * n) for n in sample)
    assert verify_residuals(c) == expect
    assert verify_residuals(c, [limit, 7]) == max(
        abs(residual(c, n)) / (1e-9 * max(1.0, abs(r[n])) * n) for n in (limit, 7))


def test_verify_residuals_fails_a_nan_residual():
    c = solve(Ingham(), RhsSpec("power", 0.5), 100)
    a = c.values.copy()
    a[70] = math.nan  # only the residuals at n >= 70 see it
    assert verify_residuals(dataclasses.replace(c, values=a)) == math.inf


def _assert_sum_is_fsum(p):
    """_exact_sum(p) is math.fsum(p.tolist()) bit for bit, or raises what it raises."""
    try:
        want = math.fsum(p.tolist())
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            _exact_sum(p.copy())
        return
    assert struct.pack("<d", _exact_sum(p.copy())) == struct.pack("<d", want)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 5000),
    st.integers(-1074, 1000),
    st.integers(0, 2100),
    st.sampled_from(["spread", "cancel", "zeros", "special"]),
    st.integers(0, 2**32 - 1),
)
def test_exact_sum_is_fsum_bit_for_bit(length, low, spread, kind, seed):
    # magnitudes 2^low .. 2^min(low + spread, 1000), subnormals included
    rng = np.random.default_rng(seed)
    p = np.ldexp(rng.uniform(-1.0, 1.0, length), rng.integers(low, min(low + spread, 1000) + 1, length))
    if kind == "cancel":  # every term with its negation, plus a few small ones
        p = np.concatenate([p, -p, np.ldexp(rng.uniform(-1.0, 1.0, 3), low)])
        rng.shuffle(p)
    elif kind == "zeros" and length:
        p[rng.integers(0, length, length // 2 + 1)] = rng.choice([0.0, -0.0], length // 2 + 1)
    elif kind == "special" and length:
        p[rng.integers(0, length, 2)] = rng.choice([math.inf, -math.inf, math.nan, 2.0**1023, -2.0**1023], 2)
    _assert_sum_is_fsum(p)


@pytest.mark.parametrize("terms", [
    [], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [5e-324] * 3, [1.0, 5e-324, -1.0],
    [2.0**53, 1.0, -(2.0**53)], [1.0, 2.0**-60, 2.0**-120, -1.0], [1.5, 2.0**-53],
    [math.inf], [math.inf, -math.inf], [math.nan, 1.0], [1e308, 1e308], [1e308, 1e308, -1e308],
    [2.0**900, 2.0**900, -(2.0**900)], [2.0**901, 1.0], [2.0**1020, 1.0, -1.0], [2.0**1000] * 4,
])
def test_exact_sum_edge_cases_match_fsum(terms):
    _assert_sum_is_fsum(np.array(terms, dtype=np.float64))


def test_residual_exact_is_zero():
    c = solve(Ingham(), RhsSpec("power", 1.0), 120, backend="exact")
    assert residual(c, 120) == 0
    assert residual(c, 77) == 0
    assert verify_residuals(c) == 0.0


EXACT_SOLVES = [("power:1", 100_000), ("power:2", 10_000), ("delta", 10_000), ("l0pow:1", 5_000)]


@pytest.fixture(scope="module", params=EXACT_SOLVES, ids=[r for r, _ in EXACT_SOLVES])
def exact_solve(request):
    rhs, limit = request.param
    return solve(Ingham(), parse_rhs(rhs), limit, backend="exact")


def test_exact_residual_equals_per_term_fraction_sum(exact_solve):
    c = exact_solve
    for n in sorted({1, 2, 12, 97, 360, c.limit // 3, c.limit}):
        want = sum(c.values[k] * Fraction(k * (n // k), n) for k in range(1, n + 1))
        assert residual(c, n) == want - Fraction(c.rhs.t_exact(np.array([n]))[0], n)


def test_exact_residual_sees_a_one_part_in_10_12_nudge(exact_solve):
    c = exact_solve
    for k in (1, 6, c.limit // 2, c.limit):
        values = list(c.values)
        values[k] += Fraction(1, 10**12)
        nudged = dataclasses.replace(c, values=values)
        assert verify_residuals(nudged, [c.limit]) == math.inf
    assert verify_residuals(c, [c.limit]) == 0.0


def test_residual_index_errors():
    c = solve(Ingham(), RhsSpec("delta"), 50)
    with pytest.raises(IndexError):
        residual(c, 0)
    with pytest.raises(IndexError):
        residual(c, 51)
    with pytest.raises(IndexError):  # past int64 too
        residual(c, 10**20)


# ---------------------------------------------------------------- partial sums


def test_partial_sums_match_brute():
    c = solve(Ingham(), RhsSpec("power", 0.5), 500)
    cps = [1, 7, 100, 499, 500]
    s = partial_sums(c, cps)
    a = c.values_float()
    for i, x in enumerate(cps):
        assert s.A[i] == pytest.approx(float(np.sum(a[1 : x + 1])), abs=1e-12)
        assert s.A1[i] == pytest.approx(
            float(np.sum(np.arange(x + 1) * a[: x + 1])), rel=1e-12
        )


def test_partial_sums_exact_matches_float():
    c = solve(Ingham(), RhsSpec("delta"), 300, backend="exact")
    ea, eb = partial_sums_exact(c, [10, 100, 300])
    cf = solve(Ingham(), RhsSpec("delta"), 300)
    s = partial_sums(cf, [10, 100, 300])
    for i in range(3):
        assert float(ea[i]) == pytest.approx(s.A[i], abs=1e-9)
        assert float(eb[i]) == pytest.approx(s.A1[i], abs=1e-9)


def test_partial_sums_validation():
    # both backends refuse the same checkpoint lists with the same message
    for backend, sums in (("float", partial_sums), ("exact", partial_sums_exact)):
        c = solve(Ingham(), RhsSpec("delta"), 100, backend=backend)
        for cps, msg in [([], "empty"), ([0, 10], "outside"), ([10, 101], "outside"),
                         ([10, 10], "strictly increasing"),
                         ([5, 200, 10], "strictly increasing")]:
            with pytest.raises(ValueError, match=msg):
                sums(c, cps)
    with pytest.raises(BackendMismatchError):
        partial_sums_exact(solve(Ingham(), RhsSpec("delta"), 100), [10])


def test_series_container_validation():
    with pytest.raises(ValueError):
        PartialSumSeries(np.array([]), np.array([]), np.array([]))
    with pytest.raises(ValueError):
        PartialSumSeries(np.array([1, 2]), np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PartialSumSeries(np.array([2, 2]), np.array([1.0, 1.0]), np.array([1.0, 1.0]))


# ---------------------------------------------------------------- slowly varying rhs


def test_l0_three_smooth_hand_values():
    l0 = l0_three_smooth(20)
    # 3-smooth: 1 2 3 4 6 8 9 12 16 18
    assert l0[1] == 1
    assert l0[4] == 4
    assert l0[5] == 4
    assert l0[10] == 7
    assert l0[20] == 10
    d = np.diff(l0)
    assert set(d.tolist()) <= {0, 1}


def _l0_brute(m):
    """#{2^a 3^b <= m}, counted directly."""
    return sum(1 for a in range(m.bit_length()) for b in range(m.bit_length())
               if 2**a * 3**b <= m)


@pytest.mark.parametrize("kind", ["power", "l0pow", "delta"])
@pytest.mark.parametrize("beta", [0, 1, 2, 3])
def test_t_exact_is_m_times_r(kind, beta):
    # T(m) = m R(m) from first principles, at every m <= 200 (m = 0 too) and
    # on a shuffled subset, which builds its own L0 table
    rhs = RhsSpec(kind, float(beta))
    ms = np.arange(201)
    t = rhs.t_exact(ms)
    for m in range(201):
        if kind == "delta":
            r = Fraction(int(m == 1))
        else:
            r = Fraction(1, m**beta) * (_l0_brute(m) if kind == "l0pow" else 1) if m else 0
        assert t[m] == m * r, m
        if kind == "delta" or beta <= 1:
            assert type(t[m]) is int, m
    sub = np.random.default_rng(beta).permutation(201)[:37]
    assert list(rhs.t_exact(sub)) == [t[m] for m in sub]


def test_t_exact_refuses_non_integer_beta():
    for kind in ("power", "l0pow"):
        with pytest.raises(ValueError, match="integer beta"):
            RhsSpec(kind, 0.5).t_exact(np.arange(10))


@pytest.mark.parametrize("rhs", [
    RhsSpec("power", 0.9815), RhsSpec("power", 0.5), RhsSpec("power", 2.0),
    RhsSpec("power", 0.0), RhsSpec("power", -1.0), RhsSpec("power", -2.5),
    RhsSpec("power", -51.0), RhsSpec("l0pow", 0.9), RhsSpec("l0pow", 1.0), RhsSpec("delta"),
])
@pytest.mark.parametrize("size", [1, 7, 8, 9, 88])
def test_r_float_at_a_subset_is_the_full_table(rhs, size):
    # the residual checks read R at their own n only; those reads must be
    # the bits a solve gets from R over 0..N, whatever SIMD lane n falls in
    n = 100_000
    full = rhs.r_float(np.arange(n + 1))
    rng = np.random.default_rng(size)
    for ns in (rng.integers(0, n + 1, size), np.sort(rng.choice(n + 1, size, replace=False)),
               np.arange(n + 1 - size, n + 1)):
        assert rhs.r_float(ns).tobytes() == full[ns].tobytes()


# ---------------------------------------------------------------- blocked float pipeline


def _whole_array_solve(kernel, rhs, n):
    """The divisor-path solve on whole arrays: R and T over 0..N at once,
    s(m) = T(m) - T(m-1) from a copy of T, one division by 1..N."""
    u = kernel.structure(n).u
    ns = np.arange(n + 1)
    if rhs.kind == "delta":
        r = (ns == 1).astype(np.float64)
    else:
        with np.errstate(divide="ignore"):
            r = ns.astype(np.float64) ** (-rhs.beta)
        r[0] = 0.0
        if rhs.kind == "l0pow":
            r *= l0_three_smooth(n)
    t = r * ns
    t[1:] -= t[:-1].copy()
    divisor_pass(t, t, -1)
    if u[1] != 1:
        t /= u[1]
    if np.any(u[2:]):
        divisor_pass(t, t, -1, u / u[1])
    t[1:] /= np.arange(1, n + 1)
    return t


def _bits_equal(got, want):
    return got.tobytes() == want.tobytes()


BLOCK_EDGE_SIZES = [SIEVE_BLOCK - 1, SIEVE_BLOCK, SIEVE_BLOCK + 1, 2 * SIEVE_BLOCK + 7]


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_blocked_float_pipeline_matches_whole_arrays_at_block_edges(n):
    cases = [(Ingham(), RhsSpec("power", 0.9815)), (Ingham(), RhsSpec("power", -1.0489)),
             (Ingham(), RhsSpec("l0pow", 1.1844)), (Ingham(), RhsSpec("delta")),
             (GeneralizedIngham((1, -1)), RhsSpec("power", 0.5)),
             (Disc(2.0), RhsSpec("power", 2.0477))]
    for kernel, rhs in cases:
        c = solve(kernel, rhs, n)
        want = _whole_array_solve(kernel, rhs, n)
        assert _bits_equal(c.values, want), (kernel.spec, rhs.label)  # signbit too
        a = c.values
        # partial sums at every x are np.cumsum's bits
        s = partial_sums(c, np.arange(1, n + 1))
        assert _bits_equal(s.A, np.cumsum(a)[1:])
        assert _bits_equal(s.A1, np.cumsum(np.arange(n + 1, dtype=np.float64) * a)[1:])
        # the blocked row sum is fsum of the whole row
        for m in sorted({1, SIEVE_BLOCK - 1, SIEVE_BLOCK, SIEVE_BLOCK + 1, n}):
            if m <= n:
                row = kernel.eval_row(m, np.arange(1, m + 1, dtype=np.int64))
                want_r = math.fsum((row * a[1 : m + 1]).tolist()) - rhs.r_float([m])[0]
                assert struct.pack("<d", residual(c, m)) == struct.pack("<d", want_r)
        if rhs.beta >= 0:
            na = np.arange(n + 1, dtype=np.float64) * a
            cmax = np.maximum.accumulate(np.abs(na[2:]))
            cps = default_checkpoints(n)
            cps = cps[cps >= 2]
            rep = hlr_report(c)
            assert rep.sup_abs == float(np.abs(na[2:]).max())
            assert rep.growth_exponent == _ols_loglog(cps.astype(np.float64), cmax[cps - 2])[0]
            assert rep.prime_tail_mean == float(np.mean(na[primes_upto(n)[-100:]]))
    table = sieve(n)
    d = np.arange(n + 1, dtype=np.float64)
    for beta in (0.9815, -1.0, 2.5):
        t = np.zeros(n + 1)
        t[2:] = d[2:] ** (1.0 - beta) - d[1:-1] ** (1.0 - beta)
        want = np.zeros(n + 1)
        divisor_pass(want, table.mu, 1, t)
        want += table.mu
        assert _bits_equal(ingham_coeff_closed(table, beta, n), want), beta


def test_blocked_float_pipeline_allocates_nothing_n_long_beyond_the_output(traced_peak):
    # at this n a whole-array solve peaks at 40 bytes per n, partial_sums at
    # 24, verify_residuals at 32, hlr_report at 25.6 and the closed form at
    # 32, which is over each bound; now the solve holds its output plus
    # O(SIEVE_BLOCK), the closed form its output and t, and the rest
    # O(SIEVE_BLOCK)
    n = 4 * SIEVE_BLOCK
    solve(Ingham(), RhsSpec("l0pow", 1.0), 100)  # first-call imports outside the trace
    for rhs in (RhsSpec("power", 0.5), RhsSpec("l0pow", 1.1844)):
        c, peak = traced_peak(lambda: solve(Ingham(), rhs, n))
        assert peak <= 10 * (n + 1) + 64 * SIEVE_BLOCK, rhs.label
    cps = default_checkpoints(n)
    for fn in (lambda: partial_sums(c, cps), lambda: verify_residuals(c),
               lambda: hlr_report(c)):
        _, peak = traced_peak(fn)
        assert peak <= 64 * SIEVE_BLOCK
    table = sieve(n)
    _, peak = traced_peak(lambda: ingham_coeff_closed(table, 0.9815, n))
    assert peak <= 24 * (n + 1)
