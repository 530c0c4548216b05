import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raflab import kernels
from raflab.kernels import (
    GENIN_PROFILE_MAX_Q,
    IDENTITY,
    Affine,
    Band,
    Disc,
    Divisor,
    FSpec,
    GeneralizedIngham,
    Hankel,
    Ingham,
    KernelDomainError,
    LogKernel,
    RationalRaf,
    Scaled,
    Separable,
    UnsupportedKernelError,
    parse_kernel,
)


def test_ingham_hand_values():
    g = Ingham()
    # G(n,k) = (k/n)*floor(n/k)
    assert g.eval(10, 10) == 1.0
    assert g.eval(10, 5) == 1.0
    assert g.eval(10, 3) == pytest.approx(9 / 10)
    assert g.eval(10, 4) == pytest.approx(8 / 10)


def test_ingham_domain():
    g = Ingham()
    with pytest.raises(KernelDomainError):
        g.eval(10, 0)
    with pytest.raises(KernelDomainError):
        g.eval(10, 11)


def test_disc_hand_value():
    # lam=2, t=3/4: floor(-ln(3/4)/ln 2) = 0, so g = 3/4
    g = Disc(2.0)
    assert g.eval(4, 3) == pytest.approx(0.75)
    # t = 1/4 sits exactly on a power boundary: 2^2 * 1/4 = 1
    assert g.eval(4, 1) == pytest.approx(1.0)
    # t = 3/8: one step, 2 * 3/8 = 3/4
    assert g.eval(8, 3) == pytest.approx(0.75)


def test_disc_unproven_flag():
    assert Disc(2.0).unproven_index is False
    assert Disc(2.5).unproven_index is True


def test_affine_and_log_profiles():
    a = Affine(0.5)
    assert a.profile(1.0) == 1.0
    assert a.profile(0.5) == pytest.approx(0.75)
    lg = LogKernel(0.5)
    assert lg.profile(1.0) == 1.0
    assert lg.profile(np.exp(-2.0)) == pytest.approx(2.0)
    with pytest.raises(KernelDomainError):
        Affine(0.0)
    with pytest.raises(KernelDomainError):
        Affine(1.0)
    with pytest.raises(KernelDomainError):
        LogKernel(1.5)
    with pytest.raises(KernelDomainError):
        Disc(1.0)


def test_rational_is_not_fgv():
    r = RationalRaf(1.0, 2.0)
    assert not r.is_fgv
    assert r.eval(10, 5) == pytest.approx(16 / 17)
    with pytest.raises(UnsupportedKernelError):
        r.profile(0.5)
    with pytest.raises(UnsupportedKernelError):
        Scaled(r, FSpec("power", r=0.5))
    with pytest.raises(KernelDomainError):
        RationalRaf(1.0, 1.0)


def test_scaled_exp_hand_value():
    # q=2: t = f(1)/f(2) = 3/5, floor(1/t) = 1 -> g = 3/5
    k = Scaled(Ingham(), FSpec("exp_plus_one", q=2))
    assert k.eval(2, 1) == pytest.approx(3 / 5)
    # f(1)/f(3) = 3/9 = 1/3 exactly -> floor(3) * 1/3 = 1
    assert k.eval(3, 1) == pytest.approx(1.0)


def test_scaled_underflow_names_the_kernel_and_entry():
    # f(k)/f(n) below the smallest normal float: the base profile would
    # take log(0) (disc) or overflow lam^steps; the error says where
    from raflab.mellin import limit_transform_wrt_f
    from raflab.solver import RhsSpec, solve

    exp3 = FSpec("exp_plus_one", q=3)
    k = Scaled(Disc(2), exp3)
    with pytest.raises(KernelDomainError, match=r"scaled:disc:2:exp:3 at n=680, k=1\b"):
        k.eval(680, 1)
    k.eval(640, 1)  # exp(-700.3) is still a normal float
    with pytest.raises(KernelDomainError, match=r"scaled:disc:2:exp:3 at n=800, k=1\b"):
        limit_transform_wrt_f(Disc(2), exp3, -1, 400)
    with pytest.raises(KernelDomainError, match=r"scaled:disc:2:exp:3 at n=\d+, k=1\b"):
        solve(k, RhsSpec("power", 0.5), 700)
    # the exact integer branch of scaled ingham has no float ratio to underflow
    assert Scaled(Ingham(), exp3).eval(680, 1) == 1.0  # (f(680) - 2)/f(680), rounded


def test_scaled_kernel_cannot_be_rescaled_again():
    # G(n,k) = g(f(k)/f(n)) is no function of k/n, so a scaled kernel has no
    # profile to rescale; taking the base's would drop the inner f
    inner = Scaled(Ingham(), FSpec("power", r=0.5))
    assert not inner.is_fgv
    with pytest.raises(UnsupportedKernelError):
        inner.profile(0.5)
    with pytest.raises(UnsupportedKernelError):
        Scaled(inner, FSpec("power", r=0.5))


def test_scaled_identity_passthrough():
    k = Scaled(Ingham(), FSpec("identity"))
    g = Ingham()
    for n, kk in [(10, 3), (7, 7), (100, 41)]:
        assert k.eval(n, kk) == g.eval(n, kk)


def test_genin_reduces_to_ingham_with_single_weight():
    # weights (1,0,0,...) truncated to one term reproduces x*floor(1/x)? no —
    # a single weight 1 gives the full divisor-sum profile. Check against the
    # brute double sum instead.
    g = GeneralizedIngham((1.0, -1.0))
    n = 12
    for k in range(1, n + 1):
        total = 0.0
        for j in range(1, n // k + 1):
            u = 1.0 if j % 2 == 1 else -1.0
            total += u / j * ((j * k) / n) * (n // (j * k))
        assert g.eval(n, k) == pytest.approx(total)


def test_scaled_pow_ingham_is_one_at_square_ratios():
    # (k/n)^(1/2) = 1/m when n/k = m^2, and g(1/m) = 1; t = 1/m comes out
    # of exp/log one ulp high at many such points, which must not drop the floor
    k = Scaled(Ingham(), FSpec("power", r=0.5))
    for n in range(1, 401):
        for m in range(1, int(n**0.5) + 1):
            if n % (m * m) == 0:
                assert abs(k.eval(n, n // (m * m)) - 1.0) <= 1e-12, (n, m)


def test_divisor_structure_reproduces_the_kernel():
    # n^rho G(n,k)/k^rho = sum_{m<=n//k} w_m, w = None meaning w_m = 1 and
    # w_m = 0 past the array
    assert Ingham().structure(10).w is None
    assert Scaled(Ingham(), FSpec("power", r=1.0)).structure(10).w is None
    for kern in (Ingham(), GeneralizedIngham((1.0, -0.5, 2.0)), Disc(2.0), Disc(3.0),
                 Scaled(Ingham(), IDENTITY),
                 Scaled(Ingham(), FSpec("power", r=1.0)),
                 Scaled(Ingham(), FSpec("power", r=0.5)),
                 Scaled(Ingham(), FSpec("power", r=1.0 / 3.0))):
        st = kern.structure(60)
        assert isinstance(st, Divisor)
        w = [1.0] * 61 if st.w is None else st.w.tolist()
        for n in range(1, 61):
            for k in range(1, n + 1):
                total = sum(w[1 : n // k + 1])
                assert (n / k) ** st.rho * kern.eval(n, k) == pytest.approx(
                    total, rel=1e-12, abs=1e-12)
    assert Scaled(Ingham(), FSpec("power", r=0.25)).structure(10).rho == 0.25
    # x^r with 1/r not an integer, and rescaled kernels of another base,
    # declare nothing
    for kern in (Scaled(Ingham(), FSpec("power", r=0.4)),
                 Scaled(Ingham(), FSpec("power", r=0.333333)),
                 Scaled(Disc(2.0), FSpec("power", r=0.5)),
                 Scaled(GeneralizedIngham((1.0, -1.0)), FSpec("power", r=0.5)),
                 Scaled(Disc(2.0), FSpec("exp_plus_one", q=2))):
        assert kern.structure(10) is None
    for kern in (Affine(0.5), LogKernel(0.5), RationalRaf(1.0, 2.0),
                 Scaled(Ingham(), FSpec("exp_plus_one", q=2))):
        assert not isinstance(kern.structure(10), Divisor)
    assert Disc(2.5).structure(10) is None


@pytest.mark.parametrize("lam", [2, 3, 5, 7])
def test_disc_steps_sit_at_one_and_the_powers_of_lam(lam):
    w = Disc(float(lam)).structure(1000).w
    powers = [lam**i for i in range(10) if lam**i <= 1000]
    assert np.flatnonzero(w).tolist() == powers
    assert w[powers].tolist() == [1.0] + [p - p // lam for p in powers[1:]]


@pytest.mark.parametrize("weights", [(1.0,), (1.0, -1.0), (1.0, -0.5, 2.0), (0.3, 0.0, -1.7, 2.5)])
def test_genin_steps_are_one_convolved_with_its_weights(weights):
    limit = 300
    u = [0.0] + [weights[(j - 1) % len(weights)] for j in range(1, limit + 1)]
    want = [0.0] + [sum(u[d] for d in range(1, m + 1) if m % d == 0)
                    for m in range(1, limit + 1)]
    got = GeneralizedIngham(weights).structure(limit).w.tolist()
    assert got == pytest.approx(want, rel=1e-15, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=300))
def test_eval_row_matches_scalar(n):
    ks = np.arange(1, n + 1)
    for kern in (Ingham(), Affine(0.3), LogKernel(0.7), Disc(2.0), Disc(3.0),
                 RationalRaf(1.0, 3.0), GeneralizedIngham((1.0, -1.0, 0.5)),
                 Scaled(Ingham(), FSpec("power", r=0.5)),
                 Scaled(Ingham(), FSpec("exp_plus_one", q=2)),
                 Scaled(Disc(2.5), FSpec("power", r=0.5)),
                 Scaled(LogKernel(0.7), FSpec("power", r=0.5))):
        row = kern.eval_row(n, ks)
        scalar = np.array([kern.eval(n, int(k)) for k in ks])
        np.testing.assert_allclose(row, scalar, rtol=1e-12, atol=1e-15)


def test_separable_structure_reproduces_the_kernel():
    # G(n,k) = P[0,n] Q[0,k] + P[1,n] Q[1,k] for all k <= n
    for kern in (Affine(0.3), LogKernel(0.7), Scaled(Affine(0.3), IDENTITY)):
        st = kern.structure(60)
        assert isinstance(st, Separable)
        p, q = st.p, st.q
        assert p.shape == q.shape == (2, 61)
        for n in range(1, 61):
            ks = np.arange(1, n + 1)
            row = p[0, n] * q[0, ks] + p[1, n] * q[1, ks]
            np.testing.assert_allclose(row, kern.eval_row(n, ks), rtol=1e-13, atol=1e-15)
    for kern in (Ingham(), Disc(2.0), RationalRaf(1.0, 2.0), GeneralizedIngham((1.0,)),
                 Scaled(Ingham(), FSpec("power", r=0.5))):
        assert not isinstance(kern.structure(10), Separable)


def test_hankel_structure_reproduces_eval_row_bit_for_bit():
    # G(n,k) = h[n+k], with the same bits as eval_row, for all k <= n
    for x, y in ((1.0, 2.0), (2.0, 1.0), (0.3, 7.5)):
        kern = RationalRaf(x, y)
        st = kern.structure(60)
        assert isinstance(st, Hankel)
        h = st.h
        assert h.dtype == np.float64 and h.shape == (121,)
        for n in range(1, 61):
            ks = np.arange(1, n + 1)
            assert np.array_equal(h[n + ks], kern.eval_row(n, ks)), (x, y, n)
    for kern in (Ingham(), Affine(0.5), LogKernel(0.5), Disc(2.0), Disc(2.5),
                 GeneralizedIngham((1.0, -1.0)), Scaled(Ingham(), FSpec("power", r=0.5)),
                 Scaled(Ingham(), FSpec("exp_plus_one", q=2)), Scaled(Ingham(), IDENTITY)):
        assert not isinstance(kern.structure(10), Hankel)


@pytest.mark.parametrize("q", [2, 3, 10])
def test_band_structure_is_every_eval_row_from_n0_to_3000(q):
    # rows n >= n0 are [1.0, ..., 1.0, e[c], ..., e[1], e[0]] bit for bit;
    # c = ceil(54/log2 q) + 1 and n0 = 2c (110, 72, 36)
    kern = Scaled(Ingham(), FSpec("exp_plus_one", q=q))
    st = kern.structure(3000)
    assert isinstance(st, Band)
    c = len(st.e) - 1
    assert c == math.ceil(54 / math.log2(q)) + 1 and st.n0 == 2 * c
    assert st.e[0] == 1.0 and st.e[1] == (q - 1) / q  # fl(2/3), not 1 - fl(1/3)
    ks = np.arange(1, 3001)
    tail = np.array(st.e[::-1])
    for n in range(st.n0, 3001):
        row = kern.eval_row(n, ks[:n])
        assert np.all(row[: n - c - 1] == 1.0) and np.array_equal(row[n - c - 1 :], tail), n


@pytest.mark.parametrize("q", [2, 3, 10])
def test_exp_scaled_rows_equal_scalar_eval(q):
    # eval_row takes every f(k) from one q^n; eval builds f(k) and f(n) apart
    kern = Scaled(Ingham(), FSpec("exp_plus_one", q=q))
    rng = np.random.default_rng(q)
    for n in (107, 5003, 20011):
        lo = max(1, n - 80)
        ks = np.concatenate([np.arange(lo, n + 1), rng.integers(1, lo, 20)])
        want = np.array([kern.eval(n, k) for k in ks.tolist()])
        assert np.array_equal(kern.eval_row(n, ks), want), n


def test_power_scaled_rows_floor_by_integer_roots():
    # n = k j^p, where floor((n/k)^(1/p)) = j: the old float floor
    # t*floor(1/t + 1e-12) missed 80 of 3000 such points for p = 2
    rng = np.random.default_rng(20)
    for p in (2, 3):
        f = FSpec("power", r=1.0 / p)
        kern = Scaled(Ingham(), f)
        for _ in range(3000):
            j = int(rng.integers(2, int(1e12 ** (1.0 / p))))
            k = int(rng.integers(1, int(1e12) // j**p + 1))
            n = k * j**p
            # each evaluator keeps its own t = (k/n)^(1/p) and floors exactly
            t = math.exp(f.log_value(k) - f.log_value(n))
            assert kern.eval(n, k) == t * j, (p, n, k)
            t = np.exp(f.r * np.log(np.array([k, n], dtype=np.float64)) - f.r * math.log(n))
            assert np.array_equal(kern.eval_row(n, np.array([k, n])), t * [j, 1]), (p, n, k)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(1e-3, 1.0), max_size=20))
def test_profile_vec_matches_profile(ts):
    # every FGV kernel; t = 1/m is where the floor profiles jump
    t = np.array(ts + [1.0 / m for m in range(1, 41)])
    for kern in (Ingham(), Affine(0.3), LogKernel(0.7), Disc(2.0), Disc(2.5),
                 GeneralizedIngham((1.0, -1.0, 0.5))):
        assert kern.is_fgv
        scalar = np.array([kern.profile(float(x)) for x in t])
        np.testing.assert_allclose(kern.profile_vec(t), scalar, rtol=1e-12, atol=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
def test_fgv_eval_equals_profile_of_ratio(n, k):
    if k > n:
        n, k = k, n
    for kern in (Affine(0.25), LogKernel(0.5)):
        assert kern.eval(n, k) == pytest.approx(kern.profile(k / n), rel=1e-12)


def test_parse_round_trips():
    # %g prints the first six specs and a float %g would round to another
    # kernel (disc:2.0000001 is non-integer disc, off the divisor path) the
    # others; each is written back as given
    for spec in ("ingham", "affine:0.5", "log:0.25", "disc:2",
                 "ratraf:1,2", "genin:1,-1", "scaled:ingham:exp:2",
                 "scaled:ingham:pow:0.5", "scaled:ingham:id",
                 "disc:2.0000001", "affine:0.1234567", "ratraf:1.0000001,2",
                 "genin:0.1234567,-1", "scaled:ingham:pow:0.3333333333333333"):
        k = parse_kernel(spec)
        assert k.spec == spec
        assert parse_kernel(k.spec) == k


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_unit_open = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.just(Ingham()),
    st.builds(Affine, _unit_open),
    st.builds(LogKernel, _unit),
    st.builds(Disc, st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)),
    st.tuples(_positive, _positive).filter(lambda xy: xy[0] != xy[1]).map(
        lambda xy: RationalRaf(*xy)),
    st.builds(GeneralizedIngham, st.lists(_finite, min_size=1, max_size=4).map(tuple)),
    st.just(Scaled(Ingham(), IDENTITY)),
    st.builds(lambda q: Scaled(Ingham(), FSpec("exp_plus_one", q=q)),
              st.integers(min_value=2, max_value=10**6)),
    st.builds(lambda r: Scaled(Ingham(), FSpec("power", r=r)), _unit),
))
def test_spec_parses_back_to_the_same_kernel(kern):
    assert parse_kernel(kern.spec) == kern


def test_parse_rejects_garbage():
    for bad in ("", "ingham:1", "affine", "affine:2", "disc:0.5",
                "scaled:ratraf:1,2:id", "wavelet:3", "genin:",
                "scaled:ingham:exp", "scaled:ingham:sqrt:2"):
        with pytest.raises((KernelDomainError, UnsupportedKernelError)):
            parse_kernel(bad)


@pytest.mark.parametrize("bad", ["ingham:", "ingham:1", "ratraf:1", "affine:1,2", "genin:",
                                 "scaled:ingham:pow", "scaled:affine:0.5:id"])
def test_malformed_spec_is_a_domain_error(bad):
    # a head with the wrong number of parameters, or a scaled base that
    # carries parameters, is a bad spec, not another kernel
    with pytest.raises(KernelDomainError, match="bad kernel spec"):
        parse_kernel(bad)


def test_fspec_validation():
    with pytest.raises(KernelDomainError):
        FSpec("power", r=0.0)
    with pytest.raises(KernelDomainError):
        FSpec("power", r=1.5)
    with pytest.raises(KernelDomainError):
        FSpec("exp_plus_one", q=1)
    f = FSpec("exp_plus_one", q=3)
    assert f.value(0) == 2
    assert f.value(4) == 82
    assert f.log_value(4) == pytest.approx(np.log(82.0))
    # overflow-free log for huge arguments
    assert FSpec("exp_plus_one", q=2).log_value(5000) == pytest.approx(5000 * np.log(2.0))


def _genin_profile_per_j(weights, t):
    """The per-j loop GeneralizedIngham.profile replaced: floor(1/t) steps."""
    period = len(weights)
    total = 0.0
    for j in range(1, int(math.floor(1.0 / t + 1e-12)) + 1):
        uj = weights[(j - 1) % period]
        if uj != 0.0:
            total += uj * math.floor(1.0 / (j * t) + 1e-12)
    return total * t


def test_genin_profile_matches_per_j_loop():
    # dyadic weights keep both sums exact, so they agree bit for bit: at
    # every jump t = 1/m up to m = 2000, and at log-uniform t in [1e-4, 1]
    rng = np.random.default_rng(0)
    ts = [1.0 / m for m in range(1, 2001)] + (10.0 ** rng.uniform(-4.0, 0.0, 300)).tolist()
    for weights in ((1.0, -1.0), (1.0, -0.5, 2.0), (0.0, 1.0, -1.0, 0.25)):
        g = GeneralizedIngham(weights)
        for t in ts:
            assert g.profile(t) == _genin_profile_per_j(g.weights, t), (weights, t)
    g = GeneralizedIngham((1.0, 1.0 / 3.0))  # not dyadic: equal up to rounding
    for t in ts[::7]:
        assert g.profile(t) == pytest.approx(_genin_profile_per_j(g.weights, t), rel=1e-12)


def test_genin_f_transform_finishes():
    # t reaches 3/(2^40 + 1) at 2n = 40, about 3.7e11 steps of the per-j
    # loop; O(sqrt(floor(1/t))) blocks take well under a second.  A child
    # process, so a regression fails at the timeout instead of hanging.
    code = (
        "from raflab.kernels import FSpec, GeneralizedIngham\n"
        "from raflab.mellin import limit_transform_wrt_f\n"
        "tr = limit_transform_wrt_f(GeneralizedIngham((1, -1)), FSpec('exp_plus_one', q=2), -1, 20)\n"
        "print(abs(tr.value_2n - tr.value))\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=dict(os.environ, PYTHONPATH=path))
    assert time.perf_counter() - start < 5.0
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1e-6  # geometric convergence in n


def test_genin_profile_refuses_below_its_cap():
    g = GeneralizedIngham((1.0, -1.0))
    assert math.isfinite(g.profile(1.0 / GENIN_PROFILE_MAX_Q))
    for t in (0.5 / GENIN_PROFILE_MAX_Q, 1e-300, 1e-320):
        with pytest.raises(KernelDomainError):
            g.profile(t)


def test_genin_w_takes_the_direct_sum_below_its_switch():
    # each W(q) is the bits of one of the two routes: the direct sum (one
    # np.dot over j <= q) below the switch, the O(sqrt q) blocks from it on
    g = GeneralizedIngham((0.3, 2.0, -1.0, 0.7))
    switch = kernels._GENIN_DIRECT_Q
    qs = list(range(1, 200)) + list(range(switch - 50, switch + 50))
    u = np.resize(np.array(g.weights), switch + 50)
    j = np.arange(1, switch + 51)
    for q, w in zip(qs, g._ws(qs)):
        assert w == (np.dot(u[:q], q // j[:q]) if q < switch else g._w(q)), q
        assert w == pytest.approx(g._w(q), rel=1e-12)


def test_genin_row_handles_unsorted_and_empty():
    g = GeneralizedIngham((1.0,))
    out = g.eval_row(20, np.array([7, 3, 11]))
    expect = np.array([g.eval(20, 7), g.eval(20, 3), g.eval(20, 11)])
    np.testing.assert_allclose(out, expect)
    assert g.eval_row(20, np.array([], dtype=np.int64)).shape == (0,)
