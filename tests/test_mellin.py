import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raflab.kernels import (
    Affine,
    Disc,
    FSpec,
    GeneralizedIngham,
    Ingham,
    LogKernel,
    RationalRaf,
    Scaled,
    UnsupportedKernelError,
    parse_kernel,
)
from raflab.mellin import (
    PoleError,
    RegionError,
    closed_transform,
    limit_transform,
    limit_transform_wrt_f,
    phi_f_zeros,
    zeta,
)
from raflab.sieve import SIEVE_BLOCK

PI = math.pi


# ---------------------------------------------------------------- zeta


def test_zeta_special_values():
    assert abs(zeta(2.0) - PI**2 / 6) < 1e-12
    assert abs(zeta(4.0) - PI**4 / 90) < 1e-12
    assert abs(zeta(0.0) - (-0.5)) < 1e-12
    assert abs(zeta(-1.0) - (-1.0 / 12.0)) < 1e-12
    assert abs(zeta(3.0) - 1.2020569031595942854) < 1e-12
    # eta-function cross check at s = 1/2: zeta(1/2) = eta(1/2)/(2^(1/2) - 1) ... skip,
    # use the tabulated value instead
    assert abs(zeta(0.5) - (-1.4603545088095868)) < 1e-11


def test_zeta_first_critical_zero():
    s = complex(0.5, 14.134725141734693)
    assert abs(zeta(s)) < 1e-6


def test_zeta_pole_and_region():
    with pytest.raises(PoleError):
        zeta(1.0)
    with pytest.raises(PoleError):
        zeta(1.0 + 1e-14j)
    with pytest.raises(RegionError):
        zeta(-10.5)
    with pytest.raises(RegionError):
        zeta(complex(2.0, 150.0))
    with pytest.raises(ValueError):
        zeta(complex(math.nan, 0.0))


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-9.0, max_value=5.0),
    st.floats(min_value=0.01, max_value=90.0),
)
def test_zeta_conjugate_symmetry(sig, t):
    s = complex(sig, t)
    if abs(s - 1.0) < 1e-6:
        return
    a = zeta(s)
    b = zeta(s.conjugate())
    assert cmath.isclose(a.conjugate(), b, rel_tol=1e-9, abs_tol=1e-12)


def test_zeta_functional_consistency():
    # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s), at s = -3.
    # Left of 0 the head sum runs through ~M^3-sized terms, so double
    # precision allows ~1e-11 here, not the 1e-12 the right half-plane gets.
    s = -3.0
    lhs = zeta(s)
    rhs = 2.0**s * PI ** (s - 1.0) * math.sin(PI * s / 2.0) * math.gamma(1.0 - s) * zeta(1.0 - s)
    assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------- closed forms


def test_ingham_closed_values():
    assert closed_transform(Ingham(), 0.0).value == pytest.approx(1.0)
    # z/(z-1) * zeta(1-z) at z = -1: (1/2) zeta(2) = pi^2/12
    v = closed_transform(Ingham(), -1.0).value
    assert abs(v - PI**2 / 12) < 1e-12
    with pytest.raises(PoleError):
        closed_transform(Ingham(), 1.0)
    # patched point carries a note
    assert "removable" in closed_transform(Ingham(), 1e-12).note


def test_affine_closed_zero_and_pole():
    k = Affine(0.3)
    assert abs(closed_transform(k, 0.3).value) < 1e-14
    assert closed_transform(k, 0.0).value == pytest.approx(0.3)
    with pytest.raises(PoleError):
        closed_transform(k, 1.0 + 1e-10j)


def test_log_closed_zero_and_pole():
    k = LogKernel(0.7)
    assert abs(closed_transform(k, 0.7).value) < 1e-14
    assert closed_transform(k, -0.7).value == pytest.approx(2.0)
    with pytest.raises(PoleError):
        closed_transform(k, 0.0)


def test_disc_closed_removables_and_poles():
    lam = 2.0
    k = Disc(lam)
    v0 = closed_transform(k, 0.0).value
    assert v0 == pytest.approx((1.0 - 1.0 / lam) / math.log(lam))
    v1 = closed_transform(k, 1.0).value
    assert v1 == pytest.approx(math.log(lam) / (lam - 1.0))
    # value just off the removable point agrees with the patch
    v_eps = closed_transform(k, 1.0 + 1e-6).value
    assert abs(v_eps - v1) < 1e-5
    with pytest.raises(PoleError):
        closed_transform(k, complex(0.0, 2.0 * PI / math.log(lam)))


def test_rational_closed_is_constant_one():
    k = RationalRaf(1.0, 5.0)
    for z in (-1.0, -0.5 + 3.0j, 2.0):
        assert closed_transform(k, z).value == 1.0 + 0.0j


def test_scaled_exp_closed_hand_value():
    # q=2 at z=-1: (1/4 - 1 + 2)/(2 - 1/2) = 5/6
    k = Scaled(Ingham(), FSpec("exp_plus_one", q=2))
    assert closed_transform(k, -1.0).value == pytest.approx(5.0 / 6.0)
    with pytest.raises(PoleError):
        closed_transform(k, 1.0)


def test_scaled_power_matches_plain_ingham():
    k = Scaled(Ingham(), FSpec("power", r=0.5))
    for z in (-1.0, -0.5, -2.0 + 1.0j):
        assert closed_transform(k, z).value == pytest.approx(
            closed_transform(Ingham(), z).value
        )


def test_scaled_identity_delegates():
    k = Scaled(Affine(0.4), FSpec("identity"))
    assert closed_transform(k, -1.0).value == pytest.approx(
        closed_transform(Affine(0.4), -1.0).value
    )


def test_genin_has_no_closed_form():
    with pytest.raises(UnsupportedKernelError):
        closed_transform(GeneralizedIngham((1.0, -1.0)), -1.0)


def test_closed_rejects_nonfinite():
    with pytest.raises(ValueError):
        closed_transform(Ingham(), complex(math.inf, 0.0))


# ---------------------------------------------------------------- defining limit


def test_limit_transform_region_checks():
    with pytest.raises(RegionError):
        limit_transform(Ingham(), 0.5, 100)
    with pytest.raises(RegionError):
        limit_transform(Ingham(), 0.0, 100)
    with pytest.raises(ValueError):
        limit_transform(Ingham(), -1.0, 5)


def test_limit_transform_refuses_n_past_its_caps_before_summing():
    with pytest.raises(ValueError, match="above the cap of 100000000"):
        limit_transform(Ingham(), -1.0, 10**8 + 1)
    # the q^x+1 sum adds its terms one at a time, so it has a cap of its own
    kern = parse_kernel("scaled:ingham:exp:2")
    with pytest.raises(ValueError, match="above its cap of 2000000"):
        kern.mellin_sum(-1.0, 2 * 10**6 + 1)


def test_limit_transform_approaches_closed():
    # convergence is ~n^(Re z) for the floor kernel, so z = -1/2 needs a
    # much longer truncation than the rest to clear 1%
    for kern, z, n in (
        (Ingham(), -1.0, 4000),
        (Ingham(), -0.5, 100_000),
        (Affine(0.5), -1.0, 4000),
        (LogKernel(0.5), -2.0, 4000),
        (Disc(2.0), -1.0, 4000),
    ):
        res = limit_transform(kern, z, n)
        want = closed_transform(kern, z).value
        assert abs(res.value - want) <= 0.01 * abs(want)
        # the doubled truncation is closer than the single one
        assert abs(res.value_2n - want) <= abs(res.value - want) + 1e-12


def _unblocked_mellin_sum(kernel, z, n):
    """The defining sum as one np.sum over the whole n-long row, the
    reference the blocked sums are held to."""
    if isinstance(kernel, Scaled):
        r = 1.0 if kernel.f.kind == "identity" else kernel.f.r
        logf = r * np.log(np.arange(1, n + 1, dtype=np.float64))
        up = np.exp(z * (logf[-1] - logf))
        lo = np.concatenate(([0.0], up[:-1]))
        g = kernel.base.profile_vec(np.exp(logf - logf[-1]))
        return complex(np.sum((up - lo) * g))
    ks = np.arange(1, n + 1, dtype=np.int64)
    w = np.exp((-z - 1.0) * (np.log(ks) - math.log(n)))
    return (-z / n) * complex(np.sum(kernel.eval_row(n, ks) * w))


# every head of the kernel grammar, and Scaled over pow:0.5 and id
BLOCKED_KERNELS = [parse_kernel(spec) for spec in (
    "ingham", "affine:0.3", "log:0.5", "disc:2", "disc:2.5", "ratraf:1,2", "genin:1,-1,0",
    "scaled:ingham:pow:0.5", "scaled:ingham:id",
)] + [Scaled(Affine(0.3), FSpec("power", r=0.5))]


@pytest.mark.parametrize("kernel", BLOCKED_KERNELS, ids=lambda k: k.spec)
def test_blocked_mellin_sum_matches_one_row_sum(kernel):
    z = -0.75 + 1.25j
    for n in (10, SIEVE_BLOCK - 1, SIEVE_BLOCK, SIEVE_BLOCK + 1, 2 * SIEVE_BLOCK + 7):
        got = kernel.mellin_sum(z, n)
        want = _unblocked_mellin_sum(kernel, z, n)
        assert cmath.isclose(got, want, rel_tol=1e-13, abs_tol=0.0), (n, got, want)
        if n <= SIEVE_BLOCK and not isinstance(kernel, Scaled):
            assert got == want  # one block is the one-row sum, bit for bit


def test_mellin_sum_allocates_blocks_not_rows(traced_peak):
    # one n-long complex row is 16 MB at n = 10**6 and a one-row sum peaks
    # at 45.9 MB; the blocked sum holds a few SIEVE_BLOCK-long arrays
    kernel = Ingham()
    kernel.mellin_sum(-1 + 0.5j, 100)
    _, peak = traced_peak(lambda: kernel.mellin_sum(-1 + 0.5j, 10**6))
    assert peak <= 24 * 2**20


def test_limit_transform_reports_truncations():
    res = limit_transform(Ingham(), -1.0, 100)
    assert res.method == "limit"
    assert res.n == 100
    assert res.value_2n is not None


# ---------------------------------------------------------------- f-relative


def test_wrt_f_exp_hand_value():
    res = limit_transform_wrt_f(Ingham(), FSpec("exp_plus_one", q=2), -1.0, 60)
    assert abs(res.value - 5.0 / 6.0) < 1e-6


def test_wrt_f_power_invariance():
    # x^r rescaling leaves the transform at the plain value
    want = closed_transform(Ingham(), -0.5).value
    res = limit_transform_wrt_f(Ingham(), FSpec("power", r=0.5), -0.5, 4000)
    assert abs(res.value - want) <= 0.01 * abs(want)


def test_wrt_f_identity_matches_plain_limit():
    a = limit_transform_wrt_f(Ingham(), FSpec("identity"), -1.0, 2000).value
    want = closed_transform(Ingham(), -1.0).value
    assert abs(a - want) <= 0.01 * abs(want)


@pytest.mark.parametrize("f", [FSpec("exp_plus_one", q=2), FSpec("exp_plus_one", q=3),
                               FSpec("power", r=0.5), FSpec("identity")])
@pytest.mark.parametrize("base", [Ingham(), Affine(0.3), Disc(2.0)])
def test_limit_transform_of_a_scaled_kernel_is_the_f_relative_limit(base, f):
    for z in (-1.0, -0.5 + 2j):
        got = limit_transform(Scaled(base, f), z, 40)
        want = limit_transform_wrt_f(base, f, z, 40)
        assert (got.value, got.value_2n, got.note) == (want.value, want.value_2n, want.note)


@pytest.mark.parametrize("q", [2, 3, 7])
def test_exp_wrt_f_sum_floors_exact_integers(q):
    # the q^x+1 sum reads g(f(k)/f(n)) from Scaled.eval_row; this reference
    # takes the floor on exact integers and rounds the exact ratio once
    f = FSpec("exp_plus_one", q=q)
    z = -0.75 + 1.5j
    for n in (10, 60, 150):
        logf = [f.log_value(k) for k in range(n + 1)]
        fn = q**n + 1
        acc = 0.0 + 0.0j
        prev = cmath.exp(z * (logf[n] - logf[0]))
        for k in range(1, n + 1):
            up = cmath.exp(z * (logf[n] - logf[k]))
            fk = q**k + 1
            acc += (up - prev) * float(Fraction((fn // fk) * fk, fn))
            prev = up
        assert Scaled(Ingham(), f).mellin_sum(z, n) == acc


def test_wrt_f_validation():
    with pytest.raises(UnsupportedKernelError):
        limit_transform_wrt_f(RationalRaf(1.0, 2.0), FSpec("identity"), -1.0, 100)
    with pytest.raises(RegionError):
        limit_transform_wrt_f(Ingham(), FSpec("identity"), 1.0, 100)
    with pytest.raises(ValueError):
        limit_transform_wrt_f(Ingham(), FSpec("identity"), -1.0, 4)


# ---------------------------------------------------------------- zeros on Re z = 1/2


def test_phi_f_zeros_q2():
    zeros = phi_f_zeros(2, (0.0, 10.0))
    period = 2.0 * PI / math.log(2.0)
    base = PI / (4.0 * math.log(2.0))  # 1.1331...
    want = sorted([base, -base + period])
    assert len(zeros) == 2
    for z, im in zip(zeros, want):
        assert z.real == 0.5
        assert z.imag == pytest.approx(im, abs=1e-12)


def test_phi_f_zeros_real_part_exact():
    for q in range(2, 8):
        for z in phi_f_zeros(q, (-20.0, 20.0)):
            assert z.real == 0.5
            v = closed_transform(Scaled(Ingham(), FSpec("exp_plus_one", q=q)), z).value
            assert abs(v) < 1e-9


def test_phi_f_zeros_validation():
    with pytest.raises(ValueError):
        phi_f_zeros(1, (0.0, 10.0))
    with pytest.raises(ValueError):
        phi_f_zeros(2, (5.0, 5.0))


def test_phi_f_zeros_refuses_more_than_the_cap():
    # q = 2 puts two zeros in each period 2*pi/ln 2, one per branch
    period = 2.0 * math.pi / math.log(2.0)
    assert len(phi_f_zeros(2, (0.0, 50_000 * period - 1.0))) == 100_000
    with pytest.raises(ValueError, match="holds 100002 zeros at q = 2, above the cap of 100000"):
        phi_f_zeros(2, (0.0, 50_001 * period - 1.0))
    with pytest.raises(ValueError, match="above the cap"):
        phi_f_zeros(2, (-1e308, 1e308))
