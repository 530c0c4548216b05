import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raflab.counting import (
    CostLimitError,
    CountSpec,
    count_formula,
    count_oracle,
    elias_scan,
    log2_floor_table,
    meissel_scan,
    parse_count_what,
    ramanujan_l0_compare,
    smooth_bridge_scan,
)
from raflab.sieve import sieve
from raflab.solver import l0_three_smooth


# ---------------------------------------------------------------- spec parsing


def test_parse_count_grammar():
    assert parse_count_what("coprime:2", 100) == CountSpec("coprime_tuples", 100, m=2)
    assert parse_count_what("pfree:3", 50) == CountSpec("p_free", 50, p=3)
    assert parse_count_what("ppow:5", 50) == CountSpec("prime_powers", 50, p=5)
    assert parse_count_what("smooth:2,3", 40) == CountSpec("smooth", 40, primes=(2, 3))
    assert parse_count_what("elias", 9).kind == "elias_gamma"
    for bad in ("", "coprime", "coprime:x", "ppow:4", "smooth:", "smooth:2,4", "foo:1"):
        with pytest.raises(ValueError):
            parse_count_what(bad, 100)


def test_spec_validation():
    with pytest.raises(ValueError):
        CountSpec("banana", 10)
    with pytest.raises(ValueError):
        CountSpec("coprime_tuples", 0)
    with pytest.raises(ValueError):
        CountSpec("coprime_tuples", 10, m=0)
    with pytest.raises(ValueError):
        CountSpec("p_free", 10, p=1)
    with pytest.raises(ValueError):
        CountSpec("prime_powers", 10, p=6)
    with pytest.raises(ValueError):
        CountSpec("smooth", 10, primes=())
    with pytest.raises(ValueError):
        CountSpec("smooth", 10, primes=(2, 2))
    with pytest.raises(ValueError):
        CountSpec("smooth", 10, primes=(2, 9))


def test_spec_labels():
    assert CountSpec("coprime_tuples", 5, m=3).label == "coprime:3"
    assert CountSpec("elias_gamma", 5).label == "elias"
    assert CountSpec("smooth", 5, primes=(2, 3)).label == "smooth:2,3"


_PRIMES = (2, 3, 5, 7, 11, 13, 97, 7919)
_N = st.integers(min_value=1, max_value=10**12)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.builds(lambda n, m: CountSpec("coprime_tuples", n, m=m), _N, st.integers(1, 64)),
    st.builds(lambda n, p: CountSpec("p_free", n, p=p), _N, st.integers(2, 64)),
    st.builds(lambda n, p: CountSpec("prime_powers", n, p=p), _N, st.sampled_from(_PRIMES)),
    st.builds(lambda n, ps: CountSpec("smooth", n, primes=tuple(ps)), _N,
              st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=4, unique=True)),
    st.builds(lambda n: CountSpec("elias_gamma", n), _N),
))
def test_label_parses_back_to_the_same_spec(spec):
    assert parse_count_what(spec.label, spec.n) == spec


def test_mu_limit_of_every_kind():
    # s * floor(n^(1/e)): s is the product of the primes for ppow and smooth
    assert CountSpec("coprime_tuples", 1000, m=3).mu_limit == 1000
    assert CountSpec("coprime_tuples", 7, m=1).mu_limit == 7
    assert CountSpec("prime_powers", 100, p=3).mu_limit == 300
    assert CountSpec("prime_powers", 1, p=7).mu_limit == 7
    assert CountSpec("smooth", 30, primes=(2, 3, 5)).mu_limit == 900
    assert CountSpec("smooth", 1000, primes=(7,)).mu_limit == 7000
    assert CountSpec("elias_gamma", 9).mu_limit == 9
    assert CountSpec("elias_gamma", 10**6).mu_limit == 10**6


# ---------------------------------------------------------------- identities


def test_meissel_collapses_to_one(table_small):
    # sum mu(k) floor(n/k) = 1 for every n
    assert meissel_scan(table_small, 1000)[1:].tolist() == [1] * 1000
    assert count_formula(CountSpec("coprime_tuples", 613, m=1), table_small) == 1


def test_elias_matches_bitlength(table_small):
    scan = elias_scan(table_small, 1000)
    for n in range(1, 1001):
        assert scan[n] == 1 + 2 * (n.bit_length() - 1)
    # stepwise closed form: jumps of 2 exactly at powers of two
    jumps = np.diff(scan[1:])
    assert set(jumps.tolist()) <= {0, 2}


def test_formula_equals_oracle_everywhere(table_small):
    specs = []
    for n in (1, 2, 7, 64, 100, 163):
        specs += [
            CountSpec("coprime_tuples", n, m=1),
            CountSpec("coprime_tuples", n, m=2),
            CountSpec("coprime_tuples", n, m=3),
            CountSpec("p_free", n, p=2),
            CountSpec("p_free", n, p=3),
            CountSpec("prime_powers", n, p=2),
            CountSpec("prime_powers", n, p=3),
            CountSpec("smooth", n, primes=(2,)),
            CountSpec("smooth", n, primes=(2, 3)),
            CountSpec("elias_gamma", n),
        ]
    for spec in specs:
        assert count_formula(spec, table_small) == count_oracle(spec), spec.label


def test_squarefree_hand_count(table_small):
    # squarefree up to 30: all minus {4,8,9,12,16,18,20,24,25,27,28} -> 19
    assert count_formula(CountSpec("p_free", 30, p=2), table_small) == 19
    assert count_oracle(CountSpec("p_free", 30, p=2)) == 19


def test_prime_power_hand_count(table_small):
    # powers of 3 up to 100: 1, 3, 9, 27, 81
    spec = CountSpec("prime_powers", 100, p=3)
    assert count_formula(spec, table_small) == 5
    assert count_oracle(spec) == 5


def test_smooth_hand_count(table_small):
    # 5-smooth up to 30: 1,2,3,4,5,6,8,9,10,12,15,16,18,20,24,25,27,30
    spec = CountSpec("smooth", 30, primes=(2, 3, 5))
    assert count_formula(spec, table_small) == 18
    assert count_oracle(spec) == 18


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=2000),
    st.sampled_from(["coprime:2", "coprime:3", "pfree:2", "ppow:2", "smooth:2,3", "elias"]),
)
def test_formula_equals_oracle_sampled(table_100k, n, what):
    spec = parse_count_what(what, n)
    assert count_formula(spec, table_100k) == count_oracle(spec)


def test_bigint_fallback(table_small):
    # m * bitlength(n) > 62 forces the Python-int path on both sides
    spec = CountSpec("coprime_tuples", 50, m=40)
    f = count_formula(spec, table_small)
    assert f == count_oracle(spec)
    assert f > 2**200  # genuinely out of int64 territory


def test_oracle_budgets():
    with pytest.raises(CostLimitError):
        count_oracle(CountSpec("coprime_tuples", 5000, m=4))
    with pytest.raises(CostLimitError):
        count_oracle(CountSpec("p_free", 20_000, p=2))
    with pytest.raises(CostLimitError):
        count_oracle(CountSpec("smooth", 20_000, primes=(2,)))
    # log-based kinds have no cap
    assert count_oracle(CountSpec("elias_gamma", 10**9)) == 1 + 2 * 29


def test_formula_range_errors(table_small):
    with pytest.raises(ValueError):
        count_formula(CountSpec("coprime_tuples", 2000, m=2), table_small)
    with pytest.raises(ValueError):
        count_formula(CountSpec("prime_powers", 600, p=2), table_small)  # needs mu to 1200
    with pytest.raises(ValueError):
        count_formula(CountSpec("smooth", 300, primes=(2, 3)), table_small)  # 6*300 > 1000
    with pytest.raises(ValueError):
        count_formula(CountSpec("p_free", 1002 * 1002, p=2), table_small)  # needs mu to 1002


def test_p_free_reads_mu_only_to_the_pth_root():
    spec = CountSpec("p_free", 20_000_000, p=2)
    assert spec.mu_limit == 4472
    # counted independently by striking the multiples of p^2, p <= 4472
    assert count_formula(spec, sieve(4472)) == 12_158_575
    assert CountSpec("p_free", 300_000_000, p=3).mu_limit == 669
    assert CountSpec("p_free", 7, p=3).mu_limit == 1


# ---------------------------------------------------------------- scans


def test_smooth_bridge_equals_l0(table_100k):
    n = 10_000
    bridge = smooth_bridge_scan(table_100k, n)
    l0 = l0_three_smooth(n)
    np.testing.assert_array_equal(bridge[1:], l0[1:])


def test_scans_equal_count_formula_at_every_n(table_100k):
    for scan, what in ((meissel_scan, "coprime:1"), (elias_scan, "elias"),
                       (smooth_bridge_scan, "smooth:2,3")):
        values = scan(table_100k, 2000)
        assert values[1:].tolist() == [
            count_formula(parse_count_what(what, n), table_100k) for n in range(1, 2001)], what


def test_scan_range_errors(table_small):
    with pytest.raises(ValueError):
        meissel_scan(table_small, 2000)
    with pytest.raises(ValueError):
        smooth_bridge_scan(table_small, 200)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=100_000))
def test_log2_floor_matches_bitlength(n):
    table = log2_floor_table(100_000)
    assert table[n] == n.bit_length() - 1


# ---------------------------------------------------------------- 3-smooth growth


def test_ramanujan_compare():
    r = ramanujan_l0_compare(100_000)
    assert r.checkpoints[0] == 1000
    assert r.checkpoints[-1] == 100_000
    assert r.max_abs_dev < 0.02
    # the asymptotic does not drift away: the end is no worse than the start
    assert r.dev_last <= r.dev_first + 0.01
    with pytest.raises(ValueError):
        ramanujan_l0_compare(500)
