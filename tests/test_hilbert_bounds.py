import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ffsubspace.errors import MissingTableEntry, PreconditionViolated
from ffsubspace.hilbert_bounds import (
    T_lower_bound,
    chardin_upper,
    hypersurface_hilbert,
    power_sum_bounds,
    ratio_check,
    scan_ratio_window,
    sombra_lower,
    sombra_sum,
    threshold_a_eps,
)
from oracles import T_value, power_sum


def test_chardin_examples():
    assert chardin_upper(3, 1, 2) == 8
    assert chardin_upper(1, 1, 1) == 2
    assert chardin_upper(5, 2, 3) == 63


def test_sombra_examples():
    assert sombra_lower(3, 1, 2) == 7
    assert sombra_lower(1, 1, 2) == 3
    # Pascal identity at delta = 1
    for n in range(1, 4):
        for m in range(1, 20):
            assert sombra_lower(m, n, 1) == chardin_upper(m, n, 1) // 1


def test_sandwich():
    for n in range(1, 4):
        for delta in range(1, 6):
            for m in range(1, 51):
                assert sombra_lower(m, n, delta) <= chardin_upper(m, n, delta)


def test_power_sum_examples():
    assert power_sum(2, 3) == 14
    assert power_sum_bounds(2, 3) == (Fraction(40, 3), Fraction(64, 3))
    assert power_sum(3, 2) == 9
    assert power_sum_bounds(3, 2)[1] == Fraction(81, 4)
    for l in range(1, 30):
        assert power_sum(1, l) == l * (l + 1) // 2


def test_g_t_examples():
    assert sombra_lower(3, 1, 2) == 7
    assert T_value(3, 1, 2, 1) == 3 + 5 + 7
    assert T_value(1, 2, 3, 2) == sombra_lower(2, 2, 3)
    assert T_value(0, 1, 1, 1) == 0


def test_t_lower_bound_examples():
    # (n=1, delta=2, d=1): 1*m^2 - 2*m - 128
    assert T_lower_bound(100, 1, 2, 1) == 10000 - 200 - 128
    assert T_value(99, 1, 2, 1) >= T_lower_bound(100, 1, 2, 1)
    # (n=1, delta=1, d=1): m^2/2 - (3/2) m - 8*4
    assert T_lower_bound(10, 1, 1, 1) == Fraction(100, 2) - Fraction(30, 2) - 32
    assert T_value(9, 1, 1, 1) >= T_lower_bound(10, 1, 1, 1)
    with pytest.raises(PreconditionViolated):
        T_lower_bound(5, 1, 1, 2)


def test_threshold_conic():
    a = threshold_a_eps(1, 2, 1, 1)
    assert a >= 3
    assert scan_ratio_window(1, 2, 1, 1, a, 100)


def test_threshold_scan_various():
    for n, delta, d, eps in [(1, 1, 2, 1), (2, 1, 1, 2), (2, 2, 2, Fraction(3, 2))]:
        a = threshold_a_eps(n, delta, d, eps)
        assert a % d == 0 and a >= 2 * d
        assert scan_ratio_window(n, delta, d, eps, a, 100)


def test_scan_matches_ratio_check_at_every_m():
    # the running-sum scan against ratio_check on a full H table, from
    # starts below and above the threshold, so both outcomes occur
    rng = random.Random(2025)
    outcomes = set()
    for _ in range(60):
        n, delta, d = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
        eps = Fraction(rng.randint(1, 20), rng.randint(1, 10))
        a_eps, window = rng.randint(2 * d, 60), rng.randint(0, 30)
        H = {k: hypersurface_hilbert(k, n + 1, delta) for k in range(1, a_eps + window + 1)}
        expected = all(
            ratio_check(H, m, d, n, eps).ok
            for m in range(a_eps, a_eps + window + 1)
            if m % d == 0
        )
        assert scan_ratio_window(n, delta, d, eps, a_eps, window) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


@given(
    n=st.integers(1, 6), delta=st.integers(1, 60), d=st.integers(1, 7), t=st.integers(0, 2000)
)
def test_sombra_sum_matches_the_direct_sum(n, delta, d, t):
    assert sombra_sum(t, n, delta, d) == T_value(t, n, delta, d)


def test_scan_takes_its_prefix_in_closed_form():
    # n = 3, delta = 2, d = 1, eps = 1: a_eps = 983149, just under the CLI's
    # scan limit; summing the prefix term by term took 0.5-0.6 s
    a_eps = threshold_a_eps(3, 2, 1, 1)
    assert a_eps == 983149
    start = time.perf_counter()
    assert scan_ratio_window(3, 2, 1, 1, a_eps, 100)
    assert time.perf_counter() - start < 0.25


def test_threshold_monotone_in_eps():
    for n, delta, d in [(1, 2, 1), (2, 3, 2), (3, 1, 1)]:
        assert threshold_a_eps(n, delta, d, 2) <= threshold_a_eps(
            n, delta, d, Fraction(1, 2)
        )


def test_ratio_check_examples():
    conic = {m: 2 * m + 1 for m in range(1, 20)}
    ok = ratio_check(conic, 3, 1, 1, 1)
    assert (ok.lhs, ok.rhs, ok.ok) == (Fraction(3), Fraction(3), True)
    # numerator carries the +1: 2*(5+1)/H(1) = 4 > 3
    bad = ratio_check(conic, 2, 1, 1, 1)
    assert bad.lhs == Fraction(4) and not bad.ok
    p1 = {m: m + 1 for m in range(1, 10)}
    r = ratio_check(p1, 4, 2, 1, 1)
    assert (r.lhs, r.rhs, r.ok) == (Fraction(8), Fraction(6), False)
    with pytest.raises(MissingTableEntry):
        ratio_check({4: 5}, 4, 2, 1, 1)
    with pytest.raises(PreconditionViolated):
        ratio_check(conic, 3, 2, 1, 1)


def test_e24_inequality_small_grid():
    for n in range(1, 3):
        for delta in range(1, 4):
            for d in range(1, 3):
                for m in range(d, 101, d):
                    assert d * T_value(m // d - 1, n, delta, d) >= T_lower_bound(
                        m, n, delta, d
                    )


def test_hypersurface_closed_form_matches_sombra():
    for delta in range(1, 4):
        for n in range(1, 4):
            for m in range(1, 15):
                assert hypersurface_hilbert(m, n + 1, delta) == sombra_lower(
                    m, n, delta
                )
