import random
from fractions import Fraction

import pytest

from ffsubspace import upoly
from ffsubspace.errors import ParseError
from ffsubspace.parsing import parse_rational


def test_normalization():
    assert upoly.qp([1, 2, 0, 0]) == (Fraction(1), Fraction(2))
    assert upoly.qp([0, 0]) == ()
    assert upoly.degree(()) == -1
    assert upoly.degree(upoly.T) == 1


def test_divmod_gcd():
    a = upoly.qp([-1, 0, 1])  # t^2 - 1
    b = upoly.qp([1, 1])      # t + 1
    q, r = upoly.divmod_(a, b)
    assert q == upoly.qp([-1, 1]) and r == ()
    assert upoly.gcd(a, b) == upoly.qp([1, 1])
    assert upoly.gcd(a, upoly.qp([2])) == upoly.ONE
    with pytest.raises(ZeroDivisionError):
        upoly.divmod_(a, ())


def test_multiplicity():
    p = upoly.mul(upoly.qp([-1, 1]), upoly.mul(upoly.qp([-1, 1]), upoly.qp([1, 1])))
    assert upoly.multiplicity(p, upoly.qp([-1, 1])) == 2
    assert upoly.multiplicity(p, upoly.qp([1, 1])) == 1
    assert upoly.multiplicity(p, upoly.qp([2, 1])) == 0


def test_factor_monic_reconstructs():
    rng = random.Random(41)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        coeffs.append(Fraction(rng.randint(1, 5)))
        p = upoly.qp(coeffs)
        unit, factors = upoly.factor_monic(p)
        rebuilt = upoly.const(unit)
        for g, m in factors:
            assert upoly.leading(g) == 1
            assert upoly.is_irreducible(g)
            rebuilt = upoly.mul(rebuilt, upoly.pow_(g, m))
        assert rebuilt == p


def test_factor_monic_fractional_content():
    # monic input whose factors are not integer-primitive
    p = upoly.qp([Fraction(3, 2), 1])  # t + 3/2
    unit, factors = upoly.factor_monic(p)
    assert unit == 1 and factors == ((p, 1),)


def test_is_irreducible():
    assert upoly.is_irreducible(upoly.qp([2, 0, 1]))       # t^2 + 2
    assert not upoly.is_irreducible(upoly.qp([-1, 0, 1]))  # t^2 - 1
    assert not upoly.is_irreducible(upoly.qp([5]))         # constants


def test_format_round_trip():
    rng = random.Random(42)
    for _ in range(30):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 5))]
        coeffs.append(Fraction(rng.randint(1, 9)))
        p = upoly.qp(coeffs)
        f = parse_rational(upoly.format_poly(p))
        assert f.num == p and f.den == upoly.ONE


def test_parser_edges():
    assert parse_rational(" ( t + 1 ) ^ 2 / ( t - 1 ) ").num == upoly.qp([1, 2, 1])
    assert parse_rational("-t^2").num == upoly.qp([0, 0, -1])
    assert parse_rational("2/4") == Fraction(1, 2)
    with pytest.raises(ParseError):
        parse_rational("t^-1")
    with pytest.raises(ParseError):
        parse_rational("1/(t - t)")
    with pytest.raises(ParseError):
        parse_rational("(t + 1")
    with pytest.raises(ParseError):
        parse_rational("")


def test_power_product_count():
    # square-and-multiply from the first needed factor: x^4 = (x^2)^2 is two
    # products, x^1 none; n = 0 gives the identity
    calls = []

    def mul(a, b):
        calls.append(1)
        return upoly.mul(a, b)

    base = upoly.qp([1, 1])
    naive = upoly.ONE
    for n, expected_calls in enumerate([0, 0, 1, 2, 2, 3, 3]):
        calls.clear()
        assert upoly.power(base, n, upoly.ONE, mul) == naive
        assert len(calls) == expected_calls, n
        naive = upoly.mul(naive, base)
    with pytest.raises(ValueError):
        upoly.power(base, -1, upoly.ONE, mul)
