import random
from fractions import Fraction

import pytest
import sympy

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


def test_gcd_matches_sympy():
    # seeded polynomials of degree 8-12 over Q with a planted common factor
    rng = random.Random(41)
    t = sympy.Symbol("t")

    def rand(degree):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)]
        return upoly.qp(coeffs + [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))])

    def to_sympy(p):
        return sympy.Poly(list(reversed(p)), t, domain="QQ")

    for _ in range(12):
        common = rand(rng.randint(1, 4))
        a = upoly.mul(common, rand(rng.randint(8, 12) - upoly.degree(common)))
        b = upoly.mul(common, rand(rng.randint(8, 12) - upoly.degree(common)))
        expected = to_sympy(a).gcd(to_sympy(b)).monic()
        g = upoly.gcd(a, b)
        assert to_sympy(g) == expected
        assert upoly.leading(g) == 1 and upoly.degree(g) >= upoly.degree(common)
        assert upoly.gcd(b, a) == g
    assert upoly.gcd(a, upoly.ZERO) == upoly.monic(a)
    assert upoly.gcd(upoly.ZERO, upoly.ZERO) == upoly.ZERO


def schoolbook_mul(a, b):
    """Reference product: the plain Fraction convolution."""
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return upoly.qp(out)


def test_mul_matches_schoolbook():
    # seeded operands with denominators, zero inner coefficients, length-1
    # operands and the zero polynomial
    rng = random.Random(5)

    def rand():
        length = rng.choice([0, 1, 1, 2, 3, 5, 8])
        coeffs = [
            Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 12]))
            if rng.random() < 0.7 else Fraction(0)
            for _ in range(length)
        ]
        if coeffs:
            coeffs[-1] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        return upoly.qp(coeffs)

    seen = set()
    for _ in range(300):
        a, b = rand(), rand()
        product = upoly.mul(a, b)
        assert product == schoolbook_mul(a, b)
        assert all(type(c) is Fraction for c in product)
        seen.add((min(len(a), 2), min(len(b), 2)))
    assert seen == {(i, j) for i in range(3) for j in range(3)}
    a = upoly.qp([Fraction(1, 2), 0, 0, 3])
    b = upoly.qp([0, 0, Fraction(2, 3)])
    assert upoly.mul(a, b) == upoly.qp([0, 0, Fraction(1, 3), 0, 0, 2])


def test_integer_kernels():
    rng = random.Random(6)
    for _ in range(100):
        a = upoly.qp(rng.randint(-5, 5) for _ in range(rng.randint(0, 4)))
        b = upoly.qp(rng.randint(-5, 5) for _ in range(rng.randint(0, 4)))
        ia, ib = tuple(map(int, a)), tuple(map(int, b))
        assert upoly.int_mul(ia, ib) == tuple(map(int, schoolbook_mul(a, b)))
        assert upoly.int_sub(ia, ib) == tuple(map(int, upoly.add(a, upoly.neg(b))))
        assert upoly.int_sub(ia, ia) == ()
