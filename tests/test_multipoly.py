import random
from functools import reduce

import pytest

from ffsubspace.errors import (
    DegreeMismatch,
    NotHomogeneous,
    ParseError,
    PreconditionViolated,
    VarCountMismatch,
    ZeroPolynomial,
)
from ffsubspace import upoly
from ffsubspace.function_field import ProjectivePoint, RationalFunction, height_poly_family
from ffsubspace.multipoly import (
    MAX_PIECE_MONOMIALS,
    HomogeneousPoly,
    monomial_basis,
    parse_poly,
    primitive_values,
)
from helpers import rand_homog, rand_k, rand_point

T = RationalFunction.t()


def test_arith_examples():
    x0, x1 = (HomogeneousPoly.variable(2, i) for i in range(2))
    assert (x0 * x0 + x1 * x1) == parse_poly("X0^2 + X1^2", 2)
    assert x0 * x1 == parse_poly("X0*X1", 2)
    assert (x0 + x1) ** 2 == parse_poly("X0^2 + 2*X0*X1 + X1^2", 2)


def test_arith_errors():
    with pytest.raises(DegreeMismatch):
        parse_poly("X0", 2) + parse_poly("X0^2", 2)
    with pytest.raises(VarCountMismatch):
        parse_poly("X0", 2) * parse_poly("X0", 3)
    with pytest.raises(VarCountMismatch):
        parse_poly("X0", 2).evaluate([1, 2, 3])


def test_evaluate_examples():
    conic = parse_poly("X0*X2 - X1^2", 3)
    assert conic.evaluate(ProjectivePoint([1, T, T**2])).is_zero()
    assert parse_poly("X0 - X1", 2).evaluate([T, 1]) == T - 1
    assert parse_poly("X0^2", 2).evaluate([T, 1]) == T**2


def test_monomial_basis():
    assert len(monomial_basis(3, 2)) == 6
    assert len(monomial_basis(2, 4)) == 5
    assert monomial_basis(4, 0) == ((0, 0, 0, 0),)
    basis = monomial_basis(3, 2)
    # glex descending with X0 largest
    assert basis[0] == (2, 0, 0) and basis[-1] == (0, 0, 2)
    assert list(basis) == sorted(basis, reverse=True)


def test_monomial_basis_limit():
    # the largest pieces in three and four variables within the limit
    assert len(monomial_basis(3, 108)) == 5995 <= MAX_PIECE_MONOMIALS
    assert len(monomial_basis(4, 31)) == 5984
    for num_vars, degree, count in [(3, 109, 6105), (4, 32, 6545), (3, 10**5, 5000150001)]:
        with pytest.raises(PreconditionViolated, match=f"has {count} monomials"):
            monomial_basis(num_vars, degree)


def test_parse_examples():
    conic = parse_poly("X0*X2 - X1^2", 3)
    assert conic.degree == 2 and len(conic.terms) == 2
    cubic = parse_poly("(t^2+1)*X0^3", 2)
    assert cubic.degree == 3
    assert cubic.leading_coefficient() == T * T + 1
    with pytest.raises(NotHomogeneous):
        parse_poly("X0 + X1^2", 2)
    with pytest.raises(ParseError) as err:
        parse_poly("X0 + ", 2)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_poly("X5", 2)


def test_parse_format_round_trip():
    rng = random.Random(6)
    forms = [rand_homog(rng, 3, rng.randint(1, 4)) for _ in range(30)]
    for a, b in zip(forms, forms[1:] + forms[:1]):
        assert parse_poly(str(a), 3) == a
        assert parse_poly(f"({a})*({b})", 3) == a * b
        assert parse_poly(f"({a})^3", 3) == a**3


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(15):
        d1, d2, d3 = (rng.randint(1, 2) for _ in range(3))
        a, b, c = (rand_homog(rng, 3, d) for d in (d1, d1, d2))
        x = rand_point(rng, 3)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c) if not (a * b).is_zero() else True
        assert (a * c).evaluate(x) == a.evaluate(x) * c.evaluate(x)


def test_evaluate_scales_homogeneously():
    rng = random.Random(8)
    for _ in range(10):
        d = rng.randint(1, 3)
        q = rand_homog(rng, 3, d)
        x = rand_point(rng, 3)
        lam = rand_k(rng)
        assert q.evaluate(x.scaled(lam)) == lam**d * q.evaluate(x)


def test_primitive_values_are_scaled_values():
    # Q(x) over K and the primitive form's Z[t] value at the primitive point
    # differ by beta * alpha^d, the two scalings; h(Q) is the family height.
    rng = random.Random(9)
    for _ in range(40):
        d = rng.randint(1, 3)
        q = rand_homog(rng, 3, d)
        x = rand_point(rng, 3)
        terms, h = q.primitive()
        assert q.primitive() is q.primitive()
        assert reduce(upoly.gcd, terms.values(), upoly.ZERO) == upoly.ONE
        assert h == height_poly_family([q])
        mono = next(iter(q.terms))
        beta = RationalFunction(terms[mono]) / q.terms[mono]
        i = next(i for i, c in enumerate(x.coordinates) if c)
        alpha = x.primitive().coordinates[i] / x.coordinates[i]
        (value,) = primitive_values([q], x)
        assert RationalFunction(value) == beta * alpha**d * q.evaluate(x)
    with pytest.raises(ZeroPolynomial):
        HomogeneousPoly.zero(3, 1).primitive()


def test_homogeneity_enforced():
    with pytest.raises(NotHomogeneous):
        HomogeneousPoly(2, 2, {(1, 0): 1})
    with pytest.raises(NotHomogeneous):
        HomogeneousPoly.from_terms(2, {(1, 0): 1, (2, 0): 1})


def test_scalar_and_zero_behavior():
    q = parse_poly("X0*X1", 2)
    assert q.scale(0).is_zero()
    assert (q - q).is_zero()
    assert q.scale(T).evaluate([1, 1]) == T
    assert (T * q) == q.scale(T)
