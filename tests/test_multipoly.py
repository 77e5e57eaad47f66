import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

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
    zero_test_values,
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
        assert reduce(lambda g, c: upoly.gcd(g, c)[0], terms.values(), upoly.ZERO) == upoly.ONE
        assert h == height_poly_family([q])
        mono = next(iter(q.terms))
        beta = RationalFunction(terms[mono]) / q.terms[mono]
        i = next(i for i, c in enumerate(x.coordinates) if c)
        alpha = RationalFunction(x.primitive()[0][i]) / x.coordinates[i]
        (value,) = primitive_values([q], x)
        assert RationalFunction(value) == beta * alpha**d * q.evaluate(x)
    with pytest.raises(ZeroPolynomial):
        HomogeneousPoly.zero(3, 1).primitive()


_zpoly = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(upoly.strip)


@st.composite
def _point_and_forms(draw):
    """A point with Z[t] coordinates in P^2 or P^3 and forms of degree <= 3
    with Z[t] coefficients: random ones, mostly off the point, and sums of
    multiples of linear forms through it, on it."""
    nv = draw(st.sampled_from([3, 4]))
    coords = draw(st.lists(_zpoly, min_size=nv, max_size=nv).filter(any))
    x = ProjectivePoint([RationalFunction(c) for c in coords])
    a = next(i for i, c in enumerate(coords) if c)

    def unit(i):
        return HomogeneousPoly.monomial(nv, [int(i == j) for j in range(nv)])

    def random_form(degree):
        monos = draw(st.lists(st.sampled_from(monomial_basis(nv, degree)),
                              min_size=1, max_size=4, unique=True))
        return HomogeneousPoly(nv, degree, {m: RationalFunction(draw(_zpoly)) for m in monos})

    forms = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 3))
        form = random_form(degree)
        if draw(st.booleans()):  # on x: sum of A_b * (x_b X_a - x_a X_b)
            form = HomogeneousPoly.zero(nv, degree)
            for b in draw(st.lists(st.sampled_from([b for b in range(nv) if b != a]),
                                   min_size=1, max_size=2, unique=True)):
                through = unit(a).scale(RationalFunction(coords[b])) - unit(b).scale(
                    RationalFunction(coords[a]))
                form = form + random_form(degree - 1) * through if degree > 1 else (
                    form + through.scale(RationalFunction(draw(_zpoly))))
        if not form.is_zero():
            forms.append(form)
    return x, forms


@settings(max_examples=200, deadline=None)
@given(case=_point_and_forms())
def test_zero_test_agrees_with_the_values_in_z_t(case):
    x, forms = case
    values = zero_test_values([q.primitive()[0] for q in forms], x.primitive()[0])
    assert [not v for v in values] == [not v for v in primitive_values(forms, x)]
    assert [not v for v in values] == [q.evaluate(x).is_zero() for q in forms]


def test_zero_test_is_not_fooled_by_small_roots():
    # p = 5 * t(t - 1)...(t - 9) vanishes at t = 1, 2, 4 and 8, so a test at
    # t0 = 2^L <= 8 would call [1 : p] a zero of X1; t0 must pass the bound
    p = reduce(upoly.mul, [(-k, 1) for k in range(10)], (5,))

    def p_at(t0):
        return sum(c * t0**j for j, c in enumerate(p))

    assert [p_at(2**L) for L in range(4)] == [0, 0, 0, 0]
    x = ProjectivePoint([RationalFunction(1), RationalFunction(p)])
    x1 = parse_poly("X1", 2)
    on_x = parse_poly("X0", 2).scale(RationalFunction(p)) - x1
    forms = [x1, x1 * x1, on_x, x1 * on_x]
    values = zero_test_values([q.primitive()[0] for q in forms], x.primitive()[0])
    assert [bool(v) for v in values] == [True, True, False, False]
    # the value of X1 is p at a power of two past Cauchy's bound 1 + ||p||_1
    (t0,) = [2**L for L in range(200) if p_at(2**L) == values[0]]
    assert t0 > 1 + sum(map(abs, p)) == 1 + 5 * 3628800


def test_zero_test_reads_the_coefficients_into_its_bound():
    # Q = (t - 2^19) X0 + X1 at [1 : -2^19] is t - 2^20, a root at the
    # bound 2^20 + 1 of Q(x): the coordinates alone (2^19) and one bit less
    # than the bound's both give t0 = 2^20
    q = parse_poly("(t - 524288)*X0 + X1", 2)
    x = ProjectivePoint([RationalFunction(1), RationalFunction(-(2**19))])
    (value,) = zero_test_values([q.primitive()[0]], x.primitive()[0])
    assert value == 2**21 - 2**20


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
