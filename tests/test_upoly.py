import random
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from ffsubspace import upoly
from ffsubspace.errors import ParseError
from ffsubspace.function_field import RationalFunction
from ffsubspace.parsing import MAX_EXPONENT, parse_rational

_t = sympy.Symbol("t")


def to_sympy(p):
    return sympy.Poly(list(reversed(p)) or [0], _t, domain="ZZ")


def rand_zpoly(rng, degree, bound=9):
    """Integer polynomial of exactly this degree."""
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    return upoly.strip(coeffs + [rng.choice([-1, 1]) * rng.randint(1, bound)])


def test_normalization():
    assert upoly.strip([1, 2, 0, 0]) == (1, 2)
    assert upoly.strip([0, 0]) == ()
    assert upoly.degree(()) == -1
    assert upoly.degree(upoly.T) == 1
    assert upoly.primitive((4, -6)) == (-2, 3)
    assert upoly.primitive((-4, -6)) == (2, 3)


def test_divmod_gcd():
    a = (-1, 0, 1)  # t^2 - 1
    b = (1, 1)      # t + 1
    q, r = upoly.divmod_(a, b)
    assert q == (-1, 1) and r == ()
    assert upoly.quo(a, b) == (-1, 1)
    assert upoly.gcd(a, b) == ((1, 1), (-1, 1), upoly.ONE)
    assert upoly.gcd(a, (2,)) == (upoly.ONE, a, (2,))
    with pytest.raises(ZeroDivisionError):
        upoly.divmod_(a, ())
    with pytest.raises(ZeroDivisionError):
        upoly.quo(a, ())


def _multiplicity_by_quo(a, p):
    """Reference: divide by p until it no longer divides."""
    k = 0
    while (q := upoly.quo(a, p)) is not None:
        a, k = q, k + 1
    return k


def test_multiplicity():
    p = upoly.mul((-1, 1), upoly.mul((-1, 1), (1, 1)))
    assert upoly.multiplicity(p, (-1, 1)) == 2
    assert upoly.multiplicity(p, (1, 1)) == 1
    assert upoly.multiplicity(p, (2, 1)) == 0
    # p(X) divides a(X) at X = 2^20 although p does not divide a
    for a in [(1048577,), (0, 1048577), upoly.add(upoly.mul((1, 1), (5, 7)), (1048577,))]:
        assert upoly.multiplicity(a, (1, 1)) == _multiplicity_by_quo(a, (1, 1)) == 0
    assert upoly.multiplicity(upoly.mul((-1048576, 1), (1048577,)), (-1048576, 1)) == 1


# t - 2^20 vanishes at the point where multiplicity tests divisibility first.
_MULTIPLICITY_PLACES = [(-1048576, 1), (1, 2), (1, 0, 3), (0, 1), (-1, 1), (2, 0, 1)]
_big_coeffs = st.integers(-(2**70), 2**70)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from(_MULTIPLICITY_PLACES),
    k=st.integers(0, 4),
    r=st.lists(_big_coeffs, min_size=1, max_size=6).filter(any),
)
def test_multiplicity_matches_repeated_quo(p, k, r):
    a = upoly.mul(upoly.pow_(p, k), upoly.strip(r))
    m = upoly.multiplicity(a, p)
    assert m == _multiplicity_by_quo(a, p)
    assert m >= k
    # values at 2^20 passed in, as weil_rows passes them, change nothing
    assert upoly.multiplicity(a, p, upoly.probe(a), upoly.probe(p)) == m


def test_factor_monic_reconstructs():
    rng = random.Random(41)
    for _ in range(40):
        coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(1, 6))]
        coeffs.append(rng.randint(1, 5))
        p = upoly.strip(coeffs)
        unit, factors = upoly.factor_monic(p)
        rebuilt = (unit,)
        for g, m in factors:
            assert g[-1] > 0 and upoly.primitive(g) == g
            assert upoly.is_irreducible(g)
            rebuilt = upoly.mul(rebuilt, upoly.pow_(g, m))
        assert rebuilt == p


def test_factor_monic_fractional_content():
    # the monic t + 3/2 is the primitive 2t + 3 over Z
    p = (3, 2)
    unit, factors = upoly.factor_monic(p)
    assert unit == 1 and factors == ((p, 1),)
    assert upoly.factor_monic((6, 4)) == (2, ((p, 1),))


def test_is_irreducible():
    assert upoly.is_irreducible((2, 0, 1))       # t^2 + 2
    assert not upoly.is_irreducible((-1, 0, 1))  # t^2 - 1
    assert not upoly.is_irreducible((5,))        # constants


def _low_degree_cases():
    """Seeded quadratics and cubics over Z, reducible and irreducible."""
    mul = upoly.mul
    fixed = [
        mul((3, 2), (-5, 1)),                        # (2t + 3)(t - 5)
        mul((-2, 3), (1, 0, 1)),                     # (3t - 2)(t^2 + 1)
        mul((3, 2), (-7, 5)),                        # non-monic, two rational roots
        (-4, 4, -1), (1, 6, 9), mul((-1, 1), (-1, 1)),  # repeated roots
        upoly.pow_((-1, 2), 3), mul(mul((-1, 1), (-1, 1)), (4, 1)),
        (0, 1, 1), (0, 3, 0, 2), (0, 0, 5), (0, 0, 0, 7),  # zero constant term
        (1, -3, 0, 1), (1, -4, 0, 1), (-1, -9, 0, 10),   # irreducible, three real roots
        (2, 0, 1), (-2, 0, 0, 1), (1, 1, 1, 1), (10**30 + 1, 0, 0, 10**30),
        upoly.scale((1, -3, 0, 1), 6), upoly.scale(mul((3, 2), (-5, 1)), -10),  # not primitive
    ]
    rng = random.Random(7)
    random_cases = []
    for i in range(600):
        degree = 2 + i % 2
        bound = (9, 10**6, 10**30)[i % 3]
        if i % 4 < 2:  # a linear factor times a random one: reducible
            p = upoly.mul(rand_zpoly(rng, 1, bound), rand_zpoly(rng, degree - 1, bound))
        else:
            p = rand_zpoly(rng, degree, bound)
        random_cases.append(upoly.scale(p, rng.choice([1, 1, -1, 2, -6, 10**12])))
    return fixed + random_cases


def test_is_irreducible_matches_sympy_and_skips_it_for_quadratics(monkeypatch):
    cases = _low_degree_cases()
    expected = [to_sympy(p).is_irreducible for p in cases]
    assert sum(len(p) == 3 for p in cases) >= 300
    assert 100 < sum(expected) < len(cases) - 100

    reached = []
    real = upoly._to_sympy

    def recording(p):
        reached.append(upoly.degree(p))
        return real(p)

    monkeypatch.setattr(upoly, "_to_sympy", recording)
    upoly.is_irreducible.cache_clear()
    assert [upoly.is_irreducible(p) for p in cases] == expected
    assert set(reached) == {3}  # every cubic asks sympy, no quadratic does


def test_format_round_trip():
    rng = random.Random(42)
    for _ in range(30):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 5))]
        coeffs.append(Fraction(rng.randint(1, 9)))
        f = RationalFunction(coeffs)  # a polynomial over Q: constant denominator
        assert len(f.den) == 1
        assert parse_rational(upoly.format_poly(f.num, den=f.den[0])) == f


def _format_poly_with_fractions(p, var="t", den=1):
    """format_poly as it was written with one Fraction per coefficient."""
    if not p:
        return "0"
    parts = []
    for e in range(len(p) - 1, -1, -1):
        c = p[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        c = Fraction(abs(c), den)
        if e == 0:
            body = str(c)
        else:
            v = var if e == 1 else f"{var}^{e}"
            body = v if c == 1 else f"{c}*{v}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


@st.composite
def _polys_over_a_denominator(draw):
    """(p, den) where den and the coefficients share factors often."""
    shared = draw(st.sampled_from([1, 2, 3, 4, 6, 12, 2**64 + 2]))
    den = shared * draw(st.integers(1, 10))
    coeffs = draw(st.lists(
        st.integers(-40, 40).map(lambda c: c * shared) | st.integers(-(2**66), 2**66),
        max_size=6,
    ))
    return upoly.strip(coeffs), den


@settings(max_examples=300, deadline=None)
@given(p_den=_polys_over_a_denominator())
def test_format_poly_matches_the_fraction_rendering(p_den):
    p, den = p_den
    assert upoly.format_poly(p, den=den) == _format_poly_with_fractions(p, den=den)


def test_parser_edges():
    assert parse_rational(" ( t + 1 ) ^ 2 / ( t - 1 ) ").num == (1, 2, 1)
    assert parse_rational("-t^2").num == (0, 0, -1)
    assert parse_rational("2/4") == Fraction(1, 2)
    with pytest.raises(ParseError):
        parse_rational("t^-1")
    with pytest.raises(ParseError):
        parse_rational("1/(t - t)")
    with pytest.raises(ParseError):
        parse_rational("(t + 1")
    with pytest.raises(ParseError):
        parse_rational("")


def test_exponent_bound():
    assert upoly.degree(parse_rational(f"t^{MAX_EXPONENT}").num) == MAX_EXPONENT
    text = f"1 + (t - 1)^{MAX_EXPONENT + 1}"
    with pytest.raises(ParseError) as err:
        parse_rational(text)
    assert err.value.position == text.index("^") + 1


def test_power_product_count():
    # square-and-multiply from the first needed factor: x^4 = (x^2)^2 is two
    # products, x^1 none; n = 0 gives the identity
    calls = []

    def mul(a, b):
        calls.append(1)
        return upoly.mul(a, b)

    base = (1, 1)
    naive = upoly.ONE
    for n, expected_calls in enumerate([0, 0, 1, 2, 2, 3, 3]):
        calls.clear()
        assert upoly.power(base, n, upoly.ONE, mul) == naive
        assert len(calls) == expected_calls, n
        naive = upoly.mul(naive, base)
    with pytest.raises(ValueError):
        upoly.power(base, -1, upoly.ONE, mul)


def _sympy_gcd(a, b):
    g = to_sympy(a).gcd(to_sympy(b))
    return -g if g.LC() < 0 else g


def test_gcd_matches_sympy():
    # seeded polynomials of degree 8-12 over Z with a planted common factor
    # and integer content
    rng = random.Random(41)
    for _ in range(12):
        common = upoly.scale(rand_zpoly(rng, rng.randint(1, 4)), rng.randint(1, 6))
        a = upoly.mul(common, rand_zpoly(rng, rng.randint(8, 12) - upoly.degree(common)))
        b = upoly.mul(common, rand_zpoly(rng, rng.randint(8, 12) - upoly.degree(common)))
        g, qa, qb = upoly.gcd(a, b)
        assert (upoly.mul(g, qa), upoly.mul(g, qb)) == (a, b)
        assert to_sympy(g) == _sympy_gcd(a, b)
        assert g[-1] > 0 and upoly.degree(g) >= upoly.degree(common)
        assert upoly.quo(g, common) is not None
        assert upoly.gcd(b, a) == (g, qb, qa)
    assert upoly.gcd(a, upoly.ZERO)[0] == (a if a[-1] > 0 else upoly.neg(a))
    assert upoly.gcd(upoly.ZERO, upoly.ZERO) == (upoly.ZERO,) * 3


_small_polys = st.lists(st.integers(-6, 6), max_size=4).map(upoly.strip)
_zpolys = st.lists(st.integers(-40, 40), max_size=6).map(upoly.strip)


@settings(max_examples=200, deadline=None)
@given(
    common=_zpolys.filter(bool),
    content=st.integers(-12, 12).filter(bool),
    f=_zpolys,
    g=_zpolys,
)
# a zero operand beside a unit: the unit is its own cofactor
@example(common=(1,), content=1, f=(), g=(1,))
@example(common=(1,), content=1, f=(1,), g=())
@example(common=(1,), content=-1, f=(), g=(1,))
@example(common=(1,), content=-1, f=(1,), g=())
def test_gcd_cofactors(common, content, f, g):
    # a planted factor in Z[t] with an integer content of either sign;
    # constants, negative leading coefficients and zero operands included
    a = upoly.mul(upoly.scale(common, content), f)
    b = upoly.mul(upoly.scale(common, content), g)
    h, qa, qb = upoly.gcd(a, b)
    assert (upoly.mul(h, qa), upoly.mul(h, qb)) == (a, b)
    if a or b:
        assert h[-1] > 0 and to_sympy(h) == _sympy_gcd(a, b)
        assert upoly.quo(h, upoly.primitive(common)) is not None
    else:
        assert h == qa == qb == upoly.ZERO
    if h == upoly.ONE:
        assert qa is a and qb is b  # a trivial gcd builds nothing
    # the PRS alone gives the same triple
    tries, upoly._HEU_GCD_TRIES = upoly._HEU_GCD_TRIES, 0
    try:
        assert upoly.gcd(a, b) == (h, qa, qb)
    finally:
        upoly._HEU_GCD_TRIES = tries


@settings(max_examples=200, deadline=None)
@given(
    common=_small_polys.filter(bool),
    members=st.lists(_small_polys, min_size=1, max_size=5).filter(any),
)
def test_divide_content_leaves_content_one(common, members):
    # a family with a planted common factor (integer, in t, or both) and zeros
    p = [upoly.mul(common, f) for f in members]
    out = upoly.divide_content(p)
    i = next(i for i, q in enumerate(out) if q)
    g = upoly.quo(p[i], out[i])
    assert g and p == [upoly.mul(q, g) for q in out]
    assert reduce(lambda g, c: upoly.gcd(g, c)[0], out, upoly.ZERO) == upoly.ONE
    assert upoly.divide_content([(), ()]) == [(), ()]


def test_gcd_prs_fallback_matches_sympy(monkeypatch):
    # with no heuristic evaluation point the primitive PRS answers alone
    monkeypatch.setattr(upoly, "_HEU_GCD_TRIES", 0)
    rng = random.Random(42)
    for _ in range(30):
        common = rand_zpoly(rng, rng.randint(0, 3))
        a = upoly.mul(common, rand_zpoly(rng, rng.randint(1, 6)))
        b = upoly.scale(upoly.mul(common, rand_zpoly(rng, rng.randint(1, 6))), 4)
        assert to_sympy(upoly.gcd(a, b)[0]) == _sympy_gcd(a, b)


def test_gcd_and_multiplicity_match_sympy_over_zz():
    # seeded pairs sharing powers of a few places, one of them t + 3/2,
    # whose primitive form over Z is 2t + 3
    rng = random.Random(43)
    places = [(0, 1), (-1, 1), (1, 0, 1), (3, 2)]
    seen = set()
    for _ in range(60):
        a, b = rand_zpoly(rng, rng.randint(0, 4)), rand_zpoly(rng, rng.randint(0, 4))
        for p in places:
            ea, eb = rng.randint(0, 3), rng.randint(0, 3)
            a = upoly.mul(a, upoly.pow_(p, ea))
            b = upoly.mul(b, upoly.pow_(p, eb))
        a = upoly.scale(a, rng.choice([1, 2, 6, -3]))
        assert to_sympy(upoly.gcd(a, b)[0]) == _sympy_gcd(a, b)
        for p in places:
            k = upoly.multiplicity(a, p)
            qa = to_sympy(a).to_field()
            assert qa.rem(to_sympy(upoly.pow_(p, k)).to_field()).is_zero
            assert not qa.rem(to_sympy(upoly.pow_(p, k + 1)).to_field()).is_zero
            seen.add((p, min(k, 2)))
    assert {(3, 2)} <= {p for p, k in seen if k == 2}
    # t + 3/2 divides 2t^2 + 5t + 3 = (2t + 3)(t + 1) in Q[t] and in Z[t]
    assert upoly.multiplicity((3, 5, 2), (3, 2)) == 1
    assert upoly.multiplicity((9, 12, 4), (3, 2)) == 2


def test_pseudo_division_identity():
    # lc(b)^k * a = q*b + r with deg r < deg b and k = max(deg a - deg b + 1, 0)
    rng = random.Random(44)
    for _ in range(200):
        a = rand_zpoly(rng, rng.randint(0, 9)) if rng.random() < 0.95 else ()
        b = rand_zpoly(rng, rng.randint(0, 5))
        q, r = upoly.divmod_(a, b)
        k = max(len(a) - len(b) + 1, 0)
        assert upoly.scale(a, b[-1] ** k) == upoly.add(upoly.mul(q, b), r)
        assert upoly.degree(r) < upoly.degree(b)
        # exact division finds a multiple and refuses a remainder
        assert upoly.quo(upoly.mul(a, b), b) == a
        if upoly.degree(b) > 0 and a:
            assert upoly.quo(upoly.add(upoly.mul(a, b), (1,)), b) is None


def schoolbook_mul(a, b):
    """Reference product: the plain convolution."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return upoly.strip(out)


def test_mul_matches_schoolbook():
    # seeded operands with zero inner coefficients, length-1 operands and the
    # zero polynomial
    rng = random.Random(5)

    def rand():
        length = rng.choice([0, 1, 1, 2, 3, 5, 8])
        coeffs = [rng.randint(-99, 99) if rng.random() < 0.7 else 0 for _ in range(length)]
        if coeffs:
            coeffs[-1] = rng.choice([-1, 1]) * rng.randint(1, 99)
        return upoly.strip(coeffs)

    seen = set()
    for _ in range(300):
        a, b = rand(), rand()
        product = upoly.mul(a, b)
        assert product == schoolbook_mul(a, b)
        assert all(type(c) is int for c in product)
        seen.add((min(len(a), 2), min(len(b), 2)))
    assert seen == {(i, j) for i in range(3) for j in range(3)}
    assert upoly.mul((1, 0, 0, 3), (0, 0, 2)) == (0, 0, 2, 0, 0, 6)


def test_integer_kernels():
    rng = random.Random(6)
    for _ in range(100):
        a = upoly.strip(rng.randint(-5, 5) for _ in range(rng.randint(0, 4)))
        b = upoly.strip(rng.randint(-5, 5) for _ in range(rng.randint(0, 4)))
        assert upoly.mul(a, b) == schoolbook_mul(a, b)
        assert upoly.sub(a, b) == upoly.add(a, upoly.neg(b))
        assert upoly.sub(a, a) == ()


@settings(max_examples=100, deadline=None)
@given(
    factors=st.lists(_small_polys.filter(lambda p: len(p) > 1), min_size=1, max_size=4),
    picks=st.lists(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=3),
                   min_size=1, max_size=4),
    content=st.integers(1, 6),
)
def test_coprime_base_refines_products_of_shared_factors(factors, picks, content):
    # products of powers of a few shared factors, times an integer: the base
    # is pairwise coprime, and each input is an integer times a product of
    # powers of its elements, read off by multiplicity
    polys = [upoly.ONE] * len(picks)
    for i, pick in enumerate(picks):
        for k, e in pick:
            polys[i] = upoly.mul(polys[i], upoly.pow_(factors[k % len(factors)], e))
        polys[i] = upoly.scale(polys[i], content)
    base = upoly.coprime_base(polys)
    for i, b in enumerate(base):
        assert len(b) > 1 and b[-1] > 0 and upoly.primitive(b) == b
        assert all(len(upoly.gcd(b, c)[0]) == 1 for c in base[i + 1:])
    for p in polys:
        rest = p
        for b in base:
            rest = upoly.quo(rest, upoly.pow_(b, upoly.multiplicity(p, b)))
        assert len(rest) == 1
    assert upoly.coprime_base([(), (3,), (0, 2), (0, 0, 5)]) == [(0, 1)]
