import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from ffsubspace.errors import (
    ParseError,
    PointOnDivisor,
    ZeroElement,
    ZeroPolynomial,
)
from ffsubspace import multipoly, upoly
from ffsubspace.function_field import (
    INFINITY,
    Place,
    ProjectivePoint,
    RationalFunction,
    divisor,
    gauss_order_point,
    gauss_order_poly,
    height_elem,
    height_point,
    height_poly_family,
    order_at,
    support,
    weil,
    weil_table,
)
from ffsubspace.harness import load_scenario, load_scenario_dict, run_check
from ffsubspace.multipoly import HomogeneousPoly, monomial_basis, parse_poly
from helpers import rand_homog, rand_k, rand_point, rand_qpoly
from test_harness import SCENARIO_PATH
from test_twisted_cubic import ideal_scenario_dict

T = RationalFunction.t()


def test_canonical_form():
    f = RationalFunction([0, 2, 2], [0, 0, 4])  # (2t^2+2t)/(4t^2) = (t+1)/(2t)
    assert f == RationalFunction([Fraction(1, 2), Fraction(1, 2)], [0, 1])
    assert str(f) == "(1/2*t + 1/2)/(t)"
    assert RationalFunction.parse(str(f)) == f
    assert (T - T).is_zero()
    assert hash(T / T) == hash(RationalFunction(1))


def test_order_at_examples():
    assert order_at((T - 1) ** 2 / (T + 2), Place.parse("t-1")) == 2
    assert order_at(T**3 + 1, INFINITY) == -3
    assert order_at(RationalFunction(5), Place.parse("t")) == 0


def test_order_zero_element():
    with pytest.raises(ZeroElement):
        order_at(RationalFunction(0), INFINITY)
    with pytest.raises(ZeroElement):
        divisor(RationalFunction(0))


def test_divisor_examples():
    d = divisor((T * T - 1) / T)
    expected = {
        Place.parse("t-1"): 1,
        Place.parse("t+1"): 1,
        Place.parse("t"): -1,
        INFINITY: -1,
    }
    assert d == expected
    assert divisor(RationalFunction(7)) == {}
    assert divisor(T) == {Place.parse("t"): 1, INFINITY: -1}


def test_sum_formula_random():
    rng = random.Random(11)
    for _ in range(200):
        f = rand_k(rng, max_degree=5)
        assert sum(o * p.degree for p, o in divisor(f).items()) == 0


def test_order_additive_random():
    rng = random.Random(12)
    places = [Place.parse("t"), Place.parse("t-1"), Place.parse("t^2+1"), INFINITY]
    for _ in range(60):
        f, g = rand_k(rng), rand_k(rng)
        for p in places:
            assert order_at(f * g, p) == order_at(f, p) + order_at(g, p)


def test_gauss_order_point_examples():
    assert gauss_order_point(Place.parse("t"), ProjectivePoint([T, 1])) == 0
    assert gauss_order_point(INFINITY, ProjectivePoint([T**2, T, 1])) == -2
    assert (
        gauss_order_point(
            Place.parse("t-1"), ProjectivePoint([(T - 1) ** 2, (T - 1) ** 3])
        )
        == 2
    )


def test_gauss_order_poly_examples():
    p_t = Place.parse("t")
    assert gauss_order_poly(p_t, [parse_poly("X0 - X1", 2)]) == 0
    assert gauss_order_poly(INFINITY, [parse_poly("t*X0^2 + X1^2", 2)]) == -1
    assert gauss_order_poly(p_t, [parse_poly("t*X0", 2), parse_poly("t^2*X1", 2)]) == 1
    with pytest.raises(ZeroPolynomial):
        gauss_order_poly(p_t, [parse_poly("0", 2)])


def test_height_point_examples():
    assert height_point(ProjectivePoint([T, 1])) == 1
    assert height_point(ProjectivePoint([T**2, T, 1])) == 2
    assert height_point(ProjectivePoint([1, 1, 1])) == 0


def test_height_elem_examples():
    assert height_elem(T**2 / (T - 1)) == 2
    assert height_elem(RationalFunction(3)) == 0
    assert height_elem(T) == 1


def test_height_poly_family_examples():
    assert height_poly_family([parse_poly("X0 + X1", 2)]) == 0
    # single-coefficient forms have height 0: h(t*X0) = h(X0) by the sum formula
    assert height_poly_family([parse_poly("t*X0", 2)]) == 0
    assert height_poly_family([parse_poly("t*X0 + X1", 2)]) == 1
    # the family minimum at infinity is ord(t) = -1, so the family height is 1
    assert height_poly_family([parse_poly("X0", 2), parse_poly("t*X1", 2)]) == 1
    assert height_poly_family([parse_poly("X0", 2), parse_poly("X0 + X1", 2)]) == 0


def test_weil_examples():
    q = parse_poly("X0 - X1", 2)
    x = ProjectivePoint([T, 1])
    assert weil(Place.parse("t-1"), q, x) == 1
    assert weil(Place.parse("t"), q, x) == 0
    assert weil(INFINITY, parse_poly("X0", 2), ProjectivePoint([1, T])) == 1
    with pytest.raises(PointOnDivisor):
        weil(Place.parse("t"), parse_poly("X0", 2), ProjectivePoint([0, 1]))


def test_height_and_weil_gauge_invariance():
    rng = random.Random(13)
    places = [Place.parse("t"), Place.parse("t+2"), INFINITY]
    q = parse_poly("X0^2 + t*X1^2 - X1*X2", 3)
    for _ in range(40):
        x = rand_point(rng, 3)
        alpha, beta = rand_k(rng), rand_k(rng)
        assert height_point(x.scaled(alpha)) == height_point(x)
        if q.evaluate(x).is_zero():
            continue
        for p in places:
            lam = weil(p, q, x)
            assert lam >= 0
            assert weil(p, q.scale(beta), x.scaled(alpha)) == lam


def test_gauss_order_family_identities():
    rng = random.Random(14)
    places = [Place.parse("t"), Place.parse("t-1"), INFINITY]
    for _ in range(25):
        qs = [parse_poly("X0", 2).scale(rand_k(rng)) + parse_poly("X1", 2).scale(rand_k(rng))
              for _ in range(3)]
        qs = [q for q in qs if not q.is_zero()]
        if len(qs) < 2:
            continue
        product = qs[0]
        for q in qs[1:]:
            product = product * q
        total = qs[0] + qs[1] if qs[0].degree == qs[1].degree else None
        for p in places:
            assert gauss_order_poly(p, [product]) == sum(
                gauss_order_poly(p, [q]) for q in qs
            )
            if total is not None and not total.is_zero():
                assert gauss_order_poly(p, [total]) >= min(
                    gauss_order_poly(p, [q]) for q in qs[:2]
                )


def test_height_elem_factors_nothing(monkeypatch):
    from ffsubspace import function_field

    def refuse(*args):
        raise AssertionError("height_elem factored")

    monkeypatch.setattr(function_field, "divisor", refuse)
    monkeypatch.setattr(upoly, "factor_monic", refuse)
    assert height_elem(T**2 / (T - 1)) == 2


def test_height_elem_matches_degree_oracle():
    # independent oracle: for coprime p, q the height of p/q is max(deg p, deg q)
    rng = random.Random(16)
    from ffsubspace import function_field, upoly

    for _ in range(60):
        p = rand_k(rng, 4).num or upoly.ONE
        q = rand_k(rng, 4).num or upoly.ONE
        g = upoly.gcd(p, q)[0]
        if upoly.degree(g) > 0:
            p = upoly.quo(p, g)
            q = upoly.quo(q, g)
        f = RationalFunction(p, q)
        assert height_elem(f) == max(upoly.degree(p), upoly.degree(q))


def test_height_point_matches_degree_oracle():
    rng = random.Random(17)
    from ffsubspace import function_field, upoly

    for _ in range(60):
        a = rand_k(rng, 4).num or upoly.ONE
        b = rand_k(rng, 4).num or upoly.ONE
        g = upoly.gcd(a, b)[0]
        if upoly.degree(g) > 0:
            a = upoly.quo(a, g)
            b = upoly.quo(b, g)
        x = ProjectivePoint([RationalFunction(a), RationalFunction(b)])
        h = height_point(x)
        assert h == max(upoly.degree(a), upoly.degree(b))
        assert h >= 0


def test_family_height_nonnegative_with_unit_coefficient():
    rng = random.Random(15)
    for _ in range(25):
        q = parse_poly("X0^2", 3) + parse_poly("X1*X2", 3).scale(rand_k(rng))
        assert height_poly_family([q]) >= 0  # some coefficient is exactly 1


def test_place_validation_and_set():
    with pytest.raises(ParseError, match="^finite place must be monic: 2[*]t$"):
        Place.finite([0, 2])  # 2t is not monic
    with pytest.raises(ParseError, match=r"^finite place must be irreducible: t\^2 - 1$"):
        Place.finite([-1, 0, 1])  # t^2 - 1 reducible
    with pytest.raises(ParseError, match="^not a valid finite place: 3$"):
        Place.parse("3")
    assert Place.parse("t^2+2").degree == 2
    assert Place.parse("inf") == INFINITY


def test_place_with_rational_coefficients():
    # t + 3/2 is kept as the primitive 2t + 3; its text and order are monic
    p = Place.parse("t + 3/2")
    assert p.poly == (3, 2) and str(p) == "t + 3/2"
    assert p == Place.finite([Fraction(3, 2), 1]) == Place.parse("(2*t + 3)/2")
    places = [Place.parse(s) for s in ["t + 2", "t^2 + 1/3", "t + 3/2", "t - 5", "inf"]]
    ordered = sorted(places, key=Place.sort_key)
    assert [str(q) for q in ordered] == ["t - 5", "t + 3/2", "t + 2", "t^2 + 1/3", "inf"]
    f = (2 * T + 3) ** 2 * (T - 1) / (4 * T + 6) ** 3
    assert order_at(f, p) == -1 and order_at(f, Place.parse("t - 1")) == 1
    assert divisor(f) == {Place.parse("t - 1"): 1, p: -1}


def test_projective_point_needs_nonzero():
    with pytest.raises(ZeroElement):
        ProjectivePoint([0, 0])


# --- heights and Weil values from primitive coordinates, against the
# factoring formulas at the raw coordinates

KERNEL_PLACES = [Place.parse("t"), Place.parse("t-1"), Place.parse("t^2+1"), INFINITY]


def _raw_point(rng, num_vars):
    """Coordinates with denominators, a shared factor and sometimes zeros."""
    shared = RationalFunction(rand_qpoly(rng, 2)) * (T - 1) ** rng.randint(0, 2)
    shared = shared / RationalFunction(rand_qpoly(rng, 2)) / T ** rng.randint(0, 1)
    coords = [rand_k(rng, 3) * shared for _ in range(num_vars)]
    for i in rng.sample(range(num_vars), rng.randint(0, num_vars - 1)):
        coords[i] = RationalFunction(0)
    return ProjectivePoint(coords)


def _height_oracle(coeffs):
    return -sum(
        min(order_at(c, p) for c in coeffs if c) * p.degree for p in support(coeffs)
    )


def _weil_oracle(p, q, x):
    value = q.evaluate(x)
    return (
        order_at(value, p) - q.degree * gauss_order_point(p, x) - gauss_order_poly(p, [q])
    ) * p.degree


def test_primitive_coordinates():
    rng = random.Random(18)
    for _ in range(40):
        x = _raw_point(rng, 3)
        coords, h = x.primitive()
        g = upoly.ZERO
        for c in coords:
            g = upoly.gcd(g, c)[0]
        assert g == upoly.ONE
        prim = [RationalFunction(c) for c in coords]
        for a, b in zip(x.coordinates, prim):
            assert a * prim[0] == b * x.coordinates[0]
        assert h == max(upoly.degree(c) for c in coords)
        assert x.primitive() is x.primitive()


def test_height_point_matches_factoring_formula():
    rng = random.Random(19)
    for _ in range(40):
        x = _raw_point(rng, rng.randint(2, 4))
        assert height_point(x) == -sum(
            gauss_order_point(p, x) * p.degree for p in support(x.coordinates)
        )


def test_height_poly_family_matches_factoring_formula():
    rng = random.Random(20)
    for _ in range(25):
        qs = [rand_homog(rng, 3, rng.randint(1, 2), 4) for _ in range(rng.randint(1, 3))]
        coeffs = [c for q in qs for c in q.coefficients()]
        assert height_poly_family(qs) == _height_oracle(coeffs)


def test_weil_matches_raw_coordinate_formula():
    rng = random.Random(21)
    for _ in range(30):
        x = _raw_point(rng, 3)
        qs = [rand_homog(rng, 3, rng.randint(1, 2), 4) for _ in range(3)]
        qs = [q for q in qs if not q.evaluate(x).is_zero()]
        rows = weil_table(KERNEL_PLACES, qs, x)
        assert [p for p, _ in rows] == KERNEL_PLACES
        for p, row in rows:
            assert row == tuple(weil(p, q, x) for q in qs)
            assert row == tuple(_weil_oracle(p, q, x) for q in qs)


def test_weil_table_names_the_vanishing_divisor():
    qs = [parse_poly("X0", 2), parse_poly("X1", 2)]
    with pytest.raises(PointOnDivisor) as err:
        weil_table(KERNEL_PLACES, qs, ProjectivePoint([T, 0]))
    assert err.value.index == 1


def _count_calls(monkeypatch, name, module=upoly):
    calls = []
    fn = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_run_check_does_not_factor(monkeypatch):
    scenarios = [load_scenario(SCENARIO_PATH), load_scenario_dict(ideal_scenario_dict())]
    calls = _count_calls(monkeypatch, "factor_monic")
    for scenario in scenarios:
        run_check(scenario)
        assert not calls
    divisor(T * T - 1)  # the counter does see the factoring formulas
    assert calls


def test_divisors_are_made_primitive_once(monkeypatch):
    # A form's primitive Z[t] coefficients depend on no point: the run builds
    # them once per divisor (and X generator), not once per point.
    calls = _count_calls(monkeypatch, "primitive_polys", multipoly)
    scenario = load_scenario(SCENARIO_PATH)
    report = run_check(scenario)
    assert sum(r.status == "evaluated" for r in report.points) > 1
    forms = scenario.divisors + scenario.variety.x_gens.generators
    built = sorted(tuple(map(str, coeffs)) for coeffs, in calls)
    assert built == sorted(tuple(map(str, q.terms.values())) for q in forms)
    for q in scenario.divisors:
        assert q.primitive() is q.primitive()
        assert q.primitive()[1] == height_poly_family([q])


def test_negation_skips_the_gcd(monkeypatch):
    rng = random.Random(22)
    fs = [rand_k(rng) for _ in range(20)] + [RationalFunction(0)]
    calls = _count_calls(monkeypatch, "gcd")
    negated = [-f for f in fs]
    assert not calls
    assert negated == [RationalFunction(upoly.neg(f.num), f.den) for f in fs]


def test_polynomials_skip_the_gcd(monkeypatch):
    calls = _count_calls(monkeypatch, "gcd")
    f = RationalFunction.parse("(t + 1)^3*(2*t - 5) - 7*t")
    g = RationalFunction.parse("3*t^4 - 2*t + 1")
    total, product = f + g, f * g
    assert not calls
    assert {f.den, g.den, total.den, product.den} == {upoly.ONE}
    assert total.num == upoly.add(f.num, g.num)
    assert product.num == upoly.mul(f.num, g.num)


# --- hypothesis properties: Weil functions and divisors

_zpoly = st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any)


@st.composite
def _nonzero_elements(draw):
    return RationalFunction(draw(_zpoly), draw(_zpoly))


@st.composite
def _points(draw):
    coords = draw(st.lists(_nonzero_elements() | st.just(RationalFunction(0)),
                           min_size=3, max_size=3))
    assume(any(coords))
    return ProjectivePoint(coords)


@st.composite
def _forms(draw):
    degree = draw(st.integers(1, 2))
    basis = monomial_basis(3, degree)
    monos = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=3, unique=True))
    return HomogeneousPoly(3, degree, {m: draw(_nonzero_elements()) for m in monos})


PROPERTY_PLACES = KERNEL_PLACES[:3] + [Place.parse("t^3 - 2"), INFINITY]


def _rows_off_divisors(qs, x):
    try:
        return weil_table(PROPERTY_PLACES, qs, x)
    except PointOnDivisor:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(qs=st.lists(_forms(), min_size=1, max_size=3), x=_points())
def test_weil_rows_are_nonnegative(qs, x):
    for _, row in _rows_off_divisors(qs, x):
        assert all(type(value) is int and value >= 0 for value in row)


@settings(max_examples=60, deadline=None)
@given(qs=st.lists(_forms(), min_size=1, max_size=3), x=_points(),
       alpha=_nonzero_elements(), betas=st.lists(_nonzero_elements(), min_size=3, max_size=3))
def test_weil_rows_are_gauge_invariant(qs, x, alpha, betas):
    rows = _rows_off_divisors(qs, x)
    assert weil_table(PROPERTY_PLACES, qs, x.scaled(alpha)) == rows
    scaled = [q.scale(beta) for q, beta in zip(qs, betas)]
    assert weil_table(PROPERTY_PLACES, scaled, x) == rows
    assert weil_table(PROPERTY_PLACES, scaled, x.scaled(alpha)) == rows


@st.composite
def _form_through(draw, x):
    """A nonzero linear form, times a random element, that vanishes at x."""
    a = next(i for i, c in enumerate(x.coordinates) if c)
    b = draw(st.sampled_from([i for i in range(x.num_vars) if i != a]))
    scale = draw(_nonzero_elements())
    xa, xb = x.coordinates[a], x.coordinates[b]
    mono = lambda i: tuple(int(i == j) for j in range(x.num_vars))
    return HomogeneousPoly(x.num_vars, 1, {mono(a): xb * scale, mono(b): -xa * scale})


@settings(max_examples=80, deadline=None)
@given(qs=st.lists(_forms(), min_size=1, max_size=3), x=_points(), data=st.data())
def test_weil_table_matches_the_definition(qs, x, data):
    # Some draws get a divisor through x, at any position in the family.
    if data.draw(st.booleans()):
        qs.insert(data.draw(st.integers(0, len(qs))), data.draw(_form_through(x)))
    vanishing = [i for i, q in enumerate(qs) if q.evaluate(x).is_zero()]
    if vanishing:
        with pytest.raises(PointOnDivisor) as err:
            weil_table(KERNEL_PLACES, qs, x)
        assert err.value.index == vanishing[0]
        return
    rows = weil_table(KERNEL_PLACES, qs, x)
    assert [p for p, _ in rows] == KERNEL_PLACES
    for p, row in rows:
        assert row == tuple(_weil_oracle(p, q, x) for q in qs)


@settings(max_examples=80, deadline=None)
@given(f=_nonzero_elements(), g=_nonzero_elements())
def test_divisor_satisfies_the_sum_formula(f, g):
    for h in (f, f * g, f / g):
        div = divisor(h)
        assert sum(o * p.degree for p, o in div.items()) == 0
        assert all(order_at(h, p) == o for p, o in div.items())


@settings(max_examples=60, deadline=None)
@given(f=_nonzero_elements())
def test_height_elem_is_the_positive_part_of_the_divisor(f):
    # the factoring oracle: h(f) = sum_p max(0, ord_p f) deg p
    assert height_elem(f) == sum(o * p.degree for p, o in divisor(f).items() if o > 0)


INVARIANTS_UNDER_O = """
from fractions import Fraction

import ffsubspace.chow as chow
import ffsubspace.function_field as ff
import ffsubspace.hilbert_bounds as hb
import ffsubspace.upoly as upoly
from ffsubspace.errors import InvariantViolated
from ffsubspace.multipoly import parse_poly

assert not __debug__, "asserts are live"
conic = chow.chow_of_hypersurface(parse_poly("X0*X2 - X1^2", 3))


class WrongFactors:
    def factor_list(self):
        return 1, []


def sympy_drops_factors(p):
    return WrongFactors()


def run(name, patch, call):
    patch()
    try:
        call()
        print(name, "passed")
    except InvariantViolated as exc:
        print(name, "InvariantViolated:", exc)


T = ff.RationalFunction.t()
run("factor_monic", lambda: setattr(upoly, "_to_sympy", sympy_drops_factors),
    lambda: upoly.factor_monic((1, 0, 1)))
run("divisor", lambda: setattr(upoly, "factor_monic", lambda p: (p[-1], ())),
    lambda: ff.divisor(T))
run("P_sigma degree", lambda: setattr(chow, "monomial_degree", lambda b: -1),
    lambda: chow.expand_skew(conic))
run("Cauchy bound", lambda: None, lambda: hb._cauchy_positive_bound({1: Fraction(-1)}))
"""


def test_invariant_checks_survive_optimize_flag():
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", INVARIANTS_UNDER_O],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == [
        "factor_monic InvariantViolated: factor normalization lost the unit",
        "divisor InvariantViolated: sum formula violated",
        "P_sigma degree InvariantViolated: s-monomial "
        "((0, 0, 2), (0, 2, 0)) is not of degree 2 in every block",
        "Cauchy bound InvariantViolated: Cauchy bound needs a positive leading coefficient",
    ]
