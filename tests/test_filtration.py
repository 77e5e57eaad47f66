import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from ffsubspace.chow import chow_height, chow_of_hypersurface
from ffsubspace.effective_constants import b_const
from ffsubspace.errors import (
    BaseLocusPoint,
    DegreeMismatch,
    DivisorInIdeal,
    InvariantViolated,
    PointOnDivisor,
)
from ffsubspace.filtration import (
    build_filtration,
    exponent_sum,
    filtration_inequality_check,
    height_sandwich_check,
    order_by_vanishing,
    phi_map,
)
from ffsubspace.function_field import (
    INFINITY,
    Place,
    ProjectivePoint,
    RationalFunction,
    gauss_order_point,
    height_point,
    order_at,
    support,
)
from ffsubspace.graded_ideal import (
    IdealGenerators,
    QuotientBasis,
    graded_piece,
    hilbert_function,
    quotient_monomial_basis,
)
from ffsubspace.multipoly import HomogeneousPoly, monomial_basis, parse_poly
from helpers import rand_homog
from oracles import filtration_reference, hilbert_partial_sum

T = RationalFunction.t()
P1 = IdealGenerators.of(2, ())
CONIC = IdealGenerators.parse(3, ["X0*X2 - X1^2"])
TWISTED_CUBIC = IdealGenerators.parse(4, ["X0*X2 - X1^2", "X1*X3 - X2^2", "X0*X3 - X1*X2"])


def test_order_by_vanishing_examples():
    qs = [parse_poly(s, 3) for s in ["X0", "X1", "X2"]]
    x = ProjectivePoint([1, T, T**2])
    perm = order_by_vanishing(Place.parse("t"), qs, x)
    assert perm.order == (2, 1, 0) and perm.orders == (2, 1, 0)
    perm_inf = order_by_vanishing(INFINITY, qs, x)
    assert perm_inf.order == (0, 1, 2) and perm_inf.orders == (0, -1, -2)
    # ties keep original index order
    same = order_by_vanishing(Place.parse("t"), qs, ProjectivePoint([1, 1, 1]))
    assert same.order == (0, 1, 2)
    with pytest.raises(PointOnDivisor) as err:
        order_by_vanishing(Place.parse("t"), qs, ProjectivePoint([0, 1, 1]))
    assert err.value.index == 0


def test_build_filtration_p1():
    basis = build_filtration(P1, 4, parse_poly("X0", 2))
    assert [i for i, _ in basis.entries] == [4, 3, 2, 1, 0]
    assert [g for _, g in basis.entries] == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]
    assert basis.level_dims == (5, 4, 3, 2, 1)


def test_build_filtration_conic():
    basis = build_filtration(CONIC, 2, parse_poly("X0", 3))
    assert len(basis) == 5
    assert basis.level_dims == (5, 3, 1)


def test_build_filtration_single_level():
    basis = build_filtration(CONIC, 2, parse_poly("X1^2", 3))
    assert basis.level_dims[-1] == 1  # W_1 is spanned by Q itself


def test_build_filtration_errors():
    with pytest.raises(DegreeMismatch):
        build_filtration(P1, 3, parse_poly("X0^2", 2))
    with pytest.raises(DivisorInIdeal):
        build_filtration(CONIC, 2, parse_poly("X0*X2 - X1^2", 3))


def test_build_filtration_checks_the_hilbert_value_at_m(monkeypatch):
    # levels stop at H(m - i d), so an H(m) one too low would stop level 0
    # short of the quotient without this check
    real = hilbert_function
    monkeypatch.setattr(
        "ffsubspace.filtration.hilbert_function",
        lambda gens, k: real(gens, k) - (k == 4),
    )
    with pytest.raises(InvariantViolated, match=r"H\(4\) = 8 != 9"):
        build_filtration(CONIC, 4, parse_poly("X0", 3))


@st.composite
def _divisor_forms(draw, nv, max_terms):
    """A form of degree 1 or 2 on up to max_terms monomials, with
    coefficients in {0, +-1, t, t + 1}."""
    d = draw(st.integers(1, 2))
    monos = draw(st.lists(st.sampled_from(monomial_basis(nv, d)), min_size=1,
                          max_size=max_terms, unique=True))
    coeffs = st.sampled_from([0, 1, -1, T, T + 1])
    return HomogeneousPoly(nv, d, {mono: draw(coeffs) for mono in monos})


# The twisted cubic's Q take at most two terms: at m = 6 a three-term Q with
# t in its coefficients takes over a second per build.
@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("gens, max_terms", [(CONIC, 3), (TWISTED_CUBIC, 2)],
                         ids=["conic", "twisted_cubic"])
def test_filtration_matches_the_rref_seeded_reference(gens, max_terms, m):
    @settings(max_examples=10, deadline=None)
    @given(q=_divisor_forms(gens.num_vars, max_terms))
    def check(q):
        assume(q and not graded_piece(gens, q.degree).contains(q))
        basis = build_filtration(gens, m, q)
        assert (basis.entries, basis.level_dims) == filtration_reference(gens, m, q)

    check()


def test_level_dims_match_hilbert():
    q3 = parse_poly("X0", 3)
    q2 = parse_poly("X0", 2)
    for m in range(1, 7):
        b1 = build_filtration(P1, m, q2)
        assert b1.level_dims == tuple(
            hilbert_function(P1, m - i) for i in range(m + 1)
        )
        bc = build_filtration(CONIC, m, q3)
        assert bc.level_dims == tuple(
            hilbert_function(CONIC, m - i) for i in range(m + 1)
        )


def test_exponent_sum_examples():
    rep = exponent_sum(build_filtration(P1, 4, parse_poly("X0", 2)))
    assert (rep.total, rep.stated_sum, rep.difference) == (10, 9, 1)
    rep2 = exponent_sum(build_filtration(CONIC, 2, parse_poly("X0", 3)))
    assert (rep2.total, rep2.stated_sum) == (4, 3)
    rep3 = exponent_sum(build_filtration(CONIC, 2, parse_poly("X1^2", 3)))
    assert rep3.total == 1


def test_sums_off_the_levels_match_the_hilbert_function():
    # exponent_sum and the key inequality read the level sum and S(m/d - 1)
    # off level_dims; the hilbert_function sums they replaced are the
    # reference, on random divisors Q = A + t B, at the place where Q(x)
    # vanishes most beyond d e_p(x)
    rng = random.Random(32)
    excesses = []
    for _ in range(6):
        d = rng.choice([1, 2])
        m = d * rng.randint(1, 6 // d)
        q = rand_homog(rng, 3, d) + rand_homog(rng, 3, d).scale(T)
        basis = build_filtration(CONIC, m, q)
        level_sum = sum(hilbert_function(CONIC, m - i * d) for i in range(1, m // d + 1))
        stated = hilbert_partial_sum(CONIC, m // d - 1, d)
        rep = exponent_sum(basis)
        assert (rep.total, rep.level_sum, rep.stated_sum) == (level_sum, level_sum, stated)
        s = RationalFunction([rng.randint(-4, 4), rng.randint(1, 4)])
        x = ProjectivePoint([1, s, s * s])
        value = q.evaluate(x)
        excess, place = max(
            ((order_at(value, p) - d * gauss_order_point(p, x), p) for p in support([value])),
            key=lambda pair: pair[0],
        )
        assert filtration_inequality_check(place, x, basis).rhs == stated * excess
        excesses.append(excess)
    assert min(excesses) > 0


def test_inequality_examples():
    basis = build_filtration(P1, 4, parse_poly("X0", 2))
    x = ProjectivePoint([T, 1])
    chk = filtration_inequality_check(Place.parse("t"), x, basis)
    assert (chk.lhs, chk.rhs, chk.ok) == (10, 9, True)
    chk2 = filtration_inequality_check(Place.parse("t-1"), x, basis)
    assert (chk2.lhs, chk2.rhs, chk2.ok) == (0, 0, True)
    cb = build_filtration(CONIC, 2, parse_poly("X0", 3))
    chk3 = filtration_inequality_check(Place.parse("t"), ProjectivePoint([1, T, T**2]), cb)
    assert chk3.ok and chk3.lhs >= chk3.rhs
    with pytest.raises(PointOnDivisor):
        filtration_inequality_check(Place.parse("t"), ProjectivePoint([0, T]), basis)


def test_inequality_random_points():
    rng = random.Random(23)
    basis = build_filtration(CONIC, 4, parse_poly("X0 + X2", 3))
    places = [Place.parse("t"), Place.parse("t-1"), INFINITY]
    trials = 0
    while trials < 12:
        s = RationalFunction(
            [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1]
        )
        x = ProjectivePoint([1, s, s * s])
        if basis.divisor.evaluate(x).is_zero():
            continue
        for p in places:
            chk = filtration_inequality_check(p, x, basis)
            assert chk.ok
        trials += 1


def test_inequality_vanishing_monomial_goes_infinite():
    basis = build_filtration(P1, 2, parse_poly("X0", 2))
    x = ProjectivePoint([1, 0])  # X1 monomials vanish here
    chk = filtration_inequality_check(Place.parse("t"), x, basis)
    assert chk.lhs == math.inf and chk.ok and not chk.finite


def test_phi_map_examples():
    qb = quotient_monomial_basis(P1, 2)
    x = ProjectivePoint([T, 1])
    assert phi_map(qb, x) == ProjectivePoint([T**2, T, 1])
    conic_qb = quotient_monomial_basis(CONIC, 1)
    y = ProjectivePoint([1, T, T**2])
    assert phi_map(conic_qb, y) == y  # degree-1 basis is the identity embedding
    with pytest.raises(BaseLocusPoint):
        phi_map(QuotientBasis(2, ((1, 1, 0),)), ProjectivePoint([1, 0, 1]))


def test_height_sandwich_veronese_equality():
    qb = quotient_monomial_basis(P1, 3)
    for s in [T, T + 2, (T * T + 1) / (T - 1)]:
        x = ProjectivePoint([s, 1])
        rep = height_sandwich_check(qb, x, b=1, h_fx=Fraction(0))
        assert rep.ok
        assert rep.height_value == 3 * height_point(x)


def test_height_sandwich_conic():
    h_fx = chow_height(chow_of_hypersurface(parse_poly("X0*X2 - X1^2", 3)))
    b = b_const(4, 1, 2, 2)
    qb = quotient_monomial_basis(CONIC, 2)
    for s in [T, T - 1, T**3 + T]:
        x = ProjectivePoint([1, s, s * s])
        rep = height_sandwich_check(qb, x, b, h_fx)
        assert rep.ok
        assert rep.height_value <= rep.height_upper
        assert all(row.ok for row in rep.per_place)


INVARIANT_UNDER_O = """
import ffsubspace.filtration as filtration
from ffsubspace.errors import InvariantViolated
from ffsubspace.graded_ideal import IdealGenerators
from ffsubspace.multipoly import parse_poly

assert not __debug__, "asserts are live"
filtration.hilbert_function = lambda gens, k: -1
try:
    filtration.build_filtration(IdealGenerators.of(2, ()), 4, parse_poly("X0", 2))
except InvariantViolated as exc:
    print("InvariantViolated:", exc)
"""


def test_dimension_check_survives_optimize_flag():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", INVARIANT_UNDER_O],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "InvariantViolated: dim W_4 = 1 != H(0)\n"
