import random
from fractions import Fraction

import pytest

from ffsubspace.effective_constants import (
    ConstantInputs,
    EffectiveConstants,
    assemble_constants,
    b_const,
    choose_m,
    excess_vanishing_const,
    excess_vanishing_power,
)
from ffsubspace.errors import PreconditionViolated, ZeroPolynomial
from ffsubspace.function_field import (
    INFINITY,
    Place,
    RationalFunction,
    weil,
)
from ffsubspace.hilbert_bounds import threshold_a_eps
from ffsubspace.multipoly import parse_poly
from helpers import rand_point
from oracles import lcm_reduction

T = RationalFunction.t()

CONIC_INPUTS = dict(
    n=1, delta=2, M=2, N=2, q=4, d_i=(1, 1, 1, 1), epsilon=Fraction(1),
    s_card=2, s_degree=2, h_fx=Fraction(0), h_q_family=Fraction(0),
    h_q_i=(Fraction(0),) * 4, e_s_term=Fraction(0), c1=Fraction(0),
    c1_prime=Fraction(0), m=12,
)
CONIC_H = {k: 2 * k + 1 for k in range(1, 13)}


def test_b_const():
    assert b_const(4, 1, 2, 2) == 10_240_000_000_256
    assert b_const(3, 1, 1, 1) == 144 + 10**2
    with pytest.raises(PreconditionViolated):
        b_const(3, 1, 2, 2)  # needs m >= (n+1)*delta = 4
    values = [b_const(m, 1, 2, 2) for m in range(4, 12)]
    assert values == sorted(values) and len(set(values)) == len(values)


def test_excess_vanishing_const():
    assert excess_vanishing_const(1, 2, 2, 2, 1, 0, 0) == 0
    assert excess_vanishing_power(1, 2, 2, 2, 1) == 4_738_381_338_321_616_896
    one = excess_vanishing_const(1, 2, 2, 2, 1, Fraction(1, 2), Fraction(1, 2))
    two = excess_vanishing_const(1, 2, 2, 2, 1, 1, 1)
    assert two == 2 * one


def test_choose_m():
    assert choose_m(3, 1, n=1, delta=1) == 4
    assert choose_m(7, 3, n=1, delta=1) == 9
    assert choose_m(5, 5, n=1, delta=1) == 10
    assert choose_m(1, 1, n=1, delta=2) == 4  # lifted to the compatibility floor
    assert choose_m(1, 3, n=2, delta=3) == 9


def test_assemble_zero_heights():
    out = assemble_constants(ConstantInputs(**CONIC_INPUTS), CONIC_H.get)
    assert (out.b1, out.b2, out.b3) == (0, 0, 0)
    assert out.c_eps == 0 and out.c_prime_eps == 0
    assert out.S_sum == sum(2 * i + 1 for i in range(1, 12))


def test_assemble_c1_prime_passthrough():
    inputs = ConstantInputs(**{**CONIC_INPUTS, "c1_prime": Fraction(7)})
    out = assemble_constants(inputs, CONIC_H.get)
    assert out.c_prime_eps == Fraction(2 * 7, out.S_sum)
    ten = ConstantInputs(**{**CONIC_INPUTS, "c1_prime": Fraction(70)})
    assert assemble_constants(ten, CONIC_H.get).c_prime_eps == 10 * out.c_prime_eps


def test_assemble_monotone_in_heights():
    grid = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)]
    last_c = last_cp = None
    for h in grid:
        inputs = ConstantInputs(
            **{**CONIC_INPUTS, "h_fx": h, "h_q_family": h, "h_q_i": (h,) * 4}
        )
        out = assemble_constants(inputs, CONIC_H.get)
        if last_c is not None:
            assert out.c_eps >= last_c and out.c_prime_eps >= last_cp
        last_c, last_cp = out.c_eps, out.c_prime_eps


def test_assemble_monotone_in_c1():
    last = None
    for c1 in (Fraction(0), Fraction(1), Fraction(5)):
        inputs = ConstantInputs(**{**CONIC_INPUTS, "c1": c1, "h_fx": Fraction(1)})
        out = assemble_constants(inputs, CONIC_H.get)
        if last is not None:
            assert out.c_eps > last
        last = out.c_eps


def test_assemble_fallbacks():
    inputs = ConstantInputs(**CONIC_INPUTS)
    loose = assemble_constants(inputs, {}.get)
    # Sombra equals the conic's H exactly, Chardin is an overestimate
    assert loose.S_sum == sum(2 * i + 1 for i in range(1, 12))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_assemble_asks_each_degree_once(d):
    # S(m/d - 1) needs H at i*d for 1 <= i < m/d, and b1 needs H(m); m = 12
    inputs = ConstantInputs(**{**CONIC_INPUTS, "d_i": (d,) * 4})
    asked = []

    def hilbert(k):
        asked.append(k)
        return CONIC_H.get(k)

    assemble_constants(inputs, hilbert)
    assert asked == list(range(d, 13, d))


def test_assemble_determinism():
    inputs = ConstantInputs(**{**CONIC_INPUTS, "h_fx": Fraction(2, 3)})
    a = assemble_constants(inputs, CONIC_H.get)
    b = assemble_constants(inputs, CONIC_H.get)
    assert a == b and isinstance(a, EffectiveConstants)


def test_assemble_derives_a_eps_and_m():
    inputs = ConstantInputs(**{**CONIC_INPUTS, "d_i": (1, 2, 1, 2), "m": None})
    assert inputs.d == 2
    out = assemble_constants(inputs, {}.get)
    assert out.a_eps == threshold_a_eps(1, 2, 2, Fraction(1, 2))  # at epsilon/N
    assert out.m == choose_m(out.a_eps, 2, 1, 2) == 644
    given = assemble_constants(ConstantInputs(**{**CONIC_INPUTS, "d_i": (1, 2, 1, 2)}), {}.get)
    assert (given.a_eps, given.m) == (out.a_eps, 12)


def test_inputs_validation():
    with pytest.raises(PreconditionViolated):
        ConstantInputs(**{**CONIC_INPUTS, "N": 0})
    with pytest.raises(PreconditionViolated):
        ConstantInputs(**{**CONIC_INPUTS, "m": 3})  # below the (n+1)delta floor


def test_lcm_reduction_examples():
    red = lcm_reduction([parse_poly("X0", 2), parse_poly("X1^2", 2)])
    assert red.d == 2
    assert [str(q) for q in red.normalized] == ["X0^2", "X1^2"]
    red2 = lcm_reduction([parse_poly("t*X0", 2)])
    assert [str(q) for q in red2.normalized] == ["X0"] and red2.scalars[0] == T
    red3 = lcm_reduction([parse_poly("X0 + X1", 2)])
    assert red3.normalized[0] == parse_poly("X0 + X1", 2)
    with pytest.raises(ZeroPolynomial):
        lcm_reduction([])


def test_lcm_reduction_weil_identity():
    rng = random.Random(31)
    qs = [parse_poly("t*X0^2 + X1^2", 2), parse_poly("X0 - X1", 2).scale(T + 1)]
    red = lcm_reduction(qs)
    places = [Place.parse("t"), Place.parse("t-1"), Place.parse("t^2+1"), INFINITY]
    for original, scaled in zip(qs, red.normalized):
        checked = 0
        while checked < 20:
            x = rand_point(rng, 2)
            if original.evaluate(x).is_zero():
                continue
            p = places[checked % len(places)]
            assert weil(p, scaled, x) == Fraction(red.d, original.degree) * weil(
                p, original, x
            )
            checked += 1
