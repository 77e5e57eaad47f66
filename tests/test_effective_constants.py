import itertools
import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ffsubspace.effective_constants import (
    MAX_CONSTANT_BITS,
    ConstantInputs,
    EffectiveConstants,
    assemble_constants,
    b_const,
    choose_m,
    excess_vanishing_power,
)
from ffsubspace.errors import InvariantViolated, PreconditionViolated, ZeroPolynomial
from ffsubspace.function_field import (
    INFINITY,
    Place,
    RationalFunction,
    weil,
)
from ffsubspace.hilbert_bounds import hypersurface_hilbert, progression_sum, threshold_a_eps
from ffsubspace.multipoly import parse_poly
from helpers import rand_point
from oracles import lcm_reduction, s_sum_oracle

T = RationalFunction.t()

CONIC_INPUTS = dict(
    n=1, delta=2, M=2, N=2, q=4, d_i=(1, 1, 1, 1), epsilon=Fraction(1),
    s_card=2, s_degree=2, h_fx=Fraction(0), h_q_family=Fraction(0),
    h_q_i=(Fraction(0),) * 4, e_s_term=Fraction(0), c1=Fraction(0),
    c1_prime=Fraction(0), m=12,
)
CONIC_H = {k: 2 * k + 1 for k in range(1, 13)}


def _assemble_conic(inputs):
    """The ledger with the conic's table as the Hilbert source."""
    return assemble_constants(inputs, CONIC_H.get, sorted(CONIC_H))


def test_b_const():
    assert b_const(4, 1, 2, 2) == 10_240_000_000_256
    assert b_const(3, 1, 1, 1) == 144 + 10**2
    with pytest.raises(PreconditionViolated):
        b_const(3, 1, 2, 2)  # needs m >= (n+1)*delta = 4
    values = [b_const(m, 1, 2, 2) for m in range(4, 12)]
    assert values == sorted(values) and len(set(values)) == len(values)
    # refused from the exponent, before any power is raised: at M = 13 b has
    # 354,291 bits, at M = 14 up to 918,232, and past M = 19 2^M alone is
    # past the limit
    assert b_const(3, 1, 13, 1).bit_length() == 354_291 <= MAX_CONSTANT_BITS
    for M, message in [
        (14, "b of up to 918232 bits"),
        (10**9, "b of more than 2^1000000000 bits"),
    ]:
        with pytest.raises(PreconditionViolated, match=re.escape(message)):
            b_const(3, 1, M, 1)


def test_excess_vanishing_const():
    # the per-place constant: the power factor times (h(F_X) + h(Q_1..Q_q))
    power = excess_vanishing_power(1, 2, 2, 2, 1)
    assert power == 4_738_381_338_321_616_896
    # 36^180600: 6 bits per factor
    with pytest.raises(PreconditionViolated, match="^the excess vanishing power of up to 1083600 bits"):
        excess_vanishing_power(1, 300, 2, 2, 1)
    assert _assemble_conic(ConstantInputs(**CONIC_INPUTS)).excess_const == 0
    one, two = (
        _assemble_conic(ConstantInputs(**{**CONIC_INPUTS, "h_fx": h, "h_q_family": h})).excess_const
        for h in (Fraction(1, 2), Fraction(1))
    )
    assert one == power and two == 2 * one


def test_choose_m():
    assert choose_m(3, 1, n=1, delta=1) == 4
    assert choose_m(7, 3, n=1, delta=1) == 9
    assert choose_m(5, 5, n=1, delta=1) == 10
    assert choose_m(1, 1, n=1, delta=2) == 4  # lifted to the compatibility floor
    assert choose_m(1, 3, n=2, delta=3) == 9


def test_choose_m_is_the_least_multiple_past_both():
    # the closed form equals stepping m up by d to the floor
    for a_eps, d, n, delta in itertools.product(range(1, 25), range(1, 8), (1, 2, 3), range(1, 6)):
        m = d * (a_eps // d + 1)
        while m < max(3, (n + 1) * delta):
            m += d
        assert choose_m(a_eps, d, n, delta) == m


def test_assemble_zero_heights():
    out = _assemble_conic(ConstantInputs(**CONIC_INPUTS))
    assert (out.b1, out.b2, out.b3) == (0, 0, 0)
    assert out.c_eps == 0 and out.c_prime_eps == 0
    assert out.S_sum == sum(2 * i + 1 for i in range(1, 12))


def test_assemble_c1_prime_passthrough():
    inputs = ConstantInputs(**{**CONIC_INPUTS, "c1_prime": Fraction(7)})
    out = _assemble_conic(inputs)
    assert out.c_prime_eps == Fraction(2 * 7, out.S_sum)
    ten = ConstantInputs(**{**CONIC_INPUTS, "c1_prime": Fraction(70)})
    assert _assemble_conic(ten).c_prime_eps == 10 * out.c_prime_eps


def test_assemble_monotone_in_heights():
    grid = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)]
    last_c = last_cp = None
    for h in grid:
        inputs = ConstantInputs(
            **{**CONIC_INPUTS, "h_fx": h, "h_q_family": h, "h_q_i": (h,) * 4}
        )
        out = _assemble_conic(inputs)
        if last_c is not None:
            assert out.c_eps >= last_c and out.c_prime_eps >= last_cp
        last_c, last_cp = out.c_eps, out.c_prime_eps


def test_assemble_monotone_in_c1():
    last = None
    for c1 in (Fraction(0), Fraction(1), Fraction(5)):
        inputs = ConstantInputs(**{**CONIC_INPUTS, "c1": c1, "h_fx": Fraction(1)})
        out = _assemble_conic(inputs)
        if last is not None:
            assert out.c_eps > last
        last = out.c_eps


def test_assemble_fallbacks():
    inputs = ConstantInputs(**CONIC_INPUTS)
    loose = assemble_constants(inputs, {}.get, ())
    # Sombra equals the conic's H exactly, Chardin is an overestimate
    assert loose.S_sum == sum(2 * i + 1 for i in range(1, 12))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_assemble_asks_each_degree_once(d):
    # hilbert is asked at most once at each degree, in ascending order: at
    # the degrees of E among d, 2d, ..., m - d, then at m = 12
    inputs = ConstantInputs(**{**CONIC_INPUTS, "d_i": (d,) * 4})
    for exceptions, expected in [
        (sorted(CONIC_H), list(range(d, 13, d))),
        ((), [12]),
        ((0, 3, 6, 12, 13), [k for k in (3, 6) if k % d == 0] + [12]),
    ]:
        asked = []

        def hilbert(k):
            asked.append(k)
            return CONIC_H.get(k)

        assemble_constants(inputs, hilbert, exceptions)
        assert asked == expected


def test_assemble_asks_below_delta_only_at_e():
    # a degree-7 curve (n = 1), where G(k) has no second binomial below
    # k = delta: G is summed in closed form there too, so hilbert is asked
    # only at E's degrees in the progression, then at m
    inputs = ConstantInputs(**{**CONIC_INPUTS, "delta": 7, "d_i": (2,) * 4, "m": 14})
    asked = []

    def hilbert(k):
        asked.append(k)

    out = assemble_constants(inputs, hilbert, itertools.count(1))
    assert asked == [2, 4, 6, 8, 10, 12, 14]
    assert out.S_sum == s_sum_oracle(lambda k: None, 1, 7, 2, 14)
    asked.clear()
    assert assemble_constants(inputs, hilbert, ()) == out
    assert asked == [14]
    # a value at a degree of E replaces G there; off E it is never read
    table = {4: 20, 6: 30, 8: 40}
    out = assemble_constants(inputs, table.get, (3, 4, 8))
    assert out.S_sum == s_sum_oracle({4: 20, 8: 40}.get, 1, 7, 2, 14)


def test_progression_sum():
    # sum_{i=1}^t (i d)^2 = d^2 t(t+1)(2t+1)/6 at every t, small and large
    for d in (1, 2, 7):
        for t in (0, 1, 3, 4, 50, 10**6):
            expected = d * d * t * (t + 1) * (2 * t + 1) // 6
            assert progression_sum(lambda i: (i * d) ** 2, t, 2) == expected
    # a polynomial with values that are not integers has no integer sum
    with pytest.raises(InvariantViolated, match="is not an integer"):
        progression_sum(lambda i: Fraction(i, 2), 5, 1)


@st.composite
def _hilbert_sources(draw):
    """(inputs, hilbert, exceptions) as each caller of assemble_constants
    builds them: P^M and a hypersurface with no E, an ideal's exact prefix
    up to a cutoff, and a sparse H table, once with a key near 10^6."""
    kind = draw(st.sampled_from(["projective_space", "hypersurface", "ideal", "table"]))
    n = draw(st.integers(1, 4))
    M = n if kind == "projective_space" else n + 1
    delta = 1 if kind == "projective_space" else draw(st.integers(1, 3 * M))
    far = kind == "table" and draw(st.booleans())
    d = draw(st.integers(997, 2000) if far else st.integers(1, 6))
    low = -(-max(3, (n + 1) * delta, 2 * d) // d)  # the least m / d
    near = 10**6 // d if far else low
    steps = draw(st.integers(near - 3, near + 30))
    m = d * max(low, steps)
    inputs = ConstantInputs(**{
        **CONIC_INPUTS, "n": n, "delta": delta, "M": M, "N": n, "q": n + 1,
        "d_i": (d,) * (n + 1), "h_q_i": (Fraction(0),) * (n + 1), "m": m,
    })
    if kind == "projective_space":
        return inputs, lambda k: comb(k + M, M), ()
    if kind == "hypersurface":
        return inputs, lambda k: hypersurface_hilbert(k, M, delta), ()
    degrees = st.integers(0, m + d)
    values = draw(st.dictionaries(degrees, st.integers(1, 10**9), max_size=12))
    if far:
        values[draw(st.integers(10**6 - 2 * d, 10**6 + 2 * d))] = draw(st.integers(1, 10**9))
    if kind == "table":
        return inputs, values.get, sorted(values)
    cutoff = draw(degrees.filter(bool))
    return (
        inputs,
        lambda k: values.get(k, k + 1) if k <= cutoff else None,
        range(1, cutoff + 1),
    )


@settings(max_examples=200, deadline=None)
@given(source=_hilbert_sources())
def test_closed_form_sum_matches_the_direct_sum(source):
    inputs, hilbert, exceptions = source
    asked = []

    def recording(k):
        asked.append(k)
        return hilbert(k)

    out = assemble_constants(inputs, recording, exceptions)
    assert out.S_sum == s_sum_oracle(hilbert, inputs.n, inputs.delta, inputs.d, out.m)
    assert asked == sorted(set(asked)) and asked[-1] == out.m


def test_assemble_determinism():
    inputs = ConstantInputs(**{**CONIC_INPUTS, "h_fx": Fraction(2, 3)})
    a = _assemble_conic(inputs)
    b = _assemble_conic(inputs)
    assert a == b and isinstance(a, EffectiveConstants)


def test_assemble_derives_a_eps_and_m():
    inputs = ConstantInputs(**{**CONIC_INPUTS, "d_i": (1, 2, 1, 2), "m": None})
    assert inputs.d == 2
    out = assemble_constants(inputs, {}.get, ())
    assert out.a_eps == threshold_a_eps(1, 2, 2, Fraction(1, 2))  # at epsilon/N
    assert out.m == choose_m(out.a_eps, 2, 1, 2) == 644
    given = assemble_constants(ConstantInputs(**{**CONIC_INPUTS, "d_i": (1, 2, 1, 2)}), {}.get, ())
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
