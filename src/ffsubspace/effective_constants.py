"""Exact evaluation of every effective constant in the inequality pipeline.

The ledger works on numbers only: the degrees, the heights h(F_X), h(Q_i)
and h(Q_1..Q_q) of the lcm-normalized family, that family's S-term, and
Hilbert values asked for on demand.  The caller computes the heights; no
form or element of the function field is handled here.  All quantities are
exact big integers or Fractions; nothing here rounds.
The two Hilbert-value lookups fall back to the certified bounds (Chardin
above, Sombra below) exactly where an upper bound on the final constants
stays an upper bound, so huge degrees never force a rank computation.
"""

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .errors import PreconditionViolated
from .hilbert_bounds import chardin_upper, sombra_lower, threshold_a_eps


def b_const(m: int, n: int, M: int, delta: int) -> int:
    """(4m)^(n+1) + (5(n+1)delta)^((n+1)M(M-1)/2 + M 2^M), for m >= max(3, (n+1)delta)."""
    if m < max(3, (n + 1) * delta):
        raise PreconditionViolated(
            f"need m >= max(3, (n+1)*delta) = {max(3, (n + 1) * delta)}, got {m}"
        )
    exponent = (n + 1) * M * (M - 1) // 2 + M * 2**M
    return (4 * m) ** (n + 1) + (5 * (n + 1) * delta) ** exponent


def excess_vanishing_power(n: int, M: int, N: int, delta: int, d: int) -> int:
    """(6 max((N+1)delta, d))^((n+1)(M^2+M))."""
    return (6 * max((N + 1) * delta, d)) ** ((n + 1) * (M * M + M))


def excess_vanishing_const(
    n: int, M: int, N: int, delta: int, d: int, h_fx, h_q_family
) -> Fraction:
    """The per-place constant: the power factor times (h(F_X) + h(Q_1..Q_q))."""
    return excess_vanishing_power(n, M, N, delta, d) * (Fraction(h_fx) + Fraction(h_q_family))


def choose_m(a_eps: int, d: int, n: int, delta: int) -> int:
    """m := d([a_eps/d] + 1), lifted to a multiple of d at least max(3, (n+1)delta)."""
    if a_eps < 1 or d < 1:
        raise PreconditionViolated("need a_eps >= 1 and d >= 1")
    m = d * (a_eps // d + 1)
    floor = max(3, (n + 1) * delta)
    while m < floor:
        m += d
    return m


class _ConstantFields(NamedTuple):
    n: int
    delta: int
    M: int
    N: int
    q: int
    d_i: tuple
    epsilon: Fraction
    s_card: int
    s_degree: int
    h_fx: Fraction
    h_q_family: Fraction
    h_q_i: tuple
    e_s_term: Fraction
    c1: Fraction
    c1_prime: Fraction
    m: int | None = None  # None: the effective m of assemble_constants


class ConstantInputs(_ConstantFields):
    """The inputs of `assemble_constants`, checked on every construction
    (`_replace` included)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.N >= self.n >= 1):
            raise PreconditionViolated(f"need N >= n >= 1, got N={self.N}, n={self.n}")
        if self.q < self.n + 1:
            raise PreconditionViolated(f"need q >= n+1, got q={self.q}")
        if len(self.d_i) != self.q or len(self.h_q_i) != self.q:
            raise PreconditionViolated("d_i and h_q_i must list one entry per divisor")
        if self.m is not None and (
            self.m % self.d != 0 or self.m < max(3, (self.n + 1) * self.delta)
        ):
            raise PreconditionViolated(
                f"need d | m and m >= max(3, (n+1)delta), got m={self.m}"
            )
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def d(self) -> int:
        return lcm(*self.d_i)


class EffectiveConstants(NamedTuple):
    b: int
    excess_const: Fraction
    b1: Fraction
    b2: Fraction
    b3: Fraction
    a_eps: int
    m: int
    c_eps: Fraction
    c_prime_eps: Fraction
    S_sum: int


def assemble_constants(inputs: ConstantInputs, hilbert) -> EffectiveConstants:
    """Evaluate a_eps, m, b, the per-place constant, b1..b3, c_eps and c'_eps
    exactly.

    a_eps is the ratio threshold at epsilon/N, and m is inputs.m when given,
    else choose_m(a_eps, d, n, delta).

    hilbert(k) gives H_X(k), or None where the value is not known.  A None
    falls back to the Chardin bound where the value multiplies (the H_X(m)
    factor) and to the Sombra bound where it divides (the S(m/d - 1) sum),
    keeping every reported constant a valid upper bound.  hilbert is asked
    once at each degree, in ascending order.
    """
    n, delta, M, N, q, d = (
        inputs.n, inputs.delta, inputs.M, inputs.N, inputs.q, inputs.d
    )
    a_eps = threshold_a_eps(n, delta, d, inputs.epsilon / N)
    m = choose_m(a_eps, d, n, delta) if inputs.m is None else inputs.m
    b = b_const(m, n, M, delta)
    a = excess_vanishing_const(n, M, N, delta, d, inputs.h_fx, inputs.h_q_family)

    if m < 2 * d:
        raise PreconditionViolated("need m >= 2d so that S(m/d - 1) is nonempty")
    s_sum = 0
    for k in range(d, m, d):
        h = hilbert(k)
        s_sum += sombra_lower(k, n, delta) if h is None else h
    h_m = hilbert(m)
    if h_m is None:
        h_m = chardin_upper(m, n, delta)

    b1 = (m + 1) * h_m * b * (inputs.h_fx + inputs.h_q_family)
    b2 = inputs.s_card * b1
    b3 = a * (q - N) * inputs.s_card - q * inputs.e_s_term

    c_eps = Fraction(inputs.c1 + (M + 2) * b * inputs.h_fx, 1) / m

    weighted = sum(
        (Fraction(h) / di for h, di in zip(inputs.h_q_i, inputs.d_i)), Fraction(0)
    )
    weighted_d = sum(
        (Fraction(d, di) * h for h, di in zip(inputs.h_q_i, inputs.d_i)), Fraction(0)
    )
    power = excess_vanishing_power(n, M, N, delta, d)
    c_prime = (
        power * (Fraction(inputs.h_fx, d) + weighted) * (q - N) * inputs.s_card
        + q * weighted
        + N
        * (
            inputs.s_card * (m + 1) * h_m * b * (inputs.h_fx + weighted_d)
            + inputs.c1_prime
        )
        / (d * s_sum)
    )
    return EffectiveConstants(
        b=b,
        excess_const=a,
        b1=Fraction(b1),
        b2=Fraction(b2),
        b3=Fraction(b3),
        a_eps=a_eps,
        m=m,
        c_eps=c_eps,
        c_prime_eps=Fraction(c_prime),
        S_sum=s_sum,
    )
