"""Reference constructions the library no longer performs, kept for tests."""

from math import lcm
from typing import NamedTuple

from ffsubspace.errors import ZeroPolynomial
from ffsubspace.function_field import RationalFunction
from ffsubspace.linalg import Echelon, primitive_row
from ffsubspace.multipoly import HomogeneousPoly, monomial_basis


class LcmReduction(NamedTuple):
    """Divisors normalized to a common degree d with a unit coefficient each."""

    normalized: tuple
    scalars: tuple
    d: int


def lcm_reduction(qs) -> LcmReduction:
    """Replace each Q_i by (Q_i / a_i)^(d/d_i) with d = lcm of the degrees.

    a_i is the coefficient of the glex-largest monomial of Q_i, which makes
    the choice deterministic; each output has a coefficient equal to 1 and
    lambda_{p, out_i} = (d/d_i) lambda_{p, Q_i} pointwise.  The forms are
    built by repeated multiplication, which is the reference the check's
    scalar route for h(Q_1..Q_q) and the S-term is compared with.
    """
    qs = list(qs)
    if not qs:
        raise ZeroPolynomial("empty divisor family")
    for q in qs:
        if q.is_zero():
            raise ZeroPolynomial("zero divisor in family")
    d = lcm(*[q.degree for q in qs])
    normalized = []
    scalars = []
    for q in qs:
        a = q.leading_coefficient()
        scalars.append(a)
        scaled = q.scale(RationalFunction(1) / a)
        normalized.append(scaled ** (d // q.degree))
    return LcmReduction(tuple(normalized), tuple(scalars), d)


def graded_piece_echelon(gens, m: int) -> Echelon:
    """The degree-m piece of the ideal as an Echelon fed every product
    x^gamma * g_i of degree m, by i and then gamma in glex order, each as a
    row over K through `primitive_row`, with no stop at full rank."""
    cols = monomial_basis(gens.num_vars, m)
    col_of = {mono: i for i, mono in enumerate(cols)}
    ech = Echelon(len(cols))
    for g in gens.generators:
        if g.degree > m:
            continue
        for gamma in monomial_basis(gens.num_vars, m - g.degree):
            product = g * HomogeneousPoly.monomial(gens.num_vars, gamma, 1)
            ech.add_row(primitive_row({col_of[mono]: c for mono, c in product.terms.items()}))
    return ech
