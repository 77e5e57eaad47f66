"""Brute-force references the tests compare the library against: direct
sums, constructions the library no longer performs, and bounds that hold by
construction and so are checked only here."""

from math import lcm
from typing import NamedTuple

from ffsubspace.errors import ZeroPolynomial
from ffsubspace.function_field import (
    ProjectivePoint,
    RationalFunction,
    gauss_order_coeffs,
    support,
)
from ffsubspace.hilbert_bounds import sombra_lower
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


def power_sum(k: int, l: int) -> int:
    """S_k(l) = 1^k + ... + l^k, exactly."""
    return sum(i**k for i in range(1, l + 1))


def T_value(t: int, n: int, delta: int, d: int) -> int:
    """T(t) = sum_{i=1}^t G(i*d) with G = sombra_lower; empty sum for t = 0."""
    return sum(sombra_lower(i * d, n, delta) for i in range(1, t + 1))


def apply_skew_to_point(pairs, skew_values, x) -> list:
    """u = S x, S the full skew-symmetric matrix with S[j][k] = s and
    S[k][j] = -s for each pair (j, k) of `pairs` and its entry s."""
    coords = list(x.coordinates if isinstance(x, ProjectivePoint) else x)
    zero = RationalFunction(0)
    S = [[zero] * len(coords) for _ in coords]
    for (j, k), s in zip(pairs, skew_values):
        S[j][k], S[k][j] = s, -s
    return [sum((a * c for a, c in zip(row, coords)), zero) for row in S]


def coefficient_bound_report(form, expansion) -> list:
    """Per-place e_p(F_X) vs min_sigma e_p(P_sigma) over the support of F_X.

    Every row is ok, so `chow.expand_skew` does not compute this: a
    coefficient of P_sigma is a Z-linear combination of F_X's coefficients,
    and ord_p of a sum is at least the least ord_p of its terms, at every
    place, inf included.  No rows when no P_sigma is nonzero (X = P^M, which
    has no equations): the bound holds over the empty family.
    """
    coeffs = form.poly.coefficients()
    out = []
    for p in support(coeffs) if expansion.entries else ():
        e_form = gauss_order_coeffs(p, coeffs)
        e_min = min(
            gauss_order_coeffs(p, poly.coefficients())
            for poly in expansion.entries.values()
        )
        out.append((p, e_form, e_min, e_min >= e_form))
    return out
