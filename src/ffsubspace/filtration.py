"""The divisor filtration of a degree-m quotient and the monomial morphism.

For a divisor form Q of degree d with d | m, the subspaces W_i of classes
divisible by Q^i filter the quotient K[X]_m/(I_X)_m; a compatible basis can
be chosen of the shape psi_j = Q^{i_j} * g_j with g_j a monomial.  The
vanishing-order bookkeeping of that basis powers the key inequality, and
the quotient monomial basis defines the morphism Phi whose height is
sandwiched between m h(x) and m h(x) minus an explicit correction.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    BaseLocusPoint,
    DegreeMismatch,
    DivisorInIdeal,
    InvariantViolated,
    PointOnDivisor,
    PreconditionViolated,
    ZeroPolynomial,
)
from .function_field import (
    Place,
    ProjectivePoint,
    gauss_order_point,
    height_point,
    order_at,
    support,
)
from .graded_ideal import (
    IdealGenerators,
    QuotientBasis,
    graded_piece,
    hilbert_function,
)
from .multipoly import HomogeneousPoly, monomial_basis, monomial_mul


class VanishingOrderPermutation(NamedTuple):
    place: Place
    point: ProjectivePoint
    order: tuple  # divisor indices, nonincreasing ord_p(Q_i(x))
    orders: tuple  # the corresponding ord values


def order_by_vanishing(p: Place, qs, x: ProjectivePoint) -> VanishingOrderPermutation:
    """Renumber the divisors so ord_p(Q_{l_1}(x)) >= ... >= ord_p(Q_{l_q}(x)).

    Stable: ties keep the original index order.
    """
    values = []
    for i, q in enumerate(qs):
        v = q.evaluate(x)
        if v.is_zero():
            raise PointOnDivisor(f"point lies on divisor {i}", index=i)
        values.append(order_at(v, p))
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    return VanishingOrderPermutation(
        p, x, tuple(order), tuple(values[i] for i in order)
    )


class FiltrationBasis(NamedTuple):
    """A compatible basis psi_j = Q^{i_j} g_j of the degree-m quotient."""

    degree: int
    divisor_degree: int
    divisor: HomogeneousPoly
    entries: tuple  # (exponent i_j, monomial g_j), levels descending
    level_dims: tuple  # dim W_i for i = 0..m/d

    def __len__(self):
        return len(self.entries)

    def exponents(self):
        return [i for i, _ in self.entries]


def build_filtration(
    x_gens: IdealGenerators, m: int, q_poly: HomogeneousPoly
) -> FiltrationBasis:
    """Greedy top-down construction of the compatible basis.

    With d the degree of Q, level i runs from m/d down to 0; candidate
    monomials g of degree m - i*d are scanned in glex order and accepted when
    Q^i * g extends the current independent set modulo the ideal slice,
    seeded by a copy of the degree-m piece's pivot rows; a candidate's row
    is Q^i's primitive terms shifted by g, itself primitive over Z[t].
    A level's scan stops once its dimension reaches H_X(m - i*d): every
    later candidate would be dependent, and those are the costly rows.  So
    before level 0, H_X(m) is checked against the dimension of the degree-m
    quotient, which the piece's rank gives, and level 0 then ends with the
    whole quotient.  A level that stays below H_X(m - i*d) means Q is a zero
    divisor modulo the ideal, Q vanishing on a component of X, and raises
    PreconditionViolated; a mismatch at m, or a level that begins above
    H_X(m - i*d), raises InvariantViolated.
    """
    if q_poly.is_zero():
        raise ZeroPolynomial("divisor form must be nonzero")
    d = q_poly.degree
    if d < 1 or m % d != 0:
        raise DegreeMismatch(f"need d | m, got d={d}, m={m}")
    if graded_piece(x_gens, d).contains(q_poly):
        raise DivisorInIdeal("divisor form vanishes identically on the variety")

    nv = x_gens.num_vars
    piece = graded_piece(x_gens, m)
    ech = piece.echelon.copy()
    ideal_rank = ech.rank

    entries = []
    level_dims = {}
    q_power = [HomogeneousPoly(nv, 0, {(0,) * nv: 1})]
    for _ in range(m // d):
        q_power.append(q_power[-1] * q_poly)

    for i in range(m // d, -1, -1):
        qi = q_power[i].primitive()[0].items()
        h = hilbert_function(x_gens, m - i * d)
        if i == 0 and h != len(piece.col_of) - ideal_rank:
            # level 0 is the whole quotient, whose dimension the piece knows
            raise InvariantViolated(
                f"H({m}) = {h} != {len(piece.col_of) - ideal_rank}, the "
                f"dimension of the degree-{m} quotient"
            )
        for g in monomial_basis(nv, m - i * d):
            if ech.rank - ideal_rank == h:
                break
            if ech.add_row({piece.col_of[monomial_mul(g, mono)]: c for mono, c in qi}):
                entries.append((i, g))
        dim_w_i = ech.rank - ideal_rank
        level_dims[i] = dim_w_i
        if dim_w_i < h:
            # multiplication by Q^i is not injective on the quotient
            raise PreconditionViolated(
                f"divisor form {q_poly} is a zero divisor modulo the ideal (it "
                f"vanishes on a component of the variety): dim W_{i} = {dim_w_i} "
                f"< H({m - i * d}) = {h}"
            )
        if dim_w_i != h:
            # the level began above H(m - i*d), so the scan never stopped
            raise InvariantViolated(f"dim W_{i} = {dim_w_i} != H({m - i * d})")

    dims = tuple(level_dims[i] for i in range(m // d + 1))
    return FiltrationBasis(m, d, q_poly, tuple(entries), dims)


class ExponentSumReport(NamedTuple):
    """The exponent sum of a compatible basis, against the stated closed form.

    level_sum = sum_{i=1}^{m/d} H(m - i d) always matches the basis exactly;
    the stated closed form S(m/d - 1) = sum_{i=1}^{m/d-1} H(i d) is smaller by
    H(0) = 1, which is reported rather than silently adopted.
    """

    total: int
    level_sum: int
    stated_sum: int
    difference: int


def exponent_sum(basis: FiltrationBasis) -> ExponentSumReport:
    """The sums off `basis.level_dims`, which `build_filtration` has checked
    to be H(m - i d) at every level i: H(i d) = dim W_{m/d - i}, so
    S(m/d - 1) is the sum of dim W_i over 0 < i < m/d."""
    total = sum(basis.exponents())
    level_sum = sum(basis.level_dims[1:])
    stated = sum(basis.level_dims[1:-1])
    return ExponentSumReport(total, level_sum, stated, total - stated)


class FiltrationInequality(NamedTuple):
    lhs: object  # int, or math.inf when some g_j vanishes at x
    rhs: int
    ok: bool
    finite: bool


def filtration_inequality_check(
    p: Place, x: ProjectivePoint, basis: FiltrationBasis
) -> FiltrationInequality:
    """The key inequality: the basis vanishing sum dominates S(m/d-1) times
    the divisor's excess vanishing at x, with S from `exponent_sum`."""
    q_value = basis.divisor.evaluate(x)
    if q_value.is_zero():
        raise PointOnDivisor("point lies on the filtration divisor")
    m, d = basis.degree, basis.divisor_degree
    e_x = gauss_order_point(p, x)
    q_order = order_at(q_value, p)
    rhs = exponent_sum(basis).stated_sum * (q_order - d * e_x)

    # ord_p(Q(x)^i g(x)) = i ord_p Q(x) + sum_j g_j ord_p x_j, infinite
    # when g uses a zero coordinate
    orders = [order_at(c, p) if c else None for c in x.coordinates]
    lhs = 0
    for i, g in basis.entries:
        if any(e and orders[j] is None for j, e in enumerate(g)):
            return FiltrationInequality(math.inf, rhs, True, False)
        lhs += i * q_order + sum(e * orders[j] for j, e in enumerate(g) if e) - m * e_x
    return FiltrationInequality(lhs, rhs, lhs >= rhs, True)


def phi_map(basis: QuotientBasis, x: ProjectivePoint) -> ProjectivePoint:
    """Phi(x) = [phi_1(x) : ... : phi_H(x)] for the quotient monomial basis."""
    nv = x.num_vars
    coords = [HomogeneousPoly.monomial(nv, g, 1).evaluate(x) for g in basis.monomials]
    if all(c.is_zero() for c in coords):
        raise BaseLocusPoint("point lies in the base locus of the monomial morphism")
    return ProjectivePoint(coords)


class PlaceSandwich(NamedTuple):
    place: Place
    lower: Fraction
    value: Fraction
    upper: Fraction

    @property
    def ok(self) -> bool:
        return self.lower <= self.value <= self.upper


class HeightSandwichReport(NamedTuple):
    per_place: tuple
    height_lower: Fraction
    height_value: Fraction
    height_upper: Fraction

    @property
    def ok(self) -> bool:
        return (
            all(s.ok for s in self.per_place)
            and self.height_lower <= self.height_value <= self.height_upper
        )


def height_sandwich_check(
    basis: QuotientBasis, x: ProjectivePoint, b: int, h_fx: Fraction
) -> HeightSandwichReport:
    """The Phi-map height sandwich, per place and globally.

    Per place:  m e_p(x) deg p <= e_p(Phi(x)) deg p <= m e_p(x) deg p + b h(F_X);
    globally:   m h(x) - (M+2) b h(F_X) <= h(Phi(x)) <= m h(x).
    """
    m = basis.degree
    phi = phi_map(basis, x)
    h_fx = Fraction(h_fx)
    correction = b * h_fx
    rows = []
    # each coordinate of Phi(x) is a monomial in those of x: no new places
    places = support(x.coordinates)
    for p in places:
        lower = Fraction(m * gauss_order_point(p, x) * p.degree)
        value = Fraction(gauss_order_point(p, phi) * p.degree)
        rows.append(PlaceSandwich(p, lower, value, lower + correction))
    big_m = x.num_vars - 1
    hx = height_point(x)
    hphi = height_point(phi)
    return HeightSandwichReport(
        tuple(rows), m * hx - (big_m + 2) * correction, hphi, m * hx
    )
