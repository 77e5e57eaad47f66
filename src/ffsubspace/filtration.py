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
from .linalg import Echelon, primitive_row
from .multipoly import HomogeneousPoly, monomial_basis


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
    Q^i * g extends the current independent set modulo the ideal slice.
    Level dimensions are checked against H_X(m - i*d) as they complete; a
    mismatch raises InvariantViolated.
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
    ech = Echelon(len(piece.monomials))
    for col, row in piece.echelon.rref_rows().items():
        ech.add_row(primitive_row(row))
    ideal_rank = ech.rank

    entries = []
    level_dims = {}
    q_power = {}
    power = HomogeneousPoly(nv, 0, {(0,) * nv: 1})
    for i in range(m // d + 1):
        q_power[i] = power
        power = power * q_poly

    for i in range(m // d, -1, -1):
        qi = q_power[i]
        for g in monomial_basis(nv, m - i * d):
            candidate = qi * HomogeneousPoly.monomial(nv, g, 1)
            if ech.add_row(primitive_row(piece.vector_of(candidate))):
                entries.append((i, g))
        dim_w_i = ech.rank - ideal_rank
        level_dims[i] = dim_w_i
        if dim_w_i != hilbert_function(x_gens, m - i * d):
            raise InvariantViolated(f"dim W_{i} = {dim_w_i} != H({m - i * d})")

    if len(entries) != hilbert_function(x_gens, m):
        raise InvariantViolated(
            f"basis has {len(entries)} elements != H({m}) = {hilbert_function(x_gens, m)}"
        )
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

    def __int__(self):
        return self.total


def exponent_sum(basis: FiltrationBasis, x_gens: IdealGenerators) -> ExponentSumReport:
    total = sum(basis.exponents())
    steps = basis.degree // basis.divisor_degree
    level_sum = sum(
        hilbert_function(x_gens, basis.degree - i * basis.divisor_degree)
        for i in range(1, steps + 1)
    )
    stated = hilbert_partial_sum(x_gens, steps - 1, basis.divisor_degree)
    if total != level_sum:
        raise InvariantViolated(f"exponent sum {total} != level sum {level_sum}")
    return ExponentSumReport(total, level_sum, stated, total - stated)


def hilbert_partial_sum(x_gens: IdealGenerators, t: int, d: int) -> int:
    """S(t) = sum_{i=1}^t H_X(i d)."""
    return sum(hilbert_function(x_gens, i * d) for i in range(1, t + 1))


class FiltrationInequality(NamedTuple):
    lhs: object  # int, or math.inf when some g_j vanishes at x
    rhs: int
    ok: bool
    finite: bool


def filtration_inequality_check(
    p: Place, x: ProjectivePoint, basis: FiltrationBasis, x_gens: IdealGenerators
) -> FiltrationInequality:
    """The key inequality: the basis vanishing sum dominates S(m/d-1) times
    the divisor's excess vanishing at x."""
    q_value = basis.divisor.evaluate(x)
    if q_value.is_zero():
        raise PointOnDivisor("point lies on the filtration divisor")
    m, d = basis.degree, basis.divisor_degree
    e_x = gauss_order_point(p, x)
    rhs = hilbert_partial_sum(x_gens, m // d - 1, d) * (order_at(q_value, p) - d * e_x)

    nv = x_gens.num_vars
    lhs = 0
    finite = True
    for i, g in basis.entries:
        g_value = HomogeneousPoly.monomial(nv, g, 1).evaluate(x)
        psi_value = q_value**i * g_value
        if psi_value.is_zero():
            finite = False
            break
        lhs += order_at(psi_value, p) - m * e_x
    if not finite:
        return FiltrationInequality(math.inf, rhs, True, False)
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
    places = support(list(x.coordinates) + list(phi.coordinates))
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
