"""Degree-truncated linear algebra on homogeneous ideals.

A degree-m graded piece of an ideal <g_1..g_k> is the row space of the
Macaulay-style matrix of all monomial multiples x^gamma * g_i of degree m,
with columns indexed by the degree-m monomials in glex order.  Everything
downstream (Hilbert values, quotient monomial bases, membership reductions,
Nullstellensatz certificates, emptiness and position checks) is built on
that one exact kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import NoCertificateWithinCap, NotHomogeneous, ZeroPolynomial
from .function_field import RationalFunction
from .linalg import Echelon, solve_combination
from .multipoly import HomogeneousPoly, monomial_basis, monomial_mul, parse_poly


@dataclass(frozen=True)
class IdealGenerators:
    num_vars: int
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if not isinstance(g, HomogeneousPoly):
                raise TypeError("generators must be HomogeneousPoly")
            if g.is_zero():
                raise ZeroPolynomial("zero generator")
            if g.num_vars != self.num_vars:
                raise NotHomogeneous(
                    f"generator in {g.num_vars} vars, ideal in {self.num_vars}"
                )

    @classmethod
    def of(cls, num_vars: int, generators) -> "IdealGenerators":
        return cls(num_vars, tuple(generators))

    @classmethod
    def parse(cls, num_vars: int, texts) -> "IdealGenerators":
        return cls(num_vars, tuple(parse_poly(s, num_vars) for s in texts))


class GradedPieceBasis:
    """Echelonized degree-m slice of an ideal.

    monomials: the degree-m monomial basis in glex order (the columns).
    The reduced row-echelon form over K is canonical, so pivot monomials
    and everything derived from them are deterministic.
    """

    def __init__(self, degree: int, monomials: tuple, echelon: Echelon):
        self.degree = degree
        self.monomials = monomials
        self.echelon = echelon
        self._col_of = {m: i for i, m in enumerate(monomials)}

    @property
    def rank(self) -> int:
        return self.echelon.rank

    def pivot_monomials(self) -> list:
        return [self.monomials[c] for c in self.echelon.pivot_cols()]

    def nonpivot_monomials(self) -> list:
        pivots = set(self.echelon.pivot_cols())
        return [m for i, m in enumerate(self.monomials) if i not in pivots]

    def vector_of(self, poly: HomogeneousPoly) -> dict:
        if poly.terms and poly.degree != self.degree:
            raise NotHomogeneous(
                f"degree {poly.degree} polynomial in a degree-{self.degree} slice"
            )
        return {self._col_of[m]: c for m, c in poly.terms.items()}

    def contains(self, poly: HomogeneousPoly) -> bool:
        return self.echelon.contains(self.vector_of(poly))

    def rows(self) -> list:
        """Dense RREF rows (pivot order), mostly for display and tests."""
        rref = self.echelon.rref_rows()
        zero = RationalFunction(0)
        out = []
        for col in sorted(rref):
            out.append(
                [rref[col].get(i, zero) for i in range(len(self.monomials))]
            )
        return out


@lru_cache(maxsize=128)
def graded_piece(gens: IdealGenerators, m: int) -> GradedPieceBasis:
    """The degree-m slice of the ideal as an echelonized row space."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    cols = monomial_basis(gens.num_vars, m)
    col_of = {mono: i for i, mono in enumerate(cols)}
    ech = Echelon(len(cols))
    for g in gens.generators:
        if g.degree > m:
            continue
        for gamma in monomial_basis(gens.num_vars, m - g.degree):
            row = {col_of[monomial_mul(gamma, mono)]: c for mono, c in g.terms.items()}
            ech.add_row(row)
    return GradedPieceBasis(m, cols, ech)


def hilbert_function(gens: IdealGenerators, m: int) -> int:
    """H(m) = dim of degree-m forms modulo the ideal slice."""
    M = gens.num_vars - 1
    return comb(m + M, M) - graded_piece(gens, m).rank


@dataclass(frozen=True)
class QuotientBasis:
    degree: int
    monomials: tuple

    def __len__(self):
        return len(self.monomials)


def quotient_monomial_basis(gens: IdealGenerators, m: int) -> QuotientBasis:
    """The non-pivot monomials: a monomial basis of the degree-m quotient."""
    piece = graded_piece(gens, m)
    return QuotientBasis(m, tuple(piece.nonpivot_monomials()))


@dataclass(frozen=True)
class ReductionResult:
    alpha0: RationalFunction
    coefficients: tuple
    basis: QuotientBasis


def reduce_to_quotient_basis(
    q: HomogeneousPoly, gens: IdealGenerators, basis: QuotientBasis | None = None
) -> ReductionResult:
    """Express q modulo the ideal in the quotient monomial basis.

    Solves with alpha0 = 1; the congruence is re-verified by an independent
    membership test of the residual.  No claim is made about the valuations
    of the returned coefficients; solutions with controlled valuations exist
    but this deterministic solver does not promise to find one.
    """
    piece = graded_piece(gens, q.degree)
    if basis is None:
        basis = quotient_monomial_basis(gens, q.degree)
    residual = piece.echelon.reduce(piece.vector_of(q))
    coeff_of = {piece.monomials[c]: v for c, v in residual.items()}
    coeffs = tuple(coeff_of.pop(m, RationalFunction(0)) for m in basis.monomials)
    if coeff_of:
        raise ValueError("quotient basis does not match the echelon of the ideal")
    combo = HomogeneousPoly.zero(gens.num_vars, q.degree)
    for mono, c in zip(basis.monomials, coeffs):
        combo = combo + HomogeneousPoly.monomial(gens.num_vars, mono, 1).scale(c)
    assert piece.contains(q - combo), "reduction residual escaped the ideal"
    return ReductionResult(RationalFunction(1), coeffs, basis)


@dataclass(frozen=True)
class NullstellensatzCertificate:
    """An exact identity a * P0^u = sum A_i P_i witnessing radical membership."""

    exponent: int
    scalar: RationalFunction
    cofactors: tuple

    def verify(self, p0: HomogeneousPoly, gens: IdealGenerators) -> bool:
        lhs = p0 ** self.exponent * self.scalar
        rhs = HomogeneousPoly.zero(gens.num_vars, lhs.degree)
        for a, g in zip(self.cofactors, gens.generators):
            rhs = rhs + a * g
        return lhs == rhs


def certificate_exponent_bound(d: int, num_vars: int) -> int:
    """The (4d)^(M+2) exponent bound, with M+1 = num_vars."""
    return (4 * d) ** (num_vars + 1)


def hermann_cofactor_bound(d: int, num_vars: int) -> int:
    """The classical (2d)^(2^M) degree bound for plain ideal-membership
    cofactors; it feeds the M*2^M exponent inside b_const."""
    return (2 * d) ** (2 ** (num_vars - 1))


def nullstellensatz_certificate(
    p0: HomogeneousPoly,
    gens: IdealGenerators,
    exponent_cap: int | None = None,
    cap_limit: int = 12,
) -> NullstellensatzCertificate:
    """Search for the least exponent u with a * P0^u in <P_1..P_l>.

    The search solves one exact linear system per candidate u; the default
    cap clips the astronomically safe theoretical bound to a desk-scale
    limit.  The returned identity is re-verified by full expansion.
    """
    if p0.is_zero():
        raise ZeroPolynomial("P0 must be nonzero")
    if exponent_cap is None:
        d = max([p0.degree] + [g.degree for g in gens.generators])
        exponent_cap = min(certificate_exponent_bound(d, gens.num_vars), cap_limit)
    nv = gens.num_vars
    for u in range(1, exponent_cap + 1):
        target_degree = u * p0.degree
        cols = monomial_basis(nv, target_degree)
        col_of = {mono: i for i, mono in enumerate(cols)}
        rows = []
        row_tags = []
        for i, g in enumerate(gens.generators):
            if g.degree > target_degree:
                continue
            for gamma in monomial_basis(nv, target_degree - g.degree):
                rows.append(
                    {col_of[monomial_mul(gamma, mono)]: c for mono, c in g.terms.items()}
                )
                row_tags.append((i, gamma))
        power = p0 ** u
        target = {col_of[mono]: c for mono, c in power.terms.items()}
        solution = solve_combination(rows, target, len(cols))
        if solution is None:
            continue
        cofactors = []
        for i, g in enumerate(gens.generators):
            terms = {}
            for y, (gi, gamma) in zip(solution, row_tags):
                if gi == i and not y.is_zero():
                    terms[gamma] = terms.get(gamma, RationalFunction(0)) + y
            cofactors.append(
                HomogeneousPoly(nv, target_degree - g.degree, terms)
            )
        cert = NullstellensatzCertificate(u, RationalFunction(1), tuple(cofactors))
        assert cert.verify(p0, gens), "certificate failed re-verification"
        return cert
    raise NoCertificateWithinCap(
        f"no certificate with exponent <= {exponent_cap}; "
        "either P0 is outside the radical or the cap is too small"
    )


@dataclass(frozen=True)
class EmptinessVerdict:
    certified_empty: bool
    certified_degree: int | None
    cap: int

    def __str__(self):
        if self.certified_empty:
            return f"EmptyCertified(m={self.certified_degree})"
        return f"NonemptyAtCap(cap={self.cap})"


def has_common_projective_zero(gens: IdealGenerators, degree_cap: int) -> EmptinessVerdict:
    """One-sided emptiness certificate over the algebraic closure.

    EmptyCertified(m) means the degree-m slice is everything, so the
    generators have no common projective zero.  NonemptyAtCap only means no
    certificate was found up to the cap.
    """
    if degree_cap < 1:
        raise ValueError("degree cap must be >= 1")
    M = gens.num_vars - 1
    for m in range(1, degree_cap + 1):
        if graded_piece(gens, m).rank == comb(m + M, M):
            return EmptinessVerdict(True, m, degree_cap)
    return EmptinessVerdict(False, None, degree_cap)


@dataclass(frozen=True)
class SubsetVerdict:
    indices: tuple
    verdict: EmptinessVerdict


@dataclass(frozen=True)
class PositionReport:
    N: int
    degree_cap: int
    in_position: bool
    subsets: tuple

    def failing_subsets(self) -> list:
        return [s for s in self.subsets if not s.verdict.certified_empty]


def check_subgeneral_position(
    x_gens: IdealGenerators, qs, N: int, degree_cap: int
) -> PositionReport:
    """Check N-subgeneral position of the divisors with respect to X.

    Runs the emptiness certificate on X's generators joined with every
    (N+1)-subset of the divisors.  One-sided like the certificate itself:
    a failing subset is reported, not proven nonempty.
    """
    qs = list(qs)
    verdicts = []
    for indices in itertools.combinations(range(len(qs)), N + 1):
        joined = IdealGenerators.of(
            x_gens.num_vars,
            tuple(x_gens.generators) + tuple(qs[i] for i in indices),
        )
        verdicts.append(SubsetVerdict(indices, has_common_projective_zero(joined, degree_cap)))
    ok = all(v.verdict.certified_empty for v in verdicts)
    return PositionReport(N, degree_cap, ok, tuple(verdicts))
