"""Degree-truncated linear algebra on homogeneous ideals.

A degree-m graded piece of an ideal <g_1..g_k> is the row space of the
Macaulay-style matrix of all monomial multiples x^gamma * g_i of degree m,
with columns indexed by the degree-m monomials in glex order.  Its rows are
built over Z[t] from each g_i's primitive coefficients (denominators
cleared, content stripped), and building stops once the rank reaches the
number of columns.  Everything downstream (Hilbert values, quotient
monomial bases, membership reductions, emptiness and position checks) is
built on that one exact kernel; Nullstellensatz certificates solve over the
rows of the g_i themselves, with coefficients in K.
"""

import itertools
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .errors import (
    InvariantViolated,
    NoCertificateWithinCap,
    NotHomogeneous,
    PreconditionViolated,
    ZeroPolynomial,
)
from .function_field import RationalFunction
from .linalg import Echelon, primitive_row, solve_combination
from .multipoly import HomogeneousPoly, monomial_basis, monomial_mul, parse_poly


class IdealGenerators:
    """Homogeneous generators in num_vars variables: an immutable value,
    checked when built.  `graded_piece` caches on it, so its hash is
    computed once, on first use."""

    __slots__ = ("num_vars", "generators", "_hash")

    def __init__(self, num_vars: int, generators: tuple):
        for g in generators:
            if not isinstance(g, HomogeneousPoly):
                raise TypeError("generators must be HomogeneousPoly")
            if g.is_zero():
                raise ZeroPolynomial("zero generator")
            if g.num_vars != num_vars:
                raise NotHomogeneous(
                    f"generator in {g.num_vars} vars, ideal in {num_vars}"
                )
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num_vars == other.num_vars and self.generators == other.generators

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.num_vars, self.generators)))
        return self._hash

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


def _macaulay_rows(gens: IdealGenerators, m: int, col_of: dict, terms_of):
    """(i, gamma, row) for each multiple x^gamma * g_i of degree m, by i and
    then gamma in glex order; row is sparse over the columns `col_of` and
    reads g_i's (monomial, coefficient) pairs from terms_of[i]."""
    for i, (g, terms) in enumerate(zip(gens.generators, terms_of)):
        if g.degree > m:
            continue
        for gamma in monomial_basis(gens.num_vars, m - g.degree):
            yield i, gamma, {col_of[monomial_mul(gamma, mono)]: c for mono, c in terms}


@lru_cache(maxsize=256)
def _integer_terms(g: HomogeneousPoly) -> tuple:
    """g's (monomial, coefficient) pairs with its denominators cleared and
    its integer content stripped: a primitive row over Z[t]."""
    return tuple(primitive_row(g.terms).items())


@lru_cache(maxsize=128)
def graded_piece(gens: IdealGenerators, m: int) -> GradedPieceBasis:
    """The degree-m slice of the ideal as an echelonized row space.

    Each generator's coefficients are made primitive over Z[t] once, and a
    monomial multiple of a primitive row is primitive, so the Macaulay rows
    enter `Echelon.add_row` as they are built.  Once the rank reaches the
    number of columns every further row would reduce to zero, so none is
    built.
    """
    if m < 0:
        raise PreconditionViolated("degree must be >= 0")
    cols = monomial_basis(gens.num_vars, m)
    col_of = {mono: i for i, mono in enumerate(cols)}
    ech = Echelon(len(cols))
    integer = [_integer_terms(g) for g in gens.generators]
    for _, _, row in _macaulay_rows(gens, m, col_of, integer):
        if ech.rank == len(cols):
            break
        ech.add_row(row)
    return GradedPieceBasis(m, cols, ech)


def macaulay_upper(a: int, k: int) -> int:
    """Macaulay's bound a^<k>, for k >= 1.

    With a = C(a_k, k) + C(a_{k-1}, k-1) + ... + C(a_j, j), a_k > ... >
    a_j >= j >= 1 (the k-th Macaulay representation), a^<k> is
    C(a_k + 1, k + 1) + ... + C(a_j + 1, j + 1).  H(k+1) <= H(k)^<k> for
    the Hilbert function of every homogeneous ideal.
    """
    total = 0
    i = k
    while a > 0:
        top = i  # the largest top with C(top, i) <= a
        while comb(top + 1, i) <= a:
            top += 1
        a -= comb(top, i)
        total += comb(top + 1, i + 1)
        i -= 1
    return total


def hilbert_function(gens: IdealGenerators, m: int) -> int:
    """H(m) = dim of degree-m forms modulo the ideal slice.

    Ranks are computed from degree D = max(1, largest generator degree)
    upwards only until Gotzmann's persistence theorem (Gotzmann 1978;
    Bruns-Herzog, Cohen-Macaulay Rings, Thm 4.3.3) applies: if the ideal is
    generated in degrees <= D and H(k+1) = H(k)^<k> for some k >= D, then
    H(j+1) = H(j)^<j> for every j >= k.  The higher values are then
    Macaulay's bound iterated up to m, which that theorem makes an equality,
    so the result is the rank value, exactly.  Without such a k below m the
    result is the rank at m; no piece above degree m is built.
    """
    M = gens.num_vars - 1

    def rank_value(k):
        return comb(k + M, M) - graded_piece(gens, k).rank

    k = max([1] + [g.degree for g in gens.generators])
    if m <= k + 1:
        return rank_value(m)
    h, persists = rank_value(k), False
    while k < m:
        upper = macaulay_upper(h, k)
        h = upper if persists else rank_value(k + 1)
        persists = h == upper
        k += 1
    return h


class QuotientBasis(NamedTuple):
    degree: int
    monomials: tuple

    def __len__(self):
        return len(self.monomials)


def quotient_monomial_basis(gens: IdealGenerators, m: int) -> QuotientBasis:
    """The non-pivot monomials: a monomial basis of the degree-m quotient."""
    piece = graded_piece(gens, m)
    return QuotientBasis(m, tuple(piece.nonpivot_monomials()))


class ReductionResult(NamedTuple):
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
    if not piece.contains(q - combo):
        raise InvariantViolated("reduction residual escaped the ideal")
    return ReductionResult(RationalFunction(1), coeffs, basis)


class NullstellensatzCertificate(NamedTuple):
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


# The desk-scale limit the search clips the (4d)^(M+2) exponent bound to.
CERTIFICATE_EXPONENT_LIMIT = 12


def nullstellensatz_certificate(
    p0: HomogeneousPoly, gens: IdealGenerators
) -> NullstellensatzCertificate:
    """Search for the least exponent u with a * P0^u in <P_1..P_l>.

    The search solves one exact linear system per candidate u, for u up to
    the theoretical (4d)^(M+2) bound clipped to CERTIFICATE_EXPONENT_LIMIT;
    past that it raises NoCertificateWithinCap.  The returned identity is
    re-verified by full expansion.
    """
    if p0.is_zero():
        raise ZeroPolynomial("P0 must be nonzero")
    d = max([p0.degree] + [g.degree for g in gens.generators])
    exponent_cap = min(
        certificate_exponent_bound(d, gens.num_vars), CERTIFICATE_EXPONENT_LIMIT
    )
    nv = gens.num_vars
    for u in range(1, exponent_cap + 1):
        target_degree = u * p0.degree
        cols = monomial_basis(nv, target_degree)
        col_of = {mono: i for i, mono in enumerate(cols)}
        # the cofactors are for the g_i themselves: rows over K, not primitive
        terms_of = [g.terms.items() for g in gens.generators]
        tagged = list(_macaulay_rows(gens, target_degree, col_of, terms_of))
        power = p0 ** u
        target = {col_of[mono]: c for mono, c in power.terms.items()}
        solution = solve_combination([row for _, _, row in tagged], target, len(cols))
        if solution is None:
            continue
        cofactors = []
        for i, g in enumerate(gens.generators):
            terms = {}
            for y, (gi, gamma, _) in zip(solution, tagged):
                if gi == i and not y.is_zero():
                    terms[gamma] = terms.get(gamma, RationalFunction(0)) + y
            cofactors.append(
                HomogeneousPoly(nv, target_degree - g.degree, terms)
            )
        cert = NullstellensatzCertificate(u, RationalFunction(1), tuple(cofactors))
        if not cert.verify(p0, gens):
            raise InvariantViolated("certificate failed re-verification")
        return cert
    raise NoCertificateWithinCap(
        f"no certificate with exponent <= {exponent_cap}; "
        "either P0 is outside the radical or the cap is too small"
    )


class EmptinessVerdict(NamedTuple):
    certified_empty: bool
    certified_degree: int | None

    def __str__(self):
        if self.certified_empty:
            return f"EmptyCertified(m={self.certified_degree})"
        return f"NonemptyAtCap(cap={POSITION_CAP})"


# A resource guard on the position walk, which reports print as
# `degree_cap`: no graded piece above this degree is built, even when
# `lazard_degree` is higher.
POSITION_CAP = 6


def lazard_degree(gens: IdealGenerators) -> int:
    """The degree past which no graded piece can newly become full.

    Forms of degrees d_1 >= d_2 >= ... >= 1 in M+1 variables without a
    common projective zero generate every form of degree
    D = sum_{i <= M+1} (d_i - 1) + 1 (Lazard 1983; Cox-Little-O'Shea, Using
    Algebraic Geometry, Ch. 3 Sec. 4), so the first full piece, if any, has
    degree <= D.  Fewer than M+1 such forms always meet: 0.  A nonzero
    constant makes the degree-1 piece full: 1.
    """
    degrees = sorted((g.degree for g in gens.generators), reverse=True)
    if degrees and degrees[-1] == 0:
        return 1
    if len(degrees) < gens.num_vars:
        return 0
    return sum(d - 1 for d in degrees[: gens.num_vars]) + 1


def has_common_projective_zero(gens: IdealGenerators) -> EmptinessVerdict:
    """One-sided emptiness certificate over the algebraic closure.

    EmptyCertified(m) means the degree-m slice is everything, so the
    generators have no common projective zero.  NonemptyAtCap only means no
    full slice was found up to min(POSITION_CAP, lazard_degree): the walk
    stops at `lazard_degree`, past which no first full piece can lie, so
    when that degree is at most POSITION_CAP, NonemptyAtCap also proves a
    common zero.
    """
    M = gens.num_vars - 1
    for m in range(1, min(POSITION_CAP, lazard_degree(gens)) + 1):
        if graded_piece(gens, m).rank == comb(m + M, M):
            return EmptinessVerdict(True, m)
    return EmptinessVerdict(False, None)


class SubsetVerdict(NamedTuple):
    indices: tuple
    verdict: EmptinessVerdict


class PositionReport(NamedTuple):
    N: int
    in_position: bool
    subsets: tuple

    def failing_subsets(self) -> list:
        return [s for s in self.subsets if not s.verdict.certified_empty]


# A resource guard on the position walk: it visits at most this many
# (N+1)-subsets.  A subset walk took 0.07-0.8 ms with lines and conics as
# divisors (2 vCPUs, Python 3.11.7), so a walk at the limit takes about 0.2
# to 1.6 s.
MAX_POSITION_SUBSETS = 2000


def check_position_subsets(q: int, N: int):
    """Refuse a position walk over the C(q, N+1) subsets of q divisors when
    there are more than MAX_POSITION_SUBSETS of them."""
    count = comb(q, N + 1)
    if count > MAX_POSITION_SUBSETS:
        raise PreconditionViolated(
            f"N = {N} gives C({q}, {N + 1}) = {count} subsets to check, "
            f"more than {MAX_POSITION_SUBSETS}"
        )


def check_subgeneral_position(x_gens: IdealGenerators, qs, N: int) -> PositionReport:
    """Check N-subgeneral position of the divisors with respect to X.

    Runs `has_common_projective_zero` on X's generators joined with every
    (N+1)-subset of the divisors, so each walk is bounded by POSITION_CAP;
    more than MAX_POSITION_SUBSETS subsets are refused before any piece is
    built.  One-sided like the certificate itself: a failing subset is
    reported, not proven nonempty.
    """
    qs = list(qs)
    check_position_subsets(len(qs), N)
    verdicts = []
    for indices in itertools.combinations(range(len(qs)), N + 1):
        joined = IdealGenerators.of(
            x_gens.num_vars,
            tuple(x_gens.generators) + tuple(qs[i] for i in indices),
        )
        verdicts.append(SubsetVerdict(indices, has_common_projective_zero(joined)))
    ok = all(v.verdict.certified_empty for v in verdicts)
    return PositionReport(N, ok, tuple(verdicts))
