"""Degree-truncated linear algebra on homogeneous ideals.

A degree-m graded piece of an ideal <g_1..g_k> is the row space of the
Macaulay-style matrix of all monomial multiples x^gamma * g_i of degree m,
with columns indexed by the degree-m monomials in glex order.  Its rows are
built over Z[t] from each g_i's primitive coefficients (denominators
cleared, content 1 in Z[t], no sign rule), elimination keeps every row's
content in Z[t] at 1 so degrees in t do not double at each pivot, and
building stops once the rank reaches the number of columns.  Hilbert
values, quotient monomial bases and membership reductions are built on
that one exact kernel; Nullstellensatz certificates solve over the rows of
the g_i themselves, with coefficients in K.  Emptiness, and so position,
is decided first from the linear generators alone (their rank, and at
rank M their one common point) and from the shape of exactly M + 1 forms;
only the other ideals walk the graded pieces.
"""

import itertools
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .errors import (
    Frozen,
    InvariantViolated,
    NoCertificateWithinCap,
    NotHomogeneous,
    PreconditionViolated,
    ZeroPolynomial,
)
from .function_field import RationalFunction
from .linalg import Echelon, solve_combination
from .multipoly import (
    HomogeneousPoly,
    monomial_basis,
    monomial_mul,
    parse_poly,
    zero_test_values,
)


class IdealGenerators(Frozen):
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

    monomials: the degree-m monomial basis in glex order (the columns);
    col_of maps each monomial to its column (built once, by `graded_piece`).
    Pivot columns and the residuals of `reduce` depend only on the row
    space, not on the stored rows, so pivot monomials and everything
    derived from them are deterministic.
    """

    def __init__(self, degree: int, monomials: tuple, col_of: dict, echelon: Echelon):
        self.degree = degree
        self.monomials = monomials
        self.col_of = col_of
        self.echelon = echelon

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
        return {self.col_of[m]: c for m, c in poly.terms.items()}

    def contains(self, poly: HomogeneousPoly) -> bool:
        return self.echelon.contains(self.vector_of(poly))


def _macaulay_rows(gens: IdealGenerators, m: int, col_of: dict, terms_of):
    """(i, gamma, row) for each multiple x^gamma * g_i of degree m, by i and
    then gamma in glex order; row is sparse over the columns `col_of` and
    reads g_i's (monomial, coefficient) pairs from terms_of[i]."""
    for i, (g, terms) in enumerate(zip(gens.generators, terms_of)):
        if g.degree > m:
            continue
        for gamma in monomial_basis(gens.num_vars, m - g.degree):
            yield i, gamma, {col_of[monomial_mul(gamma, mono)]: c for mono, c in terms}


@lru_cache(maxsize=128)
def graded_piece(gens: IdealGenerators, m: int) -> GradedPieceBasis:
    """The degree-m slice of the ideal as an echelonized row space.

    Each generator's coefficients are made primitive over Z[t] once (content
    1 in Z[t], no sign rule; `HomogeneousPoly.primitive` caches them on the
    form), and a monomial multiple of a primitive row is primitive, so the
    Macaulay rows enter `Echelon.add_row` as they are built.  Once the rank
    reaches the number of columns every further row would reduce to zero,
    so none is built.
    """
    if m < 0:
        raise PreconditionViolated("degree must be >= 0")
    cols = monomial_basis(gens.num_vars, m)
    col_of = {mono: i for i, mono in enumerate(cols)}
    ech = Echelon(len(cols))
    primitive = [g.primitive()[0].items() for g in gens.generators]
    for _, _, row in _macaulay_rows(gens, m, col_of, primitive):
        if ech.rank == len(cols):
            break
        ech.add_row(row)
    return GradedPieceBasis(m, cols, col_of, ech)


def macaulay_upper(a: int, k: int, steps: int = 1) -> int:
    """Macaulay's bound a^<k>, for k >= 1, applied `steps` times.

    With a = C(a_k, k) + C(a_{k-1}, k-1) + ... + C(a_j, j), a_k > ... >
    a_j >= j >= 1 (the k-th Macaulay representation), a^<k> is
    C(a_k + 1, k + 1) + ... + C(a_j + 1, j + 1).  H(k+1) <= H(k)^<k> for
    the Hilbert function of every homogeneous ideal.  The shifted pairs
    (a_i + 1, i + 1) are a^<k>'s own (k+1)-th representation, so s
    applications, ((a^<k>)^<k+1>...)^<k+s-1>, give the sum of
    C(a_i + s, i + s): one representation for any s, and a itself at s = 0.
    """
    total = 0
    i = k
    while a > 0:
        top = i  # the largest top with C(top, i) <= a
        while comb(top + 1, i) <= a:
            top += 1
        a -= comb(top, i)
        total += comb(top + steps, i + steps)
        i -= 1
    return total


def hilbert_function(gens: IdealGenerators, m: int) -> int:
    """H(m) = dim of degree-m forms modulo the ideal slice.

    Ranks are computed from degree D = max(1, largest generator degree)
    upwards only until Gotzmann's persistence theorem (Gotzmann 1978;
    Bruns-Herzog, Cohen-Macaulay Rings, Thm 4.3.3) applies: if the ideal is
    generated in degrees <= D and H(k+1) = H(k)^<k> for some k >= D, then
    H(j+1) = H(j)^<j> for every j >= k.  At the first such k, H(m) is
    Macaulay's bound applied m - k times to H(k), which that theorem makes
    an equality, read off H(k)'s one shifted representation
    (`macaulay_upper(H(k), k, m - k)`), so the result is the rank value,
    exactly, at a cost that does not grow with m.  A full piece, H(k) = 0,
    ends the walk at once: every piece above it is full too.  Without such a
    k below m the result is the rank at m.  No piece above degree m is
    built, nor any above k + 1 for that first k.
    """
    M = gens.num_vars - 1

    def rank_value(k):
        return comb(k + M, M) - graded_piece(gens, k).rank

    k = max([1] + [g.degree for g in gens.generators])
    if m <= k + 1:
        return rank_value(m)
    h = rank_value(k)
    while h and k < m:
        h_next = rank_value(k + 1)
        if h_next == macaulay_upper(h, k):
            return macaulay_upper(h, k, m - k)
        h, k = h_next, k + 1
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


def reduce_to_quotient_basis(q: HomogeneousPoly, gens: IdealGenerators) -> ReductionResult:
    """Express q modulo the ideal in the quotient monomial basis.

    Solves with alpha0 = 1; the congruence is re-verified by an independent
    membership test of the residual.  No claim is made about the valuations
    of the returned coefficients; solutions with controlled valuations exist
    but this deterministic solver does not promise to find one.
    """
    piece = graded_piece(gens, q.degree)
    basis = quotient_monomial_basis(gens, q.degree)
    residual = piece.echelon.reduce(piece.vector_of(q))
    # reduce leaves entries only on non-pivot columns, the basis's monomials
    coeff_of = {piece.monomials[c]: v for c, v in residual.items()}
    coeffs = tuple(coeff_of.get(m, RationalFunction(0)) for m in basis.monomials)
    combo = HomogeneousPoly(gens.num_vars, q.degree, dict(zip(basis.monomials, coeffs)))
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
        # each (i, gamma) is one Macaulay row, so one entry of the solution
        cofactors = tuple(
            HomogeneousPoly(nv, target_degree - g.degree,
                            {gamma: y for y, (gi, gamma, _) in zip(solution, tagged) if gi == i})
            for i, g in enumerate(gens.generators)
        )
        cert = NullstellensatzCertificate(u, RationalFunction(1), cofactors)
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
    """Whether the generators have a common projective zero over the
    algebraic closure, decided up to min(POSITION_CAP, lazard_degree).

    EmptyCertified(m) means the degree-m slice is everything, and no slice
    below it is, so the generators have no common projective zero.
    NonemptyAtCap means no slice is full up to min(POSITION_CAP,
    lazard_degree); since no first full slice lies past `lazard_degree`,
    when that degree is at most POSITION_CAP it also proves a common zero.

    Two shapes are decided before, or instead of, the walk over the slices:
    - The degree-1 generators have rank r >= M.  Modding out linear forms
      is a graded isomorphism, R/(L) = K[y] in M + 1 - r variables.  For
      r = M + 1 the degree-1 slice is full.  For r = M the linear forms cut
      P^M to one point P, and the ideal's image in K[y] is (y^e), e the
      least degree of a generator nonzero at P, so the first full slice has
      degree max(1, e).  P is the kernel line of the linear forms, with
      coprime Z[t] coordinates, and each generator of degree <= the cap is
      tested for zero at P by one integer (`zero_test_values`), lowest
      degree first.  Here the verdict is two-sided: NonemptyAtCap means
      P itself is a common zero, or e is past POSITION_CAP.  It prints as
      every other NonemptyAtCap does, so reports do not tell the two apart.
    - Exactly M + 1 generators, all of degree >= 1: without a common zero
      they form a regular sequence, whose quotient has Hilbert series
      prod (1 + s + ... + s^(d_i - 1)), nonzero up to degree D - 1 and zero
      from D = `lazard_degree` on (Bruns-Herzog, Cohen-Macaulay Rings); with
      one, no slice is ever full.  So the walk starts at D: only the slice
      of degree D is built, and none when D is past POSITION_CAP.
    Every other ideal walks the slices from degree 1.  All three give the
    verdict of that walk.
    """
    M = gens.num_vars - 1
    D = lazard_degree(gens)
    cap = min(POSITION_CAP, D)
    cut = Echelon(M + 1)  # the degree-1 generators, column i for X_i
    for g in gens.generators:
        if g.degree == 1:
            cut.add_row({mono.index(1): c for mono, c in g.primitive()[0].items()})
    if cut.rank == M + 1:
        return EmptinessVerdict(True, 1)
    if cut.rank == M:
        within = sorted(
            (g for g in gens.generators if g.degree != 1 and g.degree <= cap),
            key=lambda g: g.degree,
        )
        at_p = zero_test_values([g.primitive()[0] for g in within], cut.kernel_vector())
        for g, value in zip(within, at_p):
            if value:
                return EmptinessVerdict(True, max(1, g.degree))
        return EmptinessVerdict(False, None)
    shape = len(gens.generators) == M + 1 and all(g.degree for g in gens.generators)
    for m in range(D if shape else 1, cap + 1):
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
# (N+1)-subsets.  It bounds their number, not the time they take: a subset
# decided by its linear forms takes well under 1 ms, but one of three
# t-dependent quadrics on a quadric surface in P^3 took 0.35-0.56 s (2 vCPUs,
# Python 3.11.7), so a walk of such subsets at the limit takes 12 to 19
# minutes.
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
    (N+1)-subset of the divisors, so no piece above POSITION_CAP is built;
    more than MAX_POSITION_SUBSETS subsets are refused before any piece is
    built.  A failing subset is reported, and proven nonempty only where
    that check's verdict is two-sided.
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
