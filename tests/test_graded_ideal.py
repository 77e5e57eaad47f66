import random
import re
import time
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from ffsubspace import graded_ideal, upoly
from ffsubspace.errors import (
    InvariantViolated,
    NoCertificateWithinCap,
    PreconditionViolated,
    ZeroPolynomial,
)
from ffsubspace.function_field import RationalFunction
from ffsubspace.graded_ideal import (
    MAX_POSITION_SUBSETS,
    POSITION_CAP,
    certificate_exponent_bound,
    IdealGenerators,
    check_subgeneral_position,
    graded_piece,
    has_common_projective_zero,
    hilbert_function,
    lazard_degree,
    macaulay_upper,
    nullstellensatz_certificate,
    quotient_monomial_basis,
    reduce_to_quotient_basis,
)
from ffsubspace.linalg import Echelon
from ffsubspace.multipoly import HomogeneousPoly, monomial_basis, parse_poly
from helpers import rand_homog
from oracles import graded_piece_echelon, macaulay_bound, piece_rows, position_walk, rref_of

CONIC = IdealGenerators.parse(3, ["X0*X2 - X1^2"])
LINES = [parse_poly(s, 3) for s in ["X0", "X1", "X2", "X0 + X1 + X2"]]


def test_graded_piece_examples():
    assert graded_piece(CONIC, 3).rank == 3
    assert graded_piece(IdealGenerators.of(3, ()), 2).rank == 0
    full = graded_piece(IdealGenerators.parse(2, ["X0", "X1"]), 1)
    assert full.rank == 2 and len(full.monomials) == 2


_coefficients = st.builds(
    lambda num, den: RationalFunction(num, den) if any(den) else RationalFunction(num),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(any),
    st.lists(st.integers(-3, 3), max_size=2),
)


@st.composite
def _ideal_pieces(draw):
    """(gens, m, full): 1-3 forms of degree <= 3 in 2-4 variables with Q(t)
    coefficients, some with denominators.  With `full`, the powers
    c_i * X_i^(e_i) with sum (e_i - 1) < m come first: every monomial of
    degree m is a multiple of one of them, so the piece is full."""
    num_vars, m = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    gens, full = [], draw(st.booleans())
    if full:
        budget = m - 1
        for i in range(num_vars):
            e = draw(st.integers(1, 1 + budget))
            budget -= e - 1
            power = [e * (j == i) for j in range(num_vars)]
            gens.append(HomogeneousPoly.monomial(num_vars, power, draw(_coefficients)))
    for _ in range(draw(st.integers(1, 3))):
        basis = monomial_basis(num_vars, draw(st.integers(1, 3)))
        terms = draw(st.dictionaries(st.sampled_from(basis), _coefficients,
                                     min_size=1, max_size=3))
        gens.append(HomogeneousPoly(num_vars, sum(basis[0]), terms))
    return IdealGenerators.of(num_vars, tuple(gens)), m, full


@settings(max_examples=80, deadline=None)
@given(case=_ideal_pieces())
def test_graded_piece_matches_the_k_row_reference(case):
    # the rows enter over Z[t] and stop at full rank; the reference feeds
    # every K-row through primitive_row and never stops
    gens, m, full = case
    piece = graded_piece(gens, m)
    ref = graded_piece_echelon(gens, m)
    ech = piece.echelon
    assert not full or ech.rank == len(piece.monomials)
    assert (ech.rank, ech.pivot_cols(), rref_of(ech)) == (
        ref.rank, ref.pivot_cols(), rref_of(ref)
    )
    assert ech._pivots == ref._pivots


def test_a_full_piece_takes_no_row_past_full_rank(monkeypatch):
    # the twisted cubic and three of ideal-session's planes: the degree-2
    # piece is full after 11 of its 15 rows, and the last 4 are not built
    ranks, real = [], Echelon.add_row

    def spy(self, row):
        ranks.append(self.rank)
        return real(self, row)

    monkeypatch.setattr(Echelon, "add_row", spy)
    gens = IdealGenerators.parse(
        4, ["X0*X2 - X1^2", "X1*X3 - X2^2", "X0*X3 - X1*X2", "X0", "X3", "X1 + X2"]
    )
    piece = graded_piece.__wrapped__(gens, 2)
    assert piece.rank == len(piece.monomials) == 10
    assert len(ranks) == 11 and max(ranks) < 10


def test_graded_piece_cache_is_bounded():
    assert graded_piece.cache_info().maxsize is not None
    gens = IdealGenerators.parse(3, ["X0*X1 - X2^2"])
    first = graded_piece(gens, 5)
    hits = graded_piece.cache_info().hits
    assert graded_piece(gens, 5) is first
    assert graded_piece.cache_info().hits == hits + 1


def test_hilbert_examples():
    assert hilbert_function(CONIC, 3) == 7
    assert hilbert_function(IdealGenerators.of(3, ()), 2) == 6
    assert hilbert_function(CONIC, 1) == 3
    for m in range(1, 11):
        assert hilbert_function(CONIC, m) == 2 * m + 1


# (num_vars, generators, degree from which Gotzmann persistence holds)
PERSISTING = [
    (4, ["X0*X2 - X1^2", "X1*X3 - X2^2", "X0*X3 - X1*X2"], 4),  # twisted cubic
    (4, ["X0*X1 - X2*X3", "X0^2 + X1^2 - X2^2 - t*X3^2"], 6),  # elliptic quartic
    (3, ["X0*X1", "X2"], 2),  # two points
]
# H is 18 from degree 5 on, and 18^<k> = 18 only for k >= 18.
NOT_PERSISTING = (4, ["X0^2*X1 - t*X3^3", "X1*X2 - X0^2", "X3^2*X0"])


def _rank_value(gens, k):
    M = gens.num_vars - 1
    return comb(k + M, M) - graded_piece(gens, k).rank


def test_macaulay_upper_known_values():
    assert macaulay_upper(7, 2) == 11    # C(4,2) + C(1,1) -> C(5,3) + C(2,2)
    assert macaulay_upper(10, 3) == 15   # C(5,3) -> C(6,4)
    assert macaulay_upper(13, 4) == 16   # C(5,4) + C(4,3) + C(3,2) + C(1,1)
    for k in range(1, 8):
        assert macaulay_upper(0, k) == 0
        for M in range(1, 5):
            # the zero ideal: H(k) = C(k + M, M) is extremal at every degree
            assert macaulay_upper(comb(k + M, M), k) == comb(k + 1 + M, M)


@settings(max_examples=100, deadline=None)
@given(a=st.integers(0, 10**6), k=st.integers(1, 40), s=st.integers(0, 30))
@example(a=10**6, k=1, s=30)
@example(a=0, k=1, s=30)
def test_macaulay_upper_steps_equal_single_applications(a, k, s):
    # s steps read off one shifted representation equal s single
    # applications at k, k + 1, ..., k + s - 1; a single application is
    # checked against the bisection oracle, which also takes the later ones
    # (counting up to a top near 10^6 thirty times over would take 30 s)
    assert macaulay_upper(a, k) == macaulay_bound(a, k)
    expected = a
    for j in range(s):
        expected = macaulay_bound(expected, k + j)
    assert macaulay_upper(a, k, s) == expected
    assert macaulay_upper(a, k, 0) == a


@pytest.mark.parametrize("num_vars, texts", [
    (nv, texts) for nv, texts, _ in PERSISTING
] + [NOT_PERSISTING])
def test_hilbert_function_equals_the_ranks(num_vars, texts):
    gens = IdealGenerators.parse(num_vars, texts)
    for k in range(1, 17):
        assert hilbert_function(gens, k) == _rank_value(gens, k)


@pytest.mark.parametrize("num_vars, texts, start", PERSISTING)
def test_persistence_starts_where_expected(num_vars, texts, start):
    gens = IdealGenerators.parse(num_vars, texts)
    h = [_rank_value(gens, k) for k in range(start + 2)]
    assert h[start + 1] == macaulay_upper(h[start], start)
    assert all(h[k + 1] < macaulay_upper(h[k], k) for k in range(1, start))


def test_persistence_builds_no_piece_past_the_certificate(monkeypatch):
    built = []
    real = graded_ideal.graded_piece

    def spy(gens, m):
        built.append(m)
        return real(gens, m)

    monkeypatch.setattr(graded_ideal, "graded_piece", spy)
    cubic = IdealGenerators.parse(4, PERSISTING[0][1])
    assert hilbert_function(cubic, 16) == 49
    assert built == [2, 3, 4, 5]
    built.clear()
    assert hilbert_function(IdealGenerators.parse(4, NOT_PERSISTING[1]), 8) == 18
    assert built == list(range(3, 9))


def test_a_full_piece_ends_the_walk(monkeypatch):
    # H(4) = 0: every piece above is full, so degree 5 is not ranked
    built = []
    real = graded_ideal.graded_piece

    def spy(gens, m):
        built.append(m)
        return real(gens, m)

    monkeypatch.setattr(graded_ideal, "graded_piece", spy)
    gens = IdealGenerators.parse(3, ["X0^2", "X1^2", "X2^2"])
    assert hilbert_function(gens, 10) == 0
    assert built == [2, 3, 4]
    assert [hilbert_function(gens, k) for k in range(1, 6)] == [3, 3, 1, 0, 0]


# the twisted cubic under X0 -> X0 + t*X1, X1 -> X1 + (t+1)*X2,
# X2 -> X2 + t^2*X3, X3 fixed: its rows share factors in t
TWIST = {"X0": "(X0 + t*X1)", "X1": "(X1 + (t + 1)*X2)", "X2": "(X2 + t^2*X3)"}


def test_t_twisted_cubic_piece_does_not_blow_up_in_t():
    # A linear change of coordinates keeps the Hilbert function, 3k + 1.
    # Unless elimination removes each row's content in Z[t], not only its
    # integer content, the degree in t doubles at each pivot and this piece
    # takes more than 30 s.
    texts = [re.sub(r"X[0-2]", lambda v: TWIST[v.group()], s) for s in PERSISTING[0][1]]
    gens = IdealGenerators.parse(4, texts)
    start = time.perf_counter()
    assert graded_piece(gens, 6).rank == 65
    assert time.perf_counter() - start < 1.0
    for k in range(1, 7):
        assert hilbert_function(gens, k) == 3 * k + 1


@st.composite
def _monomial_ideals(draw):
    num_vars = draw(st.integers(2, 3))
    monomials = [m for d in (1, 2, 3) for m in monomial_basis(num_vars, d)]
    picks = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4))
    return IdealGenerators.of(num_vars, tuple(
        HomogeneousPoly.monomial(num_vars, m, 1) for m in picks
    ))


@settings(max_examples=40, deadline=None)
@given(gens=_monomial_ideals())
def test_macaulay_bounds_the_growth_of_ranks(gens):
    # Macaulay's theorem: H(k + 1) <= H(k)^<k> for every homogeneous ideal
    h = [_rank_value(gens, k) for k in range(7)]
    for k in range(1, 6):
        assert h[k + 1] <= macaulay_upper(h[k], k)


def test_rref_rows_shape():
    piece = graded_piece(CONIC, 2)
    rows = piece_rows(piece)
    assert len(rows) == 1 and len(rows[0]) == 6
    # the single relation pivots on X0*X2 in glex order
    assert piece.pivot_monomials() == [(1, 0, 1)]
    assert rows[0][2] == RationalFunction(1) and rows[0][3] == RationalFunction(-1)


def test_quotient_basis_examples():
    qb = quotient_monomial_basis(CONIC, 2)
    assert len(qb) == 5
    assert (1, 0, 1) not in qb.monomials  # the pivot of X0*X2 - X1^2
    assert quotient_monomial_basis(IdealGenerators.of(3, ()), 2).monomials == tuple(
        sorted([(2,0,0),(1,1,0),(1,0,1),(0,2,0),(0,1,1),(0,0,2)], reverse=True)
    )
    assert quotient_monomial_basis(IdealGenerators.parse(3, ["X0","X1","X2"]), 1).monomials == ()


def test_reduce_examples():
    # single relation: X0*X2 falls onto the quotient monomial X1^2
    r = reduce_to_quotient_basis(parse_poly("X0*X2", 3), CONIC)
    assert {m: c for m, c in zip(r.basis.monomials, r.coefficients) if c} == {
        (0, 2, 0): RationalFunction(1)
    }
    # quotient basis elements reduce to themselves
    r2 = reduce_to_quotient_basis(parse_poly("X1^2", 3), CONIC)
    assert [str(c) for c in r2.coefficients] == ["0", "0", "1", "0", "0"]
    # ideal members reduce to zero
    r3 = reduce_to_quotient_basis(parse_poly("X0^2*X2 - X0*X1^2", 3), CONIC)
    assert all(c.is_zero() for c in r3.coefficients)
    assert r3.alpha0 == RationalFunction(1)


def test_reduce_with_t_coefficients():
    gens = IdealGenerators.parse(3, ["t*X0*X2 - X1^2"])
    r = reduce_to_quotient_basis(parse_poly("X0*X2", 3), gens)
    nonzero = {m: c for m, c in zip(r.basis.monomials, r.coefficients) if c}
    assert nonzero == {(0, 2, 0): RationalFunction(1) / RationalFunction.t()}


def test_certificate_examples():
    cert = nullstellensatz_certificate(
        parse_poly("X0", 2), IdealGenerators.parse(2, ["X0 - X1", "X1"])
    )
    assert cert.exponent == 1
    assert [str(a) for a in cert.cofactors] == ["1", "1"]
    cert2 = nullstellensatz_certificate(
        parse_poly("X0", 2), IdealGenerators.parse(2, ["X0^2"])
    )
    assert cert2.exponent == 2 and [str(a) for a in cert2.cofactors] == ["1"]
    # (4d)^(M+2) = 64 for d = 1, M = 1: the search stops at the limit 12
    with pytest.raises(NoCertificateWithinCap, match="no certificate with exponent <= 12;"):
        nullstellensatz_certificate(parse_poly("X0", 2), IdealGenerators.parse(2, ["X1"]))


def test_certificate_cofactors_are_for_the_generators_themselves():
    # generators with content 2 and a denominator t + 1: the cofactors must
    # combine the g_i as given, not their primitive Z[t] multiples
    gens = IdealGenerators.parse(2, ["2*X0^2", "X1^2/(t + 1)"])
    p0 = parse_poly("X0 + X1", 2)
    cert = nullstellensatz_certificate(p0, gens)
    assert cert.exponent == 3
    assert cert.verify(p0, gens)


def test_failed_re_verification_raises(monkeypatch):
    monkeypatch.setattr(
        graded_ideal.NullstellensatzCertificate, "verify", lambda self, p0, gens: False
    )
    with pytest.raises(InvariantViolated, match="re-verification"):
        nullstellensatz_certificate(
            parse_poly("X0", 2), IdealGenerators.parse(2, ["X0 - X1", "X1"])
        )


def test_certificate_verifies_by_expansion():
    rng = random.Random(21)
    gens = IdealGenerators.parse(3, ["X0 - t*X1", "X1^2 - X2^2", "X1*X2"])
    cert = nullstellensatz_certificate(parse_poly("X2", 3), gens)
    assert cert.verify(parse_poly("X2", 3), gens)
    assert cert.exponent >= 2  # X2 itself is not in the ideal
    for _ in range(3):
        p0 = rand_homog(rng, 2, 1)
        full = IdealGenerators.parse(2, ["X0", "X1"])
        cert = nullstellensatz_certificate(p0, full)
        assert cert.verify(p0, full)


def test_emptiness_examples():
    full = IdealGenerators.parse(3, ["X0", "X1", "X2"])
    v = has_common_projective_zero(full)
    assert v.certified_empty and v.certified_degree == 1
    assert not has_common_projective_zero(CONIC).certified_empty
    pair = IdealGenerators.parse(3, ["X0", "X1"])
    assert not has_common_projective_zero(pair).certified_empty


@st.composite
def _small_systems(draw):
    """1-4 forms of degree 1-2 in 2-3 variables with a few small integer
    terms each: with and without a common zero, some with a zero in Q(t)."""
    num_vars = draw(st.integers(2, 3))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        basis = monomial_basis(num_vars, draw(st.integers(1, 2)))
        terms = draw(st.dictionaries(st.sampled_from(basis), st.integers(-2, 2).filter(bool),
                                     min_size=1, max_size=3))
        gens.append(HomogeneousPoly(num_vars, sum(basis[0]), terms))
    return IdealGenerators.of(num_vars, tuple(gens))


@settings(max_examples=60, deadline=None)
@given(gens=_small_systems())
def test_walk_cut_at_the_lazard_degree_keeps_the_verdict(gens):
    M = gens.num_vars - 1
    full = [
        m for m in range(1, POSITION_CAP + 1) if graded_piece(gens, m).rank == comb(m + M, M)
    ]
    verdict = has_common_projective_zero(gens)
    assert verdict.certified_empty == bool(full)
    assert verdict.certified_degree == (full[0] if full else None)
    assert not full or full[0] <= lazard_degree(gens)


_small_zpoly = st.lists(st.integers(-3, 3), max_size=2).map(upoly.strip)


@st.composite
def _position_subsets(draw):
    """Generators in 2-3 variables over Q(t), drawn around a point P with
    coordinates in Z[t]: linear forms through P or not, t-multiples and
    sums of earlier linear forms, forms of degree 2, 3 or 7 through P or
    not, and nonzero constants; or else exactly M + 1 forms of degree 2, 3
    or 7, all through P or not.  So the degree-1 rank r is below, at or
    above M, P may be a common zero, the least degree nonzero at P may lie
    past POSITION_CAP, and some subsets are exactly M + 1 forms."""
    nv = draw(st.integers(2, 3))
    point = draw(st.lists(_small_zpoly, min_size=nv, max_size=nv).filter(any))
    at = [RationalFunction(c) for c in point]
    j = next(i for i, c in enumerate(point) if c)

    def form(degree, through):
        basis = monomial_basis(nv, degree)
        terms = draw(st.dictionaries(st.sampled_from(basis), _coefficients,
                                     min_size=1, max_size=3))
        g = HomogeneousPoly(nv, degree, terms)
        if through:  # subtract g(P) / P_j^degree * X_j^degree
            power = tuple(degree * (i == j) for i in range(nv))
            g = g - HomogeneousPoly.monomial(nv, power, g.evaluate(at) / at[j] ** degree)
        return g

    degrees = st.sampled_from([2, 2, 2, 3, 7])
    if draw(st.integers(0, 3)) == 0:
        through = draw(st.booleans())
        forms = [form(draw(degrees), through) for _ in range(nv)]
        return IdealGenerators.of(nv, tuple(g for g in forms if g))
    gens = []
    for _ in range(draw(st.integers(1, nv + 2))):
        kind = draw(st.sampled_from(["line", "line", "copy", "form", "constant"]))
        lines = [g for g in gens if g.degree == 1]
        if kind == "copy" and lines:
            g = draw(st.sampled_from(lines)) * draw(_coefficients)
            if len(lines) > 1:
                g = g + draw(st.sampled_from(lines))
        elif kind == "constant":
            g = HomogeneousPoly.monomial(nv, (0,) * nv, draw(_coefficients))
        else:
            g = form(1 if kind != "form" else draw(degrees), draw(st.booleans()))
        if g:
            gens.append(g)
    return IdealGenerators.of(nv, tuple(gens))


@settings(max_examples=80, deadline=None)
@given(gens=_position_subsets())
# dependent linear forms: X0 + t*X1 = (X0 - t*X2) + t*(X1 + X2), r = M
@example(gens=IdealGenerators.parse(3, ["X0 - t*X2", "X1 + X2", "X0 + t*X1", "X1^2 - X0*X2"]))
# dependent linear forms with r < M, as exactly M + 1 forms with a common zero
@example(gens=IdealGenerators.parse(3, ["X0 + t*X1", "(t+1)*X0 + (t^2+t)*X1", "X2^2 - t*X0*X1"]))
# r = M + 1
@example(gens=IdealGenerators.parse(3, ["X0 + t*X1", "X1 - X2", "X2 + (t^2+1)*X0", "X0*X1"]))
# r = M, and every other generator vanishes at P = (1 : t : t^2)
@example(gens=IdealGenerators.parse(3, ["t*X0 - X1", "t*X1 - X2", "X0*X2 - X1^2",
                                        "X0^2*X2 - X0*X1^2"]))
# r = M, the least degree nonzero at P = (t : 1 : 1) is 7, past the cap
@example(gens=IdealGenerators.parse(3, ["X0 - t*X1", "X1 - X2", "X0*X2 - t*X1^2",
                                        "X0^7 + t*X2^7"]))
# a constant generator, with r < M and with r = M
@example(gens=IdealGenerators.parse(3, ["t + 1", "X0*X1"]))
@example(gens=IdealGenerators.parse(3, ["X0", "X1", "2*t"]))
# exactly M + 1 forms: with no common zero, with (1 : 0 : 0), and with D = 7
@example(gens=IdealGenerators.parse(3, ["X0^2 + t*X1^2", "X1^2 - X2^2 + X0*X1",
                                        "X2^2 + (t+1)*X0*X2"]))
@example(gens=IdealGenerators.parse(3, ["X1^2 + t*X0*X2", "X1*X2 + X0*X1", "X2^2 - t*X0*X1"]))
@example(gens=IdealGenerators.parse(3, ["X0^3 + t*X1^3", "X1^3 - X2^3", "X2^3 + X0*X1*X2"]))
def test_position_shapes_match_the_plain_walk(gens):
    assert has_common_projective_zero(gens) == position_walk(gens)


@pytest.mark.parametrize("texts, verdict, built", [
    (["X0 + t*X1", "X1 - X2", "X2 + (t^2+1)*X0", "X0*X1"], (True, 1), []),  # r = M + 1
    (["t*X0 - X1", "t*X1 - X2", "X0*X2 - X1^2"], (False, None), []),  # r = M, P on all
    (["X0 - t*X1", "X1 - X2", "X0*X2 - X1^2"], (True, 2), []),  # r = M, conic off P
    (["X0 - t*X1", "X1 - X2", "X0^7 + t*X2^7"], (False, None), []),  # r = M, degree 7
    (["X0^2 + t*X1^2", "X1^2 - X2^2 + X0*X1", "X2^2 + (t+1)*X0*X2"], (True, 4), [4]),
    (["X1^2 + t*X0*X2", "X1*X2 + X0*X1", "X2^2 - t*X0*X1"], (False, None), [4]),
    (["X0^3 + t*X1^3", "X1^3 - X2^3", "X2^3 + X0*X1*X2"], (False, None), []),  # D = 7
    (["X0*X2 - X1^2", "X0", "X1*X2", "X2^2"], (True, 2), [1, 2]),  # walked
])
def test_position_shapes_build_no_piece_below_their_degree(monkeypatch, texts, verdict, built):
    # r >= M is decided by the linear forms alone; exactly M + 1 forms build
    # only the piece at the Lazard degree D, and none when D > POSITION_CAP
    pieces, real = [], graded_ideal.graded_piece

    def spy(gens, m):
        pieces.append(m)
        return real(gens, m)

    monkeypatch.setattr(graded_ideal, "graded_piece", spy)
    gens = IdealGenerators.parse(3, texts)
    assert tuple(has_common_projective_zero(gens)) == verdict
    assert pieces == built


def test_lazard_degree_examples():
    assert lazard_degree(IdealGenerators.parse(3, ["X0*X2 - X1^2", "X0", "X1"])) == 2
    assert lazard_degree(IdealGenerators.parse(3, ["X0^3", "X1^2", "X2^2", "X0"])) == 5
    assert lazard_degree(IdealGenerators.parse(3, ["X0", "X1"])) == 0  # they meet
    assert lazard_degree(IdealGenerators.parse(3, ["X0", "2"])) == 1  # a unit


def test_position_examples():
    rep = check_subgeneral_position(CONIC, LINES, 2)
    assert rep.in_position
    assert len(rep.subsets) == comb(4, 3)
    rep1 = check_subgeneral_position(CONIC, LINES, 1)
    assert not rep1.in_position
    failing = [s.indices for s in rep1.failing_subsets()]
    assert (0, 1) in failing and (1, 2) in failing
    assert len(failing) == 2
    zero = IdealGenerators.of(3, ())
    assert check_subgeneral_position(zero, LINES[:3], 2).in_position


def test_position_walk_refuses_too_many_subsets(monkeypatch):
    def no_piece(gens, m):
        raise AssertionError("a graded piece was built")

    lines = [parse_poly(f"X0 + {k}*X1 + {k * k + 1}*X2", 3) for k in range(20)]
    assert comb(20, 3) <= MAX_POSITION_SUBSETS < comb(20, 5)
    graded_ideal.check_position_subsets(20, 2)  # accepted
    monkeypatch.setattr(graded_ideal, "graded_piece", no_piece)
    message = r"N = 4 gives C\(20, 5\) = 15504 subsets to check, more than 2000"
    with pytest.raises(PreconditionViolated, match=message):
        check_subgeneral_position(CONIC, lines, 4)


def test_row_space_membership_properties():
    rng = random.Random(22)
    gens = IdealGenerators.parse(3, ["X0*X2 - X1^2", "t*X0^2 - X1*X2"])
    piece = graded_piece(gens, 4)
    # explicit combinations of monomial multiples always belong to the slice
    for _ in range(8):
        total = HomogeneousPoly.zero(3, 4)
        for g in gens.generators:
            gamma = rng.choice(monomial_basis(3, 4 - g.degree))
            total = total + g * HomogeneousPoly.monomial(3, gamma, rng.randint(1, 5))
        if not total.is_zero():
            assert piece.contains(total)
    # a quotient monomial on its own never belongs
    for mono in quotient_monomial_basis(gens, 4).monomials:
        assert not piece.contains(HomogeneousPoly.monomial(3, mono, 1))


def test_certificate_exponent_is_minimal():
    for k in range(1, 6):
        cert = nullstellensatz_certificate(
            parse_poly("X0", 2), IdealGenerators.parse(2, [f"X0^{k}"])
        )
        assert cert.exponent == k


def test_degree_bound_constants():
    assert certificate_exponent_bound(2, 3) == 8**4  # (4d)^(M+2), M = 2


def test_generator_validation():
    with pytest.raises(ZeroPolynomial):
        IdealGenerators.parse(2, ["X0 - X0"])
