import random
from math import comb

import pytest

from ffsubspace.errors import NoCertificateWithinCap, ZeroPolynomial
from ffsubspace.function_field import RationalFunction
from ffsubspace.graded_ideal import (
    certificate_exponent_bound,
    hermann_cofactor_bound,
    IdealGenerators,
    check_subgeneral_position,
    graded_piece,
    has_common_projective_zero,
    hilbert_function,
    nullstellensatz_certificate,
    quotient_monomial_basis,
    reduce_to_quotient_basis,
)
from ffsubspace.multipoly import parse_poly
from helpers import rand_homog

CONIC = IdealGenerators.parse(3, ["X0*X2 - X1^2"])
LINES = [parse_poly(s, 3) for s in ["X0", "X1", "X2", "X0 + X1 + X2"]]


def test_graded_piece_examples():
    assert graded_piece(CONIC, 3).rank == 3
    assert graded_piece(IdealGenerators.of(3, ()), 2).rank == 0
    full = graded_piece(IdealGenerators.parse(2, ["X0", "X1"]), 1)
    assert full.rank == 2 and len(full.monomials) == 2


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


def test_rref_rows_shape():
    piece = graded_piece(CONIC, 2)
    rows = piece.rows()
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
    with pytest.raises(NoCertificateWithinCap):
        nullstellensatz_certificate(
            parse_poly("X0", 2), IdealGenerators.parse(2, ["X1"]), exponent_cap=5
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
    v = has_common_projective_zero(full, 3)
    assert v.certified_empty and v.certified_degree == 1
    assert not has_common_projective_zero(CONIC, 5).certified_empty
    pair = IdealGenerators.parse(3, ["X0", "X1"])
    assert not has_common_projective_zero(pair, 3).certified_empty


def test_position_examples():
    rep = check_subgeneral_position(CONIC, LINES, 2, 6)
    assert rep.in_position
    assert len(rep.subsets) == comb(4, 3)
    rep1 = check_subgeneral_position(CONIC, LINES, 1, 6)
    assert not rep1.in_position
    failing = [s.indices for s in rep1.failing_subsets()]
    assert (0, 1) in failing and (1, 2) in failing
    assert len(failing) == 2
    zero = IdealGenerators.of(3, ())
    assert check_subgeneral_position(zero, LINES[:3], 2, 4).in_position


def test_row_space_membership_properties():
    rng = random.Random(22)
    gens = IdealGenerators.parse(3, ["X0*X2 - X1^2", "t*X0^2 - X1*X2"])
    piece = graded_piece(gens, 4)
    # explicit combinations of monomial multiples always belong to the slice
    from ffsubspace.multipoly import HomogeneousPoly, monomial_basis

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
    assert hermann_cofactor_bound(2, 3) == 4**4      # (2d)^(2^M)
    assert hermann_cofactor_bound(4, 4) == 8**8


def test_generator_validation():
    with pytest.raises(ZeroPolynomial):
        IdealGenerators.parse(2, ["X0 - X0"])
