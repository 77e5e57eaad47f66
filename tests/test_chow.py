import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ffsubspace import chow
from ffsubspace.chow import (
    MAX_SKEW_DEGREE,
    MAX_SKEW_PRODUCTS,
    MultiHomForm,
    _determinant,
    chow_height,
    chow_of_hypersurface,
    chow_of_linear,
    expand_skew,
    generalized_cross_product,
    multihomform_from_json,
    multihomform_to_json,
    psigma_count_report,
    skew_pairs,
    skew_product_count,
)
from ffsubspace.errors import (
    DegreeMismatch,
    DependentSpan,
    InvariantViolated,
    PreconditionViolated,
    SchemaError,
    VarCountMismatch,
)
from ffsubspace.function_field import ProjectivePoint, RationalFunction
from ffsubspace.multipoly import HomogeneousPoly, monomial_basis, parse_poly
from ffsubspace.parsing import parse_rational
from helpers import rand_k
from oracles import apply_skew_to_point, coefficient_bound_report
from test_twisted_cubic import twisted_cubic_chow

T = RationalFunction.t()
CONIC_F = parse_poly("X0*X2 - X1^2", 3)
GOLDEN_CHOW = Path(__file__).resolve().parent / "data" / "golden_chow.json"


def e(i, n):
    return ProjectivePoint([1 if j == i else 0 for j in range(n)])


def test_chow_of_linear_examples():
    point = chow_of_linear([e(0, 3)])
    assert point.terms == {(1, 0, 0): RationalFunction(1)}
    line = chow_of_linear([e(0, 3), e(1, 3)])
    assert line.terms == {
        (1, 0, 0, 0, 1, 0): RationalFunction(1),
        (0, 1, 0, 1, 0, 0): RationalFunction(-1),
    }
    p1 = chow_of_linear([e(0, 2), e(1, 2)])
    assert p1.block_degree == 1 and len(p1.terms) == 2
    with pytest.raises(DependentSpan):
        chow_of_linear([e(0, 3), e(0, 3)])


def test_chow_of_linear_vanishing_property():
    # hyperplanes through a common point of the span kill the form
    line = chow_of_linear([e(0, 3), e(1, 3)])
    x = [T, 1, 0]  # on the span
    u0 = [1, -T, 5]          # u0 . x = 0
    u1 = [2, -2 * T, T + 1]  # u1 . x = 0
    assert line.evaluate([u0, u1]).is_zero()
    # x0 = 0 and x1 = 0 meet at [0:0:1], which is off the span
    assert not line.evaluate([[1, 0, 0], [0, 1, 0]]).is_zero()


def test_chow_of_hypersurface_conic():
    fx = chow_of_hypersurface(CONIC_F)
    assert fx.blocks == 2 and fx.block_degree == 2
    # hyperplanes through a sampled point of the conic annihilate the form
    for s in [T, T + 1, T * T]:
        x = [1, s, s * s]
        u0 = [s, -1, 0]       # u0 . x = 0
        u1 = [0, s, -1]       # u1 . x = 0
        assert fx.evaluate([u0, u1]).is_zero()
    # x0 = 0 and x2 = 0 meet at [0:1:0], which is off the conic
    assert not fx.evaluate([[1, 0, 0], [0, 0, 1]]).is_zero()


def test_multihom_negative_power():
    with pytest.raises(ValueError):
        chow_of_hypersurface(CONIC_F).poly ** -1


def test_hypersurface_linear_agrees_with_linear_constructor():
    by_cross = chow_of_hypersurface(parse_poly("X0", 3))
    by_det = chow_of_linear([e(1, 3), e(2, 3)])
    ratio = None
    assert set(by_cross.terms) == set(by_det.terms)
    for key, v in by_cross.terms.items():
        r = v / by_det.terms[key]
        ratio = r if ratio is None else ratio
        assert r == ratio


def test_plane_in_p3():
    fx = chow_of_hypersurface(parse_poly("X0", 4))
    assert fx.blocks == 3 and fx.block_degree == 1
    # hyperplanes through a point of {X0 = 0} annihilate the form
    x = [RationalFunction(0), RationalFunction(1), T, T * T]
    u0 = [1, -T, 1, 0]
    u1 = [0, T, -1, 0]
    u2 = [0, 0, T, -1]
    for u in (u0, u1, u2):
        dot = sum((b * a for a, b in zip(u, x)), RationalFunction(0))
        assert dot.is_zero()
    assert fx.evaluate([u0, u1, u2]).is_zero()


def test_expand_skew_conic():
    fx = chow_of_hypersurface(CONIC_F)
    expansion = expand_skew(fx)
    for poly in expansion.entries.values():
        assert poly.degree == 4 and poly.num_vars == 3
    for k in range(1, 26):
        s = T + (k - 1)
        x = ProjectivePoint([1, s, s * s])
        assert all(p.evaluate(x).is_zero() for p in expansion.entries.values())
    off = ProjectivePoint([1, 0, 1])
    assert any(not p.evaluate(off).is_zero() for p in expansion.entries.values())


def test_expand_skew_point_in_p1():
    pt = chow_of_linear([e(0, 2)])
    expansion = expand_skew(pt)
    polys = list(expansion.entries.values())
    assert len(polys) == 1 and polys[0] == parse_poly("X1", 2)


def test_reconstruction_random():
    fx = chow_of_hypersurface(CONIC_F)
    expansion = expand_skew(fx)
    rng = random.Random(17)
    for _ in range(10):
        x = ProjectivePoint([rand_k(rng, 1) for _ in range(3)])
        svals = [[rand_k(rng, 1) for _ in expansion.pairs] for _ in range(2)]
        us = [apply_skew_to_point(expansion.pairs, sv, x) for sv in svals]
        assert fx.evaluate(us) == expansion.reconstruct(svals, x)


def test_count_report():
    expansion = expand_skew(chow_of_hypersurface(CONIC_F))
    rep = psigma_count_report(expansion)
    assert rep.stated_bound == 25
    assert rep.combinatorial_count == 36
    assert rep.actual_count <= rep.combinatorial_count
    point = expand_skew(chow_of_linear([e(0, 2)]))
    assert psigma_count_report(point).stated_bound == 1


def with_terms(form: MultiHomForm, terms) -> MultiHomForm:
    """A form of the same shape and degree with the given flat-key terms."""
    poly = HomogeneousPoly(form.poly.num_vars, form.poly.degree, terms)
    return MultiHomForm(form.blocks, form.vars_per_block, poly)


def t_scaled_conic():
    """The conic's Chow form with one coefficient pulled out of Z."""
    fx = chow_of_hypersurface(CONIC_F)
    key = max(fx.terms)
    terms = dict(fx.terms)
    terms[key] = terms[key] * T
    return with_terms(fx, terms)


def test_coefficient_bound_with_t_scaled_entry():
    scaled = t_scaled_conic()
    expansion = expand_skew(scaled)  # the bound holds by construction (see below)
    report = coefficient_bound_report(scaled, expansion)
    assert report and all(ok for _, _, _, ok in report)
    places = {str(p) for p, _, _, _ in report}
    assert places == {"t", "inf"}


# Irreducible factors for scaling Chow-form coefficients: places of degree
# 1, 2 and 3 (t^3 + 2 has no rational root).
_FACTORS = ["t", "t - 1", "2*t + 3", "t^2 + 1", "t^3 + 2"]


@st.composite
def _t_scaled_forms(draw):
    """The conic's or the twisted cubic's Chow form with 1-3 coefficients
    times a nonconstant element of Q(t): distinct irreducible factors, each
    to the power -1, 1 or 2, so nothing cancels."""
    form = draw(st.sampled_from([chow_of_hypersurface(CONIC_F), twisted_cubic_chow()]))
    terms = dict(form.terms)
    keys = draw(st.lists(st.sampled_from(sorted(terms)), min_size=1, max_size=3, unique=True))
    for key in keys:
        factors = draw(st.lists(st.sampled_from(_FACTORS), min_size=1, max_size=3, unique=True))
        for f in factors:
            terms[key] = terms[key] * parse_rational(f) ** draw(st.sampled_from([-1, 1, 2]))
    return with_terms(form, terms)


@settings(max_examples=8, deadline=None)
@given(form=_t_scaled_forms())
def test_coefficient_bound_holds_by_construction(form):
    # each coefficient of P_sigma is a Z-linear combination of F_X's
    # numerators over one common denominator, so ord_p of it is at least
    # the least ord_p of F_X's coefficients, at every place, inf included
    report = coefficient_bound_report(form, expand_skew(form))
    assert report and all(ok for _, _, _, ok in report)


def test_chow_height_examples():
    fx = chow_of_hypersurface(CONIC_F)
    assert chow_height(fx) == 0
    key = max(fx.terms)
    terms = dict(fx.terms)
    terms[key] = terms[key] * T
    assert chow_height(with_terms(fx, terms)) == 1
    scaled = MultiHomForm(fx.blocks, fx.vars_per_block, fx.poly.scale(T * T + 1))
    assert chow_height(scaled) == 0  # global scaling is invisible


def test_json_round_trip():
    fx = chow_of_hypersurface(CONIC_F)
    assert multihomform_from_json(multihomform_to_json(fx)) == fx


def golden_chow_dict():
    """The Chow layer's outputs on fixed inputs with Q(t) coefficients;
    `tests/data/golden_chow.json` holds them as recorded before `chow.py`
    moved onto the `multipoly` kernel, one top-level key per line."""
    span = [
        ProjectivePoint([parse_rational(c) for c in coords])
        for coords in (["1", "t", "0", "2"], ["0", "1", "t^2 + 1", "1/t"], ["3", "0", "1", "t"])
    ]
    scaled = t_scaled_conic()
    expansion = expand_skew(scaled)
    x = ProjectivePoint([parse_rational(c) for c in ("1", "t", "t^2 + 1/t")])
    skew = [parse_rational(c) for c in ("2", "t", "-1/(t + 1)")]
    return {
        "hypersurface_conic": multihomform_to_json(
            chow_of_hypersurface(parse_poly("t*X0*X2 - X1^2", 3))
        ),
        "hypersurface_cubic": multihomform_to_json(
            chow_of_hypersurface(parse_poly("X0^3 + t*X1^3 - X2^2*X3 + X3^3/(t - 1)", 4))
        ),
        "linear_line": multihomform_to_json(chow_of_linear(span[:2])),
        "linear_plane": multihomform_to_json(chow_of_linear(span)),
        "cross_products": [
            [multihomform_to_json(w) for w in generalized_cross_product(b, b + 1)]
            for b in (1, 2, 3)
        ],
        "skew_entries": {str(sigma): str(p) for sigma, p in expansion.entries.items()},
        "coefficient_bound": [
            [str(p), e_form, e_min, ok]
            for p, e_form, e_min, ok in coefficient_bound_report(scaled, expansion)
        ],
        "skew_point": [str(u) for u in apply_skew_to_point(skew_pairs(3), skew, x)],
    }


def test_golden_chow():
    assert golden_chow_dict() == json.loads(GOLDEN_CHOW.read_text())


def permutation_determinant(vectors) -> HomogeneousPoly:
    """det(u_i . b_j) by the permutation formula: k! products of k forms."""
    k, nv = len(vectors), len(vectors[0])

    def dot(i, b):  # u_i . b, with u_i the variables i*nv, ..., i*nv + nv - 1
        keys = (tuple(int(c == i * nv + j) for c in range(k * nv)) for j in range(nv))
        return HomogeneousPoly(k * nv, 1, dict(zip(keys, b)))

    det = HomogeneousPoly.zero(k * nv, k)
    for perm in itertools.permutations(range(k)):
        term = dot(0, vectors[perm[0]])
        for i in range(1, k):
            term = term * dot(i, vectors[perm[i]])
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        det = det + (-term if inversions % 2 else term)
    return det


def test_determinant_matches_the_permutation_formula():
    rng = random.Random(29)
    for k in range(1, 5):
        for nv in range(k, k + 2):
            vectors = [
                [rand_k(rng, 1) if rng.random() < 0.7 else RationalFunction(0) for _ in range(nv)]
                for _ in range(k)
            ]
            assert _determinant(vectors) == permutation_determinant(vectors)
    dependent = [[1, T, 0], [2, 2 * T, 0]]
    assert _determinant(dependent).is_zero() and permutation_determinant(dependent).is_zero()


def test_determinant_multiplies_no_forms(monkeypatch):
    def refuse(self, other):
        raise AssertionError("HomogeneousPoly product")

    monkeypatch.setattr(HomogeneousPoly, "__mul__", refuse)
    assert len(generalized_cross_product(3, 4)) == 4


# --- hypothesis property: the expansion reconstructs F_X(S^(0) x, ...)

_zpoly = st.lists(st.integers(-5, 5), min_size=1, max_size=2).filter(any)
_elements = st.builds(RationalFunction, _zpoly, _zpoly)


@st.composite
def _block_monomials(draw, nv, delta):
    cuts = sorted(draw(st.lists(st.integers(0, delta), min_size=nv - 1, max_size=nv - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [delta]))


@st.composite
def _skew_forms(draw):
    """Chow-form shapes, 1-3 blocks in 2-4 variables (blocks < variables),
    with Q(t) coefficients: random terms, a determinant, whose P_sigma
    cancel down to the span's ideal, or their sum."""
    blocks = draw(st.integers(1, 3))
    nv = draw(st.integers(blocks + 1, 4))
    delta = draw(st.integers(1, 2))
    keys = draw(st.lists(
        st.tuples(*[_block_monomials(nv, delta)] * blocks), min_size=1, max_size=4, unique=True,
    ))
    poly = HomogeneousPoly(blocks * nv, blocks * delta,
                           {sum(key, ()): draw(_elements) for key in keys})
    if delta == 1 and draw(st.booleans()):
        vectors = draw(st.lists(st.lists(_elements, min_size=nv, max_size=nv),
                                min_size=blocks, max_size=blocks))
        det = _determinant(vectors)
        poly = det if draw(st.booleans()) else poly + det
    return MultiHomForm(blocks, nv, poly)


@settings(max_examples=40, deadline=None)
@given(form=_skew_forms(), data=st.data())
def test_expansion_reconstructs_the_substitution(form, data):
    expansion = expand_skew(form)
    count = expansion.sigma_count  # read off the packed sums, before entries
    assert all(not p.is_zero() for p in expansion.entries.values())
    assert count == len(expansion.entries)
    x = data.draw(st.lists(_elements, min_size=form.vars_per_block,
                           max_size=form.vars_per_block))
    svals = data.draw(st.lists(
        st.lists(_elements, min_size=len(expansion.pairs), max_size=len(expansion.pairs)),
        min_size=form.blocks, max_size=form.blocks,
    ))
    us = [apply_skew_to_point(expansion.pairs, sv, x) for sv in svals]
    assert form.evaluate(us) == expansion.reconstruct(svals, x)


# --- hypothesis property: h(X) needs no Chow form for P^M or a hypersurface


@st.composite
def _hypersurfaces(draw):
    """Forms of degree 1-3 in P^2 or P^3 with 1-4 terms over Q(t)."""
    nv, degree = draw(st.integers(3, 4)), draw(st.integers(1, 3))
    keys = draw(st.lists(st.sampled_from(monomial_basis(nv, degree)),
                         min_size=1, max_size=4, unique=True))
    return HomogeneousPoly(nv, degree, {key: draw(_elements) for key in keys})


@settings(max_examples=60, deadline=None)
@given(f=_hypersurfaces())
def test_hypersurface_chow_height_is_the_height_of_f(f):
    # F_X(u) = F(u_1 ^ ... ^ u_M): each coefficient family spans the other over Q
    assert chow_height(chow_of_hypersurface(f)) == Fraction(f.primitive()[1])


@pytest.mark.parametrize("nv", range(2, 6))
def test_projective_space_chow_height_is_zero(nv):
    # det(u_0, ..., u_M) has coefficients +-1
    assert chow_height(chow_of_linear([e(i, nv) for i in range(nv)])) == 0


def test_skew_product_count():
    # the conic: 2 blocks of degree 2 in 3 variables; each row of S x has 2 terms
    conic = chow_of_hypersurface(CONIC_F)
    assert skew_product_count(conic) == sum(
        (3 if 2 in b0 else 4) * (3 if 2 in b1 else 4)
        for b0, b1 in map(conic.split, conic.terms)
    )
    assert skew_product_count(twisted_cubic_chow()) == 13556 <= MAX_SKEW_PRODUCTS
    single = MultiHomForm(2, 4, HomogeneousPoly.monomial(8, (40, 0, 0, 0, 0, 40, 0, 0)))
    assert skew_product_count(single) == 861**2


@pytest.mark.parametrize("key, message", [
    ([[40, 0, 0, 0], [0, 40, 0, 0]], "skew expansion of up to 741321 products exceeds the limit"),
    ([[MAX_SKEW_DEGREE + 1, 0]], f"degree {MAX_SKEW_DEGREE + 1} exceeds the limit"),
])
def test_oversized_expansion_is_refused(key, message):
    data = {"blocks": len(key), "vars_per_block": len(key[0]),
            "terms": [{"exponents": key, "coeff": "1"}]}
    with pytest.raises(PreconditionViolated, match=message):
        expand_skew(multihomform_from_json(data))


def test_sigma_degree_is_still_checked(monkeypatch):
    conic = chow_of_hypersurface(CONIC_F)
    monkeypatch.setattr(chow, "monomial_degree", lambda b: -1)
    with pytest.raises(InvariantViolated, match="is not of degree 2 in every block"):
        expand_skew(conic)


def test_repeated_term_is_a_schema_error():
    data = multihomform_to_json(chow_of_hypersurface(CONIC_F))
    data["terms"].append(dict(data["terms"][2], coeff="5"))
    with pytest.raises(SchemaError) as err:
        multihomform_from_json(data, "/variety/chow_form")
    assert err.value.json_pointer == f"/variety/chow_form/terms/{len(data['terms']) - 1}"
    assert "repeat those of term 2" in str(err.value)


def test_projective_space_expands_to_no_psigma():
    # X = P^M has no equations: its Chow form det(u_i . e_j), scaled by t or
    # not, has M + 1 blocks of M + 1 variables and a skew expansion that
    # cancels entirely, so no P_sigma and no coefficient-bound row.
    p1 = chow_of_linear([e(0, 2), e(1, 2)])
    scaled = MultiHomForm(2, 2, p1.poly.scale(T))
    assert scaled.terms == {(1, 0, 0, 1): T, (0, 1, 1, 0): -T}
    for form in (p1, scaled, chow_of_linear([e(0, 3), e(1, 3), e(2, 3)])):
        expansion = expand_skew(form)
        assert expansion.entries == {}
        assert coefficient_bound_report(form, expansion) == []


def test_mixed_block_degrees_are_refused():
    poly = HomogeneousPoly(6, 2, {(1, 0, 0, 1, 0, 0): 1, (2, 0, 0, 0, 0, 0): T})
    with pytest.raises(DegreeMismatch) as err:
        MultiHomForm(2, 3, poly)
    assert str(err.value) == "mixed block degrees (1, 1) vs (2, 0) in multihomogeneous form"
    unequal = HomogeneousPoly(6, 3, {(1, 0, 0, 2, 0, 0): 1, (0, 1, 0, 0, 0, 2): T})
    with pytest.raises(DegreeMismatch) as err:
        MultiHomForm(2, 3, unequal)
    assert str(err.value) == "unequal block degrees (1, 2) in multihomogeneous form"


def test_wrong_variable_count_is_refused():
    with pytest.raises(VarCountMismatch) as err:
        MultiHomForm(2, 3, CONIC_F)
    assert str(err.value) == "form in 3 variables, expected 2 blocks of 3"


@pytest.mark.parametrize("exponents", [[[1, 0, 1], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 0]]])
def test_bad_json_block_shape_is_refused(exponents):
    data = multihomform_to_json(chow_of_hypersurface(CONIC_F))
    data["terms"][1]["exponents"] = exponents
    with pytest.raises(SchemaError) as err:
        multihomform_from_json(data)
    assert err.value.json_pointer == "/terms/1/exponents"
    assert str(err.value) == f"bad block shape in term {exponents} (at /terms/1/exponents)"
