import random

import pytest

from ffsubspace.chow import (
    MultiHomForm,
    apply_skew_to_point,
    chow_height,
    chow_of_hypersurface,
    chow_of_linear,
    coefficient_bound_report,
    expand_skew,
    multihomform_from_json,
    multihomform_to_json,
    psigma_count_report,
)
from ffsubspace.errors import DependentSpan
from ffsubspace.function_field import ProjectivePoint, RationalFunction
from ffsubspace.multipoly import parse_poly
from helpers import rand_k

T = RationalFunction.t()
CONIC_F = parse_poly("X0*X2 - X1^2", 3)


def e(i, n):
    return ProjectivePoint([1 if j == i else 0 for j in range(n)])


def test_chow_of_linear_examples():
    point = chow_of_linear([e(0, 3)])
    assert point.terms == {((1, 0, 0),): RationalFunction(1)}
    line = chow_of_linear([e(0, 3), e(1, 3)])
    assert line.terms == {
        ((1, 0, 0), (0, 1, 0)): RationalFunction(1),
        ((0, 1, 0), (1, 0, 0)): RationalFunction(-1),
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
    assert fx.blocks == 2 and fx.block_degrees == (2, 2)
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
        chow_of_hypersurface(CONIC_F) ** -1


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
    assert fx.blocks == 3 and fx.block_degrees == (1, 1, 1)
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


def test_coefficient_bound_with_t_scaled_entry():
    fx = chow_of_hypersurface(CONIC_F)
    key = max(fx.terms)
    terms = dict(fx.terms)
    terms[key] = terms[key] * T  # pull one coefficient out of Z
    scaled = MultiHomForm(fx.blocks, fx.vars_per_block, terms)
    expansion = expand_skew(scaled)  # asserts e_p(P_sigma) >= e_p(F_X) internally
    report = coefficient_bound_report(scaled, expansion)
    assert report and all(ok for _, _, _, ok in report)
    places = {str(p) for p, _, _, _ in report}
    assert places == {"t", "inf"}


def test_chow_height_examples():
    fx = chow_of_hypersurface(CONIC_F)
    assert chow_height(fx) == 0
    key = max(fx.terms)
    terms = dict(fx.terms)
    terms[key] = terms[key] * T
    assert chow_height(MultiHomForm(fx.blocks, fx.vars_per_block, terms)) == 1
    assert chow_height(fx.scale(T * T + 1)) == 0  # global scaling is invisible


def test_json_round_trip():
    fx = chow_of_hypersurface(CONIC_F)
    assert multihomform_from_json(multihomform_to_json(fx)) == fx
