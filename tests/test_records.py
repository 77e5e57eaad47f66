"""The records' contract: fields are read-only, the four validating records
check every construction, and IdealGenerators, the key of `graded_piece`'s
cache, compares and hashes by value."""

import re
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import ForwardRef

import pytest

from ffsubspace.chow import chow_of_hypersurface, expand_skew, psigma_count_report
from ffsubspace.effective_constants import ConstantInputs
from ffsubspace.errors import NotHomogeneous, PreconditionViolated
from ffsubspace.filtration import (
    build_filtration,
    exponent_sum,
    filtration_inequality_check,
    height_sandwich_check,
    order_by_vanishing,
)
from ffsubspace.function_field import Place, ProjectivePoint, RationalFunction
from ffsubspace.graded_ideal import (
    IdealGenerators,
    graded_piece,
    nullstellensatz_certificate,
    quotient_monomial_basis,
    reduce_to_quotient_basis,
)
from ffsubspace.harness import load_scenario, run_check
from ffsubspace.hilbert_bounds import BoundInputs, ratio_check, threshold_a_eps
from ffsubspace.multipoly import parse_poly

SCENARIO = Path(__file__).resolve().parents[1] / "src/ffsubspace/scenarios/conic.json"
T = RationalFunction.t()

RECORDS = {
    "chow": ["MultiHomForm", "SkewExpansion", "SigmaCountReport"],
    "effective_constants": ["ConstantInputs", "EffectiveConstants"],
    "filtration": [
        "VanishingOrderPermutation", "FiltrationBasis", "ExponentSumReport",
        "FiltrationInequality", "PlaceSandwich", "HeightSandwichReport",
    ],
    "graded_ideal": [
        "IdealGenerators", "QuotientBasis", "ReductionResult",
        "NullstellensatzCertificate", "EmptinessVerdict", "SubsetVerdict", "PositionReport",
    ],
    "harness": ["Scenario", "PointRecord", "Report"],
    "hilbert_bounds": ["BoundInputs", "RatioCheck"],
}


@cache
def _instances():
    """One instance of every record, built by the code that returns it."""
    report = run_check(load_scenario(SCENARIO))
    scenario = report.scenario
    conic = scenario.x_gens
    chow_form = chow_of_hypersurface(conic.generators[0])
    expansion = expand_skew(chow_form)
    filtration = build_filtration(conic, 2, parse_poly("X0", 3))
    x, place = ProjectivePoint([1, T, T**2]), Place.parse("t")
    quotient = quotient_monomial_basis(conic, 2)
    sandwich = height_sandwich_check(quotient, x, 1, Fraction(1))
    line = IdealGenerators.parse(2, ["X0 - X1", "X1"])
    found = [
        report, scenario, report.points[0], report.inputs, report.constants,
        report.position, report.position.subsets[0], report.position.subsets[0].verdict,
        conic, chow_form, expansion, psigma_count_report(expansion),
        order_by_vanishing(place, scenario.divisors, x),
        filtration, exponent_sum(filtration, conic),
        filtration_inequality_check(place, x, filtration, conic),
        sandwich, sandwich.per_place[0], quotient,
        reduce_to_quotient_basis(parse_poly("X0*X1", 3), conic),
        nullstellensatz_certificate(parse_poly("X0", 2), line),
        BoundInputs(1, 2, 1, Fraction(1)), ratio_check({2: 5, 1: 3}, 2, 1, 1, 1),
    ]
    return {type(r).__name__: r for r in found}


def _fields(record):
    fields = getattr(record, "_fields", None)
    if fields is None:  # a __slots__ record
        fields = [name for name in type(record).__slots__ if not name.startswith("_")]
    return fields


def test_every_record_is_covered():
    expected = {name for names in RECORDS.values() for name in names}
    assert len(expected) == 23 and set(_instances()) == expected
    for module, names in RECORDS.items():
        for name in names:
            assert type(_instances()[name]).__module__ == f"ffsubspace.{module}"


@pytest.mark.parametrize("name", sorted(n for names in RECORDS.values() for n in names))
def test_fields_are_read_only(name):
    record = _instances()[name]
    assert _fields(record)
    for field in _fields(record):
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value


def test_record_fields_are_annotated_with_objects():
    # a string annotation (`from __future__ import annotations`) costs a
    # compiled ForwardRef per field when the NamedTuple is made, at import
    for record in _instances().values():
        annotations = getattr(type(record), "__annotations__", {})
        assert not any(isinstance(a, ForwardRef) for a in annotations.values())


def test_ideal_generators_check_their_generators():
    with pytest.raises(TypeError, match="generators must be HomogeneousPoly"):
        IdealGenerators(2, ("X0",))
    with pytest.raises(NotHomogeneous, match="generator in 2 vars, ideal in 3"):
        IdealGenerators.of(3, [parse_poly("X0", 2)])


def test_equal_ideal_generators_share_a_graded_piece():
    a = IdealGenerators.parse(3, ["X0*X2 - X1^2", "X0"])
    b = IdealGenerators.parse(3, ["X0*X2 - X1^2", "X0"])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != IdealGenerators.parse(3, ["X0", "X0*X2 - X1^2"])
    assert a != (a.num_vars, a.generators)
    assert graded_piece(a, 3) is graded_piece(b, 3)


INPUTS = dict(
    n=1, delta=2, M=2, N=2, q=4, d_i=(1, 1, 1, 1), epsilon=Fraction(1),
    s_card=2, s_degree=2, h_fx=Fraction(0), h_q_family=Fraction(0),
    h_q_i=(Fraction(0),) * 4, e_s_term=Fraction(0), c1=Fraction(0),
    c1_prime=Fraction(0), m=12,
)


@pytest.mark.parametrize("changes, message", [
    ({"q": 1}, "need q >= n+1, got q=1"),
    ({"d_i": (1, 1, 1)}, "d_i and h_q_i must list one entry per divisor"),
    ({"h_q_i": (Fraction(0),) * 5}, "d_i and h_q_i must list one entry per divisor"),
    ({"d_i": (1, 1, 1, 5)}, "need d | m and m >= max(3, (n+1)delta), got m=12"),
])
def test_constant_inputs_check_every_construction(changes, message):
    with pytest.raises(PreconditionViolated, match=re.escape(message)):
        ConstantInputs(**{**INPUTS, **changes})
    # _replace builds a new record too, through the same checks
    with pytest.raises(PreconditionViolated, match=re.escape(message)):
        ConstantInputs(**INPUTS)._replace(**changes)


@pytest.mark.parametrize("args, message", [
    ((0, 2, 1, Fraction(1)), "need n, delta, d >= 1"),
    ((1, 2, 0, Fraction(1)), "need n, delta, d >= 1"),
    ((1, 2, 1, Fraction(0)), "need epsilon > 0"),
])
def test_bound_inputs_check_every_construction(args, message):
    with pytest.raises(PreconditionViolated, match=re.escape(message)):
        BoundInputs(*args)
    with pytest.raises(PreconditionViolated, match=re.escape(message)):
        BoundInputs(1, 2, 1, Fraction(1))._replace(**dict(zip(BoundInputs._fields, args)))
    with pytest.raises(PreconditionViolated, match=re.escape(message)):
        threshold_a_eps(*args)
