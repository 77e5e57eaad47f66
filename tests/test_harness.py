import json
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ffsubspace.chow import chow_height, chow_of_hypersurface, multihomform_to_json
from ffsubspace.errors import SchemaError
from ffsubspace.function_field import (
    INFINITY,
    Place,
    RationalFunction,
    gauss_order_point,
    gauss_order_poly,
    height_point,
    height_poly_family,
)
from ffsubspace.harness import (
    _normalized_family,
    emit_report,
    fmt_q,
    has_violation,
    load_scenario,
    load_scenario_dict,
    report_to_dict,
    run_check,
)
from ffsubspace.multipoly import HomogeneousPoly, monomial_basis, parse_poly
from oracles import lcm_reduction

SCENARIO_PATH = Path(__file__).resolve().parents[1] / (
    "src/ffsubspace/scenarios/conic.json"
)


def conic_scenario_dict(points=None, **overrides):
    data = {
        "ambient_dim": 2,
        "variety": {"kind": "hypersurface", "F": "X0*X2 - X1^2"},
        "divisors": [
            {"poly": "X0", "degree": 1},
            {"poly": "X1", "degree": 1},
            {"poly": "X2", "degree": 1},
            {"poly": "X0 + X1 + X2", "degree": 1},
        ],
        "N": 2,
        "places": ["t", "inf"],
        "epsilon": "1",
        "points": points if points is not None else [["1", "t", "t^2"]],
    }
    data.update(overrides)
    return data


GOLDEN_DIR = Path(__file__).resolve().parent / "data"


def golden_scenario_dict():
    """Points [a^2 r : a b r : b^2 r] on the conic whose coordinates carry
    denominators and a shared factor, one point on divisor 2, one off the
    variety; a divisor with Q(t) coefficients; places of degree 1 and 2."""
    return conic_scenario_dict(
        points=[
            ["(t + 1)^2*(t - 3)/(2*t)", "(t + 1)*(t^2 - 2)*(t - 3)/(2*t)",
             "(t^2 - 2)^2*(t - 3)/(2*t)"],
            ["(t^2 + 1)/(t - 1)", "t*(t^2 + 1)/(t - 1)", "t^2*(t^2 + 1)/(t - 1)"],
            ["t^2/3", "t*(t - 1)/3", "(t - 1)^2/3"],
            ["(t^2 + 1)/t", "0", "0"],
            ["4*(t - 1)/(t^2 + 1)", "2*(t - 1)/(t^2 + 1)", "(t - 1)/(t^2 + 1)"],
            ["1", "1", "2"],
        ],
        divisors=[
            {"poly": "t*X0 + (t - 1)*X1 + X2/(t^2 + 1)", "degree": 1},
            {"poly": "X0 + X1 + X2", "degree": 1},
            {"poly": "X0 - 2*X1", "degree": 1},
            {"poly": "X0 + t*X2", "degree": 1},
        ],
        places=["t", "t - 1", "t^2 + 1", "inf"],
    )


def test_load_bundled_scenario():
    sc = load_scenario(SCENARIO_PATH)
    assert sc.ambient_dim == 2 and sc.variety_kind == "hypersurface"
    assert sc.dimension == 1 and sc.degree == 2
    assert len(sc.divisors) == 4 and sc.N == 2
    assert sc.places.cardinality == 2 and sc.epsilon == 1
    assert len(sc.points) == 20


def test_schema_missing_n():
    data = conic_scenario_dict()
    del data["N"]
    with pytest.raises(SchemaError) as err:
        load_scenario_dict(data)
    assert err.value.json_pointer == "/N"


def test_schema_inhomogeneous_divisor():
    data = conic_scenario_dict()
    data["divisors"][0]["poly"] = "X0 + X1^2"
    # the NotHomogeneous of the parse, raised at the divisor's pointer
    with pytest.raises(SchemaError, match=r"^mixed term degrees \[1, 2\]") as err:
        load_scenario_dict(data)
    assert err.value.json_pointer == "/divisors/0/poly"


def test_schema_degree_mismatch():
    data = conic_scenario_dict()
    data["divisors"][0]["degree"] = 3
    with pytest.raises(SchemaError) as err:
        load_scenario_dict(data)
    assert err.value.json_pointer == "/divisors/0/degree"


def test_schema_bad_point_length():
    data = conic_scenario_dict(points=[["1", "t"]])
    with pytest.raises(SchemaError) as err:
        load_scenario_dict(data)
    assert err.value.json_pointer == "/points/0"


def test_run_check_conic_point():
    report = run_check(load_scenario_dict(conic_scenario_dict()))
    assert report.position.in_position
    rec = report.points[0]
    assert rec.status == "evaluated"
    assert rec.height == 2 and rec.lhs == 6 and rec.rhs_main == 10
    assert rec.verdict == "InequalityHolds"
    tables = {str(p): [int(v) for v in vals] for p, vals in rec.weil_table}
    assert tables == {"t": [0, 1, 2, 0], "inf": [2, 1, 0, 0]}


def test_run_check_on_divisor_and_off_variety():
    # note [1:1:1] satisfies X0*X2 = X1^2, so the off-variety probe is [1:1:2]
    data = conic_scenario_dict(points=[["1", "0", "0"], ["1", "1", "2"]])
    report = run_check(load_scenario_dict(data))
    on_divisor, off_variety = report.points
    assert on_divisor.status == "on_divisor"
    assert on_divisor.verdict == "OnDivisor"
    assert on_divisor.vanishing_divisors == (1, 2)
    assert off_variety.status == "not_on_variety" and off_variety.verdict is None
    assert any("NotOnVariety" in w for w in report.warnings)


def test_report_json_shape():
    report = run_check(load_scenario_dict(conic_scenario_dict()))
    data = report_to_dict(report)
    point = data["points"][0]
    assert point["lhs"] == "6/1" and point["rhs_main"] == "10/1"
    assert point["weil"][0]["place"] == "t"
    assert data["constants"]["c_eps"] == "0/1"
    assert data["position"]["in_position"] is True
    text = emit_report(report, "json")
    assert json.loads(text) == data


def test_report_empty_points():
    report = run_check(load_scenario_dict(conic_scenario_dict(points=[])))
    data = report_to_dict(report)
    assert data["points"] == [] and data["constants"]["m"] >= 4


def test_report_text_renders_tables():
    report = run_check(load_scenario_dict(conic_scenario_dict()))
    text = emit_report(report, "text")
    assert "position: N = 2 certified" in text
    header_line = next(l for l in text.splitlines() if l.strip().startswith("place"))
    assert header_line.split() == ["place", "Q0", "Q1", "Q2", "Q3"]


def test_m_override_and_caps():
    data = conic_scenario_dict(constants_overrides={"m": 6, "c1_prime": "3/2"})
    report = run_check(load_scenario_dict(data))
    assert report.constants.m == 6
    assert report_to_dict(report)["position"]["degree_cap"] == 6
    # S(5) for the conic = 3 + 5 + 7 + 9 + 11 = 35
    assert report.constants.S_sum == 35
    assert report.constants.c_prime_eps == Fraction(2 * Fraction(3, 2), 35)
    # the position walk's bound is a constant, not an override
    data["constants_overrides"]["position_cap"] = 4
    with pytest.raises(SchemaError) as err:
        load_scenario_dict(data)
    assert err.value.json_pointer == "/constants_overrides"
    assert "'position_cap' was unexpected" in str(err.value)


def test_projective_space_scenario():
    data = {
        "ambient_dim": 1,
        "variety": {"kind": "projective_space"},
        "divisors": [
            {"poly": "X0", "degree": 1},
            {"poly": "X1", "degree": 1},
            {"poly": "X0 + X1", "degree": 1},
        ],
        "N": 1,
        "places": ["t", "inf"],
        "epsilon": "1/2",
        "points": [["1", "t^3"]],
    }
    report = run_check(load_scenario_dict(data))
    assert report.position.in_position
    assert report.scenario.dimension == 1 and report.scenario.degree == 1
    rec = report.points[0]
    assert rec.verdict == "InequalityHolds"
    assert rec.height == 3


def test_ideal_kind_requires_and_uses_chow_form():
    base = conic_scenario_dict()
    base["variety"] = {"kind": "ideal", "generators": ["X0*X2 - X1^2"]}
    with pytest.raises(SchemaError) as err:
        load_scenario_dict(base)
    assert err.value.json_pointer == "/variety/chow_form"
    fx = chow_of_hypersurface(parse_poly("X0*X2 - X1^2", 3))
    base["variety"]["chow_form"] = multihomform_to_json(fx)
    sc = load_scenario_dict(base)
    assert sc.dimension == 1 and sc.degree == 2
    report = run_check(sc)
    assert report.points[0].lhs == 6


def test_h_fx_is_read_without_a_chow_form():
    # P^12's Chow form det(u_0, ..., u_12) has 13! terms, all +-1: h(X) = 0
    M = 12
    sc = load_scenario_dict(conic_scenario_dict(
        points=[], ambient_dim=M, variety={"kind": "projective_space"},
        divisors=[{"poly": f"X{i}", "degree": 1} for i in range(M + 1)], N=M,
    ))
    assert sc.h_fx == 0 and (sc.dimension, sc.degree) == (M, 1)
    # a hypersurface's h(X) is h(F); an ideal's is its given form's height
    text = "t*X0*X2 - X1^2 + X0^2/(t - 1)"
    sc = load_scenario_dict(conic_scenario_dict(variety={"kind": "hypersurface", "F": text}))
    fx = chow_of_hypersurface(parse_poly(text, 3))
    assert sc.h_fx == chow_height(fx) == 2
    ideal = {"kind": "ideal", "generators": [text], "chow_form": multihomform_to_json(fx)}
    assert load_scenario_dict(conic_scenario_dict(variety=ideal)).h_fx == 2


def test_violation_when_out_of_position():
    # Four copies of the same divisor: the position warning fires, the run
    # continues, and the unprotected sum exceeds the main term.
    data = {
        "ambient_dim": 1,
        "variety": {"kind": "projective_space"},
        "divisors": [{"poly": "X1", "degree": 1}] * 4,
        "N": 1,
        "places": ["t", "inf"],
        "epsilon": "1",
        "points": [["1", "t"]],
    }
    report = run_check(load_scenario_dict(data))
    assert not report.position.in_position
    assert any("PositionCheckFailed" in w for w in report.warnings)
    assert report.points[0].verdict == "Violation"
    assert has_violation(report)


def test_degree_two_place_weighting():
    data = {
        "ambient_dim": 1,
        "variety": {"kind": "projective_space"},
        "divisors": [
            {"poly": "X0", "degree": 1},
            {"poly": "X1", "degree": 1},
            {"poly": "X0 + X1", "degree": 1},
        ],
        "N": 1,
        "places": ["t^2+1"],
        "epsilon": "1",
        "points": [["1", "t^2 + 1"]],
    }
    report = run_check(load_scenario_dict(data))
    rec = report.points[0]
    assert rec.height == 2  # deg(t^2+1)
    table = {str(p): [int(v) for v in vals] for p, vals in rec.weil_table}
    assert table == {"t^2 + 1": [0, 2, 0]}  # ord 1 at a degree-2 place
    assert rec.lhs == 2 and rec.rhs_main == 6
    assert rec.verdict == "InequalityHolds"


def test_cubic_surface_scenario():
    # a second shape entirely: n = 2, delta = 3, five planes in P^3
    data = {
        "ambient_dim": 3,
        "variety": {"kind": "hypersurface", "F": "X0^3 + X1^3 + X2^3 + X3^3"},
        "divisors": [
            {"poly": "X0", "degree": 1},
            {"poly": "X1", "degree": 1},
            {"poly": "X2", "degree": 1},
            {"poly": "X3", "degree": 1},
            {"poly": "X0 + 2*X1 + 4*X2 + 8*X3", "degree": 1},
        ],
        "N": 2,
        "places": ["t", "inf"],
        "epsilon": "1",
        "points": [["1", "-1", "t", "-t"], ["1", "-1", "t^4", "-t^4"]],
    }
    report = run_check(load_scenario_dict(data))
    assert report.scenario.dimension == 2 and report.scenario.degree == 3
    assert report.position.in_position
    assert all(s.verdict.certified_degree == 3 for s in report.position.subsets)
    k1, k4 = report.points
    assert (k1.height, k1.lhs, k1.rhs_main) == (1, 4, 7)
    assert (k4.height, k4.lhs, k4.rhs_main) == (4, 16, 28)
    assert all(r.verdict == "InequalityHolds" for r in report.points)


def test_report_carries_place_set_degree():
    data = conic_scenario_dict(places=["t^2+1", "inf"])
    payload = report_to_dict(run_check(load_scenario_dict(data)))
    assert payload["constants"]["s_card"] == 2
    assert payload["constants"]["s_degree"] == 3


def test_byte_stable_reports(tmp_path):
    a = emit_report(run_check(load_scenario(SCENARIO_PATH)), "json", tmp_path / "a.json")
    b = emit_report(run_check(load_scenario(SCENARIO_PATH)), "json", tmp_path / "b.json")
    assert a == b
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("fmt, name", [("json", "golden_report.json"), ("text", "golden_report.txt")])
def test_golden_report_bytes(fmt, name):
    report = run_check(load_scenario_dict(golden_scenario_dict()))
    assert emit_report(report, fmt).encode() == (GOLDEN_DIR / name).read_bytes()


def test_fmt_q():
    assert fmt_q(Fraction(6)) == "6/1"
    assert fmt_q(Fraction(-3, 2)) == "-3/2"
    assert fmt_q(3) == fmt_q(Fraction(3)) == "3/1"
    assert fmt_q(-4) == "-4/1"


def test_lhs_is_the_sum_of_the_int_weil_values_over_the_degrees():
    data = golden_scenario_dict()
    data["divisors"] = [
        {"poly": "X0", "degree": 1},
        {"poly": "X1", "degree": 1},
        {"poly": "X0^2 + t*X1^2 + X2^2", "degree": 2},
    ]
    data["places"] = ["t", "t - 1", "t^2 + 1", "inf"]
    report = run_check(load_scenario_dict(data))
    degrees = [1, 1, 2]
    evaluated = [r for r in report.points if r.status == "evaluated"]
    assert len(evaluated) >= 3
    assert any(r.lhs.denominator == 2 for r in evaluated)
    for rec in evaluated:
        assert all(type(lam) is int for _, row in rec.weil_table for lam in row)
        assert isinstance(rec.lhs, Fraction)
        assert rec.lhs == sum(
            (Fraction(lam, di) for _, row in rec.weil_table for lam, di in zip(row, degrees)),
            Fraction(0),
        )


# --- hypothesis property: the scalar family has the normalized family's
# height and Gauss orders

_zpoly = st.lists(st.integers(-6, 6), min_size=1, max_size=3).filter(any)
_elements = st.builds(RationalFunction, _zpoly, _zpoly)
FAMILY_PLACES = [Place.parse(p) for p in ("t", "t + 1", "t - 2", "t^2 + 1", "t^2 + t + 1")]


@st.composite
def _families(draw):
    """1-4 forms in 2-4 variables of degree 1-4, mixed so that d > 1 often,
    with 1-3 terms whose Q(t) coefficients carry denominators."""
    nv = draw(st.integers(2, 4))
    forms = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 4))
        keys = draw(st.lists(st.sampled_from(monomial_basis(nv, degree)),
                             min_size=1, max_size=3, unique=True))
        forms.append(HomogeneousPoly(nv, degree, {key: draw(_elements) for key in keys}))
    return forms


@settings(max_examples=60, deadline=None)
@given(qs=_families())
def test_scalar_family_matches_the_lcm_reduction(qs):
    reduction = lcm_reduction(qs)
    d = lcm(*(q.degree for q in qs))
    assert reduction.d == d
    family = _normalized_family(qs, d)
    assert height_point(family) == height_poly_family(reduction.normalized)
    for p in FAMILY_PLACES + [INFINITY]:
        assert gauss_order_point(p, family) == gauss_order_poly(p, reduction.normalized)
