import json
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ffsubspace import harness
from ffsubspace.chow import chow_height, chow_of_hypersurface, multihomform_to_json
from ffsubspace.errors import SchemaError
from ffsubspace.function_field import (
    INFINITY,
    Place,
    RationalFunction,
    gauss_order_poly,
    height_poly_family,
    power_family_height,
    power_family_order,
)
from ffsubspace.harness import (
    _normalized_family,
    emit_report,
    fmt_q,
    has_violation,
    int_text,
    json_text,
    load_scenario,
    load_scenario_dict,
    report_to_dict,
    run_check,
)
from ffsubspace.multipoly import HomogeneousPoly, monomial_basis, parse_poly, primitive_values
from helpers import int_digits_unlimited, workload_scenario
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
    assert sc.ambient_dim == 2 and sc.variety.kind == "hypersurface"
    assert sc.variety.dimension == 1 and sc.variety.degree == 2
    assert len(sc.divisors) == 4 and sc.N == 2
    assert len(sc.places) == 2 and sc.epsilon == 1
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


def test_points_are_placed_on_x_without_values_in_z_t(monkeypatch):
    # X's generators are only tested for zero, one integer each
    # (`zero_test_values`); Z[t] values are built for the divisors alone
    scenario = load_scenario_dict(workload_scenario("ideal-session", 1))
    reference = report_to_dict(run_check(scenario))
    seen = []

    def spy(forms, x):
        seen.append(forms)
        return primitive_values(forms, x)

    monkeypatch.setattr(harness, "primitive_values", spy)
    report = run_check(scenario)
    assert report_to_dict(report) == reference
    assert len(seen) == len(scenario.points) == 20
    assert all(forms is scenario.divisors for forms in seen)


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
    assert report.scenario.variety.dimension == 1 and report.scenario.variety.degree == 1
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
    assert sc.variety.dimension == 1 and sc.variety.degree == 2
    report = run_check(sc)
    assert report.points[0].lhs == 6


@pytest.mark.parametrize("divisors, cutoff, error", [
    (None, 12, "H(2) = 5"),
    ([{"poly": f"X{i}^2", "degree": 2} for i in range(3)]
     + [{"poly": "X0^2 + X1^2 + X2^2", "degree": 2}], 12, "H(2) = 5"),
    (None, 1, None),
])
def test_ideal_values_must_lie_within_the_bounds_of_its_chow_form(divisors, cutoff, error):
    # the conic's generator with a cubic's Chow form: H(k) = 2k + 1 leaves
    # [3k, 3k + 3] at k = 2, the first degree asked that the cutoff ranks
    base = conic_scenario_dict(constants_overrides={"hilbert_exact_cutoff": cutoff})
    cubic = chow_of_hypersurface(parse_poly("X0^3 + X1^3 + X2^3", 3))
    base["variety"] = {
        "kind": "ideal", "generators": ["X0*X2 - X1^2"], "chow_form": multihomform_to_json(cubic),
    }
    if divisors:
        base["divisors"] = divisors
    scenario = load_scenario_dict(base)
    if error is None:
        assert run_check(scenario).constants.m == 962
        return
    with pytest.raises(SchemaError) as err:
        run_check(scenario)
    assert err.value.json_pointer == "/variety/chow_form"
    assert str(err.value).startswith(f"{error} of the generators is outside [6, 9]")


def test_h_fx_is_read_without_a_chow_form():
    # P^12's Chow form det(u_0, ..., u_12) has 13! terms, all +-1: h(X) = 0
    M = 12
    sc = load_scenario_dict(conic_scenario_dict(
        points=[], ambient_dim=M, variety={"kind": "projective_space"},
        divisors=[{"poly": f"X{i}", "degree": 1} for i in range(M + 1)], N=M,
    ))
    assert sc.variety.h_fx == 0 and (sc.variety.dimension, sc.variety.degree) == (M, 1)
    # a hypersurface's h(X) is h(F); an ideal's is its given form's height
    text = "t*X0*X2 - X1^2 + X0^2/(t - 1)"
    sc = load_scenario_dict(conic_scenario_dict(variety={"kind": "hypersurface", "F": text}))
    fx = chow_of_hypersurface(parse_poly(text, 3))
    assert sc.variety.h_fx == chow_height(fx) == 2
    ideal = {"kind": "ideal", "generators": [text], "chow_form": multihomform_to_json(fx)}
    assert load_scenario_dict(conic_scenario_dict(variety=ideal)).variety.h_fx == 2


def out_of_position_scenario_dict(points=(["1", "t"],)):
    """Four copies of the divisor X1 on P^1, which no degree up to the cap
    certifies in 1-subgeneral position."""
    return {
        "ambient_dim": 1,
        "variety": {"kind": "projective_space"},
        "divisors": [{"poly": "X1", "degree": 1}] * 4,
        "N": 1,
        "places": ["t", "inf"],
        "epsilon": "1",
        "points": list(points),
    }


def test_violation_when_out_of_position():
    # Four copies of the same divisor: the position warning fires, the run
    # continues, and the unprotected sum exceeds the main term.
    report = run_check(load_scenario_dict(out_of_position_scenario_dict()))
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
    assert report.scenario.variety.dimension == 2 and report.scenario.variety.degree == 3
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


GOLDEN_SCENARIOS = {
    "golden_report": golden_scenario_dict,
    # a NOT certified position, a Violation and a point on every divisor
    "golden_out_of_position": lambda: out_of_position_scenario_dict([["1", "t"], ["1", "0"]]),
}


@pytest.mark.parametrize("fmt, name", [
    (fmt, stem + suffix) for stem in GOLDEN_SCENARIOS
    for fmt, suffix in [("json", ".json"), ("text", ".txt")]
])
def test_golden_report_bytes(fmt, name):
    scenario = GOLDEN_SCENARIOS[name.rpartition(".")[0]]()
    report = run_check(load_scenario_dict(scenario))
    assert emit_report(report, fmt).encode() == (GOLDEN_DIR / name).read_bytes()


# --- the indent-2 writer against json.dumps(obj, indent=2)

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**200), 2**200) | st.text(),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(obj=_json_values)
@example(obj={"": [], "a": {}, '"\\': ["\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600"]})
@example(obj=[10**1000, -(10**1000), True, False, None, [[[]]], [{}]])
@example(obj="tab\tnewline\n")
def test_json_text_matches_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


def test_json_text_refuses_what_it_does_not_write():
    for obj in (1.5, {1: 2}, {"a": {1, 2}}):
        with pytest.raises(TypeError):
            json_text(obj)


@pytest.mark.parametrize("data", [
    lambda: json.loads(SCENARIO_PATH.read_text()),
    golden_scenario_dict,
    lambda: workload_scenario("conic-points", 1),
], ids=["bundled-conic", "golden", "conic-50-points"])
def test_json_text_matches_json_dumps_on_reports(data):
    payload = report_to_dict(run_check(load_scenario_dict(data())))
    assert json_text(payload) == json.dumps(payload, indent=2)


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
    assert power_family_height(family) == height_poly_family(reduction.normalized)
    for p in FAMILY_PLACES + [INFINITY]:
        assert power_family_order(p, family) == gauss_order_poly(p, reduction.normalized)


@pytest.mark.parametrize("n", [
    0, -7, 10**4000 - 1, 10**4000, -(10**4000), 10**4000 + 1, 10**8000 + 10**3999,
    -(3 * 10**12345 + 10**4000 - 1), 2**30000,
], ids=range(9))  # the default ids would write the ints
def test_int_text_writes_every_digit_at_any_size(n):
    # past 4300 digits int.__repr__ raises ValueError; the interpreter's
    # limit is left as it was
    limit = sys.get_int_max_str_digits()
    text = int_text(n)
    assert sys.get_int_max_str_digits() == limit
    assert json_text([n]) == "[\n  " + text + "\n]"
    assert fmt_q(n) == fmt_q(Fraction(n)) == text + "/1"
    with int_digits_unlimited():
        assert text == str(n)
