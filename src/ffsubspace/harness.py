"""Scenario runner: load an instance, check position, assemble constants,
evaluate the subspace inequality point by point, and emit reports.

A scenario file fixes the ambient space, the variety (projective space, a
hypersurface, or explicit generators plus a supplied Chow form), the divisor
family, the place set S, epsilon, and the sample points.  The run is fully
deterministic: identical scenario files produce byte-identical JSON reports.

Scenarios (and `constants` inputs) are checked against a JSON schema before
any work, by a small stdlib validator for the keywords those schemas use.  It
follows Draft 2020-12, messages included, except that an integral float such
as 2.0 is not an integer.
"""

import json
import re
from fractions import Fraction
from functools import partial
from math import comb, lcm
from typing import NamedTuple

from .chow import MultiHomForm, chow_height, multihomform_from_json
from .effective_constants import ConstantInputs, EffectiveConstants, assemble_constants
from .errors import SchemaError
from .function_field import (
    PlaceSet,
    Place,
    ProjectivePoint,
    gauss_order_point,
    height_point,
    weil_rows,
)
from .graded_ideal import POSITION_CAP, IdealGenerators, check_subgeneral_position, hilbert_function
from .hilbert_bounds import chardin_upper, hypersurface_hilbert, sombra_lower
from .multipoly import parse_poly, primitive_values
from .parsing import parse_at, parse_rational

DEFAULT_EXACT_HILBERT_CUTOFF = 12

C1_CAVEAT = (
    "c1 and c1_prime come from the effective linear subspace theorem and are "
    "configuration inputs (default 0); c_eps and c_prime_eps are complete "
    "only when those inputs are supplied. The exceptional set of that "
    "theorem is not computed: the verdicts cover exactly the points listed."
)

SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["ambient_dim", "variety", "divisors", "N", "places", "epsilon", "points"],
    "additionalProperties": False,
    "properties": {
        "ambient_dim": {"type": "integer", "minimum": 1},
        "variety": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["projective_space", "hypersurface", "ideal"]},
                "F": {"type": "string"},
                "generators": {"type": "array", "items": {"type": "string"}},
                "chow_form": {
                    "type": "object",
                    "required": ["blocks", "vars_per_block", "terms"],
                    "additionalProperties": False,
                    "properties": {
                        "blocks": {"type": "integer", "minimum": 1},
                        "vars_per_block": {"type": "integer", "minimum": 2},
                        "terms": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "required": ["exponents", "coeff"],
                                "additionalProperties": False,
                                "properties": {
                                    "exponents": {
                                        "type": "array",
                                        "items": {
                                            "type": "array",
                                            "items": {"type": "integer", "minimum": 0},
                                        },
                                    },
                                    "coeff": {"type": "string"},
                                },
                            },
                        },
                    },
                },
            },
        },
        "divisors": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["poly", "degree"],
                "additionalProperties": False,
                "properties": {
                    "poly": {"type": "string"},
                    "degree": {"type": "integer", "minimum": 1},
                },
            },
        },
        "N": {"type": "integer", "minimum": 1},
        "places": {"type": "array", "minItems": 1, "items": {"type": "string"}},
        "epsilon": {"type": "string"},
        "points": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "string"}},
        },
        "constants_overrides": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "c1": {"type": "string"},
                "c1_prime": {"type": "string"},
                "m": {"type": "integer", "minimum": 2},
                "hilbert_exact_cutoff": {"type": "integer", "minimum": 1},
            },
        },
    },
}

# A bare variety file, as `chow --input` takes it: a scenario's variety
# object with the scenario's ambient_dim beside its keys.
_SCENARIO_KEYS = SCENARIO_SCHEMA["properties"]
VARIETY_FILE_SCHEMA = {
    **_SCENARIO_KEYS["variety"],
    "required": ["ambient_dim", *_SCENARIO_KEYS["variety"]["required"]],
    "properties": {
        "ambient_dim": _SCENARIO_KEYS["ambient_dim"], **_SCENARIO_KEYS["variety"]["properties"]
    },
}


class Scenario(NamedTuple):
    ambient_dim: int
    variety_kind: str
    x_gens: IdealGenerators
    h_fx: Fraction
    dimension: int
    degree: int
    divisors: tuple
    N: int
    places: PlaceSet
    epsilon: Fraction
    points: tuple
    c1: Fraction
    c1_prime: Fraction
    m_override: int | None
    hilbert_exact_cutoff: int


# An integer is an int that is not a bool.  Draft 2020-12 also counts 2.0 as
# an integer; here every count is used as a Python int, so 2.0 is refused.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
}


def _violations(data, schema, path=()):
    """Yield (path, at, message) for each violation of `schema` by `data`.

    Covers the keywords the scenario and constants schemas use, with the
    messages of the reference Draft 2020-12 validator, in schema-keyword
    order, depth first.  `path` is the node the keyword applies to; `at` is
    the node the message names, which differs only for `required`: there it
    is the missing key.
    """
    for keyword, value in schema.items():
        if keyword == "type":
            types = [value] if isinstance(value, str) else value
            if not any(_TYPES[t](data) for t in types):
                yield path, path, f"{data!r} is not of type {', '.join(map(repr, types))}"
        elif keyword == "enum":
            if data not in value:
                yield path, path, f"{data!r} is not one of {value!r}"
        elif keyword == "minimum":
            if isinstance(data, (int, float)) and not isinstance(data, bool) and data < value:
                yield path, path, f"{data!r} is less than the minimum of {value!r}"
        elif keyword == "pattern":
            if isinstance(data, str) and not re.search(value, data):
                yield path, path, f"{data!r} does not match {value!r}"
        elif keyword == "minItems":
            if isinstance(data, list) and len(data) < value:
                short = "should be non-empty" if value == 1 else "is too short"
                yield path, path, f"{data!r} {short}"
        elif keyword == "items":
            if isinstance(data, list):
                for i, item in enumerate(data):
                    yield from _violations(item, value, path + (i,))
        elif keyword == "required":
            if isinstance(data, dict):
                for key in value:
                    if key not in data:
                        yield path, path + (key,), f"{key!r} is a required property"
        elif keyword == "properties":
            if isinstance(data, dict):
                for key, sub in value.items():
                    if key in data:
                        yield from _violations(data[key], sub, path + (key,))
        elif keyword == "additionalProperties":
            if isinstance(data, dict):
                known = schema.get("properties", {})
                extras = sorted((k for k in data if k not in known), key=str)
                if value is False and extras:
                    names = ", ".join(map(repr, extras))
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, path, (
                        f"Additional properties are not allowed ({names} {verb} unexpected)"
                    )
                elif isinstance(value, dict):
                    for key in extras:
                        yield from _violations(data[key], value, path + (key,))
        elif keyword == "propertyNames":
            if isinstance(data, dict):
                for key in data:
                    yield from _violations(key, value, path)
        else:
            raise ValueError(f"schema keyword {keyword!r} is not supported")


def schema_validate(data, schema=SCENARIO_SCHEMA):
    """Raise SchemaError at the first violation of `schema`, in path order."""
    # min keeps the first of equal paths: schema-keyword order breaks ties
    first = min(_violations(data, schema), key=lambda v: v[0], default=None)
    if first is not None:
        _, at, message = first
        raise SchemaError(message, "/" + "/".join(map(str, at)))


def parse_fraction(text: str, pointer: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a rational: {text!r} ({exc})", pointer) from None


class Variety(NamedTuple):
    kind: str
    x_gens: IdealGenerators
    chow_form: MultiHomForm | None  # as given, for the ideal kind only
    h_fx: Fraction
    dimension: int
    degree: int


def parse_variety(variety: dict, M: int, at: str) -> Variety:
    """The variety object of a validated document, at JSON pointer `at`, as
    a subvariety of P^M: its ideal, h(X) = h(F_X), dimension and degree.
    Only an ideal's h(X) needs a Chow form: F_X = det(u_0, ..., u_M) of P^M
    has coefficients +-1, and F_X(u) = F(u_1 ^ ... ^ u_M) of {F = 0} has
    h(F_X) = h(F), each coefficient family spanning the other over Q."""
    nv = M + 1
    kind = variety["kind"]
    if kind == "projective_space":
        return Variety(kind, IdealGenerators.of(nv, ()), None, Fraction(0), M, 1)
    if kind == "hypersurface":
        if "F" not in variety:
            raise SchemaError("hypersurface variety needs F", f"{at}/F")
        f = parse_at(parse_poly, variety["F"], f"{at}/F", nv)
        if f.is_zero():
            raise SchemaError("F must be nonzero", f"{at}/F")
        if M < 2:
            raise SchemaError("hypersurface variety needs ambient_dim >= 2", "/ambient_dim")
        x_gens = IdealGenerators.of(nv, (f,))
        return Variety(kind, x_gens, None, Fraction(f.primitive()[1]), M - 1, f.degree)
    if "generators" not in variety:
        raise SchemaError("ideal variety needs generators", f"{at}/generators")
    if "chow_form" not in variety:
        raise SchemaError("ideal variety needs an explicit chow_form", f"{at}/chow_form")
    x_gens = IdealGenerators.of(nv, (
        parse_at(parse_poly, g, f"{at}/generators/{i}", nv)
        for i, g in enumerate(variety["generators"])
    ))
    chow = multihomform_from_json(variety["chow_form"], f"{at}/chow_form")
    if chow.vars_per_block != nv:
        raise SchemaError(
            "chow_form vars_per_block must equal ambient_dim + 1",
            f"{at}/chow_form/vars_per_block",
        )
    if chow.blocks > M:
        raise SchemaError(
            "chow_form blocks (dimension + 1) must be at most ambient_dim",
            f"{at}/chow_form/blocks",
        )
    return Variety(kind, x_gens, chow, chow_height(chow), chow.blocks - 1, chow.block_degree)


def load_variety_dict(data: dict) -> Variety:
    """Validate and parse an in-memory bare variety object."""
    schema_validate(data, VARIETY_FILE_SCHEMA)
    return parse_variety(data, data["ambient_dim"], "")


def load_scenario_dict(data: dict) -> Scenario:
    """Validate and parse an in-memory scenario object."""
    schema_validate(data)
    M = data["ambient_dim"]
    nv = M + 1
    variety = parse_variety(data["variety"], M, "/variety")

    divisors = []
    for i, dv in enumerate(data["divisors"]):
        poly = parse_at(parse_poly, dv["poly"], f"/divisors/{i}/poly", nv)
        if poly.is_zero():
            raise SchemaError("divisor must be nonzero", f"/divisors/{i}/poly")
        if poly.degree != dv["degree"]:
            raise SchemaError(
                f"divisor degree {poly.degree} != stated {dv['degree']}",
                f"/divisors/{i}/degree",
            )
        divisors.append(poly)
    if data["N"] >= len(divisors):  # as for `position --N`: an (N+1)-subset must exist
        raise SchemaError(f"N must lie in [1, {len(divisors) - 1}], got {data['N']}", "/N")

    first = {}  # place -> index of its first entry, in entry order
    for j, text in enumerate(data["places"]):
        p = parse_at(Place.parse, text, f"/places/{j}")
        if first.setdefault(p, j) != j:
            raise SchemaError(f"place {p} repeats /places/{first[p]}", f"/places/{j}")
    places = PlaceSet(first)
    epsilon = parse_fraction(data["epsilon"], "/epsilon")
    if epsilon <= 0:
        raise SchemaError("epsilon must be positive", "/epsilon")

    points = []
    for i, coords in enumerate(data["points"]):
        if len(coords) != nv:
            raise SchemaError(
                f"point needs {nv} coordinates, has {len(coords)}", f"/points/{i}"
            )
        points.append(parse_at(ProjectivePoint, [
            parse_at(parse_rational, c, f"/points/{i}/{j}") for j, c in enumerate(coords)
        ], f"/points/{i}"))

    overrides = data.get("constants_overrides", {})
    c1 = parse_fraction(overrides.get("c1", "0"), "/constants_overrides/c1")
    c1_prime = parse_fraction(
        overrides.get("c1_prime", "0"), "/constants_overrides/c1_prime"
    )

    return Scenario(
        ambient_dim=M,
        variety_kind=variety.kind,
        x_gens=variety.x_gens,
        h_fx=variety.h_fx,
        dimension=variety.dimension,
        degree=variety.degree,
        divisors=tuple(divisors),
        N=data["N"],
        places=places,
        epsilon=epsilon,
        points=tuple(points),
        c1=c1,
        c1_prime=c1_prime,
        m_override=overrides.get("m"),
        hilbert_exact_cutoff=overrides.get(
            "hilbert_exact_cutoff", DEFAULT_EXACT_HILBERT_CUTOFF
        ),
    )


def read_json(path):
    """The JSON document in the file at `path`.  Text that is not JSON, or
    that has an integer literal too long for Python to convert (a bare
    ValueError from `json`), is a SchemaError at the root."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # json.JSONDecodeError is a ValueError
            raise SchemaError(f"invalid JSON: {exc}", "") from None


def load_scenario(path) -> Scenario:
    return load_scenario_dict(read_json(path))


class PointRecord(NamedTuple):
    index: int
    point: ProjectivePoint
    status: str  # evaluated | on_divisor | not_on_variety
    vanishing_divisors: tuple = ()
    height: Fraction | None = None
    weil_table: tuple = ()  # ((place, (int lambda per divisor, ...)), ...)
    lhs: Fraction | None = None
    rhs_main: Fraction | None = None
    rhs_full: Fraction | None = None
    verdict: str | None = None


class Report(NamedTuple):
    scenario: Scenario
    position: object
    constants: EffectiveConstants
    inputs: ConstantInputs
    points: tuple
    warnings: tuple


def _exact_hilbert(scenario: Scenario, k: int) -> int | None:
    """H_X(k) where a closed form or a cheap rank gives it, else None.

    An ideal's exact value must lie within the Sombra and Chardin bounds of
    the dimension and degree its Chow form gives, or the bounds put in above
    the cutoff would not bound the same X: a SchemaError at the chow_form.
    """
    M = scenario.ambient_dim
    if scenario.variety_kind == "projective_space":
        return comb(k + M, M)
    if scenario.variety_kind == "hypersurface":
        return hypersurface_hilbert(k, M, scenario.degree)
    if k > scenario.hilbert_exact_cutoff:
        return None
    h = hilbert_function(scenario.x_gens, k)
    n, delta = scenario.dimension, scenario.degree
    low, high = sombra_lower(k, n, delta), chardin_upper(k, n, delta)
    if not low <= h <= high:
        raise SchemaError(
            f"H({k}) = {h} of the generators is outside [{low}, {high}], the "
            f"Sombra and Chardin bounds for the chow_form's dimension {n} and "
            f"degree {delta}",
            "/variety/chow_form",
        )
    return h


def _normalized_family(divisors, d: int) -> ProjectivePoint:
    """A point with the Gauss order of the family (Q_i/a_i)^(d/d_i) at every
    place, a_i the leading coefficient of Q_i, without building the forms.

    By Gauss's lemma e_p(F^k) = k e_p(F) at every place, infinity too, and
    k e_p(F) is e_p of the k-th powers of F's coefficients.
    """
    return ProjectivePoint([
        (c / q.leading_coefficient()) ** (d // q.degree)
        for q in divisors
        for c in q.coefficients()
    ])


def run_check(scenario: Scenario) -> Report:
    """Full pipeline: position check, constants, per-point inequality."""
    warnings = []

    position = check_subgeneral_position(scenario.x_gens, scenario.divisors, scenario.N)
    if not position.in_position:
        failing = [list(s.indices) for s in position.failing_subsets()]
        warnings.append(
            f"PositionCheckFailed: subsets {failing} not certified empty at "
            f"cap {POSITION_CAP}; constants may not be meaningful"
        )

    degrees = tuple(q.degree for q in scenario.divisors)
    d = lcm(*degrees)
    n = scenario.dimension

    h_q_i = tuple(Fraction(q.primitive()[1]) for q in scenario.divisors)
    family = _normalized_family(scenario.divisors, d)
    h_q_family = height_point(family)
    e_s_term = Fraction(
        sum(gauss_order_point(p, family) * p.degree for p in scenario.places)
    )

    inputs = ConstantInputs(
        n=n,
        delta=scenario.degree,
        M=scenario.ambient_dim,
        N=scenario.N,
        q=len(scenario.divisors),
        d_i=degrees,
        epsilon=scenario.epsilon,
        s_card=scenario.places.cardinality,
        s_degree=scenario.places.total_degree,
        h_fx=scenario.h_fx,
        h_q_family=h_q_family,
        h_q_i=h_q_i,
        e_s_term=e_s_term,
        c1=scenario.c1,
        c1_prime=scenario.c1_prime,
        m=scenario.m_override,
    )
    constants = assemble_constants(inputs, partial(_exact_hilbert, scenario))

    factor = scenario.N * (n + 1) + scenario.epsilon
    # lhs = sum lambda / d_i = (sum lambda * (d / d_i)) / d over the ints.
    weights = tuple(d // di for di in degrees)
    records = []
    for idx, x in enumerate(scenario.points):
        # Checks and values use primitive coordinates and primitive forms, in
        # Z[t]; records keep x as given.
        prim = x.primitive()
        if any(primitive_values(scenario.x_gens.generators, prim)):
            warnings.append(f"NotOnVariety: point {idx} skipped")
            records.append(PointRecord(idx, x, "not_on_variety"))
            continue
        values = primitive_values(scenario.divisors, prim)
        vanishing = tuple(i for i, value in enumerate(values) if not value)
        if vanishing:
            records.append(
                PointRecord(idx, x, "on_divisor", vanishing_divisors=vanishing,
                            verdict="OnDivisor")
            )
            continue
        rows = weil_rows(scenario.places, scenario.divisors, prim, values)
        lhs = Fraction(
            sum(lam * w for _, row in rows for lam, w in zip(row, weights)), d
        )
        h = height_point(prim)
        rhs_main = factor * h
        rhs_full = rhs_main + constants.c_prime_eps
        if lhs <= rhs_full:
            verdict = "InequalityHolds"
        elif h <= constants.c_eps:
            verdict = "HeightSmall"
        else:
            verdict = "Violation"
        records.append(
            PointRecord(
                idx,
                x,
                "evaluated",
                height=h,
                weil_table=rows,
                lhs=lhs,
                rhs_main=rhs_main,
                rhs_full=rhs_full,
                verdict=verdict,
            )
        )

    return Report(
        scenario=scenario,
        position=position,
        constants=constants,
        inputs=inputs,
        points=tuple(records),
        warnings=tuple(warnings),
    )


def fmt_q(x) -> str:
    """An int or a Fraction as 'numerator/denominator'."""
    if isinstance(x, int):
        return f"{x}/1"
    return f"{x.numerator}/{x.denominator}"


def position_to_dict(position) -> dict:
    """The JSON block of a position check, as in reports and the CLI."""
    return {
        "N": position.N,
        "degree_cap": POSITION_CAP,
        "in_position": position.in_position,
        "subsets": [
            {
                "indices": list(sub.indices),
                "empty_certified": sub.verdict.certified_empty,
                "certified_degree": sub.verdict.certified_degree,
            }
            for sub in position.subsets
        ],
    }


def constants_rows(constants: EffectiveConstants) -> list:
    """The (name, value) rows of the constants ledger shown to users."""
    c = constants
    return [
        ("a_eps", c.a_eps),
        ("m", c.m),
        ("b", c.b),
        ("excess_const", fmt_q(c.excess_const)),
        ("b1", fmt_q(c.b1)),
        ("b2", fmt_q(c.b2)),
        ("b3", fmt_q(c.b3)),
        ("S_sum", c.S_sum),
        ("c_eps", fmt_q(c.c_eps)),
        ("c_prime_eps", fmt_q(c.c_prime_eps)),
    ]


def report_to_dict(report: Report) -> dict:
    s = report.scenario
    c = report.constants
    i = report.inputs
    out = {
        "schema": "ffsubspace-report/1",
        "scenario": {
            "ambient_dim": s.ambient_dim,
            "variety_kind": s.variety_kind,
            "dimension": s.dimension,
            "degree": s.degree,
            "q": len(s.divisors),
            "N": s.N,
            "divisors": [str(q) for q in s.divisors],
            "places": [str(p) for p in s.places],
            "epsilon": fmt_q(s.epsilon),
            "num_points": len(s.points),
        },
        "position": position_to_dict(report.position),
        "constants": {
            "a_eps": c.a_eps,
            "m": c.m,
            "d": i.d,
            "d_i": list(i.d_i),
            "s_card": i.s_card,
            "s_degree": i.s_degree,
            "b": c.b,
            "excess_const": fmt_q(c.excess_const),
            "b1": fmt_q(c.b1),
            "b2": fmt_q(c.b2),
            "b3": fmt_q(c.b3),
            "S_sum": c.S_sum,
            "c1": fmt_q(i.c1),
            "c1_prime": fmt_q(i.c1_prime),
            "c_eps": fmt_q(c.c_eps),
            "c_prime_eps": fmt_q(c.c_prime_eps),
            "h_fx": fmt_q(i.h_fx),
            "h_q_family": fmt_q(i.h_q_family),
            "h_q_i": [fmt_q(h) for h in i.h_q_i],
            "e_s_term": fmt_q(i.e_s_term),
            "caveat": C1_CAVEAT,
        },
        "points": [],
        "warnings": list(report.warnings),
    }
    for rec in report.points:
        entry = {
            "index": rec.index,
            "coordinates": [str(cd) for cd in rec.point.coordinates],
            "status": rec.status,
        }
        if rec.status == "on_divisor":
            entry["vanishing_divisors"] = list(rec.vanishing_divisors)
            entry["verdict"] = rec.verdict
        elif rec.status == "evaluated":
            entry["height"] = fmt_q(rec.height)
            entry["weil"] = [
                {"place": str(p), "values": [fmt_q(v) for v in vals]}
                for p, vals in rec.weil_table
            ]
            entry["lhs"] = fmt_q(rec.lhs)
            entry["rhs_main"] = fmt_q(rec.rhs_main)
            entry["rhs_full"] = fmt_q(rec.rhs_full)
            entry["verdict"] = rec.verdict
        out["points"].append(entry)
    return out


def _text_table(rows, header) -> str:
    widths = [
        max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))
    ]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def report_to_text(report: Report) -> str:
    s = report.scenario
    lines = []
    lines.append(
        f"variety: {s.variety_kind} in P^{s.ambient_dim} "
        f"(dim {s.dimension}, degree {s.degree}); q = {len(s.divisors)}, N = {s.N}, "
        f"epsilon = {fmt_q(s.epsilon)}"
    )
    pos = "certified" if report.position.in_position else "NOT certified"
    lines.append(
        f"position: N = {report.position.N} {pos} (cap {POSITION_CAP})"
    )
    for sub in report.position.subsets:
        lines.append(f"  subset {list(sub.indices)}: {sub.verdict}")
    lines.append("constants:")
    for k, v in constants_rows(report.constants):
        lines.append(f"  {k:>12} = {v}")
    lines.append(f"  note: {C1_CAVEAT}")
    evaluated = [r for r in report.points if r.status == "evaluated"]
    if evaluated:
        lines.append("points:")
        header = ["idx", "h(x)", "lhs", "rhs_main", "rhs_full", "verdict"]
        rows = [
            [r.index, fmt_q(r.height), fmt_q(r.lhs), fmt_q(r.rhs_main),
             fmt_q(r.rhs_full), r.verdict]
            for r in evaluated
        ]
        lines.append(_text_table(rows, header))
        lines.append("per-place Weil tables (columns = divisors):")
        for r in evaluated:
            lines.append(f"  point {r.index} {r.point}:")
            header = ["place"] + [f"Q{i}" for i in range(len(s.divisors))]
            rows = [
                [str(p)] + [fmt_q(v) for v in vals] for p, vals in r.weil_table
            ]
            lines.append(
                "\n".join("    " + ln for ln in _text_table(rows, header).splitlines())
            )
    skipped = [r for r in report.points if r.status != "evaluated"]
    for r in skipped:
        extra = (
            f" (divisors {list(r.vanishing_divisors)})"
            if r.status == "on_divisor"
            else ""
        )
        lines.append(f"point {r.index}: {r.status}{extra}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"


def emit_report(report: Report, format: str = "json", path=None) -> str:
    """Serialize a report; writes to path when given, returns the text."""
    if format == "json":
        text = json.dumps(report_to_dict(report), indent=2) + "\n"
    elif format == "text":
        text = report_to_text(report)
    else:
        raise ValueError(f"unknown report format {format!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def has_violation(report: Report) -> bool:
    return any(r.verdict == "Violation" for r in report.points)
