"""Scenario runner: load an instance, check position, assemble constants,
evaluate the subspace inequality point by point, and emit reports.

A scenario file fixes the ambient space, the variety (projective space, a
hypersurface, or explicit generators plus a supplied Chow form), the divisor
family, the place set S, epsilon, and the sample points.  The run is fully
deterministic: identical scenario files produce byte-identical JSON reports.
Every JSON document the package writes goes through `json_text`, which gives
the bytes of `json.dumps(obj, indent=2)` with strings escaped by the C
escaper.

Scenarios (and `constants` inputs) are checked against a JSON schema before
any work, by a small stdlib validator for the keywords those schemas use.  It
follows Draft 2020-12, messages included, except that an integral float such
as 2.0 is not an integer and that a message echoes at most 80 characters of
the offending value.
"""

import json
import re
from fractions import Fraction
from functools import partial
from math import lcm
from typing import NamedTuple

from .chow import MultiHomForm, chow_height, multihomform_from_json
from .effective_constants import ConstantInputs, EffectiveConstants, assemble_constants
from .errors import PreconditionViolated, SchemaError
from .function_field import (
    Place,
    ProjectivePoint,
    height_point,
    power_family_height,
    power_family_order,
    weil_rows,
)
from .graded_ideal import (
    POSITION_CAP,
    IdealGenerators,
    check_position_subsets,
    check_subgeneral_position,
    hilbert_function,
)
from .hilbert_bounds import chardin_upper, hypersurface_hilbert, sombra_lower
from .multipoly import parse_poly, primitive_values, zero_test_values
from .parsing import parse_at, parse_rational

DEFAULT_EXACT_HILBERT_CUTOFF = 12
# The largest cutoff a scenario may ask for.  The exact prefix costs about
# one Gotzmann walk per degree up to min(cutoff, m): `check` on the twisted
# cubic with cutoff = 10,000 takes 0.1-0.3 s inside `main`, at m = 10,000
# and at m = 10^6 alike, and a cutoff of 50,000 0.67 s (Python 3.11.7,
# 2 vCPUs).
MAX_EXACT_HILBERT_CUTOFF = 10_000

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
                "hilbert_exact_cutoff": {
                    "type": "integer", "minimum": 1, "maximum": MAX_EXACT_HILBERT_CUTOFF,
                },
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


class Variety(NamedTuple):
    """X in P^M as the report and the ledger read it: its kind, its ideal,
    h(X) = h(F_X), dimension n and degree delta, each kept only here."""

    kind: str
    x_gens: IdealGenerators
    chow_form: MultiHomForm | None  # as given, for the ideal kind only
    h_fx: Fraction
    dimension: int
    degree: int


class Scenario(NamedTuple):
    """A checked scenario file: X as its `variety`, in P^ambient_dim, and
    the divisors, places (the set S, in entry order), epsilon, points and
    overrides of the run."""

    ambient_dim: int
    variety: Variety
    divisors: tuple
    N: int
    places: tuple
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


# The most characters of an offending value a message echoes; a longer repr
# is cut there and marked with "...".
_ECHO_LIMIT = 80


def _echo(data) -> str:
    """repr(data), cut at _ECHO_LIMIT characters."""
    text = repr(data)
    return text if len(text) <= _ECHO_LIMIT else text[:_ECHO_LIMIT] + "..."


def _violations(data, schema, path=()):
    """Yield (path, at, message) for each violation of `schema` by `data`.

    Covers the keywords the scenario and constants schemas use, with the
    messages of the reference Draft 2020-12 validator, in schema-keyword
    order, depth first, except that an offending value is echoed cut at
    _ECHO_LIMIT characters (`_echo`).  `path` is the node the keyword
    applies to; `at` is the node the message names, which differs only for
    `required`: there it is the missing key.
    """
    for keyword, value in schema.items():
        if keyword == "type":
            if isinstance(value, str):  # the one-type case, most nodes
                if not _TYPES[value](data):
                    yield path, path, f"{_echo(data)} is not of type {value!r}"
            elif not any(_TYPES[t](data) for t in value):
                yield path, path, f"{_echo(data)} is not of type {', '.join(map(repr, value))}"
        elif keyword == "enum":
            if data not in value:
                yield path, path, f"{_echo(data)} is not one of {value!r}"
        elif keyword == "minimum":
            if isinstance(data, (int, float)) and not isinstance(data, bool) and data < value:
                yield path, path, f"{_echo(data)} is less than the minimum of {value!r}"
        elif keyword == "maximum":
            if isinstance(data, (int, float)) and not isinstance(data, bool) and data > value:
                yield path, path, f"{_echo(data)} is greater than the maximum of {value!r}"
        elif keyword == "pattern":
            if isinstance(data, str) and not re.search(value, data):
                yield path, path, f"{_echo(data)} does not match {value!r}"
        elif keyword == "minItems":
            if isinstance(data, list) and len(data) < value:
                short = "should be non-empty" if value == 1 else "is too short"
                yield path, path, f"{_echo(data)} {short}"
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
    try:
        check_position_subsets(len(divisors), data["N"])
    except PreconditionViolated as exc:
        raise SchemaError(str(exc), "/N") from None

    first = {}  # place -> index of its first entry, in entry order
    for j, text in enumerate(data["places"]):
        p = parse_at(Place.parse, text, f"/places/{j}")
        if first.setdefault(p, j) != j:
            raise SchemaError(f"place {p} repeats /places/{first[p]}", f"/places/{j}")
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
        variety=variety,
        divisors=tuple(divisors),
        N=data["N"],
        places=tuple(first),
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
    """The JSON document in the file at `path`.  Text that is not JSON, that
    has an integer literal too long for Python to convert (a bare
    ValueError from `json`), or that nests past the recursion limit of
    `json`'s decoder is a SchemaError at the root."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # json.JSONDecodeError is a ValueError
            raise SchemaError(f"invalid JSON: {exc}", "") from None
        except RecursionError:
            raise SchemaError("invalid JSON: nested too deeply", "") from None


_escape = json.encoder.encode_basestring_ascii  # CPython's C escaper
_CHUNK_DIGITS = 4000
_CHUNK = 10**_CHUNK_DIGITS


def int_text(n: int) -> str:
    """The exact decimal digits of n at any size.  Past the interpreter's
    digit limit (4300 by default) int.__repr__ raises ValueError, so such
    an n is written in zero-padded chunks of 4000 digits; the limit itself
    is left as it is."""
    try:
        return int.__repr__(n)
    except ValueError:
        pass
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(int.__repr__(low).zfill(_CHUNK_DIGITS))
    chunks.append(int.__repr__(n))
    return sign + "".join(reversed(chunks))


def json_text(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, for str-keyed dicts, lists,
    tuples, str, int, bool and None; `indent` is the newline and indentation
    of obj's own line.  Strings go through the C escaper, while
    `json.dumps` runs its pure-Python encoder whenever indent is set."""
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int_text(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            _escape(k) + ": " + (_escape(v) if type(v) is str else json_text(v, inner))
            for k, v in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_escape(v) if type(v) is str else json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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

    As a source for `assemble_constants`, with G the Sombra bound of X's n
    and delta, the Hilbert function of a degree-delta hypersurface in
    P^(n+1), and E (`_hilbert_exceptions`) where H may differ from G:
    - P^M (n = M, delta = 1) and a hypersurface (n = M - 1): G itself, as
      `hypersurface_hilbert(k, n + 1, delta)`; for P^M, a hyperplane in
      P^(M+1), that is C(k + M, M) at every k >= 0;
    - an ideal: the rank value up to the cutoff, then None (G stands in).

    An ideal's exact value must lie within the Sombra and Chardin bounds of
    the dimension and degree its Chow form gives, or the bounds put in above
    the cutoff would not bound the same X: a SchemaError at the chow_form.
    """
    X = scenario.variety
    n, delta = X.dimension, X.degree
    if X.kind != "ideal":
        return hypersurface_hilbert(k, n + 1, delta)
    if k > scenario.hilbert_exact_cutoff:
        return None
    h = hilbert_function(X.x_gens, k)
    low, high = sombra_lower(k, n, delta), chardin_upper(k, n, delta)
    if not low <= h <= high:
        raise SchemaError(
            f"H({k}) = {h} of the generators is outside [{low}, {high}], the "
            f"Sombra and Chardin bounds for the chow_form's dimension {n} and "
            f"degree {delta}",
            "/variety/chow_form",
        )
    return h


def _hilbert_exceptions(scenario: Scenario):
    """E for `assemble_constants`, the degrees, ascending, where
    `_exact_hilbert` may differ from the Sombra bound G: an ideal's exact
    prefix, and none for P^M or a hypersurface, which are G at every k >= 1."""
    if scenario.variety.kind == "ideal":
        return range(1, scenario.hilbert_exact_cutoff + 1)
    return ()


def _normalized_family(divisors, d: int) -> tuple:
    """The family (Q_i/a_i)^(d/d_i), a_i the leading coefficient of Q_i, as
    the pairs (c/a_i, d/d_i) over the coefficients c of each Q_i: the point
    of the powers, which `power_family_order` and `power_family_height`
    read without building the forms or the powers.

    By Gauss's lemma e_p(F^k) = k e_p(F) at every place, infinity too, and
    k e_p(F) is e_p of the k-th powers of F's coefficients.
    """
    return tuple(
        (c / q.leading_coefficient(), d // q.degree)
        for q in divisors
        for c in q.coefficients()
    )


def run_check(scenario: Scenario) -> Report:
    """Full pipeline: position check, constants, per-point inequality."""
    warnings = []
    X = scenario.variety

    position = check_subgeneral_position(X.x_gens, scenario.divisors, scenario.N)
    if not position.in_position:
        failing = [list(s.indices) for s in position.failing_subsets()]
        warnings.append(
            f"PositionCheckFailed: subsets {failing} not certified empty at "
            f"cap {POSITION_CAP}; constants may not be meaningful"
        )

    degrees = tuple(q.degree for q in scenario.divisors)
    d = lcm(*degrees)
    n = X.dimension

    h_q_i = tuple(Fraction(q.primitive()[1]) for q in scenario.divisors)
    family = _normalized_family(scenario.divisors, d)
    h_q_family = power_family_height(family)
    e_s_term = Fraction(
        sum(power_family_order(p, family) * p.degree for p in scenario.places)
    )

    inputs = ConstantInputs(
        n=n,
        delta=X.degree,
        M=scenario.ambient_dim,
        N=scenario.N,
        q=len(scenario.divisors),
        d_i=degrees,
        epsilon=scenario.epsilon,
        s_card=len(scenario.places),
        s_degree=sum(p.degree for p in scenario.places),
        h_fx=X.h_fx,
        h_q_family=h_q_family,
        h_q_i=h_q_i,
        e_s_term=e_s_term,
        c1=scenario.c1,
        c1_prime=scenario.c1_prime,
        m=scenario.m_override,
    )
    constants = assemble_constants(
        inputs, partial(_exact_hilbert, scenario), _hilbert_exceptions(scenario)
    )

    factor = scenario.N * (n + 1) + scenario.epsilon
    # lhs = sum lambda / d_i = (sum lambda * (d / d_i)) / d over the ints.
    weights = tuple(d // di for di in degrees)
    x_terms = [g.primitive()[0] for g in X.x_gens.generators]
    records = []
    for idx, x in enumerate(scenario.points):
        # Checks and values use primitive coordinates and primitive forms, in
        # Z[t]; records keep x as given.
        if any(zero_test_values(x_terms, x.primitive()[0])):
            warnings.append(f"NotOnVariety: point {idx} skipped")
            records.append(PointRecord(idx, x, "not_on_variety"))
            continue
        values = primitive_values(scenario.divisors, x)
        vanishing = tuple(i for i, value in enumerate(values) if not value)
        if vanishing:
            records.append(
                PointRecord(idx, x, "on_divisor", vanishing_divisors=vanishing,
                            verdict="OnDivisor")
            )
            continue
        rows = weil_rows(scenario.places, scenario.divisors, x, values)
        lhs = Fraction(
            sum(lam * w for _, row in rows for lam, w in zip(row, weights)), d
        )
        h = height_point(x)
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
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # past the digit limit of int.__repr__
        return f"{int_text(x.numerator)}/{int_text(x.denominator)}"


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


# The constants ledger shown to users, row by row: the counts as ints, the
# others as 'numerator/denominator'.
_LEDGER = (
    ("a_eps", int), ("m", int), ("b", int), ("excess_const", fmt_q), ("b1", fmt_q),
    ("b2", fmt_q), ("b3", fmt_q), ("S_sum", int), ("c_eps", fmt_q), ("c_prime_eps", fmt_q),
)


def constants_rows(constants: EffectiveConstants) -> list:
    """The (name, value) rows of the constants ledger shown to users."""
    return [(k, text(getattr(constants, k))) for k, text in _LEDGER]


def report_to_dict(report: Report) -> dict:
    s = report.scenario
    X = s.variety
    c = report.constants
    i = report.inputs
    # each place is formatted once, however many Weil rows name it
    place_text = {p: str(p) for p in s.places}
    out = {
        "schema": "ffsubspace-report/1",
        "scenario": {
            "ambient_dim": s.ambient_dim,
            "variety_kind": X.kind,
            "dimension": X.dimension,
            "degree": X.degree,
            "q": len(s.divisors),
            "N": s.N,
            "divisors": [str(q) for q in s.divisors],
            "places": list(place_text.values()),
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
                {"place": place_text[p], "values": [fmt_q(v) for v in vals]}
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
    """The strings and ints of `report_to_dict`, laid out for reading."""
    out = report_to_dict(report)
    s, pos, c = out["scenario"], out["position"], out["constants"]
    lines = [
        f"variety: {s['variety_kind']} in P^{s['ambient_dim']} "
        f"(dim {s['dimension']}, degree {s['degree']}); q = {s['q']}, N = {s['N']}, "
        f"epsilon = {s['epsilon']}",
        f"position: N = {pos['N']} {'certified' if pos['in_position'] else 'NOT certified'} "
        f"(cap {pos['degree_cap']})",
    ]
    # a verdict's text is its EmptinessVerdict's, which the JSON leaves out
    lines += [f"  subset {list(sub.indices)}: {sub.verdict}" for sub in report.position.subsets]
    lines.append("constants:")
    for k, _ in _LEDGER:
        lines.append(f"  {k:>12} = {c[k] if isinstance(c[k], str) else int_text(c[k])}")
    lines.append(f"  note: {c['caveat']}")
    evaluated = [p for p in out["points"] if p["status"] == "evaluated"]
    if evaluated:
        lines.append("points:")
        header = ["idx", "h(x)", "lhs", "rhs_main", "rhs_full", "verdict"]
        rows = [[p["index"], p["height"], p["lhs"], p["rhs_main"], p["rhs_full"], p["verdict"]]
                for p in evaluated]
        lines.append(_text_table(rows, header))
        lines.append("per-place Weil tables (columns = divisors):")
        header = ["place"] + [f"Q{i}" for i in range(s["q"])]
        for p in evaluated:
            lines.append(f"  point {p['index']} [{' : '.join(p['coordinates'])}]:")
            rows = [[w["place"], *w["values"]] for w in p["weil"]]
            lines.extend("    " + ln for ln in _text_table(rows, header).splitlines())
    for p in out["points"]:
        if p["status"] == "on_divisor":
            lines.append(f"point {p['index']}: on_divisor (divisors {p['vanishing_divisors']})")
        elif p["status"] != "evaluated":
            lines.append(f"point {p['index']}: {p['status']}")
    lines += [f"warning: {w}" for w in out["warnings"]]
    return "\n".join(lines) + "\n"


def emit_report(report: Report, format: str = "json", path=None) -> str:
    """Serialize a report; writes to path when given, returns the text."""
    if format == "json":
        text = json_text(report_to_dict(report)) + "\n"
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
