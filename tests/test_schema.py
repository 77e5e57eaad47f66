"""The stdlib schema validator against jsonschema's Draft 2020-12 validator,
on valid scenarios and `constants` inputs and on mutations of them."""

import copy
import json
from functools import cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ffsubspace.cli import CONSTANTS_SCHEMA
from ffsubspace.errors import SchemaError
from ffsubspace.harness import (
    MAX_EXACT_HILBERT_CUTOFF,
    SCENARIO_SCHEMA,
    VARIETY_FILE_SCHEMA,
    schema_validate,
)
from test_harness import golden_scenario_dict
from test_twisted_cubic import ideal_scenario_dict

jsonschema = pytest.importorskip("jsonschema")

SCENARIO = Path(__file__).resolve().parents[1] / "src/ffsubspace/scenarios/conic.json"

CONSTANTS_INPUTS = {
    "n": 1, "delta": 2, "M": 2, "N": 2, "q": 4, "d_i": [1, 1, 1, 1],
    "epsilon": "1/2", "s_card": 2, "s_degree": 2, "m": 12,
    "h_fx": "3", "h_q_family": 0, "e_s_term": "1", "c1": "0", "c1_prime": 7,
    "h_q_i": ["1", 2, "0", "1/3"],
    "H_table": {str(k): 2 * k + 1 for k in range(1, 13)},
}

# Draft 2020-12 with `integer` as strict as the stdlib validator's: an int
# that is not a bool, so 2.0 is not an integer.
StrictIntegers = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)
    ),
)


@cache
def _valid_documents():
    scenarios = [json.loads(SCENARIO.read_text()), golden_scenario_dict(), ideal_scenario_dict()]
    bare_variety = {"ambient_dim": 3, **ideal_scenario_dict()["variety"]}
    return [(doc, SCENARIO_SCHEMA) for doc in scenarios] + [
        (CONSTANTS_INPUTS, CONSTANTS_SCHEMA), (bare_variety, VARIETY_FILE_SCHEMA)
    ]


def _outcome(validate, data, schema):
    """(pointer, message) of the SchemaError `validate` raises, None if none."""
    try:
        validate(data, schema)
    except SchemaError as exc:
        return exc.json_pointer, str(exc)
    return None


def _with_jsonschema(validator_class):
    """The jsonschema-backed `schema_validate`: the first error in path order,
    the pointer of a `required` error extended by the missing key."""
    def validate(data, schema):
        errors = sorted(
            validator_class(schema).iter_errors(data), key=lambda e: list(e.absolute_path)
        )
        if errors:
            err = errors[0]
            pointer = "/" + "/".join(str(p) for p in err.absolute_path)
            if err.validator == "required":
                pointer = pointer.rstrip("/") + "/" + err.message.split("'")[1]
            raise SchemaError(err.message, pointer)
    return validate


draft_2020_12 = _with_jsonschema(jsonschema.Draft202012Validator)
strict_integers = _with_jsonschema(StrictIntegers)


def _has_integral_float(doc):
    if isinstance(doc, dict):
        return any(map(_has_integral_float, doc.values()))
    if isinstance(doc, list):
        return any(map(_has_integral_float, doc))
    return isinstance(doc, float) and doc.is_integer()


VALUES = [0, -1, 1, 3, 2.0, 0.0, 0.5, -2.5, True, False, None, "x", "", "t", "torus",
          [], [1], ["1"], [[0]], [1.0], {}, {"k": 1}, {"1": 0}]
# unknown keys, keys of other nodes, and H_table keys that are not digits
KEYS = ["zz", "kind", "N", "terms", "coeff", "a", "1a", "", " 2", "-1", "7"]


@st.composite
def mutated(draw):
    """A valid document with one to three mutations at any depth: a key
    dropped, one or two keys added, a value of another type, a count made
    zero or negative, an array emptied, a bad `kind`, a non-digit `H_table`
    key."""
    def value():
        return copy.deepcopy(draw(st.sampled_from(VALUES)))

    doc, schema = draw(st.sampled_from(_valid_documents()))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        # walk down from the root to a node at a drawn depth
        parent, last, node = None, None, doc
        for _ in range(draw(st.integers(0, 6))):
            if isinstance(node, dict):
                steps = sorted(node)
            elif isinstance(node, list):
                steps = range(len(node))
            else:
                break
            if not steps:
                break
            step = draw(st.sampled_from(steps))
            parent, last, node = node, step, node[step]
        kind = draw(st.sampled_from(["drop", "add", "swap", "count", "empty", "kind", "names"]))
        if kind == "drop" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif kind == "add" and isinstance(node, dict):
            for key in draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=2)):
                node[key] = value()
        elif kind == "count" and type(node) is int and parent is not None:
            parent[last] = draw(st.sampled_from([0, -1, -node]))
        elif kind == "empty" and isinstance(node, list) and parent is not None:
            parent[last] = []
        elif kind == "kind" and isinstance(doc, dict) and isinstance(doc.get("variety"), dict):
            doc["variety"]["kind"] = draw(st.sampled_from(["torus", "", 3, None]))
        elif kind == "names" and isinstance(doc, dict) and isinstance(doc.get("H_table"), dict):
            doc["H_table"][draw(st.sampled_from(KEYS))] = draw(st.sampled_from([1, 0, "x", 2.0]))
        elif parent is None:
            doc = value()
        else:
            parent[last] = value()
    return doc, schema


@pytest.mark.parametrize("index", range(5))
def test_valid_documents_pass_both(index):
    doc, schema = _valid_documents()[index]
    assert _outcome(schema_validate, doc, schema) is None
    assert _outcome(draft_2020_12, doc, schema) is None


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_stdlib_validator_matches_jsonschema(case):
    doc, schema = case
    got = _outcome(schema_validate, doc, schema)
    assert got == _outcome(strict_integers, doc, schema)
    if got != _outcome(draft_2020_12, doc, schema):
        # the one divergence: Draft 2020-12 takes 2.0 for an integer
        assert _has_integral_float(doc) and got is not None


@pytest.mark.parametrize("doc, schema, expected", [
    ({"ambient_dim": 2}, SCENARIO_SCHEMA, ("/variety", "'variety' is a required property")),
    ({**CONSTANTS_INPUTS, "n": 0}, CONSTANTS_SCHEMA,
     ("/n", "0 is less than the minimum of 1")),
    ({**CONSTANTS_INPUTS, "d_i": [1, 1, 1, 1.0]}, CONSTANTS_SCHEMA,
     ("/d_i/3", "1.0 is not of type 'integer'")),
    ({**CONSTANTS_INPUTS, "epsilon": None}, CONSTANTS_SCHEMA,
     ("/epsilon", "None is not of type 'string', 'integer'")),
    ({**CONSTANTS_INPUTS, "H_table": {"a": 1}}, CONSTANTS_SCHEMA,
     ("/H_table", "'a' does not match '^[0-9]+$'")),
])
def test_messages_and_pointers(doc, schema, expected):
    pointer, message = expected
    assert _outcome(schema_validate, doc, schema) == (pointer, f"{message} (at {pointer})")


@pytest.mark.parametrize("cutoff", [1, MAX_EXACT_HILBERT_CUTOFF, MAX_EXACT_HILBERT_CUTOFF + 1, 10**9])
def test_maximum_matches_jsonschema(cutoff):
    doc = {**ideal_scenario_dict(), "constants_overrides": {"hilbert_exact_cutoff": cutoff}}
    got = _outcome(schema_validate, doc, SCENARIO_SCHEMA)
    assert got == _outcome(draft_2020_12, doc, SCENARIO_SCHEMA)
    assert (got is None) == (cutoff <= MAX_EXACT_HILBERT_CUTOFF)


@pytest.mark.parametrize("path", [("variety", "chow_form"), ("variety", "chow_form", "terms", 0)])
def test_stray_chow_form_keys_are_refused(path):
    # the Chow form and its terms refuse unknown keys like every other object;
    # the pointer is the object's, the message names the key
    doc = copy.deepcopy(ideal_scenario_dict())
    node = doc
    for step in path:
        node = node[step]
    node["zz"] = 2.0
    pointer = "/" + "/".join(map(str, path))
    expected = (pointer, f"Additional properties are not allowed ('zz' was unexpected) (at {pointer})")
    assert _outcome(schema_validate, doc, SCENARIO_SCHEMA) == expected
    assert _outcome(draft_2020_12, doc, SCENARIO_SCHEMA) == expected


def test_unsupported_keyword_is_refused():
    with pytest.raises(ValueError, match="'maxItems' is not supported"):
        schema_validate([], {"type": "array", "maxItems": 3})
