"""Table-driven conformance suite for the certification template matcher:
the four matching rules, the float prohibition, and the dictionary
key-set-equality decision."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from template_reference import reference_match

from lam.certs import validate_template
from lam.engine.rng import Xoshiro256StarStar
from lam.errors import InvalidCertificationError
from lam.verifier import _match, match_template

# (name, template, payload, expected match)
CASES = [
    # rule 1: null matches anything
    ("null_vs_object", None, {"anything": [1, 2]}, True),
    ("null_vs_string", None, "text", True),
    ("null_vs_int", None, 7, True),
    ("null_vs_null", None, None, True),
    ("null_vs_array", None, [1, "x", {"k": None}], True),
    ("null_leaf_wildcard", {"type": "accuracy", "value": None}, {"type": "accuracy", "value": "0.666667"}, True),
    # rule 2: dictionaries match dictionaries with equal key sets
    ("dict_exact", {"a": 1, "b": "x"}, {"a": 1, "b": "x"}, True),
    ("dict_value_mismatch", {"type": "accuracy"}, {"type": "robust_accuracy"}, False),
    ("dict_missing_key", {"a": 1, "b": None}, {"a": 1}, False),
    ("dict_extra_payload_key", {"a": 1}, {"a": 1, "b": 2}, False),
    ("dict_nested_ok", {"outer": {"inner": None}}, {"outer": {"inner": [1, 2, 3]}}, True),
    ("dict_nested_mismatch", {"outer": {"inner": "x"}}, {"outer": {"inner": "y"}}, False),
    ("dict_vs_scalar_payload", {"a": 1}, "not an object", False),
    # rule 2: dictionaries match arrays of dictionaries (all elements)
    ("dict_vs_array_all_match", {"k": None}, [{"k": 1}, {"k": "two"}], True),
    ("dict_vs_array_one_bad_keyset", {"k": None}, [{"k": 1}, {"j": 2}], False),
    ("dict_vs_array_non_dict_element", {"k": None}, [{"k": 1}, 5], False),
    ("dict_vs_empty_array", {"k": None}, [], True),
    (
        "metrics_array_shape",
        {"metrics": {"type": "accuracy", "value": None}},
        {"metrics": [{"type": "accuracy", "value": "0.844300"}]},
        True,
    ),
    # rule 3: strings, booleans, integers match identical values
    ("string_identical", "accuracy", "accuracy", True),
    ("string_different", "accuracy", "fairness", False),
    ("int_identical", 42, 42, True),
    ("int_different", 42, 41, False),
    ("bool_identical", True, True, True),
    ("bool_vs_int_payload", True, 1, False),
    ("int_vs_bool_payload", 1, True, False),
    ("string_vs_int_payload", "1", 1, False),
    # rule 3: or arrays of identical values
    ("scalar_vs_array_identical", "x", ["x", "x"], True),
    ("scalar_vs_array_differing", "x", ["x", "y"], False),
    ("int_vs_array_identical", 3, [3, 3, 3], True),
    ("scalar_vs_empty_array", "x", [], True),
    # mixed payload kinds against scalar templates
    ("string_vs_object_payload", "x", {"x": 1}, False),
    ("int_vs_null_payload", 1, None, False),
]


@pytest.mark.parametrize("name,template,payload,expected", CASES, ids=[c[0] for c in CASES])
def test_match_table(name, template, payload, expected):
    result = match_template(template, payload)
    assert result.matched is expected, (name, result.reason, result.path)


def test_suite_covers_at_least_25_cases():
    assert len(CASES) >= 25


# rule 4: other values are not allowed in the certification
INVALID_TEMPLATES = [
    ("float_leaf", 0.5),
    ("float_nested", {"a": {"b": 0.5}}),
    ("array_in_template", [1, 2]),
    ("array_nested", {"a": ["x"]}),
]


@pytest.mark.parametrize("name,template", INVALID_TEMPLATES, ids=[c[0] for c in INVALID_TEMPLATES])
def test_invalid_template_kinds_raise(name, template):
    with pytest.raises(InvalidCertificationError):
        match_template(template, {"anything": 1})
    with pytest.raises(InvalidCertificationError):
        validate_template(template)


def test_float_anywhere_in_template_is_invalid_regardless_of_payload():
    template = {"type": "accuracy", "threshold": 0.5}
    for payload in ({"type": "accuracy", "threshold": "0.500000"}, {}, None, [1]):
        with pytest.raises(InvalidCertificationError):
            match_template(template, payload)


def test_mismatch_reports_path():
    result = match_template({"a": {"b": "x"}}, {"a": {"b": "y"}})
    assert not result.matched
    assert result.path == "/a/b"
    result = match_template({"k": None}, [{"k": 1}, {"j": 2}])
    assert result.path == "/1"


def test_key_set_equality_dedicated_cases():
    # a certified enclave cannot smuggle extra keys past the template
    template = {"att_type": "AccAtt", "model_sha256": None}
    assert match_template(template, {"att_type": "AccAtt", "model_sha256": "ab"}).matched
    smuggled = {"att_type": "AccAtt", "model_sha256": "ab", "bonus_claim": "trusted!"}
    result = match_template(template, smuggled)
    assert not result.matched
    assert "bonus_claim" in result.reason
    # and templates cannot be satisfied by payloads that drop keys
    assert not match_template(template, {"att_type": "AccAtt"}).matched


def _random_template_and_payload(rng: Xoshiro256StarStar, depth: int = 0):
    """Build a (template, payload) pair that matches by construction."""
    roll = rng.randbelow(6 if depth < 3 else 4)
    if roll == 0:
        return None, {"free": ["form", rng.randbelow(100)]}
    if roll == 1:
        s = f"s{rng.randbelow(10)}"
        return s, s
    if roll == 2:
        n = rng.randbelow(100)
        return n, n
    if roll == 3:
        b = rng.randbelow(2) == 0
        return b, b
    if roll == 4:
        keys = [f"k{i}" for i in range(1 + rng.randbelow(3))]
        template, payload = {}, {}
        for k in keys:
            t, p = _random_template_and_payload(rng, depth + 1)
            template[k], payload[k] = t, p
        return template, payload
    # dict template against an array of matching dicts
    t, p = _random_template_and_payload(rng, depth + 1)
    template = {"item": t}
    return template, [{"item": p} for _ in range(rng.randbelow(3) + 1)]


def _null_out_random_subtree(rng: Xoshiro256StarStar, template):
    if rng.randbelow(3) == 0 or not isinstance(template, dict) or not template:
        return None
    key = sorted(template)[rng.randbelow(len(template))]
    return {**template, key: _null_out_random_subtree(rng, template[key])}


def test_replacing_subtrees_with_null_preserves_matches():
    """Weakening a template by nulling any subtree keeps every match valid."""
    rng = Xoshiro256StarStar(777)
    for _ in range(200):
        template, payload = _random_template_and_payload(rng)
        assert match_template(template, payload).matched
        weakened = _null_out_random_subtree(rng, template)
        assert match_template(weakened, payload).matched


# --- the matcher against the reference matcher --------------------------------

KEYS = st.sampled_from(["a", "b", "c", "att_type"])
SCALARS = st.one_of(st.sampled_from(["x", "y", ""]), st.booleans(), st.integers(-2, 2))
# kinds a template may not hold, so that the matcher reaches its raise
DISALLOWED = st.one_of(st.floats(allow_nan=False), st.lists(SCALARS, max_size=2))
TEMPLATES = st.recursive(
    st.one_of(st.none(), SCALARS, SCALARS, DISALLOWED),
    lambda children: st.dictionaries(KEYS, children, max_size=4),
    max_leaves=12,
)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), SCALARS),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(KEYS, children, max_size=3),
    max_leaves=8,
)


def _payload_for(template, data: st.DataObject):
    """A payload that mostly follows the template's shape, with drawn
    departures: any value, arrays, a dropped or an extra key, other scalars."""
    choice = data.draw(st.integers(0, 9))
    if choice == 0 or template is None or isinstance(template, (float, list)):
        return data.draw(JSON_VALUES)
    if isinstance(template, dict):
        if choice == 1:
            return [_payload_for(template, data) for _ in range(data.draw(st.integers(0, 3)))]
        payload = {key: _payload_for(value, data) for key, value in template.items()}
        if choice == 2 and payload:
            del payload[data.draw(st.sampled_from(sorted(payload)))]
        elif choice == 3:
            payload[data.draw(KEYS)] = data.draw(SCALARS)
        return payload
    if choice == 1:
        return data.draw(st.lists(st.just(template) | SCALARS, max_size=4))
    if choice == 2:
        return data.draw(SCALARS)
    return template


def _outcome(match, template, payload):
    try:
        result = match(template, payload)
    except InvalidCertificationError as exc:
        return ("raised", exc.path, str(exc))
    return (result.matched, result.path, result.reason)


@settings(max_examples=600, deadline=None)
@given(TEMPLATES, st.data())
def test_matcher_agrees_with_the_reference(template, data):
    payload = _payload_for(template, data)
    assert _outcome(_match, template, payload) == _outcome(reference_match, template, payload)
