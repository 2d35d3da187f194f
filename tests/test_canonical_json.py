"""Property tests: canonicalize agrees with the reference writer byte for
byte, and rejects what it rejects at the same JSON path."""

from __future__ import annotations

import json
from typing import Any

import numpy as np
import pytest
from canonical_reference import reference_canonicalize, reference_parse_canonical_exact
from hypothesis import given, settings
from hypothesis import strategies as st

from lam.errors import CanonicalizationError
from lam.hashcore import canonicalize, is_canonical, parse_canonical, parse_canonical_exact

# No per-example deadline: timings on a loaded host say nothing about correctness.
relaxed = settings(deadline=None)

# Characters JSON must escape, or that are easy to get wrong unescaped.
_TRICKY = ['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "é", "✓", "😀"]

# Lone surrogates (category Cs) cannot be encoded as UTF-8; the reference
# writer raises UnicodeEncodeError on them, canonicalize a path-bearing error
# (see test_lone_surrogate_rejected_at_its_path).
strings = st.text(st.one_of(st.characters(exclude_categories=["Cs"]), st.sampled_from(_TRICKY)))
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**256), max_value=2**256),
    strings,
)
json_values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(strings, children, max_size=5),
    ),
    max_leaves=30,
)


def _error(fn, value: Any) -> tuple[str, str]:
    with pytest.raises(CanonicalizationError) as err:
        fn(value)
    return err.value.path, str(err.value)


def _plant(value: Any, leaf: Any, data: st.DataObject) -> tuple[Any, str]:
    """Copy of value with leaf inserted at a drawn position; returns the copy
    and the JSON path at which leaf sits."""
    if isinstance(value, list):
        i = data.draw(st.integers(0, len(value)))
        if i < len(value) and isinstance(value[i], (list, dict)) and data.draw(st.booleans()):
            child, path = _plant(value[i], leaf, data)
            return value[:i] + [child] + value[i + 1 :], f"/{i}{path}"
        return value[:i] + [leaf] + value[i:], f"/{i}"
    if isinstance(value, dict):
        containers = sorted(k for k, v in value.items() if isinstance(v, (list, dict)))
        if containers and data.draw(st.booleans()):
            key = data.draw(st.sampled_from(containers))
            child, path = _plant(value[key], leaf, data)
            return {**value, key: child}, f"/{key}{path}"
        key = data.draw(strings.filter(lambda k: k not in value))
        return {**value, key: leaf}, f"/{key}"
    return leaf, ""


@relaxed
@given(json_values)
def test_canonicalize_matches_reference(value):
    assert canonicalize(value) == reference_canonicalize(value)


@relaxed
@given(json_values)
def test_canonical_bytes_are_a_fixed_point(value):
    b = canonicalize(value)
    assert canonicalize(parse_canonical(b)) == b


@relaxed
@given(json_values, st.floats(), st.data())
def test_float_anywhere_rejected_at_reference_path(value, number, data):
    planted, path = _plant(value, number, data)
    error = _error(canonicalize, planted)
    assert error == _error(reference_canonicalize, planted)
    assert error[0] == path


@relaxed
@given(json_values, st.one_of(st.integers(), st.none(), st.booleans(), st.tuples(st.integers())), st.data())
def test_non_string_key_rejected_like_reference(value, key, data):
    planted, _ = _plant(value, {key: "x", "k": 1}, data)
    assert _error(canonicalize, planted) == _error(reference_canonicalize, planted)


@relaxed
@given(
    json_values,
    st.sampled_from([np.int64(3), np.bool_(True), np.float64(0.5), {1, 2}, b"bytes", object()]),
    st.data(),
)
def test_unsupported_type_rejected_like_reference(value, leaf, data):
    planted, path = _plant(value, leaf, data)
    error = _error(canonicalize, planted)
    assert error == _error(reference_canonicalize, planted)
    assert error[0] == path


@relaxed
@given(st.lists(st.one_of(leaves, st.floats(), st.sampled_from([np.int64(1), {1}])), max_size=4), st.data())
def test_first_offence_in_emission_order(items, data):
    # several offences at once: both writers report the first in sorted-key order
    keys = data.draw(st.lists(strings, min_size=len(items), max_size=len(items), unique=True))
    value = dict(zip(keys, items))
    try:
        expected = reference_canonicalize(value)
    except CanonicalizationError:
        assert _error(canonicalize, value) == _error(reference_canonicalize, value)
    else:
        assert canonicalize(value) == expected


@pytest.mark.parametrize(
    ("value", "path", "message"),
    [
        ("\ud800", "", "string holds a lone surrogate"),
        ({"a": [1, {"b": "ok\udfff"}]}, "/a/1/b", "string holds a lone surrogate"),
        ({"a": 1, "z": {"\ud800": None}}, "/z", "object key '\\ud800' holds a lone surrogate"),
        # the first offence in emission order, before a later float
        ({"a": "\ud800", "b": 0.5}, "/a", "string holds a lone surrogate"),
        ({"a": 0.5, "b": "\ud800"}, "/a", "float values are not allowed"),
    ],
)
def test_lone_surrogate_rejected_at_its_path(value, path, message):
    with pytest.raises(CanonicalizationError) as err:
        canonicalize(value)
    assert err.value.path == path
    assert str(err.value).startswith(message)


def test_parsed_lone_surrogate_is_not_canonical():
    data = b'{"\\ud800":null}'
    assert parse_canonical(data) == {"\ud800": None}
    assert not is_canonical(data)
    assert not is_canonical(b'["\\udc00"]')


# --- the one-pass canonical re-check against parse-then-canonicalize ----------

_ODD_TEXT = st.sampled_from(["\ud800", "a\udc00b", "\udfff", "é", "\u2028", "/", "\x7f", ""])
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_odd_leaves = st.one_of(leaves, st.floats(), _NON_FINITE, _ODD_TEXT, strings)
_odd_values = st.recursive(
    _odd_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(strings | _ODD_TEXT, children, max_size=4),
    ),
    max_leaves=20,
)


@st.composite
def _candidate_bytes(draw) -> bytes:
    """JSON text near canonical form: json.dumps of values with floats (NaN
    and infinities too) and lone surrogates, written with or without sorted
    keys, ASCII escapes or spaces, then maybe given a duplicate key, a BOM,
    or one flipped, inserted or deleted byte."""
    value = draw(_odd_values)
    text = json.dumps(
        value,
        sort_keys=draw(st.booleans()),
        ensure_ascii=draw(st.booleans()),
        separators=draw(st.sampled_from([(",", ":"), (",", ":"), (", ", ": "), (",", " :")])),
    )
    if isinstance(value, dict) and value and draw(st.booleans()):
        text = "{" + json.dumps(next(iter(value)), ensure_ascii=False) + ":0," + text[1:]
    data = text.encode("utf-8", "surrogatepass")
    edit = draw(st.sampled_from(["none", "none", "bom", "flip", "insert", "delete"]))
    if edit == "bom":
        return b"\xef\xbb\xbf" + data
    if edit != "none" and data:
        i = draw(st.integers(0, len(data) - 1))
        byte = bytes([draw(st.sampled_from(b' \t",:.0e{}[]\\u-\xff'))])
        data = {"flip": data[:i] + byte + data[i + 1 :], "insert": data[:i] + byte + data[i:], "delete": data[:i] + data[i + 1 :]}[edit]
    return data


def _exact_outcome(parse, data: bytes):
    try:
        return ("value", parse(data))
    except CanonicalizationError as exc:
        return ("error", exc.path, str(exc))


@settings(max_examples=500, deadline=None)
@given(_candidate_bytes())
def test_exact_parse_agrees_with_parse_then_canonicalize(data):
    outcome = _exact_outcome(parse_canonical_exact, data)
    assert outcome == _exact_outcome(reference_parse_canonical_exact, data)
    assert is_canonical(data) == (outcome[0] == "value")
