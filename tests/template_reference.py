"""Reference template matcher: lam's matcher as it was before it stopped
allocating on success, path strings built on the way down and one result
object per node. The property tests compare the current matcher against it.
Also the payloads that fit an AttSpec shape, which the builtin-template and
verifier tests draw."""

from __future__ import annotations

from typing import Any

from hypothesis import strategies as st

from lam.errors import InvalidCertificationError
from lam.verifier import TemplateMatch


def _mismatch(path: str, reason: str) -> TemplateMatch:
    return TemplateMatch(False, path=path, reason=reason)


def reference_match(template: Any, payload: Any, path: str = "") -> TemplateMatch:
    if template is None:
        return TemplateMatch(True)

    if isinstance(template, dict):
        if isinstance(payload, list):
            for i, item in enumerate(payload):
                if not isinstance(item, dict):
                    return _mismatch(f"{path}/{i}", "expected an object in array")
                result = reference_match(template, item, f"{path}/{i}")
                if not result.matched:
                    return result
            return TemplateMatch(True)
        if not isinstance(payload, dict):
            return _mismatch(path, "expected an object")
        if set(payload.keys()) != set(template.keys()):
            missing = sorted(set(template) - set(payload))
            extra = sorted(set(payload) - set(template))
            return _mismatch(path, f"key set differs (missing={missing}, extra={extra})")
        for key in sorted(template):
            result = reference_match(template[key], payload[key], f"{path}/{key}")
            if not result.matched:
                return result
        return TemplateMatch(True)

    if isinstance(template, (str, bool)) or isinstance(template, int):
        def identical(p: Any) -> bool:
            if isinstance(template, bool) or isinstance(p, bool):
                return isinstance(p, bool) and isinstance(template, bool) and p == template
            return type(p) is type(template) and p == template

        if isinstance(payload, list):
            for i, item in enumerate(payload):
                if not identical(item):
                    return _mismatch(f"{path}/{i}", f"value differs from template {template!r}")
            return TemplateMatch(True)
        if identical(payload):
            return TemplateMatch(True)
        return _mismatch(path, f"value differs from template {template!r}")

    raise InvalidCertificationError(path, f"disallowed template value of type {type(template).__name__}")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def fitting(shape):
    """Values that fit an AttSpec shape: any JSON value for None, any string
    for str, the literal for a string, a list of fitting items for [s], and
    for an object its keys with fitting values, plus any keys if `...`."""
    if shape is None:
        return JSON_VALUES
    if shape is str:
        return st.text(max_size=8)
    if isinstance(shape, str):
        return st.just(shape)
    if isinstance(shape, list):
        return st.lists(fitting(shape[0]), max_size=3)
    fields = st.fixed_dictionaries({key: fitting(member) for key, member in shape.items() if key is not ...})
    if ... not in shape:
        return fields
    return st.builds(lambda extra, fixed: {**extra, **fixed}, st.dictionaries(st.text(max_size=4), JSON_VALUES), fields)
