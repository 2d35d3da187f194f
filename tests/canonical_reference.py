"""Reference canonical-JSON writer: a direct recursive emitter.

`lam.hashcore.canonicalize` validates in one walk and then serializes with
`json.dumps`; the property tests compare it against this writer, which
spells out the canonical rules one token at a time.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from lam.errors import CanonicalizationError


def reference_canonicalize(value: Any) -> bytes:
    out: list[str] = []
    _write_canonical(value, "", out)
    return "".join(out).encode("utf-8")


def _write_canonical(value: Any, path: str, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        raise CanonicalizationError(path, "float values are not allowed; use a decimal string")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _write_canonical(item, f"{path}/{i}", out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        keys = []
        for key in value:
            if not isinstance(key, str):
                raise CanonicalizationError(path, f"object key {key!r} is not a string")
            keys.append(key)
        for i, key in enumerate(sorted(keys)):
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _write_canonical(value[key], f"{path}/{key}", out)
        out.append("}")
    else:
        raise CanonicalizationError(path, f"unsupported type {type(value).__name__}")


def _reject_float(text: str) -> Any:
    raise CanonicalizationError("", f"float token {text!r} in canonical JSON")


def _refuse_repeats(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    keys = [key for key, _ in pairs]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise CanonicalizationError("", f"repeated object key {key!r}")
    return dict(pairs)


def reference_parse_canonical(data: bytes) -> Any:
    """lam's canonical parser as a plain json.loads call."""
    try:
        return json.loads(data.decode("utf-8"), parse_float=_reject_float, object_pairs_hook=_refuse_repeats)
    except CanonicalizationError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CanonicalizationError("", f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # int's limit on the digits of a number token
        raise CanonicalizationError("", f"integer token of more than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError:
        raise CanonicalizationError("", "JSON is nested too deeply") from None


def reference_parse_canonical_exact(data: bytes) -> Any:
    """The value of canonical bytes by the two-step rule: parse, then
    canonicalize must give the same bytes back."""
    from lam.hashcore import canonicalize

    value = reference_parse_canonical(data)
    if canonicalize(value) != data:
        raise CanonicalizationError("", "bytes are not in canonical form")
    return value
