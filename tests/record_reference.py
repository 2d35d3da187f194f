"""Reference JSON values of records, envelopes and bundles.

The library writes records only as canonical bytes (`hashcore.record_bytes`).
The tests compare those bytes, and the errors a write raises, against
`canonicalize` of the JSON value built here from the dataclass fields and
their type hints alone.
"""

from __future__ import annotations

import base64
from dataclasses import fields, is_dataclass
from typing import Any, get_args, get_origin, get_type_hints

from lam.fragments import ENVELOPE_VERSION, AttestationEnvelope
from lam.hashcore import Digest
from lam.verifier import BUNDLE_VERSION, AssertionBundle


def json_value(value: Any) -> dict[str, Any]:
    """The JSON object of a record, envelope or bundle: each init field under
    its name, Digest and bytes as hex, a nested record recursing, a tuple as
    a list, anything else as it is. An envelope's payload is base64, under
    payload_b64."""
    if isinstance(value, AttestationEnvelope):
        return {"payload_b64": base64.b64encode(value.payload).decode(), "quote": json_value(value.quote)}
    hints = get_type_hints(type(value))
    return {f.name: _field_value(hints[f.name], getattr(value, f.name)) for f in fields(value) if f.init}


def _field_value(kind: Any, value: Any) -> Any:
    if kind is Digest:
        return value.hex
    if kind is bytes:
        return value.hex()
    if get_origin(kind) is tuple and isinstance(value, tuple):
        return [_field_value(get_args(kind)[0], item) for item in value]
    return json_value(value) if is_dataclass(kind) else value


def file_value(value: AttestationEnvelope | AssertionBundle) -> dict[str, Any]:
    """The JSON value of an envelope or bundle file: json_value and the version."""
    version = ENVELOPE_VERSION if isinstance(value, AttestationEnvelope) else BUNDLE_VERSION
    return {**json_value(value), "version": version}
