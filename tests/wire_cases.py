"""Malformed quote and platform-certificate fields of an envelope's JSON
value, and the LamError each must raise when a bundle holding it is parsed.
A key the envelope or record does not have is refused too: what is written
back or digested would not hold the bytes read."""

from __future__ import annotations

from typing import Any

DELETE = object()

# (case id, path of the field inside an envelope's JSON value, its new value,
# a function of the old value, or DELETE; a path to a key that is not there
# adds it)
QUOTE_FIELD_CASES: list[tuple[str, tuple[str, ...], Any]] = [
    ("debug-zero", ("quote", "debug"), 0),
    ("debug-string", ("quote", "debug"), "false"),
    ("debug-null", ("quote", "debug"), None),
    ("upper-case-signature", ("quote", "signature"), str.upper),
    ("spaced-signature", ("quote", "signature"), lambda s: " ".join(s[i : i + 2] for i in range(0, len(s), 2))),
    ("signature-number", ("quote", "signature"), 5),
    ("no-sig-alg", ("quote", "sig_alg"), DELETE),
    ("sig-alg-number", ("quote", "sig_alg"), 5),
    ("report-data-upper-case", ("quote", "report_data"), str.upper),
    ("root-signature-number", ("quote", "platform_certificate", "root_signature"), 5),
    ("root-signature-upper-case", ("quote", "platform_certificate", "root_signature"), str.upper),
    ("no-platform-id", ("quote", "platform_certificate", "platform_id"), DELETE),
    ("pubkey-list", ("quote", "platform_certificate", "pubkey"), []),
    ("platform-certificate-number", ("quote", "platform_certificate"), 5),
    ("quote-array", ("quote",), []),
    ("no-quote", ("quote",), DELETE),
    ("no-payload", ("payload_b64",), DELETE),
    ("quote-unknown-key", ("quote", "evil"), "smuggled"),
    ("platform-certificate-unknown-key", ("quote", "platform_certificate", "evil"), "smuggled"),
    ("envelope-unknown-key", ("evil",), "smuggled"),
]

_RECORDS = ("envelope", "quote", "platform certificate")


def edit_envelope(envelope: dict[str, Any], path: tuple[str, ...], new: Any) -> str:
    """Apply one case to an envelope's JSON value in place; the message of
    the LamError a bundle parse must raise."""
    *parents, key = path
    record = envelope
    for name in parents:
        record = record[name]
    if new is DELETE:
        del record[key]
        return f"{_RECORDS[len(parents)]} has no {key!r} field"
    if key not in record:
        record[key] = new
        return f"{_RECORDS[len(parents)]} has an unknown key: {key!r}"
    value = new(record[key]) if callable(new) else new
    record[key] = value
    if key in ("quote", "platform_certificate"):
        return f"{key.replace('_', ' ')} must be a JSON object"
    return f"{_RECORDS[len(parents)]} field {key!r} is malformed: {value!r}"
