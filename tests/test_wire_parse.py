"""Quotes and platform certificates parse strictly: every malformed field of
an envelope in a bundle is a LamError naming it, never another exception."""

from __future__ import annotations

import pytest
from wire_cases import DELETE, QUOTE_FIELD_CASES, edit_envelope

from lam.errors import LamError
from lam.verifier import AssertionBundle, verify_bundle
from pipeline import sixrow_pipeline


@pytest.fixture(scope="module")
def pipe():
    return sixrow_pipeline()


@pytest.mark.parametrize(("path", "new"), [c[1:] for c in QUOTE_FIELD_CASES], ids=[c[0] for c in QUOTE_FIELD_CASES])
def test_malformed_quote_field_is_a_named_error(pipe, path, new):
    value = pipe.bundle().to_file_value()
    message = edit_envelope(value["envelopes"][-1], path, new)
    with pytest.raises(LamError) as err:
        AssertionBundle.from_file_value(value)
    assert str(err.value) == f"envelope {len(value['envelopes']) - 1}: {message}"


@pytest.mark.parametrize(
    ("member", "index", "key", "message"),
    [
        ("envelopes", 3, "payload_b64", "envelope 3: envelope has no 'payload_b64' field"),
        (
            "external_certificates", 1, "signature",
            "external certificate 1: external certificate has no 'signature' field",
        ),
    ],
    ids=["envelope", "external-certificate"],
)
def test_a_malformed_bundle_member_names_its_index(pipe, member, index, key, message):
    """A bundle member that does not parse is named by its index, as a
    certification store entry is, so one bad member among thousands can be
    found."""
    value = pipe.bundle().to_file_value()
    del value[member][index][key]
    with pytest.raises(LamError) as err:
        AssertionBundle.from_file_value(value)
    assert str(err.value) == message


def _field_paths(envelope: dict) -> list[tuple[str, ...]]:
    paths = [(k,) for k in envelope]
    paths += [("quote", k) for k in envelope["quote"]]
    paths += [("quote", "platform_certificate", k) for k in envelope["quote"]["platform_certificate"]]
    return paths


def test_every_field_deletion_or_type_swap_is_a_verdict_or_a_named_error(pipe):
    """A mutation either parses into a bundle that verifies to verdicts, or
    raises LamError; no other exception escapes."""
    outcomes = {"named-error": 0, "verdict": 0}
    for path in _field_paths(pipe.bundle().to_file_value()["envelopes"][0]):
        for new in (DELETE, 5, None, True, "zz", [], {}, "ab" * 32):
            value = pipe.bundle().to_file_value()
            edit_envelope(value["envelopes"][0], path, new)
            try:
                bundle = AssertionBundle.from_file_value(value)
            except LamError:
                outcomes["named-error"] += 1
                continue
            result = verify_bundle(bundle, pipe.store, pipe.roots, pipe.endorser_keys)
            assert not result.envelopes[0].accepted, (path, new)
            outcomes["verdict"] += 1
    assert outcomes["named-error"] > 0 and outcomes["verdict"] > 0
