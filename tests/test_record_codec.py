"""The four signed records are read and written from their field annotations
alone: reading is the exact inverse of writing, on every record and on
every JSON value that is accepted."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lam.backend import PlatformCertificate, Quote, Signed
from lam.certs import SUBJECT_KINDS, Certification, ExternalCertificate
from lam.errors import LamError
from lam.hashcore import Digest

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
DIGESTS = st.binary(min_size=32, max_size=32).map(Digest)
PLATFORM_CERTIFICATES = st.builds(
    PlatformCertificate, platform_id=st.text(), pubkey=st.text(), root_signature=st.binary()
)
RECORDS = {
    "platform-certificate": PLATFORM_CERTIFICATES,
    "quote": st.builds(
        Quote,
        enclave_measurement=DIGESTS,
        report_data=DIGESTS,
        debug=st.booleans(),
        sig_alg=st.text(),
        signature=st.binary(),
        attestation_pubkey=st.text(),
        platform_certificate=PLATFORM_CERTIFICATES,
    ),
    "certification": st.builds(
        Certification, enclave_measurement=DIGESTS, template=JSON, endorser_id=st.text(), signature=st.binary()
    ),
    "external-certificate": st.builds(
        ExternalCertificate,
        subject_sha256=DIGESTS,
        subject_kind=st.sampled_from(SUBJECT_KINDS),
        name=st.text(),
        claims=JSON,
        endorser_id=st.text(),
        signature=st.binary(),
    ),
}
DELETE = object()
# Values a field may be edited to: any JSON value, and hex of a digest in
# lower case (the one form accepted) and in upper case.
EDITS = JSON | st.just(DELETE) | DIGESTS.map(lambda d: d.hex) | DIGESTS.map(lambda d: d.hex.upper())


@pytest.mark.parametrize("kind", RECORDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_record_reads_back_from_its_json_value(kind, data):
    record = data.draw(RECORDS[kind])
    assert type(record).from_json_value(record.to_json_value()) == record


@pytest.mark.parametrize("kind", RECORDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_an_accepted_json_value_is_written_back_unchanged(kind, data):
    """A record's JSON value with up to two keys deleted, replaced or added
    (`evil`) is refused, or read into a record that writes it back as it was."""
    original = data.draw(RECORDS[kind])
    value = original.to_json_value()
    edits = data.draw(st.dictionaries(st.sampled_from(sorted(value) + ["evil"]), EDITS, max_size=2))
    for key, new in edits.items():
        if new is DELETE:
            value.pop(key, None)
        else:
            value[key] = new
    try:
        record = type(original).from_json_value(value)
    except LamError:
        assert edits  # an unedited value is always accepted
        return
    assert record.to_json_value() == value


def test_no_signed_record_spells_its_own_wire_form():
    records = Signed.__subclasses__()
    assert {PlatformCertificate, Quote, Certification, ExternalCertificate} <= set(records)
    for cls in records:
        assert "to_json_value" not in vars(cls), cls.__name__
