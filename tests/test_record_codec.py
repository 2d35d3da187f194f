"""Every record, the four signed ones and the two configs, is read and
written from its field annotations alone: reading is the exact inverse of
writing, on every record and on every JSON value that is accepted."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lam.backend import PlatformCertificate, Quote, Signed
from lam.certs import SUBJECT_KINDS, Certification, ExternalCertificate
from lam.engine.data import ACTIVATIONS, OPTIMIZERS, Architecture, TrainingConfig
from lam.engine.model import _ModelFile
from lam.errors import LamError
from lam.hashcore import Digest, Record, ratio_string

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
DIGESTS = st.binary(min_size=32, max_size=32).map(Digest)
PLATFORM_CERTIFICATES = st.builds(
    PlatformCertificate, platform_id=st.text(), pubkey=st.text(), root_signature=st.binary()
)
ARCHITECTURES = st.builds(
    Architecture,
    num_features=st.integers(1, 64),
    num_classes=st.integers(2, 16),
    hidden=st.lists(st.integers(1, 64), max_size=3).map(tuple),
    activation=st.sampled_from(ACTIVATIONS),
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
    "architecture": ARCHITECTURES,
    "training-config": st.builds(
        TrainingConfig,
        architecture=ARCHITECTURES,
        epochs=st.integers(1, 10**6),
        learning_rate=st.integers(1, 10**7).map(lambda n: ratio_string(n, 10**6)),
        batch_size=st.integers(1, 10**6),
        optimizer=st.sampled_from(OPTIMIZERS),
        rng_seed=st.integers(0, 2**64 - 1),
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


def _subclasses(cls: type) -> set[type]:
    return {cls, *(sub for child in cls.__subclasses__() for sub in _subclasses(child))}


def test_no_record_spells_its_own_wire_form():
    records = _subclasses(Record)
    signed = {Signed, PlatformCertificate, Quote, Certification, ExternalCertificate}
    assert signed | {Architecture, TrainingConfig, _ModelFile} <= records
    for cls in records - {Record}:
        assert "to_json_value" not in vars(cls), cls.__name__
        assert "from_json_value" not in vars(cls), cls.__name__
