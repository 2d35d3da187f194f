"""Every record, the four signed ones and the two configs, is read and
written from its field annotations alone: reading is the exact inverse of
writing, on every record and on every JSON value that is accepted."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lam.backend import PlatformCertificate, Quote, Signed
from lam.certs import SUBJECT_KINDS, Certification, ExternalCertificate
from lam.engine.data import ACTIVATIONS, OPTIMIZERS, Architecture, TrainingConfig
from lam.engine.model import _ModelFile
from lam.errors import CanonicalizationError, LamError
from lam.fragments import AttestationEnvelope
from lam.hashcore import Digest, Record, canonicalize, ratio_string, record_bytes
from lam.verifier import AssertionBundle
from pipeline import sixrow_pipeline

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
DIGESTS = st.binary(min_size=32, max_size=32).map(Digest)
PLATFORM_CERTIFICATES = st.builds(
    PlatformCertificate, platform_id=st.text(), pubkey=st.text(), root_signature=st.binary()
)


def quotes(certificates: st.SearchStrategy[PlatformCertificate]) -> st.SearchStrategy[Quote]:
    return st.builds(
        Quote,
        enclave_measurement=DIGESTS,
        report_data=DIGESTS,
        debug=st.booleans(),
        sig_alg=st.text(),
        signature=st.binary(),
        attestation_pubkey=st.text(),
        platform_certificate=certificates,
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
    "quote": quotes(PLATFORM_CERTIFICATES),
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
    "model-file": st.builds(
        _ModelFile,
        activation=st.text(),
        arch=st.lists(st.integers(), max_size=4).map(tuple),
        biases=JSON,
        weights=JSON,
    ),
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
        assert "canonical_bytes" not in vars(cls), cls.__name__
    # Only these sign a message other than the wire form less the signature.
    assert {cls for cls in records if "signed_bytes" in vars(cls)} == {Signed, Quote, Certification}


def _without_signature(record: Signed) -> bytes:
    value = record.to_json_value()
    del value[record.signature_field]
    return canonicalize(value)


@pytest.mark.parametrize("kind", RECORDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_bytes_are_the_canonical_json_value(kind, data):
    """The one bytes writer gives canonicalize's bytes for every record
    kind, and signed_bytes is the wire form without the signature field
    wherever a record does not define its own signed message."""
    record = data.draw(RECORDS[kind])
    assert record_bytes(record) == record.canonical_bytes == canonicalize(record.to_json_value())
    if isinstance(record, Signed) and "signed_bytes" not in vars(type(record)):
        assert record.signed_bytes() == _without_signature(record)


def _written(bundle: AssertionBundle) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        bundle.write(Path(tmp) / "bundle.json")
        return (Path(tmp) / "bundle.json").read_bytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shared=st.booleans())
def test_bundle_and_envelope_files_are_their_canonical_file_values(data, shared):
    """Quotes sharing one platform certificate object or each holding its
    own, the written bundle and envelope files are canonicalize's bytes."""
    certificates = st.just(data.draw(PLATFORM_CERTIFICATES)) if shared else PLATFORM_CERTIFICATES
    envelope = st.builds(AttestationEnvelope, payload=st.binary(max_size=40), quote=quotes(certificates))
    envelopes = data.draw(st.lists(envelope, max_size=4))
    externals = data.draw(st.lists(RECORDS["external-certificate"], max_size=3))
    bundle = AssertionBundle(tuple(envelopes), tuple(externals))
    assert _written(bundle) == canonicalize(bundle.to_file_value())
    for envelope in envelopes:
        assert envelope.file_bytes() == canonicalize(envelope.to_file_value())


def _write_error(write) -> str:
    with pytest.raises(CanonicalizationError) as err:
        write()
    return str(err.value)


def test_write_errors_name_their_path_in_the_whole_value():
    """A value canonical JSON cannot hold, in a record built directly, is
    named at its JSON path in whatever is written, as canonicalize names it."""
    cert = PlatformCertificate(platform_id="p", pubkey="k", root_signature=b"\x01")
    digest = Digest(bytes(32))
    quote = Quote(digest, digest, False, "\ud800", b"\x02", "k", cert)
    external = ExternalCertificate(digest, "dataset", "d", {"x": 0.5}, "acme", b"\x03")
    envelope = AttestationEnvelope(b"{}", quote)
    surrogate = "string holds a lone surrogate, which UTF-8 cannot encode at "
    floating = "float values are not allowed; use a decimal string at "
    cases = [
        (lambda: _written(AssertionBundle((envelope,), ())), surrogate + "/envelopes/0/quote/sig_alg"),
        (lambda: _written(AssertionBundle((), (external,))), floating + "/external_certificates/0/claims/x"),
        (lambda: _written(AssertionBundle((envelope,), (external,))), surrogate + "/envelopes/0/quote/sig_alg"),
        (envelope.file_bytes, surrogate + "/quote/sig_alg"),
        (lambda: quote.canonical_bytes, surrogate + "/sig_alg"),
        (lambda: external.canonical_bytes, floating + "/claims/x"),
        (external.signed_bytes, floating + "/claims/x"),
    ]
    for write, message in cases:
        assert _write_error(write) == message


def test_writing_a_bundle_twice_changes_no_record(tmp_path):
    """The writer reads and stores nothing on a record: every quote, platform
    certificate and external certificate holds what it held after reading."""
    pipe = sixrow_pipeline()
    pipe.bundle().write(tmp_path / "bundle.json")
    bundle = AssertionBundle.read(tmp_path / "bundle.json")
    records = [r for e in bundle.envelopes for r in (e.quote, e.quote.platform_certificate)]
    records += bundle.external_certificates
    before = [dict(vars(r)) for r in records]
    bundle.write(tmp_path / "again.json")
    bundle.write(tmp_path / "again.json")
    assert [dict(vars(r)) for r in records] == before
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "bundle.json").read_bytes()
