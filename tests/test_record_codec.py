"""Every record, the four signed ones and the two configs, is read and
written from its field annotations alone: reading is the exact inverse of
writing, on every record and on every JSON value that is accepted. Records
are written only as canonical bytes, which equal canonicalize's of the
reference JSON value (record_reference), and so do the errors a write
raises."""

from __future__ import annotations

import ast
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from typing import Any, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lam.backend import PlatformCertificate, Quote, Signed
from lam.certs import SUBJECT_KINDS, Certification, CertificationStore, ExternalCertificate
from lam.engine.data import ACTIVATIONS, OPTIMIZERS, Architecture, TrainingConfig
from lam.engine.model import _ModelFile
from lam.errors import CanonicalizationError, LamError
from lam.fragments import AttestationEnvelope
from lam.hashcore import Digest, Record, canonicalize, ratio_string, record_bytes
from lam.verifier import AssertionBundle
from pipeline import sixrow_pipeline
from record_reference import file_value, json_value

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
    assert type(record).from_json_value(json_value(record)) == record


@pytest.mark.parametrize("kind", RECORDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_an_accepted_json_value_is_written_back_unchanged(kind, data):
    """A record's JSON value with up to two keys deleted, replaced or added
    (`evil`) is refused, or read into a record that writes it back as it was."""
    original = data.draw(RECORDS[kind])
    value = json_value(original)
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
    assert record.canonical_bytes == canonicalize(value)


def _subclasses(cls: type) -> set[type]:
    return {cls, *(sub for child in cls.__subclasses__() for sub in _subclasses(child))}


def test_no_record_spells_its_own_wire_form():
    records = _subclasses(Record)
    signed = {Signed, PlatformCertificate, Quote, Certification, ExternalCertificate}
    assert signed | {Architecture, TrainingConfig, _ModelFile} <= records
    assert _subclasses(Signed) == signed  # each has a strategy in RECORDS, which the properties draw from
    for cls in records - {Record}:
        assert "to_json_value" not in vars(cls), cls.__name__
        assert "from_json_value" not in vars(cls), cls.__name__
        assert "canonical_bytes" not in vars(cls), cls.__name__
    # Only these sign a message other than the wire form less the signature.
    assert {cls for cls in records if "signed_bytes" in vars(cls)} == {Signed, Quote, Certification}


def _signed_value(record: Signed) -> dict[str, Any]:
    """The reference JSON value whose canonical bytes a record signs."""
    value = json_value(record)
    del value[record.signature_field]
    if isinstance(record, Certification):  # signs its measurement and template
        del value["endorser_id"]
    return value


@pytest.mark.parametrize("kind", RECORDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_bytes_are_the_canonical_json_value(kind, data):
    """The one bytes writer gives canonicalize's bytes for every record kind."""
    record = data.draw(RECORDS[kind])
    assert record_bytes(record) == record.canonical_bytes == canonicalize(json_value(record))


# Every Signed class but the quote, which signs its raw measurement, report
# data and debug flag (test_no_record_spells_its_own_wire_form holds the list).
@pytest.mark.parametrize("kind", ["platform-certificate", "certification", "external-certificate"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_signed_bytes_are_the_canonical_json_value_less_the_signed_out_fields(kind, data):
    record = data.draw(RECORDS[kind])
    assert record.signed_bytes() == canonicalize(_signed_value(record))


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
    assert _written(bundle) == canonicalize(file_value(bundle))
    for envelope in envelopes:
        assert envelope.file_bytes() == canonicalize(file_value(envelope))


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


class _Text(str):
    pass


class _Bytes(bytes):
    pass


def test_the_generated_writer_keeps_each_field_type_rule():
    """The writer generated for a record type reads each field straight from
    its attribute, yet a value of the wrong type in a field is written, or
    refused, as canonicalize of the reference JSON value writes or refuses
    it, with a memo or without."""
    cert = PlatformCertificate(platform_id="p", pubkey="k", root_signature=b"\x01")
    digest = Digest(bytes(32))
    external = ExternalCertificate(digest, "dataset", "d", {}, "acme", b"\x03")
    for record in (
        replace(cert, platform_id=_Text("p")),
        replace(cert, root_signature=_Bytes(b"\x01")),
        replace(cert, pubkey=["k", 1, None]),
        replace(external, name=_Text("d\u00e9")),
    ):
        assert record_bytes(record) == record_bytes(record, {}) == canonicalize(json_value(record))
    for bad in (bytearray(b"\x01"), memoryview(b"\x01")):  # hexlify alone would take either
        for write in (record_bytes, lambda record: record_bytes(record, {})):
            with pytest.raises(TypeError):
                write(replace(cert, root_signature=bad))
            with pytest.raises(TypeError):
                write(replace(external, signature=bad))
    for bad in (digest.hex, digest.value, None):  # not a Digest: no value to write
        with pytest.raises(AttributeError):
            record_bytes(replace(external, subject_sha256=bad))
    surrogate = "string holds a lone surrogate, which UTF-8 cannot encode at "
    for name in ("platform_id", "pubkey"):
        record = replace(cert, **{name: "a\ud800"})
        assert _outcome(lambda: record_bytes(record)) == surrogate + "/" + name
        assert _outcome(lambda: canonicalize(json_value(record))) == surrogate + "/" + name
        with pytest.raises(UnicodeEncodeError):  # named by the caller that keeps the memo
            record_bytes(record, {})


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


# What canonical JSON cannot hold: a float, a lone surrogate (as a string or
# as a key) and a key that is not a string.
PLANTS = st.sampled_from([0.5, "\ud800", {"\udc00": None}, {1: None}])
# Where below a field a plant goes: an integer is that index of an array (of
# nulls before it), a string that key of an object.
STEPS = st.lists(st.integers(0, 2) | st.text(max_size=2), max_size=3)
# The field types a plant may replace; a Digest or bytes field holds no JSON value.
PLANTABLE = (str, bool, int, Any, tuple[int, ...])
SIGNED_KINDS = ("platform-certificate", "certification", "external-certificate")


def _planted(plant: Any, steps: list[int | str]) -> Any:
    for step in reversed(steps):
        plant = [None] * step + [plant] if isinstance(step, int) else {step: plant}
    return plant


def _with_nested(record: Record) -> list[Record]:
    return [record, *(value for f in fields(record) if isinstance(value := getattr(record, f.name), Record))]


@st.composite
def _writes(draw, write: str) -> tuple[Any, list[Record]]:
    """A value that `write` writes, and every record it writes."""
    if write == "store":
        certifications = draw(st.lists(RECORDS["certification"], min_size=1, max_size=3))
        return certifications, certifications
    if write in ("bundle", "envelope"):
        certificates = st.just(draw(PLATFORM_CERTIFICATES)) | PLATFORM_CERTIFICATES
        envelope = st.builds(AttestationEnvelope, payload=st.binary(max_size=8), quote=quotes(certificates))
        if write == "envelope":
            value = draw(envelope)
            return value, _with_nested(value.quote)
        envelopes = draw(st.lists(envelope, max_size=3))
        externals = draw(st.lists(RECORDS["external-certificate"], max_size=2))
        records = [record for e in envelopes for record in _with_nested(e.quote)] + externals
        return AssertionBundle(tuple(envelopes), tuple(externals)), records
    value = draw(st.sampled_from(list(RECORDS) if write == "canonical_bytes" else SIGNED_KINDS).flatmap(RECORDS.get))
    return value, _with_nested(value)


def _outcome(write) -> bytes | str:
    """What write() returns, or the text of the CanonicalizationError it raises."""
    try:
        return write()
    except CanonicalizationError as exc:
        return str(exc)


def _file_written(write) -> bytes:
    """The bytes write(path) writes; when it raises, it has written no file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "written.json"
        try:
            write(path)
        except CanonicalizationError:
            assert not path.exists()
            raise
        return path.read_bytes()


def _outcomes(write: str, value: Any) -> tuple[bytes | str, bytes | str]:
    """The outcome of `write` of `value`, and of canonicalize of its reference JSON value."""
    if write == "store":
        saved = _outcome(lambda: _file_written(CertificationStore(value).save))
        return saved, _outcome(lambda: canonicalize(list(map(json_value, value))))
    if write == "bundle":
        return _outcome(lambda: _file_written(value.write)), _outcome(lambda: canonicalize(file_value(value)))
    if write == "envelope":
        return _outcome(value.file_bytes), _outcome(lambda: canonicalize(file_value(value)))
    if write == "canonical_bytes":
        return _outcome(lambda: value.canonical_bytes), _outcome(lambda: canonicalize(json_value(value)))
    return _outcome(value.signed_bytes), _outcome(lambda: canonicalize(_signed_value(value)))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    write=st.sampled_from(["bundle", "envelope", "store", "canonical_bytes", "signed_bytes"]),
    plants=st.lists(st.tuples(PLANTS, STEPS), min_size=1, max_size=2),
)
def test_a_failed_write_raises_what_canonicalize_of_the_reference_value_raises(data, write, plants):
    """One or two plants at any fields or depths of any records that a
    bundle, envelope, store or record writes make the write raise exactly
    canonicalize's error on the reference JSON value, which names the first
    in key order, and leave no file behind."""
    value, records = data.draw(_writes(write))
    for plant, steps in plants if records else ():
        target = data.draw(st.sampled_from(records))
        hints = get_type_hints(type(target))
        name = data.draw(st.sampled_from([f.name for f in fields(target) if f.init and hints[f.name] in PLANTABLE]))
        object.__setattr__(target, name, _planted(plant, steps))
    ours, reference = _outcomes(write, value)
    assert ours == reference


@pytest.mark.parametrize("depth", [990, 1000, 5000])
def test_a_value_nested_too_deeply_is_named_at_its_field(depth):
    """canonicalize names a value nested past the recursion limit at the
    root of what it is given, so a written record names the field holding
    it (a bundle written through canonicalize said `at /`)."""
    claims: Any = []
    for _ in range(depth):
        claims = [claims]
    digest = Digest(bytes(32))
    external = ExternalCertificate(digest, "dataset", "d", claims, "acme", b"\x03")
    nested = "value is nested too deeply at "
    assert _write_error(lambda: _written(AssertionBundle((), (external,)))) == nested + "/external_certificates/0/claims"
    assert _write_error(lambda: external.canonical_bytes) == nested + "/claims"


def _class_attributes(tree: ast.Module) -> dict[str, set[str]]:
    """Each class's name and the names its body defines or assigns."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = found.setdefault(node.name, set())
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                targets = item.targets if isinstance(item, ast.Assign) else [getattr(item, "target", None)]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return found


def test_records_are_written_only_as_canonical_bytes():
    """No class of lam writes a JSON value of a record, an envelope or a file:
    record_bytes is the one writer. The chain report, which is no record, is
    the one JSON value a class of lam writes."""
    src = Path(__file__).resolve().parents[1] / "src" / "lam"
    classes: dict[str, set[str]] = {}
    for path in sorted(src.rglob("*.py")):
        for cls, names in _class_attributes(ast.parse(path.read_text())).items():
            classes.setdefault(cls, set()).update(names)
    assert {"Record", "AttestationEnvelope", "AssertionBundle", "CertificationStore", "Model"} <= classes.keys()
    assert [cls for cls, names in classes.items() if "to_file_value" in names] == []
    assert [cls for cls, names in classes.items() if "to_json_value" in names] == ["ChainReport"]
