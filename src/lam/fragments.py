"""What the prover and the verifier both read about attestation fragments.

Each builtin attestation type has one AttSpec: the enclave kind that produces
it, the digest its fragments are looked up by, and its fragment's one shape,
which validate_fragment holds the prover to, verify_envelope the verifier,
and builtin_template turns into a default certification template. Here too
are the envelope (canonical fragment bytes plus their quote) and its file
form, the simulated enclave contexts whose measurements certifications name,
and index_fragments, the one index chains and cards read fragments by.

Nothing here runs a model: the measurers (lam.measurers) and the ML engine
(lam.engine) are the prover's alone, so verifying imports neither.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable

from .backend import EnclaveMeasurement, PlatformCertificate, Quote, measure_enclave
from .errors import DomainError, LamError
from .hashcore import (
    TrustedManifest,
    canonicalize,
    hash_bytes,
    hash_file_once,
    object_keys,
    parse_canonical,
    read_canonical,
    record_fields,
    require_in_manifest,
)

if TYPE_CHECKING:
    from .verifier import VerifiedFragment

ENVELOPE_VERSION = 1
_ENVELOPE_KEYS = frozenset({"payload_b64", "quote"})
TASK = "tabular-classification"


@dataclass(frozen=True)
class AttSpec:
    """What the toolkit knows about one builtin attestation type."""

    enclave_kind: str  # the builtin enclave identity that produces it
    lookup: str  # the digest field chains and cards look its fragments up by
    # Its fragment's one shape, read by builtin_template, validate_fragment
    # and verify_envelope: None is any value, str any string, a literal
    # string itself; a dict is an object with exactly its keys (at least
    # them if one is `...`: the template leaves it open); [s] an array of s.
    shape: dict[str, Any]


def _metric(dataset_field: str, metric_type: str, *fields: str) -> dict[str, Any]:
    metrics = [{"type": metric_type, **dict.fromkeys(fields)}]
    return {"model_sha256": str, dataset_field: str, "results": {"task": TASK, "metrics": metrics}}


# Chains and cards read only what these shapes spell out, and a builtin type
# is held to its shape under any certification, so it is always there. Each
# type's first field is its lookup digest.
ATT_SPECS: dict[str, AttSpec] = {
    att_type: AttSpec(enclave_kind, next(iter(fields)), {"att_type": att_type, **fields})
    for att_type, enclave_kind, fields in (
        ("DistAtt", "dataset", {"dataset_sha256": str, "property": {"kind": str, ...: None}}),
        ("PoT", "training", dict.fromkeys(("model_sha256", "arch_sha256", "dataset_sha256", "config_sha256"), str)),
        ("AccAtt", "metric", _metric("dataset_sha256", "accuracy", "value", "numerator", "denominator")),
        ("FairAtt", "metric", _metric("dataset_sha256", "demographic_parity", "value", "parameters")),
        ("RobustAtt-A", "metric", {
            "robust_dataset_sha256": str, "dataset_sha256": str, "parameters": {"epsilon": str, ...: None}
        }),
        ("RobustAtt-B", "metric", _metric(
            "robust_dataset_sha256", "robust_accuracy", "value", "numerator", "denominator", "parameters"
        )),
        ("IOAtt", "inference", {"model_sha256": str, "input_sha256": str, "output_sha256": str, "output": None}),
    )
}

ATT_TYPES = tuple(ATT_SPECS)

_MEASURER_SOURCES = {
    "dataset": b"lam measurer 'dataset': sensitive-attribute distribution counts, v1\n",
    "training": b"lam measurer 'training': seeded mini-batch MLP training, v1\n",
    "metric": b"lam measurer 'metric': accuracy / demographic parity / FGSM robustness, v1\n",
    "inference": b"lam measurer 'inference': forward pass with quantized argmax, v1\n",
}


@dataclass(frozen=True)
class EnclaveContext:
    """Identity of one simulated enclave: measurer code, trusted files, config.

    With an input_manifest the context behaves like trusted-file mode: every
    input must be listed and hash-match, and the manifest is part of the
    enclave measurement. Without one, inputs are read-once hashed only.
    """

    kind: str
    measurer_code: bytes
    config_bytes: bytes
    input_manifest: TrustedManifest | None = None

    @property
    def trusted_manifest(self) -> TrustedManifest:
        entries = [(f"measurer/{self.kind}.py", hash_bytes(self.measurer_code))]
        if self.input_manifest is not None:
            entries.extend((f"input/{p}", d) for p, d in self.input_manifest.entries)
        return TrustedManifest.from_entries(entries)

    @cached_property
    def measurement(self) -> EnclaveMeasurement:
        return measure_enclave(self.measurer_code, self.trusted_manifest, self.config_bytes)

    def with_trusted_inputs(self, manifest: TrustedManifest) -> "EnclaveContext":
        return replace(self, input_manifest=manifest)

    def read_input(self, path: str | Path) -> bytes:
        """Read-once an input file; under trusted-file mode the content must
        match the manifest or the measurer aborts before any quote exists."""
        content, _ = hash_file_once(path)
        if self.input_manifest is not None:
            require_in_manifest(self.input_manifest, Path(path).name, content)
        return content


def default_enclaves() -> dict[str, EnclaveContext]:
    return {
        kind: EnclaveContext(
            kind=kind,
            measurer_code=code,
            config_bytes=canonicalize({"enclave": kind, "simulated": True, "version": 1}),
        )
        for kind, code in _MEASURER_SOURCES.items()
    }


@dataclass(frozen=True)
class AttestationEnvelope:
    """Canonical fragment bytes plus the quote binding them to an enclave."""

    payload: bytes
    quote: Quote

    def payload_value(self) -> dict[str, Any]:
        return parse_canonical(self.payload)

    def to_json_value(self) -> dict[str, Any]:
        return {
            "payload_b64": base64.b64encode(self.payload).decode("ascii"),
            "quote": self.quote.to_json_value(),
        }

    def to_file_value(self) -> dict[str, Any]:
        value = self.to_json_value()
        value["version"] = ENVELOPE_VERSION
        return value

    @classmethod
    def from_json_value(cls, value: Any) -> "AttestationEnvelope":
        [envelope] = cls.from_json_values([value])
        return envelope

    @classmethod
    def from_json_values(cls, values: Iterable[Any]) -> list["AttestationEnvelope"]:
        """The envelopes of JSON values, each built once; quotes whose
        platform certificates are equal share one PlatformCertificate, so
        each is checked against a root once."""
        certificates: dict[PlatformCertificate, PlatformCertificate] = {}
        envelopes = []
        for value in values:
            object_keys(value, _ENVELOPE_KEYS, "envelope")
            try:
                # without validate, the decoder skips characters outside the
                # alphabet, so an altered payload_b64 could still be accepted
                payload = base64.b64decode(value["payload_b64"], validate=True)
            except (TypeError, ValueError) as exc:  # not a string, binascii.Error, or non-ASCII
                raise LamError(f"envelope payload_b64 is not strict base64: {exc}") from exc
            quote = record_fields(Quote, value["quote"], "quote")
            cert = quote["platform_certificate"]
            quote["platform_certificate"] = certificates.setdefault(cert, cert)
            envelopes.append(cls(payload=payload, quote=Quote(**quote)))
        return envelopes

    @classmethod
    def from_file_value(cls, value: Any) -> "AttestationEnvelope":
        """Parse to_file_value's form, checking its version."""
        if not isinstance(value, dict):
            raise LamError("not an envelope")
        version = value.get("version")
        if type(version) is not int or version != ENVELOPE_VERSION:
            raise LamError(f"unsupported envelope version {version!r} (expected {ENVELOPE_VERSION})")
        return cls.from_json_value({key: item for key, item in value.items() if key != "version"})

    @classmethod
    def read(cls, path: str | Path) -> "AttestationEnvelope":
        return read_canonical(path, cls.from_file_value)


def validate_fragment(value: Any) -> str:
    """Check a parsed fragment against its att_type's shape; returns the type."""
    if not isinstance(value, dict):
        raise DomainError("fragment must be a JSON object")
    att_type = value.get("att_type")
    spec = ATT_SPECS.get(att_type)
    if spec is None:
        raise DomainError(f"unknown att_type {att_type!r}")
    detail = shape_mismatch(att_type, value)
    if detail is not None:
        raise DomainError(detail)
    return att_type


def shape_mismatch(att_type: str, value: Any) -> str | None:
    """Where a fragment of a builtin type departs from its shape, as in
    'PoT field is not a string at /dataset_sha256', or None where it fits."""
    found = _walk(ATT_SPECS[att_type].shape, value)
    return None if found is None else f"{att_type} field is not {found[1]} at {found[0] or '/'}"


def _walk(shape: Any, value: Any) -> tuple[str, str] | None:
    """(path, what it should be) where `value` first departs from `shape`,
    or None; members are walked before key sets, a missing one as null."""
    if shape is None:
        return None
    if shape is str:
        return None if isinstance(value, str) else ("", "a string")
    if isinstance(shape, str):
        return None if isinstance(value, str) and value == shape else ("", repr(shape))
    if isinstance(shape, list):
        if not isinstance(value, list):
            return ("", "an array")
        for i, item in enumerate(value):
            found = _walk(shape[0], item)
            if found is not None:
                return (f"/{i}{found[0]}", found[1])
        return None
    fields = value if isinstance(value, dict) else {}
    for key, member in shape.items():
        found = _walk(member, fields.get(key))
        if found is not None:
            return (f"/{key}{found[0]}", found[1])
    if fields is not value or (... not in shape and value.keys() != shape.keys()):
        return ("", f"an object with keys {sorted(k for k in shape if k is not ...)}")
    return None


def builtin_template(att_type: str) -> Any:
    """Default certification template for an attestation type, a fresh copy
    made from its shape: pinned strings and objects, null wildcards for the
    attested values. Key-set equality in the matcher keeps a certified
    enclave from smuggling extra claims."""
    spec = ATT_SPECS.get(att_type)
    if spec is None:
        raise DomainError(f"unknown att_type {att_type!r}")
    return _template(spec.shape)


def _template(shape: Any) -> Any:
    if isinstance(shape, list):  # a template object matches an array of objects too
        return _template(shape[0])
    if isinstance(shape, dict):
        return None if ... in shape else {key: _template(member) for key, member in shape.items()}
    return shape if isinstance(shape, str) else None


def enclave_kind_for(att_type: str) -> str:
    """Which builtin enclave identity produces a given attestation type."""
    return ATT_SPECS[att_type].enclave_kind


def index_fragments(
    fragments: Iterable[VerifiedFragment],
) -> tuple[list[VerifiedFragment], dict[str, dict[str, list[VerifiedFragment]]]]:
    """The fragments chains and cards read: the first of each fragment_sha256,
    in input order, so a fragment repeated in a bundle counts once; and the
    builtin ones among them as att_type -> lookup digest -> fragments, each
    list in input order."""
    first: dict[bytes, VerifiedFragment] = {}
    for f in fragments:
        first.setdefault(f.fragment_sha256.value, f)
    index: dict[str, dict[str, list[VerifiedFragment]]] = {att: {} for att in ATT_SPECS}
    for f in first.values():
        spec = ATT_SPECS.get(f.att_type)
        if spec is not None:
            index[f.att_type].setdefault(f.payload[spec.lookup], []).append(f)
    return list(first.values()), index
