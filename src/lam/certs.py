"""Endorser-side artifacts: certifications binding enclave measurements to
claim templates, and external certificates naming datasets or models.

Endorser keys are the second root of trust next to the TEE manufacturer:
a verifier that trusts an endorser key can derive trust in every record it
signed. Both record kinds are canonical JSON and signature-checked at load.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from .backend import _public_hex, _verify_hex, key_from_seed, verify_signatures
from .errors import InvalidCertificationError, LamError
from .hashcore import Digest, canonicalize, hash_bytes, parse_record, read_canonical

SUBJECT_KINDS = ("dataset", "model")


def validate_template(template: Any, path: str = "") -> None:
    """Reject any template containing value kinds outside
    {null, dict, string, boolean, integer}. Floats and arrays are disallowed."""
    if template is None or isinstance(template, (str, bool)):
        return
    if isinstance(template, int):
        return
    if isinstance(template, dict):
        for key, value in template.items():
            if not isinstance(key, str):
                raise InvalidCertificationError(path, f"non-string template key {key!r}")
            validate_template(value, f"{path}/{key}")
        return
    raise InvalidCertificationError(
        path, f"disallowed template value of type {type(template).__name__}"
    )


@dataclass(frozen=True)
class Endorser:
    """An endorsing organization's signing identity."""

    endorser_id: str
    private_key: Ed25519PrivateKey

    @property
    def public_hex(self) -> str:
        return _public_hex(self.private_key)

    @classmethod
    def create(cls, endorser_id: str, seed: bytes | str | None = None) -> "Endorser":
        return cls(endorser_id=endorser_id, private_key=key_from_seed(seed))


@dataclass(frozen=True)
class Certification:
    """Endorser-signed mapping: enclave measurement -> claim template."""

    enclave_measurement: Digest
    template: Any
    endorser_id: str
    signature: bytes

    def signed_bytes(self) -> bytes:
        return canonicalize(
            {"enclave_measurement": self.enclave_measurement.hex, "template": self.template}
        )

    def verifies_under(self, endorser_pubkey_hex: str) -> bool:
        return _verify_hex(endorser_pubkey_hex, self.signature, self.signed_bytes())

    def to_json_value(self) -> dict[str, Any]:
        return {
            "enclave_measurement": self.enclave_measurement.hex,
            "endorser_id": self.endorser_id,
            "signature": self.signature.hex(),
            "template": self.template,
        }

    @classmethod
    def from_json_value(cls, value: Any) -> "Certification":
        return parse_record(cls, value, "certification")

    @cached_property
    def certification_sha256(self) -> Digest:
        return hash_bytes(canonicalize(self.to_json_value()))

    @cached_property
    def template_error(self) -> InvalidCertificationError | None:
        """Why the template is invalid (see validate_template), or None."""
        try:
            validate_template(self.template)
        except InvalidCertificationError as exc:
            return exc
        return None


def make_certification(endorser: Endorser, measurement: Digest, template: Any) -> Certification:
    """Validate the template and sign (measurement, template)."""
    validate_template(template)
    unsigned = Certification(measurement, template, endorser.endorser_id, signature=b"")
    return replace(unsigned, signature=endorser.private_key.sign(unsigned.signed_bytes()))


class _Memo:
    """An external certificate's verdict by endorser key, and weak references
    to the certificates parsed together with it (see check_together), so a
    batch keeps none of them alive."""

    __slots__ = ("verdicts", "batch")

    def __init__(self) -> None:
        self.verdicts: dict[str, bool] = {}
        self.batch: tuple[weakref.ref[ExternalCertificate], ...] = ()


@dataclass(frozen=True)
class ExternalCertificate:
    """Endorser-signed statement about a dataset or model digest."""

    subject_sha256: Digest
    subject_kind: str
    name: str
    claims: Any
    endorser_id: str
    signature: bytes
    # Not an init field, so dataclasses.replace starts a changed certificate
    # with an empty memo and no batch.
    _memo: _Memo = field(default_factory=_Memo, init=False, compare=False, repr=False)

    def signed_bytes(self) -> bytes:
        return canonicalize(
            {
                "claims": self.claims,
                "endorser_id": self.endorser_id,
                "name": self.name,
                "subject_kind": self.subject_kind,
                "subject_sha256": self.subject_sha256.hex,
            }
        )

    def verifies_under(self, endorser_pubkey_hex: str) -> bool:
        """Whether the signature verifies under the key, memoized per key.
        For callers that ask one certificate at a time, the first question
        under a key answers it, in one verify_signatures call, for every
        certificate of this one's batch that names the same endorser and has
        no verdict under that key yet (verify_external_certificates answers
        a whole bundle across endorsers)."""
        verdict = self._memo.verdicts.get(endorser_pubkey_hex)
        if verdict is None:
            pending = [
                c
                for c in (ref() for ref in self._memo.batch)
                if c is not None and c.endorser_id == self.endorser_id and endorser_pubkey_hex not in c._memo.verdicts
            ]
            _check([(c, endorser_pubkey_hex) for c in pending or [self]])
            verdict = self._memo.verdicts[endorser_pubkey_hex]
        return verdict

    def to_json_value(self) -> dict[str, Any]:
        return {
            "claims": self.claims,
            "endorser_id": self.endorser_id,
            "name": self.name,
            "signature": self.signature.hex(),
            "subject_kind": self.subject_kind,
            "subject_sha256": self.subject_sha256.hex,
        }

    @classmethod
    def from_json_value(cls, value: Any) -> "ExternalCertificate":
        return parse_record(cls, value, "external certificate")

    @cached_property
    def certificate_sha256(self) -> Digest:
        return hash_bytes(canonicalize(self.to_json_value()))


def check_together(certificates: Sequence[ExternalCertificate]) -> None:
    """Make the certificates one batch, whose signatures are checked in bulk
    when one of them is asked about (see ExternalCertificate.verifies_under)."""
    batch = tuple(weakref.ref(cert) for cert in certificates)
    for cert in certificates:
        cert._memo.batch = batch


def verify_external_certificates(
    certificates: Sequence[ExternalCertificate], endorser_keys: Mapping[str, str]
) -> list[bool]:
    """Whether each certificate verifies under its endorser's key (False for
    an endorser without one). Every verdict not yet memoized, whatever its
    endorser, is checked in one verify_signatures call."""
    keyed = [(cert, endorser_keys.get(cert.endorser_id)) for cert in certificates]
    _check([(cert, key) for cert, key in keyed if key is not None and key not in cert._memo.verdicts])
    return [key is not None and cert._memo.verdicts[key] for cert, key in keyed]


def _check(pending: Sequence[tuple[ExternalCertificate, str]]) -> None:
    """Memoize each certificate's verdict under its key, all checked in one
    verify_signatures call."""
    triples = [(key, cert.signature, cert.signed_bytes()) for cert, key in pending]
    for (cert, key), ok in zip(pending, verify_signatures(triples)):
        cert._memo.verdicts[key] = ok


def make_external_certificate(
    endorser: Endorser,
    subject: Digest,
    subject_kind: str,
    name: str,
    claims: Any = None,
) -> ExternalCertificate:
    if subject_kind not in SUBJECT_KINDS:
        raise LamError(f"subject_kind must be one of {SUBJECT_KINDS}")
    claims = claims if claims is not None else {}
    canonicalize(claims)  # rejects floats and other non-canonical content, at their path in claims
    unsigned = ExternalCertificate(subject, subject_kind, name, claims, endorser.endorser_id, signature=b"")
    return replace(unsigned, signature=endorser.private_key.sign(unsigned.signed_bytes()))


class CertificationStore:
    """Read-only lookup from enclave measurement to its certifications.

    A measurement may carry several certifications (the metric enclave is
    certified once per attestation type it hosts).
    """

    def __init__(self, certifications: Iterable[Certification] = ()) -> None:
        self._by_measurement: dict[str, list[Certification]] = {}
        self._all: list[Certification] = []
        for cert in certifications:
            self.add(cert)

    def add(self, cert: Certification) -> None:
        self._all.append(cert)
        self._by_measurement.setdefault(cert.enclave_measurement.hex, []).append(cert)

    def for_measurement(self, measurement: Digest) -> list[Certification]:
        return list(self._by_measurement.get(measurement.hex, []))

    def __len__(self) -> int:
        return len(self._all)

    def to_json_value(self) -> list[dict[str, Any]]:
        return [cert.to_json_value() for cert in self._all]

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(canonicalize(self.to_json_value()))

    @classmethod
    def read_unverified(cls, path: str | Path) -> "CertificationStore":
        """Parse a store file without checking any signature."""
        value = read_canonical(path)
        if not isinstance(value, list):
            raise LamError(f"certification store must be a JSON array: {path}")
        store = cls()
        for i, item in enumerate(value):
            try:
                store.add(Certification.from_json_value(item))
            except LamError as exc:
                raise LamError(f"certification store entry {i}: {exc}: {path}") from None
        return store

    @classmethod
    def load(cls, path: str | Path, endorser_keys: Mapping[str, str]) -> "CertificationStore":
        """Load a store file, rejecting any record whose signature does not
        verify under a registered endorser key."""
        store = cls.read_unverified(path)
        for cert in store._all:
            pubkey = endorser_keys.get(cert.endorser_id)
            if pubkey is None:
                raise LamError(f"certification by unknown endorser {cert.endorser_id!r}")
            if not cert.verifies_under(pubkey):
                raise LamError(
                    f"certification signature invalid (endorser {cert.endorser_id!r}, "
                    f"measurement {cert.enclave_measurement.hex[:12]})"
                )
        return store
