"""Endorser-side artifacts: certifications binding enclave measurements to
claim templates, and external certificates naming datasets or models.

Endorser keys are the second root of trust next to the TEE manufacturer:
a verifier that trusts an endorser key can derive trust in every record it
signed. Both record kinds are canonical JSON and signature-checked at load.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from .backend import _public_hex, _verify_hex, key_from_seed
from .errors import InvalidCertificationError, LamError
from .hashcore import Digest, canonicalize, hash_bytes, hash_file_once, parse_canonical

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
    def from_json_value(cls, value: dict[str, Any]) -> "Certification":
        return cls(
            enclave_measurement=Digest.from_hex(value["enclave_measurement"]),
            template=value["template"],
            endorser_id=value["endorser_id"],
            signature=bytes.fromhex(value["signature"]),
        )

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
    unsigned = canonicalize({"enclave_measurement": measurement.hex, "template": template})
    return Certification(
        enclave_measurement=measurement,
        template=template,
        endorser_id=endorser.endorser_id,
        signature=endorser.private_key.sign(unsigned),
    )


@dataclass(frozen=True)
class ExternalCertificate:
    """Endorser-signed statement about a dataset or model digest."""

    subject_sha256: Digest
    subject_kind: str
    name: str
    claims: Any
    endorser_id: str
    signature: bytes

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
        return _verify_hex(endorser_pubkey_hex, self.signature, self.signed_bytes())

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
    def from_json_value(cls, value: dict[str, Any]) -> "ExternalCertificate":
        return cls(
            subject_sha256=Digest.from_hex(value["subject_sha256"]),
            subject_kind=value["subject_kind"],
            name=value["name"],
            claims=value["claims"],
            endorser_id=value["endorser_id"],
            signature=bytes.fromhex(value["signature"]),
        )

    @cached_property
    def certificate_sha256(self) -> Digest:
        return hash_bytes(canonicalize(self.to_json_value()))


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
    canonicalize(claims)  # rejects floats and other non-canonical content
    unsigned = canonicalize(
        {
            "claims": claims,
            "endorser_id": endorser.endorser_id,
            "name": name,
            "subject_kind": subject_kind,
            "subject_sha256": subject.hex,
        }
    )
    return ExternalCertificate(
        subject_sha256=subject,
        subject_kind=subject_kind,
        name=name,
        claims=claims,
        endorser_id=endorser.endorser_id,
        signature=endorser.private_key.sign(unsigned),
    )


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
    def load(cls, path: str | Path, endorser_keys: Mapping[str, str]) -> "CertificationStore":
        """Load a store file, rejecting any record whose signature does not
        verify under a registered endorser key."""
        content, _ = hash_file_once(path)
        value = parse_canonical(content)
        if not isinstance(value, list):
            raise LamError("certification store must be a JSON array")
        store = cls()
        for item in value:
            cert = Certification.from_json_value(item)
            pubkey = endorser_keys.get(cert.endorser_id)
            if pubkey is None:
                raise LamError(f"certification by unknown endorser {cert.endorser_id!r}")
            if not cert.verifies_under(pubkey):
                raise LamError(
                    f"certification signature invalid (endorser {cert.endorser_id!r}, "
                    f"measurement {cert.enclave_measurement.hex[:12]})"
                )
            store.add(cert)
        return store
