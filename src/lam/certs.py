"""Endorser-side artifacts: certifications binding enclave measurements to
claim templates, and external certificates naming datasets or models.

Endorser keys are the second root of trust next to the TEE manufacturer:
a verifier that trusts an endorser key can derive trust in every record it
signed. Both record kinds are canonical JSON and backend.Signed records,
signed and checked as every signature is; a store is checked in one call.
certificates_by_subject is the one rule for which valid external
certificate names a dataset or model; chains and cards both read it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from .backend import Signed, check_signatures, key_from_seed, public_hex
from .errors import InvalidCertificationError, LamError
from .hashcore import Digest, canonicalize, in_file, read_canonical, read_entries

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
        return public_hex(self.private_key)

    @classmethod
    def create(cls, endorser_id: str, seed: bytes | str | None = None) -> "Endorser":
        return cls(endorser_id=endorser_id, private_key=key_from_seed(seed))


@dataclass(frozen=True)
class Certification(Signed):
    """Endorser-signed mapping: enclave measurement -> claim template."""

    enclave_measurement: Digest
    template: Any
    endorser_id: str
    signature: bytes
    record_name = "certification"

    def signed_bytes(self) -> bytes:
        return canonicalize(
            {"enclave_measurement": self.enclave_measurement.hex, "template": self.template}
        )

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
    return Certification.signed_by(endorser.private_key, measurement, template, endorser.endorser_id)


@dataclass(frozen=True)
class ExternalCertificate(Signed):
    """Endorser-signed statement about a dataset or model digest."""

    subject_sha256: Digest
    subject_kind: str
    name: str
    claims: Any
    endorser_id: str
    signature: bytes
    # Weak references to the certificates parsed with this one (check_together).
    # Not an init field, so dataclasses.replace starts a changed one with none.
    _batch: tuple[weakref.ref[ExternalCertificate], ...] = field(default=(), init=False, compare=False, repr=False)
    record_name = "external certificate"

    def __post_init__(self) -> None:
        if self.subject_kind not in SUBJECT_KINDS:
            raise LamError(f"external certificate subject_kind must be one of {SUBJECT_KINDS}: {self.subject_kind!r}")

    def verifies_under(self, endorser_pubkey_hex: str) -> bool:
        """Signed.verifies_under; the first question under a key answers it
        in one check_signatures call for every certificate of this one's
        batch that names the same endorser."""
        if self._verdict(endorser_pubkey_hex) is None:
            batch = [c for c in (ref() for ref in self._batch) if c is not None and c.endorser_id == self.endorser_id]
            check_signatures([(c, endorser_pubkey_hex) for c in batch])
        return super().verifies_under(endorser_pubkey_hex)


def check_together(certificates: Sequence[ExternalCertificate]) -> None:
    """Make the certificates one batch, whose signatures are checked in bulk
    when one of them is asked about (see ExternalCertificate.verifies_under)."""
    batch = tuple(weakref.ref(cert) for cert in certificates)
    for cert in certificates:
        object.__setattr__(cert, "_batch", batch)


def make_external_certificate(
    endorser: Endorser,
    subject: Digest,
    subject_kind: str,
    name: str,
    claims: Any = None,
) -> ExternalCertificate:
    claims = claims if claims is not None else {}
    canonicalize(claims)  # rejects floats and other non-canonical content, at their path in claims
    return ExternalCertificate.signed_by(
        endorser.private_key, subject, subject_kind, name, claims, endorser.endorser_id
    )


def certificates_by_subject(
    certificates: Iterable[ExternalCertificate],
) -> dict[str, dict[str, ExternalCertificate]]:
    """subject_kind -> subject digest (hex) -> the certificate that names
    that subject, for every kind in SUBJECT_KINDS. The certificates are the
    valid ones, in bundle order; of several for one subject, the last one
    names it. This is the only place that rule is made."""
    by_subject: dict[str, dict[str, ExternalCertificate]] = {kind: {} for kind in SUBJECT_KINDS}
    for cert in certificates:
        by_subject[cert.subject_kind][cert.subject_sha256.hex] = cert
    return by_subject


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
        return read_canonical(path, cls.from_json_value)

    @classmethod
    def from_json_value(cls, value: Any) -> "CertificationStore":
        if not isinstance(value, list):
            raise LamError("certification store must be a JSON array")
        return read_entries(
            "certification store entry", value, lambda items: cls(map(Certification.from_json_value, items))
        )

    @classmethod
    def load(cls, path: str | Path, endorser_keys: Mapping[str, str]) -> "CertificationStore":
        """Load a store file, rejecting it for the first record, in store order,
        whose signature does not verify under a registered endorser key."""
        store = cls.read_unverified(path)
        keyed = [(cert, endorser_keys.get(cert.endorser_id)) for cert in store._all]
        with in_file(path):
            for (cert, pubkey), verdict in zip(keyed, check_signatures(keyed)):
                if pubkey is None:
                    raise LamError(f"certification by unknown endorser {cert.endorser_id!r}")
                if not verdict:
                    raise LamError(
                        f"certification signature invalid (endorser {cert.endorser_id!r}, "
                        f"measurement {cert.enclave_measurement.hex[:12]})"
                    )
        return store
