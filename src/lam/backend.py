"""Simulated TEE backend: enclave measurement, quote issuance, quote verification.

The trust chain mirrors SGX-style remote attestation: a manufacturer root key
certifies per-platform attestation keys; a quote is an Ed25519 signature by a
platform key over (enclave measurement, report data, debug flag). The
measure / issue / verify surface is the seam where a hardware-backed
implementation can be substituted; everything above it only sees Quote values
and their canonical JSON wire form.

Quotes carry no nonce or timestamp: every attested payload binds content
digests only, so replaying a genuine quote re-asserts a true statement.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Iterable

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey

from .errors import LamError
from .hashcore import Digest, TrustedManifest, canonicalize, hash_bytes

SIG_ALG = "ed25519"

# An enclave measurement is a Digest; the alias marks intent at call sites.
EnclaveMeasurement = Digest


def _private_from_seed(seed: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(hashlib.sha256(seed).digest())


def _public_hex(private: Ed25519PrivateKey) -> str:
    return private.public_key().public_bytes_raw().hex()


def _verify_hex(pubkey_hex: str, signature: bytes, message: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(bytes.fromhex(pubkey_hex)).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


@dataclass(frozen=True)
class PlatformCertificate:
    """Root-signed binding of a platform id to its attestation public key."""

    platform_id: str
    pubkey: str
    root_signature: bytes
    # root public key -> verdict. Not an init field, so dataclasses.replace
    # starts a changed certificate with an empty memo.
    _verdicts: dict[str, bool] = field(default_factory=dict, init=False, compare=False, repr=False)

    def signed_bytes(self) -> bytes:
        return canonicalize({"platform_id": self.platform_id, "pubkey": self.pubkey})

    def verifies_under(self, root_pubkey_hex: str) -> bool:
        verdict = self._verdicts.get(root_pubkey_hex)
        if verdict is None:
            verdict = _verify_hex(root_pubkey_hex, self.root_signature, self.signed_bytes())
            self._verdicts[root_pubkey_hex] = verdict
        return verdict

    def to_json_value(self) -> dict[str, Any]:
        return {
            "platform_id": self.platform_id,
            "pubkey": self.pubkey,
            "root_signature": self.root_signature.hex(),
        }

    @classmethod
    def from_json_value(cls, value: dict[str, Any]) -> "PlatformCertificate":
        return cls(
            platform_id=value["platform_id"],
            pubkey=value["pubkey"],
            root_signature=bytes.fromhex(value["root_signature"]),
        )


@dataclass(frozen=True)
class ManufacturerRoot:
    """Root of trust standing in for the TEE manufacturer."""

    private_key: Ed25519PrivateKey
    public_hex: str
    certificate: PlatformCertificate  # self-signed


@dataclass(frozen=True)
class PlatformIdentity:
    """A provisioned platform holding its attestation key in process memory."""

    platform_id: str
    private_key: Ed25519PrivateKey
    public_hex: str
    certificate: PlatformCertificate


@dataclass(frozen=True)
class Quote:
    enclave_measurement: EnclaveMeasurement
    report_data: Digest
    debug: bool
    sig_alg: str
    signature: bytes
    attestation_pubkey: str
    platform_certificate: PlatformCertificate

    def to_json_value(self) -> dict[str, Any]:
        return {
            "enclave_measurement": self.enclave_measurement.hex,
            "report_data": self.report_data.hex,
            "debug": self.debug,
            "sig_alg": self.sig_alg,
            "signature": self.signature.hex(),
            "attestation_pubkey": self.attestation_pubkey,
            "platform_certificate": self.platform_certificate.to_json_value(),
        }

    @classmethod
    def from_json_value(cls, value: dict[str, Any]) -> "Quote":
        return cls(
            enclave_measurement=Digest.from_hex(value["enclave_measurement"]),
            report_data=Digest.from_hex(value["report_data"]),
            debug=bool(value["debug"]),
            sig_alg=value["sig_alg"],
            signature=bytes.fromhex(value["signature"]),
            attestation_pubkey=value["attestation_pubkey"],
            platform_certificate=PlatformCertificate.from_json_value(value["platform_certificate"]),
        )


@dataclass(frozen=True)
class QuoteResult:
    accepted: bool
    reason: str | None = None  # bad-chain | bad-signature | debug-enclave
    measurement: EnclaveMeasurement | None = None
    report_data: Digest | None = None


def create_root(seed: bytes | str, root_id: str = "manufacturer-root") -> ManufacturerRoot:
    """Deterministic manufacturer root keypair plus its self-signed certificate."""
    seed_bytes = seed.encode("utf-8") if isinstance(seed, str) else seed
    if not seed_bytes:
        raise LamError("root seed must be nonempty")
    private = _private_from_seed(seed_bytes)
    public_hex = _public_hex(private)
    self_cert = PlatformCertificate(
        platform_id=root_id,
        pubkey=public_hex,
        root_signature=private.sign(canonicalize({"platform_id": root_id, "pubkey": public_hex})),
    )
    return ManufacturerRoot(private_key=private, public_hex=public_hex, certificate=self_cert)


def provision_platform(root: ManufacturerRoot, platform_id: str, seed: bytes | str | None = None) -> PlatformIdentity:
    """Provision a fresh attestation keypair certified by the root.

    A seed makes provisioning deterministic for reproducible fixtures;
    without one the key is drawn from OS entropy.
    """
    if seed is None:
        key_bytes = os.urandom(32)
    else:
        key_bytes = seed.encode("utf-8") if isinstance(seed, str) else seed
    private = _private_from_seed(key_bytes)
    public_hex = _public_hex(private)
    cert = PlatformCertificate(
        platform_id=platform_id,
        pubkey=public_hex,
        root_signature=root.private_key.sign(canonicalize({"platform_id": platform_id, "pubkey": public_hex})),
    )
    return PlatformIdentity(platform_id=platform_id, private_key=private, public_hex=public_hex, certificate=cert)


def _length_prefixed(*parts: bytes) -> bytes:
    blob = bytearray()
    for part in parts:
        blob += len(part).to_bytes(8, "big")
        blob += part
    return bytes(blob)


def measure_enclave(measurer_code: bytes, manifest: TrustedManifest, config: bytes) -> EnclaveMeasurement:
    """Enclave identity over (code digest, trusted-manifest digest, config bytes).

    Components are length-prefixed and hashed in that fixed order, so any byte
    of measurer code, any trusted file, or any config change moves the
    measurement.
    """
    return hash_bytes(
        _length_prefixed(hash_bytes(measurer_code).value, manifest.manifest_digest.value, config)
    )


def _quote_message(measurement: EnclaveMeasurement, report_data: Digest, debug: bool) -> bytes:
    return measurement.value + report_data.value + (b"\x01" if debug else b"\x00")


def issue_quote(
    platform: PlatformIdentity,
    measurement: EnclaveMeasurement,
    report_data: Digest,
    *,
    debug: bool = False,
) -> Quote:
    """Sign (measurement, report_data, debug) with the platform attestation key.

    `debug` exists so tests can simulate a debug-mode enclave; production
    callers never set it.
    """
    signature = platform.private_key.sign(_quote_message(measurement, report_data, debug))
    return Quote(
        enclave_measurement=measurement,
        report_data=report_data,
        debug=debug,
        sig_alg=SIG_ALG,
        signature=signature,
        attestation_pubkey=platform.public_hex,
        platform_certificate=platform.certificate,
    )


def verify_quote(quote: Quote, trusted_roots: Iterable[str]) -> QuoteResult:
    """Check chain, signature, and debug flag; on accept return the
    authenticated (measurement, report_data) for upstream policy checks."""
    cert = quote.platform_certificate
    if not any(cert.verifies_under(root) for root in trusted_roots):
        return QuoteResult(False, reason="bad-chain")
    if cert.pubkey != quote.attestation_pubkey:
        return QuoteResult(False, reason="bad-chain")
    if quote.sig_alg != SIG_ALG:
        return QuoteResult(False, reason="bad-signature")
    message = _quote_message(quote.enclave_measurement, quote.report_data, quote.debug)
    if not _verify_hex(quote.attestation_pubkey, quote.signature, message):
        return QuoteResult(False, reason="bad-signature")
    if quote.debug:
        return QuoteResult(False, reason="debug-enclave")
    return QuoteResult(True, measurement=quote.enclave_measurement, report_data=quote.report_data)
