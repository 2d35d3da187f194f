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
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey

from .errors import LamError
from .hashcore import Digest, TrustedManifest, canonicalize, hash_bytes

SIG_ALG = "ed25519"
# Fewest signatures verify_signatures splits across CPUs; each slice then
# holds at least half this many, so a fork pays for itself many times over.
PARALLEL_MIN = 512

# An enclave measurement is a Digest; the alias marks intent at call sites.
EnclaveMeasurement = Digest


def key_from_seed(seed: bytes | str | None) -> Ed25519PrivateKey:
    """The Ed25519 key whose private bytes are the SHA-256 of the seed (a str
    seed as UTF-8), so seeded keys are reproducible; without a seed, a key
    from OS entropy."""
    if seed is None:
        seed = os.urandom(32)
    elif isinstance(seed, str):
        seed = seed.encode("utf-8")
    return Ed25519PrivateKey.from_private_bytes(hashlib.sha256(seed).digest())


def _public_hex(private: Ed25519PrivateKey) -> str:
    return private.public_key().public_bytes_raw().hex()


def _verify_hex(pubkey_hex: str, signature: bytes, message: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(bytes.fromhex(pubkey_hex)).verify(signature, message)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def verify_signatures(triples: Sequence[tuple[str, bytes, bytes]]) -> list[bool]:
    """The Ed25519 verdict of each (public key hex, signature, message), in order.

    From PARALLEL_MIN triples on, with two or more usable CPUs, the triples
    are cut into contiguous slices, one per CPU: this process checks the
    first, and a forked child checks each other one from the memory it
    inherits (threads measured slower than one serial loop).
    A slice whose child fails or answers short is checked again here.
    A process running other Python threads checks serially: a child holds
    only the forking thread, so a lock another thread held stays locked.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(triples) * 2 // PARALLEL_MIN) if threading.active_count() == 1 else 1
    if workers < 2:
        return [_verify_hex(*t) for t in triples]
    bounds = [len(triples) * i // workers for i in range(workers + 1)]
    children = [(lo, hi, _fork_check(triples[lo:hi])) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        verdicts = [_verify_hex(*t) for t in triples[: bounds[1]]]
    finally:
        answers = [_read_child(child) for _, _, child in children]
    for (lo, hi, _), answer in zip(children, answers):
        if len(answer) != hi - lo:  # the child failed: check its slice here
            answer = bytes(_verify_hex(*t) for t in triples[lo:hi])
        verdicts += [b == 1 for b in answer]
    return verdicts


def _fork_check(triples: Sequence[tuple[str, bytes, bytes]]) -> tuple[int, int] | None:
    """Fork a child that writes one byte per verdict (1 verifies, 0 does not)
    to a pipe and exits; (its pid, the pipe's read end), or None if no child
    could be started."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:  # the child never returns into the caller
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(bytes(_verify_hex(*t) for t in triples))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _read_child(child: tuple[int, int] | None) -> bytes:
    """What the child sent, once it has exited; nothing unless it exited cleanly."""
    if child is None:
        return b""
    pid, read_fd = child
    with os.fdopen(read_fd, "rb") as pipe:
        answer = pipe.read()
    _, status = os.waitpid(pid, 0)
    return answer if os.waitstatus_to_exitcode(status) == 0 else b""


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

    def signed(self) -> tuple[str, bytes, bytes]:
        """(public key hex, signature, message) of the quote's signature."""
        message = _quote_message(self.enclave_measurement, self.report_data, self.debug)
        return self.attestation_pubkey, self.signature, message

    @cached_property
    def signature_valid(self) -> bool:
        """Whether the signature verifies under attestation_pubkey, computed
        once per Quote object (check_quote_signatures fills it in bulk). Not
        a field, so dataclasses.replace starts a changed quote without it."""
        return _verify_hex(*self.signed())


@dataclass(frozen=True)
class QuoteResult:
    accepted: bool
    reason: str | None = None  # bad-chain | bad-signature | debug-enclave
    measurement: EnclaveMeasurement | None = None
    report_data: Digest | None = None


def _certify(signer: Ed25519PrivateKey, platform_id: str, subject: Ed25519PrivateKey) -> PlatformCertificate:
    """A certificate binding platform_id to the subject's public key, signed by signer."""
    pubkey = _public_hex(subject)
    signature = signer.sign(canonicalize({"platform_id": platform_id, "pubkey": pubkey}))
    return PlatformCertificate(platform_id=platform_id, pubkey=pubkey, root_signature=signature)


def create_root(seed: bytes | str) -> ManufacturerRoot:
    """Deterministic manufacturer root keypair plus its self-signed certificate."""
    if not seed:
        raise LamError("root seed must be nonempty")
    private = key_from_seed(seed)
    certificate = _certify(private, "manufacturer-root", private)
    return ManufacturerRoot(private_key=private, public_hex=certificate.pubkey, certificate=certificate)


def provision_platform(root: ManufacturerRoot, platform_id: str, seed: bytes | str | None = None) -> PlatformIdentity:
    """Provision a fresh attestation keypair certified by the root.

    A seed makes provisioning deterministic for reproducible fixtures;
    without one the key is drawn from OS entropy.
    """
    private = key_from_seed(seed)
    certificate = _certify(root.private_key, platform_id, private)
    return PlatformIdentity(
        platform_id=platform_id, private_key=private, public_hex=certificate.pubkey, certificate=certificate
    )


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
    if not quote.signature_valid:
        return QuoteResult(False, reason="bad-signature")
    if quote.debug:
        return QuoteResult(False, reason="debug-enclave")
    return QuoteResult(True, measurement=quote.enclave_measurement, report_data=quote.report_data)


def check_quote_signatures(quotes: Sequence[Quote]) -> None:
    """Fill every quote's signature_valid memo at once (see verify_signatures)."""
    for quote, verdict in zip(quotes, verify_signatures([q.signed() for q in quotes])):
        # what cached_property itself does on first access
        vars(quote)["signature_valid"] = verdict
