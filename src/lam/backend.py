"""Simulated TEE backend: enclave measurement, quote issuance, quote verification.

The trust chain mirrors SGX-style remote attestation: a manufacturer root key
certifies per-platform attestation keys; a quote is an Ed25519 signature by a
platform key over (enclave measurement, report data, debug flag). The
measure / issue / verify surface is the seam where a hardware-backed
implementation can be substituted; everything above it only sees Quote values
and their canonical JSON wire form.

Every signed record (platform certificate, quote, certification, external
certificate) is a Signed, a hashcore.Record, whose wire form is read and
written from its field annotations, and which signs its canonical bytes
(hashcore.record_bytes) less the signature: made by signed_by, checked by
verifies_under or in bulk by check_signatures, its verdicts memoized per
key; forked children share a large bulk check through verdict slots in
shared memory, and start_signature_checks leaves verdicts pending there
until asked for. Nothing else signs. verify_quote answers None for a quote
it accepts, else its reason.

Quotes carry no nonce or timestamp: every attested payload binds content
digests only, so replaying a genuine quote re-asserts a true statement.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import signal
import threading
import weakref
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable, Sequence, TypeVar

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey

from .errors import LamError
from .hashcore import Digest, Record, TrustedManifest, hash_bytes, record_bytes

SIG_ALG = "ed25519"
# Fewest signatures verify_signatures splits across CPUs; each slice then
# holds at least half this many, so a fork pays for itself many times over.
PARALLEL_MIN = 512

# A record's verdict under a key lives in its instance dict under this prefix
# plus the key, as a cached_property keeps its value: not a field, so eq, hash,
# repr, the wire form and dataclasses.replace never see it, and not read as an
# attribute, whose lookup would put a fresh name in the type's method cache.
_VERDICT = "verdict under "

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


def public_hex(private: Ed25519PrivateKey) -> str:
    return private.public_key().public_bytes_raw().hex()


def _verify_hex(pubkey_hex: str, signature: bytes, message: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(bytes.fromhex(pubkey_hex)).verify(signature, message)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def verify_signatures(triples: Sequence[tuple[str, bytes, bytes]]) -> list[bool]:
    """The Ed25519 verdict of each (public key hex, signature, message), in
    order. Forked children check them too when _fork_checks allows; this
    process then checks only the verdicts no child has filled when it takes them."""
    slots = _fork_checks(len(triples), lambda i: _verify_hex(*triples[i]))
    if slots is None:
        return [_verify_hex(*t) for t in triples]
    return [slots.take(i, _verify_hex, *t) for i, t in enumerate(triples)]


def _fork_checks(count: int, check: Callable[[int], bool]) -> _Slots | None:
    """Slots for `count` verdicts, check(i) the i-th, filled by forked
    children; None below PARALLEL_MIN, with one usable CPU, or while other
    Python threads run (a child holds only the forking thread, so a lock
    another thread held stays locked). Threads measured slower than one
    serial loop. One child per usable CPU but one walks its contiguous slice
    from the top down and stops at the first filled slot, so it meets this
    process, which takes verdicts from the bottom up, wherever they have got to."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, count * 2 // PARALLEL_MIN) if threading.active_count() == 1 else 1
    return _Slots(count, workers - 1, check) if workers >= 2 else None


class _Slots:
    """One verdict slot per signature in an anonymous shared mmap (0
    unchecked, 1 fails, 2 verifies). This process takes each verdict once,
    checking it if its slot is still empty; the children are stopped and
    reaped when the last slot is taken or the slots are freed, at exit at the latest."""

    def __init__(self, count: int, children: int, check: Callable[[int], bool]) -> None:
        self.memory = memory = mmap.mmap(-1, count)
        self.left = count
        pids = []
        for k in range(children):
            try:
                pid = os.fork()
            except OSError:
                continue  # this process checks the slice as it is asked
            if pid == 0:  # the child never returns into the caller
                try:
                    for i in reversed(range(count * k // children, count * (k + 1) // children)):
                        if memory[i]:
                            break
                        memory[i] = 1 + check(i)
                finally:
                    os._exit(0)
            pids.append(pid)
        self.reap = weakref.finalize(self, _reap, pids)

    def take(self, i: int, check: Callable[..., bool], *args: Any) -> bool:
        """The verdict in slot i; check(*args)'s, written there, if no child has filled it."""
        slot = self.memory[i]
        if not slot:
            slot = self.memory[i] = 1 + check(*args)
        self.left -= 1
        if not self.left:
            self.reap()
        return slot == 2


def _reap(pids: list[int]) -> None:
    for pid in pids:
        os.kill(pid, signal.SIGKILL)  # an exited child is a zombie until waited for
        os.waitpid(pid, 0)


_S = TypeVar("_S", bound="Signed")


class Signed(Record):
    """A Record signed over its signed_bytes(), the signature held in the
    field that signature_field names."""

    signature_field: ClassVar[str] = "signature"

    def signed_bytes(self) -> bytes:
        """The canonical JSON of the wire form without the signature field."""
        return record_bytes(self, without=self.signature_field)

    @classmethod
    def signed_by(cls: type[_S], private_key: Ed25519PrivateKey, *args: Any, **fields: Any) -> _S:
        """The record of these fields (all but the signature), signed with the
        private key; the signature is set in place, as no one holds it yet."""
        record = cls(*args, **fields, **{cls.signature_field: b""})
        object.__setattr__(record, cls.signature_field, private_key.sign(record.signed_bytes()))
        return record

    def _verdict(self, pubkey_hex: str) -> bool | None:
        """The memoized verdict under the key, or None if not yet checked; a
        verdict pending in forked children (start_signature_checks) is
        taken from its slot, and memoized, when first asked for."""
        verdict = vars(self).get(_VERDICT + pubkey_hex)
        if type(verdict) is tuple:  # (slots, index)
            slots, i = verdict
            verdict = vars(self)[_VERDICT + pubkey_hex] = slots.take(i, _verifies, self, pubkey_hex)
        return verdict

    def verifies_under(self, pubkey_hex: str) -> bool:
        """Whether the signature verifies under the public key (hex); memoized per key."""
        verdict = self._verdict(pubkey_hex)
        return check_signatures([(self, pubkey_hex)])[0] if verdict is None else verdict


def check_signatures(pairs: Sequence[tuple[Signed, str | None]]) -> list[bool]:
    """Whether each record's signature verifies under its public key (hex),
    in order; a None key is a False verdict, not memoized. Every verdict not
    yet memoized is checked in one verify_signatures call and memoized."""
    verdicts = [key is not None and record._verdict(key) for record, key in pairs]
    pending = [i for i, verdict in enumerate(verdicts) if verdict is None]
    if pending:
        unchecked = [pairs[i] for i in pending]
        triples = [(key, getattr(record, record.signature_field), record.signed_bytes()) for record, key in unchecked]
        for i, (record, key), verdict in zip(pending, unchecked, verify_signatures(triples)):
            vars(record)[_VERDICT + key] = verdicts[i] = verdict
    return verdicts


def start_signature_checks(pairs: Sequence[tuple[Signed, str]]) -> None:
    """Check each record's signature under its public key (hex) now, by
    check_signatures, or in forked children when _fork_checks allows, each
    record's memo entry then marked pending on its slot until asked for."""
    slots = _fork_checks(len(pairs), lambda i: _verifies(*pairs[i]))
    if slots is None:
        check_signatures(pairs)
        return
    for i, (record, key) in enumerate(pairs):
        vars(record)[_VERDICT + key] = (slots, i)


def _verifies(record: Signed, pubkey_hex: str) -> bool:
    return _verify_hex(pubkey_hex, getattr(record, record.signature_field), record.signed_bytes())


@dataclass(frozen=True)
class PlatformCertificate(Signed):
    """Root-signed binding of a platform id to its attestation public key."""

    platform_id: str
    pubkey: str
    root_signature: bytes
    signature_field = "root_signature"
    record_name = "platform certificate"


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
class Quote(Signed):
    enclave_measurement: EnclaveMeasurement
    report_data: Digest
    debug: bool
    sig_alg: str
    signature: bytes
    attestation_pubkey: str
    platform_certificate: PlatformCertificate
    record_name = "quote"

    def signed_bytes(self) -> bytes:
        return self.enclave_measurement.value + self.report_data.value + (b"\x01" if self.debug else b"\x00")


def create_root(seed: bytes | str | None = None) -> ManufacturerRoot:
    """Manufacturer root keypair (from the seed, else OS entropy) plus its self-signed certificate."""
    if seed is not None and not seed:
        raise LamError("root seed must be nonempty")
    private = key_from_seed(seed)
    certificate = PlatformCertificate.signed_by(private, "manufacturer-root", public_hex(private))
    return ManufacturerRoot(private_key=private, public_hex=certificate.pubkey, certificate=certificate)


def provision_platform(root: ManufacturerRoot, platform_id: str, seed: bytes | str | None = None) -> PlatformIdentity:
    """Provision a fresh attestation keypair certified by the root.

    A seed makes provisioning deterministic for reproducible fixtures;
    without one the key is drawn from OS entropy.
    """
    private = key_from_seed(seed)
    certificate = PlatformCertificate.signed_by(root.private_key, platform_id, public_hex(private))
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


def issue_quote(platform: PlatformIdentity, measurement: EnclaveMeasurement, report_data: Digest) -> Quote:
    """Sign (measurement, report_data) with the platform attestation key, as
    the quote of an enclave not in debug mode."""
    return Quote.signed_by(
        platform.private_key,
        enclave_measurement=measurement,
        report_data=report_data,
        debug=False,
        sig_alg=SIG_ALG,
        attestation_pubkey=platform.public_hex,
        platform_certificate=platform.certificate,
    )


def verify_quote(quote: Quote, trusted_roots: Iterable[str]) -> str | None:
    """Check chain, signature, and debug flag: None when the quote is
    accepted, so its enclave_measurement and report_data are authenticated
    for upstream policy checks, else the reason ("bad-chain",
    "bad-signature" or "debug-enclave")."""
    cert = quote.platform_certificate
    if not any(cert.verifies_under(root) for root in trusted_roots):
        return "bad-chain"
    if cert.pubkey != quote.attestation_pubkey:
        return "bad-chain"
    if quote.sig_alg != SIG_ALG:
        return "bad-signature"
    if not quote.verifies_under(quote.attestation_pubkey):
        return "bad-signature"
    if quote.debug:
        return "debug-enclave"
    return None

