from __future__ import annotations

import random
from dataclasses import replace

import pytest

from lam.backend import (
    PlatformCertificate,
    Quote,
    create_root,
    issue_quote,
    measure_enclave,
    provision_platform,
    verify_quote,
)
from lam.errors import LamError
from lam.hashcore import Digest, TrustedManifest, canonicalize, hash_bytes


def _random_digest(rnd: random.Random) -> Digest:
    return Digest(rnd.randbytes(32))


def test_create_root_deterministic():
    r1 = create_root(b"seed-a")
    r2 = create_root(b"seed-a")
    r3 = create_root(b"seed-b")
    assert r1.public_hex == r2.public_hex
    assert r1.public_hex != r3.public_hex


def test_create_root_empty_seed_rejected():
    with pytest.raises(LamError):
        create_root(b"")
    with pytest.raises(LamError):
        create_root("")


def test_create_root_without_seed_draws_a_fresh_key():
    r1, r2 = create_root(), create_root()
    assert r1.public_hex != r2.public_hex
    assert r1.certificate.verifies_under(r1.public_hex)


def test_root_self_certificate_verifies():
    root = create_root(b"seed-a")
    assert root.certificate.verifies_under(root.public_hex)


def test_provisioned_platform_chains_to_root(test_root):
    platform = provision_platform(test_root, "p1", seed=b"p1-seed")
    assert platform.certificate.verifies_under(test_root.public_hex)
    other_root = create_root(b"other-root")
    assert not platform.certificate.verifies_under(other_root.public_hex)


def test_distinct_platforms_distinct_keys(test_root):
    p1 = provision_platform(test_root, "p1", seed=b"one")
    p2 = provision_platform(test_root, "p2", seed=b"two")
    assert p1.public_hex != p2.public_hex
    # unseeded provisioning draws fresh entropy
    p3 = provision_platform(test_root, "p3")
    p4 = provision_platform(test_root, "p4")
    assert p3.public_hex != p4.public_hex


def _example_measurement_inputs():
    code = b"measurer code v1"
    manifest = TrustedManifest.from_entries([("lib.py", hash_bytes(b"lib"))])
    config = canonicalize({"enclave": "example", "version": 1})
    return code, manifest, config


def test_measure_enclave_deterministic_and_sensitive():
    code, manifest, config = _example_measurement_inputs()
    m = measure_enclave(code, manifest, config)
    assert measure_enclave(code, manifest, config) == m
    assert measure_enclave(code + b"!", manifest, config) != m
    altered = TrustedManifest.from_entries([("lib.py", hash_bytes(b"lib-changed"))])
    assert measure_enclave(code, altered, config) != m
    assert measure_enclave(code, manifest, canonicalize({"enclave": "example", "version": 2})) != m


def test_measure_enclave_canonicalization_insensitive_to_key_order():
    code, manifest, _ = _example_measurement_inputs()
    c1 = canonicalize({"a": 1, "b": 2})
    c2 = canonicalize({"b": 2, "a": 1})
    assert measure_enclave(code, manifest, c1) == measure_enclave(code, manifest, c2)


def test_quote_round_trip(test_root, test_platform):
    rnd = random.Random(5)
    code, manifest, config = _example_measurement_inputs()
    measurement = measure_enclave(code, manifest, config)
    for _ in range(20):
        report = _random_digest(rnd)
        quote = issue_quote(test_platform, measurement, report)
        result = verify_quote(quote, {test_root.public_hex})
        assert result.accepted
        assert result.measurement == measurement
        assert result.report_data == report


def test_quote_wire_round_trip(test_root, test_platform):
    measurement = measure_enclave(*_example_measurement_inputs())
    quote = issue_quote(test_platform, measurement, hash_bytes(b"payload"))
    wire = canonicalize(quote.to_json_value())
    restored = Quote.from_json_value(__import__("json").loads(wire))
    assert restored == quote
    assert verify_quote(restored, {test_root.public_hex}).accepted


def test_quote_wire_format_fields(test_platform):
    """Wire format is bit-exact: fixed field set, all hex lowercase."""
    measurement = measure_enclave(*_example_measurement_inputs())
    value = issue_quote(test_platform, measurement, hash_bytes(b"payload")).to_json_value()
    assert set(value) == {
        "enclave_measurement",
        "report_data",
        "debug",
        "sig_alg",
        "signature",
        "attestation_pubkey",
        "platform_certificate",
    }
    assert set(value["platform_certificate"]) == {"platform_id", "pubkey", "root_signature"}
    assert value["sig_alg"] == "ed25519"
    assert value["debug"] is False
    for key in ("enclave_measurement", "report_data", "signature", "attestation_pubkey"):
        assert value[key] == value[key].lower()
        assert all(c in "0123456789abcdef" for c in value[key])


def test_tampered_report_data_rejected(test_root, test_platform):
    measurement = measure_enclave(*_example_measurement_inputs())
    quote = issue_quote(test_platform, measurement, hash_bytes(b"payload"))
    flipped = bytearray(quote.report_data.value)
    flipped[0] ^= 1
    tampered = replace(quote, report_data=Digest(bytes(flipped)))
    result = verify_quote(tampered, {test_root.public_hex})
    assert not result.accepted
    assert result.reason == "bad-signature"


def test_uncertified_key_rejected(test_root):
    # Re-sign with a key whose certificate comes from a different root.
    rogue_root = create_root(b"rogue")
    rogue_platform = provision_platform(rogue_root, "rogue-p", seed=b"rogue-p")
    measurement = measure_enclave(*_example_measurement_inputs())
    quote = issue_quote(rogue_platform, measurement, hash_bytes(b"payload"))
    result = verify_quote(quote, {test_root.public_hex})
    assert not result.accepted
    assert result.reason == "bad-chain"


def test_debug_quote_rejected(test_root, test_platform):
    measurement = measure_enclave(*_example_measurement_inputs())
    quote = issue_quote(test_platform, measurement, hash_bytes(b"payload"), debug=True)
    result = verify_quote(quote, {test_root.public_hex})
    assert not result.accepted
    assert result.reason == "debug-enclave"


def test_every_single_field_mutation_rejected(test_root, test_platform):
    """Adversarial harness: any one-field change to a genuine quote must fail."""
    measurement = measure_enclave(*_example_measurement_inputs())
    genuine = issue_quote(test_platform, measurement, hash_bytes(b"payload"))
    roots = {test_root.public_hex}
    assert verify_quote(genuine, roots).accepted

    other_platform = provision_platform(test_root, "other", seed=b"other-seed")
    flipped_sig = bytearray(genuine.signature)
    flipped_sig[3] ^= 0xFF
    cert = genuine.platform_certificate
    flipped_root_sig = bytearray(cert.root_signature)
    flipped_root_sig[3] ^= 0xFF

    mutations = {
        "enclave_measurement": replace(genuine, enclave_measurement=hash_bytes(b"spoof")),
        "report_data": replace(genuine, report_data=hash_bytes(b"spoof")),
        "debug": replace(genuine, debug=True),
        "sig_alg": replace(genuine, sig_alg="ecdsa-p256"),
        "signature": replace(genuine, signature=bytes(flipped_sig)),
        "attestation_pubkey": replace(genuine, attestation_pubkey=other_platform.public_hex),
        "platform_certificate.platform_id": replace(
            genuine, platform_certificate=replace(cert, platform_id="imposter")
        ),
        "platform_certificate.pubkey": replace(
            genuine, platform_certificate=replace(cert, pubkey=other_platform.public_hex)
        ),
        "platform_certificate.root_signature": replace(
            genuine, platform_certificate=replace(cert, root_signature=bytes(flipped_root_sig))
        ),
    }
    for field, mutated in mutations.items():
        assert not verify_quote(mutated, roots).accepted, f"mutation not rejected: {field}"


def test_certificate_for_other_key_rejected(test_root, test_platform):
    """A genuine certificate pasted onto a different attestation key fails."""
    other = provision_platform(test_root, "other2", seed=b"other2-seed")
    measurement = measure_enclave(*_example_measurement_inputs())
    quote = issue_quote(test_platform, measurement, hash_bytes(b"payload"))
    pasted = replace(quote, platform_certificate=other.certificate)
    result = verify_quote(pasted, {test_root.public_hex})
    assert not result.accepted
    assert result.reason == "bad-chain"


def test_certificate_wire_round_trip(test_platform):
    cert = test_platform.certificate
    assert PlatformCertificate.from_json_value(cert.to_json_value()) == cert


def _flip_byte(data: bytes) -> bytes:
    flipped = bytearray(data)
    flipped[3] ^= 0xFF
    return bytes(flipped)


def test_replaced_certificate_starts_with_an_empty_memo(test_root, test_platform):
    cert = test_platform.certificate
    assert cert.verifies_under(test_root.public_hex)
    forged = replace(cert, root_signature=_flip_byte(cert.root_signature))
    assert not forged.verifies_under(test_root.public_hex)
    assert cert.verifies_under(test_root.public_hex)


def test_memo_is_keyed_by_root(test_root, test_platform):
    other_root = create_root(b"memo-other-root")
    cert = test_platform.certificate
    assert cert.verifies_under(test_root.public_hex)
    assert not cert.verifies_under(other_root.public_hex)
    assert cert.verifies_under(test_root.public_hex)


def test_memo_is_not_part_of_equality_hash_or_wire_form(test_root, test_platform):
    cert = test_platform.certificate
    fresh = PlatformCertificate.from_json_value(cert.to_json_value())
    assert cert.verifies_under(test_root.public_hex)
    assert not fresh._verdicts
    assert cert._verdicts
    assert cert == fresh
    assert hash(cert) == hash(fresh)
    assert repr(cert) == repr(fresh)
    assert cert.to_json_value() == fresh.to_json_value()
    assert set(cert.to_json_value()) == {"platform_id", "pubkey", "root_signature"}
