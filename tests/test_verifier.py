from __future__ import annotations

from dataclasses import replace

import pytest

from lam.backend import issue_quote
from lam.certs import CertificationStore, Endorser, make_certification
from lam.hashcore import hash_bytes
from lam.measurers import AttestationEnvelope
from lam.verifier import AssertionBundle, verify_envelope
from pipeline import sixrow_pipeline


@pytest.fixture(scope="module")
def pipe():
    return sixrow_pipeline()


def test_every_fixture_envelope_verifies(pipe):
    for name, env in pipe.envelopes.items():
        verdict = verify_envelope(env, pipe.store, pipe.roots)
        assert verdict.accepted, (name, verdict.reason, verdict.detail)
        assert verdict.fragment is not None
        assert verdict.fragment.fragment_sha256 == hash_bytes(env.payload)


def test_verified_fragment_carries_certification(pipe):
    verdict = verify_envelope(pipe.envelopes["acc"], pipe.store, pipe.roots)
    cert = verdict.fragment.certification
    assert cert.template["att_type"] == "AccAtt"
    assert verdict.fragment.att_type == "AccAtt"
    assert verdict.fragment.measurement == pipe.enclaves["metric"].measurement


def test_unknown_enclave_rejected(pipe):
    empty_store = CertificationStore()
    verdict = verify_envelope(pipe.envelopes["acc"], empty_store, pipe.roots)
    assert not verdict.accepted
    assert verdict.reason == "unknown-enclave"


def test_cross_enclave_forgery_rejected(pipe):
    """An accuracy payload quoted under the inference enclave's identity is
    refused: that enclave is not certified for the claim."""
    payload = pipe.envelopes["acc"].payload
    forged_quote = issue_quote(
        pipe.platform, pipe.enclaves["inference"].measurement, hash_bytes(payload)
    )
    forged = AttestationEnvelope(payload=payload, quote=forged_quote)
    verdict = verify_envelope(forged, pipe.store, pipe.roots)
    assert not verdict.accepted
    assert verdict.reason == "template-mismatch"


def test_payload_tamper_rejected_with_binding_mismatch(pipe):
    env = pipe.envelopes["acc"]
    tampered = AttestationEnvelope(
        payload=env.payload.replace(b"0.", b"1.", 1), quote=env.quote
    )
    verdict = verify_envelope(tampered, pipe.store, pipe.roots)
    assert not verdict.accepted
    assert verdict.reason == "payload-binding-mismatch"


def test_quote_tamper_rejected_as_bad_quote(pipe):
    env = pipe.envelopes["acc"]
    from dataclasses import replace

    bad_sig = bytearray(env.quote.signature)
    bad_sig[0] ^= 1
    tampered = AttestationEnvelope(payload=env.payload, quote=replace(env.quote, signature=bytes(bad_sig)))
    verdict = verify_envelope(tampered, pipe.store, pipe.roots)
    assert not verdict.accepted
    assert verdict.reason == "bad-quote"
    assert verdict.detail == "bad-signature"


def test_untrusted_root_rejected(pipe):
    verdict = verify_envelope(pipe.envelopes["acc"], pipe.store, {"00" * 32})
    assert not verdict.accepted
    assert verdict.reason == "bad-quote"
    assert verdict.detail == "bad-chain"


def test_noncanonical_payload_rejected(pipe):
    # same JSON value, unsorted keys: binding holds but canonical form fails
    import json

    env = pipe.envelopes["acc"]
    value = json.loads(env.payload)
    scrambled = json.dumps(value, sort_keys=False, separators=(",", ":")).encode()
    reordered = dict(reversed(list(value.items())))
    scrambled = json.dumps(reordered, separators=(",", ":")).encode()
    assert scrambled != env.payload
    quote = issue_quote(pipe.platform, pipe.enclaves["metric"].measurement, hash_bytes(scrambled))
    verdict = verify_envelope(AttestationEnvelope(payload=scrambled, quote=quote), pipe.store, pipe.roots)
    assert not verdict.accepted
    assert verdict.reason == "template-mismatch"
    assert "canonical" in verdict.detail


def test_float_payload_rejected(pipe):
    payload = b'{"att_type":"AccAtt","value":0.5}'
    quote = issue_quote(pipe.platform, pipe.enclaves["metric"].measurement, hash_bytes(payload))
    verdict = verify_envelope(AttestationEnvelope(payload=payload, quote=quote), pipe.store, pipe.roots)
    assert not verdict.accepted
    assert verdict.reason == "template-mismatch"


def test_invalid_certification_reported(pipe):
    """A store whose only matching certification carries a float template."""
    rogue = Endorser.create("rogue", seed=b"rogue")
    measurement = pipe.enclaves["metric"].measurement
    # bypass make_certification validation to simulate a corrupt store
    from lam.certs import Certification
    from lam.hashcore import canonicalize

    bad_template = {"att_type": "AccAtt", "threshold": 0.5}
    unsigned = canonicalize(
        {"enclave_measurement": measurement.hex, "template": {"att_type": "AccAtt", "threshold": "x"}}
    )
    corrupt = Certification(
        enclave_measurement=measurement,
        template=bad_template,
        endorser_id="rogue",
        signature=rogue.private_key.sign(unsigned),
    )
    store = CertificationStore([corrupt])
    verdict = verify_envelope(pipe.envelopes["acc"], store, pipe.roots)
    assert not verdict.accepted
    assert verdict.reason == "invalid-certification"


def test_make_certification_rejects_float_template(pipe):
    from lam.errors import InvalidCertificationError

    with pytest.raises(InvalidCertificationError):
        make_certification(
            pipe.endorser, pipe.enclaves["metric"].measurement, {"att_type": "AccAtt", "t": 0.5}
        )


def test_certification_store_file_round_trip(pipe, tmp_path):
    path = tmp_path / "certifications.json"
    pipe.store.save(path)
    restored = CertificationStore.load(path, pipe.endorser_keys)
    assert len(restored) == len(pipe.store)
    for env in pipe.envelopes.values():
        assert verify_envelope(env, restored, pipe.roots).accepted


def test_certification_store_load_rejects_bad_signature(pipe, tmp_path):
    from lam.errors import LamError

    path = tmp_path / "certifications.json"
    pipe.store.save(path)
    with pytest.raises(LamError, match="unknown endorser"):
        CertificationStore.load(path, {"someone-else": pipe.endorser.public_hex})
    with pytest.raises(LamError, match="signature invalid"):
        CertificationStore.load(path, {pipe.endorser.endorser_id: "00" * 32})


def test_bundle_file_round_trip(pipe, tmp_path):
    bundle = pipe.bundle()
    path = tmp_path / "bundle.json"
    bundle.write(path)
    restored = AssertionBundle.read(path)
    assert restored == bundle
    assert len(restored.envelopes) == len(pipe.envelopes)
    assert len(restored.external_certificates) == 2


def test_verification_is_stateless_and_repeatable(pipe):
    verdicts1 = [verify_envelope(e, pipe.store, pipe.roots) for e in pipe.envelopes.values()]
    verdicts2 = [verify_envelope(e, pipe.store, pipe.roots) for e in pipe.envelopes.values()]
    assert verdicts1 == verdicts2


def test_external_certificate_signatures(pipe):
    for cert in pipe.externals:
        assert cert.verifies_under(pipe.endorser.public_hex)
        assert not cert.verifies_under("11" * 32)


def test_new_attestation_type_needs_only_a_certification(pipe):
    """Versatility: a payload shape the toolkit has never seen verifies once
    an endorser certifies its enclave for a matching template."""
    from lam.hashcore import canonicalize

    payload = canonicalize({"att_type": "ExplainAtt", "model_sha256": "ab" * 32, "explanation": [1, 2, 3]})
    custom_measurement = pipe.enclaves["metric"].measurement
    quote = issue_quote(pipe.platform, custom_measurement, hash_bytes(payload))
    env = AttestationEnvelope(payload=payload, quote=quote)

    # not certified for this claim shape yet
    assert verify_envelope(env, pipe.store, pipe.roots).reason == "template-mismatch"

    template = {"att_type": "ExplainAtt", "model_sha256": None, "explanation": None}
    extended = CertificationStore(
        [*sum((pipe.store.for_measurement(custom_measurement),), []),
         make_certification(pipe.endorser, custom_measurement, template)]
    )
    verdict = verify_envelope(env, extended, pipe.roots)
    assert verdict.accepted
    assert verdict.fragment.att_type == "ExplainAtt"


def test_replayed_envelope_still_verifies(pipe):
    """Quotes carry no freshness: a replay re-asserts the same true statement."""
    env = pipe.envelopes["acc"]
    replay = AttestationEnvelope.from_json_value(env.to_json_value())
    assert verify_envelope(replay, pipe.store, pipe.roots).accepted


def test_bundle_quotes_share_equal_platform_certificates(pipe):
    bundle = AssertionBundle.from_file_value(pipe.bundle().to_file_value())
    certs = {id(e.quote.platform_certificate) for e in bundle.envelopes}
    assert len(bundle.envelopes) > 1 and len(certs) == 1
    assert bundle == pipe.bundle()


def test_different_certificates_for_one_platform_get_their_own_verdicts(pipe):
    """Two quotes naming one platform id, one with a forged root signature:
    sharing and memoizing the certificate check must not mix their verdicts."""
    genuine = pipe.envelopes["acc"]
    cert = genuine.quote.platform_certificate
    flipped = bytearray(cert.root_signature)
    flipped[0] ^= 1
    forged_cert = replace(cert, root_signature=bytes(flipped))
    forged = replace(genuine, quote=replace(genuine.quote, platform_certificate=forged_cert))
    value = AssertionBundle((genuine, forged, genuine, forged), ()).to_file_value()

    bundle = AssertionBundle.from_file_value(value)
    verdicts = [verify_envelope(e, pipe.store, pipe.roots) for e in bundle.envelopes]
    assert [v.accepted for v in verdicts] == [True, False, True, False]
    assert verdicts[1].reason == verdicts[3].reason == "bad-quote"
    assert bundle.envelopes[0].quote.platform_certificate is bundle.envelopes[2].quote.platform_certificate
    assert bundle.envelopes[1].quote.platform_certificate is bundle.envelopes[3].quote.platform_certificate


@pytest.mark.parametrize("digest", [["x"], {"a": 1}, 7, None, "missing"])
def test_non_string_lookup_digest_rejected(pipe, digest):
    """The builtin templates leave digest fields as null wildcards, so a
    certified enclave can quote any JSON value there; chains and cards index
    fragments by that digest, so it must be a string."""
    import json

    from lam.hashcore import canonicalize

    value = json.loads(pipe.envelopes["io"].payload)
    if digest == "missing":  # the builtin template requires the key; an all-wildcard one does not
        del value["model_sha256"]
        measurement = pipe.enclaves["metric"].measurement
        template = {k: None for k in value}
        store = CertificationStore([make_certification(pipe.endorser, measurement, template)])
    else:
        value["model_sha256"] = digest
        measurement = pipe.enclaves["inference"].measurement
        store = pipe.store
    payload = canonicalize(value)
    env = AttestationEnvelope(payload=payload, quote=issue_quote(pipe.platform, measurement, hash_bytes(payload)))

    verdict = verify_envelope(env, store, pipe.roots)
    assert not verdict.accepted
    assert verdict.reason == "template-mismatch"
    assert verdict.detail == "IOAtt lookup digest model_sha256 is not a string"


def test_each_template_is_validated_once(pipe, monkeypatch):
    import lam.certs
    import lam.verifier
    from lam.certs import Certification

    calls = []
    real = lam.certs.validate_template

    def counting(template, path=""):
        if not path:  # not one of its own recursive calls
            calls.append(id(template))
        return real(template, path)

    monkeypatch.setattr(lam.certs, "validate_template", counting)
    monkeypatch.setattr(lam.verifier, "validate_template", counting)
    store = CertificationStore(Certification.from_json_value(c) for c in pipe.store.to_json_value())
    for _ in range(3):
        for env in pipe.envelopes.values():
            assert verify_envelope(env, store, pipe.roots).accepted
        assert 0 < len(calls) == len(set(calls)) <= len(store)


def test_invalid_certification_detail_names_the_template_path(pipe):
    from lam.certs import Certification

    corrupt = Certification(
        enclave_measurement=pipe.enclaves["metric"].measurement,
        template={"att_type": "AccAtt", "threshold": 0.5},
        endorser_id="acme",
        signature=b"",
    )
    for _ in range(2):
        verdict = verify_envelope(pipe.envelopes["acc"], CertificationStore([corrupt]), pipe.roots)
        assert verdict.reason == "invalid-certification"
        assert verdict.detail == "disallowed template value of type float at /threshold"
