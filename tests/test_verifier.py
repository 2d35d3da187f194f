from __future__ import annotations

import sys
from dataclasses import replace

import pytest

import lam.backend as backend
from lam.backend import issue_quote
from lam.certs import CertificationStore, Endorser, make_certification
from lam.hashcore import canonicalize, hash_bytes
from lam.fragments import AttestationEnvelope
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


def test_overlong_integer_payload_is_a_named_template_mismatch(pipe):
    """An integer token past int's digit limit is a refusal to parse, not a
    ValueError out of verify_envelope."""
    payload = b'{"n":' + b"1" * 5000 + b"}"
    quote = issue_quote(pipe.platform, pipe.enclaves["metric"].measurement, hash_bytes(payload))
    verdict = verify_envelope(AttestationEnvelope(payload=payload, quote=quote), pipe.store, pipe.roots)
    assert (verdict.accepted, verdict.reason) == (False, "template-mismatch")
    limit = sys.get_int_max_str_digits()
    assert verdict.detail == f"payload is not canonical JSON: integer token of more than {limit} digits at /"


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


@pytest.mark.parametrize(
    ("order", "error"),
    [("forged-first", "signature invalid"), ("stranger-first", "unknown endorser 'stranger'")],
    ids=["forged-first", "stranger-first"],
)
def test_certification_store_load_checks_every_signature_in_one_call(pipe, tmp_path, monkeypatch, order, error):
    """One verify_signatures call for the whole store, and still the error of
    the first rejected record in store order."""
    from lam.errors import LamError

    calls = []
    real = backend.verify_signatures

    def counting(triples):
        calls.append(len(triples))
        return real(triples)

    monkeypatch.setattr(backend, "verify_signatures", counting)
    path = tmp_path / "certifications.json"
    pipe.store.save(path)
    CertificationStore.load(path, pipe.endorser_keys)
    assert len(pipe.store) > 1 and calls == [len(pipe.store)]

    first, *rest = pipe.store.to_json_value()
    forged = {**first, "signature": first["signature"][::-1]}
    stranger = make_certification(Endorser.create("stranger", seed=b"stranger"), pipe.enclaves["metric"].measurement, None)
    bad = [forged, stranger.to_json_value()] if order == "forged-first" else [stranger.to_json_value(), forged]
    path.write_bytes(canonicalize(rest + bad))
    calls.clear()
    with pytest.raises(LamError, match=error):
        CertificationStore.load(path, pipe.endorser_keys)
    assert calls == [len(pipe.store)]  # the stranger's record has no key to check under


def test_certification_store_read_unverified_round_trips_bytes(pipe, tmp_path):
    path = tmp_path / "certifications.json"
    pipe.store.save(path)
    copy = tmp_path / "copy.json"
    CertificationStore.read_unverified(path).save(copy)
    assert copy.read_bytes() == path.read_bytes()


def test_make_external_certificate_names_the_claims_path():
    from lam.certs import make_external_certificate
    from lam.errors import CanonicalizationError

    endorser = Endorser.create("acme", seed=b"e")
    with pytest.raises(CanonicalizationError) as err:
        make_external_certificate(endorser, hash_bytes(b"d"), "dataset", "d", {"a": [1, 0.5]})
    assert err.value.path == "/a/1"


def test_unknown_subject_kind_is_refused_when_signed_and_when_parsed(pipe):
    """Only "dataset" and "model" name a subject; anything else never reaches
    chains or cards, where it would have been taken for a model."""
    from lam.certs import ExternalCertificate, make_external_certificate
    from lam.errors import LamError

    message = "^external certificate subject_kind must be one of \\('dataset', 'model'\\): 'foo'$"
    model = pipe.model.digest
    with pytest.raises(LamError, match=message):
        ExternalCertificate.signed_by(pipe.endorser.private_key, model, "foo", "odd-name", {}, "acme")
    with pytest.raises(LamError, match=message):
        make_external_certificate(pipe.endorser, model, "foo", "odd-name")
    wire = {**pipe.externals[0].to_json_value(), "subject_kind": "foo"}
    with pytest.raises(LamError, match=message):
        ExternalCertificate.from_json_value(wire)


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


def _io_case(value, case_id):
    return pytest.param("io", "model_sha256", value, "IOAtt field is not a string at /model_sha256", id=case_id)


@pytest.mark.parametrize(
    ("name", "field", "value", "detail"),
    [
        _io_case(["x"], "digest0"),
        _io_case({"a": 1}, "digest1"),
        _io_case(7, "7"),
        _io_case(None, "None"),
        _io_case("missing", "missing"),
        pytest.param("io", "output_sha256", 7, "IOAtt field is not a string at /output_sha256", id="io-output"),
        pytest.param("pot", "dataset_sha256", ["x"], "PoT field is not a string at /dataset_sha256", id="pot-dataset"),
        pytest.param(
            "dist-marginal", "property", "x", "DistAtt field is not a string at /property/kind", id="dist-property-str"
        ),
        pytest.param(
            "dist-marginal", "property", {}, "DistAtt field is not a string at /property/kind", id="dist-property-empty"
        ),
        pytest.param(
            "robgen", "parameters", [1], "RobustAtt-A field is not a string at /parameters/epsilon", id="robgen-parameters"
        ),
    ],
)
def test_non_string_lookup_digest_rejected(pipe, name, field, value, detail):
    """The builtin templates leave digest and content fields as null
    wildcards, so a certified enclave can quote any JSON value there; chains
    and cards read these paths as strings, so they must hold one."""
    import json

    from lam.hashcore import canonicalize

    payload_value = json.loads(pipe.envelopes[name].payload)
    if value == "missing":  # the builtin template requires the key; an all-wildcard one does not
        del payload_value[field]
        measurement = pipe.enclaves["metric"].measurement
        template = {k: None for k in payload_value}
        store = CertificationStore([make_certification(pipe.endorser, measurement, template)])
    else:
        payload_value[field] = value
        measurement = pipe.envelopes[name].quote.enclave_measurement
        store = pipe.store
    payload = canonicalize(payload_value)
    env = AttestationEnvelope(payload=payload, quote=issue_quote(pipe.platform, measurement, hash_bytes(payload)))

    verdict = verify_envelope(env, store, pipe.roots)
    assert not verdict.accepted
    assert verdict.reason == "template-mismatch"
    assert verdict.detail == detail


@pytest.mark.parametrize(("name", "att_type"), [("acc", "AccAtt"), ("fair", "FairAtt"), ("robacc", "RobustAtt-B")])
def test_metrics_object_instead_of_array_rejected(pipe, name, att_type):
    """A dict template matches a lone object as well as an array of objects,
    but cards iterate results/metrics, so it must be an array."""
    import json

    from lam.hashcore import canonicalize
    from lam.verifier import verify_bundle

    payload_value = json.loads(pipe.envelopes[name].payload)
    payload_value["results"]["metrics"] = payload_value["results"]["metrics"][0]
    payload = canonicalize(payload_value)
    quote = issue_quote(pipe.platform, pipe.enclaves["metric"].measurement, hash_bytes(payload))
    env = AttestationEnvelope(payload=payload, quote=quote)

    verdict = verify_envelope(env, pipe.store, pipe.roots)
    assert not verdict.accepted
    assert verdict.reason == "template-mismatch"
    assert verdict.detail == f"{att_type} field is not an array at /results/metrics"
    envelopes = {**pipe.envelopes, name: env}
    result = verify_bundle(AssertionBundle(tuple(envelopes.values()), ()), pipe.store, pipe.roots, pipe.endorser_keys)
    assert result.failures == 1


@pytest.mark.parametrize(
    "value", [{"att_type": "ExplainAtt", "model_sha256": ["x"], "explanation": [1]}, [1, 2]]
)
def test_custom_fragment_without_string_model_digest_is_no_orphan(pipe, value):
    """A custom attestation type is checked by its template alone; only a
    string model digest can make its fragment an orphan."""
    from lam.cards import assemble_cards
    from lam.hashcore import canonicalize
    from lam.verifier import resolve_chains

    measurement = pipe.enclaves["metric"].measurement
    template = {k: None for k in value} if isinstance(value, dict) else None
    store = CertificationStore([make_certification(pipe.endorser, measurement, template)])
    payload = canonicalize(value)
    env = AttestationEnvelope(payload=payload, quote=issue_quote(pipe.platform, measurement, hash_bytes(payload)))

    verdict = verify_envelope(env, store, pipe.roots)
    assert verdict.accepted
    assert resolve_chains([verdict.fragment]).orphans == []
    assert assemble_cards([verdict.fragment]) == []


def test_verify_bundle_drops_forged_external_certificate(pipe):
    from lam.verifier import verify_bundle

    forged_cert = replace(pipe.externals[0], signature=bytes(64))
    bundle = AssertionBundle(tuple(pipe.envelopes.values()), (forged_cert, pipe.externals[1]))

    result = verify_bundle(bundle, pipe.store, pipe.roots, pipe.endorser_keys)
    assert [ok for _, ok in result.externals] == [False, True]
    assert all(v.accepted for v in result.envelopes)
    assert result.failures == 1
    forged_hex = forged_cert.digest.hex
    assert forged_cert.name.encode() not in result.report.canonical_bytes()
    assert pipe.externals[1].name.encode() in result.report.canonical_bytes()
    assert result.report.broken_edges(pipe.model.digest.hex) == {"training_dataset_certificate"}
    for card in result.cards:
        text = card.yaml_bytes()
        assert forged_cert.name.encode() not in text and forged_hex.encode() not in text


def test_external_verdicts_keep_bundle_order(pipe):
    """Certificates by an unknown endorser are rejected without a signature
    check; the others' verdicts stay in bundle order."""
    from lam.verifier import verify_bundle

    stranger = replace(pipe.externals[0], endorser_id="stranger")
    forged = replace(pipe.externals[1], signature=bytes(64))
    certs = (pipe.externals[0], stranger, forged, pipe.externals[1], stranger)
    result = verify_bundle(AssertionBundle((), certs), pipe.store, pipe.roots, pipe.endorser_keys)
    assert result.externals == tuple(zip(certs, [True, False, False, True, False]))


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


def _requote(pipe, name, payload_value):
    from lam.hashcore import canonicalize

    payload = canonicalize(payload_value)
    measurement = pipe.envelopes[name].quote.enclave_measurement
    return AttestationEnvelope(payload=payload, quote=issue_quote(pipe.platform, measurement, hash_bytes(payload)))


def _set(path, value):
    def mutate(fragment):
        for key in path[:-1]:
            fragment = fragment[key]
        fragment[path[-1]] = value(fragment[path[-1]]) if callable(value) else value

    return mutate


@pytest.mark.parametrize(
    ("name", "mutate", "detail"),
    [
        pytest.param(
            "dist-marginal", _set(("property", "kind"), 5), "DistAtt field is not a string at /property/kind", id="kind"
        ),
        pytest.param("pot", _set(("dataset_sha256",), ["x"]), "PoT field is not a string at /dataset_sha256", id="pot"),
        pytest.param(
            "acc",
            _set(("results", "metrics"), lambda metrics: metrics[0]),
            "AccAtt field is not an array at /results/metrics",
            id="lone-metrics",
        ),
        pytest.param(
            "fair",
            _set(("results", "metrics", 0, "type"), []),
            "FairAtt field is not 'demographic_parity' at /results/metrics/0/type",
            id="metric-type",
        ),
        pytest.param(
            "robgen",
            _set(("parameters", "epsilon"), 1),
            "RobustAtt-A field is not a string at /parameters/epsilon",
            id="epsilon",
        ),
        pytest.param("io", _set(("output_sha256",), 7), "IOAtt field is not a string at /output_sha256", id="io"),
    ],
)
def test_prover_and_verifier_agree_on_fragment_shape(pipe, name, mutate, detail):
    """Each fragment the builtin template lets through but the verifier
    rejects for its shape is one the prover refuses to seal, with the same
    words."""
    import json

    from lam.errors import DomainError
    from lam.fragments import validate_fragment

    payload_value = json.loads(pipe.envelopes[name].payload)
    mutate(payload_value)
    with pytest.raises(DomainError) as refused:
        validate_fragment(payload_value)
    assert str(refused.value) == detail

    verdict = verify_envelope(_requote(pipe, name, payload_value), pipe.store, pipe.roots)
    assert (verdict.accepted, verdict.reason, verdict.detail) == (False, "template-mismatch", detail)


@pytest.mark.parametrize("name", ["acc", "fair"])
def test_empty_metric_dataset_digest_gets_a_card(pipe, name):
    """The builtin template lets an empty dataset digest through; cards pick
    a metric's dataset field by attestation type, so it is carried, not a
    crash."""
    import json

    from lam.verifier import verify_bundle

    payload_value = json.loads(pipe.envelopes[name].payload)
    payload_value["dataset_sha256"] = ""
    envelopes = {**pipe.envelopes, name: _requote(pipe, name, payload_value)}
    bundle = AssertionBundle(tuple(envelopes.values()), tuple(pipe.externals))
    result = verify_bundle(bundle, pipe.store, pipe.roots, pipe.endorser_keys)
    assert result.failures == 0
    [card] = [c for c in result.cards if c.card_kind == "model"]
    assert "" in [entry["dataset"]["sha256"] for entry in card.body["model-index"][0]["results"]]
