from __future__ import annotations

import pytest

from lam.engine.data import Dataset
from lam.errors import DomainError, ManifestMismatchError
from lam.hashcore import build_manifest, canonicalize, hash_bytes, parse_canonical
from lam.measurers import (
    ATT_TYPES,
    AttestationEnvelope,
    attest_accuracy,
    attest_distribution,
    attest_fairness,
    attest_inference,
    attest_robustness,
    attest_training,
    builtin_template,
    default_enclaves,
    validate_fragment,
)
from lam.backend import verify_quote


@pytest.fixture(scope="module")
def enclaves():
    return default_enclaves()


def _check_envelope(env, root):
    assert hash_bytes(env.payload) == env.quote.report_data
    assert verify_quote(env.quote, {root.public_hex}).accepted
    # payload is canonical JSON
    assert canonicalize(parse_canonical(env.payload)) == env.payload


def test_distinct_enclave_identities(enclaves):
    measurements = {kind: ctx.measurement.hex for kind, ctx in enclaves.items()}
    assert len(set(measurements.values())) == 4


def test_attest_distribution(fixture_a, enclaves, test_root, test_platform):
    env = attest_distribution(fixture_a, "marginal", enclave=enclaves["dataset"], platform=test_platform)
    _check_envelope(env, test_root)
    payload = env.payload_value()
    assert payload["att_type"] == "DistAtt"
    assert payload["dataset_sha256"] == fixture_a.digest.hex
    assert payload["property"]["counts"] == {"0": 3, "1": 3}
    assert payload["property"]["ratios"] == {"0": "0.500000", "1": "0.500000"}


def test_distribution_kinds_produce_distinct_fragments(fixture_b, enclaves, test_platform):
    marginal = attest_distribution(fixture_b, "marginal", enclave=enclaves["dataset"], platform=test_platform)
    conditional = attest_distribution(
        fixture_b, "conditional", enclave=enclaves["dataset"], platform=test_platform
    )
    assert marginal.payload != conditional.payload
    assert hash_bytes(marginal.payload) != hash_bytes(conditional.payload)


def test_distribution_empty_dataset_errors_before_quote(enclaves, test_platform):
    empty = Dataset.from_rows(("f1", "f2"), [], [], [])
    with pytest.raises(DomainError):
        attest_distribution(empty, "marginal", enclave=enclaves["dataset"], platform=test_platform)


def test_attest_training_binds_returned_model(fixture_a, small_config, enclaves, test_root, test_platform):
    model, env = attest_training(fixture_a, small_config, enclave=enclaves["training"], platform=test_platform)
    _check_envelope(env, test_root)
    payload = env.payload_value()
    assert payload["att_type"] == "PoT"
    assert payload["model_sha256"] == model.digest.hex
    assert payload["arch_sha256"] == small_config.architecture.digest.hex
    assert payload["dataset_sha256"] == fixture_a.digest.hex
    assert payload["config_sha256"] == small_config.digest.hex


def test_attest_training_deterministic(fixture_a, small_config, enclaves, test_platform):
    m1, e1 = attest_training(fixture_a, small_config, enclave=enclaves["training"], platform=test_platform)
    m2, e2 = attest_training(fixture_a, small_config, enclave=enclaves["training"], platform=test_platform)
    assert m1.canonical_bytes == m2.canonical_bytes
    assert e1.payload == e2.payload
    # Ed25519 signatures are deterministic, so whole envelopes coincide
    assert e1 == e2


def test_training_dataset_swap_changes_binding(fixture_a, fixture_b, small_config, enclaves, test_platform):
    _, env_a = attest_training(fixture_a, small_config, enclave=enclaves["training"], platform=test_platform)
    _, env_b = attest_training(fixture_b, small_config, enclave=enclaves["training"], platform=test_platform)
    assert env_a.payload_value()["dataset_sha256"] != env_b.payload_value()["dataset_sha256"]


def test_attest_accuracy_fixture(fixture_a, constant_model, enclaves, test_root, test_platform):
    env = attest_accuracy(constant_model, fixture_a, enclave=enclaves["metric"], platform=test_platform)
    _check_envelope(env, test_root)
    payload = env.payload_value()
    metric = payload["results"]["metrics"][0]
    assert metric == {"type": "accuracy", "value": "0.666667", "numerator": 4, "denominator": 6}
    assert payload["model_sha256"] == constant_model.digest.hex


def test_attest_fairness_fixture(fixture_a, pattern_model, constant_model, enclaves, test_platform):
    env = attest_fairness(pattern_model, fixture_a, enclave=enclaves["metric"], platform=test_platform)
    metric = env.payload_value()["results"]["metrics"][0]
    assert metric["type"] == "demographic_parity"
    assert metric["value"] == "0.333333"

    env0 = attest_fairness(constant_model, fixture_a, enclave=enclaves["metric"], platform=test_platform)
    assert env0.payload_value()["results"]["metrics"][0]["value"] == "0.000000"


def test_attest_fairness_single_group_no_envelope(pattern_model, enclaves, test_platform):
    ds = Dataset.from_rows(("f1", "f2"), [[0.0, 0.0], [1.0, 1.0]], [0, 1], [0, 0])
    with pytest.raises(DomainError):
        attest_fairness(pattern_model, ds, enclave=enclaves["metric"], platform=test_platform)


def test_attest_robustness_pair_shares_digest(fixture_a, pattern_model, enclaves, test_root, test_platform):
    d_rob, robgen, robacc = attest_robustness(
        pattern_model, fixture_a, "0.100000", enclave=enclaves["metric"], platform=test_platform
    )
    _check_envelope(robgen, test_root)
    _check_envelope(robacc, test_root)
    gen = robgen.payload_value()
    acc = robacc.payload_value()
    assert gen["att_type"] == "RobustAtt-A"
    assert acc["att_type"] == "RobustAtt-B"
    assert gen["robust_dataset_sha256"] == acc["robust_dataset_sha256"] == d_rob.digest.hex
    assert gen["dataset_sha256"] == fixture_a.digest.hex
    assert gen["parameters"] == {"epsilon": "0.100000"}
    assert acc["results"]["metrics"][0]["parameters"] == {"epsilon": "0.100000"}


def test_attest_robustness_eps_zero_equals_accuracy(fixture_a, pattern_model, enclaves, test_platform):
    _, _, robacc = attest_robustness(
        pattern_model, fixture_a, "0.000000", enclave=enclaves["metric"], platform=test_platform
    )
    acc_env = attest_accuracy(pattern_model, fixture_a, enclave=enclaves["metric"], platform=test_platform)
    rob_metric = robacc.payload_value()["results"]["metrics"][0]
    acc_metric = acc_env.payload_value()["results"]["metrics"][0]
    assert rob_metric["value"] == acc_metric["value"]


def test_attest_inference_round_trip(fixture_a, pattern_model, enclaves, test_root, test_platform):
    record, env = attest_inference(pattern_model, [1.0, 0.5], enclave=enclaves["inference"], platform=test_platform)
    _check_envelope(env, test_root)
    payload = env.payload_value()
    assert payload["att_type"] == "IOAtt"
    assert payload["model_sha256"] == pattern_model.digest.hex
    # recompute the output digest from the in-clear output
    assert hash_bytes(canonicalize(payload["output"])) .hex == payload["output_sha256"]
    assert record.output_digest.hex == payload["output_sha256"]
    assert record.input_digest.hex == payload["input_sha256"]
    assert payload["output"] == record.output_json_value()


def test_attest_inference_deterministic(pattern_model, enclaves, test_platform):
    r1, e1 = attest_inference(pattern_model, [1.0, 0.5], enclave=enclaves["inference"], platform=test_platform)
    r2, e2 = attest_inference(pattern_model, [1.0, 0.5], enclave=enclaves["inference"], platform=test_platform)
    assert r1 == r2
    assert e1.payload == e2.payload


def test_fragment_schema_total_and_exclusive(
    fixture_a, fixture_b, small_config, pattern_model, constant_model, enclaves, test_platform
):
    produced: dict[str, dict] = {}
    produced["DistAtt"] = attest_distribution(
        fixture_a, "marginal", enclave=enclaves["dataset"], platform=test_platform
    ).payload_value()
    model, pot = attest_training(fixture_a, small_config, enclave=enclaves["training"], platform=test_platform)
    produced["PoT"] = pot.payload_value()
    produced["AccAtt"] = attest_accuracy(
        constant_model, fixture_a, enclave=enclaves["metric"], platform=test_platform
    ).payload_value()
    produced["FairAtt"] = attest_fairness(
        pattern_model, fixture_a, enclave=enclaves["metric"], platform=test_platform
    ).payload_value()
    _, robgen, robacc = attest_robustness(
        pattern_model, fixture_a, "0.100000", enclave=enclaves["metric"], platform=test_platform
    )
    produced["RobustAtt-A"] = robgen.payload_value()
    produced["RobustAtt-B"] = robacc.payload_value()
    _, io_env = attest_inference(pattern_model, [1.0, 0.5], enclave=enclaves["inference"], platform=test_platform)
    produced["IOAtt"] = io_env.payload_value()

    assert set(produced) == set(ATT_TYPES)
    for att_type, payload in produced.items():
        assert validate_fragment(payload) == att_type
        # the same payload must not validate under any other type's schema
        for other in ATT_TYPES:
            if other == att_type:
                continue
            relabeled = {**payload, "att_type": other}
            with pytest.raises(DomainError):  # AccAtt and FairAtt differ in their pinned metric type
                validate_fragment(relabeled)
        assert payload["att_type"] == att_type


def test_envelope_file_round_trip(fixture_a, enclaves, test_platform, tmp_path):
    env = attest_distribution(fixture_a, "marginal", enclave=enclaves["dataset"], platform=test_platform)
    path = tmp_path / "dist.envelope.json"
    path.write_bytes(canonicalize(env.to_file_value()))
    restored = AttestationEnvelope.read(path)
    assert restored == env
    value = parse_canonical(path.read_bytes())
    assert value["version"] == 1
    assert set(value) == {"payload_b64", "quote", "version"}


def test_trusted_input_mode_aborts_on_mismatch(fixture_a, enclaves, tmp_path):
    data_path = tmp_path / "train.csv"
    data_path.write_bytes(fixture_a.canonical_bytes)
    manifest = build_manifest(tmp_path)

    ctx = enclaves["dataset"].with_trusted_inputs(manifest)
    assert ctx.read_input(data_path) == fixture_a.canonical_bytes
    # trusted-file mode changes the enclave identity
    assert ctx.measurement != enclaves["dataset"].measurement

    data_path.write_bytes(fixture_a.canonical_bytes + b"tampered\n")
    with pytest.raises(ManifestMismatchError, match="train.csv"):
        ctx.read_input(data_path)
    unlisted = tmp_path / "other.csv"
    unlisted.write_bytes(b"f1,label,sensitive\n")
    with pytest.raises(ManifestMismatchError, match="other.csv"):
        ctx.read_input(unlisted)


def test_builtin_template_is_a_fresh_copy():
    template = builtin_template("AccAtt")
    template["results"]["metrics"]["type"] = "changed"
    assert builtin_template("AccAtt")["results"]["metrics"]["type"] == "accuracy"
