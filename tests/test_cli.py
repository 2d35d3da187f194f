from __future__ import annotations

import json
from pathlib import Path

import pytest
import yaml

from lam.cli import main
from lam.engine.data import Architecture, TrainingConfig
from lam.engine.synth import linearly_separable
from lam.hashcore import parse_canonical


def run(*argv: str) -> int:
    return main(list(argv))


def _write_inputs(ws: Path) -> dict[str, str]:
    train = linearly_separable(200, 1.0, seed=7)
    test = linearly_separable(100, 1.0, seed=8)
    (ws / "train.csv").write_bytes(train.canonical_bytes)
    (ws / "test.csv").write_bytes(test.canonical_bytes)
    cfg = TrainingConfig(
        architecture=Architecture(num_features=2, num_classes=2, hidden=(4,), activation="tanh"),
        epochs=50,
        learning_rate="0.100000",
        batch_size=32,
        optimizer="sgd",
        rng_seed=42,
    )
    (ws / "config.json").write_bytes(cfg.canonical_bytes)
    (ws / "input.json").write_text(json.dumps({"features": [0.8, 0.9]}))
    return {"train": train.digest.hex, "test": test.digest.hex}


def _setup_keys(ws: Path) -> None:
    assert run("keygen", "root", "--seed", "cli-root", "-w", str(ws)) == 0
    assert run("keygen", "platform", "--platform-id", "p1", "--seed", "cli-plat", "-w", str(ws)) == 0
    assert run("keygen", "endorser", "--endorser-id", "acme", "--seed", "cli-end", "-w", str(ws)) == 0


@pytest.fixture(scope="module")
def cli_ws(tmp_path_factory) -> dict:
    """A workspace taken through the whole prover/endorser flow once."""
    ws = tmp_path_factory.mktemp("cliws")
    digests = _write_inputs(ws)
    _setup_keys(ws)
    w = str(ws)

    assert run("attest", "dist", "--data", str(ws / "train.csv"), "--kind", "marginal", "-w", w) == 0
    assert (
        run(
            "attest", "train", "--data", str(ws / "train.csv"), "--config", str(ws / "config.json"),
            "--model-out", str(ws / "artifacts" / "model.json"), "-w", w,
        )
        == 0
    )
    model = str(ws / "artifacts" / "model.json")
    assert run("attest", "accuracy", "--model", model, "--data", str(ws / "test.csv"), "-w", w) == 0
    assert run("attest", "fairness", "--model", model, "--data", str(ws / "test.csv"), "-w", w) == 0
    assert (
        run("attest", "robustness", "--model", model, "--data", str(ws / "test.csv"), "--eps", "0.100000", "-w", w)
        == 0
    )
    assert run("attest", "inference", "--model", model, "--input", str(ws / "input.json"), "-w", w) == 0

    for att_type, kind in (
        ("DistAtt", "dataset"),
        ("PoT", "training"),
        ("AccAtt", "metric"),
        ("FairAtt", "metric"),
        ("RobustAtt-A", "metric"),
        ("RobustAtt-B", "metric"),
        ("IOAtt", "inference"),
    ):
        assert (
            run("endorse", "enclave", "--endorser", "acme", "--enclave-kind", kind, "--att-type", att_type, "-w", w)
            == 0
        )
    assert (
        run("endorse", "dataset", digests["train"], "--name", "cli-train", "--endorser", "acme", "-w", w) == 0
    )
    assert run("endorse", "dataset", digests["test"], "--name", "cli-test", "--endorser", "acme", "-w", w) == 0

    envelopes = sorted(str(p) for p in (ws / "attestations").glob("*.envelope.json"))
    certs = sorted(str(p) for p in (ws / "certificates").glob("*.cert.json"))
    assert len(envelopes) == 7
    assert run("bundle", *envelopes, *certs, "--out", str(ws / "bundle.json")) == 0
    return {"ws": ws, "digests": digests, "model": model}


def test_keygen_root_deterministic(tmp_path):
    ws1, ws2 = tmp_path / "a", tmp_path / "b"
    assert run("keygen", "root", "--seed", "s", "-w", str(ws1)) == 0
    assert run("keygen", "root", "--seed", "s", "-w", str(ws2)) == 0
    assert (ws1 / "keys" / "root.pub").read_text() == (ws2 / "keys" / "root.pub").read_text()


def test_keygen_platform_requires_root(tmp_path):
    assert run("keygen", "platform", "--platform-id", "p1", "-w", str(tmp_path)) == 2


def test_keygen_refuses_overwrite_without_force(tmp_path):
    assert run("keygen", "root", "--seed", "s", "-w", str(tmp_path)) == 0
    assert run("keygen", "root", "--seed", "s", "-w", str(tmp_path)) == 2
    assert run("keygen", "root", "--seed", "s", "-w", str(tmp_path), "--force") == 0


def test_attest_train_prints_model_digest(cli_ws, capsys):
    ws = cli_ws["ws"]
    code = run(
        "attest", "train", "--data", str(ws / "train.csv"), "--config", str(ws / "config.json"),
        "--model-out", str(ws / "artifacts" / "model2.json"), "-w", str(ws), "--force",
    )
    out = capsys.readouterr().out
    assert code == 0
    model_bytes = (ws / "artifacts" / "model2.json").read_bytes()
    from lam.hashcore import hash_bytes

    assert f"model {hash_bytes(model_bytes).hex}" in out
    # determinism across runs: identical model file bytes
    assert model_bytes == (ws / "artifacts" / "model.json").read_bytes()


def test_attest_robustness_envelopes_share_robust_digest(cli_ws):
    ws = cli_ws["ws"]
    robgen = next((ws / "attestations").glob("robgen-*.envelope.json"))
    robacc = next((ws / "attestations").glob("robacc-*.envelope.json"))
    from lam.measurers import AttestationEnvelope

    gen = AttestationEnvelope.read(robgen).payload_value()
    acc = AttestationEnvelope.read(robacc).payload_value()
    assert gen["robust_dataset_sha256"] == acc["robust_dataset_sha256"]


def test_attest_dist_empty_csv_exits_2(tmp_path):
    _setup_keys(tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("f1,f2,label,sensitive\n")
    code = run("attest", "dist", "--data", str(empty), "-w", str(tmp_path))
    assert code == 2
    assert not list((tmp_path / "attestations").glob("*.envelope.json"))


def test_attest_refuses_envelope_overwrite(cli_ws):
    ws = cli_ws["ws"]
    code = run("attest", "dist", "--data", str(ws / "train.csv"), "--kind", "marginal", "-w", str(ws))
    assert code == 2  # envelope exists, no --force


def test_attest_trusted_dir_mismatch_aborts(tmp_path):
    _setup_keys(tmp_path)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    train = linearly_separable(20, 1.0, seed=3)
    data_path = data_dir / "train.csv"
    data_path.write_bytes(train.canonical_bytes)
    # manifest over a stale copy of the directory
    stale_dir = tmp_path / "stale"
    stale_dir.mkdir()
    (stale_dir / "train.csv").write_bytes(train.canonical_bytes + b"extra\n")
    code = run(
        "attest", "dist", "--data", str(data_path), "--trusted-dir", str(stale_dir), "-w", str(tmp_path)
    )
    assert code == 2
    assert not list((tmp_path / "attestations").glob("*.envelope.json"))


@pytest.mark.parametrize("cell", ["nan", "1e999", "-inf"])
def test_attest_dist_non_finite_csv_cell_exits_2(tmp_path, capsys, cell):
    _setup_keys(tmp_path)
    data = tmp_path / "data.csv"
    data.write_text(f"f1,f2,label,sensitive\n0.5,{cell},0,1\n1.0,2.0,1,0\n")
    code = run("attest", "dist", "--data", str(data), "-w", str(tmp_path))
    assert code == 2
    assert capsys.readouterr().err == f"error: not a finite decimal string: {cell!r}\n"
    assert not list((tmp_path / "attestations").glob("*.envelope.json"))


@pytest.mark.parametrize("feature", ["1e999", "-1e999", "NaN", '"nan"', '"1e999"'])
def test_attest_inference_non_finite_input_exits_2(cli_ws, capsys, tmp_path, feature):
    ws = cli_ws["ws"]
    path = tmp_path / "input.json"
    path.write_text(f'{{"features": [{feature}, 0.5]}}')
    record = tmp_path / "record.json"
    code = run(
        "attest", "inference", "--model", cli_ws["model"], "--input", str(path),
        "--record-out", str(record), "-w", str(ws), "--force",
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: not a finite number: ")
    assert not record.exists()


def test_endorse_float_template_exits_2(tmp_path):
    _setup_keys(tmp_path)
    template = tmp_path / "template.json"
    template.write_text('{"att_type":"AccAtt","threshold":0.5}')
    code = run(
        "endorse", "enclave", "--endorser", "acme", "--enclave-kind", "metric",
        "--template", str(template), "-w", str(tmp_path),
    )
    assert code == 2


def test_verify_full_bundle_exit_0(cli_ws, capsys, tmp_path):
    ws = cli_ws["ws"]
    out_dir = tmp_path / "cards"
    code = run(
        "verify", "--bundle", str(ws / "bundle.json"), "--certstore", str(ws / "certifications.json"),
        "--roots", str(ws / "keys" / "trust.json"), "--out", str(out_dir),
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count(": ok") >= 7
    assert "chain for model" in out and "complete" in out
    cards = sorted(p.name for p in out_dir.glob("card-*.yaml"))
    assert len([c for c in cards if c.startswith("card-model-")]) == 1
    assert len([c for c in cards if c.startswith("card-dataset-")]) == 2
    assert len([c for c in cards if c.startswith("card-inference-")]) == 1
    assert (out_dir / "chain_report.json").exists()
    report = parse_canonical((out_dir / "chain_report.json").read_bytes())
    (model_entry,) = report["models"].values()
    assert model_entry["complete"] is True
    model_card = next(out_dir.glob("card-model-*.yaml"))
    doc = yaml.safe_load(model_card.read_bytes())
    assert doc["training"]["dataset"]["name"] == "cli-train"


def test_verify_tampered_envelope_exit_1_others_still_reported(cli_ws, capsys, tmp_path):
    ws = cli_ws["ws"]
    bundle_value = parse_canonical((ws / "bundle.json").read_bytes())
    import base64

    payload = bytearray(base64.b64decode(bundle_value["envelopes"][0]["payload_b64"]))
    payload[10] ^= 1
    bundle_value["envelopes"][0]["payload_b64"] = base64.b64encode(bytes(payload)).decode()
    from lam.hashcore import canonicalize

    tampered = tmp_path / "tampered-bundle.json"
    tampered.write_bytes(canonicalize(bundle_value))

    code = run(
        "verify", "--bundle", str(tampered), "--certstore", str(ws / "certifications.json"),
        "--roots", str(ws / "keys" / "trust.json"), "--out", str(tmp_path / "cards"),
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "REJECT payload-binding-mismatch" in out
    assert out.count(": ok") >= 6  # remaining envelopes still verified and reported
    # diagnostics still written
    assert (tmp_path / "cards" / "chain_report.json").exists()


def test_verify_unknown_enclave_verdict(cli_ws, capsys, tmp_path):
    ws = cli_ws["ws"]
    empty_store = tmp_path / "empty-store.json"
    empty_store.write_text("[]")
    code = run(
        "verify", "--bundle", str(ws / "bundle.json"), "--certstore", str(empty_store),
        "--roots", str(ws / "keys" / "trust.json"), "--out", str(tmp_path / "cards"),
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "REJECT unknown-enclave" in out


def test_usage_error_exit_3():
    with pytest.raises(SystemExit) as err:
        main(["attest", "nonsense"])
    assert err.value.code == 3
    with pytest.raises(SystemExit) as err:
        main(["verify"])  # missing required flags
    assert err.value.code == 3


def test_cli_matches_library_flow(cli_ws, tmp_path):
    """The CLI-produced bundle verifies identically through the library API,
    and `lam verify` writes exactly what verify_bundle returns."""
    ws = cli_ws["ws"]
    from lam.certs import CertificationStore
    from lam.verifier import AssertionBundle, verify_bundle

    trust = parse_canonical((ws / "keys" / "trust.json").read_bytes())
    store = CertificationStore.load(ws / "certifications.json", trust["endorser_keys"])
    bundle = AssertionBundle.read(ws / "bundle.json")
    result = verify_bundle(bundle, store, trust["manufacturer_roots"], trust["endorser_keys"])
    assert all(v.accepted for v in result.envelopes) and all(ok for _, ok in result.externals)

    out_dir = tmp_path / "cards"
    assert run(*_verify_args(ws, out_dir)) == 0
    assert (out_dir / "chain_report.json").read_bytes() == result.report.canonical_bytes()
    assert sorted(p.name for p in out_dir.glob("card-*.yaml")) == sorted(c.filename for c in result.cards)
    for card in result.cards:
        assert (out_dir / card.filename).read_bytes() == card.yaml_bytes()


def _verify_args(ws: Path, out: Path, *, bundle: Path | None = None, roots: Path | None = None) -> list[str]:
    return [
        "verify", "--bundle", str(bundle or ws / "bundle.json"), "--certstore", str(ws / "certifications.json"),
        "--roots", str(roots or ws / "keys" / "trust.json"), "--out", str(out),
    ]


def test_verify_deeply_nested_roots_file_exits_2(cli_ws, capsys, tmp_path):
    roots = tmp_path / "trust.json"
    roots.write_bytes(b"[" * 5000 + b"]" * 5000)
    code = run(*_verify_args(cli_ws["ws"], tmp_path / "cards", roots=roots))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("version", [99, 0, "1", True, None, "missing"])
def test_verify_wrong_bundle_version_exits_2(cli_ws, capsys, tmp_path, version):
    ws = cli_ws["ws"]
    bundle_value = parse_canonical((ws / "bundle.json").read_bytes())
    if version == "missing":
        del bundle_value["version"]
    else:
        bundle_value["version"] = version
    from lam.hashcore import canonicalize

    bundle = tmp_path / "bundle.json"
    bundle.write_bytes(canonicalize(bundle_value))
    code = run(*_verify_args(ws, tmp_path / "cards", bundle=bundle))
    err = capsys.readouterr().err
    assert code == 2
    assert "unsupported assertion bundle version" in err
    assert not (tmp_path / "cards" / "chain_report.json").exists()


@pytest.mark.parametrize(
    ("trust", "message"),
    [
        ([], "trust file must be a JSON object"),
        ({"manufacturer_roots": 5}, "manufacturer_roots must be a list of strings"),
        ({"manufacturer_roots": [5]}, "manufacturer_roots must be a list of strings"),
        ({"endorser_keys": []}, "endorser_keys must map endorser ids to key strings"),
        ({"endorser_keys": {"acme": 1}}, "endorser_keys must map endorser ids to key strings"),
    ],
)
def test_verify_malformed_trust_file_exits_2(cli_ws, capsys, tmp_path, trust, message):
    roots = tmp_path / "trust.json"
    roots.write_text(json.dumps(trust))
    code = run(*_verify_args(cli_ws["ws"], tmp_path / "cards", roots=roots))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "cards" / "chain_report.json").exists()


def test_verify_lone_surrogate_certificate_name_exits_2(cli_ws, capsys, tmp_path):
    ws = cli_ws["ws"]
    bundle_value = parse_canonical((ws / "bundle.json").read_bytes())
    bundle_value["external_certificates"][0]["name"] = "\ud800"
    bundle = tmp_path / "bundle.json"
    # json.dumps escapes the surrogate as \ud800, which canonical JSON cannot hold
    bundle.write_text(json.dumps(bundle_value, sort_keys=True, separators=(",", ":")))
    code = run(*_verify_args(ws, tmp_path / "cards", bundle=bundle))
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: string holds a lone surrogate, which UTF-8 cannot encode at /name\n"


def test_verify_conflicting_claims_exits_2_and_writes_nothing(cli_ws, capsys, tmp_path):
    """Two verified AccAtt fragments asserting different accuracies for one
    (model, test set) are an input error, reported before any file is written."""
    from lam.backend import issue_quote
    from lam.cli import Workspace
    from lam.hashcore import canonicalize, hash_bytes
    from lam.measurers import AttestationEnvelope, default_enclaves

    ws = cli_ws["ws"]
    bundle_value = parse_canonical((ws / "bundle.json").read_bytes())
    envelopes = [AttestationEnvelope.from_json_value(e) for e in bundle_value["envelopes"]]
    acc = next(e for e in envelopes if e.payload_value()["att_type"] == "AccAtt")
    value = acc.payload_value()
    value["results"]["metrics"][0]["value"] = "0.123456"
    payload = canonicalize(value)
    platform = Workspace(ws).load_platform("p1")
    quote = issue_quote(platform, default_enclaves()["metric"].measurement, hash_bytes(payload))
    bundle_value["envelopes"].append(AttestationEnvelope(payload, quote).to_json_value())
    bundle = tmp_path / "bundle.json"
    bundle.write_bytes(canonicalize(bundle_value))

    out_dir = tmp_path / "cards"
    code = run(*_verify_args(ws, out_dir, bundle=bundle))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: conflicting claims for metric:")
    assert not (out_dir / "chain_report.json").exists()
    assert not list(out_dir.glob("card-*.yaml"))


@pytest.mark.parametrize("content", ["not hex at all\n", "ab" * 31 + "\n"])
def test_keygen_platform_malformed_root_key_exits_2(tmp_path, capsys, content):
    assert run("keygen", "root", "--seed", "s", "-w", str(tmp_path)) == 0
    key_file = tmp_path / "keys" / "root.key"
    key_file.write_text(content)
    code = run("keygen", "platform", "--platform-id", "p1", "--seed", "p", "-w", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: malformed key file {key_file}: expected 64 hex digits\n"
    assert not (tmp_path / "keys" / "platform-p1.key").exists()


def test_verify_non_alphabet_base64_exits_2(cli_ws, capsys, tmp_path):
    """A lenient decoder skips the stray character, so the envelope would
    still verify; strict decoding makes the bundle an input error."""
    from lam.hashcore import canonicalize

    ws = cli_ws["ws"]
    bundle_value = parse_canonical((ws / "bundle.json").read_bytes())
    text = bundle_value["envelopes"][0]["payload_b64"]
    bundle_value["envelopes"][0]["payload_b64"] = text[:8] + "*" + text[8:]
    bundle = tmp_path / "bundle.json"
    bundle.write_bytes(canonicalize(bundle_value))
    code = run(*_verify_args(ws, tmp_path / "cards", bundle=bundle))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: envelope payload_b64 is not strict base64: ")
    assert "Traceback" not in err
    assert not (tmp_path / "cards" / "chain_report.json").exists()
