from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from wire_cases import QUOTE_FIELD_CASES, edit_envelope

from lam.cli import main
from lam.engine.data import Architecture, TrainingConfig
from lam.engine.synth import linearly_separable
from lam.hashcore import canonicalize, parse_canonical
from lam.fragments import builtin_template


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


def _prove_and_endorse(ws: Path) -> dict:
    """Take the workspace `ws` through the whole prover/endorser flow."""
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


@pytest.fixture(scope="module")
def cli_ws(tmp_path_factory) -> dict:
    """A workspace taken through the whole prover/endorser flow once."""
    return _prove_and_endorse(tmp_path_factory.mktemp("cliws"))


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
    from lam.fragments import AttestationEnvelope

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
    assert capsys.readouterr().err == f"error: not a finite decimal string: {cell!r}: {data}\n"
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


@pytest.mark.parametrize(
    ("row", "message"),
    [
        ("0.5,abc,0,1", "CSV line 2, column 'f2': 'abc' is not a decimal number"),
        ("0.5,1.0,x,1", "CSV line 2, column 'label': 'x' is not an integer"),
        ("0.5,1.0,0,", "CSV line 2, column 'sensitive': '' is not an integer"),
        (
            "0.5,1.0,100000000000000000000,1",
            "CSV line 2, column 'label': 100000000000000000000 is outside the int64 range",
        ),
        (
            "0.500000,1.000000,0,-99999999999999999999",
            "CSV line 2, column 'sensitive': -99999999999999999999 is outside the int64 range",
        ),
    ],
)
def test_attest_dist_junk_csv_cell_exits_2(tmp_path, capsys, row, message):
    _setup_keys(tmp_path)
    data = tmp_path / "data.csv"
    data.write_text(f"f1,f2,label,sensitive\n{row}\n1.0,2.0,1,0\n")
    code = run("attest", "dist", "--data", str(data), "-w", str(tmp_path))
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}: {data}\n"
    assert not list((tmp_path / "attestations").glob("*.envelope.json"))


def _attest_inference(cli_ws, tmp_path, content: bytes, name: str) -> tuple[int, Path]:
    path = tmp_path / f"{name}.json"
    path.write_bytes(content)
    out = tmp_path / name
    code = run(
        "attest", "inference", "--model", cli_ws["model"], "--input", str(path), "--out", str(out),
        "--record-out", str(out / "record.json"), "-w", str(cli_ws["ws"]), "--force",
    )
    return code, out


@pytest.mark.parametrize(
    ("content", "message"),
    [
        (b"{}", "inference input has no 'features' field"),
        (b"[]", "inference input must be a JSON object"),
        (b"[null,1]", "inference input must be a JSON object"),
        (b'["x",1]', "inference input must be a JSON object"),
        # a key the input digest would not name
        (b'{"evil":"smuggled","features":[1,2]}', "inference input has an unknown key: 'evil'"),
        (b'{"features":"ab"}', 'inference input must be an object {"features": [...]}'),
        (b'{"features":[null,1]}', "inference input features[0] must be a number or a decimal string, not None"),
        (b'{"features":[1,"x"]}', "inference input features[1] is not a decimal string: 'x'"),
        (b'{"features":[true,1]}', "inference input features[0] must be a number or a decimal string, not True"),
        (b'{"features":[[1],1]}', "inference input features[0] must be a number or a decimal string, not [1]"),
        (b'{"features":[1' + b"0" * 400 + b',1]}', "inference input features[0] is outside the float range"),
        (b"features: [1, 2]", "inference input is not JSON: "),
        (b"\xff\xfe", "inference input is not JSON: "),
    ],
)
def test_attest_inference_malformed_input_exits_2(cli_ws, capsys, tmp_path, content, message):
    code, out = _attest_inference(cli_ws, tmp_path, content, "input")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_attest_inference_numbers_and_decimal_strings_give_one_envelope(cli_ws, tmp_path):
    inputs = [b'{"features":[1,0.5]}', b'{"features":[1.0,"0.5"]}', b'{"features":["1","0.500000"]}']
    written = []
    for i, content in enumerate(inputs):
        code, out = _attest_inference(cli_ws, tmp_path, content, f"input{i}")
        assert code == 0
        written.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
    assert written[0] == written[1] == written[2]


def test_attest_inference_loose_and_canonical_model_files_give_one_envelope(cli_ws, tmp_path):
    """A model file's weights are the ones its digest names: seven-digit
    weights act as the six-digit weights of the canonical file they
    quantize to, so both files give one envelope, which verifies."""
    from lam.hashcore import canonicalize

    ws = cli_ws["ws"]
    loose = {
        "activation": "tanh",
        "arch": [2, 2],
        "biases": [["0.0000004", "-0.0000004"]],
        "weights": [[["0.0000004", "-0.0000004"], ["0.0000004", "-0.0000004"]]],
    }
    canonical = {
        "activation": "tanh",
        "arch": [2, 2],
        "biases": [["0.000000", "-0.000000"]],
        "weights": [[["0.000000", "-0.000000"], ["0.000000", "-0.000000"]]],
    }
    (tmp_path / "input.json").write_bytes(b'{"features":[10,10]}')
    envelopes = []
    for name, doc in (("loose", loose), ("canonical", canonical)):
        (tmp_path / f"{name}.json").write_bytes(canonicalize(doc))
        out = tmp_path / name
        code = run(
            "attest", "inference", "--model", str(tmp_path / f"{name}.json"), "--input", str(tmp_path / "input.json"),
            "--out", str(out), "--record-out", str(out / "record.json"), "-w", str(ws),
        )
        assert code == 0
        (envelope,) = out.glob("io-*.envelope.json")
        envelopes.append(envelope)
    assert envelopes[0].name == envelopes[1].name
    assert envelopes[0].read_bytes() == envelopes[1].read_bytes()

    bundle = tmp_path / "bundle.json"
    assert run("bundle", *map(str, envelopes), "--out", str(bundle)) == 0
    assert run(*_verify_args(ws, tmp_path / "cards", bundle=bundle)) == 0


@pytest.mark.parametrize(
    ("eps", "message"),
    [("abc", "not a decimal string: 'abc'"), ("1e999", "not a finite decimal string: '1e999'")],
)
def test_attest_robustness_junk_eps_exits_2(cli_ws, capsys, tmp_path, eps, message):
    ws = cli_ws["ws"]
    code = run(
        "attest", "robustness", "--model", cli_ws["model"], "--data", str(ws / "test.csv"), "--eps", eps,
        "--robust-out", str(tmp_path / "drob.csv"), "--out", str(tmp_path / "att"), "-w", str(ws),
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: --eps: {message}\n"
    assert not (tmp_path / "drob.csv").exists() and not (tmp_path / "att").exists()


@pytest.mark.parametrize(
    ("trust", "code", "roots"),
    [("[]", 2, None), ("{}", 0, 1), ('{"endorser_keys": {"acme": "ab"}}', 0, 1), ('{"manufacturer_roots": 5}', 2, None)],
)
def test_keygen_root_reads_the_trust_file_like_verify(tmp_path, capsys, trust, code, roots):
    (tmp_path / "keys").mkdir()
    trust_file = tmp_path / "keys" / "trust.json"
    trust_file.write_text(trust)
    assert run("keygen", "root", "--seed", "s", "-w", str(tmp_path)) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: trust file ") and "Traceback" not in err
        assert trust_file.read_text() == trust
    else:
        written = parse_canonical(trust_file.read_bytes())
        assert len(written["manufacturer_roots"]) == roots
        assert written["endorser_keys"] == json.loads(trust).get("endorser_keys", {})


def test_keygen_platform_does_not_read_the_trust_file(tmp_path):
    assert run("keygen", "root", "--seed", "s", "-w", str(tmp_path)) == 0
    trust_file = tmp_path / "keys" / "trust.json"
    trust_file.write_text("[]")
    assert run("keygen", "platform", "--platform-id", "p1", "--seed", "p", "-w", str(tmp_path)) == 0
    assert trust_file.read_text() == "[]"


def test_endorse_float_template_exits_2(tmp_path):
    _setup_keys(tmp_path)
    template = tmp_path / "template.json"
    template.write_text('{"att_type":"AccAtt","threshold":0.5}')
    code = run(
        "endorse", "enclave", "--endorser", "acme", "--enclave-kind", "metric",
        "--template", str(template), "-w", str(tmp_path),
    )
    assert code == 2


@pytest.mark.parametrize(
    ("args", "name"),
    [
        (("dataset", "ZZ", "--name", "x"), "subject"),
        (("model", "ZZ", "--name", "x"), "subject"),
        (("enclave", "--measurement", "ZZ", "--att-type", "AccAtt"), "--measurement"),
    ],
    ids=["dataset", "model", "enclave"],
)
def test_endorse_bad_digest_exits_2(tmp_path, capsys, args, name):
    _setup_keys(tmp_path)
    capsys.readouterr()
    code = run("endorse", *args, "--endorser", "acme", "-w", str(tmp_path))
    assert code == 2
    assert capsys.readouterr().err == f"error: {name}: not a lowercase 64-char hex digest: 'ZZ'\n"
    assert not (tmp_path / "certifications.json").exists()


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


def test_version_prints_the_package_version(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out == "lam 0.1.0\n"


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


def _verify_args(
    ws: Path, out: Path, *, bundle: Path | None = None, roots: Path | None = None, certstore: Path | None = None
) -> list[str]:
    return [
        "verify", "--bundle", str(bundle or ws / "bundle.json"),
        "--certstore", str(certstore or ws / "certifications.json"),
        "--roots", str(roots or ws / "keys" / "trust.json"), "--out", str(out),
    ]


def test_verify_overlong_integer_token_exits_2(cli_ws, capsys, tmp_path):
    bundle = tmp_path / "bundle.json"
    bundle.write_bytes(b'{"envelopes":[],"external_certificates":[],"version":' + b"1" * 5000 + b"}")
    code = run(*_verify_args(cli_ws["ws"], tmp_path / "cards", bundle=bundle))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: integer token of more than {sys.get_int_max_str_digits()} digits at /: {bundle}\n"
    assert not (tmp_path / "cards").exists()


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
        # a misspelt key would leave its entry empty
        ({"endorser_key": {"acme": "ab" * 32}}, "trust file has an unknown key: 'endorser_key'"),
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
    assert err == f"error: string holds a lone surrogate, which UTF-8 cannot encode at /name: {bundle}\n"


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        (("external_certificates", 0, "claims"), {"x": math.nan}, "float values are not allowed; use a decimal string at /claims/x"),
        (
            ("envelopes", 0, "quote", "platform_certificate", "platform_id"),
            "\ud800",
            "string holds a lone surrogate, which UTF-8 cannot encode at /platform_id",
        ),
    ],
    ids=["nan-claim", "surrogate-platform-id"],
)
def test_verify_error_in_a_bundle_value_names_the_bundle(cli_ws, capsys, tmp_path, field, value, message):
    """A value that the bundle's JSON holds but canonical JSON cannot (NaN, a
    lone surrogate) is refused while the bundle is verified, and the error
    names the bundle file; nothing is written."""
    ws = cli_ws["ws"]
    bundle_value = parse_canonical((ws / "bundle.json").read_bytes())
    *parents, last = field
    target = bundle_value
    for key in parents:
        target = target[key]
    target[last] = value
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(bundle_value, sort_keys=True, separators=(",", ":")))
    code = run(*_verify_args(ws, tmp_path / "cards", bundle=bundle))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}: {bundle}\n"
    assert not (tmp_path / "cards").exists()


def test_verify_conflicting_claims_exits_2_and_writes_nothing(cli_ws, capsys, tmp_path):
    """Two verified AccAtt fragments asserting different accuracies for one
    (model, test set) are an input error, reported before any file is written."""
    from lam.backend import issue_quote
    from lam.cli import Workspace
    from lam.hashcore import canonicalize, hash_bytes
    from lam.fragments import AttestationEnvelope, default_enclaves
    from lam.verifier import AssertionBundle

    ws = cli_ws["ws"]
    read = AssertionBundle.read(ws / "bundle.json")
    acc = next(e for e in read.envelopes if e.payload_value()["att_type"] == "AccAtt")
    value = acc.payload_value()
    value["results"]["metrics"][0]["value"] = "0.123456"
    payload = canonicalize(value)
    platform = Workspace(ws).load_platform("p1")
    quote = issue_quote(platform, default_enclaves()["metric"].measurement, hash_bytes(payload))
    bundle = tmp_path / "bundle.json"
    replace(read, envelopes=(*read.envelopes, AttestationEnvelope(payload, quote))).write(bundle)

    out_dir = tmp_path / "cards"
    code = run(*_verify_args(ws, out_dir, bundle=bundle))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: conflicting claims for metric:")
    assert not (out_dir / "chain_report.json").exists()
    assert not list(out_dir.glob("card-*.yaml"))


@pytest.mark.parametrize("content", ["not hex at all\n", "ab" * 31 + "\n", None])
def test_keygen_platform_malformed_root_key_exits_2(tmp_path, capsys, content):
    assert run("keygen", "root", "--seed", "s", "-w", str(tmp_path)) == 0
    key_file = tmp_path / "keys" / "root.key"
    if content is None:  # a key file that cannot be read is an input error too
        key_file.unlink()
        key_file.mkdir()
        message = f"cannot read {key_file}: Is a directory"
    else:
        key_file.write_text(content)
        message = f"malformed key file {key_file}: expected 64 hex digits"
    code = run("keygen", "platform", "--platform-id", "p1", "--seed", "p", "-w", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"
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
    assert err.startswith("error: envelope 0: envelope payload_b64 is not strict base64: ")
    assert "Traceback" not in err
    assert not (tmp_path / "cards" / "chain_report.json").exists()


_GOOD_RECORD = {"enclave_measurement": "ab" * 32, "endorser_id": "acme", "signature": "00" * 64, "template": {}}
MALFORMED_STORES = [
    ("{}", "certification store must be a JSON array"),
    ("[5]", "certification store entry 0: certification must be a JSON object"),
    ("[{}]", "certification store entry 0: certification has no 'enclave_measurement' field"),
    (
        json.dumps([_GOOD_RECORD, {**_GOOD_RECORD, "endorser_id": 5}]),
        "certification store entry 1: certification field 'endorser_id' is malformed: 5",
    ),
    (
        json.dumps([{**_GOOD_RECORD, "signature": "zz"}]),
        "certification store entry 0: certification field 'signature' is malformed: 'zz'",
    ),
    (
        json.dumps([{**_GOOD_RECORD, "enclave_measurement": ["a"] * 64}]),
        "certification store entry 0: certification field 'enclave_measurement' is malformed: ",
    ),
    (
        json.dumps([_GOOD_RECORD, {**_GOOD_RECORD, "evil": "smuggled"}]),
        "certification store entry 1: certification has an unknown key: 'evil'",
    ),
]
MALFORMED_STORE_IDS = [
    "object", "number", "empty-record", "int-endorser", "non-hex-signature", "list-measurement", "unknown-key"
]


@pytest.mark.parametrize(("store", "message"), MALFORMED_STORES, ids=MALFORMED_STORE_IDS)
def test_endorse_enclave_malformed_store_exits_2(tmp_path, capsys, store, message):
    _setup_keys(tmp_path)
    store_file = tmp_path / "certifications.json"
    store_file.write_text(store)
    code = run(
        "endorse", "enclave", "--endorser", "acme", "--enclave-kind", "metric", "--att-type", "AccAtt",
        "-w", str(tmp_path),
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert store_file.read_text() == store


@pytest.mark.parametrize(("store", "message"), MALFORMED_STORES, ids=MALFORMED_STORE_IDS)
def test_verify_malformed_store_exits_2(cli_ws, capsys, tmp_path, store, message):
    store_file = tmp_path / "certifications.json"
    store_file.write_text(store)
    code = run(*_verify_args(cli_ws["ws"], tmp_path / "cards", certstore=store_file))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not (tmp_path / "cards").exists()


@pytest.mark.parametrize("version", [99, 0, "1", True, None, "missing"])
def test_bundle_wrong_envelope_version_exits_2(cli_ws, capsys, tmp_path, version):
    from lam.hashcore import canonicalize

    source = next((cli_ws["ws"] / "attestations").glob("acc-*.envelope.json"))
    value = parse_canonical(source.read_bytes())
    if version == "missing":
        del value["version"]
        version = None
    else:
        value["version"] = version
    envelope = tmp_path / source.name
    envelope.write_bytes(canonicalize(value))
    out = tmp_path / "bundle.json"
    code = run("bundle", str(envelope), "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: unsupported envelope version {version!r} (expected 1): {envelope}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        (lambda c: c["architecture"].update(num_features="abc"), "architecture field 'num_features' is malformed: 'abc'"),
        (lambda c: c["architecture"].update(hidden=[4, "x"]), "architecture field 'hidden' is malformed: [4, 'x']"),
        (lambda c: c.update(epochs="abc"), "training config field 'epochs' is malformed: 'abc'"),
        (lambda c: c.update(learning_rate="abc"), "learning_rate is not a decimal string: 'abc'"),
        # a field of the wrong JSON type is refused, never converted
        (lambda c: c["architecture"].update(hidden="12"), "architecture field 'hidden' is malformed: '12'"),
        (lambda c: c.update(epochs=True), "training config field 'epochs' is malformed: True"),
        (lambda c: c.update(epochs="7"), "training config field 'epochs' is malformed: '7'"),
        (lambda c: c.update(rng_seed="42"), "training config field 'rng_seed' is malformed: '42'"),
        (lambda c: c.update(learning_rate=1), "training config field 'learning_rate' is malformed: 1"),
        # past the documented bounds: refused before training allocates or loops
        (
            lambda c: c["architecture"].update(hidden=[10**30]),
            f"num_features, hidden and num_classes give {5 * 10**30 + 2} parameters (at most 1000000)",
        ),
        (lambda c: c.update(epochs=10**30), f"epochs x rows must be at most 10000000: {10**30} x 200"),
        (
            lambda c: c.update(batch_size=6000, architecture={**c["architecture"], "hidden": [199999]}),
            "batch_size x summed layer widths must be at most 10000000: 200 x 200003 (widest layer 199999)",
        ),
        # a seed the generator would read mod 2^64, as another config's seed
        (lambda c: c.update(rng_seed=2**64 + 1), f"rng_seed must be in 0 .. 2^64 - 1: {2**64 + 1}"),
        # a key the config digest would not name
        (lambda c: c.update(momentum="0.900000"), "training config has an unknown key: 'momentum'"),
        (lambda c: c["architecture"].update(dropout=1), "architecture has an unknown key: 'dropout'"),
    ],
    ids=[
        "num_features", "hidden", "epochs", "learning_rate", "hidden-string", "epochs-bool", "epochs-string",
        "rng_seed-string", "learning_rate-number", "hidden-bound", "epochs-bound", "batch-bound",
        "rng_seed-bound", "unknown-key", "architecture-unknown-key",
    ],
)
def test_attest_train_malformed_config_field_exits_2(cli_ws, capsys, tmp_path, edit, message):
    from lam.hashcore import canonicalize

    ws = cli_ws["ws"]
    config = parse_canonical((ws / "config.json").read_bytes())
    edit(config)
    path = tmp_path / "config.json"
    path.write_bytes(canonicalize(config))
    code = run(
        "attest", "train", "--data", str(ws / "train.csv"), "--config", str(path),
        "--model-out", str(tmp_path / "model.json"), "--out", str(tmp_path / "att"), "-w", str(ws),
    )
    assert code == 2
    # the two bounds on epochs or batch size times the dataset's rows are met in training, not in the file
    suffix = "" if "must be at most" in message else f": {path}"
    assert capsys.readouterr().err == f"error: {message}{suffix}\n"
    assert not (tmp_path / "model.json").exists() and not (tmp_path / "att").exists()


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        (lambda m: m["weights"][0][0].__setitem__(0, "abc"), "weights entry is not a decimal string: 'abc'"),
        (lambda m: m["biases"][0].__setitem__(0, "abc"), "biases entry is not a decimal string: 'abc'"),
        (lambda m: m["arch"].__setitem__(0, "abc"), "model file field 'arch' is malformed: ['abc', "),
        (lambda m: m["weights"][0][0].pop(), "malformed model file: "),
        (lambda m: m.update(arch="".join(map(str, m["arch"]))), "model file field 'arch' is malformed: '242'"),
        (lambda m: m["weights"][0][0].__setitem__(0, 1), "weights entry is not a decimal string: 1"),
        (lambda m: m.update(dropout=1), "model file has an unknown key: 'dropout'"),
        # one 2x2 layer under a one-width arch would load as the network [2, 2]
        (
            lambda m: m.update(arch=[2], weights=[[["0.000000"] * 2] * 2], biases=[["0.000000"] * 2]),
            "arch needs at least two widths: [2]",
        ),
    ],
    ids=["weight", "bias", "arch", "ragged-rows", "arch-string", "weight-number", "unknown-key", "arch-short"],
)
def test_attest_accuracy_malformed_model_field_exits_2(cli_ws, capsys, tmp_path, edit, message):
    from lam.hashcore import canonicalize

    ws = cli_ws["ws"]
    model = parse_canonical(Path(cli_ws["model"]).read_bytes())
    edit(model)
    path = tmp_path / "model.json"
    path.write_bytes(canonicalize(model))
    code = run(
        "attest", "accuracy", "--model", str(path), "--data", str(ws / "test.csv"),
        "--out", str(tmp_path / "att"), "-w", str(ws),
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not (tmp_path / "att").exists()


@pytest.mark.parametrize("command", ["accuracy", "fairness", "robustness"])
def test_attest_evaluation_past_the_activation_bound_exits_2(cli_ws, capsys, tmp_path, monkeypatch, command):
    """Evaluating 2,000 rows on a model file with a 5,000-wide layer would
    hold 2,000 x 5,004 activations, past MAX_BATCH_ACTIVATIONS: refused
    before any layer runs. The activation is patched to raise, and traced
    memory stays below one layer's activations, so nothing was allocated."""
    import tracemalloc

    import numpy as np

    import lam.engine.model as model_module
    from lam.engine.model import Model

    def no_layer(*args):
        raise AssertionError("a layer ran")

    ws = cli_ws["ws"]
    arch = Architecture(num_features=2, num_classes=2, hidden=(5000,), activation="tanh")
    model = Model.from_float_params(arch, [np.zeros((2, 5000)), np.zeros((5000, 2))], [np.zeros(5000), np.zeros(2)])
    (tmp_path / "model.json").write_bytes(model.canonical_bytes)
    (tmp_path / "test.csv").write_bytes(linearly_separable(2000, 1.0, seed=9).canonical_bytes)
    monkeypatch.setattr(model_module, "_activate", no_layer)
    args = ["--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "test.csv")]
    args += ["--eps", "0.100000"] if command == "robustness" else []
    tracemalloc.start()
    try:
        code = run("attest", command, *args, "--out", str(tmp_path / "att"), "-w", str(ws))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        "error: rows x summed layer widths must be at most 10000000: 2000 x 5004 (widest layer 5000)\n"
    )
    assert peak < 2000 * 5000 * 8
    assert not (tmp_path / "att").exists()


def test_verify_malformed_external_certificate_exits_2(cli_ws, capsys, tmp_path):
    from lam.hashcore import canonicalize

    ws = cli_ws["ws"]
    bundle_value = parse_canonical((ws / "bundle.json").read_bytes())
    del bundle_value["external_certificates"][0]["signature"]
    bundle = tmp_path / "bundle.json"
    bundle.write_bytes(canonicalize(bundle_value))
    code = run(*_verify_args(ws, tmp_path / "cards", bundle=bundle))
    assert code == 2
    assert capsys.readouterr().err == f"error: external certificate 0: external certificate has no 'signature' field: {bundle}\n"
    assert not (tmp_path / "cards").exists()


def _odd_kind_certificate(cli_ws: dict) -> dict:
    """The wire form of a certificate, validly signed by the workspace's
    endorser, naming the model under a subject_kind that is neither
    "dataset" nor "model"."""
    from lam.cli import Workspace
    from lam.hashcore import canonicalize

    value = {
        "claims": {},
        "endorser_id": "acme",
        "name": "odd-name",
        "subject_kind": "foo",
        "subject_sha256": hashlib.sha256(Path(cli_ws["model"]).read_bytes()).hexdigest(),
    }
    signature = Workspace(cli_ws["ws"]).load_endorser("acme").private_key.sign(canonicalize(value))
    return {**value, "signature": signature.hex()}


ODD_KIND = "external certificate subject_kind must be one of ('dataset', 'model'): 'foo'"


def test_verify_unknown_subject_kind_exits_2(cli_ws, capsys, tmp_path):
    from lam.hashcore import canonicalize

    ws = cli_ws["ws"]
    bundle_value = parse_canonical((ws / "bundle.json").read_bytes())
    index = len(bundle_value["external_certificates"])
    bundle_value["external_certificates"].append(_odd_kind_certificate(cli_ws))
    bundle = tmp_path / "bundle.json"
    bundle.write_bytes(canonicalize(bundle_value))
    code = run(*_verify_args(ws, tmp_path / "cards", bundle=bundle))
    assert code == 2
    assert capsys.readouterr().err == f"error: external certificate {index}: {ODD_KIND}: {bundle}\n"
    assert not (tmp_path / "cards").exists()


def test_bundle_unknown_subject_kind_exits_2(cli_ws, capsys, tmp_path):
    from lam.hashcore import canonicalize

    cert = tmp_path / "foo.cert.json"
    cert.write_bytes(canonicalize(_odd_kind_certificate(cli_ws)))
    out = tmp_path / "bundle.json"
    code = run("bundle", str(cert), "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == f"error: {ODD_KIND}: {cert}\n"
    assert not out.exists()


def test_bundle_external_certificate_unknown_key_exits_2(cli_ws, capsys, tmp_path):
    """A certificate holding a key it does not have is refused: it would
    verify, and its certificate_sha256 would name other bytes than those read."""
    source = min((cli_ws["ws"] / "certificates").iterdir())
    cert = tmp_path / source.name
    cert.write_bytes(canonicalize({**parse_canonical(source.read_bytes()), "evil": "smuggled"}))
    out = tmp_path / "bundle.json"
    code = run("bundle", str(cert), "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == f"error: external certificate has an unknown key: 'evil': {cert}\n"
    assert not out.exists()


def test_bundle_envelope_unknown_key_exits_2(cli_ws, capsys, tmp_path):
    """An envelope file holding a key it does not have is refused, not
    bundled without it."""
    source = next((cli_ws["ws"] / "attestations").glob("acc-*.envelope.json"))
    envelope = tmp_path / source.name
    envelope.write_bytes(canonicalize({**parse_canonical(source.read_bytes()), "evil": "smuggled"}))
    out = tmp_path / "bundle.json"
    code = run("bundle", str(envelope), "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == f"error: envelope has an unknown key: 'evil': {envelope}\n"
    assert not out.exists()


def test_verify_bundle_unknown_key_exits_2(cli_ws, capsys, tmp_path):
    ws = cli_ws["ws"]
    bundle = tmp_path / "bundle.json"
    bundle.write_bytes(canonicalize({**parse_canonical((ws / "bundle.json").read_bytes()), "evil": "smuggled"}))
    code = run(*_verify_args(ws, tmp_path / "cards", bundle=bundle))
    assert code == 2
    assert capsys.readouterr().err == f"error: assertion bundle has an unknown key: 'evil': {bundle}\n"
    assert not (tmp_path / "cards").exists()


def _space_pairs(text: str) -> str:
    return " ".join(text[i : i + 2] for i in range(0, len(text), 2))


NON_CANONICAL_HEX = pytest.mark.parametrize("rewrite", [str.upper, _space_pairs], ids=["upper-case", "spaced"])


@NON_CANONICAL_HEX
def test_verify_non_canonical_certification_signature_exits_2(cli_ws, capsys, tmp_path, rewrite):
    """A signature parses only in the lower-case form .hex() writes, so a
    record's digest always names the bytes as written."""
    from lam.hashcore import canonicalize

    ws = cli_ws["ws"]
    store = parse_canonical((ws / "certifications.json").read_bytes())
    signature = rewrite(store[1]["signature"])
    assert signature != store[1]["signature"]
    store[1]["signature"] = signature
    store_file = tmp_path / "certifications.json"
    store_file.write_bytes(canonicalize(store))
    code = run(*_verify_args(ws, tmp_path / "cards", certstore=store_file))
    assert code == 2
    message = f"certification store entry 1: certification field 'signature' is malformed: {signature!r}"
    assert capsys.readouterr().err == f"error: {message}: {store_file}\n"
    assert not (tmp_path / "cards").exists()


@NON_CANONICAL_HEX
def test_verify_non_canonical_external_certificate_signature_exits_2(cli_ws, capsys, tmp_path, rewrite):
    from lam.hashcore import canonicalize

    ws = cli_ws["ws"]
    bundle_value = parse_canonical((ws / "bundle.json").read_bytes())
    signature = rewrite(bundle_value["external_certificates"][0]["signature"])
    bundle_value["external_certificates"][0]["signature"] = signature
    bundle = tmp_path / "bundle.json"
    bundle.write_bytes(canonicalize(bundle_value))
    code = run(*_verify_args(ws, tmp_path / "cards", bundle=bundle))
    assert code == 2
    message = f"external certificate field 'signature' is malformed: {signature!r}"
    assert capsys.readouterr().err == f"error: external certificate 0: {message}: {bundle}\n"
    assert not (tmp_path / "cards").exists()


@pytest.fixture(scope="module")
def sixrow_files(tmp_path_factory) -> Path:
    """The six-row pipeline's bundle, certification store and trust file."""
    from lam.hashcore import canonicalize
    from pipeline import sixrow_pipeline

    pipe = sixrow_pipeline()
    out = tmp_path_factory.mktemp("sixrow")
    pipe.bundle().write(out / "bundle.json")
    pipe.store.save(out / "certifications.json")
    trust = {"endorser_keys": pipe.endorser_keys, "manufacturer_roots": [pipe.root.public_hex]}
    (out / "trust.json").write_bytes(canonicalize(trust))
    return out


@pytest.mark.parametrize("key", ["envelopes", "external_certificates"])
@pytest.mark.parametrize("replacement", [None, {}, 5], ids=["deleted", "object", "number"])
def test_verify_bundle_without_an_array_exits_2(sixrow_files, capsys, tmp_path, key, replacement):
    from lam.hashcore import canonicalize

    bundle_value = parse_canonical((sixrow_files / "bundle.json").read_bytes())
    if replacement is None:
        del bundle_value[key]
    else:
        bundle_value[key] = replacement
    bundle = tmp_path / "bundle.json"
    bundle.write_bytes(canonicalize(bundle_value))
    code = run(
        "verify", "--bundle", str(bundle), "--certstore", str(sixrow_files / "certifications.json"),
        "--roots", str(sixrow_files / "trust.json"), "--out", str(tmp_path / "cards"),
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: assertion bundle {key!r} must be a JSON array: {bundle}\n"
    assert not (tmp_path / "cards").exists()


def test_verify_deeply_nested_card_exits_2_and_writes_nothing(capsys, tmp_path):
    """An external certificate's claims reach its subject's card unchanged;
    claims too deep to write as YAML are an input error found before any
    file is written."""
    from lam.certs import make_external_certificate
    from lam.hashcore import canonicalize
    from pipeline import sixrow_pipeline

    pipe = sixrow_pipeline()
    claims: list = []
    for _ in range(599):
        claims = [claims]
    deep = make_external_certificate(pipe.endorser, pipe.train_ds.digest, "dataset", "deep", {"nested": claims})
    bundle = replace(pipe.bundle(), external_certificates=(*pipe.externals, deep))
    bundle.write(tmp_path / "bundle.json")
    pipe.store.save(tmp_path / "certifications.json")
    trust = {"endorser_keys": pipe.endorser_keys, "manufacturer_roots": [pipe.root.public_hex]}
    (tmp_path / "trust.json").write_bytes(canonicalize(trust))

    out_dir = tmp_path / "cards"
    code = run(
        "verify", "--bundle", str(tmp_path / "bundle.json"), "--certstore", str(tmp_path / "certifications.json"),
        "--roots", str(tmp_path / "trust.json"), "--out", str(out_dir),
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: card card-dataset-") and "nested too deeply" in err
    assert not out_dir.exists()


# SHA-256 of every file the prover/endorser flow and one `lam verify` write,
# by path relative to the workspace.
CLI_OUTPUT_SHA256 = {
    "artifacts/drob-6aec94d1b2fd.csv": "6aec94d1b2fdd908401f165d35c68a0017dc8bf899c24a02bf2175b128d7b257",
    "artifacts/inference-499787d2a1ae.json": "0b3102d23e0bd0691d2d1f32501445afe946298bc610f9ebf0bbff6487966ddb",
    "artifacts/model.json": "add7842a89e7f08c4ff400b422a3119961d6544309b3cc49bc9b66b7c627b02c",
    "attestations/acc-add7842a89e7.envelope.json": "113f75392d07a054af86c1f1f29c086a0c9d0dfb7731574e0a28383ff1b5459f",
    "attestations/dist-marginal-ec31523fc48f.envelope.json": "fd6a65be293917b4695ac2a956f5faca88db26e6744cdfb0a7c334d19f29c266",
    "attestations/fair-add7842a89e7.envelope.json": "9f384e7c40817637e7ce05d3b9488158bf26a0dc878a192cc400603d637c66b9",
    "attestations/io-499787d2a1ae.envelope.json": "9fa7ff7b7ecb6e23a49aaa853592121d8b04eb8f90f20aa6a178a0455a810530",
    "attestations/pot-add7842a89e7.envelope.json": "c3ceedfde6dcdf9ccb8d7c524c079124bfe3410c51de7fa255a6bae314e5f8aa",
    "attestations/robacc-add7842a89e7.envelope.json": "cf535b3ee0ddf27312c1dc9d552e020ff79654ff463cba92aa0248eb4d454afe",
    "attestations/robgen-6aec94d1b2fd.envelope.json": "6cbbf7e1db438edbf63665b9094c0d6e855d79570c2bb936cf00e9c79fbd26c0",
    "bundle.json": "97aef287015883dec505cfc12c905b5e674056b2d6b6a526bbbfdf2d194f8159",
    "certificates/dataset-3b9aa9c435bd.cert.json": "312ae49924be515485922cb6fc836c609fe190468cacf88112c3e0e8cde57354",
    "certificates/dataset-ec31523fc48f.cert.json": "daefafa9b9d5990ca5f22e6c59d5ae2ca6103d0bf6d207e96bbf60fb08b64907",
    "certifications.json": "be8f9728133972697094c0587e95b6b2d9d607710562c6fc3367d886a2aefad5",
    "config.json": "f8127c41e59b657656fbefe83bce9c32c1ece8538e94e000c265282b2d81e03a",
    "input.json": "e63876adf3ed35f5efcac24f0112a2294fd6977319b1239fe2ab2377a4df252b",
    "keys/endorser-acme.key": "ff9c2b57eb71f69132a84bc5c12b38cc1dce5b9874d3dbeedc238610883c4924",
    "keys/endorser-acme.pub": "6224a1d9c2f5b91ea3308f05969336531209fbd1f64023c3a12a3f04ddc4a2f2",
    "keys/platform-p1.cert.json": "f7f5e518137e693c32773b1d84103edf0073a5c416f89ce564ab17be4cbcaa9c",
    "keys/platform-p1.key": "05ac2d998a5f656c3537f9ea1f2ca9a45e4bf56992bc651782b905f1fc2fd6b3",
    "keys/platform-p1.pub": "b0678e1519d66b90d7368015412fc1000377806d1c93a5c1c523ca989a72cb2c",
    "keys/root.cert.json": "5436333e3670137fe7843515d38e80a637706e3b15329669f7a771e96f17a554",
    "keys/root.key": "3cc486141236756e4aff9e6027dfc3a9abe7e7fae7ccafc2f3700b3db7328252",
    "keys/root.pub": "c188dac015c57c58f9f25d73561b1baeec419bd605fa617c8eb10178a6486e22",
    "keys/trust.json": "49575d938a4f1b6253c07f9d81267e264cab86be0339534c3906cb590ba501b7",
    "out/card-dataset-6aec94d1b2fd.yaml": "5832f2be37fa0ddc56f90715e62e9402047ff663ddefbc69d25a9057f39a0192",
    "out/card-dataset-ec31523fc48f.yaml": "edfdb913d58df477734e93c0bb9c92ff3538158c31c545b1fa493be3b5cc5158",
    "out/card-inference-203a4af1c8ba.yaml": "5d0ef05dc0f14cb272397abaedd1051b396ee89f4bbf9ef9e96af0fdcd56a678",
    "out/card-model-add7842a89e7.yaml": "17f0f0ce23f1bc284fbc2daed1b1138aafb956b9615d67517aaf477b1e457158",
    "out/chain_report.json": "de76c47bf2e4b2cb9fced598151784e7bc2915f64e6f29b9cc9e37b5b740a00f",
    "test.csv": "3b9aa9c435bda847c432af552aa06ab27c23fec1c82f4497381ea22a25a9e82b",
    "train.csv": "ec31523fc48f864165e8a3ba594c3369177eaddea8040d1f575ba1714f5e73d4",
}


def test_cli_output_bytes_are_pinned(tmp_path):
    ws = tmp_path / "ws"
    ws.mkdir()
    _prove_and_endorse(ws)
    assert run(*_verify_args(ws, ws / "out")) == 0
    written = {
        p.relative_to(ws).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(ws.rglob("*"))
        if p.is_file()
    }
    assert written == CLI_OUTPUT_SHA256


@pytest.mark.parametrize(("path", "new"), [c[1:] for c in QUOTE_FIELD_CASES], ids=[c[0] for c in QUOTE_FIELD_CASES])
def test_verify_malformed_quote_field_exits_2(sixrow_files, capsys, tmp_path, path, new):
    from lam.hashcore import canonicalize

    bundle_value = parse_canonical((sixrow_files / "bundle.json").read_bytes())
    message = edit_envelope(bundle_value["envelopes"][0], path, new)
    bundle = tmp_path / "bundle.json"
    bundle.write_bytes(canonicalize(bundle_value))
    code = run(
        "verify", "--bundle", str(bundle), "--certstore", str(sixrow_files / "certifications.json"),
        "--roots", str(sixrow_files / "trust.json"), "--out", str(tmp_path / "cards"),
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: envelope 0: {message}: {bundle}\n"
    assert not (tmp_path / "cards").exists()


# --- a repeated object key is refused in every file lam reads -----------------


def _repeat_key(source: Path, key: str, forged, out: Path) -> Path:
    """Write `source` to out/<its name> with `"key":<forged>,` just before its
    first `"key":`, so that a reader keeping a repeated key's last value
    would see the genuine one; the path written."""
    data = source.read_bytes()
    marker = json.dumps(key).encode() + b":"
    i = data.index(marker)
    out.mkdir()
    path = out / source.name
    path.write_bytes(data[:i] + marker + json.dumps(forged).encode() + b"," + data[i:])
    return path


def _canonical_file(path: Path, value) -> Path:
    path.write_bytes(canonicalize(value))
    return path


def _endorser_workspace(tmp: Path) -> str:
    ws = tmp / "endorser-ws"
    assert run("keygen", "endorser", "--endorser-id", "acme", "--seed", "cli-end", "-w", str(ws)) == 0
    return str(ws)


# (id, the genuine file from the workspace, the model file and a fresh
# directory; the repeated key and its forged first value; the argv that reads
# the forged file, with every output in the fresh directory)
REPEATED_KEY_CASES = [
    (
        "config", lambda ws, model, tmp: ws / "config.json", "epochs", 1,
        lambda ws, model, tmp, path: [
            "attest", "train", "--data", str(ws / "train.csv"), "--config", str(path),
            "--model-out", str(tmp / "model.json"), "--out", str(tmp / "att"), "-w", str(ws),
        ],
    ),
    (
        "model", lambda ws, model, tmp: model, "arch", [2, 2],
        lambda ws, model, tmp, path: [
            "attest", "accuracy", "--model", str(path), "--data", str(ws / "test.csv"),
            "--out", str(tmp / "att"), "-w", str(ws),
        ],
    ),
    (
        "inference-input", lambda ws, model, tmp: ws / "input.json", "features", [0.0, 0.0],
        lambda ws, model, tmp, path: [
            "attest", "inference", "--model", str(model), "--input", str(path),
            "--record-out", str(tmp / "record.json"), "--out", str(tmp / "att"), "-w", str(ws),
        ],
    ),
    (
        "trust-file", lambda ws, model, tmp: ws / "keys" / "trust.json", "manufacturer_roots", [],
        lambda ws, model, tmp, path: _verify_args(ws, tmp / "cards", roots=path),
    ),
    (
        "certification-store", lambda ws, model, tmp: ws / "certifications.json", "endorser_id", "mallory",
        lambda ws, model, tmp, path: _verify_args(ws, tmp / "cards", certstore=path),
    ),
    (
        "bundle", lambda ws, model, tmp: ws / "bundle.json", "name", "forged",
        lambda ws, model, tmp, path: _verify_args(ws, tmp / "cards", bundle=path),
    ),
    (
        "envelope", lambda ws, model, tmp: min((ws / "attestations").iterdir()), "payload_b64", "AAAA",
        lambda ws, model, tmp, path: ["bundle", str(path), "--out", str(tmp / "bundle.json")],
    ),
    (
        "external-certificate", lambda ws, model, tmp: min((ws / "certificates").iterdir()), "name", "forged",
        lambda ws, model, tmp, path: ["bundle", str(path), "--out", str(tmp / "bundle.json")],
    ),
    (
        "claims", lambda ws, model, tmp: _canonical_file(tmp / "claims.json", {"license": "cc-by-4.0"}),
        "license", "proprietary",
        lambda ws, model, tmp, path: [
            "endorse", "dataset", "ab" * 32, "--name", "claimed", "--endorser", "acme",
            "--claims", str(path), "-w", _endorser_workspace(tmp),
        ],
    ),
    (
        "template", lambda ws, model, tmp: _canonical_file(tmp / "template.json", builtin_template("AccAtt")),
        "att_type", "PoT",
        lambda ws, model, tmp, path: [
            "endorse", "enclave", "--endorser", "acme", "--measurement", "ab" * 32,
            "--template", str(path), "-w", _endorser_workspace(tmp),
        ],
    ),
]


@pytest.mark.parametrize(
    ("source", "key", "forged", "argv"), [c[1:] for c in REPEATED_KEY_CASES], ids=[c[0] for c in REPEATED_KEY_CASES]
)
def test_a_repeated_object_key_exits_2(cli_ws, capsys, tmp_path, source, key, forged, argv):
    """A file whose repeated key ends on its genuine value is refused, naming
    the key, and nothing is written: keeping the last value would accept a
    file that a first-key-wins reader reads differently."""
    ws, model = cli_ws["ws"], Path(cli_ws["model"])
    path = _repeat_key(source(ws, model, tmp_path), key, forged, tmp_path / "forged")
    args = argv(ws, model, tmp_path, path)
    written = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    code = run(*args)
    assert capsys.readouterr().err == f"error: repeated object key {key!r} at /: {path}\n"
    assert code == 2
    assert sorted(tmp_path.rglob("*")) == written


# --- every error in a file lam reads names that file, once ---------------------


def _edited(source: Path, edit, path: Path) -> Path:
    """Write the value of the canonical JSON file `source`, changed in place
    by `edit`, to `path`; the path written."""
    value = parse_canonical(source.read_bytes())
    edit(value)
    return _canonical_file(path, value)


def _written(path: Path, content: bytes) -> Path:
    path.write_bytes(content)
    return path


def _platform_certificate(tmp: Path) -> Path:
    """The platform certificate of a new workspace, given a pubkey that is
    no key."""
    ws = tmp / "platform-ws"
    assert run("keygen", "root", "--seed", "s", "-w", str(ws)) == 0
    assert run("keygen", "platform", "--platform-id", "p1", "--seed", "p", "-w", str(ws)) == 0
    cert = ws / "keys" / "platform-p1.cert.json"
    return _edited(cert, lambda c: c.update(pubkey=1), cert)


# (id, the malformed file written to a fresh directory given the workspace,
# its model file and that directory; the argv that reads the file, with every
# output in the fresh directory)
FILE_KIND_CASES = [
    (
        "config", lambda ws, model, tmp: _edited(ws / "config.json", lambda c: c.update(epochs="x"), tmp / "c.json"),
        lambda ws, model, tmp, path: [
            "attest", "train", "--data", str(ws / "train.csv"), "--config", str(path),
            "--model-out", str(tmp / "model.json"), "--out", str(tmp / "att"), "-w", str(ws),
        ],
    ),
    (
        "model", lambda ws, model, tmp: _edited(model, lambda m: m.update(arch="x"), tmp / "model.json"),
        lambda ws, model, tmp, path: [
            "attest", "accuracy", "--model", str(path), "--data", str(ws / "test.csv"),
            "--out", str(tmp / "att"), "-w", str(ws),
        ],
    ),
    (
        "csv", lambda ws, model, tmp: _written(tmp / "test.csv", b"f1,f2,label,sensitive\n0.5,x,0,1\n"),
        lambda ws, model, tmp, path: [
            "attest", "accuracy", "--model", str(model), "--data", str(path), "--out", str(tmp / "att"), "-w", str(ws),
        ],
    ),
    (
        "inference-input", lambda ws, model, tmp: _written(tmp / "input.json", b'{"features":[null]}'),
        lambda ws, model, tmp, path: [
            "attest", "inference", "--model", str(model), "--input", str(path),
            "--record-out", str(tmp / "record.json"), "--out", str(tmp / "att"), "-w", str(ws),
        ],
    ),
    (
        "platform-certificate", lambda ws, model, tmp: _platform_certificate(tmp),
        lambda ws, model, tmp, path: ["attest", "dist", "--data", str(ws / "train.csv"), "-w", str(path.parents[1])],
    ),
    (
        "template", lambda ws, model, tmp: _canonical_file(tmp / "template.json", {"a": [1]}),
        lambda ws, model, tmp, path: [
            "endorse", "enclave", "--endorser", "acme", "--measurement", "ab" * 32,
            "--template", str(path), "-w", _endorser_workspace(tmp),
        ],
    ),
    (
        "claims", lambda ws, model, tmp: _written(tmp / "claims.json", b'{"a":NaN}'),
        lambda ws, model, tmp, path: [
            "endorse", "dataset", "ab" * 32, "--name", "claimed", "--endorser", "acme",
            "--claims", str(path), "-w", _endorser_workspace(tmp),
        ],
    ),
    (
        "trust-file", lambda ws, model, tmp: _canonical_file(tmp / "trust.json", {"manufacturer_roots": 5}),
        lambda ws, model, tmp, path: _verify_args(ws, tmp / "cards", roots=path),
    ),
    (
        "store-parse", lambda ws, model, tmp: _canonical_file(tmp / "certifications.json", {}),
        lambda ws, model, tmp, path: _verify_args(ws, tmp / "cards", certstore=path),
    ),
    (
        "store-signature",
        lambda ws, model, tmp: _edited(
            ws / "certifications.json", lambda s: s[0].update(signature="00" * 64), tmp / "certifications.json"
        ),
        lambda ws, model, tmp, path: _verify_args(ws, tmp / "cards", certstore=path),
    ),
    (
        "envelope",
        lambda ws, model, tmp: _edited(
            min((ws / "attestations").iterdir()), lambda e: e.update(version=99), tmp / "envelope.json"
        ),
        lambda ws, model, tmp, path: ["bundle", str(path), "--out", str(tmp / "bundle.json")],
    ),
    (
        "external-certificate",
        lambda ws, model, tmp: _edited(
            min((ws / "certificates").iterdir()), lambda c: c.update(name=5), tmp / "certificate.json"
        ),
        lambda ws, model, tmp, path: ["bundle", str(path), "--out", str(tmp / "bundle.json")],
    ),
    (
        "bundle",
        lambda ws, model, tmp: _edited(ws / "bundle.json", lambda b: b["envelopes"][0].pop("quote"), tmp / "b.json"),
        lambda ws, model, tmp, path: _verify_args(ws, tmp / "cards", bundle=path),
    ),
]


@pytest.mark.parametrize(("source", "argv"), [c[1:] for c in FILE_KIND_CASES], ids=[c[0] for c in FILE_KIND_CASES])
def test_an_error_in_any_file_names_it_once(cli_ws, capsys, tmp_path, source, argv):
    """One malformed file of each kind lam reads exits 2 with one error
    line that ends in the file's path, which it names once, and writes
    nothing."""
    ws, model = cli_ws["ws"], Path(cli_ws["model"])
    path = source(ws, model, tmp_path)
    args = argv(ws, model, tmp_path, path)
    written = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    code = run(*args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.endswith(f": {path}\n") and err.count("\n") == 1
    assert err.count(str(path)) == 1
    assert sorted(tmp_path.rglob("*")) == written


def test_an_error_in_an_argument_does_not_name_the_file_read_with_it(tmp_path, capsys):
    """Only an error in the claims file names it: a --name that canonical
    JSON cannot hold (undecodable bytes in argv) is refused without the
    claims file's path."""
    ws = _endorser_workspace(tmp_path)
    claims = _canonical_file(tmp_path / "claims.json", {"source": "synthetic"})
    capsys.readouterr()
    code = run(
        "endorse", "dataset", "ab" * 32, "--name", "bad\udcff", "--endorser", "acme", "--claims", str(claims), "-w", ws
    )
    assert code == 2
    assert capsys.readouterr().err == "error: string holds a lone surrogate, which UTF-8 cannot encode at /name\n"
    assert not (Path(ws) / "certificates").exists()


@pytest.mark.parametrize("role", ["root", "platform", "endorser"])
def test_keygen_empty_seed_exits_2_for_every_role(tmp_path, capsys, role):
    if role == "platform":
        assert run("keygen", "root", "--seed", "s", "-w", str(tmp_path)) == 0
    ids = {"root": [], "platform": ["--platform-id", "p1"], "endorser": ["--endorser-id", "acme"]}[role]
    capsys.readouterr()
    assert run("keygen", role, *ids, "--seed", "", "-w", str(tmp_path)) == 2
    assert capsys.readouterr().err == "error: key seed must be nonempty\n"
    assert not list(tmp_path.glob(f"keys/{role}*"))


@pytest.mark.parametrize(
    "case", ["verify-out-file", "bundle-out-dir", "bundle-out-under-file", "attest-out-file", "keygen-workspace-file"]
)
def test_a_file_that_cannot_be_written_exits_2_naming_it(cli_ws, capsys, tmp_path, case):
    ws = cli_ws["ws"]
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    envelope = str(next((ws / "attestations").glob("dist-*.envelope.json")))
    argv, target = {
        "verify-out-file": (_verify_args(ws, blocker), blocker / "chain_report.json"),
        "bundle-out-dir": (["bundle", envelope, "--out", str(tmp_path)], tmp_path),
        "bundle-out-under-file": (["bundle", envelope, "--out", str(blocker / "x.json")], blocker / "x.json"),
        "attest-out-file": (
            ["attest", "dist", "--data", str(ws / "train.csv"), "--out", str(blocker), "-w", str(ws)],
            blocker / f"dist-marginal-{cli_ws['digests']['train'][:12]}.envelope.json",
        ),
        "keygen-workspace-file": (["keygen", "root", "--seed", "s", "-w", str(blocker)], blocker / "keys" / "root.key"),
    }[case]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert blocker.read_text() == "not a directory"
