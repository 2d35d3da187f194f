"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

from __future__ import annotations

import functools
import subprocess
import sys
import time
from dataclasses import replace

import pytest
import yaml

import engine_oracle as oracle
from lam.backend import issue_quote
from lam.cards import assemble_cards
from lam.certs import CertificationStore
from lam.engine.data import Architecture, Dataset, TrainingConfig
from lam.engine.fgsm import fgsm_dataset
from lam.engine.metrics import accuracy, demographic_parity, distribution, robust_accuracy
from lam.engine.model import train
from lam.engine.synth import census_split
from lam.fragments import AttestationEnvelope
from lam.hashcore import hash_bytes
from lam.measurers import (
    attest_accuracy,
    attest_distribution,
    attest_inference,
    attest_robustness,
    attest_training,
)
from lam.verifier import resolve_chains, verify_bundle, verify_envelope
from pipeline import default_config, separable_pipeline, sixrow_pipeline


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def sixrow():
    return sixrow_pipeline()


@pytest.fixture(scope="module")
def separable():
    return separable_pipeline()


def _verify_all(pipe):
    fragments = []
    for name, env in pipe.envelopes.items():
        verdict = verify_envelope(env, pipe.store, pipe.roots)
        assert verdict.accepted, (name, verdict.reason, verdict.detail)
        fragments.append(verdict.fragment)
    return fragments


def _mutations(pipe):
    """Yield (label, envelope, store, expected reason) single-field mutations."""
    empty_store = CertificationStore()
    wrong_measurement = pipe.enclaves["inference"].measurement

    for name, env in pipe.envelopes.items():
        q = env.quote

        payload = bytearray(env.payload)
        payload[len(payload) // 2] ^= 1
        yield (f"{name}:payload-byte", AttestationEnvelope(bytes(payload), q), pipe.store,
               "payload-binding-mismatch")

        yield (f"{name}:report-data", AttestationEnvelope(env.payload, replace(q, report_data=hash_bytes(b"spoof"))),
               pipe.store, "bad-quote")

        sig = bytearray(q.signature)
        sig[7] ^= 0xFF
        yield (f"{name}:signature", AttestationEnvelope(env.payload, replace(q, signature=bytes(sig))),
               pipe.store, "bad-quote")

        yield (f"{name}:measurement-spoof",
               AttestationEnvelope(env.payload, replace(q, enclave_measurement=hash_bytes(b"other enclave"))),
               pipe.store, "bad-quote")

        yield (f"{name}:debug-flag", AttestationEnvelope(env.payload, replace(q, debug=True)), pipe.store,
               "bad-quote")

        yield (f"{name}:certification-removed", env, empty_store, "unknown-enclave")

        if name != "io":  # wrong-enclave re-quote; io already lives on that identity
            requoted = issue_quote(pipe.platform, wrong_measurement, hash_bytes(env.payload))
            yield (f"{name}:wrong-enclave-identity", AttestationEnvelope(env.payload, requoted), pipe.store,
                   "template-mismatch")

    env = pipe.envelopes["acc"]
    float_payload = b'{"att_type":"AccAtt","value":0.5}'
    quote = issue_quote(pipe.platform, pipe.enclaves["metric"].measurement, hash_bytes(float_payload))
    yield ("float-payload", AttestationEnvelope(float_payload, quote), pipe.store, "template-mismatch")

    value = env.payload_value()
    scrambled = __import__("json").dumps(dict(reversed(list(value.items()))), separators=(",", ":")).encode()
    quote = issue_quote(pipe.platform, pipe.enclaves["metric"].measurement, hash_bytes(scrambled))
    yield ("noncanonical-payload", AttestationEnvelope(scrambled, quote), pipe.store, "template-mismatch")


@criterion(1, "round-trip soundness + mutation suite")
def test_criterion_1_round_trip_soundness(sixrow, separable):
    started = time.monotonic()
    for pipe in (sixrow, separable):
        _verify_all(pipe)

    count = 0
    for label, envelope, store, expected in _mutations(sixrow):
        verdict = verify_envelope(envelope, store, sixrow.roots)
        assert not verdict.accepted, label
        assert verdict.reason == expected, (label, verdict.reason, expected)
        count += 1
    assert count >= 50, count
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    print(f"  ({count} mutations, {elapsed:.2f}s)")


@criterion(2, "proof-of-training determinism across independent runs")
def test_criterion_2_pot_determinism(tmp_path):
    from lam.engine.synth import linearly_separable

    train_ds = linearly_separable(200, margin=1.0, seed=7)
    cfg = default_config()
    (tmp_path / "train.csv").write_bytes(train_ds.canonical_bytes)
    (tmp_path / "config.json").write_bytes(cfg.canonical_bytes)

    outputs = []
    elapsed = 0.0
    for run in ("one", "two"):
        ws = tmp_path / run
        for argv in (
            ["keygen", "root", "--seed", "accept-root", "-w", str(ws)],
            ["keygen", "platform", "--platform-id", "p", "--seed", "accept-plat", "-w", str(ws)],
        ):
            subprocess.run([sys.executable, "-m", "lam", *argv], check=True, capture_output=True)
        started = time.monotonic()
        proc = subprocess.run(
            [
                sys.executable, "-m", "lam", "attest", "train",
                "--data", str(tmp_path / "train.csv"), "--config", str(tmp_path / "config.json"),
                "--model-out", str(ws / "model.json"), "-w", str(ws),
            ],
            check=True,
            capture_output=True,
        )
        elapsed += time.monotonic() - started
        envelope_path = next((ws / "attestations").glob("pot-*.envelope.json"))
        outputs.append((
            (ws / "model.json").read_bytes(),
            envelope_path.read_bytes(),
            proc.stdout,
        ))

    assert outputs[0][0] == outputs[1][0], "model files differ between independent runs"
    assert outputs[0][1] == outputs[1][1], "PoT envelopes differ between independent runs"
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    print(f"  (two subprocess runs, {elapsed:.2f}s)")


@criterion(3, "metric oracle equivalence")
def test_criterion_3_metric_oracles(sixrow):
    from test_metrics import _random_dataset, _random_model
    from lam.engine.rng import Xoshiro256StarStar

    rng = Xoshiro256StarStar(31415926)
    for i in range(20):
        ds = _random_dataset(rng)
        model = _random_model(rng, ds.num_features)

        got = accuracy(model, ds)
        want_num, want_den, want_val = oracle.accuracy(model, ds)
        assert (got["numerator"], got["denominator"], got["value"]) == (want_num, want_den, want_val), i

        assert demographic_parity(model, ds)["value"] == oracle.demographic_parity(model, ds), i

        marg = distribution(ds, "marginal")
        counts, ratios = oracle.marginal_distribution(ds)
        assert marg["counts"] == counts and marg["ratios"] == ratios, i

        cond = distribution(ds, "conditional")
        assert {l: e["counts"] for l, e in cond["by_label"].items()} == oracle.conditional_distribution(ds), i

        d_rob = fgsm_dataset(model, ds, "0.050000")
        got_rob = robust_accuracy(model, d_rob, epsilon="0.050000")
        rob_num, rob_den, rob_val = oracle.accuracy(model, d_rob)
        assert (got_rob["numerator"], got_rob["denominator"], got_rob["value"]) == (rob_num, rob_den, rob_val), i

    # frozen fixture expectations (derived by hand enumeration)
    acc_metric = sixrow.envelopes["acc"]  # pipeline uses the trained model; fixture values below
    from conftest import FIXTURE_A_F1, FIXTURE_A_F2, FIXTURE_A_Y, FIXTURE_A_Z
    import numpy as np
    from lam.engine.model import Model

    fixture = Dataset.from_rows(
        ("f1", "f2"), list(map(list, zip(FIXTURE_A_F1, FIXTURE_A_F2))), FIXTURE_A_Y, FIXTURE_A_Z
    )
    arch = Architecture(num_features=2, num_classes=2, hidden=(), activation="tanh")
    constant = Model(arch, (np.zeros((2, 2)),), (np.zeros(2),))
    pattern = Model(arch, (np.array([[-5.0, 5.0], [0.0, 0.0]]),), (np.zeros(2),))
    got = accuracy(constant, fixture)
    assert (got["numerator"], got["denominator"], got["value"]) == (4, 6, "0.666667")
    assert demographic_parity(pattern, fixture)["value"] == "0.333333"
    assert distribution(fixture, "marginal")["counts"] == {"0": 3, "1": 3}


@criterion(4, "FGSM correctness")
def test_criterion_4_fgsm(sixrow):
    from decimal import Decimal

    from lam.engine.fgsm import input_gradients
    from lam.engine.model import Model
    from lam.engine.rng import Xoshiro256StarStar
    import numpy as np

    ds = sixrow.test_ds
    model = sixrow.model
    eps = "0.125000"
    d_rob = fgsm_dataset(model, ds, eps)
    before = ds.canonical_bytes.decode().strip("\n").split("\n")[1:]
    after = d_rob.canonical_bytes.decode().strip("\n").split("\n")[1:]
    eps_dec = Decimal(eps)
    for line_b, line_a in zip(before, after):
        for cell_b, cell_a in zip(line_b.split(",")[:-2], line_a.split(",")[:-2]):
            delta = abs(Decimal(cell_a) - Decimal(cell_b))
            assert delta in (Decimal(0), eps_dec), (cell_b, cell_a)

    zero = fgsm_dataset(model, ds, "0.000000")
    assert robust_accuracy(model, zero, epsilon="0.000000")["value"] == accuracy(model, ds)["value"]

    rng = Xoshiro256StarStar(271828)
    for i in range(10):
        k = 1 + rng.randbelow(4)
        classes = 2 + rng.randbelow(2)
        hidden = (1 + rng.randbelow(4),) if rng.randbelow(2) else ()
        arch = Architecture(num_features=k, num_classes=classes, hidden=hidden, activation="tanh")
        widths = arch.layer_widths
        weights = []
        biases = []
        for j in range(len(widths) - 1):
            weights.append(
                np.array([rng.uniform_in(-1.0, 1.0) for _ in range(widths[j] * widths[j + 1])]).reshape(
                    widths[j], widths[j + 1]
                )
            )
            biases.append(np.array([rng.uniform_in(-0.3, 0.3) for _ in range(widths[j + 1])]))
        model_i = Model.from_float_params(arch, weights, biases)
        feats = [rng.uniform_in(-1.0, 1.0) for _ in range(k)]
        label = rng.randbelow(classes)
        analytic = input_gradients(model_i, np.array([feats]), np.array([label]))[0]
        fd = oracle.input_gradient_fd(model_i, feats, label, h=1e-3)
        for a, f in zip(analytic, fd):
            if abs(f) >= 1e-6:
                assert abs(a - f) / abs(f) <= 1e-4, (i, a, f)
            else:
                assert abs(a - f) <= 1e-8, (i, a, f)


@criterion(5, "template matcher conformance")
def test_criterion_5_template_conformance():
    from test_template import CASES, INVALID_TEMPLATES
    from lam.errors import InvalidCertificationError
    from lam.verifier import match_template

    assert len(CASES) >= 25
    for name, template, payload, expected in CASES:
        assert match_template(template, payload).matched is expected, name
    for name, template in INVALID_TEMPLATES:
        with pytest.raises(InvalidCertificationError):
            match_template(template, {"payload": 1})
    # the canonical wildcard / pin / prohibition trio, re-stated explicitly
    assert match_template(None, {"anything": [1, 2]}).matched
    assert match_template(
        {"type": "accuracy", "value": None}, {"type": "accuracy", "value": "0.666667"}
    ).matched
    with pytest.raises(InvalidCertificationError):
        match_template({"v": 0.5}, {"v": "0.500000"})
    # dictionary key-set equality decision
    assert not match_template({"a": None}, {"a": 1, "b": 2}).matched
    assert not match_template({"a": None, "b": None}, {"a": 1}).matched


@criterion(6, "chain resolution and single-link breakages")
def test_criterion_6_chains(sixrow):
    pipe = sixrow
    fragments = _verify_all(pipe)
    report = resolve_chains(fragments, pipe.externals)
    m = pipe.model.digest.hex
    assert report.broken_edges(m) == set()
    assert report.models[m]["complete"]
    assert "conclusion" in report.models[m]

    other_model = train(pipe.train_ds, replace(pipe.config, rng_seed=777))

    def frags_for(drop=frozenset(), extra=()):
        envs = [env for name, env in pipe.envelopes.items() if name not in drop]
        envs.extend(extra)
        out = []
        for env in envs:
            verdict = verify_envelope(env, pipe.store, pipe.roots)
            assert verdict.accepted
            out.append(verdict.fragment)
        return out

    breakages = {
        "accuracy": frags_for(
            drop={"acc"},
            extra=[attest_accuracy(other_model, pipe.test_ds, enclave=pipe.enclaves["metric"], platform=pipe.platform)],
        ),
        "robustness_generation": frags_for(drop={"robgen"}),
        "training_distribution": frags_for(
            drop={"dist-marginal", "dist-conditional"},
            extra=[attest_distribution(pipe.test_ds, "marginal", enclave=pipe.enclaves["dataset"], platform=pipe.platform)],
        ),
        "pot": frags_for(drop={"pot"}),
        "robustness_source": frags_for(
            drop={"robgen", "robacc"},
            extra=list(
                attest_robustness(
                    pipe.model, pipe.train_ds, "0.100000", enclave=pipe.enclaves["metric"], platform=pipe.platform
                )[1:]
            ),
        ),
        "inference": frags_for(
            drop={"io"},
            extra=[attest_inference(other_model, [1.0, 0.5], enclave=pipe.enclaves["inference"], platform=pipe.platform)[1]],
        ),
    }
    assert len(breakages) == 6
    for expected_edge, frags in breakages.items():
        broken = resolve_chains(frags, pipe.externals).broken_edges(m)
        assert broken == {expected_edge}, (expected_edge, broken)


@criterion(7, "card assembly fidelity")
def test_criterion_7_cards(sixrow):
    pipe = sixrow
    fragments = _verify_all(pipe)
    cards = {c.filename: c for c in assemble_cards(fragments, pipe.externals)}

    model_card = cards[f"card-model-{pipe.model.digest.hex[:12]}.yaml"]
    doc = yaml.safe_load(model_card.yaml_bytes())
    metrics = {
        m["type"]: m for result in doc["model-index"][0]["results"] for m in result["metrics"]
    }
    assert set(metrics) == {"accuracy", "demographic_parity", "robust_accuracy"}
    assert metrics["robust_accuracy"]["parameters"]["epsilon"] == "0.100000"
    # attested values equal the payloads' values exactly
    assert metrics["accuracy"]["value"] == pipe.envelopes["acc"].payload_value()["results"]["metrics"][0]["value"]
    assert doc["training"]["dataset"]["sha256"] == pipe.train_ds.digest.hex
    assert doc["training"]["config_sha256"] == pipe.config.digest.hex
    # every claim traces to provenance
    for card in cards.values():
        assert card.provenance
        for entry in card.provenance:
            assert entry["claims"]

    baseline = {name: yaml.safe_load(c.yaml_bytes()) for name, c in cards.items()}
    for dropped in pipe.envelopes:
        remaining_envs = [env for name, env in pipe.envelopes.items() if name != dropped]
        remaining = []
        for env in remaining_envs:
            verdict = verify_envelope(env, pipe.store, pipe.roots)
            remaining.append(verdict.fragment)
        rebuilt = {
            c.filename: yaml.safe_load(c.yaml_bytes())
            for c in assemble_cards(remaining, pipe.externals)
        }
        changed = {f for f in set(baseline) | set(rebuilt) if baseline.get(f) != rebuilt.get(f)}
        assert len(changed) == 1, (dropped, changed)


@criterion(8, "desk-scale realism band on census-style data")
def test_criterion_8_realism_band():
    started = time.monotonic()
    train_ds, test_ds = census_split(n_train=6000, n_test=2000, seed=2026)
    config = TrainingConfig(
        architecture=Architecture(num_features=12, num_classes=2, hidden=(32, 64, 32), activation="tanh"),
        epochs=10,
        learning_rate="0.001000",
        batch_size=256,
        optimizer="adam",
        rng_seed=1,
    )
    from pipeline import build_pipeline

    pipe = build_pipeline(train_ds, test_ds, config, [4.2, 4.0, 4.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    _verify_all(pipe)

    metric = pipe.envelopes["acc"].payload_value()["results"]["metrics"][0]
    band_value = float(metric["value"])
    assert 0.80 <= band_value <= 0.88, metric["value"]

    # attested value equals an independent pure-Python recomputation exactly
    want_num, want_den, want_val = oracle.accuracy(pipe.model, test_ds)
    assert metric["numerator"] == want_num
    assert metric["denominator"] == want_den
    assert metric["value"] == want_val

    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    print(f"  (test accuracy {metric['value']}, {elapsed:.1f}s)")


@criterion(9, "verification scalability and independence from training cost")
def test_criterion_9_scalability(sixrow):
    pipe = sixrow

    def verify_instance(bundle):
        result = verify_bundle(bundle, pipe.store, pipe.roots, pipe.endorser_keys)
        return (
            tuple(v.reason for v in result.envelopes),
            tuple(ok for _, ok in result.externals),
            result.report.canonical_bytes(),
            b"".join(c.yaml_bytes() for c in result.cards),
        )

    bundle = pipe.bundle()
    outputs = {verify_instance(bundle) for _ in range(100)}
    assert len(outputs) == 1, "verifier instantiations disagree"

    # verification time does not grow with the training effort behind a bundle
    for epochs in (1, 50):
        cfg = replace(pipe.config, epochs=epochs)
        model, pot = attest_training(pipe.train_ds, cfg, enclave=pipe.enclaves["training"], platform=pipe.platform)
        acc = attest_accuracy(model, pipe.test_ds, enclave=pipe.enclaves["metric"], platform=pipe.platform)
        started = time.monotonic()
        for env in (pot, acc):
            assert verify_envelope(env, pipe.store, pipe.roots).accepted
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"epochs={epochs}: {elapsed:.3f}s"
