"""Byte pin for the census prover path: a small census split is written as
CSV, loaded back, trained on, and taken through all seven prover
attestations. The SHA-256 of every output is fixed, so a change to dataset
loading, quantization, training, FGSM or the measurers that moves a single
byte fails here without the full-size benchmark."""

from __future__ import annotations

import hashlib

from lam.backend import create_root, provision_platform
from lam.engine.data import Architecture, Dataset, TrainingConfig
from lam.engine.synth import census_split
from lam.measurers import (
    attest_accuracy,
    attest_distribution,
    attest_fairness,
    attest_robustness,
    attest_training,
    default_enclaves,
)

CONFIG = TrainingConfig(
    architecture=Architecture(num_features=12, num_classes=2, hidden=(32, 64, 32), activation="tanh"),
    epochs=2,
    learning_rate="0.001000",
    batch_size=256,
    optimizer="adam",
    rng_seed=1,
)

# Recorded before the single-formatting number path replaced the Decimal
# round trips; that change kept every byte.
CENSUS_OUTPUT_SHA256 = {
    "train.csv": "1683ddcb423b1046f93cea6370b61f99361d7f31e4c869170ab86cc9f8bc3b93",
    "test.csv": "b5f5730cfe8931605cb326620c9d7d75edaec877bf4c4dff6c7848fe4e56eb89",
    "model.json": "9fc34ebefb36831e25503b70084f030869c2b2deee9b1b55d8664af10e10dd83",
    "robust.csv": "8c7d536d3d20d8645860cbc28229bab412640736b09f04c52d2dc5773e287125",
    "payload/marginal": "d9e44eca37cb43aac136fc0a248403067c5d259abf32e26db13c802912a970e0",
    "payload/conditional": "73bea5f60c6c9183f9d7bea8825d6528c9ad92cd448645e20c82fcff53495a6c",
    "payload/pot": "98e9502409bb09c8976ada0958b1843613a4d12f6cb76b1db73e45d754a89c60",
    "payload/acc": "a3189c752be4f34c6985b3e78999ce5e1c9e72f0efb6942bd86abd6fb730e937",
    "payload/fair": "b522d4c0b8e0771238ba6b8b84946e1230a8cae39898d2bd1009a77ac6c16268",
    "payload/robgen": "0aea4c0114042e790d13461eea16dcdd03d010030e63c9fbdbe8cdf38821ae0f",
    "payload/robacc": "3ba1d631579ab7aa4d829b86e0a537bd165039877e08ce572ac2b98c5a71893d",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def census_outputs() -> dict[str, str]:
    train_ds, test_ds = census_split(300, 100, seed=7)
    train = Dataset.from_csv_bytes(train_ds.canonical_bytes)
    test = Dataset.from_csv_bytes(test_ds.canonical_bytes)
    for split, loaded in ((train_ds, train), (test_ds, test)):
        assert loaded.canonical_bytes == split.canonical_bytes == Dataset.canonical_bytes.func(split)

    root = create_root(b"census-pin-root")
    platform = provision_platform(root, "census-pin-platform", seed=b"census-pin-platform")
    enclaves = default_enclaves()
    envelopes = {
        kind: attest_distribution(train, kind, enclave=enclaves["dataset"], platform=platform)
        for kind in ("marginal", "conditional")
    }
    model, envelopes["pot"] = attest_training(train, CONFIG, enclave=enclaves["training"], platform=platform)
    envelopes["acc"] = attest_accuracy(model, test, enclave=enclaves["metric"], platform=platform)
    envelopes["fair"] = attest_fairness(model, test, enclave=enclaves["metric"], platform=platform)
    d_rob, envelopes["robgen"], envelopes["robacc"] = attest_robustness(
        model, test, "0.100000", enclave=enclaves["metric"], platform=platform
    )
    outputs = {
        "train.csv": train.canonical_bytes,
        "test.csv": test.canonical_bytes,
        "model.json": model.canonical_bytes,
        "robust.csv": d_rob.canonical_bytes,
        **{f"payload/{name}": env.payload for name, env in envelopes.items()},
    }
    return {name: _sha256(data) for name, data in outputs.items()}


def test_census_prover_output_bytes_are_pinned():
    assert census_outputs() == CENSUS_OUTPUT_SHA256
