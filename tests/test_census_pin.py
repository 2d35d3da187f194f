"""Byte pin for the census prover path: a small census split is written as
CSV, loaded back, trained on, and taken through all seven prover
attestations. The SHA-256 of every output is fixed, so a change to dataset
loading, quantization, training, FGSM or the measurers that moves a single
byte fails here without the full-size benchmark. Two training setups are
pinned: Adam with tanh, and SGD with relu on batches that do not divide the
row count."""

from __future__ import annotations

import hashlib
from dataclasses import replace

from lam.backend import create_root, provision_platform
from lam.engine.data import Architecture, Dataset, TrainingConfig
from lam.engine.synth import census_split
from lam.fragments import default_enclaves
from lam.measurers import (
    attest_accuracy,
    attest_distribution,
    attest_fairness,
    attest_robustness,
    attest_training,
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

SGD_RELU_CONFIG = replace(
    CONFIG,
    architecture=replace(CONFIG.architecture, activation="relu"),
    learning_rate="0.050000",
    batch_size=64,
    optimizer="sgd",
)

# Recorded before the optimizer moved onto flat parameter buffers; that
# change kept every byte.
SGD_RELU_OUTPUT_SHA256 = {
    **CENSUS_OUTPUT_SHA256,
    "model.json": "ec1e99181f2639cf420e46b6679067d0bfb434a38c8450ca029ee4e0303ccbfc",
    "robust.csv": "e0de04429350f5ff698c295527013e34dc0cb3b3c0f26905fa747d845c3c1452",
    "payload/pot": "f918f96c54c5eeb58914aae87f2402c2eb66cb1b7e8f5a596f301af1468790c1",
    "payload/acc": "406f1843d1b53804b1c6e6870628b652e38f9dd98224095a059a6bce6f05668d",
    "payload/fair": "47760df970431962ba48ec36ea532483795fdd7b8133d0f45604901387278ad5",
    "payload/robgen": "d91ffed210511cbb4bf60d709c8db29109319b59adaba8bc2346807ef56a63d3",
    "payload/robacc": "4bb80e1f202f4688dc6207b3f074ae89b4d3cd9ba8ff3378d8d687cfff69c45b",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def census_outputs(config: TrainingConfig = CONFIG) -> dict[str, str]:
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
    model, envelopes["pot"] = attest_training(train, config, enclave=enclaves["training"], platform=platform)
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


def test_census_sgd_relu_output_bytes_are_pinned():
    assert census_outputs(SGD_RELU_CONFIG) == SGD_RELU_OUTPUT_SHA256
