from __future__ import annotations

import numpy as np
import pytest

import engine_oracle as oracle
from lam.engine.data import Architecture, Dataset, TrainingConfig
from lam.engine.model import Model, predict, predicted_classes, train
from lam.engine.synth import linearly_separable
from lam.errors import ConfigError, DomainError


def test_train_deterministic_bytes(fixture_a, small_config):
    m1 = train(fixture_a, small_config)
    m2 = train(fixture_a, small_config)
    assert m1.canonical_bytes == m2.canonical_bytes
    assert m1.digest == m2.digest


def test_train_seed_changes_model(fixture_a, small_config):
    m1 = train(fixture_a, small_config)
    other = TrainingConfig(
        architecture=small_config.architecture,
        epochs=small_config.epochs,
        learning_rate=small_config.learning_rate,
        batch_size=small_config.batch_size,
        optimizer=small_config.optimizer,
        rng_seed=small_config.rng_seed + 1,
    )
    assert train(fixture_a, other).digest != m1.digest


def test_train_preconditions(fixture_a, small_config):
    empty = Dataset.from_rows(("f1", "f2"), [], [], [])
    with pytest.raises(DomainError):
        train(empty, small_config)
    wrong_arity = Dataset.from_rows(("f1",), [[1.0]], [0], [0])
    with pytest.raises(ConfigError):
        train(wrong_arity, small_config)
    with pytest.raises(ConfigError):
        TrainingConfig(
            architecture=small_config.architecture,
            epochs=0,
            learning_rate="0.100000",
            batch_size=32,
            optimizer="sgd",
            rng_seed=1,
        )


def test_separable_fixture_reaches_95_percent(small_config):
    # The fixture was verified learnable with an independent reference
    # (logistic regression and an off-the-shelf MLP both reach 1.0).
    ds = linearly_separable(200, margin=1.0, seed=7)
    model = train(ds, small_config)
    preds = predicted_classes(model, ds.features)
    assert (preds == ds.labels).mean() >= 0.95


def test_adam_optimizer_trains(fixture_a):
    cfg = TrainingConfig(
        architecture=Architecture(num_features=2, num_classes=2, hidden=(4,), activation="tanh"),
        epochs=50,
        learning_rate="0.010000",
        batch_size=4,
        optimizer="adam",
        rng_seed=3,
    )
    ds = linearly_separable(100, margin=1.0, seed=11)
    model = train(ds, cfg)
    assert (predicted_classes(model, ds.features) == ds.labels).mean() >= 0.95
    assert train(ds, cfg).digest == model.digest


def test_model_file_round_trip(fixture_a, small_config, tmp_path):
    model = train(fixture_a, small_config)
    path = tmp_path / "model.json"
    model.write_json(path)
    restored = Model.from_json_file(path)
    assert restored.canonical_bytes == model.canonical_bytes
    assert restored.digest == model.digest
    # quantized in-memory params equal the file round trip exactly
    for a, b in zip(restored.weights, model.weights):
        assert np.array_equal(a, b)


def test_forward_matches_pure_python_oracle(small_config):
    ds = linearly_separable(50, margin=1.0, seed=5)
    model = train(ds, small_config)
    for i in range(10):
        feats = [float(v) for v in ds.features[i]]
        record = predict(model, feats)
        assert record.predicted_class == oracle.predicted_class(model, feats)
        assert list(record.scores) == [format(s, ".6f") for s in oracle.scores(model, feats)]


def test_predict_tie_break_all_zero_weights(constant_model):
    record = predict(constant_model, [3.0, -2.0])
    assert record.predicted_class == 0
    assert record.scores == ("0.500000", "0.500000")


def test_predict_deterministic(pattern_model):
    r1 = predict(pattern_model, [1.0, 0.5])
    r2 = predict(pattern_model, [1.0, 0.5])
    assert r1 == r2


def test_predict_hand_built_identity_model():
    # Identity-like weights on 2 features: logits equal the input, so an
    # input favoring the second coordinate lands in class 1. Scores frozen
    # from an independent softmax computation of (0.25, 0.75).
    arch = Architecture(num_features=2, num_classes=2, hidden=(), activation="tanh")
    model = Model(
        architecture=arch,
        weights=(np.eye(2, dtype=np.float64),),
        biases=(np.zeros(2, dtype=np.float64),),
    )
    record = predict(model, [0.25, 0.75])
    assert record.predicted_class == 1
    assert record.scores == ("0.377541", "0.622459")


def test_predict_arity_error(pattern_model):
    with pytest.raises(DomainError):
        predict(pattern_model, [1.0])


def test_train_rejects_out_of_range_labels(small_config):
    ds = Dataset.from_rows(("f1", "f2"), [[0.0, 0.0], [1.0, 1.0]], [0, 2], [0, 1])
    with pytest.raises(ConfigError):
        train(ds, small_config)
