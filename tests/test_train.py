from __future__ import annotations

from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engine_oracle as oracle
from lam.engine.data import ACTIVATIONS, OPTIMIZERS, Architecture, Dataset, TrainingConfig
from lam.engine.model import MAX_BATCH_ACTIVATIONS, MAX_ROW_PASSES, Model, predict, predicted_classes, quantized_argmax, train
from lam.engine.rng import SHUFFLE_CHUNK, Xoshiro256StarStar
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


def test_train_bounds_epochs_times_rows_before_allocating(fixture_a, small_config):
    """epochs x rows may reach MAX_ROW_PASSES and no further, refused before
    the first parameter array is made."""
    assert MAX_ROW_PASSES >= 100 * 10 * 6000  # the census config: 10 epochs over 6,000 rows
    most = MAX_ROW_PASSES // fixture_a.num_rows
    with patch("lam.engine.model._init_params", side_effect=MemoryError) as init:
        with pytest.raises(MemoryError):
            train(fixture_a, replace(small_config, epochs=most))
        for epochs in (most + 1, 10**30):
            with pytest.raises(ConfigError, match=f"^epochs x rows must be at most {MAX_ROW_PASSES}: {epochs} x "):
                train(fixture_a, replace(small_config, epochs=epochs))
    assert init.call_count == 1


def test_train_draws_the_stream_a_chunk_at_a_time(small_config):
    """Epoch orders whose draws span several chunks are drawn with no bulk
    request larger than a chunk, and train as the per-layer loop does with
    the scalar shuffle."""
    dataset = linearly_separable(40)
    config = replace(small_config, epochs=4 * SHUFFLE_CHUNK // 39, batch_size=64)
    real = Xoshiro256StarStar.next_u64_array
    with patch.object(Xoshiro256StarStar, "next_u64_array", autospec=True, side_effect=real) as requests:
        model = train(dataset, config)
    sizes = [call.args[1] for call in requests.call_args_list]
    assert sum(sizes) >= config.epochs * 39 > 3 * SHUFFLE_CHUNK
    assert max(sizes) <= SHUFFLE_CHUNK
    assert model.canonical_bytes == oracle.reference_train(dataset, config).canonical_bytes


def test_train_bounds_batch_activations_before_allocating(small_config):
    """The rows of a batch times the summed layer widths may reach
    MAX_BATCH_ACTIVATIONS and no further, refused before the first parameter
    array is made; a batch_size past the dataset counts its rows."""
    assert MAX_BATCH_ACTIVATIONS >= 100 * 256 * (12 + 32 + 64 + 32 + 2)  # the census config
    dataset = linearly_separable(200, margin=1.0, seed=7)
    rows = dataset.num_rows
    most = MAX_BATCH_ACTIVATIONS // rows

    def config(units, batch_size):
        arch = Architecture(num_features=2, num_classes=2, hidden=(units - 4,), activation="tanh")
        return replace(small_config, architecture=arch, batch_size=batch_size)

    with patch("lam.engine.model._init_params", side_effect=MemoryError) as init:
        for fits in (config(most, 10**30), config(most + 1, rows - 1)):
            with pytest.raises(MemoryError):
                train(dataset, fits)
        for batch_size in (rows, 10**30):
            with pytest.raises(
                ConfigError,
                match=rf"^batch_size x summed layer widths must be at most {MAX_BATCH_ACTIVATIONS}: "
                rf"{rows} x {most + 1} \(widest layer {most - 3}\)$",
            ):
                train(dataset, config(most + 1, batch_size))
    assert init.call_count == 2


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


def test_model_file_round_trip(fixture_a, small_config):
    model = train(fixture_a, small_config)
    restored = Model.from_json_bytes(model.canonical_bytes)
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


def _bits(values) -> list[int]:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64).ravel().tolist()


def _trained(trainer, dataset, config) -> tuple[Model, list[int]]:
    """The model `trainer` returns, and the bits of the float parameters it
    handed to Model.from_float_params before quantization."""
    seen = []
    build = Model.from_float_params.__func__

    def capture(cls, architecture, weights, biases):
        seen.append(_bits(np.concatenate([np.ravel(p) for p in (*weights, *biases)])))
        return build(cls, architecture, weights, biases)

    with patch.object(Model, "from_float_params", classmethod(capture)):
        model = trainer(dataset, config)
    return model, seen[0]


@settings(max_examples=60, deadline=None)
@given(
    optimizer=st.sampled_from(OPTIMIZERS),
    activation=st.sampled_from(ACTIVATIONS),
    classes=st.integers(2, 4),
    hidden=st.lists(st.integers(1, 6), max_size=2),
    rows=st.integers(1, 40),
    batch_size=st.sampled_from([1, 2, 4, 5, 7, 8, 64]),
    learning_rate=st.sampled_from(["0.001000", "0.050000", "0.500000"]),
    seed=st.integers(0, 2**32),
)
def test_train_matches_the_per_layer_loop(
    optimizer, activation, classes, hidden, rows, batch_size, learning_rate, seed
):
    rng = np.random.default_rng(seed)
    dataset = Dataset.from_rows(
        ("a", "b", "c"),
        rng.uniform(-3.0, 3.0, size=(rows, 3)),
        rng.integers(0, classes, size=rows),
        rng.integers(0, 2, size=rows),
    )
    config = TrainingConfig(
        architecture=Architecture(num_features=3, num_classes=classes, hidden=tuple(hidden), activation=activation),
        epochs=2,
        learning_rate=learning_rate,
        batch_size=batch_size,
        optimizer=optimizer,
        rng_seed=seed,
    )
    got, got_params = _trained(train, dataset, config)
    want, want_params = _trained(oracle.reference_train, dataset, config)
    assert got_params == want_params
    assert got.canonical_bytes == want.canonical_bytes == Model.canonical_bytes.func(got)


# Scores a whole number of 1e-7 steps from a base, so rows hold exact ties,
# near-ties on both sides of the 2e-6 margin, and pairs that quantization
# ties or keeps apart; bases on and beside a quantization midpoint.
BASES = [0.0, 0.25, 0.3, 0.0000005, 0.4999995, 0.5000005, 0.1234565, 0.9999995]


@st.composite
def score_matrices(draw) -> np.ndarray:
    """Rows of 2 to 4 scores, most of them within 3e-6 of one base."""
    classes = draw(st.integers(2, 4))
    base = draw(st.sampled_from(BASES) | st.floats(0.0, 1.0))
    score = st.integers(-30, 30).map(lambda k: base + k * 1e-7) | st.floats(0.0, 1.0)
    rows = draw(st.lists(st.lists(score, min_size=classes, max_size=classes), min_size=1, max_size=20))
    return np.array(rows, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(score_matrices())
def test_quantized_argmax_matches_the_per_row_rule(scores):
    assert quantized_argmax(scores).tolist() == oracle.reference_quantized_argmax(scores).tolist()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4),
    st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-6, -1e-6, 3e-7]), min_size=12, max_size=12),
    st.lists(st.lists(st.sampled_from([0.0, 1.0, -2.0, 0.25, 1e-6]), min_size=3, max_size=3), min_size=1, max_size=12),
)
def test_predicted_classes_match_the_per_row_rule(classes, weights, rows):
    arch = Architecture(num_features=3, num_classes=classes, hidden=(), activation="tanh")
    w = np.array(weights[: 3 * classes]).reshape(3, classes)
    model = Model.from_float_params(arch, [w], [np.zeros(classes)])
    x = np.array(rows, dtype=np.float64)
    assert predicted_classes(model, x).tolist() == oracle.reference_predicted_classes(model, x).tolist()
