from __future__ import annotations

import pytest

from lam.engine.data import MAX_PARAMETERS, Architecture, Dataset, TrainingConfig
from lam.engine.model import Model, predict
from lam.errors import ConfigError, DomainError
from lam.hashcore import parse_canonical


def test_dataset_canonical_csv_layout(fixture_a):
    text = fixture_a.canonical_bytes.decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == "f1,f2,label,sensitive"
    assert lines[1] == "0.000000,0.500000,0,0"
    assert lines[2] == "0.000000,-1.250000,0,0"
    assert lines[-1] == ""  # trailing LF
    assert "\r" not in text


def test_dataset_csv_round_trip(fixture_a):
    restored = Dataset.from_csv_bytes(fixture_a.canonical_bytes)
    assert restored.canonical_bytes == fixture_a.canonical_bytes
    assert restored.digest == fixture_a.digest


@pytest.mark.parametrize(
    ("labels", "sensitive", "message"),
    [
        ([0, 2**63], [0, 0], "row 1, column 'label': 9223372036854775808 is outside the int64 range"),
        ([0, 1], [-(2**63) - 1, 2**70], "row 0, column 'sensitive': -9223372036854775809 is outside the int64 range"),
    ],
)
def test_from_rows_names_an_integer_outside_int64(labels, sensitive, message):
    with pytest.raises(DomainError) as excinfo:
        Dataset.from_rows(("a",), [[0.0], [1.0]], labels, sensitive)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda model: predict(model, [10**400, 1]), "row 0 column 0 is outside the float range"),
        (
            lambda model: Dataset.from_rows(("a", "b"), [[0, 1], [2, -(10**400)]], [0, 1], [0, 0]),
            "row 1 column 1 is outside the float range",
        ),
        (
            lambda model: Model.from_float_params(model.architecture, [[[1, 0], [0, 10**400]]], model.biases),
            "row 1 column 1 is outside the float range",
        ),
    ],
    ids=["predict", "from_rows", "from_float_params"],
)
def test_numbers_beyond_the_float_range_are_named(pattern_model, build, message):
    with pytest.raises(DomainError) as excinfo:
        build(pattern_model)
    assert str(excinfo.value) == message


def test_dataset_digest_tracks_content(fixture_a, fixture_b):
    assert fixture_a.digest != fixture_b.digest  # labels differ
    again = Dataset.from_csv_bytes(fixture_a.canonical_bytes)
    assert again.digest == fixture_a.digest


def test_dataset_loader_canonicalizes_loose_csv():
    loose = b"f1,label,sensitive\r\n0.5,1,0\r\n-2,0,1\r\n"
    ds = Dataset.from_csv_bytes(loose)
    assert ds.canonical_bytes == b"f1,label,sensitive\n0.500000,1,0\n-2.000000,0,1\n"


def test_dataset_validation_errors():
    with pytest.raises(DomainError):
        Dataset.from_rows(("label",), [[1.0]], [0], [0])  # reserved column name
    with pytest.raises(DomainError):
        Dataset.from_rows(("a", "a"), [[1.0, 2.0]], [0], [0])  # duplicate
    with pytest.raises(DomainError):
        Dataset.from_rows((), [[], []], [0, 1], [0, 0])  # no feature column: no CSV can hold it
    with pytest.raises(DomainError):
        Dataset.from_rows(("a",), [[1.0]], [-1], [0])  # negative label
    with pytest.raises(DomainError):
        Dataset.from_csv_bytes(b"f1,label\n1,0\n")  # header missing sensitive


def test_dataset_groups_and_classes(fixture_a):
    assert fixture_a.groups == (0, 1)
    assert fixture_a.num_classes == 2
    assert fixture_a.num_rows == 6
    assert fixture_a.num_features == 2


def test_architecture_canonical_form():
    arch = Architecture(num_features=2, num_classes=2, hidden=(4,), activation="tanh")
    assert arch.canonical_bytes == (
        b'{"activation":"tanh","hidden":[4],"num_classes":2,"num_features":2}'
    )
    assert Architecture.from_json_value(parse_canonical(arch.canonical_bytes)) == arch
    assert arch.layer_widths == (2, 4, 2)


def test_architecture_validation():
    with pytest.raises(ConfigError):
        Architecture(num_features=0, num_classes=2, hidden=(), activation="tanh")
    with pytest.raises(ConfigError):
        Architecture(num_features=2, num_classes=1, hidden=(), activation="tanh")
    with pytest.raises(ConfigError):
        Architecture(num_features=2, num_classes=2, hidden=(0,), activation="tanh")
    with pytest.raises(ConfigError):
        Architecture(num_features=2, num_classes=2, hidden=(), activation="sigmoid")


def test_architecture_parameter_count_is_bounded():
    """(fan_in + 1) * fan_out summed over layers may reach MAX_PARAMETERS
    and no further; checking it builds no array."""
    assert MAX_PARAMETERS >= 100 * Architecture(12, 2, (32, 64, 32), "tanh").parameter_count
    widest = MAX_PARAMETERS // 2 - 1  # one layer to two classes: (widest + 1) * 2 parameters
    assert Architecture(widest, 2, (), "tanh").parameter_count == MAX_PARAMETERS
    with pytest.raises(ConfigError, match=f"give {MAX_PARAMETERS + 2} parameters"):
        Architecture(widest + 1, 2, (), "tanh")
    with pytest.raises(ConfigError, match="num_features, hidden and num_classes"):
        Architecture(2, 2, (10**30,), "tanh")


def test_training_config_canonical_round_trip(small_config):
    data = small_config.canonical_bytes
    assert TrainingConfig.from_json_bytes(data) == small_config
    assert TrainingConfig.from_json_bytes(data).digest == small_config.digest
    doc = parse_canonical(data)
    assert doc["learning_rate"] == "0.100000"
    assert isinstance(doc["epochs"], int)


def test_training_config_validation(small_config):
    arch = small_config.architecture
    with pytest.raises(ConfigError):
        TrainingConfig(arch, epochs=0, learning_rate="0.1", batch_size=32, optimizer="sgd", rng_seed=0)
    with pytest.raises(ConfigError):
        TrainingConfig(arch, epochs=1, learning_rate="0.000000", batch_size=32, optimizer="sgd", rng_seed=0)
    with pytest.raises(ConfigError):
        TrainingConfig(arch, epochs=1, learning_rate="0.1", batch_size=0, optimizer="sgd", rng_seed=0)
    with pytest.raises(ConfigError):
        TrainingConfig(arch, epochs=1, learning_rate="0.1", batch_size=32, optimizer="lbfgs", rng_seed=0)
    # seeds are 64-bit: 2^64 - 1 is accepted, -1 and 2^64 are refused
    TrainingConfig(arch, epochs=1, learning_rate="0.1", batch_size=32, optimizer="sgd", rng_seed=2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="^rng_seed must be in 0 .. 2"):
            TrainingConfig(arch, epochs=1, learning_rate="0.1", batch_size=32, optimizer="sgd", rng_seed=seed)


def test_feature_quantization_round_trip():
    ds = Dataset.from_rows(("a",), [[0.1234565], [1e-7], [-1e-7]], [0, 0, 0], [0, 0, 0])
    # quantized floats parse back from their own canonical strings
    assert [float(f"{v:.6f}") for v in ds.features[:, 0]] == list(ds.features[:, 0])


def test_inference_record_digests(pattern_model):
    from lam.engine.model import predict

    record = predict(pattern_model, [1.0, 0.0])
    doc = record.input_json_value()
    assert doc == {"features": ["1.000000", "0.000000"]}
    assert record.output_json_value()["predicted_class"] == record.predicted_class
    assert len(record.scores) == 2
    # digests are over canonical JSON of exactly those documents
    from lam.hashcore import canonicalize, hash_bytes

    assert record.input_digest == hash_bytes(canonicalize(doc))
    assert record.output_digest == hash_bytes(canonicalize(record.output_json_value()))
