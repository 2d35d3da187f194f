from __future__ import annotations

import numpy as np
import pytest

import engine_oracle as oracle
from pipeline import EPSILON, sixrow_pipeline
from lam.engine.data import Architecture, Dataset
from lam.engine.metrics import accuracy, demographic_parity, distribution, robust_accuracy
from lam.engine.model import Model
from lam.engine.rng import Xoshiro256StarStar
from lam.errors import DomainError


def test_accuracy_constant_model_fixture(fixture_a, constant_model):
    metric = accuracy(constant_model, fixture_a)
    assert metric["numerator"] == 4
    assert metric["denominator"] == 6
    assert metric["value"] == "0.666667"


def test_accuracy_pattern_model_fixture(fixture_a, pattern_model):
    metric = accuracy(pattern_model, fixture_a)
    # predictions [0,0,1,0,1,1] vs labels [0,0,1,0,1,0]
    assert (metric["numerator"], metric["denominator"]) == (5, 6)
    assert metric["value"] == "0.833333"


def test_accuracy_perfect_on_matching_labels(pattern_model):
    ds = Dataset.from_rows(
        ("f1", "f2"),
        [[0.0, 1.0], [1.0, 2.0], [0.0, 3.0], [1.0, 4.0]],
        [0, 1, 0, 1],
        [0, 1, 0, 1],
    )
    assert accuracy(pattern_model, ds)["value"] == "1.000000"


def test_accuracy_empty_dataset_error(constant_model):
    empty = Dataset.from_rows(("f1", "f2"), [], [], [])
    with pytest.raises(DomainError):
        accuracy(constant_model, empty)


def test_parity_constant_model_is_zero(fixture_a, constant_model):
    assert demographic_parity(constant_model, fixture_a)["value"] == "0.000000"


def test_parity_fixture_value(fixture_a, pattern_model):
    metric = demographic_parity(pattern_model, fixture_a)
    assert metric["value"] == "0.333333"
    assert metric["parameters"] == {
        "group0_numerator": 2,
        "group0_denominator": 3,
        "group1_numerator": 1,
        "group1_denominator": 3,
    }


def test_parity_single_group_error(pattern_model):
    ds = Dataset.from_rows(("f1", "f2"), [[0.0, 0.0], [1.0, 1.0]], [0, 1], [0, 0])
    with pytest.raises(DomainError, match="group 1"):
        demographic_parity(pattern_model, ds)


def test_marginal_distribution_fixture(fixture_a):
    prop = distribution(fixture_a, "marginal")
    assert prop["counts"] == {"0": 3, "1": 3}
    assert prop["ratios"] == {"0": "0.500000", "1": "0.500000"}
    assert prop["total"] == 6


def test_conditional_distribution_fixture(fixture_b):
    prop = distribution(fixture_b, "conditional")
    assert prop["by_label"]["1"]["counts"] == {"0": 2, "1": 2}
    assert prop["by_label"]["0"]["counts"] == {"0": 1, "1": 1}
    assert prop["by_label"]["1"]["ratios"] == {"0": "0.500000", "1": "0.500000"}


def test_single_row_distribution():
    ds = Dataset.from_rows(("f1",), [[1.0]], [0], [3])
    prop = distribution(ds, "marginal")
    assert prop["counts"] == {"3": 1}
    assert prop["ratios"] == {"3": "1.000000"}


def test_distribution_errors(fixture_a):
    empty = Dataset.from_rows(("f1", "f2"), [], [], [])
    with pytest.raises(DomainError):
        distribution(empty, "marginal")
    with pytest.raises(DomainError):
        distribution(fixture_a, "joint")


def _random_dataset(rng: Xoshiro256StarStar, max_rows: int = 100) -> Dataset:
    n = 2 + rng.randbelow(max_rows - 1)
    k = 1 + rng.randbelow(4)
    schema = tuple(f"f{i+1}" for i in range(k))
    feats = [[rng.uniform_in(-2.0, 2.0) for _ in range(k)] for _ in range(n)]
    labels = [rng.randbelow(3) for _ in range(n)]
    sensitive = [rng.randbelow(2) for _ in range(n)]
    # both parity groups always present
    sensitive[0] = 0
    sensitive[1] = 1
    return Dataset.from_rows(schema, feats, labels, sensitive)


def _random_model(rng: Xoshiro256StarStar, num_features: int, num_classes: int = 3) -> Model:
    hidden = (1 + rng.randbelow(5),) if rng.randbelow(2) else ()
    arch = Architecture(
        num_features=num_features,
        num_classes=num_classes,
        hidden=hidden,
        activation="tanh" if rng.randbelow(2) else "relu",
    )
    widths = arch.layer_widths
    weights, biases = [], []
    for i in range(len(widths) - 1):
        weights.append(
            np.array(
                [rng.uniform_in(-1.5, 1.5) for _ in range(widths[i] * widths[i + 1])],
                dtype=np.float64,
            ).reshape(widths[i], widths[i + 1])
        )
        biases.append(np.array([rng.uniform_in(-0.5, 0.5) for _ in range(widths[i + 1])], dtype=np.float64))
    return Model.from_float_params(arch, weights, biases)


def test_metrics_match_bruteforce_oracle_on_random_datasets():
    """Dual-route check: batched numpy metrics vs pure-Python row enumeration."""
    rng = Xoshiro256StarStar(20260809)
    for _ in range(20):
        ds = _random_dataset(rng)
        model = _random_model(rng, ds.num_features)

        got = accuracy(model, ds)
        want_num, want_den, want_val = oracle.accuracy(model, ds)
        assert (got["numerator"], got["denominator"], got["value"]) == (want_num, want_den, want_val)

        assert demographic_parity(model, ds)["value"] == oracle.demographic_parity(model, ds)

        marg = distribution(ds, "marginal")
        want_counts, want_ratios = oracle.marginal_distribution(ds)
        assert marg["counts"] == want_counts
        assert marg["ratios"] == want_ratios

        cond = distribution(ds, "conditional")
        want_by_label = oracle.conditional_distribution(ds)
        assert {lbl: e["counts"] for lbl, e in cond["by_label"].items()} == want_by_label

        rob = robust_accuracy(model, ds, epsilon="0.100000")
        assert rob["value"] == want_val
        assert rob["parameters"] == {"epsilon": "0.100000"}


def test_ratio_times_denominator_is_numerator_for_metrics(fixture_a, constant_model):
    metric = accuracy(constant_model, fixture_a)
    assert round(float(metric["value"]) * metric["denominator"]) == metric["numerator"]


@pytest.fixture(scope="module")
def sixrow():
    return sixrow_pipeline()


_MEASURED = {
    "acc": lambda p: accuracy(p.model, p.test_ds),
    "fair": lambda p: demographic_parity(p.model, p.test_ds),
    "robacc": lambda p: robust_accuracy(p.model, p.d_rob, epsilon=EPSILON),
    "dist-marginal": lambda p: distribution(p.train_ds, "marginal"),
    "dist-conditional": lambda p: distribution(p.train_ds, "conditional"),
}


@pytest.mark.parametrize("name", list(_MEASURED))
def test_metric_is_the_value_its_fragment_carries(sixrow, name):
    payload = sixrow.envelopes[name].payload_value()
    carried = payload["property"] if payload["att_type"] == "DistAtt" else payload["results"]["metrics"][0]
    assert _MEASURED[name](sixrow) == carried
