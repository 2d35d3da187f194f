from __future__ import annotations

from decimal import Decimal

import numpy as np
import pytest

import engine_oracle as oracle
from lam.engine.data import Architecture, Dataset
from lam.engine.fgsm import fgsm_dataset, input_gradients
from lam.engine.metrics import accuracy, robust_accuracy
from lam.engine.model import Model
from lam.engine.rng import Xoshiro256StarStar
from lam.errors import DomainError


def _rows_decimal(dataset: Dataset) -> list[list[Decimal]]:
    text = dataset.canonical_bytes.decode("utf-8")
    lines = text.strip("\n").split("\n")[1:]
    return [[Decimal(c) for c in line.split(",")[:-2]] for line in lines]


def test_eps_zero_is_identity(fixture_a, pattern_model):
    rob = fgsm_dataset(pattern_model, fixture_a, "0.000000")
    assert rob.canonical_bytes == fixture_a.canonical_bytes
    assert rob.digest == fixture_a.digest


def test_perturbation_bound_is_exact(fixture_a, pattern_model):
    eps = "0.125000"
    rob = fgsm_dataset(pattern_model, fixture_a, eps)
    before = _rows_decimal(fixture_a)
    after = _rows_decimal(rob)
    eps_dec = Decimal(eps)
    for row_b, row_a in zip(before, after):
        for vb, va in zip(row_b, row_a):
            delta = abs(va - vb)
            assert delta == eps_dec or delta == 0


def test_labels_and_groups_unchanged(fixture_a, pattern_model):
    rob = fgsm_dataset(pattern_model, fixture_a, "0.200000")
    assert np.array_equal(rob.labels, fixture_a.labels)
    assert np.array_equal(rob.sensitive, fixture_a.sensitive)


def test_negative_eps_rejected(fixture_a, pattern_model):
    with pytest.raises(DomainError):
        fgsm_dataset(pattern_model, fixture_a, "-0.100000")


def test_constant_model_is_fgsm_invariant(fixture_a, constant_model):
    # Zero weights give a zero input gradient, so sign(0)=0 leaves every
    # feature alone and robust accuracy equals clean accuracy.
    rob = fgsm_dataset(constant_model, fixture_a, "0.500000")
    assert rob.digest == fixture_a.digest
    robust = robust_accuracy(constant_model, rob, epsilon="0.500000")
    assert robust["value"] == accuracy(constant_model, fixture_a)["value"]


def test_eps_zero_robust_equals_clean(fixture_a, pattern_model):
    rob = fgsm_dataset(pattern_model, fixture_a, "0.000000")
    robust = robust_accuracy(pattern_model, rob, epsilon="0.000000")
    assert robust["value"] == accuracy(pattern_model, fixture_a)["value"]


def _check_gradient(model: Model, feats: list[float], label: int) -> None:
    analytic = input_gradients(model, np.array([feats]), np.array([label]))[0]
    fd = oracle.input_gradient_fd(model, feats, label, h=1e-3)
    for a, f in zip(analytic, fd):
        if abs(f) >= 1e-6:
            assert abs(a - f) / abs(f) <= 1e-4, (a, f)
        else:
            assert abs(a - f) <= 1e-8, (a, f)


def test_gradient_matches_finite_differences_two_feature_fixture():
    arch = Architecture(num_features=2, num_classes=2, hidden=(3,), activation="tanh")
    rng = Xoshiro256StarStar(99)
    weights = [
        np.array([rng.uniform_in(-1.0, 1.0) for _ in range(6)]).reshape(2, 3),
        np.array([rng.uniform_in(-1.0, 1.0) for _ in range(6)]).reshape(3, 2),
    ]
    biases = [np.zeros(3), np.zeros(2)]
    model = Model.from_float_params(arch, weights, biases)
    _check_gradient(model, [0.3, -0.7], 1)
    _check_gradient(model, [1.1, 0.2], 0)


def test_gradient_matches_finite_differences_random_models():
    rng = Xoshiro256StarStar(12345)
    for _ in range(10):
        k = 1 + rng.randbelow(4)
        classes = 2 + rng.randbelow(2)
        hidden = (1 + rng.randbelow(4),) if rng.randbelow(2) else ()
        arch = Architecture(num_features=k, num_classes=classes, hidden=hidden, activation="tanh")
        widths = arch.layer_widths
        weights, biases = [], []
        for i in range(len(widths) - 1):
            weights.append(
                np.array(
                    [rng.uniform_in(-1.0, 1.0) for _ in range(widths[i] * widths[i + 1])]
                ).reshape(widths[i], widths[i + 1])
            )
            biases.append(np.array([rng.uniform_in(-0.3, 0.3) for _ in range(widths[i + 1])]))
        model = Model.from_float_params(arch, weights, biases)
        feats = [rng.uniform_in(-1.0, 1.0) for _ in range(k)]
        _check_gradient(model, feats, rng.randbelow(classes))


def test_fgsm_flips_predictions_on_trained_model(small_config):
    # Sanity: with a meaningful eps the attack reduces accuracy on a model
    # trained to separate the data.
    from lam.engine.model import train
    from lam.engine.synth import linearly_separable

    ds = linearly_separable(100, margin=0.5, seed=21)
    model = train(ds, small_config)
    clean = accuracy(model, ds)
    rob = robust_accuracy(model, fgsm_dataset(model, ds, "1.000000"), epsilon="1.000000")
    assert float(rob["value"]) < float(clean["value"])
