from __future__ import annotations

import os

import numpy as np
import pytest

from lam.backend import create_root, provision_platform
from lam.engine.data import Architecture, Dataset, TrainingConfig
from lam.engine.model import Model

# Six-row fixture A: accuracy / parity / marginal-distribution expectations
# (labels have four zeros; f1 drives the pattern model's predictions).
FIXTURE_A_F1 = [0.0, 0.0, 1.0, 0.0, 1.0, 1.0]
FIXTURE_A_F2 = [0.5, -1.25, 2.0, 3.75, -0.5, 1.0]
FIXTURE_A_Y = [0, 0, 1, 0, 1, 0]
FIXTURE_A_Z = [0, 0, 0, 1, 1, 1]

# Six-row fixture B: same features/groups, labels chosen for the conditional
# distribution expectation (z | y=1 splits 2/2).
FIXTURE_B_Y = [0, 1, 1, 0, 1, 1]

ARCH_2X2 = Architecture(num_features=2, num_classes=2, hidden=(), activation="tanh")


def _linear_model(w_f1: tuple[float, float], w_f2: tuple[float, float]) -> Model:
    return Model(
        architecture=ARCH_2X2,
        weights=(np.array([list(w_f1), list(w_f2)], dtype=np.float64),),
        biases=(np.zeros(2, dtype=np.float64),),
    )


@pytest.fixture
def fixture_a() -> Dataset:
    return Dataset.from_rows(
        ("f1", "f2"),
        list(map(list, zip(FIXTURE_A_F1, FIXTURE_A_F2))),
        FIXTURE_A_Y,
        FIXTURE_A_Z,
    )


@pytest.fixture
def fixture_b() -> Dataset:
    return Dataset.from_rows(
        ("f1", "f2"),
        list(map(list, zip(FIXTURE_A_F1, FIXTURE_A_F2))),
        FIXTURE_B_Y,
        FIXTURE_A_Z,
    )


@pytest.fixture
def constant_model() -> Model:
    """All-zero weights: every score ties, so every prediction is class 0."""
    return _linear_model((0.0, 0.0), (0.0, 0.0))


@pytest.fixture
def pattern_model() -> Model:
    """Predicts class 1 exactly where f1 > 0, class 0 on the f1 = 0 tie."""
    return _linear_model((-5.0, 5.0), (0.0, 0.0))


@pytest.fixture
def small_config() -> TrainingConfig:
    return TrainingConfig(
        architecture=Architecture(num_features=2, num_classes=2, hidden=(4,), activation="tanh"),
        epochs=50,
        learning_rate="0.100000",
        batch_size=32,
        optimizer="sgd",
        rng_seed=42,
    )


@pytest.fixture(scope="session")
def test_root():
    return create_root(b"test-root-seed")


@pytest.fixture(scope="session")
def test_platform(test_root):
    return provision_platform(test_root, "test-platform", seed=b"test-platform-seed")


@pytest.fixture(scope="session", autouse=True)
def no_child_process_left():
    """Fail the run if any test leaves a child process behind, such as a
    forked signature check that was never reaped."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a test left a child process behind")
