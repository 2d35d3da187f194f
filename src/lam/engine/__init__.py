"""Deterministic ML substrate: canonical data/model formats, seeded training,
inference, and the measured quantities that appear in attestation payloads."""

from .data import Architecture, Dataset, InferenceRecord, TrainingConfig
from .fgsm import fgsm_dataset
from .metrics import (
    DistributionalProperty,
    MetricValue,
    accuracy,
    demographic_parity,
    distribution,
    robust_accuracy,
)
from .model import Model, input_gradients, predict, train
from .rng import Xoshiro256StarStar

__all__ = [
    "Architecture",
    "Dataset",
    "DistributionalProperty",
    "InferenceRecord",
    "MetricValue",
    "Model",
    "TrainingConfig",
    "Xoshiro256StarStar",
    "accuracy",
    "demographic_parity",
    "distribution",
    "fgsm_dataset",
    "input_gradients",
    "predict",
    "robust_accuracy",
    "train",
]
