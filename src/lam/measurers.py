"""Attestation producers.

Each producer runs in a simulated enclave context, computes one property via
the ML engine, serializes a property-card fragment as canonical JSON, and
obtains a quote whose report data is the fragment digest. The metrics return
the JSON value the fragment carries, so a producer places it as it is. One
enclave identity exists per measurer kind (dataset / training / metric /
inference); the metric enclave hosts the accuracy, fairness, and robustness
attestation types, distinguished by the att_type field and the certification
template. Shapes, envelope and enclave contexts are shared with the verifier
in lam.fragments; only these producers load the ML engine.

Fragments name models and datasets by digest only; human-readable names enter
through external certificates at verification time, never here.
"""

from __future__ import annotations

from typing import Any, Sequence

from .backend import PlatformIdentity, issue_quote
from .engine.data import Dataset, InferenceRecord, TrainingConfig
from .engine.fgsm import fgsm_dataset
from .engine.metrics import accuracy, demographic_parity, distribution, robust_accuracy
from .engine.model import Model, predict, train
from .fragments import TASK, AttestationEnvelope, EnclaveContext, validate_fragment
from .hashcore import canonicalize, decimal_string, hash_bytes, parse_decimal_string

# Read from here only by perfbench/, which the benchmark-only change of
# ROADMAP item 1 may re-point to lam.fragments.
from .fragments import ATT_TYPES, builtin_template, default_enclaves, enclave_kind_for  # noqa: F401


def _seal(enclave: EnclaveContext, platform: PlatformIdentity, fragment: dict[str, Any]) -> AttestationEnvelope:
    validate_fragment(fragment)
    payload = canonicalize(fragment)
    quote = issue_quote(platform, enclave.measurement, hash_bytes(payload))
    return AttestationEnvelope(payload=payload, quote=quote)


def attest_distribution(
    dataset: Dataset,
    kind: str,
    *,
    enclave: EnclaveContext,
    platform: PlatformIdentity,
) -> AttestationEnvelope:
    fragment = {
        "att_type": "DistAtt",
        "dataset_sha256": dataset.digest.hex,
        "property": distribution(dataset, kind),  # domain errors abort before any quote
    }
    return _seal(enclave, platform, fragment)


def attest_training(
    dataset: Dataset,
    config: TrainingConfig,
    *,
    enclave: EnclaveContext,
    platform: PlatformIdentity,
) -> tuple[Model, AttestationEnvelope]:
    model = train(dataset, config)
    fragment = {
        "att_type": "PoT",
        "model_sha256": model.digest.hex,
        "arch_sha256": config.architecture.digest.hex,
        "dataset_sha256": dataset.digest.hex,
        "config_sha256": config.digest.hex,
    }
    return model, _seal(enclave, platform, fragment)


def _seal_metric(
    att_type: str,
    model: Model,
    dataset: Dataset,
    metric: dict[str, Any],
    enclave: EnclaveContext,
    platform: PlatformIdentity,
) -> AttestationEnvelope:
    """Seal an AccAtt, FairAtt or RobustAtt-B fragment: one metric of `model`
    measured on `dataset`, which RobustAtt-B names as the robust dataset."""
    dataset_field = "robust_dataset_sha256" if att_type == "RobustAtt-B" else "dataset_sha256"
    fragment = {
        "att_type": att_type,
        "model_sha256": model.digest.hex,
        dataset_field: dataset.digest.hex,
        "results": {"task": TASK, "metrics": [metric]},
    }
    return _seal(enclave, platform, fragment)


def attest_accuracy(
    model: Model,
    d_te: Dataset,
    *,
    enclave: EnclaveContext,
    platform: PlatformIdentity,
) -> AttestationEnvelope:
    return _seal_metric("AccAtt", model, d_te, accuracy(model, d_te), enclave, platform)


def attest_fairness(
    model: Model,
    d_te: Dataset,
    *,
    enclave: EnclaveContext,
    platform: PlatformIdentity,
) -> AttestationEnvelope:
    return _seal_metric("FairAtt", model, d_te, demographic_parity(model, d_te), enclave, platform)


def attest_robustness(
    model: Model,
    d_te: Dataset,
    eps: str,
    *,
    enclave: EnclaveContext,
    platform: PlatformIdentity,
) -> tuple[Dataset, AttestationEnvelope, AttestationEnvelope]:
    """Two-step robustness attestation sharing one generated dataset.

    Step A certifies that D_rob was generated from the source test set with
    perturbation eps; step B attests robust accuracy over D_rob. Returns the
    generated dataset so callers can persist its canonical CSV.
    """
    eps_canon = decimal_string(parse_decimal_string(eps))
    d_rob = fgsm_dataset(model, d_te, eps_canon)
    robgen = _seal(
        enclave,
        platform,
        {
            "att_type": "RobustAtt-A",
            "dataset_sha256": d_te.digest.hex,
            "robust_dataset_sha256": d_rob.digest.hex,
            "parameters": {"epsilon": eps_canon},
        },
    )
    metric = robust_accuracy(model, d_rob, epsilon=eps_canon)
    robacc = _seal_metric("RobustAtt-B", model, d_rob, metric, enclave, platform)
    return d_rob, robgen, robacc


def attest_inference(
    model: Model,
    features: Sequence[float],
    *,
    enclave: EnclaveContext,
    platform: PlatformIdentity,
) -> tuple[InferenceRecord, AttestationEnvelope]:
    record = predict(model, features)
    fragment = {
        "att_type": "IOAtt",
        "model_sha256": model.digest.hex,
        "input_sha256": record.input_digest.hex,
        "output_sha256": record.output_digest.hex,
        "output": record.output_json_value(),
    }
    return record, _seal(enclave, platform, fragment)
