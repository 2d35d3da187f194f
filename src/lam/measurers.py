"""Attestation producers.

Each producer runs in a simulated enclave context, computes one property via
the ML engine, serializes a property-card fragment as canonical JSON, and
obtains a quote whose report data is the fragment digest. One enclave
identity exists per measurer kind (dataset / training / metric / inference);
the metric enclave hosts the accuracy, fairness, and robustness attestation
types, distinguished by the att_type field and the certification template.

Fragments name models and datasets by digest only; human-readable names enter
through external certificates at verification time, never here.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Sequence

from .backend import EnclaveMeasurement, PlatformIdentity, Quote, issue_quote, measure_enclave
from .engine.data import Dataset, InferenceRecord, TrainingConfig
from .engine.fgsm import fgsm_dataset
from .engine.metrics import accuracy, demographic_parity, distribution, robust_accuracy
from .engine.model import Model, predict, train
from .errors import DomainError
from .hashcore import (
    TrustedManifest,
    canonicalize,
    decimal_string,
    hash_bytes,
    hash_file_once,
    parse_decimal_string,
    require_in_manifest,
)

ENVELOPE_VERSION = 1
TASK = "tabular-classification"

ATT_TYPES = ("DistAtt", "PoT", "AccAtt", "FairAtt", "RobustAtt-A", "RobustAtt-B", "IOAtt")

# Exactly these digest fields must be present per attestation type.
FRAGMENT_DIGEST_FIELDS: dict[str, frozenset[str]] = {
    "DistAtt": frozenset({"dataset_sha256"}),
    "PoT": frozenset({"model_sha256", "arch_sha256", "dataset_sha256", "config_sha256"}),
    "AccAtt": frozenset({"model_sha256", "dataset_sha256"}),
    "FairAtt": frozenset({"model_sha256", "dataset_sha256"}),
    "RobustAtt-A": frozenset({"dataset_sha256", "robust_dataset_sha256"}),
    "RobustAtt-B": frozenset({"model_sha256", "robust_dataset_sha256"}),
    "IOAtt": frozenset({"model_sha256", "input_sha256", "output_sha256"}),
}

_CONTENT_FIELDS: dict[str, frozenset[str]] = {
    "DistAtt": frozenset({"property"}),
    "PoT": frozenset(),
    "AccAtt": frozenset({"results"}),
    "FairAtt": frozenset({"results"}),
    "RobustAtt-A": frozenset({"parameters"}),
    "RobustAtt-B": frozenset({"results"}),
    "IOAtt": frozenset({"output"}),
}

_MEASURER_SOURCES = {
    "dataset": b"lam measurer 'dataset': sensitive-attribute distribution counts, v1\n",
    "training": b"lam measurer 'training': seeded mini-batch MLP training, v1\n",
    "metric": b"lam measurer 'metric': accuracy / demographic parity / FGSM robustness, v1\n",
    "inference": b"lam measurer 'inference': forward pass with quantized argmax, v1\n",
}


@dataclass(frozen=True)
class EnclaveContext:
    """Identity of one simulated enclave: measurer code, trusted files, config.

    With an input_manifest the context behaves like trusted-file mode: every
    input must be listed and hash-match, and the manifest is part of the
    enclave measurement. Without one, inputs are read-once hashed only.
    """

    kind: str
    measurer_code: bytes
    config_bytes: bytes
    input_manifest: TrustedManifest | None = None

    @property
    def trusted_manifest(self) -> TrustedManifest:
        entries = [(f"measurer/{self.kind}.py", hash_bytes(self.measurer_code))]
        if self.input_manifest is not None:
            entries.extend((f"input/{p}", d) for p, d in self.input_manifest.entries)
        return TrustedManifest.from_entries(entries)

    @cached_property
    def measurement(self) -> EnclaveMeasurement:
        return measure_enclave(self.measurer_code, self.trusted_manifest, self.config_bytes)

    def with_trusted_inputs(self, manifest: TrustedManifest) -> "EnclaveContext":
        return replace(self, input_manifest=manifest)

    def read_input(self, path: str | Path, relpath: str | None = None) -> bytes:
        """Read-once an input file; under trusted-file mode the content must
        match the manifest or the measurer aborts before any quote exists."""
        content, _ = hash_file_once(path)
        if self.input_manifest is not None:
            require_in_manifest(self.input_manifest, relpath or Path(path).name, content)
        return content


def default_enclaves() -> dict[str, EnclaveContext]:
    return {
        kind: EnclaveContext(
            kind=kind,
            measurer_code=code,
            config_bytes=canonicalize({"enclave": kind, "simulated": True, "version": 1}),
        )
        for kind, code in _MEASURER_SOURCES.items()
    }


@dataclass(frozen=True)
class AttestationEnvelope:
    """Canonical fragment bytes plus the quote binding them to an enclave."""

    payload: bytes
    quote: Quote

    def payload_value(self) -> dict[str, Any]:
        from .hashcore import parse_canonical

        return parse_canonical(self.payload)

    def to_json_value(self) -> dict[str, Any]:
        return {
            "payload_b64": base64.b64encode(self.payload).decode("ascii"),
            "quote": self.quote.to_json_value(),
        }

    def to_file_value(self) -> dict[str, Any]:
        value = self.to_json_value()
        value["version"] = ENVELOPE_VERSION
        return value

    @classmethod
    def from_json_value(cls, value: dict[str, Any]) -> "AttestationEnvelope":
        return cls(
            payload=base64.b64decode(value["payload_b64"]),
            quote=Quote.from_json_value(value["quote"]),
        )

    def write(self, path: str | Path) -> None:
        Path(path).write_bytes(canonicalize(self.to_file_value()))

    @classmethod
    def read(cls, path: str | Path) -> "AttestationEnvelope":
        from .hashcore import parse_canonical

        content, _ = hash_file_once(path)
        return cls.from_json_value(parse_canonical(content))


def validate_fragment(value: Any) -> str:
    """Check a parsed fragment against its att_type schema; returns the type."""
    if not isinstance(value, dict):
        raise DomainError("fragment must be a JSON object")
    att_type = value.get("att_type")
    if att_type not in FRAGMENT_DIGEST_FIELDS:
        raise DomainError(f"unknown att_type {att_type!r}")
    digest_fields = {k for k in value if k.endswith("_sha256")}
    expected = FRAGMENT_DIGEST_FIELDS[att_type]
    if digest_fields != set(expected):
        raise DomainError(
            f"{att_type} fragment digest fields {sorted(digest_fields)} != expected {sorted(expected)}"
        )
    other = set(value) - digest_fields - {"att_type"}
    if other != set(_CONTENT_FIELDS[att_type]):
        raise DomainError(
            f"{att_type} fragment content fields {sorted(other)} != expected "
            f"{sorted(_CONTENT_FIELDS[att_type])}"
        )
    return att_type


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
    prop = distribution(dataset, kind)  # domain errors abort before any quote
    fragment = {
        "att_type": "DistAtt",
        "dataset_sha256": dataset.digest.hex,
        "property": prop.to_json_value(),
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


def _metric_fragment(att_type: str, digests: dict[str, str], metric_entry: dict[str, Any]) -> dict[str, Any]:
    fragment: dict[str, Any] = {"att_type": att_type, **digests}
    fragment["results"] = {"task": TASK, "metrics": [metric_entry]}
    return fragment


def attest_accuracy(
    model: Model,
    d_te: Dataset,
    *,
    enclave: EnclaveContext,
    platform: PlatformIdentity,
) -> AttestationEnvelope:
    metric = accuracy(model, d_te)
    fragment = _metric_fragment(
        "AccAtt",
        {"model_sha256": model.digest.hex, "dataset_sha256": d_te.digest.hex},
        metric.to_json_value(),
    )
    return _seal(enclave, platform, fragment)


def attest_fairness(
    model: Model,
    d_te: Dataset,
    *,
    enclave: EnclaveContext,
    platform: PlatformIdentity,
) -> AttestationEnvelope:
    metric = demographic_parity(model, d_te)
    fragment = _metric_fragment(
        "FairAtt",
        {"model_sha256": model.digest.hex, "dataset_sha256": d_te.digest.hex},
        metric.to_json_value(),
    )
    return _seal(enclave, platform, fragment)


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
    robacc = _seal(
        enclave,
        platform,
        _metric_fragment(
            "RobustAtt-B",
            {"model_sha256": model.digest.hex, "robust_dataset_sha256": d_rob.digest.hex},
            metric.to_json_value(),
        ),
    )
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


def builtin_template(att_type: str) -> Any:
    """Default certification template for an attestation type.

    Template dictionaries pin structural fields and the metric type, leaving
    attested values as null wildcards; key-set equality in the matcher keeps
    a certified enclave from smuggling extra claims.
    """
    if att_type == "DistAtt":
        return {"att_type": "DistAtt", "dataset_sha256": None, "property": None}
    if att_type == "PoT":
        return {
            "att_type": "PoT",
            "model_sha256": None,
            "arch_sha256": None,
            "dataset_sha256": None,
            "config_sha256": None,
        }
    if att_type == "AccAtt":
        return {
            "att_type": "AccAtt",
            "model_sha256": None,
            "dataset_sha256": None,
            "results": {
                "task": TASK,
                "metrics": {"type": "accuracy", "value": None, "numerator": None, "denominator": None},
            },
        }
    if att_type == "FairAtt":
        return {
            "att_type": "FairAtt",
            "model_sha256": None,
            "dataset_sha256": None,
            "results": {
                "task": TASK,
                "metrics": {"type": "demographic_parity", "value": None, "parameters": None},
            },
        }
    if att_type == "RobustAtt-A":
        return {
            "att_type": "RobustAtt-A",
            "dataset_sha256": None,
            "robust_dataset_sha256": None,
            "parameters": None,
        }
    if att_type == "RobustAtt-B":
        return {
            "att_type": "RobustAtt-B",
            "model_sha256": None,
            "robust_dataset_sha256": None,
            "results": {
                "task": TASK,
                "metrics": {
                    "type": "robust_accuracy",
                    "value": None,
                    "numerator": None,
                    "denominator": None,
                    "parameters": None,
                },
            },
        }
    if att_type == "IOAtt":
        return {
            "att_type": "IOAtt",
            "model_sha256": None,
            "input_sha256": None,
            "output_sha256": None,
            "output": None,
        }
    raise DomainError(f"unknown att_type {att_type!r}")


def enclave_kind_for(att_type: str) -> str:
    """Which builtin enclave identity produces a given attestation type."""
    return {
        "DistAtt": "dataset",
        "PoT": "training",
        "AccAtt": "metric",
        "FairAtt": "metric",
        "RobustAtt-A": "metric",
        "RobustAtt-B": "metric",
        "IOAtt": "inference",
    }[att_type]
