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
import copy
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from .backend import EnclaveMeasurement, PlatformIdentity, Quote, issue_quote, measure_enclave
from .engine.data import Dataset, InferenceRecord, TrainingConfig
from .engine.fgsm import fgsm_dataset
from .engine.metrics import accuracy, demographic_parity, distribution, robust_accuracy
from .engine.model import Model, predict, train
from .errors import DomainError, LamError
from .hashcore import (
    TrustedManifest,
    canonicalize,
    decimal_string,
    hash_bytes,
    hash_file_once,
    parse_decimal_string,
    require_in_manifest,
)

if TYPE_CHECKING:
    from .verifier import VerifiedFragment

ENVELOPE_VERSION = 1
TASK = "tabular-classification"


@dataclass(frozen=True)
class AttSpec:
    """What the toolkit knows about one builtin attestation type."""

    enclave_kind: str  # the builtin enclave identity that produces it
    # Exactly these digest fields; the first is the one chains and cards look
    # fragments of this type up by.
    digest_fields: tuple[str, ...]
    # The other fields, each with its certification template value: null
    # wildcards for attested values, pinned structure and metric types.
    content: dict[str, Any]
    # Content paths chains and cards read as strings, besides the digests.
    content_strings: tuple[tuple[str, ...], ...] = ()
    # Content paths cards iterate as arrays. A dict template matches a lone
    # object as well as an array of objects, so the matcher lets either in.
    content_arrays: tuple[tuple[str, ...], ...] = ()

    @cached_property
    def string_paths(self) -> tuple[tuple[str, ...], ...]:
        """Every path chains and cards read as a string, digests first."""
        return tuple((f,) for f in self.digest_fields) + self.content_strings


def _metric_content(metric_type: str, *fields: str) -> dict[str, Any]:
    return {"results": {"task": TASK, "metrics": {"type": metric_type, **dict.fromkeys(fields)}}}


_METRICS = (("results", "metrics"),)


ATT_SPECS: dict[str, AttSpec] = {
    "DistAtt": AttSpec("dataset", ("dataset_sha256",), {"property": None}, (("property", "kind"),)),
    "PoT": AttSpec("training", ("model_sha256", "arch_sha256", "dataset_sha256", "config_sha256"), {}),
    "AccAtt": AttSpec(
        "metric",
        ("model_sha256", "dataset_sha256"),
        _metric_content("accuracy", "value", "numerator", "denominator"),
        content_arrays=_METRICS,
    ),
    "FairAtt": AttSpec(
        "metric",
        ("model_sha256", "dataset_sha256"),
        _metric_content("demographic_parity", "value", "parameters"),
        content_arrays=_METRICS,
    ),
    "RobustAtt-A": AttSpec(
        "metric",
        ("robust_dataset_sha256", "dataset_sha256"),
        {"parameters": None},
        (("parameters", "epsilon"),),
    ),
    "RobustAtt-B": AttSpec(
        "metric",
        ("model_sha256", "robust_dataset_sha256"),
        _metric_content("robust_accuracy", "value", "numerator", "denominator", "parameters"),
        content_arrays=_METRICS,
    ),
    "IOAtt": AttSpec("inference", ("model_sha256", "input_sha256", "output_sha256"), {"output": None}),
}

ATT_TYPES = tuple(ATT_SPECS)

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

    def read_input(self, path: str | Path) -> bytes:
        """Read-once an input file; under trusted-file mode the content must
        match the manifest or the measurer aborts before any quote exists."""
        content, _ = hash_file_once(path)
        if self.input_manifest is not None:
            require_in_manifest(self.input_manifest, Path(path).name, content)
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
        try:
            # without validate, the decoder skips characters outside the
            # alphabet, so an altered payload_b64 could still be accepted
            payload = base64.b64decode(value["payload_b64"], validate=True)
        except ValueError as exc:  # binascii.Error, or a non-ASCII string
            raise LamError(f"envelope payload_b64 is not strict base64: {exc}") from exc
        return cls(payload=payload, quote=Quote.from_json_value(value["quote"]))

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
    spec = ATT_SPECS.get(att_type)
    if spec is None:
        raise DomainError(f"unknown att_type {att_type!r}")
    digest_fields = {k for k in value if k.endswith("_sha256")}
    if digest_fields != set(spec.digest_fields):
        raise DomainError(
            f"{att_type} fragment digest fields {sorted(digest_fields)} != expected {sorted(spec.digest_fields)}"
        )
    other = set(value) - digest_fields - {"att_type"}
    if other != set(spec.content):
        raise DomainError(
            f"{att_type} fragment content fields {sorted(other)} != expected {sorted(spec.content)}"
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
    """Default certification template for an attestation type, a fresh copy.

    Template dictionaries pin structural fields and the metric type, leaving
    attested values as null wildcards; key-set equality in the matcher keeps
    a certified enclave from smuggling extra claims.
    """
    spec = ATT_SPECS.get(att_type)
    if spec is None:
        raise DomainError(f"unknown att_type {att_type!r}")
    return {"att_type": att_type, **dict.fromkeys(spec.digest_fields), **copy.deepcopy(spec.content)}


def enclave_kind_for(att_type: str) -> str:
    """Which builtin enclave identity produces a given attestation type."""
    return ATT_SPECS[att_type].enclave_kind


def index_fragments(fragments: Iterable[VerifiedFragment]) -> dict[str, dict[str, list[VerifiedFragment]]]:
    """att_type -> lookup digest (its first digest field) -> fragments, each
    list in input order. Fragments of other types are left out."""
    index: dict[str, dict[str, list[VerifiedFragment]]] = {att: {} for att in ATT_SPECS}
    for f in fragments:
        spec = ATT_SPECS.get(f.att_type)
        if spec is not None:
            index[f.att_type].setdefault(f.payload[spec.digest_fields[0]], []).append(f)
    return index
