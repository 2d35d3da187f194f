"""End-to-end fixture pipeline shared by verifier, chain, card, CLI, and
acceptance tests: provisioned trust material, one envelope of every
attestation type over a train/test dataset pair, certifications for all four
enclave identities, and external certificates for both datasets."""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from lam.backend import ManufacturerRoot, PlatformIdentity, create_root, provision_platform
from lam.certs import (
    Certification,
    CertificationStore,
    Endorser,
    ExternalCertificate,
    make_certification,
    make_external_certificate,
)
from lam.engine.data import Architecture, Dataset, TrainingConfig
from lam.engine.model import Model
from lam.hashcore import parse_canonical
from lam.fragments import AttestationEnvelope, EnclaveContext, builtin_template, default_enclaves, enclave_kind_for
from lam.measurers import (
    attest_accuracy,
    attest_distribution,
    attest_fairness,
    attest_inference,
    attest_robustness,
    attest_training,
)
from lam.verifier import AssertionBundle

EPSILON = "0.100000"


def written_value(bundle: AssertionBundle) -> dict[str, Any]:
    """The JSON value of the file that bundle.write writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bundle.json"
        bundle.write(path)
        return parse_canonical(path.read_bytes())


@dataclass
class Pipeline:
    root: ManufacturerRoot
    platform: PlatformIdentity
    enclaves: dict[str, EnclaveContext]
    endorser: Endorser
    train_ds: Dataset
    test_ds: Dataset
    config: TrainingConfig
    model: Model
    d_rob: Dataset
    envelopes: dict[str, AttestationEnvelope]
    store: CertificationStore
    externals: list[ExternalCertificate]
    inference_input: list[float] = field(default_factory=list)

    @property
    def roots(self) -> set[str]:
        return {self.root.public_hex}

    @property
    def endorser_keys(self) -> dict[str, str]:
        return {self.endorser.endorser_id: self.endorser.public_hex}

    def bundle(self, *, drop: set[str] = frozenset(), with_externals: bool = True) -> AssertionBundle:
        envelopes = tuple(env for name, env in self.envelopes.items() if name not in drop)
        return AssertionBundle(
            envelopes=envelopes,
            external_certificates=tuple(self.externals) if with_externals else (),
        )

    def certification_for(self, att_type: str) -> Certification:
        measurement = self.enclaves[enclave_kind_for(att_type)].measurement
        for cert in self.store.for_measurement(measurement):
            if cert.template.get("att_type") == att_type:
                return cert
        raise KeyError(att_type)


def default_config(num_features: int = 2) -> TrainingConfig:
    return TrainingConfig(
        architecture=Architecture(num_features=num_features, num_classes=2, hidden=(4,), activation="tanh"),
        epochs=50,
        learning_rate="0.100000",
        batch_size=32,
        optimizer="sgd",
        rng_seed=42,
    )


def build_pipeline(
    train_ds: Dataset,
    test_ds: Dataset,
    config: TrainingConfig,
    inference_input: list[float],
    *,
    dist_kinds: tuple[str, ...] = ("marginal",),
) -> Pipeline:
    root = create_root(b"pipeline-root")
    platform = provision_platform(root, "pipeline-platform", seed=b"pipeline-platform")
    enclaves = default_enclaves()
    endorser = Endorser.create("acme", seed=b"pipeline-endorser")

    envelopes: dict[str, AttestationEnvelope] = {}
    for kind in dist_kinds:
        envelopes[f"dist-{kind}"] = attest_distribution(
            train_ds, kind, enclave=enclaves["dataset"], platform=platform
        )
    model, envelopes["pot"] = attest_training(
        train_ds, config, enclave=enclaves["training"], platform=platform
    )
    envelopes["acc"] = attest_accuracy(model, test_ds, enclave=enclaves["metric"], platform=platform)
    envelopes["fair"] = attest_fairness(model, test_ds, enclave=enclaves["metric"], platform=platform)
    d_rob, envelopes["robgen"], envelopes["robacc"] = attest_robustness(
        model, test_ds, EPSILON, enclave=enclaves["metric"], platform=platform
    )
    _, envelopes["io"] = attest_inference(
        model, inference_input, enclave=enclaves["inference"], platform=platform
    )

    store = CertificationStore()
    for att_type in ("DistAtt", "PoT", "AccAtt", "FairAtt", "RobustAtt-A", "RobustAtt-B", "IOAtt"):
        measurement = enclaves[enclave_kind_for(att_type)].measurement
        store.add(make_certification(endorser, measurement, builtin_template(att_type)))

    externals = [
        make_external_certificate(
            endorser, train_ds.digest, "dataset", "fixture-train", {"quality": "benchmark"}
        ),
        make_external_certificate(
            endorser, test_ds.digest, "dataset", "fixture-test", {"quality": "benchmark"}
        ),
    ]

    return Pipeline(
        root=root,
        platform=platform,
        enclaves=enclaves,
        endorser=endorser,
        train_ds=train_ds,
        test_ds=test_ds,
        config=config,
        model=model,
        d_rob=d_rob,
        envelopes=envelopes,
        store=store,
        externals=externals,
        inference_input=inference_input,
    )


def sixrow_pipeline() -> Pipeline:
    from conftest import FIXTURE_A_F1, FIXTURE_A_F2, FIXTURE_A_Y, FIXTURE_A_Z, FIXTURE_B_Y

    train = Dataset.from_rows(
        ("f1", "f2"), list(map(list, zip(FIXTURE_A_F1, FIXTURE_A_F2))), FIXTURE_A_Y, FIXTURE_A_Z
    )
    test = Dataset.from_rows(
        ("f1", "f2"), list(map(list, zip(FIXTURE_A_F1, FIXTURE_A_F2))), FIXTURE_B_Y, FIXTURE_A_Z
    )
    return build_pipeline(train, test, default_config(), [1.0, 0.5], dist_kinds=("marginal", "conditional"))


def separable_pipeline() -> Pipeline:
    from lam.engine.synth import linearly_separable

    train = linearly_separable(200, margin=1.0, seed=7)
    test = linearly_separable(100, margin=1.0, seed=8)
    return build_pipeline(train, test, default_config(), [0.8, 0.9])
