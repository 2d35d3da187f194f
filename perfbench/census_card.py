"""census-card: a batch prover job, run one at a time.

From the census train/test CSV bytes and the training-config bytes, one pass
produces all seven prover envelopes, the model file and the robust-set CSV,
bundles them with the two dataset certificates, and then verifies that bundle
the way a consumer of the card would. The engine and the repeated dataset and
model digests do almost all the work; the verifier does very little.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from harness import PassOutputs, Tracer, output_digest, provision_trust, verify_bundle, write_bundle
from lam.certs import make_external_certificate
from lam.engine.data import Architecture, Dataset, TrainingConfig
from lam.engine.synth import census_split
from lam.measurers import (
    attest_accuracy,
    attest_distribution,
    attest_fairness,
    attest_robustness,
    attest_training,
)
from lam.verifier import AssertionBundle
from oracle import card_counts

# The acceptance-criterion-8 training run.
CENSUS_CONFIG = TrainingConfig(
    architecture=Architecture(num_features=12, num_classes=2, hidden=(32, 64, 32), activation="tanh"),
    epochs=10,
    learning_rate="0.001000",
    batch_size=256,
    optimizer="adam",
    rng_seed=1,
)
EPSILON = "0.100000"
# The card's verification takes tens of milliseconds, so each pass repeats it
# and the run reports the median of all repeats.
VERIFY_REPEATS = 5


class CensusCard:
    name = "census-card"

    def __init__(self, seed: int, workdir: Path, *, n_train: int = 6000, n_test: int = 2000, epochs: int = 10) -> None:
        self.seed = seed
        self.workdir = workdir
        self.n_train, self.n_test = n_train, n_test
        self.config = replace(CENSUS_CONFIG, epochs=epochs)
        self.default_size = (n_train, n_test, epochs) == (6000, 2000, 10)
        self.bundle_path = workdir / "census-card.bundle.json"
        self._oracle: tuple[bytes, dict[str, int]] | None = None

    def setup(self, tr: Tracer) -> None:
        with tr.span("engine.synth.census_split"):
            train, test = census_split(self.n_train, self.n_test, self.seed)
        self.train_csv = train.canonical_bytes
        self.test_csv = test.canonical_bytes
        self.config_bytes = self.config.canonical_bytes
        self.trust = provision_trust(self.seed, self.workdir, tr)
        endorser = self.trust.endorser
        self.externals = (
            make_external_certificate(endorser, train.digest, "dataset", "census-train", {"source": "synthetic"}),
            make_external_certificate(endorser, test.digest, "dataset", "census-test", {"source": "synthetic"}),
        )
        self.warmup_digest = output_digest(self.run_pass(tr).output_bytes())

    def run_pass(self, tr: Tracer) -> PassOutputs:
        trust = self.trust
        enclaves, plat = trust.enclaves, trust.platform
        with tr.span("bench.prove"), tr.timer() as prove:
            with tr.span("engine.data.from_csv_bytes"):
                train = Dataset.from_csv_bytes(self.train_csv)
            with tr.span("engine.data.from_csv_bytes"):
                test = Dataset.from_csv_bytes(self.test_csv)
            config = TrainingConfig.from_json_bytes(self.config_bytes)
            envelopes = []
            for kind in ("marginal", "conditional"):
                with tr.span("measurers.attest_distribution"):
                    envelopes.append(attest_distribution(train, kind, enclave=enclaves["dataset"], platform=plat))
            with tr.span("measurers.attest_training"):
                model, pot = attest_training(train, config, enclave=enclaves["training"], platform=plat)
            envelopes.append(pot)
            with tr.span("measurers.attest_accuracy"):
                envelopes.append(attest_accuracy(model, test, enclave=enclaves["metric"], platform=plat))
            with tr.span("measurers.attest_fairness"):
                envelopes.append(attest_fairness(model, test, enclave=enclaves["metric"], platform=plat))
            with tr.span("measurers.attest_robustness"):
                d_rob, robgen, robacc = attest_robustness(model, test, EPSILON, enclave=enclaves["metric"], platform=plat)
            envelopes += [robgen, robacc]
            with tr.span("engine.model.Model.canonical_bytes"):
                model_bytes = model.canonical_bytes
            with tr.span("engine.data.Dataset.canonical_bytes"):
                robust_bytes = d_rob.canonical_bytes
            write_bundle(AssertionBundle(tuple(envelopes), self.externals), self.bundle_path, tr)

        verified, verify_s = [], []
        for _ in range(VERIFY_REPEATS):
            with tr.span("bench.verify"), tr.timer() as verify:
                verified.append(verify_bundle(self.bundle_path, trust, tr))
            verify_s.append(verify.seconds)
        return PassOutputs(
            prove_s=[prove.seconds],
            verify_s=verify_s,
            prover_bytes=[self.bundle_path.read_bytes(), model_bytes, robust_bytes],
            verified=verified,
            measurer_envelopes=len(envelopes),
            details=envelopes,
        )

    def check(self, out: PassOutputs) -> tuple[int, list[str]]:
        """Every envelope verifies, the attested accuracy and parity counts
        equal the pure-Python recomputation, and the pass reproduces the
        warm-up pass byte for byte."""
        failures: list[str] = []
        checked = 0
        first = out.verified[0]
        for i, verdict in enumerate(first.verdicts):
            checked += 1
            if not verdict.accepted:
                failures.append(f"envelope {i} rejected: {verdict.reason}")
        for i, ok in enumerate(first.external_ok):
            checked += 1
            if not ok:
                failures.append(f"external certificate {i} rejected")
        reference = first.output_bytes()
        for again in out.verified[1:]:
            checked += 1
            if again.output_bytes() != reference:
                failures.append("repeated verification produced different output")

        model_bytes = out.prover_bytes[1]
        if self._oracle is None or self._oracle[0] != model_bytes:
            self._oracle = (model_bytes, card_counts(model_bytes, self.test_csv))
        want = self._oracle[1]
        payloads = {value["att_type"]: value for value in (e.payload_value() for e in out.details)}
        accuracy = payloads["AccAtt"]["results"]["metrics"][0]
        parity = payloads["FairAtt"]["results"]["metrics"][0]["parameters"]
        got = {
            "numerator": accuracy["numerator"],
            "denominator": accuracy["denominator"],
            **{k: parity[k] for k in ("group0_numerator", "group0_denominator", "group1_numerator", "group1_denominator")},
        }
        for key, value in want.items():
            checked += 1
            if got[key] != value:
                failures.append(f"attested {key} {got[key]} != recomputed {value}")

        checked += 1
        if output_digest(out.output_bytes()) != self.warmup_digest:
            failures.append("pass output differs from the warm-up pass")
        return checked, failures

    def prover_inputs(self) -> tuple[int, int, TrainingConfig]:
        return self.n_train, self.n_test, self.config
