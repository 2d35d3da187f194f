"""inference-serve: a closed loop with one client and no think time.

Set-up trains the census model and attests its dataset, training, accuracy,
fairness and robustness once. One pass sends ~1,000 `attest_inference`
requests on distinct census test rows, each issued when the previous one
returns, then bundles every IOAtt with one envelope of each other type and
the dataset certificates, and verifies that single-model bundle.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from census_card import CENSUS_CONFIG, EPSILON
from harness import PassOutputs, Tracer, provision_trust, verify_bundle, write_bundle
from lam.certs import make_external_certificate
from lam.engine.data import TrainingConfig
from lam.engine.synth import census_split
from lam.measurers import (
    attest_accuracy,
    attest_distribution,
    attest_fairness,
    attest_inference,
    attest_robustness,
    attest_training,
)
from lam.verifier import AssertionBundle

# One pass of 1,000 requests leaves ten samples beyond the 99th percentile.
REQUESTS = 1000
WARMUP_REQUESTS = 20
# A pass verifies its bundle this many times; the run reports the median.
VERIFY_REPEATS = 7


def quantized_argmax(scores: list[str]) -> int:
    """Predicted class from serialized score strings: largest value, ties
    toward the lowest class index."""
    values = [float(s) for s in scores]
    best = 0
    for k in range(1, len(values)):
        if values[k] > values[best]:
            best = k
    return best


class InferenceServe:
    name = "inference-serve"

    def __init__(
        self,
        seed: int,
        workdir: Path,
        *,
        n_train: int = 6000,
        n_test: int = 2000,
        epochs: int = 10,
        requests: int = REQUESTS,
    ) -> None:
        if requests + WARMUP_REQUESTS > n_test:
            raise ValueError("requests and warm-up requests need distinct test rows")
        self.seed = seed
        self.workdir = workdir
        self.n_train, self.n_test, self.requests = n_train, n_test, requests
        self.config = replace(CENSUS_CONFIG, epochs=epochs)
        self.default_size = (n_train, n_test, epochs, requests) == (6000, 2000, 10, REQUESTS)
        self.bundle_path = workdir / "inference-serve.bundle.json"

    def setup(self, tr: Tracer) -> None:
        with tr.span("engine.synth.census_split"):
            train, test = census_split(self.n_train, self.n_test, self.seed)
        self.trust = trust = provision_trust(self.seed, self.workdir, tr)
        enclaves, plat = trust.enclaves, trust.platform
        with tr.span("measurers.attest_distribution"):
            dist = attest_distribution(train, "marginal", enclave=enclaves["dataset"], platform=plat)
        with tr.span("measurers.attest_training"):
            self.model, pot = attest_training(train, self.config, enclave=enclaves["training"], platform=plat)
        with tr.span("measurers.attest_accuracy"):
            acc = attest_accuracy(self.model, test, enclave=enclaves["metric"], platform=plat)
        with tr.span("measurers.attest_fairness"):
            fair = attest_fairness(self.model, test, enclave=enclaves["metric"], platform=plat)
        with tr.span("measurers.attest_robustness"):
            _, robgen, robacc = attest_robustness(self.model, test, EPSILON, enclave=enclaves["metric"], platform=plat)
        self.others = (dist, pot, acc, fair, robgen, robacc)
        self.externals = (
            make_external_certificate(trust.endorser, train.digest, "dataset", "census-train", {"source": "synthetic"}),
            make_external_certificate(trust.endorser, test.digest, "dataset", "census-test", {"source": "synthetic"}),
        )
        rows = [[float(v) for v in row] for row in test.features[: self.requests + WARMUP_REQUESTS]]
        self.request_rows = rows[: self.requests]
        self._serve(rows[self.requests :], Tracer(False))

    def _serve(self, rows: list[list[float]], tr: Tracer, verify_repeats: int = 1) -> PassOutputs:
        enclave, plat = self.trust.enclaves["inference"], self.trust.platform
        ioatts = []
        with tr.span("bench.prove"), tr.timer() as prove:
            for row in rows:
                with tr.span("measurers.attest_inference"):
                    _, envelope = attest_inference(self.model, row, enclave=enclave, platform=plat)
                ioatts.append(envelope)
            write_bundle(AssertionBundle(self.others + tuple(ioatts), self.externals), self.bundle_path, tr)
        verified, verify_s = [], []
        for _ in range(verify_repeats):
            with tr.span("bench.verify"), tr.timer() as verify:
                verified.append(verify_bundle(self.bundle_path, self.trust, tr))
            verify_s.append(verify.seconds)
        return PassOutputs(
            prove_s=[prove.seconds],
            verify_s=verify_s,
            prover_bytes=[self.bundle_path.read_bytes()],
            verified=verified,
            measurer_envelopes=len(ioatts),
        )

    def run_pass(self, tr: Tracer) -> PassOutputs:
        return self._serve(self.request_rows, tr, VERIFY_REPEATS)

    def check(self, out: PassOutputs) -> tuple[int, list[str]]:
        """Every envelope verifies, every IOAtt's class is the argmax of its
        quantized scores, and the model's chain is complete."""
        failures: list[str] = []
        checked = 0
        verified = out.verified[0]
        for i, verdict in enumerate(verified.verdicts):
            checked += 1
            if not verdict.accepted:
                failures.append(f"envelope {i} rejected: {verdict.reason}")
                continue
            payload = verdict.fragment.payload
            if payload["att_type"] == "IOAtt":
                checked += 1
                output = payload["output"]
                if output["predicted_class"] != quantized_argmax(output["scores"]):
                    failures.append(f"envelope {i}: class {output['predicted_class']} is not the score argmax")
        for i, ok in enumerate(verified.external_ok):
            checked += 1
            if not ok:
                failures.append(f"external certificate {i} rejected")
        checked += 2
        if [entry["complete"] for entry in verified.report.models.values()] != [True]:
            failures.append("the model's chain is not complete")
        # one model card, the training-set and robust-set datasheets, one card per inference
        if len(verified.cards) != self.requests + 3:
            failures.append(f"{len(verified.cards)} cards, expected {self.requests + 3}")
        return checked, failures

    def prover_inputs(self) -> tuple[int, int, TrainingConfig]:
        return self.n_train, self.n_test, self.config
