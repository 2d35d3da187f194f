"""fleet-verify: a read-only batch verification of a wide bundle.

Set-up seals a bundle of 1,000 models through public calls only
(`validate_fragment`, `canonicalize`, `issue_quote` under the default enclave
measurements); digests and measured values come from the seed, so no training
runs. Each model has DistAtt, PoT, AccAtt, FairAtt, RobustAtt-A, RobustAtt-B
and IOAtt envelopes plus certificates for its training and test sets. About
5% of the envelopes and of the certificates carry a planted defect with a
known expected verdict. One pass writes the bundle file (several times, as
writing takes about half a second) and verifies it once.
Chain resolution and card assembly grow with models x fragments, so they do
real work here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from census_card import CENSUS_CONFIG, EPSILON
from harness import PassOutputs, Trust, Tracer, provision_trust, verify_bundle, write_bundle
from lam.backend import issue_quote
from lam.certs import ExternalCertificate, make_external_certificate
from lam.engine.data import TrainingConfig
from lam.hashcore import Digest, canonicalize, hash_bytes, ratio_string
from lam.measurers import (
    ATT_TYPES,
    TASK,
    AttestationEnvelope,
    EnclaveContext,
    enclave_kind_for,
    validate_fragment,
)
from lam.verifier import AssertionBundle

# Chain resolution and card assembly grow with models x fragments; at 1,000
# models they take about a fifth of the verification time.
MODELS = 1000
DEFECT_SHARE = 0.05
WARMUP_MODELS = 20
# A pass writes the bundle this many times; the run reports the median.
WRITE_REPEATS = 25

# Planted envelope defects and the verdict each must get.
EXPECTED_REASON = {
    "flip-quote-signature": "bad-quote",
    "tamper-platform-certificate": "bad-quote",
    "flip-payload-byte": "payload-binding-mismatch",
    "spoof-measurement": "bad-quote",
    "uncertified-enclave": "unknown-enclave",
    "wrong-enclave": "template-mismatch",
}
# The chain edge a rejected envelope of each type breaks.
BROKEN_EDGE = {
    "DistAtt": "training_distribution",
    "PoT": "pot",
    "AccAtt": "accuracy",
    "FairAtt": "fairness",
    "RobustAtt-A": "robustness_generation",
    "RobustAtt-B": "robustness",
    "IOAtt": "inference",
}
# Certificate edges add clauses to a chain but do not decide completeness.
CERT_EDGE = {"train": "training_dataset_certificate", "test": "test_dataset_certificate"}

# The prover layers have no inputs in this workload; the layer pass times
# them on a small census probe instead.
PROBE_TRAIN, PROBE_TEST = 600, 200


def _hex(rng: random.Random) -> str:
    return rng.getrandbits(256).to_bytes(32, "big").hex()


def _flip(data: bytes, rng: random.Random) -> bytes:
    out = bytearray(data)
    out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    return bytes(out)


def _split(rng: random.Random, total: int) -> tuple[int, int]:
    first = rng.randrange(1, total)
    return first, total - first


def model_fragments(rng: random.Random) -> tuple[dict[str, str], list[dict[str, Any]]]:
    """Digests of one model's artefacts and its seven fragments, in ATT_TYPES order."""
    d = {k: _hex(rng) for k in ("train", "test", "robust", "model", "arch", "config", "input", "output")}
    n_train, n_test = rng.randrange(1000, 10000), rng.randrange(500, 5000)
    g0, g1 = _split(rng, n_train)
    t0, t1 = _split(rng, n_test)
    n0, n1 = rng.randrange(t0 + 1), rng.randrange(t1 + 1)
    correct, robust = rng.randrange(n_test // 2, n_test), rng.randrange(n_test // 4, n_test // 2)
    score = rng.randrange(1_000_001)

    def metric(att_type: str, dataset_field: str, dataset: str, entry: dict[str, Any]) -> dict[str, Any]:
        return {
            "att_type": att_type,
            "model_sha256": d["model"],
            dataset_field: dataset,
            "results": {"task": TASK, "metrics": [entry]},
        }

    fragments = [
        {
            "att_type": "DistAtt",
            "dataset_sha256": d["train"],
            "property": {
                "kind": "marginal",
                "total": n_train,
                "counts": {"0": g0, "1": g1},
                "ratios": {"0": ratio_string(g0, n_train), "1": ratio_string(g1, n_train)},
            },
        },
        {
            "att_type": "PoT",
            "model_sha256": d["model"],
            "arch_sha256": d["arch"],
            "dataset_sha256": d["train"],
            "config_sha256": d["config"],
        },
        metric(
            "AccAtt", "dataset_sha256", d["test"],
            {"type": "accuracy", "value": ratio_string(correct, n_test), "numerator": correct, "denominator": n_test},
        ),
        metric(
            "FairAtt", "dataset_sha256", d["test"],
            {
                "type": "demographic_parity",
                "value": ratio_string(abs(n0 * t1 - n1 * t0), t0 * t1),
                "parameters": {
                    "group0_numerator": n0,
                    "group0_denominator": t0,
                    "group1_numerator": n1,
                    "group1_denominator": t1,
                },
            },
        ),
        {
            "att_type": "RobustAtt-A",
            "dataset_sha256": d["test"],
            "robust_dataset_sha256": d["robust"],
            "parameters": {"epsilon": EPSILON},
        },
        metric(
            "RobustAtt-B", "robust_dataset_sha256", d["robust"],
            {
                "type": "robust_accuracy",
                "value": ratio_string(robust, n_test),
                "numerator": robust,
                "denominator": n_test,
                "parameters": {"epsilon": EPSILON},
            },
        ),
        {
            "att_type": "IOAtt",
            "model_sha256": d["model"],
            "input_sha256": d["input"],
            "output_sha256": d["output"],
            "output": {
                "predicted_class": 0 if score >= 500_000 else 1,
                "scores": [ratio_string(score, 1_000_000), ratio_string(1_000_000 - score, 1_000_000)],
            },
        },
    ]
    return d, fragments


def seal(fragment: dict[str, Any], measurement: Digest, trust: Trust) -> AttestationEnvelope:
    validate_fragment(fragment)
    payload = canonicalize(fragment)
    return AttestationEnvelope(payload, issue_quote(trust.platform, measurement, hash_bytes(payload)))


@dataclass
class FleetPlan:
    """The sealed bundle and the verdicts it must produce."""

    envelopes: list[AttestationEnvelope]
    certificates: list[ExternalCertificate]
    expected_reason: list[str | None]  # per envelope; None means accepted
    expected_external: list[bool]
    expected_edges: dict[str, str | None]  # model digest -> edge that must be broken
    expected_cards: int
    defects: dict[str, int]


def build_fleet(seed: int, models: int, trust: Trust) -> FleetPlan:
    rng = random.Random(seed)
    measurements = {kind: enclave.measurement for kind, enclave in trust.enclaves.items()}
    rogue = EnclaveContext(
        kind="rogue",
        measurer_code=b"perfbench: an enclave no endorser has certified\n",
        config_bytes=canonicalize({"enclave": "rogue", "simulated": True, "version": 1}),
    ).measurement
    envelopes: list[AttestationEnvelope] = []
    certificates: list[ExternalCertificate] = []
    digests: list[dict[str, str]] = []
    for i in range(models):
        d, fragments = model_fragments(rng)
        digests.append(d)
        for fragment in fragments:
            envelopes.append(seal(fragment, measurements[enclave_kind_for(fragment["att_type"])], trust))
        for which in ("train", "test"):
            certificates.append(
                make_external_certificate(
                    trust.endorser, Digest.from_hex(d[which]), "dataset", f"fleet-{i}-{which}", {"fleet_index": i}
                )
            )

    expected_reason: list[str | None] = [None] * len(envelopes)
    expected_external = [True] * len(certificates)
    expected_edges: dict[str, str | None] = {d["model"]: None for d in digests}
    defects = {kind: 0 for kind in (*EXPECTED_REASON, "forged-external-signature")}
    rejected_types = {att_type: 0 for att_type in ATT_TYPES}
    n_envelope_defects = round(DEFECT_SHARE * len(envelopes))
    n_cert_defects = round(DEFECT_SHARE * len(certificates))
    damaged = rng.sample(range(models), n_envelope_defects + n_cert_defects)
    kinds = list(EXPECTED_REASON)
    for k, m in enumerate(damaged[:n_envelope_defects]):
        kind = kinds[k % len(kinds)]
        t = rng.randrange(len(ATT_TYPES))
        index = m * len(ATT_TYPES) + t
        att_type = ATT_TYPES[t]
        own = enclave_kind_for(att_type)
        other = rng.choice(sorted(set(measurements) - {own}))
        env = envelopes[index]
        quote = env.quote
        if kind == "flip-quote-signature":
            env = replace(env, quote=replace(quote, signature=_flip(quote.signature, rng)))
        elif kind == "tamper-platform-certificate":
            cert = quote.platform_certificate
            cert = replace(cert, root_signature=_flip(cert.root_signature, rng))
            env = replace(env, quote=replace(quote, platform_certificate=cert))
        elif kind == "flip-payload-byte":
            env = replace(env, payload=_flip(env.payload, rng))
        elif kind == "spoof-measurement":
            env = replace(env, quote=replace(quote, enclave_measurement=measurements[other]))
        elif kind == "uncertified-enclave":
            env = replace(env, quote=issue_quote(trust.platform, rogue, hash_bytes(env.payload)))
        else:  # wrong-enclave
            env = replace(env, quote=issue_quote(trust.platform, measurements[other], hash_bytes(env.payload)))
        envelopes[index] = env
        expected_reason[index] = EXPECTED_REASON[kind]
        expected_edges[digests[m]["model"]] = BROKEN_EDGE[att_type]
        defects[kind] += 1
        rejected_types[att_type] += 1
    for m in damaged[n_envelope_defects:]:
        which = rng.choice(("train", "test"))
        index = 2 * m + (which == "test")
        cert = certificates[index]
        certificates[index] = replace(cert, signature=_flip(cert.signature, rng))
        expected_external[index] = False
        expected_edges[digests[m]["model"]] = CERT_EDGE[which]
        defects["forged-external-signature"] += 1

    # a model card per model, a datasheet per attested training set and per
    # generated robust set, an inference card per IOAtt
    expected_cards = (
        models
        + (models - rejected_types["DistAtt"])
        + (models - rejected_types["RobustAtt-A"])
        + (models - rejected_types["IOAtt"])
    )
    return FleetPlan(envelopes, certificates, expected_reason, expected_external, expected_edges, expected_cards, defects)


class FleetVerify:
    name = "fleet-verify"

    def __init__(self, seed: int, workdir: Path, *, models: int = MODELS) -> None:
        self.seed = seed
        self.workdir = workdir
        self.models = models
        self.default_size = models == MODELS
        self.bundle_path = workdir / "fleet-verify.bundle.json"

    def setup(self, tr: Tracer) -> None:
        self.trust = provision_trust(self.seed, self.workdir, tr)
        with tr.span("bench.build_fleet"):
            self.plan = build_fleet(self.seed, self.models, self.trust)
        self.bundle = AssertionBundle(tuple(self.plan.envelopes), tuple(self.plan.certificates))
        warm = min(WARMUP_MODELS, self.models)
        warmup_path = self.workdir / "fleet-warmup.bundle.json"
        sub_bundle = AssertionBundle(self.bundle.envelopes[: warm * len(ATT_TYPES)], self.bundle.external_certificates[: 2 * warm])
        write_bundle(sub_bundle, warmup_path, Tracer(False))
        verify_bundle(warmup_path, self.trust, Tracer(False))

    def run_pass(self, tr: Tracer) -> PassOutputs:
        prove_s = []
        for _ in range(WRITE_REPEATS):
            with tr.span("bench.prove"), tr.timer() as prove:
                write_bundle(self.bundle, self.bundle_path, tr)
            prove_s.append(prove.seconds)
        with tr.span("bench.verify"), tr.timer() as verify:
            verified = verify_bundle(self.bundle_path, self.trust, tr)
        return PassOutputs(
            prove_s=prove_s,
            verify_s=[verify.seconds],
            prover_bytes=[self.bundle_path.read_bytes()],
            verified=[verified],
            measurer_envelopes=0,
        )

    def check(self, out: PassOutputs) -> tuple[int, list[str]]:
        """Each planted defect gets its expected verdict, every clean envelope
        and certificate is accepted, every clean model's chain is complete,
        and every damaged model shows the expected broken edge."""
        plan = self.plan
        verified = out.verified[0]
        failures: list[str] = []
        checked = 0
        if (len(verified.verdicts), len(verified.external_ok)) != (len(plan.expected_reason), len(plan.expected_external)):
            return 1, ["the bundle's envelope or certificate count changed"]
        for i, (verdict, want) in enumerate(zip(verified.verdicts, plan.expected_reason)):
            checked += 1
            got = None if verdict.accepted else verdict.reason
            if got != want:
                failures.append(f"envelope {i}: verdict {got or 'accepted'}, expected {want or 'accepted'}")
        for i, (ok, want) in enumerate(zip(verified.external_ok, plan.expected_external)):
            checked += 1
            if ok != want:
                failures.append(f"external certificate {i}: accepted={ok}, expected {want}")
        models = verified.report.models
        for model, edge in plan.expected_edges.items():
            checked += 1
            entry = models.get(model)
            if entry is None:
                failures.append(f"model {model[:12]} missing from the chain report")
                continue
            broken = {name for name, e in entry["edges"].items() if e["status"] != "ok"}
            if edge is None:
                if not entry["complete"] or broken:
                    failures.append(f"clean model {model[:12]}: edges {sorted(broken)} not ok")
            elif entry["edges"][edge]["status"] != "broken" or entry["complete"] != (edge in CERT_EDGE.values()):
                failures.append(f"damaged model {model[:12]}: edge {edge} is {entry['edges'][edge]['status']}")
        checked += 1
        if len(verified.cards) != plan.expected_cards:
            failures.append(f"{len(verified.cards)} cards, expected {plan.expected_cards}")
        return checked, failures

    def prover_inputs(self) -> tuple[int, int, TrainingConfig]:
        return PROBE_TRAIN, PROBE_TEST, CENSUS_CONFIG
