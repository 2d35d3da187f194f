"""Per-layer metrics of a traced run.

A per-layer number comes from the spans of the traced end-to-end pass when
the benchmark makes that call there, and otherwise from the layer pass: one
call of each public function on the workload's own inputs (several calls,
reported as a median, for the millisecond-scale ones).
"""

from __future__ import annotations

import statistics
from typing import Any

from census_card import EPSILON
from harness import VERIFY_SPANS, PassOutputs, Tracer, median, percentile
from lam.backend import issue_quote, verify_quote
from lam.engine.data import Dataset
from lam.engine.fgsm import fgsm_dataset
from lam.engine.metrics import accuracy, demographic_parity, distribution, robust_accuracy
from lam.engine.model import predict, train
from lam.engine.synth import census_split
from lam.hashcore import canonicalize, hash_bytes, parse_canonical
from lam.measurers import (
    attest_accuracy,
    attest_distribution,
    attest_fairness,
    attest_inference,
    attest_robustness,
    attest_training,
)
from lam.verifier import AssertionBundle, match_template

# Calls per millisecond-scale function in the layer pass.
SAMPLES = 20
# Envelopes sampled for the parts of envelope verification.
ENVELOPE_SAMPLE = 200

# metric name -> (span name, statistic, scale to the metric's unit)
SPAN_METRICS: dict[str, tuple[str, str, float]] = {
    "engine.synth.census_split_s": ("engine.synth.census_split", "sum", 1.0),
    "engine.data.csv_load_s": ("engine.data.from_csv_bytes", "sum", 1.0),
    "hashcore.dataset_digest_s": ("hashcore.dataset_digest", "sum", 1.0),
    "hashcore.model_digest_ms": ("hashcore.model_digest", "p50", 1e3),
    "engine.model.train_s": ("engine.model.train", "sum", 1.0),
    "engine.metrics.accuracy_s": ("engine.metrics.accuracy", "sum", 1.0),
    "engine.metrics.demographic_parity_s": ("engine.metrics.demographic_parity", "sum", 1.0),
    "engine.metrics.distribution_s": ("engine.metrics.distribution", "sum", 1.0),
    "engine.fgsm.fgsm_dataset_s": ("engine.fgsm.fgsm_dataset", "sum", 1.0),
    "engine.model.predict_ms": ("engine.model.predict", "p50", 1e3),
    "backend.issue_quote_ms": ("backend.issue_quote", "p50", 1e3),
    "measurers.attest_distribution_s": ("measurers.attest_distribution", "sum", 1.0),
    "measurers.attest_training_s": ("measurers.attest_training", "sum", 1.0),
    "measurers.attest_accuracy_s": ("measurers.attest_accuracy", "sum", 1.0),
    "measurers.attest_fairness_s": ("measurers.attest_fairness", "sum", 1.0),
    "measurers.attest_robustness_s": ("measurers.attest_robustness", "sum", 1.0),
    "measurers.attest_inference_ms": ("measurers.attest_inference", "p50", 1e3),
    "measurers.attest_inference_p99_ms": ("measurers.attest_inference", "p99", 1e3),
    "measurers.attest_inference_per_s": ("measurers.attest_inference", "rate", 1.0),
    "verifier.bundle_write_s": ("verifier.AssertionBundle.write", "p50", 1.0),
    "verifier.bundle_load_s": ("verifier.AssertionBundle.read", "sum", 1.0),
    "certs.store_load_s": ("certs.CertificationStore.load", "sum", 1.0),
    "verifier.verify_envelope_s": ("verifier.verify_envelope", "sum", 1.0),
    "verifier.verify_envelope_ms": ("verifier.verify_envelope", "p50", 1e3),
    "backend.verify_quote_ms": ("backend.verify_quote", "p50", 1e3),
    "backend.platform_cert_verify_ms": ("backend.PlatformCertificate.verifies_under", "p50", 1e3),
    "hashcore.payload_recheck_ms": ("hashcore.payload_recheck", "p50", 1e3),
    "verifier.match_template_ms": ("verifier.match_template", "p50", 1e3),
    "certs.external_verify_s": ("certs.ExternalCertificate.verifies_under", "sum", 1.0),
    "verifier.resolve_chains_s": ("verifier.resolve_chains", "sum", 1.0),
    "cards.assemble_cards_s": ("cards.assemble_cards", "sum", 1.0),
    "verifier.chain_report_bytes_s": ("verifier.ChainReport.canonical_bytes", "sum", 1.0),
    "cards.yaml_s": ("cards.PropertyCard.yaml_bytes", "sum", 1.0),
}

VERDICT_REASONS = ("bad-quote", "payload-binding-mismatch", "unknown-enclave", "template-mismatch")


def layer_pass(workload: Any, out: PassOutputs, tr: Tracer) -> None:
    """One call of each public function the workload exercises, on the
    workload's prover inputs and the bundle its traced pass verified."""
    n_train, n_test, config = workload.prover_inputs()
    trust = workload.trust
    enclaves, plat = trust.enclaves, trust.platform
    with tr.span("engine.synth.census_split"):
        train_ds, test_ds = census_split(n_train, n_test, workload.seed)
    for csv in (train_ds.canonical_bytes, test_ds.canonical_bytes):
        with tr.span("engine.data.from_csv_bytes"):
            Dataset.from_csv_bytes(csv)
    with tr.span("hashcore.dataset_digest"):
        train_ds.digest
    with tr.span("engine.model.train"):
        model = train(train_ds, config)
    for _ in range(SAMPLES):
        with tr.span("hashcore.model_digest"):
            model.digest
    with tr.span("engine.metrics.accuracy"):
        accuracy(model, test_ds)
    with tr.span("engine.metrics.demographic_parity"):
        demographic_parity(model, test_ds)
    for kind in ("marginal", "conditional"):
        with tr.span("engine.metrics.distribution"):
            distribution(train_ds, kind)
    with tr.span("engine.fgsm.fgsm_dataset"):
        d_rob = fgsm_dataset(model, test_ds, EPSILON)
    with tr.span("engine.metrics.robust_accuracy"):
        robust_accuracy(model, d_rob, epsilon=EPSILON)
    rows = [[float(v) for v in row] for row in test_ds.features[:SAMPLES]]
    for row in rows:
        with tr.span("engine.model.predict"):
            predict(model, row)
    measurement = enclaves["inference"].measurement
    for i in range(SAMPLES):
        digest = hash_bytes(canonicalize({"layer-pass": i}))
        with tr.span("backend.issue_quote"):
            issue_quote(plat, measurement, digest)

    for kind in ("marginal", "conditional"):
        with tr.span("measurers.attest_distribution"):
            attest_distribution(train_ds, kind, enclave=enclaves["dataset"], platform=plat)
    with tr.span("measurers.attest_training"):
        model, _ = attest_training(train_ds, config, enclave=enclaves["training"], platform=plat)
    with tr.span("measurers.attest_accuracy"):
        attest_accuracy(model, test_ds, enclave=enclaves["metric"], platform=plat)
    with tr.span("measurers.attest_fairness"):
        attest_fairness(model, test_ds, enclave=enclaves["metric"], platform=plat)
    with tr.span("measurers.attest_robustness"):
        attest_robustness(model, test_ds, EPSILON, enclave=enclaves["metric"], platform=plat)
    for row in rows:
        with tr.span("measurers.attest_inference"):
            attest_inference(model, row, enclave=enclaves["inference"], platform=plat)

    # the parts of envelope verification, on accepted envelopes of the pass
    bundle = AssertionBundle.read(workload.bundle_path)
    accepted = [(e, v) for e, v in zip(bundle.envelopes, out.verified[0].verdicts) if v.accepted]
    step = max(1, len(accepted) // ENVELOPE_SAMPLE)
    roots = {trust.root_hex}
    for envelope, verdict in accepted[::step][:ENVELOPE_SAMPLE]:
        with tr.span("backend.verify_quote"):
            verify_quote(envelope.quote, roots)
        with tr.span("backend.PlatformCertificate.verifies_under"):
            envelope.quote.platform_certificate.verifies_under(trust.root_hex)
        with tr.span("hashcore.payload_recheck"):
            canonicalize(parse_canonical(envelope.payload))
        with tr.span("verifier.match_template"):
            match_template(verdict.fragment.certification.template, verdict.fragment.payload)


def _statistic(values: list[float], stat: str) -> float:
    if stat == "sum":
        return sum(values)
    if stat == "p50":
        return median(values)
    if stat == "p99":
        return percentile(values, 99)
    return len(values) / sum(values)


def _useful_work_ratio(spans: dict[str, list[float]], layer: dict[str, list[float]], rows: tuple[int, int]) -> float:
    """Layer-pass time of the work the measurer calls need, over the time
    those calls took: each engine computation and quote once per call, and
    each dataset and model digest once per artefact."""
    mean = lambda name: statistics.fmean(layer[name])  # noqa: E731
    engine = {
        "measurers.attest_distribution": mean("engine.metrics.distribution"),
        "measurers.attest_training": mean("engine.model.train"),
        "measurers.attest_accuracy": mean("engine.metrics.accuracy"),
        "measurers.attest_fairness": mean("engine.metrics.demographic_parity"),
        "measurers.attest_robustness": mean("engine.fgsm.fgsm_dataset") + mean("engine.metrics.robust_accuracy"),
        "measurers.attest_inference": mean("engine.model.predict"),
    }
    calls = {name: spans[name] for name in engine if name in spans}
    if not calls:
        calls = {name: layer[name] for name in engine}
    n_train, n_test = rows
    digest_per_row = mean("hashcore.dataset_digest") / n_train
    useful = mean("hashcore.model_digest")
    digested_rows = 0
    if {"measurers.attest_distribution", "measurers.attest_training"} & calls.keys():
        digested_rows += n_train
    if {"measurers.attest_accuracy", "measurers.attest_fairness", "measurers.attest_robustness"} & calls.keys():
        digested_rows += n_test
    if "measurers.attest_robustness" in calls:
        digested_rows += n_test  # the generated robust set
    useful += digested_rows * digest_per_row
    for name, durations in calls.items():
        quotes = 2 if name == "measurers.attest_robustness" else 1
        useful += len(durations) * (engine[name] + quotes * mean("backend.issue_quote"))
    return useful / sum(sum(d) for d in calls.values())


def layer_metrics(tr: Tracer, out: PassOutputs, rows: tuple[int, int]) -> dict[str, float]:
    """Every per-layer metric from the traced pass, the layer pass and the
    traced pass's outputs."""
    spans = tr.durations("bench.pass")
    layer = tr.durations("bench.layers")
    verifications = len(spans["bench.verify"])
    metrics: dict[str, float] = {}
    for name, (span, stat, scale) in SPAN_METRICS.items():
        values = spans.get(span) or layer[span]
        if stat == "sum" and span in VERIFY_SPANS:
            scale /= verifications  # per verification of the bundle
        metrics[name] = _statistic(values, stat) * scale
    metrics["backend.platform_cert_share"] = metrics["backend.platform_cert_verify_ms"] / metrics["backend.verify_quote_ms"]
    metrics["measurers.useful_work_ratio"] = _useful_work_ratio(spans, layer, rows)

    verified = out.verified[0]
    reasons = [v.reason for v in verified.verdicts if not v.accepted]
    metrics["engine.data.rows"] = sum(rows)
    metrics["measurers.envelopes"] = out.measurer_envelopes
    metrics["verifier.envelopes"] = len(verified.verdicts)
    metrics["verifier.accepted"] = len(verified.verdicts) - len(reasons)
    for reason in VERDICT_REASONS:
        metrics[f"verifier.rejected.{reason}"] = reasons.count(reason)
    metrics["certs.external_rejected"] = verified.external_ok.count(False)
    metrics["verifier.models"] = len(verified.report.models)
    metrics["cards.cards"] = len(verified.cards)
    return metrics
