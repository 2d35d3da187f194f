"""Small-size tests of the benchmark itself.

    python3 -m pytest -q perfbench

Each workload runs end to end at a small size, untraced and traced, and must
report exactly the metrics BENCHMARK.json declares. Corrupting one verdict or
one output byte must fail the correctness gate.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_checkout_lam()

from census_card import CensusCard  # noqa: E402
from fleet_verify import FleetVerify  # noqa: E402
from harness import SpeedClock, Tracer, output_digest  # noqa: E402
from inference_serve import InferenceServe  # noqa: E402
from lam.verifier import EnvelopeVerdict  # noqa: E402

SMALL = {
    "census-card": partial(CensusCard, n_train=300, n_test=100, epochs=2),
    "inference-serve": partial(InferenceServe, n_train=300, n_test=100, epochs=2, requests=30),
    "fleet-verify": partial(FleetVerify, models=20),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    path = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_is_correct_and_reports_end_to_end_metrics(name, workdir):
    gate = run.Gate()
    metrics = run.run_untraced(SMALL[name], 5, 0.0, workdir, gate)
    result = gate.result(metrics, run.END_TO_END_UNITS)
    assert result["correct"], gate.failures
    assert result["attempted"] > 0 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name, workdir):
    gate = run.Gate()
    metrics = run.run_traced(SMALL[name], 5, workdir, gate, {})
    assert not gate.failures
    units = {k: run.per_layer_unit(k) for k in metrics}
    assert units == _units("per_layer")
    assert metrics["trace.overhead_ratio"] > 0
    assert 0 < metrics["measurers.useful_work_ratio"]


def test_speed_clock_charges_segments_to_every_open_timer():
    clock = SpeedClock()
    with clock.timer() as outer:
        with clock.span("bench.a"):
            sum(range(100_000))
        with clock.timer() as inner:
            for _ in range(3):
                with clock.span("bench.b"):
                    time.sleep(0.03)
    assert 0.09 <= inner.wall_s < outer.wall_s
    assert 0 < inner.seconds < outer.seconds


def test_fleet_plants_every_defect_kind(workdir):
    workload = SMALL["fleet-verify"](5, workdir)
    workload.setup(Tracer(False))
    assert all(count > 0 for count in workload.plan.defects.values()), workload.plan.defects
    out = workload.run_pass(Tracer(False))
    reasons = {v.reason for v in out.verified[0].verdicts if not v.accepted}
    assert reasons == {"bad-quote", "payload-binding-mismatch", "unknown-enclave", "template-mismatch"}
    assert out.verified[0].external_ok.count(False) == workload.plan.defects["forged-external-signature"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_a_wrong_verdict_fails_the_gate(name, workdir):
    workload = SMALL[name](5, workdir)
    workload.setup(Tracer(False))
    out = workload.run_pass(Tracer(False))
    assert workload.check(out)[1] == []
    verdicts = out.verified[0].verdicts
    i = next(i for i, v in enumerate(verdicts) if v.accepted)
    verdicts[i] = EnvelopeVerdict(False, reason="bad-quote", detail="bad-signature")
    gate = run.Gate()
    gate.record(*workload.check(out))
    result = gate.result({}, {})
    assert not result["correct"] and result["failed"] > 0


def test_an_accepted_defect_fails_the_gate(workdir):
    workload = SMALL["fleet-verify"](5, workdir)
    workload.setup(Tracer(False))
    out = workload.run_pass(Tracer(False))
    verdicts = out.verified[0].verdicts
    i = workload.plan.expected_reason.index("unknown-enclave")
    clean = next(v for v in verdicts if v.accepted)
    verdicts[i] = clean
    assert workload.check(out)[1]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_a_flipped_output_byte_fails_the_gate(name, workdir):
    workload = SMALL[name](5, workdir)
    workload.setup(Tracer(False))
    out = workload.run_pass(Tracer(False))
    clean = output_digest(out.output_bytes())
    bundle = bytearray(out.prover_bytes[0])
    bundle[len(bundle) // 2] ^= 1
    corrupted = replace(out, prover_bytes=[bytes(bundle), *out.prover_bytes[1:]])
    gate = run.Gate()
    gate.digest([clean, output_digest(corrupted.output_bytes())], workload, {})
    assert gate.result({}, {})["failed"] == 1


def test_golden_digest_mismatch_fails_at_the_default_seed(workdir):
    workload = SMALL["census-card"](2026, workdir)
    workload.default_size = True
    gate = run.Gate()
    gate.digest(["0" * 64], workload, {"census-card": "1" * 64})
    assert gate.failures == [f"output digest {'0' * 64} != golden {'1' * 64}"]


def test_lam_comes_from_the_checkout():
    import lam

    assert Path(lam.__file__).resolve().parent == ROOT / "src" / "lam"
