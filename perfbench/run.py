"""Benchmark of the lam prover and verifier.

    python3 perfbench/run.py --workload census-card --seed 2026 --seconds 15 --trace 0

Runs one workload against the `lam` package in `src/` of the checkout this
file sits in, checks every output, and prints one JSON result as the last
line of standard output: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. Exits 1 when a correctness check fails
and 2 when the checkout's `lam` cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def import_checkout_lam() -> None:
    """Put the checkout's src/ first on sys.path and make sure `lam` comes
    from there, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lam
    except ImportError as exc:
        print(f"perfbench: cannot import lam from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if Path(lam.__file__).resolve().parent != (src / "lam").resolve():
        print(f"perfbench: lam imported from {lam.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)


WORKLOADS = ("census-card", "inference-serve", "fleet-verify")


def workload_class(name: str):
    """The workload's class; called with (seed, workdir) it makes a full-size instance."""
    from census_card import CensusCard
    from fleet_verify import FleetVerify
    from inference_serve import InferenceServe

    return {"census-card": CensusCard, "inference-serve": InferenceServe, "fleet-verify": FleetVerify}[name]


class Gate:
    """Counts checked outputs and failures across a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, checked: int, failures: list[str]) -> None:
        self.attempted += checked
        self.failures += failures

    def digest(self, digests: list[str], workload, golden: dict[str, str]) -> None:
        from harness import DEFAULT_SEED

        self.attempted += 1
        if len(set(digests)) != 1:
            self.failures.append(f"passes produced {len(set(digests))} different outputs")
        if workload.seed == DEFAULT_SEED and workload.default_size:
            self.attempted += 1
            if digests[0] != golden.get(workload.name):
                self.failures.append(f"output digest {digests[0]} != golden {golden.get(workload.name)}")

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        failed = min(len(self.failures), self.attempted)
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }


def load_golden() -> dict[str, str]:
    return json.loads((Path(__file__).parent / "golden.json").read_text())["digests"]


END_TO_END_UNITS = {"setup_s": "s", "prove_s": "s", "verify_bundle_s": "s", "peak_rss_mb": "MB"}


def freeze_setup() -> None:
    """Keep the set-up's objects out of later garbage collections: a
    verifier or prover process would not hold them, and scanning them
    again on every collection only adds noise to the passes."""
    gc.collect()
    gc.freeze()


def run_untraced(make_workload, seed: int, seconds: float, workdir: Path, gate: Gate) -> dict[str, float]:
    from harness import SpeedClock, median, output_digest, peak_rss_mb

    clock = SpeedClock()
    setups, setups_wall = [], []
    for _ in range(SETUP_REPEATS):
        workload = None  # let the previous set-up's objects go before timing the next
        gc.collect()
        with clock.timer() as setup:
            workload = make_workload(seed, workdir)
            workload.setup(clock)
        setups.append(setup.seconds)
        setups_wall.append(setup.wall_s)
    freeze_setup()

    prove, verify, digests = [], [], []
    started = time.perf_counter()
    while not digests or time.perf_counter() - started < seconds:
        gc.collect()
        out = workload.run_pass(clock)
        prove += out.prove_s
        verify += out.verify_s
        digests.append(output_digest(out.output_bytes()))
        gate.record(*workload.check(out))
        del out
    gate.digest(digests, workload, load_golden())
    print(f"perfbench: {workload.name} seed={seed} passes={len(digests)} digest={digests[0]}")
    print(f"perfbench: wall-clock set-up median {median(setups_wall)} s")
    print(f"perfbench: reference seconds setup_s={setups} prove_s={prove} verify_s={verify}")
    return {
        "setup_s": median(setups),
        "prove_s": median(prove),
        "verify_bundle_s": median(verify),
        "peak_rss_mb": peak_rss_mb(),
    }


def run_traced(make_workload, seed: int, workdir: Path, gate: Gate, meta: dict) -> dict[str, float]:
    from harness import Tracer, output_digest
    from layers import layer_metrics, layer_pass

    tr = Tracer(True)
    workload = make_workload(seed, workdir)
    with tr.span("bench.setup"):
        workload.setup(tr)
    freeze_setup()

    gc.collect()
    started = time.perf_counter()
    plain = workload.run_pass(Tracer(False))
    untraced_s = time.perf_counter() - started
    gate.record(*workload.check(plain))

    gc.collect()
    started = time.perf_counter()
    with tr.span("bench.pass"):
        out = workload.run_pass(tr)
    traced_s = time.perf_counter() - started
    gate.record(*workload.check(out))
    gate.digest([output_digest(plain.output_bytes()), output_digest(out.output_bytes())], workload, load_golden())
    del plain

    with tr.span("bench.layers"):
        layer_pass(workload, out, tr)
    n_train, n_test, _ = workload.prover_inputs()
    metrics = layer_metrics(tr, out, (n_train, n_test))
    metrics["trace.overhead_ratio"] = traced_s / untraced_s

    self_times = tr.self_times()
    print(f"perfbench: self time by layer (s): {json.dumps(self_times)}")
    trace_dir = ROOT / ".perfbench-out"
    trace_dir.mkdir(exist_ok=True)
    trace_path = trace_dir / f"trace-{workload.name}-{seed}.json"
    trace_path.write_text(
        json.dumps({"meta": meta, "self_time_s": self_times, "spans": tr.to_json_value()}) + "\n"
    )
    print(f"perfbench: wrote {trace_path.relative_to(ROOT)}")
    return metrics


PER_LAYER_UNITS_BY_SUFFIX = (("_ms", "ms"), ("_per_s", "1/s"), ("_s", "s"), ("_ratio", "ratio"), ("_share", "ratio"))


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_checkout_lam()
    from harness import run_metadata

    meta = run_metadata(ROOT)
    print(f"perfbench: meta {json.dumps(meta, sort_keys=True)}")
    gate = Gate()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))  # still remove workdir
    try:
        if args.trace:
            metrics = run_traced(workload_class(args.workload), args.seed, workdir, gate, meta)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics = run_untraced(workload_class(args.workload), args.seed, args.seconds, workdir, gate)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in gate.failures[:20]:
        print(f"perfbench: FAIL {failure}")
    print(json.dumps(gate.result(metrics, units)))
    return 0 if not gate.failures else 1


if __name__ == "__main__":
    sys.exit(main())
