"""Shared pieces of the benchmark: span tracer, statistics, run metadata,
trust material, and the bundle-verification sequence every workload ends with.

Everything here calls `lam` only through its public functions and times those
calls from outside; nothing inside the library is patched.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from lam.backend import PlatformIdentity, create_root, provision_platform
from lam.cards import PropertyCard, assemble_cards
from lam.certs import CertificationStore, Endorser, make_certification
from lam.hashcore import canonicalize, hash_file_once, parse_canonical
from lam.measurers import ATT_TYPES, EnclaveContext, builtin_template, default_enclaves, enclave_kind_for
from lam.verifier import AssertionBundle, ChainReport, EnvelopeVerdict, resolve_chains, verify_envelope

DEFAULT_SEED = 2026
# The repository's modules; a span belongs to the layer its name starts with.
LAYERS = (
    "hashcore", "backend", "engine.data", "engine.model", "engine.metrics", "engine.fgsm",
    "engine.synth", "engine.rng", "measurers", "certs", "verifier", "cards", "bench",
)


# --- tracing -------------------------------------------------------------------


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> None:
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter_ns(), 0, parent])
        t._stack.append(self.index)

    def __exit__(self, *exc: Any) -> None:
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter_ns()
        t._stack.pop()


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index]. Disabled
    tracers hand out one shared no-op span, so untraced runs pay nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def span(self, name: str) -> Any:
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def timer(self) -> "Timer":
        """Times the `with` block in wall-clock seconds."""
        return Timer(None)

    def durations(self, root: str) -> dict[str, list[float]]:
        """Span durations in seconds by name, for spans under the top-level
        span named `root`."""
        roots: list[int] = []
        out: dict[str, list[float]] = {}
        for name, start, end, parent in self.spans:
            roots.append(roots[parent] if parent >= 0 else len(roots))
        for i, (name, start, end, _) in enumerate(self.spans):
            if self.spans[roots[i]][0] == root and roots[i] != i:
                out.setdefault(name, []).append((end - start) / 1e9)
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span counting its duration minus the time
        its child spans cover."""
        child_time = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            layer = next(layer for layer in LAYERS if name.startswith(layer + "."))
            out[layer] = out.get(layer, 0.0) + (end - start - children) / 1e9
        return dict(sorted(out.items()))

    def to_json_value(self) -> list[dict[str, Any]]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p} for n, s, e, p in self.spans
        ]


# --- timing --------------------------------------------------------------------


class Timer:
    """Context manager whose `seconds` is the block's time: wall clock, or
    reference seconds when it belongs to a SpeedClock."""

    def __init__(self, clock: "SpeedClock | None") -> None:
        self.clock = clock
        self.seconds = 0.0
        self.wall_s = 0.0

    def __enter__(self) -> "Timer":
        if self.clock is None:
            self._started = time.perf_counter()
        else:
            self.clock._start(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.clock is None:
            self.seconds = self.wall_s = time.perf_counter() - self._started
        else:
            self.clock._stop(self)


_PROBE_BYTES = bytes(range(256)) * 800
# The probe's typical time between calls into `lam` on a 2-vCPU x86_64 host,
# so that reference seconds read close to wall seconds there.
PROBE_NOMINAL_S = 0.0035
# Timed blocks are cut into segments of at least this length.
SEGMENT_S = 0.05


def speed_probe() -> float:
    """Wall time of one run of a fixed reference task (interpreter loop,
    dict and JSON building, hashing), two to four milliseconds."""
    started = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    json.dumps({str(i): [i, str(i)] for i in range(1000)})
    hashlib.sha256(_PROBE_BYTES).digest()
    return time.perf_counter() - started


class _TickSpan:
    __slots__ = ("clock",)

    def __init__(self, clock: "SpeedClock") -> None:
        self.clock = clock

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        self.clock._tick()


class SpeedClock(Tracer):
    """An untraced tracer whose timers report reference seconds.

    A small shared host runs the same code up to half again slower for
    minutes at a time, which no statistic over one run removes. So a timed
    block is cut, at the end of a span once SEGMENT_S has passed, into
    segments; a fixed probe runs between segments, outside the timed time,
    and each segment's wall time is scaled by PROBE_NOMINAL_S over the mean
    of the probe times just before and just after it. The probe cuts only
    between calls into `lam`; a single call is one segment however long.
    """

    def __init__(self) -> None:
        super().__init__(False)
        self._tick_span = _TickSpan(self)
        self._active: list[Timer] = []
        self._segment_start = 0.0
        self._last_probe = 0.0

    def span(self, name: str) -> Any:
        return self._tick_span

    def timer(self) -> Timer:
        return Timer(self)

    def _start(self, timer: Timer) -> None:
        if self._active:
            self._close_segment()
        else:
            self._last_probe = speed_probe()
            self._segment_start = time.perf_counter()
        self._active.append(timer)

    def _stop(self, timer: Timer) -> None:
        self._close_segment()
        self._active.remove(timer)

    def _tick(self) -> None:
        if self._active and time.perf_counter() - self._segment_start >= SEGMENT_S:
            self._close_segment()

    def _close_segment(self) -> None:
        wall = time.perf_counter() - self._segment_start
        probe = speed_probe()
        scaled = wall * PROBE_NOMINAL_S / ((self._last_probe + probe) / 2)
        for timer in self._active:
            timer.seconds += scaled
            timer.wall_s += wall
        self._last_probe = probe
        self._segment_start = time.perf_counter()


# --- statistics and run facts ---------------------------------------------------


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=100)[q - 1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> int | None:
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha(root: Path) -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(top) == 2 and Path(top[0]).resolve() == root.resolve():
        return top[1]
    return "unknown"


def run_metadata(root: Path) -> dict[str, Any]:
    import cryptography
    import numpy
    import yaml

    import lam

    return {
        "git_sha": _git_sha(root),
        "lam_path": str(Path(lam.__file__).resolve().parent),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "argv": sys.argv[1:],
    }


# --- trust material -------------------------------------------------------------


@dataclass
class Trust:
    """Key material, certification store and the files a verifier reads."""

    root_hex: str
    platform: PlatformIdentity
    endorser: Endorser
    enclaves: dict[str, EnclaveContext]
    store: CertificationStore
    trust_path: Path
    store_path: Path


def provision_trust(seed: int, workdir: Path, tr: Tracer) -> Trust:
    """Manufacturer root, one platform, one endorser, and certifications of
    the builtin template for every attestation type, written as files."""
    with tr.span("backend.create_root"):
        root = create_root(f"perfbench-root-{seed}")
    with tr.span("backend.provision_platform"):
        plat = provision_platform(root, "perfbench-platform", seed=f"perfbench-platform-{seed}")
    endorser = Endorser.create("perfbench-endorser", seed=f"perfbench-endorser-{seed}")
    enclaves = default_enclaves()
    store = CertificationStore()
    with tr.span("certs.make_certification"):
        for att_type in ATT_TYPES:
            measurement = enclaves[enclave_kind_for(att_type)].measurement
            store.add(make_certification(endorser, measurement, builtin_template(att_type)))
    trust_path = workdir / "trust.json"
    store_path = workdir / "certifications.json"
    trust_path.write_bytes(
        canonicalize(
            {
                "endorser_keys": {endorser.endorser_id: endorser.public_hex},
                "manufacturer_roots": [root.public_hex],
            }
        )
    )
    store.save(store_path)
    return Trust(root.public_hex, plat, endorser, enclaves, store, trust_path, store_path)


# --- verification ---------------------------------------------------------------


@dataclass
class Verified:
    """Everything a `lam verify` run produces, kept in memory."""

    verdicts: list[EnvelopeVerdict]
    external_ok: list[bool]
    report: ChainReport
    report_bytes: bytes
    cards: list[PropertyCard]
    card_yaml: list[bytes]

    def output_bytes(self) -> list[bytes]:
        """Verdict list, external verdicts, chain report and card YAML."""
        verdicts = [
            ["ok" if v.accepted else v.reason, v.detail or "", v.fragment.fragment_sha256.hex if v.accepted else ""]
            for v in self.verdicts
        ]
        parts = [canonicalize(verdicts), canonicalize(self.external_ok), self.report_bytes]
        for card, text in zip(self.cards, self.card_yaml):
            parts.append(card.filename.encode("utf-8"))
            parts.append(text)
        return parts


# Spans verify_bundle records; a pass may verify more than once.
VERIFY_SPANS = (
    "certs.CertificationStore.load",
    "verifier.AssertionBundle.read",
    "verifier.verify_envelope",
    "certs.ExternalCertificate.verifies_under",
    "verifier.resolve_chains",
    "verifier.ChainReport.canonical_bytes",
    "cards.assemble_cards",
    "cards.PropertyCard.yaml_bytes",
)


def verify_bundle(bundle_path: Path, trust: Trust, tr: Tracer) -> Verified:
    """The `lam verify` sequence over the bundle, store and trust files,
    without printing or writing: verdicts, external-certificate verdicts,
    chain report bytes and card YAML."""
    content, _ = hash_file_once(trust.trust_path)
    anchors = parse_canonical(content)
    roots = set(anchors["manufacturer_roots"])
    endorser_keys = dict(anchors["endorser_keys"])
    with tr.span("certs.CertificationStore.load"):
        store = CertificationStore.load(trust.store_path, endorser_keys)
    with tr.span("verifier.AssertionBundle.read"):
        bundle = AssertionBundle.read(bundle_path)

    verdicts = []
    for envelope in bundle.envelopes:
        with tr.span("verifier.verify_envelope"):
            verdicts.append(verify_envelope(envelope, store, roots))
    fragments = [v.fragment for v in verdicts if v.accepted]

    external_ok = []
    valid_externals = []
    for cert in bundle.external_certificates:
        pubkey = endorser_keys.get(cert.endorser_id)
        with tr.span("certs.ExternalCertificate.verifies_under"):
            ok = bool(pubkey) and cert.verifies_under(pubkey)
        external_ok.append(ok)
        if ok:
            valid_externals.append(cert)

    with tr.span("verifier.resolve_chains"):
        report = resolve_chains(fragments, valid_externals)
    with tr.span("verifier.ChainReport.canonical_bytes"):
        report_bytes = report.canonical_bytes()
    with tr.span("cards.assemble_cards"):
        cards = assemble_cards(fragments, valid_externals, report)
    card_yaml = []
    for card in cards:
        with tr.span("cards.PropertyCard.yaml_bytes"):
            card_yaml.append(card.yaml_bytes())
    return Verified(verdicts, external_ok, report, report_bytes, cards, card_yaml)


@dataclass
class PassOutputs:
    """One pass of a workload: its timings and everything it produced."""

    prove_s: list[float]  # one per production of the bundle
    verify_s: list[float]  # one per verification of the bundle
    prover_bytes: list[bytes]  # bundle file bytes, then any other prover files
    verified: list[Verified]  # one per verification of the bundle
    measurer_envelopes: int  # envelopes produced through lam.measurers
    details: Any = None  # workload-specific values the correctness gate reads

    def output_bytes(self) -> list[bytes]:
        return self.prover_bytes + self.verified[0].output_bytes()


def write_bundle(bundle: AssertionBundle, path: Path, tr: Tracer) -> None:
    with tr.span("verifier.AssertionBundle.write"):
        bundle.write(path)


def output_digest(parts: list[bytes]) -> str:
    """One SHA-256 over length-prefixed output byte strings."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()
