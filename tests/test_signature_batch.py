"""Bulk signature checks at bundle parse time: forked slices must give
exactly the verdicts of a serial loop, whatever happens to a child.

Every test sets the CPU affinity it needs, so the suite behaves the same on
a single-CPU host."""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import replace

import pytest

import lam.backend as backend
from lam.backend import PARALLEL_MIN, Quote, _verify_hex, issue_quote, verify_quote
from lam.hashcore import hash_bytes
from lam.measurers import AttestationEnvelope
from lam.verifier import AssertionBundle

CPUS = 4
COUNT = 2 * PARALLEL_MIN + 3  # four slices of a little over PARALLEL_MIN / 2
BOUNDS = [COUNT * i // CPUS for i in range(CPUS + 1)]
# Bad signatures in every slice: its first, middle and last quote.
PLANTED = {i for lo, hi in zip(BOUNDS, BOUNDS[1:]) for i in (lo, (lo + hi) // 2, hi - 1)}


def _flip(data: bytes) -> bytes:
    flipped = bytearray(data)
    flipped[5] ^= 0x01
    return bytes(flipped)


@pytest.fixture(scope="module")
def bundle_value(test_platform):
    measurement = hash_bytes(b"signature-batch enclave")
    envelopes = []
    for i in range(COUNT):
        payload = str(i).encode()
        quote = issue_quote(test_platform, measurement, hash_bytes(payload))
        if i in PLANTED:
            quote = replace(quote, signature=_flip(quote.signature))
        envelopes.append(AttestationEnvelope(payload, quote))
    return AssertionBundle(tuple(envelopes), ()).to_file_value()


@pytest.fixture
def forks(monkeypatch):
    """Pretend CPUS usable CPUs; the list of os.fork calls this process makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(CPUS)))
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def _serial(quotes: list[Quote]) -> list[bool]:
    return [_verify_hex(q.attestation_pubkey, q.signature, q.signed_bytes()) for q in quotes]


def _memoized(quotes: list[Quote]) -> list[bool | None]:
    """Each quote's memoized verdict under its own key, without checking any."""
    return [q._verdict(q.attestation_pubkey) for q in quotes]


def test_forked_verdicts_equal_the_serial_loop(bundle_value, forks, test_root):
    bundle = AssertionBundle.from_file_value(bundle_value)
    quotes = [e.quote for e in bundle.envelopes]
    assert len(forks) == CPUS - 1
    expected = _serial(quotes)
    assert expected == [i not in PLANTED for i in range(COUNT)]
    assert _memoized(quotes) == expected
    results = [verify_quote(q, {test_root.public_hex}) for q in quotes]
    assert [r is None for r in results] == expected
    assert {r for r in results if r is not None} == {"bad-signature"}


class _ShortRead:
    def __init__(self, pipe):
        self.pipe = pipe

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.pipe.close()

    def read(self):
        return self.pipe.read()[:-1]


@pytest.mark.parametrize("failure", ["killed", "raises", "silent-exit", "short-read"])
def test_failed_children_are_rechecked_serially(bundle_value, forks, monkeypatch, failure):
    parent = os.getpid()
    parent_checks = []
    real_verify = backend._verify_hex

    def verify(*triple):
        if os.getpid() == parent:
            parent_checks.append(1)
        elif failure == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        elif failure == "raises":
            raise RuntimeError("child failed")
        elif failure == "silent-exit":
            os._exit(0)  # status 0, nothing sent
        return real_verify(*triple)

    monkeypatch.setattr(backend, "_verify_hex", verify)
    if failure == "short-read":
        real_fdopen = os.fdopen

        def fdopen(fd, mode="r", *args, **kwargs):
            pipe = real_fdopen(fd, mode, *args, **kwargs)
            return _ShortRead(pipe) if mode == "rb" else pipe

        monkeypatch.setattr(os, "fdopen", fdopen)

    bundle = AssertionBundle.from_file_value(bundle_value)
    quotes = [e.quote for e in bundle.envelopes]
    assert len(forks) == CPUS - 1
    assert len(parent_checks) == COUNT  # every child's slice again, here
    assert _memoized(quotes) == [i not in PLANTED for i in range(COUNT)]


@pytest.mark.parametrize(
    ("count", "cpus", "expected_forks"),
    [(PARALLEL_MIN - 1, 64, 0), (PARALLEL_MIN, 2, 1), (COUNT, 1, 0), (COUNT, 2, 1)],
    ids=["below-threshold", "at-threshold", "one-cpu", "two-cpus"],
)
def test_fork_count_follows_bundle_size_and_affinity(bundle_value, forks, monkeypatch, count, cpus, expected_forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    value = {**bundle_value, "envelopes": bundle_value["envelopes"][:count]}
    bundle = AssertionBundle.from_file_value(value)
    assert len(forks) == expected_forks
    assert _memoized([e.quote for e in bundle.envelopes]) == [i not in PLANTED for i in range(count)]


def test_no_fork_while_other_threads_run(bundle_value, forks):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    thread.start()
    try:
        bundle = AssertionBundle.from_file_value(bundle_value)
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert forks == []
    assert _memoized([e.quote for e in bundle.envelopes]) == [i not in PLANTED for i in range(COUNT)]


def test_replaced_quote_starts_without_a_memo(test_root, test_platform):
    quote = issue_quote(test_platform, hash_bytes(b"measurement"), hash_bytes(b"report"))
    assert quote.verifies_under(quote.attestation_pubkey)
    forged = replace(quote, signature=_flip(quote.signature))
    assert _memoized([forged]) == [None]
    assert not forged.verifies_under(forged.attestation_pubkey)
    assert verify_quote(forged, {test_root.public_hex}) == "bad-signature"
    fresh = Quote.from_json_value(quote.to_json_value())
    assert _memoized([fresh]) == [None]
    assert fresh == quote and hash(fresh) == hash(quote) and repr(fresh) == repr(quote)
