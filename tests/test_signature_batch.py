"""Bulk signature checks in forked children: each child fills verdict slots
from the top of its slice down, this process takes each verdict when it is
asked for and checks any slot still empty, and the verdicts must be exactly
those of a serial loop, in any order of asking and whatever happens to a
child. No child outlives its batch.

Every test sets the CPU affinity it needs, so the suite behaves the same on
a single-CPU host."""

from __future__ import annotations

import os
import random
import signal
import threading
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lam.backend as backend
from lam.backend import _VERDICT, PARALLEL_MIN, Quote, _verify_hex, check_signatures, issue_quote, verify_quote
from lam.certs import CertificationStore, Endorser, make_certification
from lam.cli import main
from lam.errors import LamError
from lam.hashcore import canonicalize, hash_bytes, parse_canonical
from lam.fragments import AttestationEnvelope
from lam.verifier import AssertionBundle
from pipeline import written_value

CPUS = 4
COUNT = 2 * PARALLEL_MIN + 3
# One slice per child: CPUS - 1 slices of a little over 2 * PARALLEL_MIN / 3.
BOUNDS = [COUNT * i // (CPUS - 1) for i in range(CPUS)]
# Bad signatures in every slice: its first, middle and last quote.
PLANTED = {i for lo, hi in zip(BOUNDS, BOUNDS[1:]) for i in (lo, (lo + hi) // 2, hi - 1)}
EXPECTED = [i not in PLANTED for i in range(COUNT)]


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
    return written_value(AssertionBundle(tuple(envelopes), ()))


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


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _serial(quotes: list[Quote]) -> list[bool]:
    return [_verify_hex(q.attestation_pubkey, q.signature, q.signed_bytes()) for q in quotes]


def _memo(quote: Quote) -> object:
    """The quote's memo entry under its own key, as it is: a verdict, a
    pending (slots, index) mark, or None; reading it checks nothing."""
    return vars(quote).get(_VERDICT + quote.attestation_pubkey)


def _quotes(bundle: AssertionBundle) -> list[Quote]:
    return [e.quote for e in bundle.envelopes]


def test_forked_verdicts_equal_the_serial_loop(bundle_value, forks, test_root):
    quotes = _quotes(AssertionBundle.from_file_value(bundle_value))
    assert len(forks) == CPUS - 1
    assert all(type(_memo(q)) is tuple for q in quotes)  # pending, none taken yet
    assert _serial(quotes) == EXPECTED
    results = [verify_quote(q, {test_root.public_hex}) for q in quotes]
    assert [r is None for r in results] == EXPECTED
    assert {r for r in results if r is not None} == {"bad-signature"}
    assert [_memo(q) for q in quotes] == EXPECTED
    assert _no_child_left()  # taking the last slot reaped every child


def _ask(bundle_value, order: str, seed: int) -> None:
    """Ask the verdicts of a freshly parsed bundle in the order, and for a
    partial order only some of them; the bundle is dropped on return."""
    quotes = _quotes(AssertionBundle.from_file_value(bundle_value))
    rng = random.Random(seed)
    indices = list(range(COUNT))
    if order == "descending":
        indices.reverse()
    elif order != "ascending":
        rng.shuffle(indices)
        if order == "partial":
            indices = indices[: rng.randrange(COUNT)]
    for i in indices:
        assert quotes[i].verifies_under(quotes[i].attestation_pubkey) == EXPECTED[i]
    asked = set(indices)
    assert all(type(_memo(q)) is tuple for i, q in enumerate(quotes) if i not in asked)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(order=st.sampled_from(["ascending", "descending", "random", "partial"]), seed=st.integers(0, 2**32 - 1))
def test_any_order_of_asking_gives_the_serial_verdicts(bundle_value, forks, order, seed):
    before = len(forks)
    _ask(bundle_value, order, seed)
    assert len(forks) - before == CPUS - 1
    assert _no_child_left()


@pytest.mark.parametrize("failure", ["killed", "killed-midway", "raises", "silent-exit"])
def test_failed_children_are_rechecked_serially(bundle_value, forks, monkeypatch, failure):
    """A slot a failed child leaves empty is checked here when asked for."""
    parent = os.getpid()
    checks = []  # this process's checks; in a child, that child's
    real_verify = backend._verify_hex

    def verify(*triple):
        checks.append(1)
        if os.getpid() != parent:
            if failure == "killed" or (failure == "killed-midway" and len(checks) == 50):
                os.kill(os.getpid(), signal.SIGKILL)
            elif failure == "raises":
                raise RuntimeError("child failed")
            elif failure == "silent-exit":
                os._exit(0)
        return real_verify(*triple)

    monkeypatch.setattr(backend, "_verify_hex", verify)
    quotes = _quotes(AssertionBundle.from_file_value(bundle_value))
    assert len(forks) == CPUS - 1
    assert [q.verifies_under(q.attestation_pubkey) for q in quotes] == EXPECTED
    if failure != "killed-midway":  # no child filled a slot
        assert len(checks) == COUNT
    assert _no_child_left()


@pytest.mark.parametrize(
    ("count", "cpus", "expected_forks"),
    [(PARALLEL_MIN - 1, 64, 0), (PARALLEL_MIN, 2, 1), (COUNT, 1, 0), (COUNT, 2, 1), (COUNT, 3, 2)],
    ids=["below-threshold", "at-threshold", "one-cpu", "two-cpus", "three-cpus"],
)
def test_fork_count_follows_bundle_size_and_affinity(bundle_value, forks, monkeypatch, count, cpus, expected_forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    value = {**bundle_value, "envelopes": bundle_value["envelopes"][:count]}
    quotes = _quotes(AssertionBundle.from_file_value(value))
    assert len(forks) == expected_forks
    if not expected_forks:  # checked while parsing, as one serial bulk call: no mark
        assert [_memo(q) for q in quotes] == EXPECTED[:count]
    assert [q.verifies_under(q.attestation_pubkey) for q in quotes] == EXPECTED[:count]
    assert _no_child_left()


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
    assert [_memo(q) for q in _quotes(bundle)] == EXPECTED


def test_check_signatures_reaps_its_children(bundle_value, forks):
    quotes = [Quote.from_json_value(envelope["quote"]) for envelope in bundle_value["envelopes"]]
    assert forks == [] and all(_memo(q) is None for q in quotes)  # parsed without a check
    check_signatures([(q, q.attestation_pubkey) for q in quotes])
    assert len(forks) == CPUS - 1
    assert [q.verifies_under(q.attestation_pubkey) for q in quotes] == EXPECTED
    assert _no_child_left()


def test_a_dropped_bundle_reaps_its_children(bundle_value, forks, tmp_path):
    path = tmp_path / "bundle.json"
    path.write_bytes(canonicalize(bundle_value))
    bundle = AssertionBundle.read(path)
    assert len(forks) == CPUS - 1
    del bundle  # before any quote is asked about
    assert _no_child_left()


def test_lam_verify_leaves_no_child(bundle_value, forks, test_root, tmp_path, capsys):
    (tmp_path / "bundle.json").write_bytes(canonicalize(bundle_value))
    (tmp_path / "certifications.json").write_bytes(b"[]")
    (tmp_path / "trust.json").write_bytes(canonicalize({"manufacturer_roots": [test_root.public_hex]}))
    code = main([
        "verify", "--bundle", str(tmp_path / "bundle.json"), "--certstore", str(tmp_path / "certifications.json"),
        "--roots", str(tmp_path / "trust.json"), "--out", str(tmp_path / "out"),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert len(forks) == CPUS - 1
    assert out.count("REJECT bad-quote (bad-signature)") == len(PLANTED)
    assert out.count("REJECT unknown-enclave") == COUNT - len(PLANTED)
    assert _no_child_left()


def test_replaced_pending_quote_starts_with_no_memo_and_no_mark(bundle_value, forks, test_root):
    quotes = _quotes(AssertionBundle.from_file_value(bundle_value))
    quote = quotes[1]
    assert type(_memo(quote)) is tuple
    for copy in (replace(quote), replace(quote, signature=_flip(quote.signature))):
        assert _memo(copy) is None
        assert copy.verifies_under(copy.attestation_pubkey) == (copy.signature == quote.signature)
    assert type(_memo(quote)) is tuple  # the original is still pending
    assert verify_quote(quote, {test_root.public_hex}) is None
    del quotes, quote
    assert _no_child_left()


def test_replaced_quote_starts_without_a_memo(test_root, test_platform):
    quote = issue_quote(test_platform, hash_bytes(b"measurement"), hash_bytes(b"report"))
    assert quote.verifies_under(quote.attestation_pubkey)
    forged = replace(quote, signature=_flip(quote.signature))
    assert _memo(forged) is None
    assert not forged.verifies_under(forged.attestation_pubkey)
    assert verify_quote(forged, {test_root.public_hex}) == "bad-signature"
    fresh = Quote.from_json_value(parse_canonical(quote.canonical_bytes))
    assert _memo(fresh) is None
    assert fresh == quote and hash(fresh) == hash(quote) and repr(fresh) == repr(quote)


# Forged certifications at the edges of every slice but the first record.
STORE_FORGED = {i for lo, hi in zip(BOUNDS, BOUNDS[1:]) for i in (lo, hi - 1)} - {0}


@pytest.fixture(scope="module")
def store_files(tmp_path_factory):
    """A store of COUNT certifications, and its copy with STORE_FORGED forged;
    the endorser keys, and the first forged certification's measurement."""
    endorser = Endorser.create("store-endorser", seed="store-endorser")
    certs = [make_certification(endorser, hash_bytes(b"enclave %d" % i), None) for i in range(COUNT)]
    forged = [replace(c, signature=_flip(c.signature)) if i in STORE_FORGED else c for i, c in enumerate(certs)]
    directory = tmp_path_factory.mktemp("stores")
    CertificationStore(certs).save(directory / "genuine.json")
    CertificationStore(forged).save(directory / "forged.json")
    first = certs[min(STORE_FORGED)].enclave_measurement.hex[:12]
    return directory, {endorser.endorser_id: endorser.public_hex}, first


@pytest.mark.parametrize("cpus", [CPUS, 1])
@pytest.mark.parametrize("kind", ["genuine", "forged"])
def test_a_large_store_loads_or_refuses_alike_forked_and_serial(store_files, forks, monkeypatch, kind, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    directory, keys, first = store_files
    path = directory / f"{kind}.json"
    if kind == "genuine":
        assert len(CertificationStore.load(path, keys)) == COUNT
    else:
        with pytest.raises(LamError) as err:
            CertificationStore.load(path, keys)
        assert str(err.value) == (
            f"certification signature invalid (endorser 'store-endorser', measurement {first}): {path}"
        )
    assert len(forks) == (CPUS - 1 if cpus > 1 else 0)
    assert _no_child_left()  # every verdict was taken before the error was raised
