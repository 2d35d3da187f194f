"""External certificates parsed together are checked in bulk: their verdicts
equal one signature check per certificate, whatever the endorsers, keys or
forks; verify_bundle checks every endorser's certificates in one call, and
asking about one certificate checks no other endorser's."""

from __future__ import annotations

import gc
import os
import weakref
from dataclasses import replace

import lam.backend as backend
from lam.backend import PARALLEL_MIN, _verify_hex
from lam.certs import CertificationStore, Endorser, ExternalCertificate, make_external_certificate
from lam.hashcore import hash_bytes
from lam.verifier import AssertionBundle, verify_bundle
from pipeline import written_value

ALICE = Endorser.create("alice", seed="batch-alice")
BOB = Endorser.create("bob", seed="batch-bob")
CAROL = Endorser.create("carol", seed="batch-carol")  # no key registered for her
KEYS = {"alice": ALICE.public_hex, "bob": BOB.public_hex}


def _flip(signature: bytes) -> bytes:
    flipped = bytearray(signature)
    flipped[7] ^= 0x10
    return bytes(flipped)


def _certificates(endorsers: list[Endorser], forged: set[int]) -> list[ExternalCertificate]:
    certs = []
    for i, endorser in enumerate(endorsers):
        cert = make_external_certificate(endorser, hash_bytes(str(i).encode()), "dataset", f"set-{i}", {"i": i})
        certs.append(replace(cert, signature=_flip(cert.signature)) if i in forged else cert)
    return certs


def _parsed(certs: list[ExternalCertificate]) -> tuple[ExternalCertificate, ...]:
    """The certificates as a bundle parse gives them: one batch."""
    return AssertionBundle.from_file_value(written_value(AssertionBundle((), tuple(certs)))).external_certificates


def _one_by_one(certs, keys: dict[str, str]) -> list[bool]:
    return [c.endorser_id in keys and _verify_hex(keys[c.endorser_id], c.signature, c.signed_bytes()) for c in certs]


def test_bulk_verdicts_equal_one_check_per_certificate():
    certs = _certificates([ALICE, BOB, CAROL] * 4, forged={1, 4, 5, 9})
    result = verify_bundle(AssertionBundle((), _parsed(certs)), CertificationStore(), (), KEYS)
    expected = _one_by_one(certs, KEYS)
    assert [ok for _, ok in result.externals] == expected
    assert expected.count(True) == 5  # 8 with a registered key, 3 of them forged
    # keys that signed none of them, one not even hex
    wrong = {"alice": BOB.public_hex, "bob": "11" * 32, "carol": "not hex"}
    parsed = _parsed(certs)
    assert [c.verifies_under(wrong[c.endorser_id]) for c in parsed] == _one_by_one(certs, wrong) == [False] * 12
    # a second key gets its own verdicts
    assert [c.verifies_under(KEYS.get(c.endorser_id, "")) for c in parsed] == expected


def test_asking_about_one_endorser_checks_none_of_another(monkeypatch):
    parsed = _parsed(_certificates([ALICE, BOB, CAROL] * 3, forged=set()))
    checked = []
    real = backend._verify_hex

    def counting(key, signature, message):
        checked.append(key)
        return real(key, signature, message)

    monkeypatch.setattr(backend, "_verify_hex", counting)
    alice = [c for c in parsed if c.endorser_id == "alice"]
    assert alice[1].verifies_under(ALICE.public_hex)
    assert checked == [ALICE.public_hex] * len(alice)
    assert all(c._verdict(ALICE.public_hex) is None for c in parsed if c.endorser_id != "alice")
    assert all(c.verifies_under(ALICE.public_hex) for c in alice)
    assert len(checked) == len(alice)  # the others were answered from the memo


def test_replaced_certificate_starts_with_an_empty_memo_and_no_batch():
    cert = _parsed(_certificates([ALICE, BOB], forged=set()))[0]
    assert cert.verifies_under(ALICE.public_hex)
    renamed = replace(cert, name="renamed")
    assert renamed._verdict(ALICE.public_hex) is None and renamed._batch == ()
    assert not renamed.verifies_under(ALICE.public_hex)  # the name is signed
    assert renamed._batch == () and all(ref() is not renamed for ref in cert._batch)
    assert cert.verifies_under(ALICE.public_hex)
    restored = replace(renamed, name=cert.name)
    assert restored == cert and restored.verifies_under(ALICE.public_hex)


def test_forked_batch_equals_the_serial_check(monkeypatch):
    """Enough certificates by one endorser to take check_signatures' forked
    path; forged ones sit at the start, middle and end of the batch."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    count = 2 * PARALLEL_MIN + 3
    endorsers = [ALICE] * count + [BOB] * 3
    forged = {0, count // 4, count // 2, count - 1, count + 1}
    certs = _certificates(endorsers, forged)
    parsed = _parsed(certs)
    result = verify_bundle(AssertionBundle((), parsed), CertificationStore(), (), KEYS)
    assert len(forks) == 3
    assert [ok for _, ok in result.externals] == _one_by_one(certs, KEYS)
    assert [i for i, (_, ok) in enumerate(result.externals) if not ok] == sorted(forged)


def _counting_fork_checks(monkeypatch) -> list[int]:
    """Record the size of each bulk check (backend._fork_checks call) the certificates make."""
    calls = []
    real = backend._fork_checks

    def counting(count, check):
        calls.append(count)
        return real(count, check)

    monkeypatch.setattr(backend, "_fork_checks", counting)
    return calls


def test_verify_bundle_checks_every_endorser_in_one_call(monkeypatch):
    certs = _certificates([ALICE, BOB, CAROL] * 4, forged={2, 7})
    calls = _counting_fork_checks(monkeypatch)
    result = verify_bundle(AssertionBundle((), _parsed(certs)), CertificationStore(), (), KEYS)
    assert calls == [8]  # carol has no registered key
    assert [ok for _, ok in result.externals] == _one_by_one(certs, KEYS)


def test_bulk_check_skips_memoized_verdicts(monkeypatch):
    parsed = _parsed(_certificates([ALICE, BOB] * 3, forged={3}))
    calls = _counting_fork_checks(monkeypatch)
    assert parsed[0].verifies_under(ALICE.public_hex)
    result = verify_bundle(AssertionBundle((), parsed), CertificationStore(), (), KEYS)
    assert calls == [3, 3]  # alice's three when asked, then bob's three
    assert [ok for _, ok in result.externals] == [True, True, True, False, True, True]


def test_a_batch_holds_no_reference_cycle():
    """Dropping the parsed certificates frees them without the cyclic GC."""
    parsed = _parsed(_certificates([ALICE, BOB] * 2, forged=set()))
    assert parsed[0].verifies_under(ALICE.public_hex)
    refs = [weakref.ref(c) for c in parsed]
    gc.disable()
    try:
        del parsed
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
