"""verify_envelope walks an accepted builtin payload once: under a
certification whose template is its type's builtin template, a payload that
fits its shape is accepted without the template matcher. These tests hold
that rule to the one it replaced, where every certification's template was
matched first, in store order, and the shape checked after a match."""

from __future__ import annotations

import copy
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from template_reference import JSON_VALUES, fitting

from lam.backend import issue_quote
from lam.certs import Certification, CertificationStore, Endorser, make_certification
from lam.fragments import ATT_SPECS, ATT_TYPES, AttestationEnvelope, builtin_template, shape_mismatch
from lam.hashcore import Digest, canonicalize, hash_bytes
from lam.verifier import match_template, verify_envelope

MEASUREMENT = Digest(bytes(range(32)))
ENDORSER = Endorser.create("acme", seed=b"one-walk")
KINDS = ("own", "custom", "wildcard", "other", "invalid")


def _certifications(att_type: str) -> dict[str, Certification]:
    """One certification of each kind for payloads of `att_type`: its
    builtin template, a custom one with the same keys all left open, a null
    template, another type's builtin template and an invalid template."""
    other = ATT_TYPES[(ATT_TYPES.index(att_type) + 1) % len(ATT_TYPES)]
    templates = {
        "own": builtin_template(att_type),
        "custom": dict.fromkeys(builtin_template(att_type)),
        "wildcard": None,
        "other": builtin_template(other),
    }
    certs = {kind: make_certification(ENDORSER, MEASUREMENT, template) for kind, template in templates.items()}
    # a corrupt store entry: make_certification refuses a float template
    certs["invalid"] = Certification(MEASUREMENT, {"att_type": att_type, "threshold": 0.5}, "acme", b"")
    return certs


CERTIFICATIONS = {att_type: _certifications(att_type) for att_type in ATT_TYPES}


def _match_first(payload: Any, certifications: list[Certification]) -> tuple[bool, str | None, str | None, Any]:
    """(accepted, reason, detail, certification) by the rule before the
    one-walk path: each certification, in store order, matched first."""
    invalid = None
    last_mismatch = None
    for cert in certifications:
        if cert.template_error is not None:
            invalid = cert.template_error
            continue
        result = match_template(cert.template, payload)
        if result.matched:
            att_type = payload.get("att_type") if isinstance(payload, dict) else None
            if not isinstance(att_type, str):
                att_type = None
            detail = shape_mismatch(att_type, payload) if att_type in ATT_SPECS else None
            if detail is not None:
                return (False, "template-mismatch", detail, None)
            return (True, None, None, cert)
        last_mismatch = result
    if invalid is not None:
        return (False, "invalid-certification", str(invalid), None)
    return (False, "template-mismatch", f"{last_mismatch.reason} at {last_mismatch.path or '/'}", None)


def _slots(value: Any):
    """(container, key) of every member of every object and array in `value`."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield value, key
            yield from _slots(item)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield value, i
            yield from _slots(item)


@st.composite
def _payloads(draw) -> tuple[str, Any]:
    """A payload that fits a builtin shape, or one with a single member
    changed, deleted or added (its att_type too)."""
    att_type = draw(st.sampled_from(ATT_TYPES))
    payload = draw(fitting(ATT_SPECS[att_type].shape))
    if draw(st.booleans()):
        payload = copy.deepcopy(payload)
        container, key = draw(st.sampled_from(list(_slots(payload))))
        change = draw(st.sampled_from(["set", "delete", "add"] if isinstance(container, dict) else ["set"]))
        if change == "set":
            container[key] = draw(JSON_VALUES | st.sampled_from(ATT_TYPES))
        elif change == "delete":
            del container[key]
        else:
            container[draw(st.text(max_size=6))] = draw(JSON_VALUES)
    return att_type, payload


@pytest.fixture(scope="module")
def quoted(test_platform):
    """The envelope of a payload, quoted under MEASUREMENT."""

    def envelope(payload: Any) -> AttestationEnvelope:
        data = canonicalize(payload)
        return AttestationEnvelope(data, issue_quote(test_platform, MEASUREMENT, hash_bytes(data)))

    return envelope


@settings(max_examples=300, deadline=None)
@given(_payloads(), st.permutations(KINDS), st.integers(1, len(KINDS)))
def test_one_walk_gives_the_match_first_verdict(quoted, test_root, drawn, order, count):
    att_type, payload = drawn
    certifications = [CERTIFICATIONS[att_type][kind] for kind in order[:count]]
    verdict = verify_envelope(quoted(payload), CertificationStore(certifications), {test_root.public_hex})
    certification = verdict.fragment.certification if verdict.accepted else None
    assert (verdict.accepted, verdict.reason, verdict.detail, certification) == _match_first(payload, certifications)


def test_a_builtin_template_names_its_type():
    for att_type, certs in CERTIFICATIONS.items():
        assert certs["own"].builtin_type == att_type
        assert [certs[kind].builtin_type for kind in ("custom", "wildcard", "invalid")] == [None, None, None]


def test_the_store_lends_its_list_of_certifications():
    certs = list(CERTIFICATIONS["IOAtt"].values())
    store = CertificationStore(certs)
    assert store.for_measurement(MEASUREMENT) == certs
    assert store.for_measurement(MEASUREMENT) is store.for_measurement(MEASUREMENT)
    assert not store.for_measurement(Digest(bytes(32)))
