"""Every fragment a certified enclave can quote ends in a verdict.

Each single-field deletion or swap of each builtin attestation type's
fragment is re-quoted under its enclave and run through verify_bundle, the
chain report and every card's YAML: the outcome must be a verdict or a
LamError, never another exception, both under the builtin certifications and
under a certification that leaves every top-level field a null wildcard.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Iterator

import pytest

from lam.backend import issue_quote
from lam.certs import CertificationStore, make_certification
from lam.errors import LamError
from lam.hashcore import canonicalize, hash_bytes
from lam.measurers import ATT_TYPES, AttestationEnvelope
from lam.verifier import AssertionBundle, verify_bundle
from pipeline import sixrow_pipeline

DELETE = object()
SWAPS = (None, True, 0, "", "x", [], {}, ["x"], {"a": 1}, [{}])


@pytest.fixture(scope="module")
def pipe():
    return sixrow_pipeline()


def _sites(value: Any, path: tuple = ()) -> Iterator[tuple]:
    """The path of every object member and array element below `value`."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _sites(child, path + (key,))


def _mutate(fragment: dict[str, Any], path: tuple, new: Any) -> dict[str, Any]:
    mutated = copy.deepcopy(fragment)
    parent = mutated
    for key in path[:-1]:
        parent = parent[key]
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(new)
    return mutated


def _wildcard_store(pipe) -> CertificationStore:
    """One certification per envelope: its enclave, every top-level key of
    its fragment a null wildcard."""
    return CertificationStore(
        [
            make_certification(pipe.endorser, env.quote.enclave_measurement, dict.fromkeys(json.loads(env.payload)))
            for env in pipe.envelopes.values()
        ]
    )


@pytest.mark.parametrize("certifications", ["builtin", "wildcard"])
@pytest.mark.parametrize("att_type", ATT_TYPES)
def test_every_single_field_mutation_ends_in_a_verdict(pipe, att_type, certifications):
    store = pipe.store if certifications == "builtin" else _wildcard_store(pipe)
    name = next(n for n, env in pipe.envelopes.items() if json.loads(env.payload)["att_type"] == att_type)
    original = pipe.envelopes[name]
    fragment = json.loads(original.payload)

    crashes = []
    count = 0
    for path in _sites(fragment):
        for new in (DELETE, *SWAPS):
            payload = canonicalize(_mutate(fragment, path, new))
            quote = issue_quote(pipe.platform, original.quote.enclave_measurement, hash_bytes(payload))
            envelopes = {**pipe.envelopes, name: AttestationEnvelope(payload, quote)}
            bundle = AssertionBundle(tuple(envelopes.values()), tuple(pipe.externals))
            count += 1
            try:
                result = verify_bundle(bundle, store, pipe.roots, pipe.endorser_keys)
                result.report.canonical_bytes()
                for card in result.cards:
                    card.yaml_bytes()
            except LamError:
                pass
            except Exception as exc:  # noqa: BLE001 - any other exception is the failure under test
                label = "delete" if new is DELETE else repr(new)
                crashes.append(f"/{'/'.join(map(str, path))} {label}: {type(exc).__name__}: {exc}")
    assert count > 0
    assert not crashes, "\n".join(crashes)
