"""The indexed `resolve_chains` and `assemble_cards` against the quadratic
scans in `chains_reference.py`, on generated bundles of verified fragments.

Fragments are built directly (no quotes): chain resolution and card assembly
only read payloads, digests and certifications.
"""

from __future__ import annotations

import random
from typing import Any

import pytest
import yaml

from chains_reference import reference_assemble_cards, reference_resolve_chains
from lam.cards import assemble_cards
from lam.certs import Endorser, ExternalCertificate, make_certification, make_external_certificate
from lam.errors import CardConflictError
from lam.hashcore import Digest, canonicalize, hash_bytes
from lam.measurers import ATT_TYPES, TASK, builtin_template
from lam.verifier import VerifiedFragment, resolve_chains

ENDORSER = Endorser.create("equivalence", seed=b"equivalence-endorser")
CERTIFICATIONS = {
    att: make_certification(ENDORSER, hash_bytes(att.encode()), builtin_template(att)) for att in ATT_TYPES
}

SHAPES = ("plain", "shuffled-duplicates", "two-pots", "shared-tests", "orphans-missing", "conflict", "all")


def _fragment(payload: dict[str, Any]) -> VerifiedFragment:
    data = canonicalize(payload)
    cert = CERTIFICATIONS[payload["att_type"]]
    return VerifiedFragment(
        payload=payload,
        fragment_sha256=hash_bytes(data),
        att_type=payload["att_type"],
        measurement=cert.enclave_measurement,
        certification=cert,
    )


def _metric(att_type: str, model: str, digest_field: str, dataset: str, metric: dict[str, Any]) -> VerifiedFragment:
    return _fragment(
        {
            "att_type": att_type,
            "model_sha256": model,
            digest_field: dataset,
            "results": {"task": TASK, "metrics": [metric]},
        }
    )


def _inference(model: str, input_hex: str, output_hex: str, label: int) -> VerifiedFragment:
    return _fragment(
        {
            "att_type": "IOAtt",
            "model_sha256": model,
            "input_sha256": input_hex,
            "output_sha256": output_hex,
            "output": {"class": label},
        }
    )


def _value(rng: random.Random) -> str:
    return f"0.{rng.randrange(10**6):06d}"


def generate_bundle(shape: str, seed: int) -> tuple[list[VerifiedFragment], list[ExternalCertificate]]:
    """Fragments and external certificates of one bundle shape:
    - shuffled-duplicates: fragments in random order, some repeated;
    - two-pots: a second, different proof of training for some models;
    - shared-tests: every model evaluated on the same two test sets;
    - orphans-missing: fragments for models with no proof of training, and
      fragments dropped at random, so edges break;
    - conflict: one model gets two different accuracies on one test set."""
    rng = random.Random(f"{shape}-{seed}")
    digest = lambda: rng.randbytes(32).hex()  # noqa: E731
    shared_tests = [digest(), digest()]
    frags: list[VerifiedFragment] = []
    endorsed: list[tuple[str, str]] = []
    models = [digest() for _ in range(rng.randint(1, 6))]

    for i, m in enumerate(models):
        train = digest() if i == 0 or rng.random() < 0.7 else endorsed[0][0]
        if shape in ("shared-tests", "all"):
            tests = rng.sample(shared_tests, rng.randint(1, 2))
        else:
            tests = [digest() for _ in range(rng.randint(1, 2))]
        endorsed.append((train, f"train-{i}"))
        endorsed.extend((t, f"test-{i}-{k}") for k, t in enumerate(tests))

        pot = {
            "att_type": "PoT",
            "model_sha256": m,
            "arch_sha256": digest(),
            "dataset_sha256": train,
            "config_sha256": digest(),
        }
        frags.append(_fragment(pot))
        if shape in ("two-pots", "all") and rng.random() < 0.6:
            frags.append(_fragment({**pot, "dataset_sha256": digest(), "config_sha256": digest()}))
        for kind in rng.sample(["marginal", "conditional"], rng.randint(1, 2)):
            prop = {"kind": kind, "counts": [len(kind), int(train[:2], 16)]}
            frags.append(_fragment({"att_type": "DistAtt", "dataset_sha256": train, "property": prop}))
        for t in tests:
            n = rng.randint(1, 100)
            accuracy = {"type": "accuracy", "value": _value(rng), "numerator": rng.randint(0, n), "denominator": n}
            parity = {"type": "demographic_parity", "value": _value(rng), "parameters": {"sensitive": "z"}}
            frags.append(_metric("AccAtt", m, "dataset_sha256", t, accuracy))
            frags.append(_metric("FairAtt", m, "dataset_sha256", t, parity))
            rob = digest()
            eps = rng.choice(["0.100000", "0.250000"])
            generation = {
                "att_type": "RobustAtt-A",
                "dataset_sha256": rng.choice([t, digest()]),
                "robust_dataset_sha256": rob,
                "parameters": {"epsilon": eps},
            }
            robust = {"type": "robust_accuracy", "value": _value(rng), "numerator": 1, "denominator": 2}
            frags.append(_fragment(generation))
            frags.append(_metric("RobustAtt-B", m, "robust_dataset_sha256", rob, robust))
        for _ in range(rng.randint(0, 3)):
            frags.append(_inference(m, digest(), digest(), rng.randint(0, 1)))

    if shape in ("orphans-missing", "all"):
        for _ in range(rng.randint(1, 3)):
            stray = digest()
            accuracy = {"type": "accuracy", "value": _value(rng), "numerator": 1, "denominator": 1}
            frags.append(_metric("AccAtt", stray, "dataset_sha256", digest(), accuracy))
            frags.append(_inference(stray, digest(), digest(), 0))
        frags = [f for f in frags if rng.random() < 0.75]
    if shape in ("conflict", "all"):
        accs = [f for f in frags if f.att_type == "AccAtt"]
        if accs:
            victim = rng.choice(accs).payload
            metric = {**victim["results"]["metrics"][0], "value": "1.500000"}
            frags.append(_metric("AccAtt", victim["model_sha256"], "dataset_sha256", victim["dataset_sha256"], metric))
    if shape in ("shuffled-duplicates", "all"):
        frags.extend(rng.choices(frags, k=len(frags) // 3))
        frags.extend(_fragment(dict(f.payload)) for f in rng.sample(frags, len(frags) // 4))
    if shape != "plain":
        rng.shuffle(frags)

    externals = []
    for subject, name in dict(endorsed).items():
        if rng.random() < 0.8:
            claims = {"rows": rng.randrange(1000)}
            externals.append(make_external_certificate(ENDORSER, Digest.from_hex(subject), "dataset", name, claims))
    for m in models:
        if rng.random() < 0.3:
            externals.append(make_external_certificate(ENDORSER, Digest.from_hex(m), "model", f"model-{m[:6]}"))
    rng.shuffle(externals)
    return frags, externals


def _outcome(resolve, assemble, yaml_of, frags, externals) -> tuple[bytes, Any]:
    report = resolve(frags, externals).canonical_bytes()
    try:
        cards = assemble(frags, externals)
    except CardConflictError as exc:
        return report, f"conflict: {exc}"
    return report, [(card.filename, yaml_of(card)) for card in cards]


def _reference_yaml(card) -> bytes:
    document = card.document()
    return yaml.safe_dump(document, sort_keys=False, default_flow_style=False, allow_unicode=True).encode("utf-8")


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("shape", SHAPES)
def test_indexed_chains_and_cards_match_reference(shape, seed):
    frags, externals = generate_bundle(shape, seed)
    got = _outcome(resolve_chains, assemble_cards, lambda card: card.yaml_bytes(), frags, externals)
    want = _outcome(reference_resolve_chains, reference_assemble_cards, _reference_yaml, frags, externals)
    assert got[0] == want[0]
    assert got[1] == want[1]


def test_generated_shapes_exercise_what_they_name():
    """The shapes really contain conflicts, orphans, broken edges, shared
    test sets and models with two proofs of training."""
    seen = {"conflict": 0, "orphans": 0, "broken": 0, "shared": 0, "two-pots": 0}
    for shape in SHAPES:
        for seed in range(8):
            frags, externals = generate_bundle(shape, seed)
            report = resolve_chains(frags, externals)
            seen["orphans"] += bool(report.orphans)
            seen["broken"] += any(report.broken_edges(m) for m in report.models)
            pots: dict[str, set[str]] = {}
            tests: dict[str, set[str]] = {}
            for f in frags:
                if f.att_type == "PoT":
                    pots.setdefault(f.payload["model_sha256"], set()).add(f.fragment_sha256.hex)
                if f.att_type == "AccAtt":
                    tests.setdefault(f.payload["dataset_sha256"], set()).add(f.payload["model_sha256"])
            seen["two-pots"] += any(len(p) > 1 for p in pots.values())
            seen["shared"] += any(len(m) > 1 for m in tests.values())
            try:
                assemble_cards(frags, externals)
            except CardConflictError:
                seen["conflict"] += 1
    assert all(count >= 3 for count in seen.values()), seen


def _collection_ids(value: Any, ids: list[int]) -> list[int]:
    if isinstance(value, (dict, list)):
        ids.append(id(value))
        for item in value.values() if isinstance(value, dict) else value:
            _collection_ids(item, ids)
    return ids


def test_no_card_holds_a_collection_twice():
    """Card YAML writes a repeated list or dict out in full where
    yaml.safe_dump would anchor it, so the two agree only because
    assemble_cards never puts one collection object twice into a card."""
    cards_checked = 0
    for shape in SHAPES:
        for seed in range(8):
            frags, externals = generate_bundle(shape, seed)
            try:
                cards = assemble_cards(frags, externals)
            except CardConflictError:
                continue
            for card in cards:
                ids = _collection_ids(card.document(), [])
                assert len(ids) == len(set(ids)), (shape, seed, card.filename)
            cards_checked += len(cards)
    assert cards_checked > 500
