from __future__ import annotations

from dataclasses import replace

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from lam.cards import assemble_cards
from lam.errors import CardConflictError
from lam.hashcore import canonicalize
from lam.measurers import attest_accuracy, attest_distribution, attest_fairness, attest_inference, attest_robustness
from lam.verifier import AssertionBundle, resolve_chains, verify_bundle, verify_envelope
from pipeline import default_config, sixrow_pipeline, written_value


@pytest.fixture(scope="module")
def pipe():
    return sixrow_pipeline()


def _fragments(pipe, envelopes=None):
    envs = envelopes if envelopes is not None else list(pipe.envelopes.values())
    out = []
    for env in envs:
        verdict = verify_envelope(env, pipe.store, pipe.roots)
        assert verdict.accepted, (verdict.reason, verdict.detail)
        out.append(verdict.fragment)
    return out


def _other_model(pipe):
    cfg = default_config()
    other_cfg = type(cfg)(
        architecture=cfg.architecture,
        epochs=cfg.epochs,
        learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size,
        optimizer=cfg.optimizer,
        rng_seed=NotImplemented if False else 777,
    )
    from lam.engine.model import train

    return train(pipe.train_ds, other_cfg)


# --- chain resolution ---------------------------------------------------------


def test_full_bundle_all_links_green(pipe):
    report = resolve_chains(_fragments(pipe), pipe.externals)
    m = pipe.model.digest.hex
    assert m in report.models
    entry = report.models[m]
    assert report.broken_edges(m) == set()
    assert all(e["status"] == "ok" for e in entry["edges"].values())
    assert entry["complete"]
    conclusion = entry["conclusion"]
    assert m[:12] in conclusion
    assert pipe.train_ds.digest.hex[:12] in conclusion
    assert "fixture-test" in conclusion
    assert report.orphans == []


def test_datasheet_side_of_report(pipe):
    report = resolve_chains(_fragments(pipe), pipe.externals)
    train_hex = pipe.train_ds.digest.hex
    assert report.datasets[train_hex]["distribution_kinds"] == ["conditional", "marginal"]
    assert report.datasets[train_hex]["certificate"]["name"] == "fixture-train"
    test_hex = pipe.test_ds.digest.hex
    assert report.datasets[test_hex]["distribution_kinds"] == []
    assert report.datasets[test_hex]["certificate"]["name"] == "fixture-test"


def _broken_edges_after(pipe, *, drop=frozenset(), extra=()):
    envs = [env for name, env in pipe.envelopes.items() if name not in drop]
    envs.extend(extra)
    report = resolve_chains(_fragments(pipe, envs), pipe.externals)
    return report, report.broken_edges(pipe.model.digest.hex)


def test_breakage_wrong_model_in_accatt(pipe):
    other = _other_model(pipe)
    stray = attest_accuracy(other, pipe.test_ds, enclave=pipe.enclaves["metric"], platform=pipe.platform)
    report, broken = _broken_edges_after(pipe, drop={"acc"}, extra=[stray])
    assert broken == {"accuracy"}
    assert any(o["att_type"] == "AccAtt" and o["model_sha256"] == other.digest.hex for o in report.orphans)


def test_breakage_missing_robust_a(pipe):
    report, broken = _broken_edges_after(pipe, drop={"robgen"})
    assert broken == {"robustness_generation"}
    edges = report.models[pipe.model.digest.hex]["edges"]
    assert edges["robustness_source"]["status"] == "blocked"


def test_breakage_distatt_for_wrong_dataset(pipe):
    stray = attest_distribution(
        pipe.test_ds, "marginal", enclave=pipe.enclaves["dataset"], platform=pipe.platform
    )
    report, broken = _broken_edges_after(pipe, drop={"dist-marginal", "dist-conditional"}, extra=[stray])
    assert broken == {"training_distribution"}


def test_breakage_missing_pot(pipe):
    report, broken = _broken_edges_after(pipe, drop={"pot"})
    assert broken == {"pot"}
    edges = report.models[pipe.model.digest.hex]["edges"]
    assert edges["training_distribution"]["status"] == "blocked"
    assert edges["training_dataset_certificate"]["status"] == "blocked"
    # everything else still links
    assert edges["accuracy"]["status"] == "ok"
    assert edges["robustness_generation"]["status"] == "ok"


def test_breakage_robust_source_not_test_set(pipe):
    _, robgen, robacc = attest_robustness(
        pipe.model, pipe.train_ds, "0.100000", enclave=pipe.enclaves["metric"], platform=pipe.platform
    )
    report, broken = _broken_edges_after(pipe, drop={"robgen", "robacc"}, extra=[robgen, robacc])
    assert broken == {"robustness_source"}


def test_breakage_ioatt_for_wrong_model(pipe):
    other = _other_model(pipe)
    _, stray = attest_inference(other, [1.0, 0.5], enclave=pipe.enclaves["inference"], platform=pipe.platform)
    report, broken = _broken_edges_after(pipe, drop={"io"}, extra=[stray])
    assert broken == {"inference"}
    assert any(o["att_type"] == "IOAtt" for o in report.orphans)


def test_robust_b_without_a_marked_ungrounded(pipe):
    report, broken = _broken_edges_after(pipe, drop={"robgen"})
    entry = report.models[pipe.model.digest.hex]
    assert entry["edges"]["robustness_generation"]["status"] == "broken"
    assert not entry["complete"]


def test_report_bytes_deterministic(pipe):
    frags = _fragments(pipe)
    r1 = resolve_chains(frags, pipe.externals).canonical_bytes()
    r2 = resolve_chains(list(frags), list(pipe.externals)).canonical_bytes()
    assert r1 == r2


# --- card assembly ------------------------------------------------------------


def test_full_bundle_card_set(pipe):
    frags = _fragments(pipe)
    cards = assemble_cards(frags, pipe.externals)
    kinds = sorted(c.card_kind for c in cards)
    # datasheets: the training set plus the generated robust set
    assert kinds == ["dataset", "dataset", "inference", "model"]

    model_card = next(c for c in cards if c.card_kind == "model")
    assert model_card.subject_sha256 == pipe.model.digest.hex
    doc = yaml.safe_load(model_card.yaml_bytes())
    index = doc["model-index"][0]
    assert index["name"] == pipe.model.digest.hex
    metric_types = {
        m["type"] for result in index["results"] for m in result["metrics"]
    }
    assert metric_types == {"accuracy", "demographic_parity", "robust_accuracy"}
    rob = next(
        m for result in index["results"] for m in result["metrics"] if m["type"] == "robust_accuracy"
    )
    assert rob["parameters"]["epsilon"] == "0.100000"
    assert all(
        m["verified"] is True for result in index["results"] for m in result["metrics"]
    )
    training = doc["training"]
    assert training["dataset"]["sha256"] == pipe.train_ds.digest.hex
    assert training["dataset"]["name"] == "fixture-train"
    assert training["config_sha256"] == pipe.config.digest.hex
    assert training["architecture_sha256"] == pipe.config.architecture.digest.hex
    # test-set results get their endorsed name
    named = [r["dataset"]["name"] for r in index["results"]]
    assert "fixture-test" in named


def test_datasheet_contents(pipe):
    cards = assemble_cards(_fragments(pipe), pipe.externals)
    sheets = {c.subject_sha256: c for c in cards if c.card_kind == "dataset"}

    doc = yaml.safe_load(sheets[pipe.train_ds.digest.hex].yaml_bytes())["datasheet"]
    assert doc["sha256"] == pipe.train_ds.digest.hex
    assert doc["name"] == "fixture-train"
    kinds = [d["kind"] for d in doc["distributions"]]
    assert kinds == ["conditional", "marginal"]
    marginal = next(d for d in doc["distributions"] if d["kind"] == "marginal")
    assert marginal["counts"] == {"0": 3, "1": 3}
    assert marginal["verified"] is True
    assert doc["endorsements"][0]["name"] == "fixture-train"

    rob_doc = yaml.safe_load(sheets[pipe.d_rob.digest.hex].yaml_bytes())["datasheet"]
    assert rob_doc["generation"]["source"]["sha256"] == pipe.test_ds.digest.hex
    assert rob_doc["generation"]["epsilon"] == "0.100000"
    assert rob_doc["distributions"] == []


def test_inference_card_contents(pipe):
    cards = assemble_cards(_fragments(pipe), pipe.externals)
    card = next(c for c in cards if c.card_kind == "inference")
    doc = yaml.safe_load(card.yaml_bytes())["inference"]
    io_payload = pipe.envelopes["io"].payload_value()
    assert doc["model_sha256"] == pipe.model.digest.hex
    assert doc["input_sha256"] == io_payload["input_sha256"]
    assert doc["output"] == io_payload["output"]
    assert doc["verified"] is True


def test_fixture_metric_values_appear_on_cards(pipe, fixture_a, constant_model, pattern_model):
    """Cards carry the hand-derived fixture metrics for the models that
    produced them (4/6 accuracy; |2/3 - 1/3| parity)."""
    acc_env = attest_accuracy(
        constant_model, fixture_a, enclave=pipe.enclaves["metric"], platform=pipe.platform
    )
    fair_env = attest_fairness(
        pattern_model, fixture_a, enclave=pipe.enclaves["metric"], platform=pipe.platform
    )
    cards = assemble_cards(_fragments(pipe, [acc_env, fair_env]))
    by_subject = {c.subject_sha256: c for c in cards}

    acc_card = by_subject[constant_model.digest.hex]
    metric = acc_card.body["model-index"][0]["results"][0]["metrics"][0]
    assert metric["type"] == "accuracy"
    assert metric["value"] == "0.666667"
    assert (metric["numerator"], metric["denominator"]) == (4, 6)

    fair_card = by_subject[pattern_model.digest.hex]
    metric = fair_card.body["model-index"][0]["results"][0]["metrics"][0]
    assert metric["value"] == "0.333333"


def test_every_claim_traces_to_provenance(pipe):
    cards = assemble_cards(_fragments(pipe), pipe.externals)
    for card in cards:
        claims = [claim for entry in card.provenance for claim in entry["claims"]]
        assert claims, card.card_kind
        assert len(set(claims)) == len(claims) or card.card_kind == "model"
        for entry in card.provenance:
            assert "fragment_sha256" in entry or "external_certificate" in entry


def test_bundle_with_only_distatt(pipe):
    cards = assemble_cards(_fragments(pipe, [pipe.envelopes["dist-marginal"]]))
    assert [c.card_kind for c in cards] == ["dataset"]


def test_duplicate_fragments_merge_idempotently(pipe):
    frags = _fragments(pipe)
    doubled = frags + frags
    cards_once = assemble_cards(frags, pipe.externals)
    cards_twice = assemble_cards(doubled, pipe.externals)
    assert [c.yaml_bytes() for c in cards_once] == [c.yaml_bytes() for c in cards_twice]
    chains_once = resolve_chains(frags, pipe.externals).canonical_bytes()
    assert resolve_chains(doubled, pipe.externals).canonical_bytes() == chains_once


@settings(max_examples=40, deadline=None)
@given(copies=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), min_size=1, max_size=6))
def test_repeated_envelopes_leave_chains_and_cards_unchanged(pipe, copies):
    """A bundle file that repeats any of its envelopes, anywhere, verifies to
    the chain report and cards of that bundle with every later copy removed
    (provenance follows bundle order, so a copy placed before its original
    moves that fragment up)."""
    value = written_value(pipe.bundle())
    envelopes = value["envelopes"]
    for which, where in copies:
        envelopes.insert(where % (len(envelopes) + 1), envelopes[which % len(envelopes)])
    once = {**value, "envelopes": list({e["payload_b64"]: e for e in envelopes}.values())}

    def outputs(bundle_value):
        bundle = AssertionBundle.from_file_value(bundle_value)
        result = verify_bundle(bundle, pipe.store, pipe.roots, pipe.endorser_keys)
        return result.report.canonical_bytes(), [c.yaml_bytes() for c in result.cards]

    assert len(once["envelopes"]) == len(pipe.envelopes)
    assert outputs(value) == outputs(once)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bundle_order_moves_only_provenance(pipe, data):
    """Under any order of the six-row bundle's envelopes, the chain report
    and every card's body are byte-identical, and each card's provenance
    holds the same entries; only their order may follow the bundle's."""
    value = written_value(pipe.bundle())
    order = data.draw(st.permutations(range(len(value["envelopes"]))))

    def outputs(envelopes):
        bundle = AssertionBundle.from_file_value({**value, "envelopes": envelopes})
        result = verify_bundle(bundle, pipe.store, pipe.roots, pipe.endorser_keys)
        cards = [(c.filename, replace(c, provenance=[]).yaml_bytes()) for c in result.cards]
        provenance = [sorted(canonicalize(entry) for entry in c.provenance) for c in result.cards]
        return result.report.canonical_bytes(), cards, provenance

    assert outputs([value["envelopes"][i] for i in order]) == outputs(value["envelopes"])


def test_conflicting_metric_values_raise(pipe, fixture_a, fixture_b, constant_model):
    """Same (model, dataset, metric) key, different value: hard error."""
    env_a = attest_accuracy(constant_model, fixture_a, enclave=pipe.enclaves["metric"], platform=pipe.platform)
    frag_a = verify_envelope(env_a, pipe.store, pipe.roots).fragment
    # hand-build a conflicting fragment asserting a different accuracy
    import copy

    from lam.backend import issue_quote
    from lam.hashcore import canonicalize, hash_bytes
    from lam.fragments import AttestationEnvelope

    payload = copy.deepcopy(frag_a.payload)
    payload["results"]["metrics"][0]["value"] = "0.833333"
    payload["results"]["metrics"][0]["numerator"] = 5
    forged_bytes = canonicalize(payload)
    quote = issue_quote(pipe.platform, pipe.enclaves["metric"].measurement, hash_bytes(forged_bytes))
    env_b = AttestationEnvelope(payload=forged_bytes, quote=quote)
    frag_b = verify_envelope(env_b, pipe.store, pipe.roots).fragment

    with pytest.raises(CardConflictError) as err:
        assemble_cards([frag_a, frag_b])
    assert frag_a.fragment_sha256.hex in str(err.value)
    assert frag_b.fragment_sha256.hex in str(err.value)


def test_removing_one_envelope_removes_only_its_claims(pipe):
    """Per-envelope removal diff: exactly that envelope's claims disappear."""
    baseline = {
        c.filename: yaml.safe_load(c.yaml_bytes())
        for c in assemble_cards(_fragments(pipe), pipe.externals)
    }
    for name in pipe.envelopes:
        remaining = [env for n, env in pipe.envelopes.items() if n != name]
        cards = {
            c.filename: yaml.safe_load(c.yaml_bytes())
            for c in assemble_cards(_fragments(pipe, remaining), pipe.externals)
        }
        changed = {
            f for f in set(baseline) | set(cards) if baseline.get(f) != cards.get(f)
        }
        assert len(changed) == 1, (name, changed)


def test_yaml_values_stay_strings(pipe):
    cards = assemble_cards(_fragments(pipe), pipe.externals)
    model_card = next(c for c in cards if c.card_kind == "model")
    doc = yaml.safe_load(model_card.yaml_bytes())
    for result in doc["model-index"][0]["results"]:
        for metric in result["metrics"]:
            assert isinstance(metric["value"], str)
