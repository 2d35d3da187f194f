"""Artefacts are immutable, so their canonical bytes and digests are
computed once per object and can never go stale."""

from __future__ import annotations

import pytest

import lam.engine.model
import lam.fragments
from lam.engine.data import Dataset
from lam.fragments import default_enclaves
from lam.hashcore import hash_bytes
from lam.measurers import attest_inference


def test_model_arrays_are_read_only(pattern_model):
    with pytest.raises(ValueError):
        pattern_model.weights[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        pattern_model.biases[0][0] = 1.0


def test_dataset_arrays_are_read_only(fixture_a):
    with pytest.raises(ValueError):
        fixture_a.features[0, 0] = 1.0
    with pytest.raises(ValueError):
        fixture_a.labels[0] = 1
    with pytest.raises(ValueError):
        fixture_a.sensitive[0] = 1


def test_cached_model_digests_match_fresh_computation(pattern_model, small_config):
    for artefact in (pattern_model, pattern_model.architecture, small_config, small_config.architecture):
        assert artefact.digest is artefact.digest
        assert artefact.digest == hash_bytes(type(artefact).canonical_bytes.func(artefact))


def test_cached_dataset_digest_matches_fresh_computation(fixture_a):
    digest = fixture_a.digest
    assert fixture_a.digest is digest
    fresh = Dataset.canonical_bytes.func(fixture_a)
    assert fresh == fixture_a.canonical_bytes
    assert digest == hash_bytes(fresh)


def test_inference_attestations_digest_the_model_once(pattern_model, test_platform, monkeypatch):
    model_files, measure_calls = [], []
    model_file = lam.engine.model._ModelFile
    measure_enclave = lam.fragments.measure_enclave

    def counting_model_file(**fields):
        model_files.append(fields)
        return model_file(**fields)

    def counting_measure_enclave(*args):
        measure_calls.append(args)
        return measure_enclave(*args)

    monkeypatch.setattr(lam.engine.model, "_ModelFile", counting_model_file)
    monkeypatch.setattr(lam.fragments, "measure_enclave", counting_measure_enclave)
    enclave = default_enclaves()["inference"]
    payloads = set()
    for i in range(50):
        _, envelope = attest_inference(pattern_model, [float(i % 3), 0.5], enclave=enclave, platform=test_platform)
        payloads.add(envelope.payload)
    assert len(model_files) == 1
    assert len(measure_calls) == 1
    assert len(payloads) == 3
