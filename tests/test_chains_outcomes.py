"""Every outcome of each linked chain edge is reached: ok, broken and each
of its blocked details.

The equivalence tests hold `resolve_chains` to the reference only on the
outcomes their generated bundles reach, so an outcome that no bundle reaches
is never compared. The generated bundles reach all but one; the bundle built
here reaches the last, `robustness_source` blocked for want of a test set.
"""

from __future__ import annotations

from chains_reference import reference_resolve_chains
from test_chains_equivalence import SHAPES, _fragment, _metric, generate_bundle

from lam.verifier import VerifiedFragment, resolve_chains

NO_POT = "blocked: no proof of training to link against"

# Each linked edge's outcomes: its status, and for blocked its detail.
LINKED_OUTCOMES = {
    "training_distribution": {"ok", "broken", NO_POT},
    "training_dataset_certificate": {"ok", "broken", NO_POT},
    "test_dataset_certificate": {"ok", "broken", "blocked: no attested test set"},
    "robustness_generation": {"ok", "broken", "blocked: no robustness attestation to ground"},
    "robustness_source": {
        "ok",
        "broken",
        "blocked: no grounded robust dataset",
        "blocked: no attested test set to compare against",
    },
}


def _outcomes(fragments: list[VerifiedFragment], externals=()) -> set[tuple[str, str]]:
    """(edge, outcome) for every linked edge of every model in the chain report."""
    report = resolve_chains(fragments, externals)
    seen = set()
    for entry in report.models.values():
        for name in LINKED_OUTCOMES:
            edge = entry["edges"][name]
            blocked = edge["status"] == "blocked"
            seen.add((name, f"blocked: {edge['detail']}" if blocked else edge["status"]))
    return seen


def _grounded_without_test_set() -> list[VerifiedFragment]:
    """A model with a proof of training and a robustness attestation whose
    robust dataset has a generation fragment, but no accuracy or fairness
    attestation: its robust dataset is grounded with no test set to compare
    the source against."""
    model, train, source, robust = (c * 64 for c in "abcd")
    metric = {"type": "robust_accuracy", "value": "0.500000", "numerator": 1, "denominator": 2}
    return [
        _fragment(
            {
                "att_type": "PoT",
                "model_sha256": model,
                "arch_sha256": "e" * 64,
                "dataset_sha256": train,
                "config_sha256": "f" * 64,
            }
        ),
        _fragment(
            {
                "att_type": "RobustAtt-A",
                "dataset_sha256": source,
                "robust_dataset_sha256": robust,
                "parameters": {"epsilon": "0.100000"},
            }
        ),
        _metric("RobustAtt-B", model, "robust_dataset_sha256", robust, metric),
    ]


def test_the_built_bundle_blocks_robustness_source_for_want_of_a_test_set():
    fragments = _grounded_without_test_set()
    report = resolve_chains(fragments)
    (entry,) = report.models.values()
    assert entry["edges"]["robustness_source"] == {
        "status": "blocked",
        "detail": "no attested test set to compare against",
    }
    assert report.canonical_bytes() == reference_resolve_chains(fragments).canonical_bytes()


def test_every_linked_edge_outcome_is_reached():
    seen = _outcomes(_grounded_without_test_set())
    for shape in SHAPES:
        for seed in range(8):
            seen |= _outcomes(*generate_bundle(shape, seed))
    # each outcome is reached, and a linked edge has no other
    assert seen == {(name, outcome) for name, outcomes in LINKED_OUTCOMES.items() for outcome in outcomes}
