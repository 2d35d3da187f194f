"""Measured quantities: accuracy, demographic parity, robust accuracy, and
distributional properties. Each function returns the JSON value its fragment
carries: a metric entry of `results.metrics`, or DistAtt's `property`. Counts
are exact integers; every reported ratio is the half-even 6-decimal formatting
of its numerator/denominator."""

from __future__ import annotations

from typing import Any

from ..errors import DomainError
from ..hashcore import ratio_string
from .data import Dataset
from .model import Model, predicted_classes


def accuracy(model: Model, dataset: Dataset) -> dict[str, Any]:
    """Fraction of rows whose predicted class equals the label."""
    if dataset.num_rows == 0:
        raise DomainError("accuracy undefined on an empty dataset")
    preds = predicted_classes(model, dataset.features)
    correct = int((preds == dataset.labels).sum())
    n = dataset.num_rows
    return {"type": "accuracy", "value": ratio_string(correct, n), "numerator": correct, "denominator": n}


def robust_accuracy(model: Model, d_rob: Dataset, epsilon: str) -> dict[str, Any]:
    """Accuracy over an adversarially perturbed dataset made with `epsilon`."""
    return {**accuracy(model, d_rob), "type": "robust_accuracy", "parameters": {"epsilon": epsilon}}


def demographic_parity(model: Model, dataset: Dataset) -> dict[str, Any]:
    """|P(pred = 0 | z = 0) - P(pred = 0 | z = 1)|, computed exactly.

    Groups 0 and 1 must both be present; other group values are ignored.
    Per-group numerators and denominators are kept in parameters.
    """
    if dataset.num_rows == 0:
        raise DomainError("demographic parity undefined on an empty dataset")
    preds = predicted_classes(model, dataset.features)
    rates: dict[int, tuple[int, int]] = {}
    for group in (0, 1):
        mask = dataset.sensitive == group
        denom = int(mask.sum())
        if denom == 0:
            raise DomainError(f"demographic parity needs group {group} nonempty")
        num = int(((preds == 0) & mask).sum())
        rates[group] = (num, denom)
    (n0, d0), (n1, d1) = rates[0], rates[1]
    return {
        "type": "demographic_parity",
        "value": ratio_string(abs(n0 * d1 - n1 * d0), d0 * d1),
        "parameters": {
            "group0_numerator": n0,
            "group0_denominator": d0,
            "group1_numerator": n1,
            "group1_denominator": d1,
        },
    }


def distribution(dataset: Dataset, kind: str) -> dict[str, Any]:
    """Exact counts of the sensitive attribute, marginal or conditional on y:
    {kind, total, counts, ratios}, or {kind, total, by_label} whose entries
    are {counts, ratios, total}."""
    if dataset.num_rows == 0:
        raise DomainError("distribution undefined on an empty dataset")
    if kind not in ("marginal", "conditional"):
        raise DomainError(f"unknown distribution kind {kind!r}")
    n = dataset.num_rows
    if kind == "marginal":
        counts: dict[str, int] = {}
        for z in dataset.sensitive:
            key = str(int(z))
            counts[key] = counts.get(key, 0) + 1
        ratios = {g: ratio_string(c, n) for g, c in counts.items()}
        return {"kind": kind, "total": n, "counts": counts, "ratios": ratios}

    by_label: dict[str, dict[str, Any]] = {}
    for y, z in zip(dataset.labels, dataset.sensitive):
        label = str(int(y))
        entry = by_label.setdefault(label, {"counts": {}, "total": 0})
        key = str(int(z))
        entry["counts"][key] = entry["counts"].get(key, 0) + 1
        entry["total"] += 1
    for entry in by_label.values():
        entry["ratios"] = {g: ratio_string(c, entry["total"]) for g, c in entry["counts"].items()}
    return {"kind": kind, "total": n, "by_label": by_label}
