"""Pure-Python recomputation of the census card's accuracy and parity counts.

Works from the serialized forms only (model file JSON and canonical CSV
bytes) and shares no code with `lam.engine`, so it checks the attested
numerators along an independent route.
"""

from __future__ import annotations

import json
import math
from operator import mul


def _layers(model_bytes: bytes) -> tuple[list[tuple[list[tuple[float, ...]], list[float]]], str]:
    doc = json.loads(model_bytes)
    layers = []
    for w, b in zip(doc["weights"], doc["biases"]):
        rows = [[float(v) for v in row] for row in w]  # (fan_in, fan_out)
        layers.append((list(zip(*rows)), [float(v) for v in b]))
    return layers, doc["activation"]


def predictions(model_bytes: bytes, csv_bytes: bytes) -> list[tuple[int, int, int]]:
    """(predicted class, label, group) per CSV row. Scores are softmax
    probabilities formatted to six decimals; ties go to the lowest class."""
    layers, activation = _layers(model_bytes)
    act = math.tanh if activation == "tanh" else (lambda v: v if v > 0.0 else 0.0)
    last = len(layers) - 1
    out = []
    for line in csv_bytes.decode("utf-8").split("\n")[1:]:
        if not line:
            continue
        cells = line.split(",")
        a = [float(c) for c in cells[:-2]]
        for i, (columns, bias) in enumerate(layers):
            z = [sum(map(mul, a, col)) + b for col, b in zip(columns, bias)]
            a = z if i == last else [act(v) for v in z]
        top = max(a)
        exps = [math.exp(v - top) for v in a]
        total = sum(exps)
        quantized = [float(format(e / total, ".6f")) for e in exps]
        best = 0
        for k in range(1, len(quantized)):
            if quantized[k] > quantized[best]:
                best = k
        out.append((best, int(cells[-2]), int(cells[-1])))
    return out


def card_counts(model_bytes: bytes, test_csv: bytes) -> dict[str, int]:
    """Accuracy numerator/denominator and per-group parity counts."""
    preds = predictions(model_bytes, test_csv)
    counts = {
        "numerator": sum(1 for p, y, _ in preds if p == y),
        "denominator": len(preds),
    }
    for group in (0, 1):
        counts[f"group{group}_numerator"] = sum(1 for p, _, z in preds if z == group and p == 0)
        counts[f"group{group}_denominator"] = sum(1 for _, _, z in preds if z == group)
    return counts
