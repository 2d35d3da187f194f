"""Independent brute-force reimplementation used as the oracle side of
dual-route checks. Pure Python over the canonical JSON/CSV forms: no numpy,
no imports from the engine's compute path.

The last section is the exception: it keeps the number path the dataset
loaders and FGSM used before datasets carried their canonical CSV from
construction, as the reference the single-formatting path must match."""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Decimal

import numpy as np

from lam.engine.data import Dataset
from lam.errors import DomainError
from lam.hashcore import decimal_string, parse_decimal_string


def _fmt6(x: float) -> str:
    return format(x, ".6f")


def model_params(model) -> tuple[list[list[list[float]]], list[list[float]], str]:
    """Weights/biases/activation parsed back from the model's canonical JSON."""
    doc = model.to_json_value()
    weights = [[[float(v) for v in row] for row in w] for w in doc["weights"]]
    biases = [[float(v) for v in b] for b in doc["biases"]]
    return weights, biases, doc["activation"]


def forward(model, features: list[float]) -> list[float]:
    weights, biases, activation = model_params(model)
    a = list(features)
    for layer, (w, b) in enumerate(zip(weights, biases)):
        z = [sum(a[i] * w[i][j] for i in range(len(a))) + b[j] for j in range(len(b))]
        if layer == len(weights) - 1:
            a = z
        elif activation == "tanh":
            a = [math.tanh(v) for v in z]
        else:
            a = [max(v, 0.0) for v in z]
    return a


def scores(model, features: list[float]) -> list[float]:
    logits = forward(model, features)
    top = max(logits)
    exps = [math.exp(v - top) for v in logits]
    total = sum(exps)
    return [e / total for e in exps]


def predicted_class(model, features: list[float]) -> int:
    quantized = [float(_fmt6(s)) for s in scores(model, features)]
    best = 0
    for k in range(1, len(quantized)):
        if quantized[k] > quantized[best]:
            best = k
    return best


def cross_entropy(model, features: list[float], label: int) -> float:
    return -math.log(scores(model, features)[label])


def _rows(dataset) -> list[tuple[list[float], int, int]]:
    """Rows parsed back from the dataset's canonical CSV bytes."""
    text = dataset.canonical_bytes.decode("utf-8")
    lines = text.strip("\n").split("\n")
    out = []
    for line in lines[1:]:
        cells = line.split(",")
        out.append(([float(c) for c in cells[:-2]], int(cells[-2]), int(cells[-1])))
    return out


def _ratio(num: int, den: int) -> str:
    return str((Decimal(num) / Decimal(den)).quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN))


def accuracy(model, dataset) -> tuple[int, int, str]:
    rows = _rows(dataset)
    correct = sum(1 for feats, y, _ in rows if predicted_class(model, feats) == y)
    return correct, len(rows), _ratio(correct, len(rows))


def demographic_parity(model, dataset) -> str:
    rows = _rows(dataset)
    per_group: dict[int, list[int]] = {0: [0, 0], 1: [0, 0]}
    for feats, _, z in rows:
        if z in per_group:
            per_group[z][1] += 1
            if predicted_class(model, feats) == 0:
                per_group[z][0] += 1
    (n0, d0), (n1, d1) = per_group[0], per_group[1]
    return _ratio(abs(n0 * d1 - n1 * d0), d0 * d1)


def marginal_distribution(dataset) -> tuple[dict[str, int], dict[str, str]]:
    rows = _rows(dataset)
    counts: dict[str, int] = {}
    for _, _, z in rows:
        counts[str(z)] = counts.get(str(z), 0) + 1
    ratios = {g: _ratio(c, len(rows)) for g, c in counts.items()}
    return counts, ratios


def conditional_distribution(dataset) -> dict[str, dict[str, int]]:
    rows = _rows(dataset)
    by_label: dict[str, dict[str, int]] = {}
    for _, y, z in rows:
        by_label.setdefault(str(y), {})
        by_label[str(y)][str(z)] = by_label[str(y)].get(str(z), 0) + 1
    return by_label


def input_gradient_fd(model, features: list[float], label: int, h: float = 1e-3) -> list[float]:
    """Central finite differences of the cross-entropy loss."""
    grad = []
    for i in range(len(features)):
        plus = list(features)
        minus = list(features)
        plus[i] += h
        minus[i] -= h
        grad.append((cross_entropy(model, plus, label) - cross_entropy(model, minus, label)) / (2 * h))
    return grad


# --- The Decimal round-trip number path ---------------------------------------
# Every CSV cell parsed with parse_decimal_string, every value quantized by
# formatting it and parsing the string back, and the canonical CSV formatted
# again from the stored floats.

_RESERVED = ("label", "sensitive")


def reference_from_rows(schema, features, labels, sensitive) -> Dataset:
    feats = np.array(
        [[float(decimal_string(float(v))) for v in row] for row in features],
        dtype=np.float64,
    ).reshape(len(features), len(schema))
    return Dataset(
        schema=tuple(schema),
        features=feats,
        labels=np.array(labels, dtype=np.int64),
        sensitive=np.array(sensitive, dtype=np.int64),
    )


def reference_canonical_bytes(dataset) -> bytes:
    lines = [",".join(dataset.schema + _RESERVED)]
    for i in range(dataset.num_rows):
        cells = [decimal_string(float(v)) for v in dataset.features[i]]
        cells.append(str(int(dataset.labels[i])))
        cells.append(str(int(dataset.sensitive[i])))
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reference_cell_error(header, cells, lineno) -> DomainError:
    for i, (name, cell) in enumerate(zip(header, cells)):
        integer = i >= len(header) - len(_RESERVED)
        try:
            int(cell) if integer else parse_decimal_string(cell)
        except ValueError:
            kind = "an integer" if integer else "a decimal number"
            return DomainError(f"CSV line {lineno}, column {name!r}: {cell!r} is not {kind}")
    return DomainError(f"CSV line {lineno}: malformed row")


def reference_from_csv_bytes(data: bytes) -> Dataset:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"CSV is not UTF-8: {exc}") from None
    lines = [line for line in text.replace("\r\n", "\n").split("\n") if line != ""]
    if not lines:
        raise DomainError("empty CSV: missing header")
    header = lines[0].split(",")
    if len(header) < 3 or tuple(header[-2:]) != _RESERVED:
        raise DomainError("CSV header must end with 'label,sensitive'")
    features, labels, sensitive = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise DomainError(f"CSV line {lineno}: expected {len(header)} cells, got {len(cells)}")
        try:
            features.append([parse_decimal_string(c) for c in cells[:-2]])
            labels.append(int(cells[-2]))
            sensitive.append(int(cells[-1]))
        except ValueError:
            raise _reference_cell_error(header, cells, lineno) from None
    return reference_from_rows(tuple(header[:-2]), features, labels, sensitive)


def reference_fgsm_features(dataset, signs, eps: str):
    """The perturbed features: each stored float formatted to its canonical
    string, moved by eps in Decimal, and converted back."""
    eps_dec = Decimal(decimal_string(parse_decimal_string(eps)))
    perturbed = np.empty_like(dataset.features)
    for i in range(dataset.num_rows):
        for j in range(dataset.num_features):
            s = signs[i, j]
            base = Decimal(decimal_string(float(dataset.features[i, j])))
            if s > 0:
                base += eps_dec
            elif s < 0:
                base -= eps_dec
            perturbed[i, j] = float(base)
    return perturbed
