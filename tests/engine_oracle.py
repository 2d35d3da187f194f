"""Independent brute-force reimplementation used as the oracle side of
dual-route checks. Pure Python over the canonical JSON/CSV forms: no numpy,
no imports from the engine's compute path.

The last sections are the exception: they keep, as references the engine
must match bit for bit, the number path the dataset loaders and FGSM used
before datasets carried their canonical CSV from construction, the
per-weight number path of model parameters, the per-layer optimizer loop
and per-row argmax the trainer and predicted_classes used before they ran on
whole arrays, and the per-draw loops that built the synthetic datasets before
they were drawn in bulk."""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Decimal

import numpy as np

from lam.engine.data import Architecture, Dataset
from lam.engine.model import (
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_EPS,
    Model,
    _activate,
    _activate_grad,
    _argmax_quantized,
    class_scores,
    softmax,
)
from lam.engine.rng import Xoshiro256StarStar
from lam.errors import ConfigError, DomainError
from lam.hashcore import canonicalize, decimal_string, parse_canonical, parse_decimal_string


def _fmt6(x: float) -> str:
    return format(x, ".6f")


def model_params(model) -> tuple[list[list[list[float]]], list[list[float]], str]:
    """Weights/biases/activation parsed back from the model's canonical JSON."""
    doc = parse_canonical(model.canonical_bytes)
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
    for lineno, cells in enumerate(zip(labels, sensitive), start=2):
        for name, value in zip(_RESERVED, cells):
            if not -(2**63) <= value < 2**63:
                raise DomainError(f"CSV line {lineno}, column {name!r}: {value} is outside the int64 range")
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


# --- The per-weight model number path ----------------------------------------
# Every model parameter quantized by formatting it and parsing the string
# back, one weight at a time, and the model file formatted again from the
# stored floats.


def reference_model_from_float_params(architecture, weights, biases) -> Model:
    return Model(
        architecture=architecture,
        weights=tuple(
            np.array([[float(decimal_string(float(v))) for v in row] for row in w], dtype=np.float64)
            for w in weights
        ),
        biases=tuple(np.array([float(decimal_string(float(v))) for v in b], dtype=np.float64) for b in biases),
    )


def _reference_parameter(cell, name: str) -> float:
    try:
        return float(decimal_string(parse_decimal_string(cell)))
    except ValueError:
        raise ConfigError(f"{name} entry is not a decimal string: {cell!r}") from None


def reference_model_from_json_bytes(data: bytes) -> Model:
    doc = parse_canonical(data)
    widths = doc["arch"]
    return Model(
        architecture=Architecture(
            num_features=widths[0], num_classes=widths[-1], hidden=tuple(widths[1:-1]), activation=doc["activation"]
        ),
        weights=tuple(
            np.array([[_reference_parameter(c, "weights") for c in row] for row in w], dtype=np.float64)
            for w in doc["weights"]
        ),
        biases=tuple(
            np.array([_reference_parameter(c, "biases") for c in b], dtype=np.float64) for b in doc["biases"]
        ),
    )


def reference_model_canonical_bytes(model) -> bytes:
    return canonicalize(
        {
            "activation": model.architecture.activation,
            "arch": list(model.architecture.layer_widths),
            "biases": [[decimal_string(float(v)) for v in b] for b in model.biases],
            "weights": [[[decimal_string(float(v)) for v in row] for row in w] for w in model.weights],
        }
    )


# --- The per-layer trainer and the per-row argmax -----------------------------


def reference_predicted_classes(model, x) -> np.ndarray:
    """Predicted class per row, each row's scores quantized and compared."""
    return reference_quantized_argmax(class_scores(model, x))


def reference_quantized_argmax(scores) -> np.ndarray:
    return np.array([_argmax_quantized(row)[0] for row in scores], dtype=np.int64)


def _reference_init_params(arch, rng):
    weights, biases = [], []
    widths = arch.layer_widths
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        limit = (6.0 / (fan_in + fan_out)) ** 0.5
        w = np.array(
            [rng.uniform_in(-limit, limit) for _ in range(fan_in * fan_out)],
            dtype=np.float64,
        ).reshape(fan_in, fan_out)
        weights.append(w)
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return weights, biases


def reference_train(dataset, config) -> Model:
    """Mini-batch training with a separate array per layer for every
    parameter, gradient and Adam moment, updated layer by layer."""
    arch = config.architecture
    rng = Xoshiro256StarStar(config.rng_seed)
    weights, biases = _reference_init_params(arch, rng)
    lr = parse_decimal_string(config.learning_rate)
    act = arch.activation
    last = len(weights) - 1
    n = dataset.num_rows
    onehot = np.eye(arch.num_classes, dtype=np.float64)[dataset.labels]

    if config.optimizer == "adam":
        m_w = [np.zeros_like(w) for w in weights]
        v_w = [np.zeros_like(w) for w in weights]
        m_b = [np.zeros_like(b) for b in biases]
        v_b = [np.zeros_like(b) for b in biases]
    step = 0

    for _ in range(config.epochs):
        order = list(range(n))  # Fisher-Yates from the top index down, with the scalar draws
        for i in range(n - 1, 0, -1):
            j = rng.randbelow(i + 1)
            order[i], order[j] = order[j], order[i]
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            x = dataset.features[batch]
            t = onehot[batch]

            activations = [x]
            zs = []
            a = x
            for i in range(len(weights)):
                z = a @ weights[i] + biases[i]
                zs.append(z)
                a = z if i == last else _activate(z, act)
                activations.append(a)

            delta = (softmax(activations[-1]) - t) / len(batch)
            grads_w = [np.empty(0)] * len(weights)
            grads_b = [np.empty(0)] * len(weights)
            for i in range(last, -1, -1):
                grads_w[i] = activations[i].T @ delta
                grads_b[i] = delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ weights[i].T) * _activate_grad(activations[i], zs[i - 1], act)

            step += 1
            if config.optimizer == "sgd":
                for i in range(len(weights)):
                    weights[i] -= lr * grads_w[i]
                    biases[i] -= lr * grads_b[i]
            else:
                correction1 = 1.0 - _ADAM_BETA1**step
                correction2 = 1.0 - _ADAM_BETA2**step
                for i in range(len(weights)):
                    m_w[i] = _ADAM_BETA1 * m_w[i] + (1.0 - _ADAM_BETA1) * grads_w[i]
                    v_w[i] = _ADAM_BETA2 * v_w[i] + (1.0 - _ADAM_BETA2) * grads_w[i] ** 2
                    m_b[i] = _ADAM_BETA1 * m_b[i] + (1.0 - _ADAM_BETA1) * grads_b[i]
                    v_b[i] = _ADAM_BETA2 * v_b[i] + (1.0 - _ADAM_BETA2) * grads_b[i] ** 2
                    weights[i] -= lr * (m_w[i] / correction1) / (np.sqrt(v_w[i] / correction2) + _ADAM_EPS)
                    biases[i] -= lr * (m_b[i] / correction1) / (np.sqrt(v_b[i] / correction2) + _ADAM_EPS)

    return Model.from_float_params(arch, weights, biases)


# --- The per-draw synthetic row loops -----------------------------------------
# One scalar uniform or randbelow call per value, row by row, from the
# generator passed in.


def reference_separable_rows(n_rows: int, margin: float, rng) -> tuple[list[list[float]], list[int], list[int]]:
    half_margin = margin / 2.0
    norm = math.sqrt(2.0)
    features, labels, sensitive = [], [], []
    for i in range(n_rows):
        x0 = rng.uniform_in(-3.0, 3.0)
        x1 = rng.uniform_in(-3.0, 3.0)
        label = i % 2
        side = 1.0 if label == 1 else -1.0
        dist = (x0 + x1) / norm
        shift = side * half_margin - dist
        if (side > 0 and dist < half_margin) or (side < 0 and dist > -half_margin):
            x0 += shift / norm
            x1 += shift / norm
        features.append([x0, x1])
        labels.append(label)
        sensitive.append(rng.randbelow(2))
    return features, labels, sensitive


def reference_census_rows(n_rows: int, rng) -> tuple[list[list[float]], list[int], list[int]]:
    features, labels, sensitive = [], [], []
    for _ in range(n_rows):
        z = rng.randbelow(2)
        age = rng.uniform_in(18.0, 70.0)
        edu = rng.uniform_in(6.0, 18.0)
        hours = rng.uniform_in(10.0, 60.0)
        capital = rng.uniform() ** 3 * 10.0
        tenure = rng.uniform_in(0.0, min(age - 16.0, 30.0))
        dependents = float(rng.randbelow(5))
        urban = float(rng.randbelow(2))
        sector = float(rng.randbelow(4))
        commute = rng.uniform_in(0.0, 2.0)
        noise = [rng.uniform_in(-1.0, 1.0) for _ in range(3)]

        score = (
            0.09 * (edu - 12.0)
            + 0.035 * (hours - 38.0)
            + 0.28 * capital
            + 0.05 * (tenure - 8.0)
            + 0.015 * (age - 42.0)
            - 0.0011 * (age - 45.0) ** 2
            + 0.22 * urban * (edu > 13.0)
            + 0.09 * math.sin(sector)
            - 0.07 * dependents
            + 0.16 * z
        )
        noise_draw = rng.uniform()
        p = 1.0 / (1.0 + math.exp(-3.0 * score))
        label = 1 if noise_draw < p else 0

        row = [
            age / 10.0,
            edu / 3.0,
            hours / 10.0,
            capital / 2.0,
            tenure / 10.0,
            dependents / 2.0,
            urban,
            sector / 2.0,
            commute,
            *noise,
        ]
        features.append(row)
        labels.append(label)
        sensitive.append(z)
    return features, labels, sensitive
