"""MLP model with a canonical JSON file form and a fully deterministic trainer.

Everything downstream hashes the model file, so the in-memory weights are the
quantized values the file round-trips to: after training, weights are pushed
through the 6-decimal formatting rule and parsed back before the Model is
constructed, and the model file is joined from those very strings. Training
order is fixed (seeded init, seeded per-epoch shuffles, sequential batch
updates), making the output a pure function of (dataset, config).

The trainer keeps parameters, gradients and Adam moments in flat float64
buffers, with per-layer views for the forward and backward passes, so each
optimizer step is a few whole-buffer expressions that apply to every
element the same IEEE operations, in the same order, as a per-layer update.
Predicted classes take the raw argmax of a row's scores where quantization
cannot change it, and quantize only the rows whose top two scores are close.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from ..errors import ConfigError, DomainError
from ..hashcore import (
    Digest,
    canonicalize,
    decimal_string,
    hash_bytes,
    parse_canonical,
    parse_decimal_string,
    quantize,
)
from .data import Architecture, Dataset, InferenceRecord, TrainingConfig, config_int
from .rng import Xoshiro256StarStar

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# Quantizing a score moves it by at most 5e-7, so a top score that leads the
# runner-up by more than 1e-6 still leads once both are quantized; the
# margin doubles that, leaving room for rounding in the subtraction.
_ARGMAX_MARGIN = 2e-6


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _activate_grad(a: np.ndarray, z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "tanh":
        return 1.0 - a * a
    return (z > 0.0).astype(np.float64)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def _parameter(text: Any, name: str) -> float:
    """A weight or bias of a model file; a ConfigError naming the field
    `name` when it is not a decimal string."""
    try:
        return parse_decimal_string(text)
    except ValueError:
        raise ConfigError(f"{name} entry is not a decimal string: {text!r}") from None


@dataclass(frozen=True)
class Model:
    """An MLP's architecture and parameters.

    Immutable: construction marks the parameter arrays read-only, so the
    canonical bytes and digest, computed once per object, cannot go stale.
    """

    architecture: Architecture
    weights: tuple[np.ndarray, ...]  # per layer, shape (fan_in, fan_out)
    biases: tuple[np.ndarray, ...]  # per layer, shape (fan_out,)

    def __post_init__(self) -> None:
        widths = self.architecture.layer_widths
        if len(self.weights) != len(widths) - 1 or len(self.biases) != len(widths) - 1:
            raise ConfigError("weight/bias count does not match architecture")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (widths[i], widths[i + 1]) or b.shape != (widths[i + 1],):
                raise ConfigError(f"layer {i} shape mismatch against architecture")
        for array in (*self.weights, *self.biases):
            array.setflags(write=False)

    @classmethod
    def from_float_params(
        cls,
        architecture: Architecture,
        weights: Sequence[np.ndarray],
        biases: Sequence[np.ndarray],
    ) -> "Model":
        """Build a Model whose parameters are canonical-quantized; its
        canonical bytes are joined from the strings the parameters were
        quantized to, so no parameter is formatted twice."""
        quantized_weights = [_quantized_array(w) for w in weights]
        quantized_biases = [_quantized_array(b) for b in biases]
        model = cls(
            architecture=architecture,
            weights=tuple(values for _, values in quantized_weights),
            biases=tuple(values for _, values in quantized_biases),
        )
        model.__dict__["canonical_bytes"] = canonicalize(
            _json_value(
                architecture,
                [texts for texts, _ in quantized_weights],
                [texts for texts, _ in quantized_biases],
            )
        )
        return model

    def to_json_value(self) -> dict[str, Any]:
        return _json_value(
            self.architecture,
            [[[decimal_string(float(v)) for v in row] for row in w] for w in self.weights],
            [[decimal_string(float(v)) for v in b] for b in self.biases],
        )

    @classmethod
    def from_json_value(cls, value: dict[str, Any]) -> "Model":
        try:
            widths = [config_int(w, "arch") for w in value["arch"]]
            arch = Architecture(
                num_features=widths[0],
                num_classes=widths[-1],
                hidden=tuple(widths[1:-1]),
                activation=value["activation"],
            )
            weights = tuple(
                np.array([[_parameter(v, "weights") for v in row] for row in w], dtype=np.float64)
                for w in value["weights"]
            )
            biases = tuple(
                np.array([_parameter(v, "biases") for v in b], dtype=np.float64) for b in value["biases"]
            )
        except (KeyError, TypeError, IndexError, ValueError) as exc:  # ValueError: rows of unequal length
            raise ConfigError(f"malformed model file: {exc}") from exc
        return cls(architecture=arch, weights=weights, biases=biases)

    @cached_property
    def canonical_bytes(self) -> bytes:
        return canonicalize(self.to_json_value())

    @cached_property
    def digest(self) -> Digest:
        return hash_bytes(self.canonical_bytes)

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "Model":
        return cls.from_json_value(parse_canonical(data))


def _json_value(architecture: Architecture, weights: list, biases: list) -> dict[str, Any]:
    """The model file's JSON value, given each layer's parameter strings."""
    return {
        "activation": architecture.activation,
        "arch": list(architecture.layer_widths),
        "biases": biases,
        "weights": weights,
    }


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Logits for a batch of inputs (n, num_features) -> (n, num_classes)."""
    a = np.asarray(x, dtype=np.float64)
    act = model.architecture.activation
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        a = z if i == last else _activate(z, act)
    return a


def class_scores(model: Model, x: np.ndarray) -> np.ndarray:
    return softmax(forward(model, x))


def _quantized_array(values: Any) -> tuple[list, np.ndarray]:
    """`values` quantized: their canonical strings, nested as `values` is,
    and the float64 array of the same shape that the strings parse to."""
    a = np.asarray(values, dtype=np.float64)
    texts, floats = quantize(a.ravel().tolist())
    return np.array(texts, dtype=object).reshape(a.shape).tolist(), np.array(floats, dtype=np.float64).reshape(a.shape)


def _argmax_quantized(score_row: np.ndarray) -> tuple[int, tuple[str, ...]]:
    strings, quantized = quantize(score_row.tolist())
    best = 0
    for k in range(1, len(quantized)):
        if quantized[k] > quantized[best]:
            best = k
    return best, tuple(strings)


def quantized_argmax(scores: np.ndarray) -> np.ndarray:
    """The class _argmax_quantized picks for each row of `scores`: the raw
    argmax where the top score leads the runner-up by more than
    _ARGMAX_MARGIN, and the quantized rule for every other row."""
    best = scores.argmax(axis=1)
    top_two = np.sort(scores, axis=1)[:, -2:]
    for i in np.flatnonzero(~(top_two[:, 1] - top_two[:, 0] > _ARGMAX_MARGIN)):  # NaN rows too
        best[i] = _argmax_quantized(scores[i])[0]
    return best.astype(np.int64, copy=False)


def predicted_classes(model: Model, x: np.ndarray) -> np.ndarray:
    """Predicted class per row, using the quantized-score tie-break rule."""
    return quantized_argmax(class_scores(model, x))


def predict(model: Model, features: Sequence[float]) -> InferenceRecord:
    texts, feats = quantize([float(v) for v in features])
    if len(feats) != model.architecture.num_features:
        raise DomainError(
            f"input arity {len(feats)} does not match architecture input width "
            f"{model.architecture.num_features}"
        )
    scores = class_scores(model, np.array([feats], dtype=np.float64))[0]
    cls_idx, strings = _argmax_quantized(scores)
    return InferenceRecord(features=tuple(texts), predicted_class=cls_idx, scores=strings)


def _layer_views(buffer: np.ndarray, widths: Sequence[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer views of a flat buffer laid out as each layer's weights,
    (fan_in, fan_out) row-major, followed by its biases."""
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(widths, widths[1:]):
        weights.append(buffer[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(buffer[offset : offset + fan_out])
        offset += fan_out
    return weights, biases


def _init_params(arch: Architecture, rng: Xoshiro256StarStar) -> np.ndarray:
    """The flat parameter buffer training starts from: each layer's weights
    drawn from the seeded stream, layer by layer and row-major, and zero
    biases."""
    widths = arch.layer_widths
    params = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths, widths[1:])))
    for w in _layer_views(params, widths)[0]:
        fan_in, fan_out = w.shape
        limit = (6.0 / (fan_in + fan_out)) ** 0.5
        w[:] = np.reshape([rng.uniform_in(-limit, limit) for _ in range(w.size)], w.shape)
    return params


def train(dataset: Dataset, config: TrainingConfig) -> Model:
    """Mini-batch gradient descent on softmax cross-entropy.

    Fully determined by (dataset, config): weights initialized from the
    seeded stream in layer order (row-major), per-epoch row order drawn from
    the same stream, batches applied sequentially. The returned Model carries
    canonical-quantized parameters.
    """
    arch = config.architecture
    if dataset.num_rows == 0:
        raise DomainError("cannot train on an empty dataset")
    if dataset.num_features != arch.num_features:
        raise ConfigError(
            f"dataset arity {dataset.num_features} does not match architecture input width "
            f"{arch.num_features}"
        )
    if dataset.num_classes > arch.num_classes:
        raise ConfigError(
            f"dataset has labels up to {dataset.num_classes - 1}, architecture has "
            f"{arch.num_classes} classes"
        )

    rng = Xoshiro256StarStar(config.rng_seed)
    params = _init_params(arch, rng)
    grads = np.zeros_like(params)
    weights, biases = _layer_views(params, arch.layer_widths)
    grads_w, grads_b = _layer_views(grads, arch.layer_widths)
    lr = parse_decimal_string(config.learning_rate)
    act = arch.activation
    last = len(weights) - 1
    n = dataset.num_rows
    onehot = np.eye(arch.num_classes, dtype=np.float64)[dataset.labels]

    if config.optimizer == "adam":
        m, v = np.zeros_like(params), np.zeros_like(params)
    step = 0

    for _ in range(config.epochs):
        order = rng.shuffled_indices(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            x = dataset.features[batch]
            t = onehot[batch]

            # forward
            activations = [x]
            zs = []
            a = x
            for i in range(len(weights)):
                z = a @ weights[i] + biases[i]
                zs.append(z)
                a = z if i == last else _activate(z, act)
                activations.append(a)

            # backward
            delta = (softmax(activations[-1]) - t) / len(batch)
            for i in range(last, -1, -1):
                np.matmul(activations[i].T, delta, out=grads_w[i])
                np.sum(delta, axis=0, out=grads_b[i])
                if i > 0:
                    delta = (delta @ weights[i].T) * _activate_grad(activations[i], zs[i - 1], act)

            step += 1
            if config.optimizer == "sgd":
                params -= lr * grads
            else:
                correction1 = 1.0 - _ADAM_BETA1**step
                correction2 = 1.0 - _ADAM_BETA2**step
                m *= _ADAM_BETA1
                m += (1.0 - _ADAM_BETA1) * grads
                v *= _ADAM_BETA2
                v += (1.0 - _ADAM_BETA2) * grads**2
                params -= lr * (m / correction1) / (np.sqrt(v / correction2) + _ADAM_EPS)

    return Model.from_float_params(arch, weights, biases)
