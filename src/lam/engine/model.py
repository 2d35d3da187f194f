"""MLP model with a canonical JSON file form and a fully deterministic trainer.

Everything downstream hashes the model file, so the in-memory weights are the
quantized values the file round-trips to. A trained model and a loaded model
file are both built by `Model.from_float_params`, which quantizes every
parameter with `data.quantize_rows`, the one quantizer; the model file is
formatted from them by its formatting half, `data.format_rows`, and
inference quantizes its input and its scores with it too. Training order is fixed (seeded init,
seeded per-epoch shuffles, sequential batch updates), making the output a
pure function of (dataset, config).

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
from typing import Any, Iterator, Sequence

import numpy as np

from ..errors import ConfigError, DomainError
from ..hashcore import (
    Digest,
    Record,
    canonicalize,
    hash_bytes,
    parse_canonical,
    parse_decimal_string,
)
from .data import Architecture, Dataset, InferenceRecord, TrainingConfig, config_decimal, format_rows, quantize_rows
from .rng import Xoshiro256StarStar

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# Quantizing a score moves it by at most 5e-7, so a top score that leads the
# runner-up by more than 1e-6 still leads once both are quantized; the
# margin doubles that, leaving room for rounding in the subtraction.
_ARGMAX_MARGIN = 2e-6
# The most rows training may pass over, epochs times dataset rows: about 40 s
# for the census architecture, whose census config makes 60,000.
MAX_ROW_PASSES = 10**7
# The most activations one forward pass may hold, its rows times the summed
# layer widths: a training batch, min(batch_size, rows), or every row of an
# evaluated dataset. The pass keeps each layer's input and pre-activation,
# about 160 MB at the bound. The census config makes 256 x 142 = 36,352 in
# training and its 2,000 test rows 284,000 in evaluation.
MAX_BATCH_ACTIVATIONS = 10**7


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


@dataclass(frozen=True)
class _ModelFile(Record):
    """The wire form of a model file: its layer widths, activation, and
    parameters as nested arrays of decimal strings (read by Model)."""

    activation: str
    arch: tuple[int, ...]
    biases: Any
    weights: Any
    record_name = "model file"


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
        """Build a Model whose parameters are quantized by
        data.quantize_rows: each weight matrix row by row, each bias
        vector as one row."""
        return cls(
            architecture=architecture,
            weights=tuple(quantize_rows(w)[1] for w in weights),
            biases=tuple(quantize_rows([b])[1][0] for b in biases),
        )

    def to_json_value(self) -> dict[str, Any]:
        return _ModelFile(
            activation=self.architecture.activation,
            arch=self.architecture.layer_widths,
            biases=[format_rows(b[np.newaxis])[0].split(",") for b in self.biases],
            weights=[[row.split(",") for row in format_rows(w)] for w in self.weights],
        ).to_json_value()

    @classmethod
    def from_json_value(cls, value: Any) -> "Model":
        file = _ModelFile.from_json_value(value)
        if len(file.arch) < 2:  # one layer under one width would load as a network of two
            raise ConfigError(f"arch needs at least two widths: {list(file.arch)}")
        arch = Architecture(
            num_features=file.arch[0], num_classes=file.arch[-1], hidden=file.arch[1:-1], activation=file.activation
        )
        try:
            weights = tuple(
                np.array([[config_decimal(v, "weights entry") for v in row] for row in w], dtype=np.float64)
                for w in file.weights
            )
            biases = tuple(
                np.array([config_decimal(v, "biases entry") for v in b], dtype=np.float64) for b in file.biases
            )
        except (TypeError, ValueError) as exc:  # ValueError: rows of unequal length
            raise ConfigError(f"malformed model file: {exc}") from exc
        return cls.from_float_params(arch, weights, biases)

    @cached_property
    def canonical_bytes(self) -> bytes:
        return canonicalize(self.to_json_value())

    @cached_property
    def digest(self) -> Digest:
        return hash_bytes(self.canonical_bytes)

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "Model":
        return cls.from_json_value(parse_canonical(data))


def _bound_activations(rows: int, widths: Sequence[int], rows_name: str) -> None:
    """A ConfigError naming both factors, `rows_name` for the rows, when
    `rows` rows through layers of widths `widths` would hold more than
    MAX_BATCH_ACTIVATIONS activations."""
    if rows * sum(widths) > MAX_BATCH_ACTIVATIONS:
        raise ConfigError(
            f"{rows_name} x summed layer widths must be at most {MAX_BATCH_ACTIVATIONS}: "
            f"{rows} x {sum(widths)} (widest layer {max(widths)})"
        )


def _forward(
    weights: Sequence[np.ndarray], biases: Sequence[np.ndarray], x: np.ndarray, act: str
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The one forward pass: each layer's input and pre-activation, the last
    pre-activation being the logits. A ConfigError, before any layer runs,
    when the pass would hold more than MAX_BATCH_ACTIVATIONS activations."""
    a = np.asarray(x, dtype=np.float64)
    _bound_activations(len(a), [w.shape[0] for w in weights] + [weights[-1].shape[1]], "rows")
    inputs, zs = [], []
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w + b
        inputs.append(a)
        zs.append(z)
        a = z if i == last else _activate(z, act)
    return inputs, zs


def _backward(
    weights: Sequence[np.ndarray], inputs: list[np.ndarray], zs: list[np.ndarray], delta: np.ndarray, act: str
) -> Iterator[np.ndarray]:
    """The one backward pass: from `delta`, the loss gradient at the logits,
    yields the gradient at each layer's pre-activation, last layer first
    and layer 0 last."""
    for i in range(len(weights) - 1, 0, -1):
        yield delta
        delta = (delta @ weights[i].T) * _activate_grad(inputs[i], zs[i - 1], act)
    yield delta


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Logits for a batch of inputs (n, num_features) -> (n, num_classes)."""
    return _forward(model.weights, model.biases, x, model.architecture.activation)[1][-1]


def class_scores(model: Model, x: np.ndarray) -> np.ndarray:
    return softmax(forward(model, x))


def _argmax_quantized(score_row: np.ndarray) -> tuple[int, tuple[str, ...]]:
    """The first class with the highest quantized score, and the scores'
    canonical strings."""
    texts, quantized = quantize_rows(score_row[np.newaxis])
    return int(quantized.argmax()), tuple(texts[0].split(","))


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
    texts, feats = quantize_rows([features])
    if feats.shape[1] != model.architecture.num_features:
        raise DomainError(
            f"input arity {feats.shape[1]} does not match architecture input width "
            f"{model.architecture.num_features}"
        )
    cls_idx, strings = _argmax_quantized(class_scores(model, feats)[0])
    return InferenceRecord(features=tuple(texts[0].split(",")), predicted_class=cls_idx, scores=strings)


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
    params = np.zeros(arch.parameter_count)
    weights = _layer_views(params, arch.layer_widths)[0]
    draws, offset = rng.uniform_array(sum(w.size for w in weights)), 0
    for w in weights:
        fan_in, fan_out = w.shape
        limit = (6.0 / (fan_in + fan_out)) ** 0.5
        lo, hi = -limit, limit
        w[:] = (lo + (hi - lo) * draws[offset : offset + w.size]).reshape(w.shape)
        offset += w.size
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
    if config.epochs * dataset.num_rows > MAX_ROW_PASSES:
        raise ConfigError(f"epochs x rows must be at most {MAX_ROW_PASSES}: {config.epochs} x {dataset.num_rows}")
    widths = arch.layer_widths
    _bound_activations(min(config.batch_size, dataset.num_rows), widths, "batch_size")

    rng = Xoshiro256StarStar(config.rng_seed)
    params = _init_params(arch, rng)
    grads = np.zeros_like(params)
    weights, biases = _layer_views(params, widths)
    grads_w, grads_b = _layer_views(grads, widths)
    lr = parse_decimal_string(config.learning_rate)
    act = arch.activation
    n = dataset.num_rows
    onehot = np.eye(arch.num_classes, dtype=np.float64)[dataset.labels]

    if config.optimizer == "adam":
        m, v = np.zeros_like(params), np.zeros_like(params)
    step = 0

    for order in rng.shuffled_orders(n, config.epochs):
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            x = dataset.features[batch]
            t = onehot[batch]

            inputs, zs = _forward(weights, biases, x, act)
            deltas = _backward(weights, inputs, zs, (softmax(zs[-1]) - t) / len(batch), act)
            for i, delta in zip(reversed(range(len(weights))), deltas):
                np.matmul(inputs[i].T, delta, out=grads_w[i])
                np.sum(delta, axis=0, out=grads_b[i])

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


def input_gradients(model: Model, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample gradient of the cross-entropy loss with respect to the input."""
    act = model.architecture.activation
    inputs, zs = _forward(model.weights, model.biases, x, act)
    onehot = np.eye(model.architecture.num_classes, dtype=np.float64)[labels]
    for delta in _backward(model.weights, inputs, zs, softmax(zs[-1]) - onehot, act):
        pass  # down to layer 0's pre-activation
    return delta @ model.weights[0].T
