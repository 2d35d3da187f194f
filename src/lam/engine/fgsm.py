"""Fast gradient sign perturbation of a dataset.

x' = x + eps * sign(dL/dx) with softmax cross-entropy loss and sign(0) = 0.
The perturbation is applied in exact decimal arithmetic on the canonical
feature strings, so |x' - x| equals eps digit-for-digit wherever the gradient
sign is nonzero; no float round-trip can smear the bound.
"""

from __future__ import annotations

from decimal import Decimal

import numpy as np

from ..errors import DomainError
from ..hashcore import decimal_string, parse_decimal_string
from .data import Dataset
from .model import Model, _activate, _activate_grad, softmax


def input_gradients(model: Model, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample gradient of the cross-entropy loss with respect to the input."""
    act = model.architecture.activation
    last = len(model.weights) - 1

    activations = [np.asarray(x, dtype=np.float64)]
    zs = []
    a = activations[0]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        zs.append(z)
        a = z if i == last else _activate(z, act)
        activations.append(a)

    onehot = np.eye(model.architecture.num_classes, dtype=np.float64)[labels]
    delta = softmax(activations[-1]) - onehot
    for i in range(last, 0, -1):
        delta = (delta @ model.weights[i].T) * _activate_grad(activations[i], zs[i - 1], act)
    return delta @ model.weights[0].T


def fgsm_dataset(model: Model, dataset: Dataset, eps: str) -> Dataset:
    """Perturb every row by eps in the gradient-sign direction.

    Labels and sensitive attributes are unchanged; canonical bytes and digest
    are those of the perturbed features. eps is a decimal string and is
    quantized to the canonical 6-digit form before use.

    The base decimals are the cells of the source dataset's canonical CSV,
    and the robust set's canonical CSV is joined here from the strings each
    perturbed value is formatted to, so no feature is formatted twice.
    """
    if dataset.num_rows == 0:
        raise DomainError("cannot perturb an empty dataset")
    if dataset.num_features != model.architecture.num_features:
        raise DomainError("dataset arity does not match model input width")
    if dataset.num_classes > model.architecture.num_classes:
        raise DomainError("dataset labels exceed model class count")
    eps_canon = decimal_string(parse_decimal_string(eps))
    eps_dec = Decimal(eps_canon)
    if eps_dec < 0:
        raise DomainError("eps must be >= 0")

    grads = input_gradients(model, dataset.features, dataset.labels)
    signs = np.sign(grads)

    perturbed, lines = [], []
    for line, row_signs in zip(dataset._canonical_lines(), signs.tolist()):
        cells = line.split(",")
        values = []
        for j, s in enumerate(row_signs):
            if s > 0:
                base = Decimal(cells[j]) + eps_dec
            elif s < 0:
                base = Decimal(cells[j]) - eps_dec
            else:
                values.append(float(cells[j]))
                continue
            value = float(base)
            values.append(value)
            cells[j] = decimal_string(value)
        perturbed.append(values)
        lines.append(",".join(cells))
    d_rob = Dataset(
        schema=dataset.schema,
        features=np.array(perturbed, dtype=np.float64),
        labels=dataset.labels,
        sensitive=dataset.sensitive,
    )
    d_rob._seed_canonical_bytes(lines)
    return d_rob
