"""Fast gradient sign perturbation of a dataset.

x' = x + eps * sign(dL/dx) with softmax cross-entropy loss and sign(0) = 0.
The perturbation is applied in exact decimal arithmetic on the canonical
feature strings, so |x' - x| equals eps digit-for-digit wherever the gradient
sign is nonzero; no float round-trip can smear the bound.

Two paths, chosen by the input. Where every feature is below 1e9 in
magnitude and is the float of its own canonical cell, the cells move as whole
arrays in integer micro-units, held exactly in float64: one addition per cell
and one correctly rounded division give the float the decimal sum converts
to, with the sign of a zero sum as Decimal gives it. Any other dataset, or an
eps of 1e9 or more, is moved cell by cell in Decimal, from the cells
`data.format_rows` formats, and the perturbed rows are built into a
dataset by `Dataset.from_rows`, which quantizes them.
"""

from __future__ import annotations

from decimal import Decimal

import numpy as np

from ..errors import DomainError
from ..hashcore import decimal_string, parse_decimal_string
from .data import Dataset, format_rows
from .model import Model, input_gradients


def fgsm_dataset(model: Model, dataset: Dataset, eps: str) -> Dataset:
    """Perturb every row by eps in the gradient-sign direction.

    Labels and sensitive attributes are unchanged; canonical bytes and digest
    are those of the perturbed features. eps is a decimal string and is
    quantized to the canonical 6-digit form before use.

    The base decimals are the cells of the source dataset's canonical CSV.
    On the Decimal path the robust set is built by Dataset.from_rows, and
    its canonical CSV is the quantizer's text of the perturbed rows; on the
    micro-unit path it is formatted from the perturbed floats when first
    asked for.
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

    # A float below 1e9 whose micro-units round-trip is the float of the
    # decimal those micro-units spell, and its canonical cell spells them.
    features = dataset.features
    micro = np.rint(features * 1e6)
    eps_micro = float(eps_dec.scaleb(6))
    if abs(eps_micro) < 1e15 and (np.abs(micro) < 1e15).all() and np.array_equal(micro / 1e6, features):
        moved = np.where(signs > 0, micro + eps_micro, micro - eps_micro) / 1e6
        return Dataset(
            schema=dataset.schema,
            features=np.where((signs > 0) | (signs < 0), moved, features),
            labels=dataset.labels,
            sensitive=dataset.sensitive,
        )

    perturbed = []
    for line, row_signs in zip(format_rows(features), signs.tolist()):
        row = []
        for cell, s in zip(line.split(","), row_signs):
            if s > 0:
                row.append(float(Decimal(cell) + eps_dec))
            elif s < 0:
                row.append(float(Decimal(cell) - eps_dec))
            else:
                row.append(float(cell))
        perturbed.append(row)
    return Dataset.from_rows(dataset.schema, perturbed, dataset.labels, dataset.sensitive)
