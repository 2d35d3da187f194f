"""Fast gradient sign perturbation of a dataset.

x' = x + eps * sign(dL/dx) with softmax cross-entropy loss and sign(0) = 0.
The perturbation is applied in exact decimal arithmetic on the canonical
feature strings, so |x' - x| equals eps digit-for-digit wherever the gradient
sign is nonzero; no float round-trip can smear the bound.

Two paths, chosen by the input. Where every feature passes `data.micro_units`,
the quantizer's test that a cell is exact in integer micro-units below 1e9,
and eps is below 1e9, the cells move as whole arrays of micro-units, held
exactly in float64: one addition per cell and one correctly rounded division
give the float the decimal sum converts to, with the sign of a zero sum as
Decimal gives it. The robust set's canonical CSV is formatted from its
features by `data.format_rows` when first asked for, whose kernel gets those
micro-units back from them. Any other
dataset, or eps, is moved cell by cell in Decimal, from the cells
`data.format_rows` formats, and the perturbed rows are built into a dataset by
`Dataset.from_rows`, which quantizes them.
"""

from __future__ import annotations

from decimal import Decimal

import numpy as np

from ..errors import DomainError
from ..hashcore import decimal_string, parse_decimal_string
from .data import Dataset, format_rows, micro_units
from .model import Model, input_gradients


def fgsm_dataset(model: Model, dataset: Dataset, eps: str) -> Dataset:
    """Perturb every row by eps in the gradient-sign direction.

    Labels and sensitive attributes are unchanged; canonical bytes and digest
    are those of the perturbed features. eps is a decimal string and is
    quantized to the canonical 6-digit form before use.

    The base decimals are the cells of the source dataset's canonical CSV.
    On the Decimal path the robust set is built by Dataset.from_rows, and
    its canonical CSV is the quantizer's text of the perturbed rows; on the
    micro-unit path its features are the moved micro-units over 1e6, and
    the CSV is formatted from their micro-units when first asked for.
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

    micro = micro_units(dataset.features)
    eps_micro = float(eps_dec.scaleb(6))
    if micro is not None and eps_micro < 1e15:
        moved = np.where(signs > 0, micro + eps_micro, np.where(signs < 0, micro - eps_micro, micro))
        return Dataset(schema=dataset.schema, features=moved / 1e6, labels=dataset.labels, sensitive=dataset.sensitive)

    perturbed = []
    for line, row_signs in zip(format_rows(dataset.features), signs.tolist()):
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
