"""Canonical dataset / training-config / inference-record formats.

A dataset's identity is the digest of its canonical CSV bytes; a config's
identity is the digest of its canonical JSON. Feature values are quantized to
the 6-fractional-digit decimal rule on construction, which makes the in-memory
floats exactly the values a round trip through the file yields.

The canonical CSV text is built where the features are quantized, once:
`Dataset.from_rows` formats each value, and `Dataset.from_csv_bytes` takes a
cell that is already canonical as it is and formats any other (loose) cell
after parsing it. Both join the canonical text there, so `canonical_bytes`
formats nothing again; only a dataset built directly from arrays formats its
features, when its canonical bytes are first asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite
from typing import Any, Iterable, Sequence

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

ACTIVATIONS = ("tanh", "relu")
OPTIMIZERS = ("sgd", "adam")

_RESERVED_COLUMNS = ("label", "sensitive")


@dataclass(frozen=True)
class Dataset:
    """Tabular rows of (features, class label, sensitive group).

    Immutable: construction marks the arrays read-only, so the canonical
    bytes and digest, computed once per object, cannot go stale.
    """

    schema: tuple[str, ...]
    features: np.ndarray  # (N, k) float64, canonical-quantized
    labels: np.ndarray  # (N,) int64
    sensitive: np.ndarray  # (N,) int64

    def __post_init__(self) -> None:
        for name in self.schema:
            if not name or any(c in name for c in ",\n\r") or name in _RESERVED_COLUMNS:
                raise DomainError(f"invalid feature name: {name!r}")
        if len(set(self.schema)) != len(self.schema):
            raise DomainError("duplicate feature names in schema")
        if self.features.ndim != 2 or self.features.shape[1] != len(self.schema):
            raise DomainError("feature arity does not match schema")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.sensitive.shape != (n,):
            raise DomainError("labels/sensitive length does not match row count")
        if n and self.labels.min() < 0:
            raise DomainError("labels must be nonnegative integers")
        for array in (self.features, self.labels, self.sensitive):
            array.setflags(write=False)

    @classmethod
    def from_rows(
        cls,
        schema: Sequence[str],
        features: Sequence[Sequence[float]],
        labels: Sequence[int],
        sensitive: Sequence[int],
    ) -> "Dataset":
        values, prefixes = [], []  # per row: quantized floats, canonical cells up to the label
        for row in features:
            texts, row_values = quantize(map(float, row))
            values.append(row_values)
            prefixes.append(",".join([*texts, ""]))
        dataset = cls(
            schema=tuple(schema),
            features=np.array(values, dtype=np.float64).reshape(len(values), len(schema)),
            labels=np.array(labels, dtype=np.int64),
            sensitive=np.array(sensitive, dtype=np.int64),
        )
        ys, zs = dataset.labels.tolist(), dataset.sensitive.tolist()
        dataset._seed_canonical_bytes(f"{prefix}{y},{z}" for prefix, y, z in zip(prefixes, ys, zs))
        return dataset

    def _seed_canonical_bytes(self, lines: Iterable[str]) -> None:
        """Set canonical_bytes from the canonical CSV data `lines`, which the
        caller built from the very strings its features were quantized from."""
        self.__dict__["canonical_bytes"] = _csv_bytes(self.schema, lines)

    def _canonical_lines(self) -> list[str]:
        """The canonical CSV's data lines, one per row: the feature cells,
        then the label and the group."""
        return self.canonical_bytes.decode("utf-8").split("\n")[1:-1]

    def _rows(self, part: slice) -> "Dataset":
        """The rows `part`, with their lines of this dataset's canonical CSV."""
        rows = Dataset(
            schema=self.schema,
            features=self.features[part],
            labels=self.labels[part],
            sensitive=self.sensitive[part],
        )
        rows._seed_canonical_bytes(self._canonical_lines()[part])
        return rows

    @property
    def num_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def num_features(self) -> int:
        return len(self.schema)

    @property
    def num_classes(self) -> int:
        if self.num_rows == 0:
            return 0
        return int(self.labels.max()) + 1

    @property
    def groups(self) -> tuple[int, ...]:
        return tuple(sorted(set(int(z) for z in self.sensitive)))

    @cached_property
    def canonical_bytes(self) -> bytes:
        """The canonical CSV; set at construction by from_rows, from_csv_bytes
        and FGSM, formatted from the features here for any other dataset."""
        rows = zip(self.features.tolist(), self.labels.tolist(), self.sensitive.tolist())
        return _csv_bytes(self.schema, (",".join([*map(decimal_string, x), str(y), str(z)]) for x, y, z in rows))

    @cached_property
    def digest(self) -> Digest:
        return hash_bytes(self.canonical_bytes)

    @classmethod
    def from_csv_bytes(cls, data: bytes) -> "Dataset":
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DomainError(f"CSV is not UTF-8: {exc}") from None
        lines = [line for line in text.replace("\r\n", "\n").split("\n") if line != ""]
        if not lines:
            raise DomainError("empty CSV: missing header")
        header = lines[0].split(",")
        if len(header) < 3 or tuple(header[-2:]) != _RESERVED_COLUMNS:
            raise DomainError("CSV header must end with 'label,sensitive'")
        schema = tuple(header[:-2])
        features, labels, sensitive, canonical = [], [], [], []
        for lineno, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            if len(cells) != len(header):
                raise DomainError(f"CSV line {lineno}: expected {len(header)} cells, got {len(cells)}")
            try:
                texts, values = _feature_cells(cells[:-2])
                label, group = int(cells[-2]), int(cells[-1])
            except ValueError:
                raise _cell_error(header, cells, lineno) from None
            features.append(values)
            labels.append(label)
            sensitive.append(group)
            canonical.append(",".join([*texts, str(label), str(group)]))
        dataset = cls(
            schema=schema,
            features=np.array(features, dtype=np.float64).reshape(len(features), len(schema)),
            labels=np.array(labels, dtype=np.int64),
            sensitive=np.array(sensitive, dtype=np.int64),
        )
        dataset._seed_canonical_bytes(canonical)
        return dataset


def _csv_bytes(schema: tuple[str, ...], lines: Iterable[str]) -> bytes:
    """Canonical CSV: the header, then one data line per row, each ended by a newline."""
    return "\n".join([",".join(schema + _RESERVED_COLUMNS), *lines, ""]).encode("utf-8")


def _feature_cells(cells: list[str]) -> tuple[list[str], list[float]]:
    """The canonical strings and quantized floats of a CSV row's feature
    cells. A row whose cells are all canonical (finite, and equal to their
    own 6-digit formatting) is taken as it is; any other row goes through
    parse_decimal_string and quantize, the rule that decides which cells are
    accepted and what they mean."""
    try:
        values = list(map(float, cells))
    except ValueError:
        pass
    else:
        if all(map(isfinite, values)) and [format(v, ".6f") for v in values] == cells:
            return cells, values
    return quantize([parse_decimal_string(c) for c in cells])


def _cell_error(header: list[str], cells: list[str], lineno: int) -> DomainError:
    """Names the first cell of a CSV row that does not parse: a feature
    cell must be a decimal number, a label or sensitive cell an integer."""
    for i, (name, cell) in enumerate(zip(header, cells)):
        integer = i >= len(header) - len(_RESERVED_COLUMNS)
        try:
            int(cell) if integer else parse_decimal_string(cell)
        except ValueError:
            kind = "an integer" if integer else "a decimal number"
            return DomainError(f"CSV line {lineno}, column {name!r}: {cell!r} is not {kind}")
    return DomainError(f"CSV line {lineno}: malformed row")


def config_int(value: Any, name: str) -> int:
    """int(value) for the config or model field `name`; a ConfigError naming
    the field when value is not an integer."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} is not an integer: {value!r}") from None


@dataclass(frozen=True)
class Architecture:
    """MLP layout: input width, hidden widths, class count, activation."""

    num_features: int
    num_classes: int
    hidden: tuple[int, ...]
    activation: str

    def __post_init__(self) -> None:
        if self.num_features < 1 or self.num_classes < 2:
            raise ConfigError("architecture needs num_features >= 1 and num_classes >= 2")
        if any(h < 1 for h in self.hidden):
            raise ConfigError("hidden layer widths must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r} (supported: {ACTIVATIONS})")

    @property
    def layer_widths(self) -> tuple[int, ...]:
        return (self.num_features, *self.hidden, self.num_classes)

    def to_json_value(self) -> dict[str, Any]:
        return {
            "activation": self.activation,
            "hidden": list(self.hidden),
            "num_classes": self.num_classes,
            "num_features": self.num_features,
        }

    @classmethod
    def from_json_value(cls, value: dict[str, Any]) -> "Architecture":
        return cls(
            num_features=config_int(value["num_features"], "num_features"),
            num_classes=config_int(value["num_classes"], "num_classes"),
            hidden=tuple(config_int(h, "hidden") for h in value["hidden"]),
            activation=value["activation"],
        )

    @cached_property
    def canonical_bytes(self) -> bytes:
        return canonicalize(self.to_json_value())

    @cached_property
    def digest(self) -> Digest:
        return hash_bytes(self.canonical_bytes)


@dataclass(frozen=True)
class TrainingConfig:
    architecture: Architecture
    epochs: int
    learning_rate: str  # decimal string, e.g. "0.001000"
    batch_size: int
    optimizer: str
    rng_seed: int

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r} (supported: {OPTIMIZERS})")
        try:
            learning_rate = parse_decimal_string(self.learning_rate)
        except ValueError:
            raise ConfigError(f"learning_rate is not a decimal string: {self.learning_rate!r}") from None
        if learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be nonnegative")

    def to_json_value(self) -> dict[str, Any]:
        return {
            "architecture": self.architecture.to_json_value(),
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "optimizer": self.optimizer,
            "rng_seed": self.rng_seed,
        }

    @classmethod
    def from_json_value(cls, value: dict[str, Any]) -> "TrainingConfig":
        try:
            return cls(
                architecture=Architecture.from_json_value(value["architecture"]),
                epochs=config_int(value["epochs"], "epochs"),
                learning_rate=value["learning_rate"],
                batch_size=config_int(value["batch_size"], "batch_size"),
                optimizer=value["optimizer"],
                rng_seed=config_int(value["rng_seed"], "rng_seed"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed training config: {exc}") from exc

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "TrainingConfig":
        return cls.from_json_value(parse_canonical(data))

    @cached_property
    def canonical_bytes(self) -> bytes:
        return canonicalize(self.to_json_value())

    @cached_property
    def digest(self) -> Digest:
        return hash_bytes(self.canonical_bytes)


@dataclass(frozen=True)
class InferenceRecord:
    """One inference: input features, per-class scores, chosen class.

    The predicted class is the argmax of the quantized score strings with
    ties broken toward the lowest class index, so the record is checkable
    from its serialized form alone.
    """

    features: tuple[float, ...]
    predicted_class: int
    scores: tuple[str, ...] = field(default_factory=tuple)

    def input_json_value(self) -> dict[str, Any]:
        return {"features": [decimal_string(v) for v in self.features]}

    def output_json_value(self) -> dict[str, Any]:
        return {"predicted_class": self.predicted_class, "scores": list(self.scores)}

    @property
    def input_digest(self) -> Digest:
        return hash_bytes(canonicalize(self.input_json_value()))

    @property
    def output_digest(self) -> Digest:
        return hash_bytes(canonicalize(self.output_json_value()))
