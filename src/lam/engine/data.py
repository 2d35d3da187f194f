"""Canonical dataset / training-config / inference-record formats.

A dataset's identity is the digest of its canonical CSV bytes; a config's
identity is the digest of its canonical JSON. Feature values are quantized to
the 6-fractional-digit decimal rule on construction, which makes the in-memory
floats exactly the values a round trip through the file yields.

A dataset's features are quantized in one place, `hashcore.quantize_rows`,
and its canonical CSV lines are the row strings that quantizer formats.
`Dataset.from_rows` calls it, and so does every loader that is not handed a
canonical file: `Dataset.from_csv_bytes` keeps a file that is already
canonical as it stands, checking it line by line and parsing every number
with one `np.fromstring` call, and passes the parsed cells of any other file
to `from_rows`. A dataset built directly from quantized arrays formats its
features through the same quantizer when its canonical bytes are first
asked for.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..errors import ConfigError, DomainError
from ..hashcore import (
    Digest,
    canonicalize,
    hash_bytes,
    parse_canonical,
    parse_decimal_string,
    quantize_rows,
)

ACTIVATIONS = ("tanh", "relu")
OPTIMIZERS = ("sgd", "adam")

_RESERVED_COLUMNS = ("label", "sensitive")

# The cells of a file kept as it stands. A feature cell of at most 15
# significant digits is the 6-digit formatting of its own float, and an
# integer of at most 15 digits is exact as a double and fits int64.
_SMALL_DECIMAL = rb"-?(?:0|[1-9][0-9]{0,8})\.[0-9]{6}"
_SMALL_INTEGER = rb"(?:0|-?[1-9][0-9]{0,14})"


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
        if not self.schema:
            raise DomainError("a dataset needs at least one feature column")
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
        """A dataset of the rows' features quantized by hashcore.quantize_rows;
        its canonical CSV is joined from the row strings they were quantized
        from, so no feature is formatted twice."""
        texts, values = quantize_rows(np.asarray(features, dtype=np.float64).reshape(len(features), len(schema)))
        labels_array, sensitive_array = _int64_columns(labels, sensitive, lambda i: f"row {i}")
        dataset = cls(schema=tuple(schema), features=values, labels=labels_array, sensitive=sensitive_array)
        dataset.__dict__["canonical_bytes"] = _csv_bytes(dataset.schema, texts, dataset.labels, dataset.sensitive)
        return dataset

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
        """The canonical CSV; set at construction by from_rows and by
        from_csv_bytes, formatted from the features here for any other
        dataset."""
        return _csv_bytes(self.schema, quantize_rows(self.features)[0], self.labels, self.sensitive)

    @cached_property
    def digest(self) -> Digest:
        return hash_bytes(self.canonical_bytes)

    @classmethod
    def from_csv_bytes(cls, data: bytes) -> "Dataset":
        canonical = _canonical_cells(data)
        if canonical is not None:
            schema, cells = canonical
            k = len(schema)
            dataset = cls(
                schema=schema,
                features=cells[:, :k].copy(),
                labels=cells[:, k].astype(np.int64),
                sensitive=cells[:, k + 1].astype(np.int64),
            )
            dataset.__dict__["canonical_bytes"] = bytes(data)
            return dataset
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
        features, labels, sensitive = [], [], []
        for lineno, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            if len(cells) != len(header):
                raise DomainError(f"CSV line {lineno}: expected {len(header)} cells, got {len(cells)}")
            try:
                features.append([parse_decimal_string(cell) for cell in cells[:-2]])
                labels.append(int(cells[-2]))
                sensitive.append(int(cells[-1]))
            except ValueError:
                raise _cell_error(header, cells, lineno) from None
        labels_array, sensitive_array = _int64_columns(labels, sensitive, lambda i: f"CSV line {i + 2}")
        return cls.from_rows(schema, features, labels_array, sensitive_array)


def _csv_bytes(schema: tuple[str, ...], rows: Iterable[str], labels: np.ndarray, sensitive: np.ndarray) -> bytes:
    """Canonical CSV: the header, then one data line per row, each ended by a
    newline: the row's quantized feature text, its label and its group."""
    lines = map("%s,%d,%d".__mod__, zip(rows, labels.tolist(), sensitive.tolist()))
    return "\n".join([",".join(schema + _RESERVED_COLUMNS), *lines, ""]).encode("utf-8")


def _canonical_cells(data: bytes) -> tuple[tuple[str, ...], np.ndarray] | None:
    """The schema and the cell values, one row per data line, of a CSV that is
    canonical as it stands and whose cells all match _SMALL_DECIMAL and
    _SMALL_INTEGER; None for any other CSV. The file is checked line by line
    and parsed with one np.fromstring call, which reads each such number to
    the float that float() gives."""
    if not data.isascii() or b"\r" in data or not data.endswith(b"\n"):
        return None
    header, _, body = data[:-1].partition(b"\n")
    names = header.decode("ascii").split(",")
    if len(names) < 3 or tuple(names[-2:]) != _RESERVED_COLUMNS or not body:
        return None
    line = re.compile(rb"(?:%s,){%d}%s,%s" % (_SMALL_DECIMAL, len(names) - 2, _SMALL_INTEGER, _SMALL_INTEGER))
    lines = body.split(b"\n")
    if not all(map(line.fullmatch, lines)):
        return None
    cells = np.fromstring(body.replace(b"\n", b","), dtype=np.float64, sep=",")
    return tuple(names[:-2]), cells.reshape(len(lines), len(names))


def _int64_columns(
    labels: Sequence[int], sensitive: Sequence[int], row: Callable[[int], str]
) -> tuple[np.ndarray, np.ndarray]:
    """The label and sensitive columns as int64 arrays; a DomainError naming
    the first cell, in row order, that int64 cannot hold, with `row(i)`
    naming the row it is on."""
    try:
        return np.array(labels, dtype=np.int64), np.array(sensitive, dtype=np.int64)
    except OverflowError:
        for i, cells in enumerate(zip(labels, sensitive)):
            for name, value in zip(_RESERVED_COLUMNS, cells):
                if not -(2**63) <= value < 2**63:
                    raise DomainError(f"{row(i)}, column {name!r}: {value} is outside the int64 range") from None
        raise


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
    from its serialized form alone. Features and scores are kept as the
    canonical strings they were quantized to.
    """

    features: tuple[str, ...]
    predicted_class: int
    scores: tuple[str, ...]

    def input_json_value(self) -> dict[str, Any]:
        return {"features": list(self.features)}

    def output_json_value(self) -> dict[str, Any]:
        return {"predicted_class": self.predicted_class, "scores": list(self.scores)}

    @property
    def input_digest(self) -> Digest:
        return hash_bytes(canonicalize(self.input_json_value()))

    @property
    def output_digest(self) -> Digest:
        return hash_bytes(canonicalize(self.output_json_value()))
