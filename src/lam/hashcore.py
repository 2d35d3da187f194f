"""Canonical bytes and digests for everything that ends up inside an attestation.

Three commitments live here and nowhere else:

* SHA-256 is the digest algorithm; a Digest is exactly 32 bytes, hex is
  lowercase.
* Canonical JSON: UTF-8, object keys sorted by code point, no insignificant
  whitespace, and no float tokens: non-integer numbers must be decimal
  strings (see decimal_string / ratio_string for the 6-fractional-digit,
  round-half-even formatting rule, and quantize_rows for the arrays of
  features and parameters it applies to).
* Trusted manifests: sorted (path, digest) entries over a directory tree,
  with read-once file hashing so callers never operate on re-read bytes.

Wire records (quotes, certificates, certifications) are read from their
canonical JSON by one typed parser, parse_record, driven by each record's
field annotations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from functools import cache
from math import isfinite
from pathlib import Path
from typing import Any, Callable, Iterable, get_type_hints

import numpy as np

from .errors import CanonicalizationError, DomainError, FileReadError, LamError, ManifestMismatchError

_QUANTUM = Decimal("0.000001")


@dataclass(frozen=True)
class Digest:
    """A SHA-256 digest value."""

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != 32:
            raise ValueError("Digest must be exactly 32 bytes")

    @property
    def hex(self) -> str:
        return self.value.hex()

    @classmethod
    def from_hex(cls, text: str) -> "Digest":
        value = _lower_hex(text) if len(text) == 64 else None
        if value is None:
            raise ValueError(f"not a lowercase 64-char hex digest: {text!r}")
        return cls(value)

    def __str__(self) -> str:
        return self.hex


def _lower_hex(text: str) -> bytes | None:
    """The bytes `text` writes in the one form bytes.hex() gives (lower
    case, no spaces), or None; TypeError when `text` is not a string."""
    try:
        value = bytes.fromhex(text)
    except ValueError:
        return None
    return value if value.hex() == text else None


def hex_bytes(text: str) -> bytes:
    """The bytes written as lower-case hex with no spaces, the one form
    bytes.hex() gives; ValueError for upper case, spaces or other text."""
    value = _lower_hex(text)
    if value is None:
        raise ValueError(f"not lower-case hex: {text!r}")
    return value


def _text(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def _boolean(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


# How a record field is read from JSON, by its annotated type. A field of
# any other type is a nested record, read by that type's from_json_value.
_FIELD_PARSERS: dict[Any, Callable[[Any], Any]] = {
    Digest: Digest.from_hex,
    str: _text,
    bytes: hex_bytes,
    bool: _boolean,
    Any: lambda value: value,
}


@cache
def _field_table(cls: type) -> tuple[tuple[str, Callable[[Any], Any]], ...]:
    """(name, parser) of each init field of the dataclass `cls`, worked out
    once per class."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, _FIELD_PARSERS.get(hints[f.name]) or hints[f.name].from_json_value)
        for f in fields(cls)
        if f.init
    )


def record_fields(cls: type, value: Any, record: str) -> dict[str, Any]:
    """The init fields of the `cls` record, parsed from the JSON object
    `value` by their annotated types; a LamError naming the field when
    `value` is not an object, or a field is missing or does not parse."""
    if not isinstance(value, dict):
        raise LamError(f"{record} must be a JSON object")
    parsed = {}
    for name, parse in _field_table(cls):
        if name not in value:
            raise LamError(f"{record} has no {name!r} field")
        try:
            parsed[name] = parse(value[name])
        except (TypeError, ValueError):
            raise LamError(f"{record} field {name!r} is malformed: {value[name]!r}") from None
    return parsed


def parse_record(cls: type, value: Any, record: str) -> Any:
    """The `cls` record read from its JSON object (see record_fields)."""
    return cls(**record_fields(cls, value, record))


def hash_bytes(data: bytes) -> Digest:
    """SHA-256 of a byte string."""
    return Digest(hashlib.sha256(data).digest())


def hash_file_once(path: str | Path) -> tuple[bytes, Digest]:
    """Read a file exactly once and return (content, digest of content).

    Callers must keep working with the returned bytes; re-reading the path
    would reopen the time-of-check/time-of-use gap this exists to close.
    """
    p = Path(path)
    try:
        with open(p, "rb") as fh:
            content = fh.read()
    except OSError as exc:
        raise FileReadError(f"cannot read {p}: {exc.strerror or exc}") from exc
    return content, hash_bytes(content)


def canonicalize(value: Any) -> bytes:
    """Serialize a JSON value to canonical UTF-8 bytes.

    Allowed leaves: None, bool, int, str. Floats, and strings or keys holding
    a lone surrogate, are rejected with the JSON path of the offence. Object
    keys must be strings and are emitted in sorted order; arrays keep their
    order. Canonical bytes are a fixed point: parse_canonical(canonicalize(v))
    re-canonicalizes byte-identically.
    """
    try:
        try:
            _check_canonical(value, "", _LEAF_TYPES)
            return _ENCODER.encode(value).encode("utf-8")
        except (CanonicalizationError, UnicodeEncodeError):
            # Only the encoding notices a lone surrogate. Walk again, into
            # every string, for the first offence in emission order.
            _check_canonical(value, "", _NON_TEXT_LEAVES)
            raise
    except RecursionError:
        raise CanonicalizationError("", "value is nested too deeply") from None


# Built once: json.dumps and json.loads build a new encoder or decoder on
# every call that passes options. No NaN or infinity reaches the encoder
# from canonicalize; from parse_canonical_exact one raises ValueError.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)
# bool is an int subclass, so it is a leaf too.
_LEAF_TYPES = (str, int, type(None))
_NON_TEXT_LEAVES = (int, type(None))
_UNENCODABLE = "holds a lone surrogate, which UTF-8 cannot encode"


def _encodable(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _check_canonical(value: Any, path: str, leaves: tuple[type, ...]) -> None:
    """Reject what canonical JSON cannot hold, reporting the first offending
    path in emission order (object keys sorted, arrays in order). Values of
    the `leaves` types are not descended into; with _NON_TEXT_LEAVES every
    string and key is also checked to be encodable as UTF-8."""
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise CanonicalizationError(path, f"object key {key!r} is not a string")
        if leaves is _NON_TEXT_LEAVES:
            for key in value:
                if not _encodable(key):
                    raise CanonicalizationError(path, f"object key {key!r} {_UNENCODABLE}")
        for key in sorted(value):
            item = value[key]
            if not isinstance(item, leaves):
                _check_canonical(item, f"{path}/{key}", leaves)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            if not isinstance(item, leaves):
                _check_canonical(item, f"{path}/{i}", leaves)
    elif isinstance(value, str):
        if not _encodable(value):
            raise CanonicalizationError(path, f"string {_UNENCODABLE}")
    elif isinstance(value, float):
        raise CanonicalizationError(path, "float values are not allowed; use a decimal string")
    elif not isinstance(value, _LEAF_TYPES):
        raise CanonicalizationError(path, f"unsupported type {type(value).__name__}")


def _reject_float(text: str) -> Any:
    raise CanonicalizationError("", f"float token {text!r} in canonical JSON")


_DECODER = json.JSONDecoder(parse_float=_reject_float)


def parse_canonical(data: bytes) -> Any:
    """Parse canonical JSON bytes, rejecting float tokens outright."""
    try:
        text = data.decode("utf-8")
        if text.startswith("\ufeff"):  # as json.loads words it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except CanonicalizationError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CanonicalizationError("", f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise CanonicalizationError("", "JSON is nested too deeply") from None


def read_canonical(path: str | Path) -> Any:
    """The value of a canonical JSON file, read once (see parse_canonical)."""
    content, _ = hash_file_once(path)
    return parse_canonical(content)


def parse_canonical_exact(data: bytes) -> Any:
    """The value of data, which must be canonical JSON: it parses (see
    parse_canonical) and re-serializes to exactly these bytes.

    A parsed value holds only string keys and no float but NaN or an
    infinity (the NaN and Infinity tokens), so it is re-encoded without
    canonicalize's walk. Those floats, and lone surrogates (from a \\ud800
    escape), fail the encoding, and canonicalize then names the offence.
    """
    value = parse_canonical(data)
    try:
        encoded = _ENCODER.encode(value).encode("utf-8")
    except (ValueError, RecursionError):  # UnicodeEncodeError is a ValueError
        canonicalize(value)  # raises the CanonicalizationError naming the offence
        raise
    if encoded != data:
        raise CanonicalizationError("", "bytes are not in canonical form")
    return value


def is_canonical(data: bytes) -> bool:
    """True iff data parses as JSON with no floats and re-serializes identically."""
    try:
        parse_canonical_exact(data)
    except CanonicalizationError:
        return False
    return True


def decimal_string(value: float | int | Decimal) -> str:
    """Format a number as a decimal string with exactly 6 fractional digits.

    Rounding is half-even; the sign is preserved (so -0.0 stays "-0.000000").
    This is the single formatting rule behind every non-integer number that
    appears in canonical bytes. NaN and infinities have no such form and
    raise DomainError.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a numeric value")
    if isinstance(value, float):
        if not isfinite(value):
            raise DomainError(f"not a finite number: {value!r}")
        return format(value, ".6f")
    number = Decimal(value)
    if not number.is_finite():
        raise DomainError(f"not a finite number: {value!r}")
    with localcontext() as ctx:
        ctx.prec = 50
        return str(number.quantize(_QUANTUM, rounding=ROUND_HALF_EVEN))


def quantize_rows(rows: Any) -> tuple[list[str], np.ndarray]:
    """The canonical text of each row of a float array, its cells joined by
    commas, and the float64 array the cells parse to.

    This is the one quantizer of dataset features, model parameters and
    inference inputs and scores. Each row is formatted with one `%`-format,
    by the rule decimal_string applies to a float, and all cells are read
    back by one cast of their strings to float64, which gives each the float
    that float() gives. Quantizing is idempotent, so a round trip through
    any canonical file gives back the same floats. NaN and infinities raise
    decimal_string's DomainError, for the first in row order.
    """
    array = np.asarray(rows, dtype=np.float64)
    line = ",".join(["%.6f"] * array.shape[-1])
    texts = [line % tuple(row) for row in array.tolist()]
    joined = ",".join(texts)
    if "n" in joined:  # "nan" or "inf": no finite number's text has an n
        decimal_string(float(array[~np.isfinite(array)][0]))
    if not array.size:  # rows of no cells, which join to bare commas
        return texts, np.empty(array.shape)
    return texts, np.array(joined.split(","), dtype=np.float64).reshape(array.shape)


def ratio_string(numerator: int, denominator: int) -> str:
    """Exact numerator/denominator formatted per the 6-digit half-even rule."""
    if denominator == 0:
        raise ZeroDivisionError("ratio with zero denominator")
    with localcontext() as ctx:
        ctx.prec = 50
        return str((Decimal(numerator) / Decimal(denominator)).quantize(_QUANTUM, rounding=ROUND_HALF_EVEN))


def parse_decimal_string(text: str) -> float:
    """Parse a decimal-string number, rejecting junk early (ValueError) and
    NaN, infinities and values beyond the float range (DomainError)."""
    try:
        value = float(Decimal(text))
    except Exception as exc:
        raise ValueError(f"not a decimal string: {text!r}") from exc
    if not isfinite(value):
        raise DomainError(f"not a finite decimal string: {text!r}")
    return value


@dataclass(frozen=True)
class TrustedManifest:
    """Sorted (relative path, content digest) entries plus their own digest."""

    entries: tuple[tuple[str, Digest], ...]

    def __post_init__(self) -> None:
        paths = [p for p, _ in self.entries]
        ordered = sorted(paths, key=lambda p: p.encode("utf-8"))
        if paths != ordered:
            raise ValueError("manifest entries must be sorted by path (bytewise)")
        if len(set(paths)) != len(paths):
            raise ValueError("manifest entries contain a duplicate path")

    @property
    def canonical_bytes(self) -> bytes:
        return canonicalize([{"path": p, "sha256": d.hex} for p, d in self.entries])

    @property
    def manifest_digest(self) -> Digest:
        return hash_bytes(self.canonical_bytes)

    def digest_for(self, path: str) -> Digest | None:
        for p, d in self.entries:
            if p == path:
                return d
        return None

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[str, Digest]]) -> "TrustedManifest":
        return cls(tuple(sorted(entries, key=lambda e: e[0].encode("utf-8"))))

    @classmethod
    def from_json_value(cls, value: Any) -> "TrustedManifest":
        if not isinstance(value, list):
            raise ValueError("manifest JSON must be an array")
        entries = []
        for item in value:
            entries.append((item["path"], Digest.from_hex(item["sha256"])))
        return cls.from_entries(entries)


def build_manifest(root: str | Path) -> TrustedManifest:
    """Hash every regular file under root into a TrustedManifest.

    Paths are relative to root with '/' separators; symlinks and empty
    directories are excluded. Enumeration order does not matter; entries
    are sorted bytewise by path.
    """
    rootp = Path(root)
    if not rootp.is_dir():
        raise FileReadError(f"cannot read {rootp}: not a directory")
    entries: list[tuple[str, Digest]] = []
    for p in rootp.rglob("*"):
        if p.is_symlink() or not p.is_file():
            continue
        _, digest = hash_file_once(p)
        entries.append((p.relative_to(rootp).as_posix(), digest))
    return TrustedManifest.from_entries(entries)


def verify_against_manifest(manifest: TrustedManifest, path: str, content: bytes) -> bool:
    """True iff (path, hash of content) is an entry of the manifest."""
    expected = manifest.digest_for(path)
    return expected is not None and expected == hash_bytes(content)


def require_in_manifest(manifest: TrustedManifest, path: str, content: bytes) -> None:
    """verify_against_manifest, raising ManifestMismatchError on reject."""
    if manifest.digest_for(path) is None:
        raise ManifestMismatchError(path, "path not listed in trusted manifest")
    if not verify_against_manifest(manifest, path, content):
        raise ManifestMismatchError(path, "content hash does not match trusted manifest")
