"""Canonical bytes and digests for everything that ends up inside an attestation.

Three commitments live here and nowhere else:

* SHA-256 is the digest algorithm; a Digest is exactly 32 bytes, hex is
  lowercase.
* Canonical JSON: UTF-8, object keys sorted by code point and never
  repeated, no insignificant whitespace, and no float tokens: non-integer
  numbers must be decimal strings (see decimal_string / ratio_string for
  the 6-fractional-digit, round-half-even formatting rule).
* Trusted manifests: sorted (path, digest) entries over a directory tree,
  with read-once file hashing so callers never operate on re-read bytes.

Every JSON record (quotes, certificates, certifications, training configs
and model files) is a Record, read from its JSON value by record_fields and
written, as canonical bytes only, by record_bytes, both driven by its field
annotations alone. The one writer of records is generated, on first write,
for each record type (and set of fields left out) from its field table: one
straight-line template % (...) of the fields. A write error names the
field's JSON pointer, then the path inside it. object_keys
is the one rule for a JSON object with exactly a given set of keys, records
and the envelope, bundle, trust file and inference input objects alike.
in_file is the one rule naming a file in an error (a `: path` suffix),
read_entries the one naming an entry of a JSON array (a `name i: ` prefix),
read_canonical, which uses in_file, the one reader of a JSON file, and
write_file the one writer of a file, naming it when it cannot be written.
parse_canonical_exact, the verifier's check of each payload, first decodes
with no per-object hook and falls back on parse_canonical's rules only when
the bytes are not canonical, so a canonical payload runs no Python per object.
"""

from __future__ import annotations

import hashlib
import json
import sys
from binascii import hexlify
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from functools import cache, cached_property
from json.encoder import encode_basestring
from math import isfinite
from pathlib import Path
from typing import AbstractSet, Any, Callable, ClassVar, Iterable, Iterator, Mapping, Sequence, TypeVar, get_type_hints

from .errors import CanonicalizationError, DomainError, FileReadError, FileWriteError, LamError, ManifestMismatchError

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


def _same(value: Any) -> Any:
    return value


def _integer(value: Any) -> int:
    if type(value) is not int:  # a bool is not an integer here
        raise TypeError(value)
    return value


def _integers(value: Any) -> tuple[int, ...]:
    if type(value) is not list:
        raise TypeError(value)
    return tuple(map(_integer, value))


def _record(record: Any, memo: dict[int, bytes]) -> bytes:
    return memo.get(id(record)) or memo.setdefault(id(record), record_bytes(record, memo))


# How a record field is read from JSON and written as canonical bytes (given
# the memo of record_bytes), by its annotated type. Any other type is a
# nested Record. A writer raises CanonicalizationError at the path inside the
# field, but the str writer UnicodeEncodeError for a lone surrogate.
_Codec = Callable[..., Any]
_FIELD_CODECS: dict[Any, tuple[_Codec, _Codec]] = {
    Digest: (Digest.from_hex, lambda digest, _: b'"%s"' % digest.value.hex().encode()),
    str: (_text, lambda text, _: _ENCODER.encode(text).encode() if type(text) is str else canonicalize(text)),
    bytes: (hex_bytes, lambda value, _: b'"%s"' % bytes.hex(value).encode()),
    bool: (_boolean, lambda value, _: (b"false", b"true")[value] if type(value) is bool else canonicalize(value)),
    int: (_integer, lambda value, _: b"%d" % value if type(value) is int else canonicalize(value)),
    tuple[int, ...]: (_integers, lambda value, _: canonicalize(value)),
    Any: (_same, lambda value, _: canonicalize(value)),
}


@cache
def _field_table(cls: type) -> tuple[frozenset[str], tuple[tuple[str, _Codec, _Codec], ...]]:
    """The names, and (name, parser, bytes writer) of each, of the init
    fields of the dataclass `cls`, worked out once per class."""
    hints = get_type_hints(cls)
    table = []
    for f in fields(cls):
        if f.init:
            kind = hints[f.name]
            codecs = _FIELD_CODECS.get(kind) or (kind.from_json_value, _record)
            table.append((f.name, *codecs))
    return frozenset(name for name, *_ in table), tuple(table)


@cache
def _sorted_writers(cls: type, without: frozenset[str]) -> tuple[tuple[str, _Codec], ...]:
    """(name, bytes writer) of each field of a `cls` record but those
    `without`, sorted by name, the key order of its canonical bytes."""
    return tuple(sorted((name, write) for name, _, write in _field_table(cls)[1] if name not in without))


# How a generated writer fills the field of a record with one of these bytes
# writers straight from its attribute {v}: the field's slot in the template,
# and the expression that fills it. A value of another type goes to the
# field's writer {w}, so a bytearray or memoryview in a bytes field, which
# hexlify would take, still raises bytes.hex's TypeError.
_INLINE: dict[_Codec, tuple[bytes, str]] = {
    _FIELD_CODECS[Digest][1]: (b'"%s"', "_hexlify({v}.value)"),
    _FIELD_CODECS[bytes][1]: (b'"%s"', "(_hexlify({v}) if type({v}) is bytes else {w}({v}, memo)[1:-1])"),
    _FIELD_CODECS[str][1]: (b"%s", "(_quote({v}).encode() if type({v}) is str else {w}({v}, memo))"),
}


@cache
def _writer(cls: type, without: frozenset[str]) -> Callable[[Any, dict[int, bytes]], bytes]:
    """The bytes writer of a `cls` record less the fields `without`, given
    the memo of record_bytes: one `template % (...)` of its fields in key
    order, each read as an attribute, generated from the field table on
    first use, as dataclasses generates __init__. Only field names, which
    are identifiers, enter its source; the template and writers are in its
    namespace."""
    slots, values = [], []
    namespace: dict[str, Any] = {"_hexlify": hexlify, "_quote": encode_basestring}
    for i, (name, write) in enumerate(_sorted_writers(cls, without)):
        slot, value = _INLINE.get(write, (b"%s", "{w}({v}, memo)"))
        slots.append(_ENCODER.encode(name).encode("utf-8") + b":" + slot)
        values.append(value.format(v=f"r.{name}", w=f"_w{i}") + ",")
        namespace[f"_w{i}"] = write
    namespace["_template"] = b"{" + b",".join(slots) + b"}"
    exec(f"def write(r, memo):\n    return _template % ({' '.join(values)})\n", namespace)
    return namespace["write"]


def object_keys(value: Any, keys: AbstractSet[str], name: str) -> None:
    """Refuse `value` unless it is a JSON object with exactly the keys
    `keys`: a LamError naming `name` for a non-object, else the first key in
    sorted order that is not one of `keys`, else the first one missing. The
    canonical bytes of what is read would leave an unknown key out."""
    if not isinstance(value, dict):
        raise LamError(f"{name} must be a JSON object")
    if value.keys() != keys:
        unknown = sorted(value.keys() - keys)
        if unknown:
            raise LamError(f"{name} has an unknown key: {unknown[0]!r}")
        raise LamError(f"{name} has no {min(keys - value.keys())!r} field")


def record_fields(cls: type, value: Any, record: str, given: Mapping[str, Any] = {}) -> dict[str, Any]:
    """The init fields of the `cls` record, parsed from the JSON object
    `value` by their annotated types, but those in `given`, taken as already
    parsed; a LamError naming the key or field when `value` is not an object
    with exactly the fields as keys (see object_keys) or a field does not
    parse. The inverse of record_bytes."""
    keys, table = _field_table(cls)
    if not isinstance(value, dict) or len(value) != len(keys):
        object_keys(value, keys, record)
    parsed = {}
    for name, parse, _ in table:
        if name not in value:  # as many keys as fields, so one key is unknown
            object_keys(value, keys, record)
        try:
            parsed[name] = given[name] if name in given else parse(value[name])
        except (TypeError, ValueError):
            raise LamError(f"{record} field {name!r} is malformed: {value[name]!r}") from None
    return parsed


def record_bytes(record: Any, memo: dict[int, bytes] | None = None, without: AbstractSet[str] = frozenset()) -> bytes:
    """The canonical bytes of the record's JSON object, less the fields
    `without`, written by the one writer generated for its type from its
    field table (see _writer); a nested record once per `memo` (id to
    bytes), which a caller writing many records keeps for one write.
    With no memo, a field that cannot be written raises CanonicalizationError
    at its name then the path inside it, looked for in key order only once
    the write has failed; with one, the caller names it (records_bytes)."""
    without = frozenset(without)
    if memo is None:
        try:
            return record_bytes(record, {}, without)
        except (CanonicalizationError, UnicodeEncodeError):
            for name, write in _sorted_writers(type(record), without):
                value = getattr(record, name)
                try:
                    record_bytes(value) if write is _record else write(value, {})
                except UnicodeEncodeError:  # the str writer's: canonicalize names its own
                    raise CanonicalizationError(f"/{name}", f"string {_UNENCODABLE}") from None
                except CanonicalizationError as exc:
                    raise CanonicalizationError(f"/{name}{exc.path}", exc.reason) from None
            raise
    return _writer(type(record), without)(record, memo)


def records_bytes(records: Sequence[Any], at: str) -> Iterator[bytes]:
    """record_bytes of each record, in turn, a nested record shared by many
    once; a CanonicalizationError names the first that cannot be written at
    at.format(index), then its path in the record, the one rule by which a
    write error names an array entry, looked for as read_entries does."""
    memo: dict[int, bytes] = {}
    try:
        for record in records:
            yield record_bytes(record, memo)
    except (CanonicalizationError, UnicodeEncodeError):
        for i, record in enumerate(records):
            try:
                record_bytes(record)
            except CanonicalizationError as exc:
                raise CanonicalizationError(at.format(i) + exc.path, exc.reason) from None
        raise


_R = TypeVar("_R", bound="Record")
_T = TypeVar("_T")


class Record:
    """A record whose wire form is the JSON object of its init fields, read
    (record_fields) and written (record_bytes) from the field annotations
    alone; read errors name it by record_name. Its canonical bytes and
    digest are computed once, on first use."""

    record_name: ClassVar[str]

    @classmethod
    def from_json_value(cls: type[_R], value: Any) -> _R:
        """The record read from its JSON object; a LamError naming the
        record and field when it is not one (see record_fields)."""
        return cls(**record_fields(cls, value, cls.record_name))

    @cached_property
    def canonical_bytes(self) -> bytes:
        return record_bytes(self)

    @cached_property
    def digest(self) -> Digest:
        return hash_bytes(self.canonical_bytes)


def hash_bytes(data: bytes) -> Digest:
    """SHA-256 of a byte string."""
    return Digest(hashlib.sha256(data).digest())


def read_file_once(path: str | Path) -> bytes:
    """Read a file exactly once; a FileReadError names it when it cannot be read.

    Callers must keep working with the returned bytes; re-reading the path
    would reopen the time-of-check/time-of-use gap this exists to close.
    """
    p = Path(path)
    try:
        with open(p, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FileReadError(f"cannot read {p}: {exc.strerror or exc}") from exc


def write_file(path: str | Path, *chunks: bytes) -> None:
    """Write the chunks to a file, making its missing parent directories; a
    FileWriteError names it when it cannot be written, the one rule for a
    write as read_file_once is for a read."""
    p = Path(path)
    try:
        with suppress(FileExistsError):  # a file in the way: open finds it is not a directory
            p.parent.mkdir(parents=True, exist_ok=True)
        with open(p, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise FileWriteError(f"cannot write {p}: {exc.strerror or exc}") from exc


def hash_file_once(path: str | Path) -> tuple[bytes, Digest]:
    """Read a file exactly once (see read_file_once) and return (content,
    digest of content)."""
    content = read_file_once(path)
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
# from canonicalize; from parse_canonical_exact one raises ValueError. No
# cycle reaches it either (canonicalize walks a value first, and parsed JSON
# holds none), so it keeps no record of the containers it is inside.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False, check_circular=False
)
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


def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """The object of a JSON decoder's key-value pairs, as an
    object_pairs_hook; a repeated key is refused, never last-writer-wins."""
    value = dict(pairs)
    if len(value) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise CanonicalizationError("", f"repeated object key {key!r}")
            seen.add(key)
    return value


_DECODER = json.JSONDecoder(parse_float=_reject_float, object_pairs_hook=unique_keys)
# parse_canonical_exact's first try: C builds each object, with no hook call.
_PLAIN_DECODER = json.JSONDecoder(parse_float=_reject_float)


def parse_canonical(data: bytes) -> Any:
    """Parse canonical JSON bytes, refusing a number token with a fraction
    or an exponent (1.5, 1e3), an integer token longer than int's digit
    limit (sys.get_int_max_str_digits) and a repeated object key as it
    reads them.
    The NaN, Infinity and -Infinity tokens parse to floats, which
    canonicalize and parse_canonical_exact then refuse."""
    try:
        text = data.decode("utf-8")
        if text.startswith("\ufeff"):  # as json.loads words it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except CanonicalizationError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CanonicalizationError("", f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # int's limit on the digits of a number token
        raise CanonicalizationError("", f"integer token of more than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError:
        raise CanonicalizationError("", "JSON is nested too deeply") from None


@contextmanager
def in_file(path: str | Path) -> Iterator[None]:
    """Name the file `path`, as a `: path` suffix, in any LamError raised
    inside: the one rule by which an error names the file it was read from."""
    try:
        yield
    except LamError as exc:
        raise LamError(f"{exc}: {path}") from None


def read_entries(name: str, values: list[Any], read: Callable[[list[Any]], _T]) -> _T:
    """`read` of the entries of a JSON array, in order; a LamError names the
    first entry that `read` refuses as `{name} {index}: `, the one rule by
    which an error names an array entry. Only a refusal looks for its entry,
    reading one entry at a time, so reading that succeeds pays nothing."""
    try:
        return read(values)
    except LamError:
        for i, value in enumerate(values):
            try:
                read([value])
            except LamError as exc:
                raise LamError(f"{name} {i}: {exc}") from None
        raise


def read_canonical(path: str | Path, read: Callable[[Any], _T]) -> _T:
    """`read` of the value of a canonical JSON file, read once (see
    parse_canonical); an error in parsing or in `read` names the file."""
    content = read_file_once(path)
    with in_file(path):
        return read(parse_canonical(content))


def parse_canonical_exact(data: bytes) -> Any:
    """The value of data, which must be canonical JSON: it parses (see
    parse_canonical) and re-serializes to exactly these bytes.

    The text is first decoded with no object_pairs_hook, so no Python runs
    per object, and re-encoded to be compared with itself: a repeated key
    cannot pass, as the value holds it once and so re-encodes to other text.
    Anything that fails (decoding, encoding or the comparison) is parsed
    again by parse_canonical, which names a repeated key first, as it reads
    it. A value it parses holds only string keys and no float but NaN or an
    infinity (the NaN and Infinity tokens), so it is re-encoded without
    canonicalize's walk. Those floats, and lone surrogates (from a \\ud800
    escape), fail the encoding, and canonicalize then names the offence.
    """
    try:
        text = data.decode("utf-8")
        value, _ = _PLAIN_DECODER.raw_decode(text)  # what follows the value fails the comparison
        if _ENCODER.encode(value) == text:
            return value
    except (ValueError, RecursionError, CanonicalizationError):  # UnicodeError and JSONDecodeError too
        pass
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


def decimal_string(value: float) -> str:
    """Format a float as a decimal string with exactly 6 fractional digits.

    Rounding is half-even; the sign is preserved (so -0.0 stays "-0.000000").
    This is the single formatting rule behind every non-integer number that
    appears in canonical bytes (ratio_string applies it to an exact ratio).
    NaN and infinities have no such form and raise DomainError.
    """
    if not isinstance(value, float):
        raise TypeError(f"decimal_string takes a float, not {type(value).__name__}")
    if not isfinite(value):
        raise DomainError(f"not a finite number: {value!r}")
    return format(value, ".6f")


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


def require_in_manifest(manifest: TrustedManifest, path: str, content: bytes) -> None:
    """Check that (path, hash of content) is an entry of the manifest;
    ManifestMismatchError when the path is not listed or the hash differs."""
    expected = manifest.digest_for(path)
    if expected is None:
        raise ManifestMismatchError(path, "path not listed in trusted manifest")
    if expected != hash_bytes(content):
        raise ManifestMismatchError(path, "content hash does not match trusted manifest")
