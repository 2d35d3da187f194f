"""Assemble verified fragments into ML property cards.

A card's claims are a pure union of the fragments (and external certificates)
listed in its provenance: removing one envelope from a bundle removes exactly
its claims from the assembled cards. Cross-fragment linkage status is the
chain report's job, not the cards', so a card never changes because an
unrelated envelope came or went. Conflicting claims for the same key are a
hard error; silently keeping either side would launder a contradiction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from .certs import ExternalCertificate, certificates_by_subject
from .errors import CardConflictError, LamError
from .fragments import index_fragments

if TYPE_CHECKING:
    from .verifier import ChainReport, VerifiedFragment


# Card YAML is what PyYAML's yaml.safe_dump(document, sort_keys=False,
# default_flow_style=False, allow_unicode=True) writes; the emitter below
# reproduces it without PyYAML. Repeated collections are written out each
# time: a card built by assemble_cards never holds one twice, so it never
# needs PyYAML's &id001 anchors.

# A plain scalar may not start with one of these (PyYAML's
# Emitter.analyze_scalar).
_INDICATORS = frozenset("#,[]{}&*!|>'\"%@`")

# SafeDumper's implicit resolvers (bool, float, int, merge, null, timestamp,
# value, yaml) as one pattern: a plain scalar must not read back as any of
# them. Each alternative can only match a string starting with one of the
# characters PyYAML looks it up by, so one pattern gives the same answers.
_IMPLICIT = re.compile(
    r"""^(?:yes|Yes|YES|no|No|NO|true|True|TRUE|false|False|FALSE|on|On|ON|off|Off|OFF)$
    |^(?:[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+][0-9]+)?
        |\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?
        |[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*
        |[-+]?\.(?:inf|Inf|INF)
        |\.(?:nan|NaN|NAN))$
    |^(?:[-+]?0b[0-1_]+
        |[-+]?0[0-7_]+
        |[-+]?(?:0|[1-9][0-9_]*)
        |[-+]?0x[0-9a-fA-F_]+
        |[-+]?[1-9][0-9_]*(?::[0-5]?[0-9])+)$
    |^(?:<<)$
    |^(?:~|null|Null|NULL|)$
    |^(?:[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]
        |[0-9][0-9][0-9][0-9]-[0-9][0-9]?-[0-9][0-9]?
         (?:[Tt]|[\ \t]+)[0-9][0-9]?
         :[0-9][0-9]:[0-9][0-9](?:\.[0-9]*)?
         (?:[\ \t]*(?:Z|[-+][0-9][0-9]?(?::[0-9][0-9])?))?)$
    |^(?:=)$
    |^(?:!|&|\*)$""",
    re.X,
)

_BREAKS = "\n\x85\u2028\u2029"
_HAS_BREAK = re.compile(f"[{_BREAKS}]")
# Only a double-quoted scalar can hold a special character (anything but
# "\n", printable ASCII and the printable non-ASCII that allow_unicode writes
# as it is), or a space next to a line break.
_NEEDS_DOUBLE = re.compile(
    f"[^\n\x20-\x7e\x85\xa0-\ud7ff\ue000-\ufffd\U00010000-\U0010fffe]|\ufeff| [{_BREAKS}]|[{_BREAKS}] "
)
# Characters a double-quoted scalar writes as they are (Emitter.write_double_quoted).
_UNESCAPED = re.compile("[\x20-\x7e\xa0-\ud7ff\ue000-\ufffd]")
_ESCAPES = {
    "\0": "0", "\x07": "a", "\x08": "b", "\t": "t", "\n": "n", "\x0b": "v", "\x0c": "f", "\r": "r",
    "\x1b": "e", '"': '"', "\\": "\\", "\x85": "N", "\u2028": "L", "\u2029": "P",
}


# Mapping keys and a few recurring values make nearly all the hits; most
# digests occur once, so a larger cache only holds more of them.
@lru_cache(maxsize=256)
def _scalar(text: str) -> str | None:
    """A printable-ASCII string as yaml.safe_dump writes it, before folding:
    plain when PyYAML would write it plain, otherwise single-quoted with each
    quote doubled. None for a string outside printable ASCII."""
    if not (text.isascii() and text.isprintable()):
        return None
    if text and _plain(text):
        return text
    return "'" + text.replace("'", "''") + "'"


def _plain(text: str) -> bool:
    """Whether PyYAML writes a non-empty string without special characters or
    line breaks plain."""
    first = text[0]
    if (
        first in _INDICATORS
        or first == " "
        or text[-1] in " :"
        or (first in "?:-" and (len(text) == 1 or text[1] == " "))
        or text.startswith(("---", "..."))
        or ": " in text
        or " #" in text
    ):
        return False
    # it must also read back as a string, not as a null, bool, number, ...
    return _IMPLICIT.match(text) is None


def _string(value: str, column: int, indent: int) -> str:
    """A string written after the ":", "-" or "?" that ends at `column`,
    inside the mapping or sequence at `indent`."""
    text = _scalar(value)
    if text is None:
        return _unicode(value, column + 1, indent + 2, True)
    if column + 1 + len(text) > 81 and " " in text:
        return _fold(text, column + 1, indent + 2)
    return text


def _unicode(text: str, column: int, indent: int, split: bool) -> str:
    """A non-empty string outside printable ASCII written from `column`, its
    continuation lines indented to `indent`; `split` is False for a simple
    key, which PyYAML never folds (Emitter.process_scalar)."""
    if _NEEDS_DOUBLE.search(text):
        return _double_quoted(text, column, indent, split)
    if _HAS_BREAK.search(text) or not _plain(text):
        return _single_quoted(text, column, indent, split)
    if split and column + len(text) > 81 and " " in text:
        return _fold(text, column, indent)
    return text


def _fold(scalar: str, column: int, indent: int) -> str:
    """Fold a scalar written from `column` as PyYAML does at width 80: a
    single space that follows column 80 becomes a line break indented to
    `indent`, except a leading or trailing space of a quoted scalar."""
    words = scalar.split(" ")
    quoted = scalar[0] == "'"
    last = len(words) - 1
    out = [words[0]]
    column += len(words[0])
    for i in range(1, last + 1):
        before, word = words[i - 1], words[i]
        if (
            column > 80
            and before
            and word
            and not (quoted and ((i == 1 and before == "'") or (i == last and word == "'")))
        ):
            out.append("\n" + " " * indent)
            column = indent
        else:
            out.append(" ")
            column += 1
        out.append(word)
        column += len(word)
    return "".join(out)


def _single_quoted(text: str, column: int, indent: int, split: bool) -> str:
    """Emitter.write_single_quoted: folds like _fold, and writes a run of
    line breaks with one more "\n" when it starts with "\n"."""
    out = ["'"]
    column += 1
    spaces = breaks = False
    start = 0
    for end in range(len(text) + 1):
        ch = text[end] if end < len(text) else None
        if spaces:
            if ch != " ":
                if start + 1 == end and column > 80 and split and start != 0 and ch is not None:
                    out.append("\n" + " " * indent)
                    column = indent
                else:
                    out.append(text[start:end])
                    column += end - start
                start = end
        elif breaks:
            if ch is None or ch not in _BREAKS:
                if text[start] == "\n":
                    out.append("\n")
                out += (text[start:end], " " * indent)
                column = indent
                start = end
        elif ch is None or ch in " '" or ch in _BREAKS:
            out.append(text[start:end])
            column += end - start
            start = end
        if ch == "'":
            out.append("''")
            column += 2
            start = end + 1
        if ch is not None:
            spaces = ch == " "
            breaks = ch in _BREAKS
    out.append("'")
    return "".join(out)


def _double_quoted(text: str, column: int, indent: int, split: bool) -> str:
    """Emitter.write_double_quoted: escapes, and "\\" at the end of a folded
    line (and before a space that starts the next one)."""
    out = ['"']
    column += 1
    start = 0
    last = len(text) - 1
    for end in range(len(text) + 1):
        ch = text[end] if end <= last else None
        if ch is None or ch in '"\\\x85\u2028\u2029\ufeff' or not _UNESCAPED.match(ch):
            out.append(text[start:end])
            column += end - start
            start = end
            if ch is not None:
                if ch in _ESCAPES:
                    escaped = "\\" + _ESCAPES[ch]
                elif ch <= "\xff":
                    escaped = f"\\x{ord(ch):02X}"
                elif ch <= "\uffff":
                    escaped = f"\\u{ord(ch):04X}"
                else:
                    escaped = f"\\U{ord(ch):08X}"
                out.append(escaped)
                column += len(escaped)
                start = end + 1
        if 0 < end < last and (ch == " " or start >= end) and column + (end - start) > 80 and split:
            out += (text[start:end], "\\\n", " " * indent)
            start = max(start, end)
            column = indent
            if text[start] == " ":
                out.append("\\")
                column += 1
    out.append('"')
    return "".join(out)


def _key(key: Any) -> str | None:
    """A mapping key as PyYAML writes a simple key, or None when it writes
    it as "? key": empty, holding a line break, or past its 128-character
    simple-key limit once the key's "!!str" tag is counted."""
    if type(key) is not str:
        raise TypeError(f"a card key must be a string, not {type(key).__name__}")
    if not 0 < len(key) <= 122:
        return None
    text = _scalar(key)
    if text is None:
        if _HAS_BREAK.search(key):
            return None
        text = _unicode(key, 0, 0, False)
    return text


def _emit_mapping(mapping: dict[Any, Any], indent: int, lead: str, out: list[str]) -> None:
    """A non-empty block mapping whose keys start at column `indent`; `lead`
    is written before the first key."""
    newline = "\n" + " " * indent
    for key, value in mapping.items():
        text = _key(key)
        if text is None:
            out += (lead, "? ", _string(key, indent + 1, indent), newline, ":")
            _emit_value(value, indent + 1, indent, False, out)
        elif type(value) is str:  # most values; spares a call
            out += (lead, text, ": ", _string(value, indent + len(text) + 1, indent))
        else:
            out += (lead, text, ":")
            _emit_value(value, indent + len(text) + 1, indent, True, out)
        lead = newline


def _emit_sequence(items: list[Any], indent: int, lead: str, out: list[str]) -> None:
    """A non-empty block sequence whose dashes sit at column `indent`."""
    newline = "\n" + " " * indent
    for item in items:
        out += (lead, "-")
        lead = newline
        _emit_value(item, indent + 1, indent, False, out)


def _emit_value(value: Any, column: int, indent: int, in_mapping: bool, out: list[str]) -> None:
    """A node written after the ":" or "-" that ends at `column`, inside the
    mapping or sequence at `indent`. `in_mapping` is False after a "-" and
    after the ":" of a "? key", where a collection starts on the same line."""
    kind = type(value)
    if kind is str:
        out += (" ", _string(value, column, indent))
    elif kind is dict or kind is list:
        if not value:
            out.append(" {}" if kind is dict else " []")
        elif kind is dict:
            lead = "\n" + " " * (indent + 2) if in_mapping else " "
            _emit_mapping(value, indent + 2, lead, out)
        elif in_mapping:  # a sequence under a key is not indented
            _emit_sequence(value, indent, "\n" + " " * indent, out)
        else:
            _emit_sequence(value, indent + 2, " ", out)
    elif value is None:
        out.append(" null")
    elif kind is bool:
        out.append(" true" if value else " false")
    elif kind is int:
        out += (" ", str(value))
    else:
        raise TypeError(f"a card cannot hold a {kind.__name__}")


@dataclass
class PropertyCard:
    card_kind: str  # "model" | "dataset" | "inference"
    subject_sha256: str
    body: dict[str, Any]
    provenance: list[dict[str, Any]] = field(default_factory=list)

    def document(self) -> dict[str, Any]:
        return {**self.body, "provenance": self.provenance}

    def yaml_bytes(self) -> bytes:
        """The card as block YAML, in the bytes yaml.safe_dump writes for it
        (see the emitter's comment above)."""
        out: list[str] = []
        try:
            _emit_mapping(self.document(), 0, "", out)
        except RecursionError:
            raise LamError(f"card {self.filename} is nested too deeply to write as YAML") from None
        out.append("\n")
        return "".join(out).encode("utf-8")

    @property
    def filename(self) -> str:
        return f"card-{self.card_kind}-{self.subject_sha256[:12]}.yaml"


def _provenance_entry(fragment: VerifiedFragment, claims: list[str]) -> dict[str, Any]:
    return {
        "att_type": fragment.att_type,
        "fragment_sha256": fragment.fragment_sha256.hex,
        "enclave_measurement": fragment.measurement.hex,
        "certification_sha256": fragment.certification.digest.hex,
        "claims": claims,
    }


def _external_entry(cert: ExternalCertificate, claims: list[str]) -> dict[str, Any]:
    return {
        "external_certificate": cert.name,
        "endorser_id": cert.endorser_id,
        "subject_sha256": cert.subject_sha256.hex,
        "certificate_sha256": cert.digest.hex,
        "claims": claims,
    }


def _endorse(
    table: _ClaimTable,
    certs: Mapping[str, Mapping[str, ExternalCertificate]],
    subject_kind: str,
    subject: str,
    section: dict[str, Any],
    provenance: list[dict[str, Any]],
) -> None:
    """Add the certificate of `subject` in `certs` (certificates_by_subject's
    map), if it has one, to a card: its claim, the `endorsements` entry of
    the card's `section` and its provenance entry."""
    cert = certs[subject_kind].get(subject)
    if cert is None:
        return
    key = f"external:{subject_kind}:{subject}:{cert.endorser_id}"
    table.put(key, cert.to_json_value(), cert.digest.hex)
    section["endorsements"] = [{"name": cert.name, "endorser_id": cert.endorser_id, "claims": cert.claims}]
    provenance.append(_external_entry(cert, [key]))


class _ClaimTable:
    """Claim-key to value map with conflict detection across provenances."""

    def __init__(self) -> None:
        self._claims: dict[str, tuple[Any, str]] = {}

    def put(self, key: str, value: Any, provenance: str) -> bool:
        """Record a claim; returns False when an identical claim already
        exists (idempotent union) and raises on a conflicting one."""
        existing = self._claims.get(key)
        if existing is not None:
            if existing[0] == value:
                return False
            raise CardConflictError(
                f"conflicting claims for {key}: {existing[0]!r} (from {existing[1]}) "
                f"vs {value!r} (from {provenance})"
            )
        self._claims[key] = (value, provenance)
        return True

    def claim(self, fragment: VerifiedFragment, key: str, value: Any, provenance: list[dict[str, Any]]) -> bool:
        """Record the claim `key` = `value` of `fragment` and list the
        fragment in `provenance` as its source; returns whether the claim is
        new, as put does."""
        new = self.put(key, value, fragment.fragment_sha256.hex)
        provenance.append(_provenance_entry(fragment, [key]))
        return new


def assemble_cards(
    fragments: Iterable[VerifiedFragment],
    externals: Iterable[ExternalCertificate] = (),
    chains: ChainReport | None = None,
) -> list[PropertyCard]:
    """One model card per attested model digest, one datasheet per dataset
    digest with a distribution attestation, one inference card per IOAtt.

    `chains` is accepted because callers pass the chain report positionally,
    but it does not feed card claims (see module docstring).
    """
    del chains
    table = _ClaimTable()
    _, index = index_fragments(fragments)
    certs = certificates_by_subject(externals)
    dataset_certs = certs["dataset"]

    def dataset(digest_hex: str) -> dict[str, str]:
        """A dataset as cards name it: its certificate's name, else its digest."""
        cert = dataset_certs.get(digest_hex)
        return {"name": cert.name if cert else digest_hex, "sha256": digest_hex}

    cards: list[PropertyCard] = []

    # --- model cards ---
    for m in sorted({m for att in ("PoT", "AccAtt", "FairAtt", "RobustAtt-B") for m in index[att]}):
        provenance: list[dict[str, Any]] = []
        results: dict[str, dict[str, Any]] = {}  # dataset digest -> results entry

        for att in ("AccAtt", "FairAtt", "RobustAtt-B"):
            for f in index[att].get(m, []):
                ds = f.payload["robust_dataset_sha256" if att == "RobustAtt-B" else "dataset_sha256"]
                claims = []
                for metric in f.payload["results"]["metrics"]:
                    key = f"metric:{m}:{ds}:{metric['type']}"
                    if table.put(key, metric, f.fragment_sha256.hex):
                        entry = results.setdefault(
                            ds,
                            {
                                "task": {"type": f.payload["results"]["task"]},
                                "dataset": dataset(ds),
                                "metrics": [],
                            },
                        )
                        entry["metrics"].append({**metric, "verified": True})
                    claims.append(key)
                provenance.append(_provenance_entry(f, claims))

        training: dict[str, Any] | None = None
        for f in index["PoT"].get(m, []):
            value = {
                "dataset_sha256": f.payload["dataset_sha256"],
                "config_sha256": f.payload["config_sha256"],
                "architecture_sha256": f.payload["arch_sha256"],
            }
            if table.claim(f, f"training:{m}", value, provenance):
                training = {
                    "dataset": dataset(value["dataset_sha256"]),
                    "config_sha256": value["config_sha256"],
                    "architecture_sha256": value["architecture_sha256"],
                    "verified": True,
                }

        for ds, entry in results.items():
            entry["metrics"].sort(key=lambda e: e["type"])

        body: dict[str, Any] = {"model-index": [{"name": m, "results": [results[ds] for ds in sorted(results)]}]}
        if training is not None:
            body["training"] = training
        _endorse(table, certs, "model", m, body, provenance)

        cards.append(PropertyCard("model", m, body, provenance))

    # --- datasheets ---
    # A datasheet exists for every dataset with a distribution attestation and
    # for every generated robust dataset (whose generation fragment is its
    # provenance statement: source digest plus perturbation size).
    for d in sorted(index["DistAtt"].keys() | index["RobustAtt-A"].keys()):
        provenance = []
        distributions = []
        for f in index["DistAtt"].get(d, []):
            prop = f.payload["property"]
            if table.claim(f, f"distribution:{d}:{prop['kind']}", prop, provenance):
                distributions.append({**prop, "verified": True})
        distributions.sort(key=lambda p: p["kind"])

        generation: dict[str, Any] | None = None
        for f in index["RobustAtt-A"].get(d, []):
            value = {
                "source_sha256": f.payload["dataset_sha256"],
                "epsilon": f.payload["parameters"]["epsilon"],
            }
            if table.claim(f, f"generation:{d}", value, provenance):
                generation = {
                    "method": "fgsm",
                    "source": dataset(value["source_sha256"]),
                    "epsilon": value["epsilon"],
                    "verified": True,
                }

        body = {"datasheet": {**dataset(d), "distributions": distributions}}
        if generation is not None:
            body["datasheet"]["generation"] = generation
        _endorse(table, certs, "dataset", d, body["datasheet"], provenance)
        cards.append(PropertyCard("dataset", d, body, provenance))

    # --- inference cards ---
    ioatts = [f for group in index["IOAtt"].values() for f in group]
    for f in sorted(ioatts, key=lambda f: f.fragment_sha256.hex):
        key = f"inference:{f.payload['model_sha256']}:{f.payload['input_sha256']}"
        provenance = []
        table.claim(f, key, f.payload["output"], provenance)
        body = {
            "inference": {
                "name": f.fragment_sha256.hex,
                "model_sha256": f.payload["model_sha256"],
                "input_sha256": f.payload["input_sha256"],
                "output_sha256": f.payload["output_sha256"],
                "output": f.payload["output"],
                "verified": True,
            }
        }
        cards.append(PropertyCard("inference", f.fragment_sha256.hex, body, provenance))

    return cards
