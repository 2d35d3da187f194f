"""Assemble verified fragments into ML property cards.

A card's claims are a pure union of the fragments (and external certificates)
listed in its provenance: removing one envelope from a bundle removes exactly
its claims from the assembled cards. Cross-fragment linkage status is the
chain report's job, not the cards', so a card never changes because an
unrelated envelope came or went. Conflicting claims for the same key are a
hard error; silently keeping either side would launder a contradiction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterable

import yaml

from .certs import ExternalCertificate
from .errors import CardConflictError
from .verifier import ChainReport, VerifiedFragment, index_fragments


_DUMP_OPTIONS: dict[str, Any] = {"sort_keys": False, "default_flow_style": False, "allow_unicode": True}


class _Unsupported(Exception):
    """The document holds something only yaml.safe_dump writes exactly."""


# A plain scalar may not start with one of these (PyYAML's
# Emitter.analyze_scalar).
_INDICATORS = frozenset("#,[]{}&*!|>'\"%@`")


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
    """Whether PyYAML writes a non-empty printable-ASCII string plain."""
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
    resolvers = yaml.SafeDumper.yaml_implicit_resolvers
    for _, regexp in resolvers.get(first, []) + resolvers.get(None, []):
        if regexp.match(text):
            return False
    return True


def _string(value: str, column: int, indent: int) -> str:
    """A string written after the ":" or "-" that ends at `column`, inside
    the mapping or sequence at `indent`."""
    text = _scalar(value)
    if text is None:
        raise _Unsupported
    if column + 1 + len(text) > 81 and " " in text:
        return _fold(text, column + 1, indent + 2)
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


def _emit_mapping(mapping: dict[Any, Any], indent: int, lead: str, out: list[str], seen: set[int]) -> None:
    """A non-empty block mapping whose keys start at column `indent`; `lead`
    is written before the first key."""
    newline = "\n" + " " * indent
    for key, value in mapping.items():
        # PyYAML writes an empty key, or one that passes its 128-character
        # simple-key limit once its "!!str" tag is counted, as "? key"
        if type(key) is not str or not 0 < len(key) <= 122:
            raise _Unsupported
        text = _scalar(key)
        if text is None:
            raise _Unsupported
        column = indent + len(text) + 1
        if type(value) is str:  # most values; spares a call
            out += (lead, text, ": ", _string(value, column, indent))
        else:
            out += (lead, text, ":")
            _emit_value(value, column, indent, True, out, seen)
        lead = newline


def _emit_sequence(items: list[Any], indent: int, lead: str, out: list[str], seen: set[int]) -> None:
    """A non-empty block sequence whose dashes sit at column `indent`."""
    newline = "\n" + " " * indent
    for item in items:
        out += (lead, "-")
        lead = newline
        _emit_value(item, indent + 1, indent, False, out, seen)


def _emit_value(value: Any, column: int, indent: int, in_mapping: bool, out: list[str], seen: set[int]) -> None:
    """A node written after the ":" or "-" that ends at `column`, inside the
    mapping or sequence at `indent`."""
    kind = type(value)
    if kind is str:
        out += (" ", _string(value, column, indent))
    elif kind is dict or kind is list:
        # safe_dump anchors a collection that occurs twice
        if id(value) in seen:
            raise _Unsupported
        seen.add(id(value))
        if not value:
            out.append(" {}" if kind is dict else " []")
        elif kind is dict:
            lead = "\n" + " " * (indent + 2) if in_mapping else " "
            _emit_mapping(value, indent + 2, lead, out, seen)
        elif in_mapping:  # a sequence under a key is not indented
            _emit_sequence(value, indent, "\n" + " " * indent, out, seen)
        else:
            _emit_sequence(value, indent + 2, " ", out, seen)
    elif value is None:
        out.append(" null")
    elif kind is bool:
        out.append(" true" if value else " false")
    elif kind is int:
        out += (" ", str(value))
    else:
        raise _Unsupported


def _printable_ascii_yaml(document: dict[Any, Any]) -> bytes:
    """The bytes yaml.safe_dump(document, **_DUMP_OPTIONS) writes, for a
    non-empty mapping of mappings, lists, None, bools, ints and printable
    ASCII strings; raises _Unsupported for anything else."""
    out: list[str] = []
    _emit_mapping(document, 0, "", out, {id(document)})
    out.append("\n")
    return "".join(out).encode("ascii")


@dataclass
class PropertyCard:
    card_kind: str  # "model" | "dataset" | "inference"
    subject_sha256: str
    body: dict[str, Any]
    provenance: list[dict[str, Any]] = field(default_factory=list)

    def document(self) -> dict[str, Any]:
        return {**self.body, "provenance": self.provenance}

    def yaml_bytes(self) -> bytes:
        """The card as yaml.safe_dump writes it. A card holding only printable
        ASCII is written by lam's own emitter, which gives the same bytes."""
        document = self.document()
        try:
            return _printable_ascii_yaml(document)
        except _Unsupported:
            return yaml.safe_dump(document, **_DUMP_OPTIONS).encode("utf-8")

    @property
    def filename(self) -> str:
        return f"card-{self.card_kind}-{self.subject_sha256[:12]}.yaml"

    def write(self, directory: str | Path) -> Path:
        path = Path(directory) / self.filename
        path.write_bytes(self.yaml_bytes())
        return path


def _provenance_entry(fragment: VerifiedFragment, claims: list[str]) -> dict[str, Any]:
    return {
        "att_type": fragment.att_type,
        "fragment_sha256": fragment.fragment_sha256.hex,
        "enclave_measurement": fragment.measurement.hex,
        "certification_sha256": fragment.certification.certification_sha256.hex,
        "claims": claims,
    }


def _external_entry(cert: ExternalCertificate, claims: list[str]) -> dict[str, Any]:
    return {
        "external_certificate": cert.name,
        "endorser_id": cert.endorser_id,
        "subject_sha256": cert.subject_sha256.hex,
        "certificate_sha256": cert.certificate_sha256.hex,
        "claims": claims,
    }


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


def _dedupe(fragments: Iterable[VerifiedFragment]) -> list[VerifiedFragment]:
    seen: set[str] = set()
    out = []
    for f in fragments:
        key = f.fragment_sha256.hex
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def assemble_cards(
    fragments: Iterable[VerifiedFragment],
    externals: Iterable[ExternalCertificate] = (),
    chains: ChainReport | None = None,
) -> list[PropertyCard]:
    """One model card per attested model digest, one datasheet per dataset
    digest with a distribution attestation, one inference card per IOAtt.

    `chains` is accepted for interface symmetry with chain resolution but
    does not feed card claims (see module docstring).
    """
    del chains
    frags = _dedupe(fragments)
    externals = list(externals)
    table = _ClaimTable()

    index = index_fragments(frags)

    dataset_certs: dict[str, ExternalCertificate] = {}
    model_certs: dict[str, ExternalCertificate] = {}
    for cert in externals:
        target = dataset_certs if cert.subject_kind == "dataset" else model_certs
        target[cert.subject_sha256.hex] = cert

    def dataset_name(digest_hex: str) -> str:
        cert = dataset_certs.get(digest_hex)
        return cert.name if cert else digest_hex

    cards: list[PropertyCard] = []

    # --- model cards ---
    for m in sorted({m for att in ("PoT", "AccAtt", "FairAtt", "RobustAtt-B") for m in index[att]}):
        provenance: list[dict[str, Any]] = []
        results: dict[str, dict[str, Any]] = {}  # dataset digest -> results entry

        for att in ("AccAtt", "FairAtt", "RobustAtt-B"):
            for f in index[att].get(m, []):
                ds = f.payload.get("dataset_sha256") or f.payload["robust_dataset_sha256"]
                claims = []
                for metric in f.payload["results"]["metrics"]:
                    key = f"metric:{m}:{ds}:{metric['type']}"
                    if table.put(key, metric, f.fragment_sha256.hex):
                        entry = results.setdefault(
                            ds,
                            {
                                "task": {"type": f.payload["results"]["task"]},
                                "dataset": {"name": dataset_name(ds), "sha256": ds},
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
            key = f"training:{m}"
            if table.put(key, value, f.fragment_sha256.hex):
                training = {
                    "dataset": {
                        "name": dataset_name(value["dataset_sha256"]),
                        "sha256": value["dataset_sha256"],
                    },
                    "config_sha256": value["config_sha256"],
                    "architecture_sha256": value["architecture_sha256"],
                    "verified": True,
                }
            provenance.append(_provenance_entry(f, [key]))

        for ds, entry in results.items():
            entry["metrics"].sort(key=lambda e: e["type"])

        body: dict[str, Any] = {
            "model-index": [
                {
                    "name": m,
                    "results": [results[ds] for ds in sorted(results)],
                }
            ]
        }
        if training is not None:
            body["training"] = training
        if m in model_certs:
            cert = model_certs[m]
            key = f"external:model:{m}:{cert.endorser_id}"
            table.put(key, cert.to_json_value(), cert.certificate_sha256.hex)
            body["endorsements"] = [
                {"name": cert.name, "endorser_id": cert.endorser_id, "claims": cert.claims}
            ]
            provenance.append(_external_entry(cert, [key]))

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
            key = f"distribution:{d}:{prop['kind']}"
            if table.put(key, prop, f.fragment_sha256.hex):
                distributions.append({**prop, "verified": True})
            provenance.append(_provenance_entry(f, [key]))
        distributions.sort(key=lambda p: p["kind"])

        generation: dict[str, Any] | None = None
        for f in index["RobustAtt-A"].get(d, []):
            value = {
                "source_sha256": f.payload["dataset_sha256"],
                "epsilon": f.payload["parameters"]["epsilon"],
            }
            key = f"generation:{d}"
            if table.put(key, value, f.fragment_sha256.hex):
                generation = {
                    "method": "fgsm",
                    "source": {
                        "name": dataset_name(value["source_sha256"]),
                        "sha256": value["source_sha256"],
                    },
                    "epsilon": value["epsilon"],
                    "verified": True,
                }
            provenance.append(_provenance_entry(f, [key]))

        body = {
            "datasheet": {
                "name": dataset_name(d),
                "sha256": d,
                "distributions": distributions,
            }
        }
        if generation is not None:
            body["datasheet"]["generation"] = generation
        if d in dataset_certs:
            cert = dataset_certs[d]
            key = f"external:dataset:{d}:{cert.endorser_id}"
            table.put(key, cert.to_json_value(), cert.certificate_sha256.hex)
            body["datasheet"]["endorsements"] = [
                {"name": cert.name, "endorser_id": cert.endorser_id, "claims": cert.claims}
            ]
            provenance.append(_external_entry(cert, [key]))
        cards.append(PropertyCard("dataset", d, body, provenance))

    # --- inference cards ---
    ioatts = [f for group in index["IOAtt"].values() for f in group]
    for f in sorted(ioatts, key=lambda f: f.fragment_sha256.hex):
        key = f"inference:{f.payload['model_sha256']}:{f.payload['input_sha256']}"
        table.put(key, f.payload["output"], f.fragment_sha256.hex)
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
        cards.append(
            PropertyCard("inference", f.fragment_sha256.hex, body, [_provenance_entry(f, [key])])
        )

    return cards
