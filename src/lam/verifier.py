"""Verifier: quote checks, certification lookup, template matching, and
chain-of-attestation resolution over assertion bundles.

Verification is non-interactive and stateless, a pure function of
(bundle, certification store, trust anchors), so any number of verifier
instances produce identical output for the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from .backend import check_signatures, verify_quote
from .cards import PropertyCard, assemble_cards
from .certs import (
    Certification,
    CertificationStore,
    ExternalCertificate,
    certificates_by_subject,
    check_together,
    validate_template,
)
from .errors import CanonicalizationError, InvalidCertificationError, LamError
from .fragments import ATT_SPECS, AttestationEnvelope, index_fragments, shape_mismatch
from .hashcore import Digest, canonicalize, hash_bytes, object_keys, parse_canonical_exact, read_canonical
from .hashcore import read_entries, records_bytes, write_file

BUNDLE_VERSION = 1
_BUNDLE_KEYS = frozenset({"envelopes", "external_certificates", "version"})


@dataclass(frozen=True)
class TemplateMatch:
    matched: bool
    path: str = ""
    reason: str = ""


def match_template(template: Any, payload: Any) -> TemplateMatch:
    """Recursive template match.

    Rules: null matches anything; a dictionary matches a dictionary (or an
    array of dictionaries, every element) with exactly the same key set and
    matching values; strings, booleans, and integers match the identical
    value (or an array of identical values); any other template kind raises
    InvalidCertificationError, checked over the whole template up front, so
    a float anywhere in it is invalid regardless of the payload. Mismatches
    carry the JSON path of the failing node. Array quantification is
    universal, so empty arrays match.
    """
    validate_template(template)
    return _match(template, payload)


_MATCHED = TemplateMatch(True)


def _under(step: str | int, result: TemplateMatch) -> TemplateMatch:
    """A mismatch found at `step` below the current node, seen from the node."""
    return TemplateMatch(False, path=f"/{step}{result.path}", reason=result.reason)


def _match(template: Any, payload: Any) -> TemplateMatch:
    """match_template's rules at one node of a template validate_template
    has accepted: _MATCHED, or the first mismatch with its path below this
    node. Paths are built only on failure, so a match allocates no result
    or path."""
    if template is None:
        return _MATCHED

    if isinstance(template, dict):
        if isinstance(payload, list):
            for i, item in enumerate(payload):
                if not isinstance(item, dict):
                    return TemplateMatch(False, path=f"/{i}", reason="expected an object in array")
                result = _match(template, item)
                if result is not _MATCHED:
                    return _under(i, result)
            return _MATCHED
        if not isinstance(payload, dict):
            return TemplateMatch(False, reason="expected an object")
        if payload.keys() != template.keys():
            missing = sorted(set(template) - set(payload))
            extra = sorted(set(payload) - set(template))
            return TemplateMatch(False, reason=f"key set differs (missing={missing}, extra={extra})")
        for key in sorted(template):
            result = _match(template[key], payload[key])
            if result is not _MATCHED:
                return _under(key, result)
        return _MATCHED

    # a string, boolean or integer: identical means the same type, so a
    # boolean never matches an integer
    if isinstance(payload, list):
        for i, item in enumerate(payload):
            if type(item) is not type(template) or item != template:
                return TemplateMatch(False, path=f"/{i}", reason=f"value differs from template {template!r}")
        return _MATCHED
    if type(payload) is type(template) and payload == template:
        return _MATCHED
    return TemplateMatch(False, reason=f"value differs from template {template!r}")


@dataclass(frozen=True)
class VerifiedFragment:
    payload: dict[str, Any]
    fragment_sha256: Digest
    att_type: str | None  # from the payload; None for custom fragment shapes
    measurement: Digest
    certification: Certification


@dataclass(frozen=True)
class EnvelopeVerdict:
    accepted: bool
    # bad-quote | payload-binding-mismatch | unknown-enclave |
    # template-mismatch | invalid-certification
    reason: str | None = None
    detail: str | None = None
    fragment: VerifiedFragment | None = None


def verify_envelope(
    envelope: AttestationEnvelope,
    store: CertificationStore,
    trusted_roots: Iterable[str],
) -> EnvelopeVerdict:
    """Accept iff the quote verifies, the payload digest equals the quote's
    report data, the enclave measurement has a certification, and the payload
    matches its template and, if its att_type is a builtin one, that type's
    shape (AttSpec.shape), whatever the template: the detail of a shape
    mismatch names its path (`PoT field is not a string at /dataset_sha256`).

    The certifications are tried in store order, and the first whose
    template the payload matches decides. A builtin payload is walked once
    on the way to acceptance: one that fits its shape matches its type's
    builtin template, so a certification with that template
    (Certification.builtin_type) accepts it with no template walk. Any
    other template, or a payload that does not fit, goes through the
    matcher, so verdict and detail are those of matching every template."""
    quote = envelope.quote
    rejection = verify_quote(quote, trusted_roots)
    if rejection is not None:
        return EnvelopeVerdict(False, reason="bad-quote", detail=rejection)

    payload_digest = hash_bytes(envelope.payload)
    if payload_digest.value != quote.report_data.value:
        return EnvelopeVerdict(
            False,
            reason="payload-binding-mismatch",
            detail="payload digest does not equal quote report data",
        )

    try:
        payload = parse_canonical_exact(envelope.payload)
    except CanonicalizationError as exc:
        return EnvelopeVerdict(False, reason="template-mismatch", detail=f"payload is not canonical JSON: {exc}")

    certifications = store.for_measurement(quote.enclave_measurement)
    if not certifications:
        return EnvelopeVerdict(
            False,
            reason="unknown-enclave",
            detail=f"no certification for measurement {quote.enclave_measurement.hex[:12]}",
        )

    att_type = payload.get("att_type") if isinstance(payload, dict) else None
    if not isinstance(att_type, str):
        att_type = None
    # a builtin type is held to its shape under any certification
    detail = shape_mismatch(att_type, payload) if att_type in ATT_SPECS else None
    # the builtin type whose shape the payload fits, or None
    fitted = att_type if detail is None and att_type in ATT_SPECS else None
    invalid: InvalidCertificationError | None = None
    last_mismatch: TemplateMatch | None = None
    for cert in certifications:
        if cert.template_error is not None:
            invalid = cert.template_error
            continue
        # a payload that fits its type's shape matches that type's builtin
        # template, so only another template needs the matcher's walk
        if fitted is None or cert.builtin_type != fitted:
            result = _match(cert.template, payload)
            if not result.matched:
                last_mismatch = result
                continue
            if detail is not None:
                return EnvelopeVerdict(False, reason="template-mismatch", detail=detail)
        return EnvelopeVerdict(
            True,
            fragment=VerifiedFragment(
                payload=payload,
                fragment_sha256=payload_digest,
                att_type=att_type,
                measurement=quote.enclave_measurement,
                certification=cert,
            ),
        )

    if invalid is not None:
        return EnvelopeVerdict(False, reason="invalid-certification", detail=str(invalid))
    assert last_mismatch is not None
    return EnvelopeVerdict(
        False,
        reason="template-mismatch",
        detail=f"{last_mismatch.reason} at {last_mismatch.path or '/'}",
    )


@dataclass(frozen=True)
class AssertionBundle:
    envelopes: tuple[AttestationEnvelope, ...]
    external_certificates: tuple[ExternalCertificate, ...]

    def write(self, path: str | Path) -> None:
        """Write the bundle's canonical JSON, its records by records_bytes,
        which names one that cannot be written, before any file is written."""
        quotes = records_bytes([e.quote for e in self.envelopes], "/envelopes/{}/quote")
        envelopes = b",".join([e.json_bytes(quote) for e, quote in zip(self.envelopes, quotes)])
        externals = b",".join(records_bytes(self.external_certificates, "/external_certificates/{}"))
        tail = b'],"version":%d}' % BUNDLE_VERSION
        write_file(path, b'{"envelopes":[', envelopes, b'],"external_certificates":[', externals, tail)

    @classmethod
    def from_file_value(cls, value: Any) -> "AssertionBundle":
        """Parse a bundle, which has no key but its two arrays and its
        version, naming an entry it refuses by its index (read_entries);
        quotes whose platform certificates are equal share
        one PlatformCertificate, so each is checked against a root once;
        the quotes' signatures are checked here in one backend.check_signatures
        call, which for a large bundle only starts them in forked children,
        each verdict then read when first asked; the external certificates
        form one batch, checked in bulk when first asked."""
        if not isinstance(value, dict):
            raise LamError("not an assertion bundle")
        version = value.get("version")
        if type(version) is not int or version != BUNDLE_VERSION:
            raise LamError(f"unsupported assertion bundle version {version!r} (expected {BUNDLE_VERSION})")
        for key in ("envelopes", "external_certificates"):
            if not isinstance(value.get(key), list):
                raise LamError(f"assertion bundle {key!r} must be a JSON array")
        object_keys(value, _BUNDLE_KEYS, "assertion bundle")
        envelopes = read_entries("envelope", value["envelopes"], AttestationEnvelope.from_json_values)
        check_signatures([(e.quote, e.quote.attestation_pubkey) for e in envelopes])
        externals = read_entries(
            "external certificate",
            value["external_certificates"],
            lambda items: tuple(map(ExternalCertificate.from_json_value, items)),
        )
        check_together(externals)
        return cls(envelopes=tuple(envelopes), external_certificates=externals)

    @classmethod
    def read(cls, path: str | Path) -> "AssertionBundle":
        return read_canonical(path, cls.from_file_value)


# --- chain resolution --------------------------------------------------------

# Edges counted toward chain completeness; certificate edges add clauses to
# the conclusion but their absence is a gap, not a broken link.
_CORE_EDGES = (
    "pot",
    "training_distribution",
    "accuracy",
    "fairness",
    "robustness",
    "robustness_generation",
    "robustness_source",
    "inference",
)


# (edge, att_type, ok detail given the fragment count n, broken detail before
# " for this model"): ok when the model has a fragment of att_type, else broken.
_PRESENCE_EDGES = (
    ("pot", "PoT", "proof of training present ({n} fragment(s))", "no proof-of-training fragment"),
    ("accuracy", "AccAtt", "accuracy attested on {n} dataset(s)", "no accuracy attestation"),
    ("fairness", "FairAtt", "demographic parity attested on {n} dataset(s)", "no fairness attestation"),
    ("robustness", "RobustAtt-B", "robust accuracy attested over {n} dataset(s)", "no robustness attestation"),
    ("inference", "IOAtt", "{n} inference(s) bound to this model", "no inference attestation"),
)


def _edge(status: str, detail: str) -> dict[str, str]:
    return {"status": status, "detail": detail}


def _linked(blocked: str | None, unlinked: list[str], ok: str, broken: str) -> dict[str, str]:
    """An edge that links a model's fragments, on shared digests, to other
    fragments or certificates: blocked with the reason `blocked` when there
    is nothing to link, broken when the digests `unlinked` do not link, its
    detail `broken` formatted with their 12-digit prefixes as `unlinked`,
    else ok with the detail `ok`."""
    if blocked is not None:
        return _edge("blocked", blocked)
    if unlinked:
        return _edge("broken", broken.format(unlinked=[d[:12] for d in unlinked]))
    return _edge("ok", ok)


@dataclass
class ChainReport:
    models: dict[str, dict[str, Any]] = field(default_factory=dict)
    datasets: dict[str, dict[str, Any]] = field(default_factory=dict)
    orphans: list[dict[str, Any]] = field(default_factory=list)

    def broken_edges(self, model_hex: str) -> set[str]:
        edges = self.models[model_hex]["edges"]
        return {name for name, e in edges.items() if e["status"] == "broken"}

    def to_json_value(self) -> dict[str, Any]:
        return {"datasets": self.datasets, "models": self.models, "orphans": self.orphans}

    def canonical_bytes(self) -> bytes:
        return canonicalize(self.to_json_value())


def resolve_chains(
    fragments: Iterable[VerifiedFragment],
    externals: Iterable[ExternalCertificate] = (),
) -> ChainReport:
    """Link verified fragments on shared digests and report, per model, which
    chain edges hold. Gaps are reported as broken/blocked edges, not errors."""
    frags, index = index_fragments(fragments)
    dataset_certs = certificates_by_subject(externals)["dataset"]

    report = ChainReport()

    for m in sorted({m for _, att, _, _ in _PRESENCE_EDGES for m in index[att]}):
        edges: dict[str, dict[str, str]] = {}
        present: dict[str, list[VerifiedFragment]] = {}
        for edge, att, ok, broken in _PRESENCE_EDGES:
            found = present[att] = index[att].get(m, [])
            edges[edge] = _edge("ok", ok.format(n=len(found))) if found else _edge("broken", f"{broken} for this model")

        pots, accs, fairs, robs = present["PoT"], present["AccAtt"], present["FairAtt"], present["RobustAtt-B"]
        training_ds = pots[0].payload["dataset_sha256"] if pots else None
        no_pot = None if pots else "no proof of training to link against"
        kinds = sorted({f.payload["property"]["kind"] for f in index["DistAtt"].get(training_ds, [])})
        cert = dataset_certs.get(training_ds)
        test_sets = sorted({f.payload["dataset_sha256"] for f in accs + fairs})
        gens = [index["RobustAtt-A"].get(f.payload["robust_dataset_sha256"], []) for f in robs]
        grounded = {g.payload["dataset_sha256"] for group in gens for g in group}

        edges["training_distribution"] = _linked(
            no_pot,
            [] if kinds else [training_ds],
            f"distribution attested for training set ({', '.join(kinds)})",
            "no distribution attestation for training set {unlinked[0]}",
        )
        edges["training_dataset_certificate"] = _linked(
            no_pot,
            [] if cert else [training_ds],
            f"training set endorsed as {cert.name!r} by {cert.endorser_id!r}" if cert else "",
            "no external certificate for training set {unlinked[0]}",
        )
        edges["test_dataset_certificate"] = _linked(
            None if test_sets else "no attested test set",
            [d for d in test_sets if d not in dataset_certs],
            f"all {len(test_sets)} attested test set(s) endorsed",
            "test set(s) without external certificate: {unlinked}",
        )
        edges["robustness_generation"] = _linked(
            None if robs else "no robustness attestation to ground",
            [f.payload["robust_dataset_sha256"] for f, group in zip(robs, gens) if not group],
            "every robust dataset is grounded by a generation fragment",
            "robust dataset(s) without a generation fragment: {unlinked}",
        )
        edges["robustness_source"] = _linked(
            (
                "no grounded robust dataset" if not grounded
                else "no attested test set to compare against" if not test_sets
                else None
            ),
            sorted(grounded - set(test_sets)),
            "robust dataset generated from the attested test set",
            "robust dataset generated from unattested source(s): {unlinked}",
        )

        complete = all(edges[name]["status"] == "ok" for name in _CORE_EDGES)
        entry: dict[str, Any] = {"edges": edges, "complete": complete}
        if complete:
            entry["conclusion"] = _conclusion(m, training_ds, test_sets, len(present["IOAtt"]), dataset_certs)
        report.models[m] = entry

    # datasheet-side links
    for d in sorted(index["DistAtt"].keys() | dataset_certs.keys()):
        kinds = sorted({f.payload["property"]["kind"] for f in index["DistAtt"].get(d, [])})
        entry = {"distribution_kinds": kinds}
        if d in dataset_certs:
            entry["certificate"] = {
                "endorser_id": dataset_certs[d].endorser_id,
                "name": dataset_certs[d].name,
            }
        report.datasets[d] = entry

    # fragments referencing a model digest that has no proof of training; a
    # custom attestation type's model_sha256 may be any JSON value
    for f in frags:
        m = f.payload.get("model_sha256") if isinstance(f.payload, dict) else None
        if isinstance(m, str) and m not in index["PoT"] and f.att_type != "PoT":
            report.orphans.append(
                {
                    "att_type": f.att_type,
                    "fragment_sha256": f.fragment_sha256.hex,
                    "model_sha256": m,
                    "reason": "model digest has no proof of training in this bundle",
                }
            )

    return report


def _conclusion(
    model_hex: str,
    training_ds: str | None,
    test_sets: list[str],
    n_inferences: int,
    dataset_certs: Mapping[str, ExternalCertificate],
) -> str:
    parts = [
        f"every attested output of model {model_hex[:12]} is bound to its input and to this model",
        f"the model was trained on dataset {str(training_ds)[:12]} whose sensitive-attribute "
        "distribution is attested",
    ]
    if training_ds in dataset_certs:
        parts[-1] += f" and which is endorsed as {dataset_certs[training_ds].name!r}"
    named = [dataset_certs[d].name for d in test_sets if d in dataset_certs]
    tests = ", ".join(repr(n) for n in named) if named else f"{len(test_sets)} attested test set(s)"
    parts.append(
        f"accuracy and demographic parity are attested on {tests}, and robust accuracy is "
        "attested on an adversarially perturbed copy of the attested test set"
    )
    parts.append(f"{n_inferences} inference(s) carry input-model-output bindings")
    return "; ".join(parts) + "."


# --- bundles -------------------------------------------------------------------


@dataclass(frozen=True)
class BundleVerdict:
    envelopes: tuple[EnvelopeVerdict, ...]  # in bundle order
    # each external certificate with whether it verifies, in bundle order
    externals: tuple[tuple[ExternalCertificate, bool], ...]
    report: ChainReport
    cards: list[PropertyCard]

    @property
    def failures(self) -> int:
        """Rejected envelopes plus rejected external certificates."""
        return sum(not v.accepted for v in self.envelopes) + sum(not ok for _, ok in self.externals)


def verify_bundle(
    bundle: AssertionBundle,
    store: CertificationStore,
    trusted_roots: Iterable[str],
    endorser_keys: Mapping[str, str],
) -> BundleVerdict:
    """Verify every envelope and external certificate of a bundle, then chain
    and assemble what verified. Raises CardConflictError when two verified
    fragments assert different values for one claim."""
    roots = set(trusted_roots)
    verdicts = tuple(verify_envelope(envelope, store, roots) for envelope in bundle.envelopes)
    keyed = [(c, endorser_keys.get(c.endorser_id)) for c in bundle.external_certificates]
    check_signatures(keyed)
    externals = tuple((c, key is not None and c.verifies_under(key)) for c, key in keyed)
    fragments = [v.fragment for v in verdicts if v.accepted]
    valid_externals = [cert for cert, ok in externals if ok]
    report = resolve_chains(fragments, valid_externals)
    return BundleVerdict(verdicts, externals, report, assemble_cards(fragments, valid_externals, report))
