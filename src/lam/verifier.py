"""Verifier: quote checks, certification lookup, template matching, and
chain-of-attestation resolution over assertion bundles.

Verification is non-interactive and stateless, a pure function of
(bundle, certification store, trust anchors), so any number of verifier
instances produce identical output for the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Mapping

from .backend import PlatformCertificate, check_quote_signatures, verify_quote, verify_signatures
from .cards import PropertyCard, assemble_cards
from .certs import Certification, CertificationStore, ExternalCertificate, validate_template
from .errors import CanonicalizationError, InvalidCertificationError, LamError
from .hashcore import Digest, canonicalize, hash_bytes, hash_file_once, parse_canonical
from .measurers import ATT_SPECS, AttestationEnvelope, index_fragments

BUNDLE_VERSION = 1


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
    return _match(template, payload, "")


def _mismatch(path: str, reason: str) -> TemplateMatch:
    return TemplateMatch(False, path=path, reason=reason)


def _match(template: Any, payload: Any, path: str) -> TemplateMatch:
    if template is None:
        return TemplateMatch(True)

    if isinstance(template, dict):
        if isinstance(payload, list):
            for i, item in enumerate(payload):
                if not isinstance(item, dict):
                    return _mismatch(f"{path}/{i}", "expected an object in array")
                result = _match(template, item, f"{path}/{i}")
                if not result.matched:
                    return result
            return TemplateMatch(True)
        if not isinstance(payload, dict):
            return _mismatch(path, "expected an object")
        if set(payload.keys()) != set(template.keys()):
            missing = sorted(set(template) - set(payload))
            extra = sorted(set(payload) - set(template))
            return _mismatch(path, f"key set differs (missing={missing}, extra={extra})")
        for key in sorted(template):
            result = _match(template[key], payload[key], f"{path}/{key}")
            if not result.matched:
                return result
        return TemplateMatch(True)

    if isinstance(template, (str, bool)) or isinstance(template, int):
        def identical(p: Any) -> bool:
            if isinstance(template, bool) or isinstance(p, bool):
                return isinstance(p, bool) and isinstance(template, bool) and p == template
            return type(p) is type(template) and p == template

        if isinstance(payload, list):
            for i, item in enumerate(payload):
                if not identical(item):
                    return _mismatch(f"{path}/{i}", f"value differs from template {template!r}")
            return TemplateMatch(True)
        if identical(payload):
            return TemplateMatch(True)
        return _mismatch(path, f"value differs from template {template!r}")

    raise InvalidCertificationError(path, f"disallowed template value of type {type(template).__name__}")


@dataclass(frozen=True)
class VerifiedFragment:
    payload: dict[str, Any]
    payload_bytes: bytes
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
    matches its template and holds a string at every path that chains and
    cards read for its attestation type, and an array at every path cards
    iterate (see AttSpec.string_paths and AttSpec.content_arrays)."""
    quote_result = verify_quote(envelope.quote, trusted_roots)
    if not quote_result.accepted:
        return EnvelopeVerdict(False, reason="bad-quote", detail=quote_result.reason)

    payload_digest = hash_bytes(envelope.payload)
    if payload_digest != quote_result.report_data:
        return EnvelopeVerdict(
            False,
            reason="payload-binding-mismatch",
            detail="payload digest does not equal quote report data",
        )

    try:
        payload = parse_canonical(envelope.payload)
        if canonicalize(payload) != envelope.payload:
            raise CanonicalizationError("", "bytes are not in canonical form")
    except CanonicalizationError as exc:
        return EnvelopeVerdict(False, reason="template-mismatch", detail=f"payload is not canonical JSON: {exc}")

    certifications = store.for_measurement(quote_result.measurement)
    if not certifications:
        return EnvelopeVerdict(
            False,
            reason="unknown-enclave",
            detail=f"no certification for measurement {quote_result.measurement.hex[:12]}",
        )

    invalid: InvalidCertificationError | None = None
    last_mismatch: TemplateMatch | None = None
    for cert in certifications:
        if cert.template_error is not None:
            invalid = cert.template_error
            continue
        result = _match(cert.template, payload, "")
        if result.matched:
            att_type = payload.get("att_type") if isinstance(payload, dict) else None
            if not isinstance(att_type, str):
                att_type = None
            # null wildcards in a template let any JSON value through, but
            # chains and cards read these paths as strings or arrays
            spec = ATT_SPECS.get(att_type)
            if spec is not None:
                shapes = ((spec.string_paths, str, "a string"), (spec.content_arrays, list, "an array"))
                for paths, kind, what in shapes:
                    for path in paths:
                        value = payload
                        for key in path:
                            value = value.get(key) if isinstance(value, dict) else None
                        if not isinstance(value, kind):
                            return EnvelopeVerdict(
                                False,
                                reason="template-mismatch",
                                detail=f"{att_type} field is not {what} at /{'/'.join(path)}",
                            )
            return EnvelopeVerdict(
                True,
                fragment=VerifiedFragment(
                    payload=payload,
                    payload_bytes=envelope.payload,
                    fragment_sha256=payload_digest,
                    att_type=att_type,
                    measurement=quote_result.measurement,
                    certification=cert,
                ),
            )
        last_mismatch = result

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

    def to_file_value(self) -> dict[str, Any]:
        return {
            "envelopes": [e.to_json_value() for e in self.envelopes],
            "external_certificates": [c.to_json_value() for c in self.external_certificates],
            "version": BUNDLE_VERSION,
        }

    def write(self, path: str | Path) -> None:
        Path(path).write_bytes(canonicalize(self.to_file_value()))

    @classmethod
    def from_file_value(cls, value: dict[str, Any]) -> "AssertionBundle":
        """Parse a bundle; quotes whose platform certificates are equal share
        one PlatformCertificate, so each is checked against a root once, and
        every quote's signature is checked here, in bulk."""
        shared: dict[PlatformCertificate, PlatformCertificate] = {}
        envelopes = []
        for item in value["envelopes"]:
            envelope = AttestationEnvelope.from_json_value(item)
            cert = envelope.quote.platform_certificate
            first = shared.setdefault(cert, cert)
            if first is not cert:
                envelope = replace(envelope, quote=replace(envelope.quote, platform_certificate=first))
            envelopes.append(envelope)
        check_quote_signatures([e.quote for e in envelopes])
        return cls(
            envelopes=tuple(envelopes),
            external_certificates=tuple(
                ExternalCertificate.from_json_value(c) for c in value["external_certificates"]
            ),
        )

    @classmethod
    def read(cls, path: str | Path) -> "AssertionBundle":
        content, _ = hash_file_once(path)
        value = parse_canonical(content)
        if not isinstance(value, dict) or "envelopes" not in value:
            raise LamError(f"not an assertion bundle: {path}")
        version = value.get("version")
        if type(version) is not int or version != BUNDLE_VERSION:
            raise LamError(
                f"unsupported assertion bundle version {version!r} (expected {BUNDLE_VERSION}): {path}"
            )
        return cls.from_file_value(value)


# --- chain resolution --------------------------------------------------------

_EDGES = (
    "pot",
    "training_distribution",
    "training_dataset_certificate",
    "accuracy",
    "fairness",
    "test_dataset_certificate",
    "robustness",
    "robustness_generation",
    "robustness_source",
    "inference",
)

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


def _edge(status: str, detail: str) -> dict[str, str]:
    return {"status": status, "detail": detail}


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
    frags = list(fragments)
    index = index_fragments(frags)

    dataset_certs = {c.subject_sha256.hex: c for c in externals if c.subject_kind == "dataset"}

    report = ChainReport()

    for m in sorted({m for att in ("PoT", "AccAtt", "FairAtt", "RobustAtt-B", "IOAtt") for m in index[att]}):
        edges: dict[str, dict[str, str]] = {}

        pots = index["PoT"].get(m, [])
        if pots:
            edges["pot"] = _edge("ok", f"proof of training present ({len(pots)} fragment(s))")
            training_ds = pots[0].payload["dataset_sha256"]
        else:
            edges["pot"] = _edge("broken", "no proof-of-training fragment for this model")
            training_ds = None

        if training_ds is None:
            edges["training_distribution"] = _edge("blocked", "no proof of training to link against")
            edges["training_dataset_certificate"] = _edge("blocked", "no proof of training to link against")
        else:
            dists = index["DistAtt"].get(training_ds, [])
            if dists:
                kinds = sorted({f.payload["property"]["kind"] for f in dists})
                edges["training_distribution"] = _edge(
                    "ok", f"distribution attested for training set ({', '.join(kinds)})"
                )
            else:
                edges["training_distribution"] = _edge(
                    "broken", f"no distribution attestation for training set {training_ds[:12]}"
                )
            cert = dataset_certs.get(training_ds)
            if cert:
                edges["training_dataset_certificate"] = _edge(
                    "ok", f"training set endorsed as {cert.name!r} by {cert.endorser_id!r}"
                )
            else:
                edges["training_dataset_certificate"] = _edge(
                    "broken", f"no external certificate for training set {training_ds[:12]}"
                )

        accs = index["AccAtt"].get(m, [])
        fairs = index["FairAtt"].get(m, [])
        edges["accuracy"] = (
            _edge("ok", f"accuracy attested on {len(accs)} dataset(s)")
            if accs
            else _edge("broken", "no accuracy attestation for this model")
        )
        edges["fairness"] = (
            _edge("ok", f"demographic parity attested on {len(fairs)} dataset(s)")
            if fairs
            else _edge("broken", "no fairness attestation for this model")
        )

        test_sets = sorted({f.payload["dataset_sha256"] for f in accs + fairs})
        if not test_sets:
            edges["test_dataset_certificate"] = _edge("blocked", "no attested test set")
        else:
            uncertified = [d for d in test_sets if d not in dataset_certs]
            if uncertified:
                edges["test_dataset_certificate"] = _edge(
                    "broken", f"test set(s) without external certificate: {[d[:12] for d in uncertified]}"
                )
            else:
                edges["test_dataset_certificate"] = _edge(
                    "ok", f"all {len(test_sets)} attested test set(s) endorsed"
                )

        robs = index["RobustAtt-B"].get(m, [])
        edges["robustness"] = (
            _edge("ok", f"robust accuracy attested over {len(robs)} dataset(s)")
            if robs
            else _edge("broken", "no robustness attestation for this model")
        )

        grounded_sources: list[str] = []
        if not robs:
            edges["robustness_generation"] = _edge("blocked", "no robustness attestation to ground")
        else:
            ungrounded = []
            for f in robs:
                rob_ds = f.payload["robust_dataset_sha256"]
                gens = index["RobustAtt-A"].get(rob_ds, [])
                if gens:
                    grounded_sources.extend(g.payload["dataset_sha256"] for g in gens)
                else:
                    ungrounded.append(rob_ds)
            if ungrounded:
                edges["robustness_generation"] = _edge(
                    "broken",
                    f"robust dataset(s) without a generation fragment: {[d[:12] for d in ungrounded]}",
                )
            else:
                edges["robustness_generation"] = _edge(
                    "ok", "every robust dataset is grounded by a generation fragment"
                )

        if not grounded_sources:
            edges["robustness_source"] = _edge("blocked", "no grounded robust dataset")
        elif not test_sets:
            edges["robustness_source"] = _edge("blocked", "no attested test set to compare against")
        else:
            stray = sorted(set(grounded_sources) - set(test_sets))
            if stray:
                edges["robustness_source"] = _edge(
                    "broken",
                    f"robust dataset generated from unattested source(s): {[d[:12] for d in stray]}",
                )
            else:
                edges["robustness_source"] = _edge(
                    "ok", "robust dataset generated from the attested test set"
                )

        ios = index["IOAtt"].get(m, [])
        edges["inference"] = (
            _edge("ok", f"{len(ios)} inference(s) bound to this model")
            if ios
            else _edge("broken", "no inference attestation for this model")
        )

        complete = all(edges[name]["status"] == "ok" for name in _CORE_EDGES)
        entry: dict[str, Any] = {"edges": edges, "complete": complete}
        if complete:
            entry["conclusion"] = _conclusion(m, training_ds, test_sets, len(ios), dataset_certs)
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
    certs = bundle.external_certificates
    known = [c for c in certs if c.endorser_id in endorser_keys]
    signed = iter(verify_signatures([(endorser_keys[c.endorser_id], c.signature, c.signed_bytes()) for c in known]))
    externals = tuple((c, c.endorser_id in endorser_keys and next(signed)) for c in certs)
    fragments = [v.fragment for v in verdicts if v.accepted]
    valid_externals = [cert for cert, ok in externals if ok]
    report = resolve_chains(fragments, valid_externals)
    return BundleVerdict(verdicts, externals, report, assemble_cards(fragments, valid_externals, report))
