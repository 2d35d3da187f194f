"""Reference chain resolution and card assembly: the direct quadratic scans.

`lam.verifier.resolve_chains` and `lam.cards.assemble_cards` index each
attestation type's fragments once by the digest they are looked up by; the
equivalence tests compare them against these versions, which filter the
whole fragment list for every model and dataset.
"""

from __future__ import annotations

from typing import Any, Iterable

from lam.cards import PropertyCard, _ClaimTable, _dedupe, _external_entry, _provenance_entry
from lam.certs import ExternalCertificate
from lam.verifier import _CORE_EDGES, ChainReport, VerifiedFragment, _conclusion, _edge


def reference_resolve_chains(
    fragments: Iterable[VerifiedFragment],
    externals: Iterable[ExternalCertificate] = (),
) -> ChainReport:
    """Link verified fragments on shared digests and report, per model, which
    chain edges hold. Gaps are reported as broken/blocked edges, not errors."""
    frags = list(fragments)
    externals = list(externals)
    by_type: dict[str, list[VerifiedFragment]] = {}
    for f in frags:
        by_type.setdefault(f.att_type, []).append(f)

    dataset_certs = {c.subject_sha256.hex: c for c in externals if c.subject_kind == "dataset"}

    report = ChainReport()

    model_digests: list[str] = []
    for att in ("PoT", "AccAtt", "FairAtt", "RobustAtt-B", "IOAtt"):
        for f in by_type.get(att, []):
            m = f.payload["model_sha256"]
            if m not in model_digests:
                model_digests.append(m)

    for m in sorted(model_digests):
        edges: dict[str, dict[str, str]] = {}

        pots = [f for f in by_type.get("PoT", []) if f.payload["model_sha256"] == m]
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
            dists = [
                f for f in by_type.get("DistAtt", []) if f.payload["dataset_sha256"] == training_ds
            ]
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

        accs = [f for f in by_type.get("AccAtt", []) if f.payload["model_sha256"] == m]
        fairs = [f for f in by_type.get("FairAtt", []) if f.payload["model_sha256"] == m]
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

        robs = [f for f in by_type.get("RobustAtt-B", []) if f.payload["model_sha256"] == m]
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
                gens = [
                    g
                    for g in by_type.get("RobustAtt-A", [])
                    if g.payload["robust_dataset_sha256"] == rob_ds
                ]
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

        ios = [f for f in by_type.get("IOAtt", []) if f.payload["model_sha256"] == m]
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
    dataset_digests = sorted(
        {f.payload["dataset_sha256"] for f in by_type.get("DistAtt", [])} | set(dataset_certs)
    )
    for d in dataset_digests:
        kinds = sorted(
            {
                f.payload["property"]["kind"]
                for f in by_type.get("DistAtt", [])
                if f.payload["dataset_sha256"] == d
            }
        )
        entry = {"distribution_kinds": kinds}
        if d in dataset_certs:
            entry["certificate"] = {
                "endorser_id": dataset_certs[d].endorser_id,
                "name": dataset_certs[d].name,
            }
        report.datasets[d] = entry

    # fragments referencing a model digest that has no proof of training
    anchored = {m for m in model_digests if report.models[m]["edges"]["pot"]["status"] == "ok"}
    for f in frags:
        m = f.payload.get("model_sha256")
        if m is not None and m not in anchored and f.att_type != "PoT":
            report.orphans.append(
                {
                    "att_type": f.att_type,
                    "fragment_sha256": f.fragment_sha256.hex,
                    "model_sha256": m,
                    "reason": "model digest has no proof of training in this bundle",
                }
            )

    return report


def reference_assemble_cards(
    fragments: Iterable[VerifiedFragment],
    externals: Iterable[ExternalCertificate] = (),
) -> list[PropertyCard]:
    frags = _dedupe(fragments)
    externals = list(externals)
    table = _ClaimTable()

    by_type: dict[str, list[VerifiedFragment]] = {}
    for f in frags:
        by_type.setdefault(f.att_type, []).append(f)

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
    model_digests = sorted(
        {
            f.payload["model_sha256"]
            for att in ("PoT", "AccAtt", "FairAtt", "RobustAtt-B")
            for f in by_type.get(att, [])
        }
    )
    for m in model_digests:
        provenance: list[dict[str, Any]] = []
        results: dict[str, dict[str, Any]] = {}  # dataset digest -> results entry

        for att in ("AccAtt", "FairAtt", "RobustAtt-B"):
            for f in by_type.get(att, []):
                if f.payload["model_sha256"] != m:
                    continue
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
        for f in by_type.get("PoT", []):
            if f.payload["model_sha256"] != m:
                continue
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
    datasheet_digests = sorted(
        {f.payload["dataset_sha256"] for f in by_type.get("DistAtt", [])}
        | {f.payload["robust_dataset_sha256"] for f in by_type.get("RobustAtt-A", [])}
    )
    for d in datasheet_digests:
        provenance = []
        distributions = []
        for f in by_type.get("DistAtt", []):
            if f.payload["dataset_sha256"] != d:
                continue
            prop = f.payload["property"]
            key = f"distribution:{d}:{prop['kind']}"
            if table.put(key, prop, f.fragment_sha256.hex):
                distributions.append({**prop, "verified": True})
            provenance.append(_provenance_entry(f, [key]))
        distributions.sort(key=lambda p: p["kind"])

        generation: dict[str, Any] | None = None
        for f in by_type.get("RobustAtt-A", []):
            if f.payload["robust_dataset_sha256"] != d:
                continue
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
    for f in sorted(by_type.get("IOAtt", []), key=lambda f: f.fragment_sha256.hex):
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
