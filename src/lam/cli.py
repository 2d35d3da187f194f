"""Command-line surface: `lam keygen|attest|endorse|bundle|verify`.

Every command is a thin composition of library operations over a workspace
directory (keys, artifacts, attestations, certificates, cards). Exit codes:
0 success, 1 verification failure, 2 input/domain error, 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from . import __version__
from .backend import (
    ManufacturerRoot,
    PlatformCertificate,
    PlatformIdentity,
    _public_hex,
    create_root,
    provision_platform,
)
from .certs import (
    CertificationStore,
    Endorser,
    ExternalCertificate,
    make_certification,
    make_external_certificate,
)
from .engine.data import Dataset, TrainingConfig
from .engine.model import Model
from .errors import LamError, WorkspaceError
from .hashcore import (
    Digest,
    build_manifest,
    canonicalize,
    hash_file_once,
    parse_canonical,
)
from .measurers import (
    ATT_TYPES,
    AttestationEnvelope,
    attest_accuracy,
    attest_distribution,
    attest_fairness,
    attest_inference,
    attest_robustness,
    attest_training,
    builtin_template,
    default_enclaves,
)
from .verifier import AssertionBundle, verify_bundle

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 3 on usage errors
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class Workspace:
    """Filesystem layout for keys, artifacts, attestations, and cards."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @property
    def keys(self) -> Path:
        return self.root / "keys"

    @property
    def artifacts(self) -> Path:
        return self.root / "artifacts"

    @property
    def attestations(self) -> Path:
        return self.root / "attestations"

    @property
    def certificates(self) -> Path:
        return self.root / "certificates"

    @property
    def cards(self) -> Path:
        return self.root / "cards"

    @property
    def trust_file(self) -> Path:
        return self.keys / "trust.json"

    @property
    def certification_store_file(self) -> Path:
        return self.root / "certifications.json"

    def trust(self) -> dict[str, Any]:
        if self.trust_file.exists():
            content, _ = hash_file_once(self.trust_file)
            return parse_canonical(content)
        return {"endorser_keys": {}, "manufacturer_roots": []}

    def save_trust(self, trust: dict[str, Any]) -> None:
        self.keys.mkdir(parents=True, exist_ok=True)
        self.trust_file.write_bytes(canonicalize(trust))

    def _private_key(self, stem: str, missing: str) -> Ed25519PrivateKey:
        """The key in keys/<stem>.key (64 hex digits); WorkspaceError with
        `missing` when there is none, naming the file when it is malformed."""
        path = self.keys / f"{stem}.key"
        if not path.exists():
            raise WorkspaceError(missing)
        try:
            return Ed25519PrivateKey.from_private_bytes(bytes.fromhex(path.read_text().strip()))
        except ValueError:
            raise WorkspaceError(f"malformed key file {path}: expected 64 hex digits") from None

    def _certificate(self, stem: str) -> PlatformCertificate:
        content, _ = hash_file_once(self.keys / f"{stem}.cert.json")
        return PlatformCertificate.from_json_value(parse_canonical(content))

    def load_root(self) -> ManufacturerRoot:
        private = self._private_key("root", "no manufacturer root in workspace; run `lam keygen root` first")
        return ManufacturerRoot(
            private_key=private, public_hex=_public_hex(private), certificate=self._certificate("root")
        )

    def load_platform(self, platform_id: str | None) -> PlatformIdentity:
        if platform_id is None:
            candidates = sorted(self.keys.glob("platform-*.key"))
            if len(candidates) != 1:
                raise WorkspaceError(
                    "workspace has no unique platform identity; pass --platform-id "
                    f"(found {len(candidates)})"
                )
            platform_id = candidates[0].name[len("platform-") : -len(".key")]
        stem = f"platform-{platform_id}"
        private = self._private_key(stem, f"no platform {platform_id!r}; run `lam keygen platform` first")
        return PlatformIdentity(
            platform_id=platform_id,
            private_key=private,
            public_hex=_public_hex(private),
            certificate=self._certificate(stem),
        )

    def load_endorser(self, endorser_id: str) -> Endorser:
        private = self._private_key(
            f"endorser-{endorser_id}", f"no endorser {endorser_id!r}; run `lam keygen endorser` first"
        )
        return Endorser(endorser_id=endorser_id, private_key=private)


def _write_guarded(path: Path, data: bytes, force: bool) -> None:
    if path.exists() and not force:
        raise WorkspaceError(f"refusing to overwrite {path} (use --force)")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _seed_bytes(seed: str | None) -> bytes:
    return seed.encode("utf-8") if seed is not None else os.urandom(32)


# --- keygen -------------------------------------------------------------------


def cmd_keygen(args: argparse.Namespace) -> int:
    ws = Workspace(args.workspace)
    trust = ws.trust()

    if args.role == "root":
        root = create_root(_seed_bytes(args.seed))
        _write_guarded(ws.keys / "root.key", (root.private_key.private_bytes_raw().hex() + "\n").encode(), args.force)
        _write_guarded(ws.keys / "root.pub", (root.public_hex + "\n").encode(), args.force)
        _write_guarded(ws.keys / "root.cert.json", canonicalize(root.certificate.to_json_value()), args.force)
        if root.public_hex not in trust["manufacturer_roots"]:
            trust["manufacturer_roots"].append(root.public_hex)
        ws.save_trust(trust)
        print(f"root public key {root.public_hex}")
        return EXIT_OK

    if args.role == "platform":
        if args.platform_id is None:
            raise WorkspaceError("keygen platform requires --platform-id")
        root = ws.load_root()
        platform = provision_platform(root, args.platform_id, seed=args.seed)
        base = ws.keys / f"platform-{args.platform_id}"
        _write_guarded(base.with_suffix(".key"), (platform.private_key.private_bytes_raw().hex() + "\n").encode(), args.force)
        _write_guarded(base.with_suffix(".pub"), (platform.public_hex + "\n").encode(), args.force)
        _write_guarded(base.with_suffix(".cert.json"), canonicalize(platform.certificate.to_json_value()), args.force)
        print(f"platform {args.platform_id} attestation key {platform.public_hex}")
        return EXIT_OK

    if args.endorser_id is None:
        raise WorkspaceError("keygen endorser requires --endorser-id")
    endorser = Endorser.create(args.endorser_id, seed=args.seed)
    base = ws.keys / f"endorser-{args.endorser_id}"
    _write_guarded(base.with_suffix(".key"), (endorser.private_key.private_bytes_raw().hex() + "\n").encode(), args.force)
    _write_guarded(base.with_suffix(".pub"), (endorser.public_hex + "\n").encode(), args.force)
    trust["endorser_keys"][args.endorser_id] = endorser.public_hex
    ws.save_trust(trust)
    print(f"endorser {args.endorser_id} key {endorser.public_hex}")
    return EXIT_OK


# --- attest -------------------------------------------------------------------


def _enclave(ws_args: argparse.Namespace, kind: str):
    ctx = default_enclaves()[kind]
    if getattr(ws_args, "trusted_dir", None):
        ctx = ctx.with_trusted_inputs(build_manifest(ws_args.trusted_dir))
    return ctx


def _out_dir(args: argparse.Namespace, ws: Workspace) -> Path:
    return Path(args.out) if args.out else ws.attestations


def _envelope_path(out_dir: Path, prefix: str, subject_hex: str) -> Path:
    return out_dir / f"{prefix}-{subject_hex[:12]}.envelope.json"


def cmd_attest(args: argparse.Namespace) -> int:
    ws = Workspace(args.workspace)
    platform = ws.load_platform(args.platform_id)
    out_dir = _out_dir(args, ws)

    if args.kind == "dist":
        ctx = _enclave(args, "dataset")
        dataset = Dataset.from_csv_bytes(ctx.read_input(args.data))
        env = attest_distribution(dataset, args.dist_kind, enclave=ctx, platform=platform)
        path = _envelope_path(out_dir, f"dist-{args.dist_kind}", dataset.digest.hex)
        _write_guarded(path, canonicalize(env.to_file_value()), args.force)
        print(f"dataset {dataset.digest.hex}")
        print(f"wrote {path}")
        return EXIT_OK

    if args.kind == "train":
        ctx = _enclave(args, "training")
        dataset = Dataset.from_csv_bytes(ctx.read_input(args.data))
        config = TrainingConfig.from_json_bytes(ctx.read_input(args.config))
        model, env = attest_training(dataset, config, enclave=ctx, platform=platform)
        model_path = Path(args.model_out) if args.model_out else ws.artifacts / f"model-{model.digest.hex[:12]}.json"
        _write_guarded(model_path, model.canonical_bytes, args.force)
        path = _envelope_path(out_dir, "pot", model.digest.hex)
        _write_guarded(path, canonicalize(env.to_file_value()), args.force)
        print(f"model {model.digest.hex}")
        print(f"wrote {model_path}")
        print(f"wrote {path}")
        return EXIT_OK

    if args.kind in ("accuracy", "fairness"):
        ctx = _enclave(args, "metric")
        model = Model.from_json_bytes(ctx.read_input(args.model))
        dataset = Dataset.from_csv_bytes(ctx.read_input(args.data))
        if args.kind == "accuracy":
            env = attest_accuracy(model, dataset, enclave=ctx, platform=platform)
            prefix = "acc"
        else:
            env = attest_fairness(model, dataset, enclave=ctx, platform=platform)
            prefix = "fair"
        path = _envelope_path(out_dir, prefix, model.digest.hex)
        _write_guarded(path, canonicalize(env.to_file_value()), args.force)
        metric = env.payload_value()["results"]["metrics"][0]
        print(f"{metric['type']} {metric['value']} (model {model.digest.hex[:12]})")
        print(f"wrote {path}")
        return EXIT_OK

    if args.kind == "robustness":
        ctx = _enclave(args, "metric")
        model = Model.from_json_bytes(ctx.read_input(args.model))
        dataset = Dataset.from_csv_bytes(ctx.read_input(args.data))
        d_rob, robgen, robacc = attest_robustness(model, dataset, args.eps, enclave=ctx, platform=platform)
        rob_path = Path(args.robust_out) if args.robust_out else ws.artifacts / f"drob-{d_rob.digest.hex[:12]}.csv"
        _write_guarded(rob_path, d_rob.canonical_bytes, args.force)
        gen_path = _envelope_path(out_dir, "robgen", d_rob.digest.hex)
        acc_path = _envelope_path(out_dir, "robacc", model.digest.hex)
        _write_guarded(gen_path, canonicalize(robgen.to_file_value()), args.force)
        _write_guarded(acc_path, canonicalize(robacc.to_file_value()), args.force)
        metric = robacc.payload_value()["results"]["metrics"][0]
        print(f"robust_accuracy {metric['value']} at eps {args.eps} (robust dataset {d_rob.digest.hex})")
        for p in (rob_path, gen_path, acc_path):
            print(f"wrote {p}")
        return EXIT_OK

    # inference
    ctx = _enclave(args, "inference")
    model = Model.from_json_bytes(ctx.read_input(args.model))
    input_value = json.loads(ctx.read_input(args.input).decode("utf-8"))
    features = [float(v) if isinstance(v, str) else v for v in input_value["features"]]
    record, env = attest_inference(model, features, enclave=ctx, platform=platform)
    path = _envelope_path(out_dir, "io", record.output_digest.hex)
    _write_guarded(path, canonicalize(env.to_file_value()), args.force)
    record_path = (
        Path(args.record_out)
        if args.record_out
        else ws.artifacts / f"inference-{record.output_digest.hex[:12]}.json"
    )
    _write_guarded(
        record_path,
        canonicalize({"input": record.input_json_value(), "output": record.output_json_value()}),
        args.force,
    )
    print(f"predicted class {record.predicted_class} (output {record.output_digest.hex[:12]})")
    print(f"wrote {path}")
    print(f"wrote {record_path}")
    return EXIT_OK


# --- endorse ------------------------------------------------------------------


def _load_claims(path: str | None) -> Any:
    if path is None:
        return {}
    content, _ = hash_file_once(path)
    return parse_canonical(content)


def cmd_endorse(args: argparse.Namespace) -> int:
    ws = Workspace(args.workspace)
    endorser = ws.load_endorser(args.endorser)

    if args.kind == "enclave":
        if args.measurement:
            measurement = Digest.from_hex(args.measurement)
        elif args.enclave_kind:
            ctx = _enclave(args, args.enclave_kind)
            measurement = ctx.measurement
        else:
            raise WorkspaceError("endorse enclave needs --enclave-kind or --measurement")
        if args.template:
            content, _ = hash_file_once(args.template)
            template = parse_canonical(content)
        elif args.att_type:
            template = builtin_template(args.att_type)
        else:
            raise WorkspaceError("endorse enclave needs --att-type or --template")
        certification = make_certification(endorser, measurement, template)

        store_path = ws.certification_store_file
        records = []
        if store_path.exists():
            content, _ = hash_file_once(store_path)
            records = parse_canonical(content)
        records.append(certification.to_json_value())
        store_path.parent.mkdir(parents=True, exist_ok=True)
        store_path.write_bytes(canonicalize(records))
        print(f"certified enclave {measurement.hex[:12]} -> {store_path}")
        return EXIT_OK

    subject = Digest.from_hex(args.subject)
    cert = make_external_certificate(
        endorser, subject, args.kind, args.name, _load_claims(args.claims)
    )
    path = ws.certificates / f"{args.kind}-{subject.hex[:12]}.cert.json"
    _write_guarded(path, canonicalize(cert.to_json_value()), args.force)
    print(f"endorsed {args.kind} {subject.hex[:12]} as {args.name!r}")
    print(f"wrote {path}")
    return EXIT_OK


# --- bundle -------------------------------------------------------------------


def cmd_bundle(args: argparse.Namespace) -> int:
    envelopes: list[AttestationEnvelope] = []
    externals: list[ExternalCertificate] = []
    for name in args.files:
        content, _ = hash_file_once(name)
        value = parse_canonical(content)
        if isinstance(value, dict) and "payload_b64" in value:
            envelopes.append(AttestationEnvelope.from_json_value(value))
        elif isinstance(value, dict) and "subject_sha256" in value:
            externals.append(ExternalCertificate.from_json_value(value))
        else:
            raise LamError(f"not an envelope or external certificate: {name}")
    bundle = AssertionBundle(envelopes=tuple(envelopes), external_certificates=tuple(externals))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    bundle.write(out)
    print(f"bundled {len(envelopes)} envelope(s) + {len(externals)} certificate(s) -> {out}")
    return EXIT_OK


# --- verify -------------------------------------------------------------------


def _trust_anchors(trust: Any, path: str) -> tuple[set[str], dict[str, str]]:
    """Manufacturer root keys and endorser keys from a parsed trust file."""
    if not isinstance(trust, dict):
        raise LamError(f"trust file must be a JSON object: {path}")
    roots = trust.get("manufacturer_roots", [])
    if not (isinstance(roots, list) and all(isinstance(r, str) for r in roots)):
        raise LamError(f"trust file manufacturer_roots must be a list of strings: {path}")
    endorser_keys = trust.get("endorser_keys", {})
    if not (
        isinstance(endorser_keys, dict) and all(isinstance(k, str) for k in endorser_keys.values())
    ):
        raise LamError(f"trust file endorser_keys must map endorser ids to key strings: {path}")
    return set(roots), dict(endorser_keys)


def cmd_verify(args: argparse.Namespace) -> int:
    trust_content, _ = hash_file_once(args.roots)
    roots, endorser_keys = _trust_anchors(parse_canonical(trust_content), args.roots)

    store = CertificationStore.load(args.certstore, endorser_keys)
    bundle = AssertionBundle.read(args.bundle)
    result = verify_bundle(bundle, store, roots, endorser_keys)

    for i, verdict in enumerate(result.envelopes, start=1):
        if verdict.accepted:
            frag = verdict.fragment
            print(f"[{i}/{len(result.envelopes)}] {frag.att_type}: ok (fragment {frag.fragment_sha256.hex[:12]})")
        else:
            detail = f" ({verdict.detail})" if verdict.detail else ""
            print(f"[{i}/{len(result.envelopes)}] REJECT {verdict.reason}{detail}")
    for cert, ok in result.externals:
        status = "ok" if ok else "REJECT bad-signature"
        print(f"external certificate {cert.name!r} by {cert.endorser_id}: {status}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "chain_report.json"
    report_path.write_bytes(result.report.canonical_bytes())
    print(f"wrote {report_path}")
    for card in result.cards:
        path = card.write(out_dir)
        print(f"wrote {path}")

    for model_hex, entry in result.report.models.items():
        status = "complete" if entry["complete"] else "incomplete"
        print(f"chain for model {model_hex[:12]}: {status}")
        if entry["complete"]:
            print(f"  {entry['conclusion']}")

    if result.failures:
        print(f"{result.failures} verification failure(s)")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lam", description="attested ML property cards: prover, endorser, verifier")
    parser.add_argument("--version", action="version", version=f"lam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_workspace(p: argparse.ArgumentParser) -> None:
        p.add_argument("-w", "--workspace", default=".", help="workspace directory (default: .)")
        p.add_argument("--force", action="store_true", help="overwrite existing output files")

    p_key = sub.add_parser("keygen", help="generate root / platform / endorser key material")
    p_key.add_argument("role", choices=("root", "platform", "endorser"))
    p_key.add_argument("--seed", help="deterministic key derivation seed")
    p_key.add_argument("--platform-id")
    p_key.add_argument("--endorser-id")
    add_workspace(p_key)
    p_key.set_defaults(func=cmd_keygen)

    p_att = sub.add_parser("attest", help="produce an attestation envelope")
    att_sub = p_att.add_subparsers(dest="kind", required=True, parser_class=_Parser)

    def add_attest_common(p: argparse.ArgumentParser) -> None:
        add_workspace(p)
        p.add_argument("--platform-id", help="platform identity to quote with")
        p.add_argument("--out", help="envelope output directory (default: <ws>/attestations)")
        p.add_argument("--trusted-dir", help="directory of trusted input files (manifest-checked)")

    p = att_sub.add_parser("dist", help="distributional property attestation")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", dest="dist_kind", choices=("marginal", "conditional"), default="marginal")
    add_attest_common(p)
    p.set_defaults(func=cmd_attest)

    p = att_sub.add_parser("train", help="proof of training")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--model-out")
    add_attest_common(p)
    p.set_defaults(func=cmd_attest)

    for metric_kind in ("accuracy", "fairness"):
        p = att_sub.add_parser(metric_kind, help=f"{metric_kind} attestation")
        p.add_argument("--model", required=True)
        p.add_argument("--data", required=True)
        add_attest_common(p)
        p.set_defaults(func=cmd_attest)

    p = att_sub.add_parser("robustness", help="two-step FGSM robustness attestation")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--eps", required=True, help="perturbation size as a decimal string")
    p.add_argument("--robust-out", help="path for the generated robust dataset CSV")
    add_attest_common(p)
    p.set_defaults(func=cmd_attest)

    p = att_sub.add_parser("inference", help="input-model-output attestation")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help='JSON file {"features": [...]}')
    p.add_argument("--record-out", help="path for the inference record JSON")
    add_attest_common(p)
    p.set_defaults(func=cmd_attest)

    p_end = sub.add_parser("endorse", help="sign certifications and external certificates")
    end_sub = p_end.add_subparsers(dest="kind", required=True, parser_class=_Parser)

    p = end_sub.add_parser("enclave", help="certify an enclave measurement for a claim template")
    p.add_argument("--endorser", required=True)
    p.add_argument("--enclave-kind", choices=("dataset", "training", "metric", "inference"))
    p.add_argument("--measurement", help="explicit enclave measurement (hex)")
    p.add_argument("--att-type", choices=ATT_TYPES)
    p.add_argument("--template", help="JSON template file (overrides --att-type)")
    p.add_argument("--trusted-dir", help="trusted input directory (matches attest --trusted-dir)")
    add_workspace(p)
    p.set_defaults(func=cmd_endorse)

    for subject_kind in ("dataset", "model"):
        p = end_sub.add_parser(subject_kind, help=f"external certificate for a {subject_kind} digest")
        p.add_argument("subject", help=f"{subject_kind} digest (hex)")
        p.add_argument("--endorser", required=True)
        p.add_argument("--name", required=True)
        p.add_argument("--claims", help="JSON file of additional claims")
        add_workspace(p)
        p.set_defaults(func=cmd_endorse)

    p_bundle = sub.add_parser("bundle", help="combine envelopes and certificates into a bundle")
    p_bundle.add_argument("files", nargs="+", help="envelope and external-certificate files")
    p_bundle.add_argument("--out", required=True)
    p_bundle.set_defaults(func=cmd_bundle)

    p_verify = sub.add_parser("verify", help="verify a bundle and assemble property cards")
    p_verify.add_argument("--bundle", required=True)
    p_verify.add_argument("--certstore", required=True)
    p_verify.add_argument("--roots", required=True, help="trust anchors file (trust.json)")
    p_verify.add_argument("--out", required=True, help="output directory for cards and chain report")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
