"""Command-line surface: `lam keygen|attest|endorse|bundle|verify`.

Every command is a thin composition of library operations over a workspace
directory (keys, artifacts, attestations, certificates, cards). Exit codes:
0 success, 1 verification failure, 2 input/domain error, 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import Any, Callable

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from . import __version__
from .backend import (
    ManufacturerRoot,
    PlatformCertificate,
    PlatformIdentity,
    create_root,
    provision_platform,
    public_hex,
)
from .certs import (
    CertificationStore,
    Endorser,
    ExternalCertificate,
    make_certification,
    make_external_certificate,
)
from .errors import DomainError, LamError, WorkspaceError
from .fragments import ATT_TYPES, AttestationEnvelope, EnclaveContext, builtin_template, default_enclaves
from .hashcore import (
    Digest,
    build_manifest,
    canonicalize,
    hash_file_once,
    in_file,
    object_keys,
    parse_decimal_string,
    read_canonical,
    unique_keys,
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


def _trust(value: Any) -> dict[str, Any]:
    """A trust file's value: {"manufacturer_roots": [key hex, ...],
    "endorser_keys": {endorser id: key hex}}, either entry empty when missing."""
    empty = {"manufacturer_roots": [], "endorser_keys": {}}
    trust = {**empty, **value} if isinstance(value, dict) else value
    object_keys(trust, empty.keys(), "trust file")
    roots, endorser_keys = trust["manufacturer_roots"], trust["endorser_keys"]
    if not (isinstance(roots, list) and all(isinstance(r, str) for r in roots)):
        raise LamError("trust file manufacturer_roots must be a list of strings")
    if not (isinstance(endorser_keys, dict) and all(isinstance(k, str) for k in endorser_keys.values())):
        raise LamError("trust file endorser_keys must map endorser ids to key strings")
    return trust


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
    def trust_file(self) -> Path:
        return self.keys / "trust.json"

    @property
    def certification_store_file(self) -> Path:
        return self.root / "certifications.json"

    def trust(self) -> dict[str, Any]:
        return read_canonical(self.trust_file, _trust) if self.trust_file.exists() else _trust({})

    def save_trust(self, trust: dict[str, Any]) -> None:
        self.keys.mkdir(parents=True, exist_ok=True)
        self.trust_file.write_bytes(canonicalize(trust))

    def _private_key(self, stem: str, missing: str) -> Ed25519PrivateKey:
        """The key in keys/<stem>.key (64 hex digits); WorkspaceError with
        `missing` when there is none, naming the file when it is malformed."""
        path = self.keys / f"{stem}.key"
        if not path.exists():
            raise WorkspaceError(missing)
        content, _ = hash_file_once(path)
        try:
            return Ed25519PrivateKey.from_private_bytes(bytes.fromhex(content.decode().strip()))
        except ValueError:
            raise WorkspaceError(f"malformed key file {path}: expected 64 hex digits") from None

    def _certificate(self, stem: str) -> PlatformCertificate:
        return read_canonical(self.keys / f"{stem}.cert.json", PlatformCertificate.from_json_value)

    def write_key(
        self, stem: str, private: Ed25519PrivateKey, certificate: PlatformCertificate | None, force: bool
    ) -> None:
        """Write keys/<stem>.key, .pub and, given a certificate, .cert.json,
        in that order, refusing to overwrite without force."""
        _write_guarded(self.keys / f"{stem}.key", (private.private_bytes_raw().hex() + "\n").encode(), force)
        _write_guarded(self.keys / f"{stem}.pub", (public_hex(private) + "\n").encode(), force)
        if certificate is not None:
            _write_guarded(self.keys / f"{stem}.cert.json", canonicalize(certificate.to_json_value()), force)

    def load_root(self) -> ManufacturerRoot:
        private = self._private_key("root", "no manufacturer root in workspace; run `lam keygen root` first")
        return ManufacturerRoot(
            private_key=private, public_hex=public_hex(private), certificate=self._certificate("root")
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
            public_hex=public_hex(private),
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


# --- keygen -------------------------------------------------------------------


def cmd_keygen(args: argparse.Namespace) -> int:
    ws = Workspace(args.workspace)

    if args.role == "root":
        trust = ws.trust()
        root = create_root(args.seed)
        ws.write_key("root", root.private_key, root.certificate, args.force)
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
        ws.write_key(f"platform-{args.platform_id}", platform.private_key, platform.certificate, args.force)
        print(f"platform {args.platform_id} attestation key {platform.public_hex}")
        return EXIT_OK

    if args.endorser_id is None:
        raise WorkspaceError("keygen endorser requires --endorser-id")
    trust = ws.trust()
    endorser = Endorser.create(args.endorser_id, seed=args.seed)
    ws.write_key(f"endorser-{args.endorser_id}", endorser.private_key, None, args.force)
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


def _write_envelope(out_dir: Path, prefix: str, subject_hex: str, env: AttestationEnvelope, force: bool) -> Path:
    """Write env to <out_dir>/<prefix>-<subject_hex[:12]>.envelope.json,
    refusing to overwrite without force; the path written."""
    path = out_dir / f"{prefix}-{subject_hex[:12]}.envelope.json"
    _write_guarded(path, canonicalize(env.to_file_value()), force)
    return path


def _inference_features(data: bytes) -> list[float]:
    """The features of an inference input file {"features": [...]}: JSON
    numbers and decimal strings, as floats."""
    try:
        value = json.loads(data.decode("utf-8"), object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise DomainError(f"inference input is not JSON: {exc}") from None
    object_keys(value, {"features"}, "inference input")
    features = value["features"]
    if not isinstance(features, list):
        raise DomainError('inference input must be an object {"features": [...]}')
    out = []
    for i, v in enumerate(features):
        if type(v) not in (str, int, float):  # a bool is not a feature value
            raise DomainError(f"inference input features[{i}] must be a number or a decimal string, not {v!r}")
        try:
            out.append(float(v))
        except ValueError:
            raise DomainError(f"inference input features[{i}] is not a decimal string: {v!r}") from None
        except OverflowError:  # an integer beyond the float range
            raise DomainError(f"inference input features[{i}] is outside the float range") from None
    return out


def _read_input(ctx: EnclaveContext, path: str, read: Callable[[bytes], Any]) -> Any:
    """`read` of the bytes of the enclave input `path`, read once by `ctx`
    (see EnclaveContext.read_input); an error from `read` names the file."""
    data = ctx.read_input(path)
    with in_file(path):
        return read(data)


def cmd_attest(args: argparse.Namespace) -> int:
    # the one command that runs a model, so the one that loads the ML engine
    from .engine.data import Dataset, TrainingConfig
    from .engine.model import Model
    from .measurers import attest_accuracy, attest_distribution, attest_fairness, attest_inference
    from .measurers import attest_robustness, attest_training

    ws = Workspace(args.workspace)
    platform = ws.load_platform(args.platform_id)
    out_dir = Path(args.out) if args.out else ws.attestations

    if args.kind == "dist":
        ctx = _enclave(args, "dataset")
        dataset = _read_input(ctx, args.data, Dataset.from_csv_bytes)
        env = attest_distribution(dataset, args.dist_kind, enclave=ctx, platform=platform)
        path = _write_envelope(out_dir, f"dist-{args.dist_kind}", dataset.digest.hex, env, args.force)
        print(f"dataset {dataset.digest.hex}")
        print(f"wrote {path}")
        return EXIT_OK

    if args.kind == "train":
        ctx = _enclave(args, "training")
        dataset = _read_input(ctx, args.data, Dataset.from_csv_bytes)
        config = _read_input(ctx, args.config, TrainingConfig.from_json_bytes)
        model, env = attest_training(dataset, config, enclave=ctx, platform=platform)
        model_path = Path(args.model_out) if args.model_out else ws.artifacts / f"model-{model.digest.hex[:12]}.json"
        _write_guarded(model_path, model.canonical_bytes, args.force)
        path = _write_envelope(out_dir, "pot", model.digest.hex, env, args.force)
        print(f"model {model.digest.hex}")
        print(f"wrote {model_path}")
        print(f"wrote {path}")
        return EXIT_OK

    if args.kind in ("accuracy", "fairness"):
        ctx = _enclave(args, "metric")
        model = _read_input(ctx, args.model, Model.from_json_bytes)
        dataset = _read_input(ctx, args.data, Dataset.from_csv_bytes)
        if args.kind == "accuracy":
            env = attest_accuracy(model, dataset, enclave=ctx, platform=platform)
            prefix = "acc"
        else:
            env = attest_fairness(model, dataset, enclave=ctx, platform=platform)
            prefix = "fair"
        path = _write_envelope(out_dir, prefix, model.digest.hex, env, args.force)
        metric = env.payload_value()["results"]["metrics"][0]
        print(f"{metric['type']} {metric['value']} (model {model.digest.hex[:12]})")
        print(f"wrote {path}")
        return EXIT_OK

    if args.kind == "robustness":
        try:
            parse_decimal_string(args.eps)
        except (ValueError, DomainError) as exc:
            raise DomainError(f"--eps: {exc}") from None
        ctx = _enclave(args, "metric")
        model = _read_input(ctx, args.model, Model.from_json_bytes)
        dataset = _read_input(ctx, args.data, Dataset.from_csv_bytes)
        d_rob, robgen, robacc = attest_robustness(model, dataset, args.eps, enclave=ctx, platform=platform)
        rob_path = Path(args.robust_out) if args.robust_out else ws.artifacts / f"drob-{d_rob.digest.hex[:12]}.csv"
        _write_guarded(rob_path, d_rob.canonical_bytes, args.force)
        gen_path = _write_envelope(out_dir, "robgen", d_rob.digest.hex, robgen, args.force)
        acc_path = _write_envelope(out_dir, "robacc", model.digest.hex, robacc, args.force)
        metric = robacc.payload_value()["results"]["metrics"][0]
        print(f"robust_accuracy {metric['value']} at eps {args.eps} (robust dataset {d_rob.digest.hex})")
        for p in (rob_path, gen_path, acc_path):
            print(f"wrote {p}")
        return EXIT_OK

    # inference
    ctx = _enclave(args, "inference")
    model = _read_input(ctx, args.model, Model.from_json_bytes)
    features = _read_input(ctx, args.input, _inference_features)
    record, env = attest_inference(model, features, enclave=ctx, platform=platform)
    path = _write_envelope(out_dir, "io", record.output_digest.hex, env, args.force)
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


def _digest_arg(name: str, text: str) -> Digest:
    try:
        return Digest.from_hex(text)
    except ValueError as exc:
        raise LamError(f"{name}: {exc}") from None


def _claims(value: Any) -> Any:
    """A claims file's value, which canonical JSON must hold: canonicalize
    names a NaN, an infinity or a lone surrogate at its path."""
    canonicalize(value)
    return value


def cmd_endorse(args: argparse.Namespace) -> int:
    ws = Workspace(args.workspace)
    endorser = ws.load_endorser(args.endorser)

    if args.kind == "enclave":
        if args.measurement:
            measurement = _digest_arg("--measurement", args.measurement)
        elif args.enclave_kind:
            ctx = _enclave(args, args.enclave_kind)
            measurement = ctx.measurement
        else:
            raise WorkspaceError("endorse enclave needs --enclave-kind or --measurement")
        if args.template:
            certification = read_canonical(args.template, partial(make_certification, endorser, measurement))
        elif args.att_type:
            certification = make_certification(endorser, measurement, builtin_template(args.att_type))
        else:
            raise WorkspaceError("endorse enclave needs --att-type or --template")

        store_path = ws.certification_store_file
        store = CertificationStore.read_unverified(store_path) if store_path.exists() else CertificationStore()
        store.add(certification)
        store.save(store_path)
        print(f"certified enclave {measurement.hex[:12]} -> {store_path}")
        return EXIT_OK

    subject = _digest_arg("subject", args.subject)
    claims = None if args.claims is None else read_canonical(args.claims, _claims)
    cert = make_external_certificate(endorser, subject, args.kind, args.name, claims)
    path = ws.certificates / f"{args.kind}-{subject.hex[:12]}.cert.json"
    _write_guarded(path, canonicalize(cert.to_json_value()), args.force)
    print(f"endorsed {args.kind} {subject.hex[:12]} as {args.name!r}")
    print(f"wrote {path}")
    return EXIT_OK


# --- bundle -------------------------------------------------------------------


def _bundle_member(value: Any) -> AttestationEnvelope | ExternalCertificate:
    """The envelope or external certificate of a file given to `lam bundle`."""
    if isinstance(value, dict) and "payload_b64" in value:
        return AttestationEnvelope.from_file_value(value)
    if isinstance(value, dict) and "subject_sha256" in value:
        return ExternalCertificate.from_json_value(value)
    raise LamError("not an envelope or external certificate")


def cmd_bundle(args: argparse.Namespace) -> int:
    members = [read_canonical(name, _bundle_member) for name in args.files]
    envelopes = [m for m in members if isinstance(m, AttestationEnvelope)]
    externals = [m for m in members if isinstance(m, ExternalCertificate)]
    bundle = AssertionBundle(envelopes=tuple(envelopes), external_certificates=tuple(externals))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    bundle.write(out)
    print(f"bundled {len(envelopes)} envelope(s) + {len(externals)} certificate(s) -> {out}")
    return EXIT_OK


# --- verify -------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    trust = read_canonical(args.roots, _trust)
    roots, endorser_keys = set(trust["manufacturer_roots"]), trust["endorser_keys"]

    store = CertificationStore.load(args.certstore, endorser_keys)
    bundle = AssertionBundle.read(args.bundle)
    result = verify_bundle(bundle, store, roots, endorser_keys)
    out_dir = Path(args.out)
    cards = [(out_dir / card.filename, card.yaml_bytes()) for card in result.cards]  # may raise: write nothing yet

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

    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "chain_report.json"
    report_path.write_bytes(result.report.canonical_bytes())
    print(f"wrote {report_path}")
    for path, text in cards:
        path.write_bytes(text)
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
