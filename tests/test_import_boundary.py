"""The verifier side runs no model: `lam verify`, `lam bundle`, `lam endorse
enclave --enclave-kind` and `lam keygen` load neither numpy nor the ML engine
(`lam.engine`, and `lam.measurers`, which runs it). Only `lam attest` does.
Importing the CLI generates no record writer: each is generated on first write."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import _verify_args, cli_ws  # noqa: F401 (cli_ws is a fixture)

import lam

# Runs the commands given as JSON argument lists in one fresh interpreter,
# then prints the JSON list of the modules it must not have loaded.
_SCRIPT = """
import json, sys
from lam.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    assert code == 0, (argv, code)
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] == "numpy" or name == "lam.measurers" or name.startswith("lam.engine")
)))
"""


def test_verifier_side_commands_load_no_ml_engine(cli_ws, tmp_path):  # noqa: F811
    ws = cli_ws["ws"]
    envelopes = sorted(str(p) for p in (ws / "attestations").glob("*.envelope.json"))
    certificates = sorted(str(p) for p in (ws / "certificates").glob("*.cert.json"))
    commands = [
        ["keygen", "endorser", "--endorser-id", "acme", "--seed", "cli-end", "-w", str(tmp_path)],
        [
            "endorse", "enclave", "--endorser", "acme", "--enclave-kind", "metric", "--att-type", "AccAtt",
            "-w", str(tmp_path),
        ],
        ["bundle", *envelopes, *certificates, "--out", str(tmp_path / "bundle.json")],
        _verify_args(ws, tmp_path / "cards"),
    ]
    src = str(Path(lam.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(commands)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
    assert (tmp_path / "cards" / "chain_report.json").exists()
    assert (tmp_path / "bundle.json").read_bytes() == (ws / "bundle.json").read_bytes()


def test_importing_the_cli_generates_no_record_writer():
    script = "import lam.cli, lam.hashcore; print(lam.hashcore._writer.cache_info().currsize)"
    src = str(Path(lam.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=False
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"
