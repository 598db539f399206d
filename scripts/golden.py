"""Golden CLI outputs: what each of a fixed set of cheap `lyapdisp`
invocations prints and writes, pinned by SHA-1.

    PYTHONPATH=src python3 scripts/golden.py

runs every invocation of INVOCATIONS in this process through
`lyapdisp.cli.main` and rewrites tests/golden/manifest.json with, per
invocation, its exit code and the SHA-1 of its stdout, of its stderr and
of each file it wrote.  It prints the invocations whose record changed.
tests/test_golden.py runs the same invocations and compares them with the
manifest.  In an argument, {out} is a fresh temporary directory per
invocation, whose files are the ones recorded, and {golden} is
tests/golden/; both paths read as those placeholders in what is hashed.

Floats print at 17 significant digits, so a change of Python or numpy
(libm, summation order) can move a hash without any change here.  The
manifest records both versions, and the test refuses to compare hashes
made under others.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import sys
import tempfile
from unittest import mock

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
MANIFEST = GOLDEN / "manifest.json"
FAMILIES = ("g1", "g2", "g3", "h3", "g4", "h4", "g5", "g6")
# shallow scans, or one thread, so that no scan starts the fork pool
INVOCATIONS = (
    ("catalog",),
    ("catalog", "--json", "{out}/catalog.json"),
    *(("exponents", "--family", name, "--max-len", "12") for name in FAMILIES),
    ("exponents", "--family", "h4", "--max-len", "16", "--t", "-0.5", "--t",
     "0.5", "--json", "{out}/exponents.json", "--csv", "{out}/partials.csv"),
    ("exponents", "--family", "h4", "--max-len", "14", "--t", "-1", "--t", "2"),
    ("exponents", "--family", "@{golden}/h4-diag.json", "--max-len", "12"),
    ("exponents", "--family", "nosuch"),
    ("exponents", "--family", "g2", "--max-len", "8", "--t", "-inf"),
    ("lt", "--family", "g1", "--t", "2"),
    ("lt", "--family", "g3", "--t", "0.5", "--max-len", "16"),
    # known failures: h3's L(2) at the benchmark depth, and on g1 a large t
    # truncates badly and a larger one overflows
    ("lt", "--family", "h3", "--t", "2", "--max-len", "30", "--threads", "1"),
    ("lt", "--family", "g1", "--t", "20"),
    ("lt", "--family", "g1", "--t", "30"),
    ("lt", "--family", "g1", "--t", "2", "--tol", "nan"),
    ("replica", "--family", "g2", "--t", "2"),
    ("replica", "--family", "h4", "--t", "3"),
    ("simulate", "--family", "g1", "--k", "16", "--trials", "200",
     "--csv", "{out}/sim.csv"),
    ("simulate", "--family", "h4", "--k", "32", "--trials", "100", "--t", "2"),
    ("regroup-check", "--t", "0", "--t", "1"),
    ("phi", "--jmax", "12", "--samples", "64", "--csv", "{out}/phi.csv",
     "--density-csv", "{out}/phi-density.csv"),
    ("psi", "--jmax", "12", "--samples", "64", "--json", "{out}/psi.json"),
    ("psi", "--jmax", "39"),
    ("dispersion", "--family", "g2", "--jmax", "14", "--csv", "{out}/disp.csv"),
    ("dispersion", "--family", "h4", "--jmax", "12"),
    ("dispersion", "--family", "g5", "--jmax", "31"),
    ("digits", "--j", "14", "--samples", "5000"),
    ("digits", "--a", "5", "--b", "2", "--j", "20", "--samples", "1000",
     "--seed", "7", "--json", "{out}/digits.json"),
    ("digits", "--a", "1", "--b", "0", "--j", "10", "--samples", "100"),
    ("digits", "--j", "0", "--samples", "100"),
    ("digits", "--j", "12", "--samples", "0"),
    ("digits", "--a", "100003", "--b", "0", "--j", "48", "--samples", "1000"),
    ("fit", "--family", "g3", "--ncheck", "512"),
    ("fit", "--family", "h4"),
    ("fit", "--family", "g2", "--ncheck", "300000"),
    ("verify", "--family", "g1"),
    ("verify", "--family", "g2", "--max-len", "10"),
    ("nosuchcommand",),
    ("exponents",),
)


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def run(argv) -> dict:
    """{"argv", "exit", "stdout", "stderr", "files"} of one invocation."""
    from lyapdisp import cli

    with tempfile.TemporaryDirectory() as out:
        paths = {out: "{out}", str(GOLDEN): "{golden}"}
        stdout, stderr = io.StringIO(), io.StringIO()
        # argparse wraps its usage lines to the width COLUMNS gives
        with (mock.patch.dict(os.environ, COLUMNS="80"),
              contextlib.redirect_stdout(stdout),
              contextlib.redirect_stderr(stderr)):
            try:
                code = cli.main([arg.format(out=out, golden=GOLDEN)
                                 for arg in argv])
            except SystemExit as exc:
                code = exc.code

        def digest(text: str) -> str:
            for path, placeholder in paths.items():
                text = text.replace(path, placeholder)
            return sha1(text.encode())

        return {
            "argv": list(argv),
            "exit": code,
            "stdout": digest(stdout.getvalue()),
            "stderr": digest(stderr.getvalue()),
            "files": {name: sha1((pathlib.Path(out) / name).read_bytes())
                      for name in sorted(os.listdir(out))},
        }


def manifest() -> dict:
    return dict(versions(), invocations=[run(argv) for argv in INVOCATIONS])


def dumps(record: dict) -> str:
    """The manifest's text: one invocation per line."""
    rows = ",\n".join(f"  {json.dumps(row, sort_keys=True)}"
                      for row in record["invocations"])
    head = json.dumps({k: v for k, v in record.items() if k != "invocations"},
                      sort_keys=True)[1:-1]
    return f'{{{head},\n "invocations": [\n{rows}\n ]\n}}\n'


def main() -> int:
    new = manifest()
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    before = {json.dumps(row["argv"]): row for row in old.get("invocations", ())}
    for row in new["invocations"]:
        if before.get(json.dumps(row["argv"])) != row:
            print(" ".join(row["argv"]))
    MANIFEST.write_text(dumps(new))
    return 0


if __name__ == "__main__":
    sys.exit(main())
