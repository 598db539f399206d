"""Every invocation of scripts/golden.py prints and writes what
tests/golden/manifest.json records, byte for byte.

A change that moves an output on purpose reruns the script, which
rewrites the manifest, and names each moved invocation in CHANGES.md.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location(
        "golden", ROOT / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_outputs_match_the_manifest(golden):
    text = golden.MANIFEST.read_text()
    recorded = json.loads(text)
    pinned = {key: recorded[key] for key in golden.versions()}
    if pinned != golden.versions():
        pytest.fail(f"the manifest was recorded under {pinned}, this is "
                    f"{golden.versions()}: printed floats may differ in the "
                    f"last digits between versions, so the hashes are not "
                    f"compared; rerun scripts/golden.py under this version "
                    f"and check what moved")
    current = golden.manifest()
    moved = [" ".join(new["argv"]) for old, new in
             zip(recorded["invocations"], current["invocations"]) if old != new]
    assert not moved, f"outputs moved: {moved}"
    assert golden.dumps(current) == text
