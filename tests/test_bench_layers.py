"""Smoke test of scripts/bench_layers.py: two sides on this src/ tree.

Each mode under test runs once per side untimed and once timed, on one
cheap command or case, and must write a record with the keys of the
checked-in BENCH_*.json of the same mode.
"""

import importlib.util
import json
import pathlib

import pytest

import lyapdisp

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = pathlib.Path(lyapdisp.__file__).resolve().parent.parent


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_layers", ROOT / "scripts" / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPEAT", 1)
    return module


def run(bench, tmp_path, *flags) -> dict:
    out = tmp_path / "bench.json"
    assert bench.main([f"a={SRC}", f"b={SRC}", *flags, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def first(mapping: dict):
    return next(iter(mapping.values()))


def test_default_mode(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "COMMANDS", (("catalog",),))
    report = run(bench, tmp_path)
    assert report["identical_outputs"] == {"catalog": True}
    checked_in = json.loads((ROOT / "BENCH_digitsum.json").read_text())
    assert report.keys() == checked_in.keys()
    assert first(report["sides"])["catalog"].keys() == \
        first(first(checked_in["sides"])).keys()


def test_lt_mode(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "LT_CASES", (("lt", "g1", 8, (1.0,)),))
    monkeypatch.setattr(bench, "LT_CALLS", 1)
    report = run(bench, tmp_path, "--lt")
    case = report["cases"]["lt g1 L=8 t=1.0"]
    assert case["identical_outcomes"]
    checked_in = json.loads((ROOT / "BENCH_lt.json").read_text())
    assert report.keys() == checked_in.keys()
    assert case.keys() == first(checked_in["cases"]).keys()
    assert first(case["sides"]).keys() == \
        first(first(checked_in["cases"])["sides"]).keys()
