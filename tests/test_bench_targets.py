"""The benchmark tracer's targets still exist in the package.

``bench/spans.py`` wraps package functions by (module, attribute) and
refuses to start when one is missing or bound nowhere in the package, so
a refactor under ``src/`` that renames or drops one breaks
``bench/run.py --trace 1``.  The tracer is loaded by path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans):
    for module, attr, _name in spans.TARGETS:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_tracer_installs_and_restores(spans):
    targets = [(importlib.import_module(m), attr) for m, attr, _name in spans.TARGETS]
    before = [getattr(owner, attr) for owner, attr in targets]
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in targets] == before
