"""Fixtures shared by several test modules."""

import importlib.util
import sys as interpreter
from pathlib import Path

import pytest


@pytest.fixture
def bench_workloads(monkeypatch):
    """``bench/workloads.py``, loaded by path without writing bytecode."""
    monkeypatch.setattr(interpreter, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(interpreter.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module
