"""The names the benchmark looks up in lipfree still exist.

``perfbench`` wraps lipfree functions at their module attributes and binds
some of their arguments by name; a renamed function or argument makes the
traced run die with ``AttributeError`` or ``KeyError``.  These tests only
read ``perfbench/``.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import lipfree.suites

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read only
    return (importlib.import_module("tracing"),
            importlib.import_module("workloads"))


def test_patch_points_resolve(perfbench):
    tracing, _ = perfbench
    for module, attr, _ in tracing.PATCH_POINTS:
        assert callable(getattr(importlib.import_module(module), attr)), \
            f"{module}.{attr}"


def test_captured_names_resolve_on_suites(perfbench):
    _, workloads = perfbench
    for name in workloads.CAPTURED:
        assert callable(getattr(lipfree.suites, name)), name


def test_bound_argument_names(perfbench):
    from lipfree import decomposition, extension, freenorm

    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert "family" in params(decomposition.measure_map_into_sum)
    assert {"space", "measure"} <= params(extension.doubling_extension_map)
    assert {"space", "vec", "p", "prefer", "exact_limit", "certify"} <= \
        params(freenorm.norm_value)
