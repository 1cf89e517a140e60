"""The names the benchmark looks up in lipfree still exist.

``perfbench`` wraps lipfree functions at their module attributes and binds
some of their arguments by name; a renamed function or argument makes the
traced run die with ``AttributeError`` or ``KeyError``.  Its workloads also
call some functions directly, where a renamed argument would show only as
a raised job.  These tests only read ``perfbench/``.
"""

import ast
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


def test_direct_calls_bind(perfbench):
    """Every ``freenorm.``, ``generators.`` or ``decomposition.`` call that
    ``workloads.py`` makes itself names a function of that module, and its
    positional and keyword arguments bind to the function's signature."""
    from lipfree import decomposition, freenorm, generators
    modules = {"freenorm": freenorm, "generators": generators,
               "decomposition": decomposition}
    _, workloads = perfbench
    called = set()
    for node in ast.walk(ast.parse(Path(workloads.__file__).read_text())):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules):
            continue
        name = f"{node.func.value.id}.{node.func.attr}"
        fn = getattr(modules[node.func.value.id], node.func.attr, None)
        assert callable(fn), name
        assert not any(isinstance(a, ast.Starred) for a in node.args), name
        assert all(kw.arg for kw in node.keywords), name
        inspect.signature(fn).bind_partial(
            *node.args, **{kw.arg: kw.value for kw in node.keywords})
        called.add(name)
    assert {"freenorm.free_norm_p1", "freenorm.free_norm_exact_small",
            "decomposition.verify_pst_identity",
            "decomposition.unit_interval_cores", "generators.random_ball",
            "generators.annulus_rays"} <= called
