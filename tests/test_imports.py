"""numpy is the only run-time dependency: importing the package or its
command line pulls in no scipy module.  Every module but ``__init__`` uses
each name it imports, every function reads each parameter it takes, and the
number of public options does not grow unnoticed."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import lipfree

SRC = Path(__file__).resolve().parent.parent / "src"

CHECK = """
import sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import lipfree
assert not scipy_modules(), scipy_modules()[:5]
import lipfree.cli
assert not scipy_modules(), scipy_modules()[:5]
"""


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHECK], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _unused_imports(path):
    """Names bound by an import in ``path`` that no expression reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_imported_name_is_used():
    unused = {path.name: _unused_imports(path)
              for path in sorted((SRC / "lipfree").glob("*.py"))
              if path.name != "__init__.py"}
    assert "metric.py" in unused
    assert not {name: names for name, names in unused.items() if names}


def _unused_parameters(path):
    """(function, parameter) pairs in ``path`` where the body never reads
    the parameter."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                 + [a for a in (args.vararg, args.kwarg) if a]]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        found.extend((getattr(node, "name", "<lambda>"), name)
                     for name in names if name not in read | {"self", "cls"})
    return found


def test_every_parameter_is_read():
    unused = {path.name: _unused_parameters(path)
              for path in sorted((SRC / "lipfree").glob("*.py"))}
    assert not {name: pairs for name, pairs in unused.items() if pairs}


# Public parameters with defaults over src/lipfree.  A change that adds an
# option raises this number and says why in CHANGES.md.
OPTIONS_RECORDED = 83


def _options(obj):
    """Parameters with defaults of a function, or of the constructor and
    public methods that a class defines itself."""
    funcs = [obj]
    if inspect.isclass(obj):
        funcs = [getattr(f, "__func__", f) for name, f in vars(obj).items()
                 if (name == "__init__" or not name.startswith("_")) and (
                     inspect.isfunction(f)
                     or isinstance(f, (classmethod, staticmethod)))]
    return sum(p.default is not p.empty
               for f in funcs for p in inspect.signature(f).parameters.values())


def test_option_count_does_not_rise():
    count = 0
    for info in pkgutil.iter_modules(lipfree.__path__):
        module = importlib.import_module(f"lipfree.{info.name}")
        count += sum(_options(obj) for name, obj in vars(module).items()
                     if not name.startswith("_")
                     and (inspect.isfunction(obj) or inspect.isclass(obj))
                     and obj.__module__ == module.__name__)
    assert count <= OPTIONS_RECORDED, (
        f"{count} public options, {OPTIONS_RECORDED} recorded")
