"""numpy is the only run-time dependency: importing the package or its
command line pulls in no scipy module.  Every module but ``__init__`` uses
each name it imports, every function reads each parameter it takes, the
number of public options does not grow unnoticed, and no public function
or class that only tests call, nor any dataclass field that nothing reads,
is left short of a recorded reason."""

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
PERFBENCH = SRC.parent / "perfbench"

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


def _dataclass_fields(path):
    """(class, field) pairs of the dataclasses defined in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef) and any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list):
            found.extend((node.name, stmt.target.id) for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign))
    return found


# Dataclass fields of src/lipfree that nothing reads, each with its reason.
# A change may drop an entry, once the field gains a reader or goes, but
# adds none.
UNREAD_FIELDS = (
    ("ReverseIdentityReport", "measured_E",
     "the measured constant of the radial clamps E_n, awaiting the E o T o P "
     "record (ROADMAP item 5)"),
)


def test_every_dataclass_field_is_read():
    """Every dataclass field of src/lipfree is read, by name, by some
    attribute access in the package, the benchmark, the tests or the
    demos."""
    read = set()
    for folder in (SRC / "lipfree", PERFBENCH, SRC.parent / "tests",
                   SRC.parent / "demos"):
        for path in folder.glob("*.py"):
            read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load))
    fields = [pair for path in sorted((SRC / "lipfree").glob("*.py"))
              for pair in _dataclass_fields(path)]
    assert ("FreeNormResult", "representation") in fields
    unread = sorted((cls, name) for cls, name in fields if name not in read)
    assert unread == sorted((cls, name) for cls, name, _ in UNREAD_FIELDS)


# Public parameters with defaults over src/lipfree.  A change that adds an
# option raises this number and says why in CHANGES.md.
OPTIONS_RECORDED = 80


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


def _verdict_members(path):
    """(class, member) pairs in ``path`` where a class defines a field,
    method or property named ``passed`` or ``all_passed``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.AnnAssign):
                names = [getattr(stmt.target, "id", None)]
            elif isinstance(stmt, ast.Assign):
                names = [getattr(t, "id", None) for t in stmt.targets]
            else:
                names = []
            found.extend((node.name, name) for name in names
                         if name in ("passed", "all_passed"))
    return found


def test_no_class_carries_a_verdict():
    """Pass flags are decided only by ``metric.passes`` from a measured
    value and its bound or tol; reports carry the numbers."""
    found = {path.name: _verdict_members(path)
             for path in sorted((SRC / "lipfree").glob("*.py"))}
    assert not {name: pairs for name, pairs in found.items() if pairs}


# Public functions and classes of src/lipfree that nothing in the package
# (outside ``__init__``) or in perfbench/ refers to, each with its reason.
# A change may drop an entry, once the name gains a caller or goes, but
# adds none.
ONLY_TESTS_CALL = (
    ("verify_etp_identity", "E o T o P identity, awaiting a suite record "
                            "(ROADMAP item 5)"),
    ("outward_amenability_map", "outward map with bound 3^{1/p}, awaiting a "
                                "suite record (ROADMAP item 5)"),
    ("two_band_cores", "the two-set sphere split of the proof, checked by "
                       "tests only"),
    ("line_space", "public constructor that tests and demos use"),
    ("snowflake", "public constructor that tests use"),
)


def test_no_public_name_only_tests_call():
    defined = [node.name
               for path in sorted((SRC / "lipfree").glob("*.py"))
               if path.name != "__init__.py"
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    referenced = set()
    for path in [*(SRC / "lipfree").glob("*.py"), *PERFBENCH.glob("*.py")]:
        if path != SRC / "lipfree" / "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    assert "verify_pst_identity" in defined
    uncalled = sorted(set(defined) - referenced)
    assert uncalled == sorted(name for name, _ in ONLY_TESTS_CALL)
