"""numpy is the only run-time dependency: importing the package or its
command line pulls in no scipy module.  Every module but ``__init__`` uses
each name it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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
