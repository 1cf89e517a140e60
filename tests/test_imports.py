"""numpy is the only run-time dependency: importing the package or its
command line pulls in no scipy module."""

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
