"""The package runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import multider

# numpy, sympy and gmpy2 are blocked: importing any of them raises ImportError
SCRIPT = """
import sys
for name in ("numpy", "sympy", "gmpy2"):
    sys.modules[name] = None
import multider.cli
from multider.coxeter import build_system, catalog_entries
catalog_entries()
for m in range(3, 17):
    build_system("I2", 2, m)
sys.exit(multider.cli.main(["basis", "I2(5)", "--m", "2"]))
"""


def test_stdlib_only():
    src = str(Path(multider.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("system I2(5): rank 2")
