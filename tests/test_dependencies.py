"""The library needs numpy alone: importing it loads no scipy module."""

import os
import subprocess
import sys
from pathlib import Path

import hsqm

PROBE = """
import pkgutil, sys
import hsqm
for module in pkgutil.iter_modules(hsqm.__path__):
    __import__("hsqm." + module.name)
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
print(" ".join(loaded))
sys.exit(1 if loaded else 0)
"""


def test_import_loads_no_scipy():
    src = str(Path(hsqm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, f"scipy modules loaded: {proc.stdout.strip()} {proc.stderr.strip()}"
