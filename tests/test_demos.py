"""Byte-for-byte gate on the stdout of every script under demos/.

Each demo runs in-process with `runpy` and its stdout is compared with
tests/golden/demos/<name>.txt.  If a change is meant to move a demo's
output, regenerate the files from the repository root and review the
diff:

    for f in demos/*.py; do PYTHONPATH=src python "$f" > "tests/golden/demos/$(basename "$f" .py).txt"; done
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def test_every_demo_has_a_golden_file():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue().encode() == (GOLDEN / f"{demo.stem}.txt").read_bytes()
