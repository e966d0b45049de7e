"""Byte-for-byte gate on the default CSV and JSON output of the CLI subcommands.

The files under tests/golden/ are the stdout of each subcommand at its
default settings, CSV in tests/golden/<command>.csv and JSON in
tests/golden/json/<command>.json.  A change that moves any printed digit
fails here; if the change is meant to move the output, regenerate the
files from the repository root and review the diff:

    PYTHONPATH=src python -c "from hsqm import cli; [cli.main([c, '--out', f'tests/golden/{c}.csv']) for c in 'spectrum husimi resolution kms modular commutant wigner kernel uncertainty'.split()]"
    for c in spectrum husimi resolution kms modular commutant wigner kernel uncertainty; do PYTHONPATH=src python -m hsqm.cli $c --format json > tests/golden/json/$c.json; done

The JSON files are taken from stdout, not ``--out``: the JSON ``config``
records ``out``.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from hsqm import cli

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ("spectrum", "husimi", "resolution", "kms", "modular", "commutant", "wigner", "kernel", "uncertainty")


@pytest.mark.parametrize("command", COMMANDS)
def test_default_output_matches_golden(command, tmp_path):
    out = tmp_path / f"{command}.csv"
    cli.main([command, "--out", str(out)])
    assert out.read_bytes() == (GOLDEN / f"{command}.csv").read_bytes()


@pytest.mark.parametrize("command", COMMANDS)
def test_default_json_matches_golden(command, capsys):
    cli.main([command, "--format", "json"])
    assert capsys.readouterr().out.encode() == (GOLDEN / "json" / f"{command}.json").read_bytes()


def _wigner_grid_cells():
    """(x, y, re_f, im_f) of every grid row of the CSV and JSON wigner goldens."""
    rows = list(csv.DictReader((GOLDEN / "wigner.csv").read_text().splitlines()))
    rows += json.loads((GOLDEN / "json" / "wigner.json").read_text())["rows"]
    return [tuple(float(r[k]) for k in ("x", "y", "re_f", "im_f")) for r in rows if r.get("re_f") not in (None, "")]


def test_wigner_golden_is_the_vacuum_gaussian():
    # W|0><0|(x, y) = exp(-(x^2 + y^2) / 4) / sqrt(2 pi), in ulp of the libm value
    cells = _wigner_grid_cells()
    assert len(cells) == 2 * 21 * 21
    for x, y, re_f, im_f in cells:
        exact = math.exp(-(x * x + y * y) / 4.0) / math.sqrt(2.0 * math.pi)
        assert abs(re_f - exact) <= 16 * math.ulp(exact)
        assert im_f == 0.0
