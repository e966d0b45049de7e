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
