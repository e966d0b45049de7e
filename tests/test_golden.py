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
from fractions import Fraction
from pathlib import Path

import pytest

from hsqm import cli

GOLDEN = Path(__file__).parent / "golden"
REFERENCE = Path(__file__).parent / "reference"
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


_COMMUTANT_COLUMNS = ("span_dim", "commutant_dim", "double_commutant_dim", "factor")


def _wedderburn_counts(blocks):
    """The four commutant columns of the algebra ⊕_i M_{n_i} ⊗ I_{m_i}, from
    its blocks (n_i, m_i): the algebra spans sum n_i^2, its commutant
    ⊕_i I_{n_i} ⊗ M_{m_i} spans sum m_i^2, the double commutant is the
    algebra again, and the center has one dimension per block."""
    span = sum(n * n for n, _ in blocks)
    return span, sum(m * m for _, m in blocks), span, len(blocks) == 1


def _commutant_golden_cells():
    """((algebra, column), cell) of every row and contract cell of the CSV
    and JSON commutant goldens that reports one of the four columns; CSV
    cells parsed to bool or int."""
    names = {f"{alg}_{column}": (alg, column) for alg in ("left", "right") for column in _COMMUTANT_COLUMNS}
    doc = json.loads((GOLDEN / "json" / "commutant.json").read_text())
    text = csv.DictReader((GOLDEN / "commutant.csv").read_text().splitlines())
    cells = []
    for records, parse in ((doc["rows"] + doc["contracts"], lambda c: c), (text, _csv_int_or_bool)):
        for r in records:
            if r["kind"] == "row":
                cells += [((r["algebra"], column), parse(r[column])) for column in _COMMUTANT_COLUMNS]
            elif r["name"] in names:
                cells.append((names[r["name"]], parse(r["value"])))
    return cells


def _csv_int_or_bool(text):
    return text == "true" if text in ("true", "false") else int(text)


def test_commutant_golden_is_the_wedderburn_count():
    # at N = 4, X -> A X on B2(H_4) = C^4 ⊗ C^4 is M_4 ⊗ I_4, and X -> X B†
    # is I_4 ⊗ M_4: one block with (n, m) = (4, 4) each
    expect = {alg: dict(zip(_COMMUTANT_COLUMNS, _wedderburn_counts([(4, 4)]))) for alg in ("left", "right")}
    cells = _commutant_golden_cells()
    assert len(cells) == 2 * 2 * 2 * 4  # CSV and JSON, rows and contracts, two algebras, four columns
    for (alg, column), cell in cells:
        assert type(cell) is type(expect[alg][column]) and cell == expect[alg][column]


#: largest distance of a golden kernel cell from the 50-digit series, in
#: ulp of |K|; measured 3.20 (re_K) and 1.46 (im_K)
_KERNEL_ULPS = {"re_K": 4, "im_K": 2}


def test_kernel_golden_is_the_truncated_series():
    # K = sum_(m<24) (z conj(z'))^m / m! at each golden label pair, from
    # tests/reference/kernel_series.json (mpmath, 50 digits); compared as
    # exact fractions
    reference = json.loads((REFERENCE / "kernel_series.json").read_text())
    rows = [r for r in csv.DictReader((GOLDEN / "kernel.csv").read_text().splitlines()) if r["re_z"]]
    doc_rows = [r for r in json.loads((GOLDEN / "json" / "kernel.json").read_text())["rows"] if "re_z" in r]
    assert len(rows) == len(doc_rows) == len(reference) == 20
    for row, doc_row, ref in zip(rows, doc_rows, reference):
        assert [row["re_z"], row["im_z"], row["re_zp"], row["im_zp"]] == ref["z"] + ref["zp"]
        exact = dict(zip(("re_K", "im_K"), map(Fraction, ref["value"])))
        ulp = Fraction(math.ulp(math.hypot(*map(float, exact.values()))))
        for column, bound in _KERNEL_ULPS.items():
            for cell in (float(row[column]), doc_row[column]):
                assert abs(Fraction(cell) - exact[column]) <= bound * ulp, (column, ref["z"], ref["zp"])
