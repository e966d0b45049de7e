import argparse
import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsqm import cli, quadrature, thermal
from hsqm.fock import FockSpace
from hsqm.quadrature import QuadratureScheme
from block_oracle import classical_frame
from known_red import known_red_excess


def _run(tmp_path, argv, name="out.csv"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def _rows(raw):
    return list(csv.DictReader(raw.decode().splitlines()))


def test_spectrum_flat_degeneracy(tmp_path):
    code, raw = _run(tmp_path, ["spectrum", "--theta", "0", "--omega0", "0", "--N", "8"])
    assert code == 0
    rows = [r for r in _rows(raw) if r["kind"] == "row"]
    by_nplus = {}
    for r in rows:
        by_nplus.setdefault(r["n_plus"], set()).add(r["energy"])
    # flat sector: energy independent of n_minus
    assert all(len(v) == 1 for v in by_nplus.values())


def test_spectrum_json(tmp_path):
    code, raw = _run(tmp_path, ["spectrum", "--format", "json"], name="out.json")
    assert code == 0
    doc = json.loads(raw)
    assert doc["command"] == "spectrum"
    assert doc["ok"] is True
    assert len(doc["rows"]) == 64


def test_uncertainty_row(tmp_path):
    code, raw = _run(tmp_path, ["uncertainty", "--theta", "0.5", "--N", "8"])
    assert code == 0
    rows = {r["name"]: r["value"] for r in _rows(raw) if r["kind"] == "row"}
    assert float(rows["var_X"]) == pytest.approx(0.25, abs=1e-12)


def test_kms_contract_and_determinism(tmp_path):
    argv = ["kms", "--N", "10", "--beta", "1"]
    code1, raw1 = _run(tmp_path, argv, name="a.csv")
    code2, raw2 = _run(tmp_path, argv, name="b.csv")
    assert code1 == 0 and code2 == 0
    assert raw1 == raw2
    contracts = [r for r in _rows(raw1) if r["kind"] == "contract"]
    assert all(r["ok"] == "true" for r in contracts)
    residuals = [float(r["residual"]) for r in _rows(raw1) if r["kind"] == "row"]
    assert max(residuals) <= 1e-10
    assert len(residuals) == 100


def test_modular_contracts(tmp_path):
    code, raw = _run(tmp_path, ["modular", "--N", "10"])
    assert code == 0
    contracts = [r for r in _rows(raw) if r["kind"] == "contract"]
    assert contracts and all(r["ok"] == "true" for r in contracts)


def test_commutant_contracts(tmp_path):
    code, raw = _run(tmp_path, ["commutant"])
    assert code == 0
    contracts = [r for r in _rows(raw) if r["kind"] == "contract"]
    assert contracts and all(r["ok"] == "true" for r in contracts)


def test_commutant_n5(tmp_path):
    code, raw = _run(tmp_path, ["commutant", "--N", "5"])
    assert code == 0
    contracts = [r for r in _rows(raw) if r["kind"] == "contract"]
    assert contracts and all(r["ok"] == "true" for r in contracts)


def test_commutant_rejects_large_n(tmp_path, capsys):
    code = cli.main(["commutant", "--N", "8", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]


def test_modular_large_n(tmp_path):
    code, raw = _run(tmp_path, ["modular", "--N", "64", "--beta", "0.4"])
    assert code == 0
    rows = {r["name"]: r for r in _rows(raw) if r["kind"] == "row"}
    assert float(rows["polar_residual"]["value"]) == 0.0


def test_husimi_large_n(tmp_path):
    code, raw = _run(tmp_path, ["husimi", "--N", "64"])
    assert code == 0
    assert all(r["ok"] == "true" for r in _rows(raw) if r["kind"] == "contract")


_MIXED_ARGVS = (
    ["spectrum", "--N", "8"],
    ["husimi", "--N", "8", "--format", "json"],
    ["modular", "--N", "6", "--beta", "0.5"],
    ["kms", "--N", "5", "--omega", "1.5"],
    ["uncertainty", "--theta", "0.3", "--N", "8", "--format", "json"],
    ["spectrum"],
)


def _output(argv, out, capsys):
    """Exit status and bytes of one call, once to stdout and once to --out."""
    code = cli.main(argv)
    printed = capsys.readouterr().out.encode()
    assert cli.main(argv + ["--out", str(out)]) == code
    return code, printed, out.read_bytes()


def test_reused_parser_gives_fresh_call_bytes(tmp_path, capsys):
    out = tmp_path / "out.txt"
    fresh = []
    for argv in _MIXED_ARGVS:
        cli.build_parser.cache_clear()
        fresh.append(_output(argv, out, capsys))
    assert cli.build_parser() is cli.build_parser()
    assert [_output(argv, out, capsys) for argv in _MIXED_ARGVS] == fresh


def test_parser_survives_bad_argv(tmp_path, capsys):
    out = tmp_path / "out.txt"
    cli.build_parser.cache_clear()
    expected = _output(["modular", "--N", "6"], out, capsys)
    for bad in (["nope"], [], ["spectrum", "--N", "x"], ["husimi", "--format", "xml"], ["kms", "--help"]):
        with pytest.raises(SystemExit):
            cli.main(bad)
        capsys.readouterr()
        assert _output(["modular", "--N", "6"], out, capsys) == expected


def test_wigner_grid_and_contracts(tmp_path):
    code, raw = _run(tmp_path, ["wigner", "--N", "12"])
    assert code == 0
    rows = _rows(raw)
    grid = [r for r in rows if r["kind"] == "row" and r.get("x")]
    assert {"x", "y", "re_f", "im_f"} <= set(grid[0])
    contracts = [r for r in rows if r["kind"] == "contract"]
    assert all(r["ok"] == "true" for r in contracts)


def test_kernel_contracts(tmp_path):
    code, raw = _run(tmp_path, ["kernel", "--N", "32"])
    assert code == 0
    contracts = {r["name"]: r for r in _rows(raw) if r["kind"] == "contract"}
    assert contracts["kernel_max_abs_err"]["ok"] == "true"
    assert contracts["project_hol_max_err"]["ok"] == "true"


def test_husimi_grid(tmp_path):
    code, raw = _run(tmp_path, ["husimi", "--N", "8"])
    assert code == 0
    rows = [r for r in _rows(raw) if r["kind"] == "row"]
    grid = [r for r in rows if r["q"]]
    assert len(grid) == 41 * 41
    assert all(float(r["q"]) >= 0 for r in grid)
    # the partition functions of the two sectors follow the grid
    assert [r["name"] for r in rows[len(grid):]] == ["partition_plus", "partition_minus"]


def test_resolution_reports_defect_honestly(tmp_path):
    # the identity-form residual cannot meet its contract (the family
    # resolves the Gibbs-weighted frame operator); exit code 1 with both
    # residuals reported, and each identity row at the Gibbs weight gap
    # 1 - lambda_{N//4} to within the frame residual
    for n in (12, 24):
        code, raw = _run(tmp_path, ["resolution", "--N", str(n)])
        assert code == 1
        rows = {r["name"]: r for r in _rows(raw) if r["kind"] == "row"}
        assert all(excess <= 0.0 for excess in known_red_excess(raw, n).values())
        assert float(rows["hiho_frame_residual"]["value"]) <= 1e-5
        assert float(rows["xaxa_frame_residual"]["value"]) <= 1e-5
        assert float(rows["resolv_residual"]["value"]) <= 1e-5


def test_resolution_triangle_bound_at_n8(tmp_path):
    # resolv_residual prints the triangle bound r (1 + r) + r of the
    # sector deviation r at every N.  At N = 8 (N^4 = 4096) the exact
    # four-index deviation is still cheap to form; the bound may not
    # undercut it
    code, raw = _run(tmp_path, ["resolution", "--N", "8"])
    assert code == 1  # the unweighted identity rows stay red
    rows = {r["name"]: r for r in _rows(raw) if r["kind"] == "row"}
    value = float(rows["resolv_residual"]["value"])
    assert value <= 1e-5
    sp = FockSpace(8)
    keep = np.arange(8 // 4 + 1)
    p, e = classical_frame(sp, QuadratureScheme(8))[:, keep], np.eye(8)[:, keep]
    sector, eye = np.kron(p, p), np.kron(e, e)
    exact = float(np.linalg.norm(np.kron(sector, sector) - np.kron(eye, eye), 2))
    assert exact <= value * (1.0 + 1e-14)


def _count_stacks(monkeypatch):
    """Dims of every radial stack the scheme builds, and of every displacement stack."""
    calls = {"radial": [], "displacement": []}
    radial, displacement = QuadratureScheme._radial_stack, quadrature.displacement_stack

    def counted_radial(self, space):
        calls["radial"].append(space.dim)
        return radial(self, space)

    def counted_displacement(space, alphas):
        calls["displacement"].append(space.dim)
        return displacement(space, alphas)

    monkeypatch.setattr(QuadratureScheme, "_radial_stack", counted_radial)
    monkeypatch.setattr(quadrature, "displacement_stack", counted_displacement)
    monkeypatch.setattr(thermal, "displacement_stack", counted_displacement)
    return calls


def test_resolution_builds_no_stack(tmp_path, monkeypatch):
    # the residuals take the magnitudes of their charge diagonals alone:
    # no radial stack, no displacement stack
    calls = _count_stacks(monkeypatch)
    code, _ = _run(tmp_path, ["resolution", "--N", "8"])
    assert code == 1
    assert calls == {"radial": [], "displacement": []}


def test_wigner_builds_one_stack(tmp_path, monkeypatch):
    # both round trips read the scheme's one stack; the N/2 unitarity Gram
    # reads the charge diagonals, no stack
    calls = _count_stacks(monkeypatch)
    code, _ = _run(tmp_path, ["wigner", "--N", "16"])
    assert code == 0
    assert calls == {"radial": [16, 16], "displacement": [16]}


@pytest.mark.parametrize("command, limit", [("resolution", 64e6), ("wigner", 260e6)])
def test_phase_plane_memory_at_n128(command, limit, tmp_path):
    # tracemalloc peaks at N = 128: 57.6 MB (resolution) and 199 MB
    # (wigner) measured.  An N^2-row block of the thermal frame, or the
    # (N/2)^2 x (N/2)^2 unitarity Gram (134 MB alone), crosses the limit
    tracemalloc.start()
    try:
        _run(tmp_path, [command, "--N", "128"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


def test_invalid_config(tmp_path, capsys):
    code = cli.main(["spectrum", "--N", "2", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]

    code = cli.main(["husimi", "--theta", "1.0", "--omega0", "0", "--out", str(tmp_path / "y.csv")])
    assert code == 2  # discriminant <= 0


def test_wigner_large_n(tmp_path):
    # the W-images of |0><0| and |1><2| are evaluated on their one-entry
    # supports, so N=64 (K = 32 896 nodes) stays cheap
    code, raw = _run(tmp_path, ["wigner", "--N", "64"])
    assert code == 0
    contracts = {r["name"]: float(r["value"]) for r in _rows(raw) if r["kind"] == "contract"}
    assert set(contracts) == {"roundtrip_residual_00", "roundtrip_residual_12", "unitarity_gram_max_dev"}
    assert max(contracts.values()) <= 1e-12


@pytest.mark.parametrize("flag", ["--theta", "--omega-c"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_landau_parameter_is_invalid(flag, value, capsys):
    assert cli.main(["spectrum", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "must be finite" in json.loads(line)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--omega-c", "1e200"],
        ["spectrum", "--omega0", "1e200"],
        ["spectrum", "--hbar", "1e-300"],
        ["husimi", "--omega-c", "1e200"],
        ["uncertainty", "--hbar", "1e200"],
        ["uncertainty", "--theta", "1e-300"],
        ["uncertainty", "--theta", "1e200"],
        ["spectrum", "--hbar", "1e307"],
    ],
)
def test_overflowing_landau_parameter_is_invalid(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)
    assert error["command"] == argv[0] and "double precision" in error["error"]


def test_unwritable_out_is_invalid(tmp_path, capsys):
    code = cli.main(["spectrum", "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["command"] == "spectrum" and "missing" in error["error"]
    assert not (tmp_path / "missing").exists()


def test_csv_writer_cells():
    blocks = [
        {"a": [-0.0, math.nan, math.inf, 1e-300], "b": [True, 3, None, 0.5]},
        {"b": [False], "c": ["text"]},
    ]
    contracts = [("int", 3, 3, True), ("bool", True, True, True), ("float", 2.5, 1e-12, False)]
    out = io.StringIO()
    cli._write_csv(blocks, contracts, out)
    assert out.getvalue() == (
        "kind,a,b,c,name,value,threshold,ok\n"
        "row,-0,true,,,,,\n"
        "row,nan,3,,,,,\n"
        "row,inf,,,,,,\n"
        "row,1e-300,0.5,,,,,\n"
        "row,,false,text,,,,\n"
        "contract,,,,int,3,3,true\n"
        "contract,,,,bool,true,true,true\n"
        "contract,,,,float,2.5,9.9999999999999998e-13,false\n"
    )


_SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -2.225073858507201e-308]


@st.composite
def _float_columns(draw):
    # picks from a small pool, so values repeat; a pick copied by * 1.0 is
    # an equal value in a distinct object
    pool = draw(st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)), min_size=1, max_size=8))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), max_size=64))
    return [v * 1.0 if copy else v for v, copy in picks]


@settings(max_examples=300, deadline=None)
@given(_float_columns())
@example([0.0] * 441)  # the im_f column of wigner
@example([0.0, -0.0, -0.0, 0.0])
def test_format_column_spells_floats_as_format(values):
    assert cli._format_column(values) == [format(v, ".17g") for v in values]


def test_json_writer_omits_absent_cells():
    blocks = [{"name": ["mean", "var"], "value": [0.0, 0.25], "expected": [None, 0.25]}]
    out = io.StringIO()
    cli._write_json("x", {}, blocks, [("var", 0.0, 1e-12, True)], True, out)
    doc = json.loads(out.getvalue())
    assert doc["rows"] == [
        {"kind": "row", "name": "mean", "value": 0.0},
        {"kind": "row", "name": "var", "value": 0.25, "expected": 0.25},
    ]
    assert doc["contracts"] == [{"kind": "contract", "name": "var", "value": 0.0, "threshold": 1e-12, "ok": True}]


def _accepted_flags(command):
    """Every flag the subcommand's parser accepts, --help aside."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [a.option_strings[0] for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"]


#: a second valid value of each valued flag
_CHANGED = {
    "--format": "json", "--omega": "1.25", "--beta": "1.25", "--theta": "0.125", "--omega0": "1.25",
    "--omega-c": "2.5", "--mass": "1.25", "--hbar": "1.25",
}
#: accepted but unread: the benchmark passes these flags to these subcommands,
#: so they stay until benchmarks/workloads.py stops passing them
_PINNED = {
    ("spectrum", "--N"),  # benchmarks/workloads.py cli_task passes --N; the energy grid is a fixed 8 x 8
    ("uncertainty", "--N"),  # benchmarks/workloads.py cli_task passes --N; the vacuum table does not depend on N
    ("uncertainty", "--mass"),  # benchmarks/workloads.py _landau_params; LandauParams validates it, nothing reads it
    ("uncertainty", "--omega0"),  # benchmarks/workloads.py _landau_params; validated only
    ("uncertainty", "--omega-c"),  # benchmarks/workloads.py _landau_params; validated only
}


def test_accepted_flag_pairs_only_fall():
    # the (subcommand, flag) pairs the parser accepts, --help aside: this
    # number may only fall; lower it when a flag goes
    assert sum(len(_accepted_flags(command)) for command in cli._COMMANDS) == 49


def _flag_change(flag, n, out):
    """The extra argv of a base run and of the run with ``flag`` changed."""
    if flag == "--N":
        return [], ["--N", str(n + 1)]
    if flag == "--out":  # the table leaves stdout
        return [], ["--out", str(out)]
    return [], [flag, _CHANGED[flag]]


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_accepted_flag_changes_the_run(command, tmp_path, capsys):
    # a flag that moves neither stdout nor the exit code is a setting the
    # subcommand does not read, and the JSON config would echo it
    n = 4 if command == "commutant" else 8
    runs = {}

    def run(extra):
        if tuple(extra) not in runs:
            runs[tuple(extra)] = cli.main([command, "--N", str(n), *extra]), capsys.readouterr().out
        return runs[tuple(extra)]

    dead = set()
    for flag in _accepted_flags(command):
        base, changed = _flag_change(flag, n, tmp_path / "out.csv")
        if run(base) == run(changed):
            dead.add((command, flag))
    assert dead == {pair for pair in _PINNED if pair[0] == command}
