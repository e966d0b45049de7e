import csv
import io
import json
import math

import pytest

from hsqm import cli
from hsqm.quadrature import QuadratureScheme


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
    assert len(rows) == 41 * 41
    assert all(float(r["q"]) >= 0 for r in rows)


def test_resolution_reports_defect_honestly(tmp_path):
    # the identity-form residual cannot meet its contract (the family
    # resolves the Gibbs-weighted frame operator); exit code 1 with both
    # residuals reported
    code, raw = _run(tmp_path, ["resolution", "--N", "12"])
    assert code == 1
    rows = {r["name"]: r for r in _rows(raw) if r["kind"] == "row"}
    assert float(rows["hiho_identity_residual"]["value"]) > 0.1
    assert float(rows["hiho_frame_residual"]["value"]) <= 1e-5
    assert float(rows["xaxa_frame_residual"]["value"]) <= 1e-5
    assert float(rows["resolv_residual"]["value"]) <= 1e-5


def test_resolution_exact_tensor_branch_at_n8(tmp_path):
    # N = 8 is the largest space whose two-sector residual is computed
    # exactly (N^4 = 4096) rather than by the triangle bound
    code, raw = _run(tmp_path, ["resolution", "--N", "8"])
    assert code == 1  # the unweighted identity rows stay red
    rows = {r["name"]: r for r in _rows(raw) if r["kind"] == "row"}
    assert float(rows["resolv_residual"]["value"]) <= 1e-5


def test_resolution_builds_two_radial_stacks(tmp_path, monkeypatch):
    # one stack per residual: the mirror's rows come from the family's
    # residuals, so the stack is not built again for |-z>
    calls = []
    build = QuadratureScheme._radial_stack

    def counted(self, space):
        calls.append(space.dim)
        return build(self, space)

    monkeypatch.setattr(QuadratureScheme, "_radial_stack", counted)
    code, _ = _run(tmp_path, ["resolution", "--N", "8"])
    assert code == 1
    assert 1 <= len(calls) <= 2


def test_invalid_config(tmp_path, capsys):
    code = cli.main(["spectrum", "--N", "2", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"]

    code = cli.main(["husimi", "--theta", "1.0", "--omega0", "0", "--out", str(tmp_path / "y.csv")])
    assert code == 2  # discriminant <= 0


def test_small_quadrature_guard(tmp_path, capsys):
    code = cli.main(["wigner", "--N", "12", "--radial-nodes", "4", "--out", str(tmp_path / "w.csv")])
    assert code == 2
    # with --allow-small the run proceeds (contracts may or may not hold)
    code2 = cli.main(
        ["wigner", "--N", "12", "--radial-nodes", "24", "--angular-nodes", "25", "--allow-small", "--out", str(tmp_path / "w2.csv")]
    )
    assert code2 in (0, 1)


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
