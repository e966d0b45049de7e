"""Contracts that can fail: each CLI contract turns red under a plausible bug.

A row is (name, target, attribute, replacement, argv, the contracts that
must read ``ok = false``).  The mutant is the monkeypatch of that
attribute for one in-process ``cli.main`` call; the run must exit 1 with
every named contract red, where the unpatched run holds them.
"""

import csv

import pytest

from hsqm import cli, modular

_FROM_THERMAL = modular.ModularData.from_thermal


def _energies_scaled(space, spec):
    # the flow runs on energies 1 % off the ones the density was built from
    md = _FROM_THERMAL(space, spec)
    md._ham_evals = md._ham_evals * 1.01
    return md


def _beta_scaled(space, spec):
    # the flow is continued to t + 1.01 i beta
    md = _FROM_THERMAL(space, spec)
    md.beta = md.beta * 1.01
    return md


MUTANTS = [
    ("kms-energies-x1.01", modular.ModularData, "from_thermal", staticmethod(_energies_scaled),
     ["kms", "--N", "16"], ["kms_max_residual"]),
    ("kms-beta-x1.01", modular.ModularData, "from_thermal", staticmethod(_beta_scaled),
     ["kms", "--N", "16"], ["kms_max_residual"]),
]


def _contracts(path):
    rows = csv.DictReader(path.read_text().splitlines())
    return {r["name"]: r["ok"] for r in rows if r["kind"] == "contract"}


@pytest.mark.parametrize("name, target, attr, replacement, argv, red", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_contract_turns_red_under_mutant(name, target, attr, replacement, argv, red, tmp_path, monkeypatch):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert all(_contracts(out)[c] == "true" for c in red)
    monkeypatch.setattr(target, attr, replacement)
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert all(_contracts(out)[c] == "false" for c in red)


def test_kms_calls_residual_once_per_pair(tmp_path, monkeypatch):
    calls = []
    original = modular.kms_residual

    def counted(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(modular, "kms_residual", counted)
    assert cli.main(["kms", "--N", "8", "--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == 20
    assert all(tuple(times) == (-1.0, -0.5, 0.0, 0.5, 1.0) for times in calls)
