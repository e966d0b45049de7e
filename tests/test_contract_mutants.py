"""Contracts that can fail: each CLI contract turns red under a plausible bug.

A row is (name, target, attribute, replacement, argv, the contracts that
must read ``ok = false``).  The mutant is the monkeypatch of that
attribute for one in-process ``cli.main`` call; the run must exit 1 with
every named contract red, where the unpatched run holds them.  The rows
of ``FLOW_MUTANTS`` patch ``ModularData.rho_power`` instead and require
the library-level flow-direction check (``flow_rotation``) to fail.
"""

import csv

import numpy as np
import pytest

from hsqm import cli, commutant, hs_space, modular, quadrature, thermal
from hsqm.fock import FockSpace
from flow_rotation import SPECS, TOL, flow_rotation_deviation
from known_red import known_red_excess

_FROM_THERMAL = modular.ModularData.from_thermal
_LAGUERRE_RULE = quadrature._laguerre_rule
_RHO_POWER = modular.ModularData.rho_power
_DELTA_POWER = modular.delta_power
_RESOLUTION_OPERATOR = thermal.resolution_operator
_CHARGE_DIAGONALS = quadrature.QuadratureScheme._charge_diagonals


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


def _ring0_weight_scaled(radial_count):
    # the innermost ring of the radial rule carries 1 % too much weight;
    # the cached rule itself is read-only and left as it is
    t, ring = _LAGUERRE_RULE(radial_count)
    ring = ring.copy()
    ring[0] *= 1.01
    return t, ring


def _delta_exponent_scaled(md, s):
    # J Delta^(1.01/2) in place of J Delta^(1/2); the flow contracts call
    # delta_power too, but a group at a 1 % faster rate still holds them
    return _DELTA_POWER(md, 1.01 * s)


def _layout_column_major(space, spec, scheme):
    # the charge layout read column-major, |n><m| for |m><n|: the blocks keep
    # their entries, but each reference weight is read at charge -c
    blocks, charges = _RESOLUTION_OPERATOR(space, spec, scheme)
    return blocks, -charges


def _diagonals_unmasked(scheme, space, count):
    # the charge diagonals with the truncation mask dropped: the entries
    # p + k >= N, off the N x N matrix, keep their magnitudes h_p^k (the
    # same bits as the diagonals of a space of N + count levels)
    return _CHARGE_DIAGONALS(scheme, FockSpace(space.dim + count), count)[:, : space.dim]


def _image_rank_no_cutoff(alg, phi):
    # every singular value above 0 counts, rounding noise included
    cols = np.column_stack([g @ np.asarray(phi, dtype=complex) for g in alg.basis])
    return int(np.sum(np.linalg.svd(cols, compute_uv=False) > 0))


MUTANTS = [
    ("kms-energies-x1.01", modular.ModularData, "from_thermal", staticmethod(_energies_scaled),
     ["kms", "--N", "16"], ["kms_max_residual"]),
    ("kms-beta-x1.01", modular.ModularData, "from_thermal", staticmethod(_beta_scaled),
     ["kms", "--N", "16"], ["kms_max_residual"]),
    ("wigner-ring0-weight-x1.01", quadrature, "_laguerre_rule", _ring0_weight_scaled,
     ["wigner", "--N", "16"], ["roundtrip_residual_00", "roundtrip_residual_12", "unitarity_gram_max_dev"]),
    ("kernel-ring0-weight-x1.01", quadrature, "_laguerre_rule", _ring0_weight_scaled,
     ["kernel", "--N", "20"], ["project_hol_max_err"]),
    ("husimi-ring0-weight-x1.01", quadrature, "_laguerre_rule", _ring0_weight_scaled,
     ["husimi", "--N", "16"], ["husimi_trace_residual"]),
    ("resolution-ring0-weight-x1.01", quadrature, "_laguerre_rule", _ring0_weight_scaled,
     ["resolution", "--N", "16"], ["hiho_frame_residual", "xaxa_frame_residual", "resolv_residual"]),
    ("resolution-layout-column-major", thermal, "resolution_operator", _layout_column_major,
     ["resolution", "--N", "16"], ["hiho_frame_residual", "xaxa_frame_residual"]),
    ("wigner-diagonals-unmasked", quadrature.QuadratureScheme, "_charge_diagonals", _diagonals_unmasked,
     ["wigner", "--N", "16"], ["unitarity_gram_max_dev"]),
    ("polar-delta-exponent-x1.01", modular, "delta_power", _delta_exponent_scaled,
     ["modular", "--N", "16"], ["polar_residual"]),
    ("commutant-image-rank-no-cutoff", commutant, "_image_rank", _image_rank_no_cutoff,
     ["commutant", "--N", "4"], ["left_zero_weight_cyclic", "left_zero_weight_separating"]),
]
#: exit codes of the unpatched runs that are not 0: ``resolution`` reports
#: the unweighted identity diagnostic, red by design, so it exits 1 both
#: ways and its rows are read green -> red
BASE_EXIT = {"resolution": 1}


def _contracts(path):
    rows = csv.DictReader(path.read_text().splitlines())
    return {r["name"]: r["ok"] for r in rows if r["kind"] == "contract"}


@pytest.mark.parametrize("name, target, attr, replacement, argv, red", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_contract_turns_red_under_mutant(name, target, attr, replacement, argv, red, tmp_path, monkeypatch):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == BASE_EXIT.get(argv[0], 0)
    base = _contracts(out)
    assert all(base[c] == "true" for c in red)
    monkeypatch.setattr(target, attr, replacement)
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert _contracts(out) == {**base, **dict.fromkeys(red, "false")}


FLOW_MUTANTS = [
    # the flow run backwards: rho^(conj z) turns rho^(it) into rho^(-it)
    ("flow-rho-power-conjugated", lambda md, z: _RHO_POWER(md, np.conj(z))),
    # the flow at a rate 1 % off
    ("flow-rho-power-x1.01", lambda md, z: _RHO_POWER(md, 1.01 * z)),
]


@pytest.mark.parametrize("name, rho_power", FLOW_MUTANTS, ids=[m[0] for m in FLOW_MUTANTS])
def test_flow_direction_fails_under_mutant(name, rho_power, monkeypatch):
    assert all(flow_rotation_deviation(*spec) <= TOL for spec in SPECS)
    monkeypatch.setattr(modular.ModularData, "rho_power", rho_power)
    assert max(flow_rotation_deviation(*spec) for spec in SPECS) > TOL


def _block_one_level_up(space):
    # the block of the thermal resolution contracts reaches level N/4 + 1
    return np.arange(space.dim // 4 + 2)


@pytest.mark.parametrize("n", [12, 24])
def test_known_red_rule_catches_block_off_by_one(n, tmp_path, monkeypatch):
    # no contract turns red under this mutant and the exit code stays 1;
    # the value rule of the known-red identity rows is what catches it
    out = tmp_path / "out.csv"
    argv = ["resolution", "--N", str(n), "--out", str(out)]
    assert cli.main(argv) == 1
    contracts = _contracts(out)
    assert all(excess <= 0.0 for excess in known_red_excess(out.read_bytes(), n).values())
    monkeypatch.setattr(hs_space, "_block_levels", _block_one_level_up)
    assert cli.main(argv) == 1
    assert _contracts(out) == contracts
    assert all(excess > 0.0 for excess in known_red_excess(out.read_bytes(), n).values())


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
