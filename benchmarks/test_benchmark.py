"""Tests of the benchmark's own parts: generator, oracle, tracer, metric names.

Run with:  python -m pytest benchmarks
"""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import worker
import workloads
from hsqm import FockSpace, landau, thermal


def _argv_value(argv, flag):
    return float(argv[argv.index(flag) + 1])


def _fingerprint(tasks):
    return [(json.dumps(t.describe()), [a.tobytes() for a in t.arrays]) for t in tasks]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_round(workload):
    a = workloads.make_round(workload, 7)
    assert _fingerprint(a) == _fingerprint(workloads.make_round(workload, 7))
    other = workloads.make_round(workload, 8)
    assert _fingerprint(a) != _fingerprint(other)
    # the mix and its order are fixed, only parameters are seeded; enough tasks for the tail
    assert [t.label for t in a] == [t.label for t in other]
    assert len(a) >= 20


@pytest.mark.parametrize("seed", range(5))
def test_small_contracts_inputs_in_valid_region(seed):
    for task in workloads.make_round("small_contracts", seed):
        p = task.params
        if task.kind == "cs_overlap":
            radius = thermal.safe_radius(FockSpace(p["N"]))
            assert abs(complex(*p["z1"])) <= radius and abs(complex(*p["z2"])) <= radius
            assert workloads.CS_OMEGA_BETA[0] <= p["omega"] * p["beta"] <= workloads.CS_OMEGA_BETA[1] + 1e-12
            continue
        if task.kind != "cli":
            continue
        argv = p["argv"]
        n = int(argv[2])
        if argv[0] in ("kms", "modular"):
            assert (n - 1) * _argv_value(argv, "--omega") * _argv_value(argv, "--beta") <= 30.0 + 1e-9
        if argv[0] == "kernel":
            assert n >= workloads.KERNEL_MIN_N
        if argv[0] in ("husimi", "spectrum", "uncertainty"):
            params = landau.LandauParams(
                mass=_argv_value(argv, "--mass"), omega0=_argv_value(argv, "--omega0"),
                omega_c=_argv_value(argv, "--omega-c"), theta=_argv_value(argv, "--theta"),
                hbar=_argv_value(argv, "--hbar"),
            )
            freq = landau.chiral_frequencies(params)
            assert freq.Omega_plus > 0 and freq.Omega_minus > 0


def _true_commutant(gens, d):
    """Orthonormal commutant of the *-algebra generated by ``gens``."""
    eye = np.eye(d)
    ops = [m for g in gens for m in (g, g.conj().T)]
    stacked = np.vstack([np.kron(eye, g.T) - np.kron(g, eye) for g in ops])
    _, s, vh = np.linalg.svd(stacked)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return [row.conj().reshape(d, d) for row in vh[rank:]]


def test_oracle_flags_conjugated_commutant():
    task = workloads.algebra_task(((2, 2), (1, 2)), np.random.default_rng(3), rotated=True)
    basis = _true_commutant(task.arrays, task.params["dim"])
    good = {
        "generators": task.arrays,
        "span_dim": 5,
        "commutant_dim": 8,
        "double_commutant_dim": 5,
        "is_factor": False,
        "generators_in_double_commutant": [True, True],
        "commutant_basis": basis,
    }
    verdict = checks.check_algebra(task.params, good)
    assert verdict.ok, verdict.reasons
    assert len(basis) == 8

    conjugated = dict(good, commutant_basis=[b.conj() for b in basis])
    verdict = checks.check_algebra(task.params, conjugated)
    assert not verdict.ok
    assert "commutation" in {code for code, _ in verdict.reasons}
    assert verdict.known_defect

    wrong_factor = dict(good, is_factor=True)
    assert not checks.check_algebra(task.params, wrong_factor).ok


def _resolution_output():
    task = workloads.cli_task("resolution", 8, omega=0.9, beta=1.3)
    code, out, err = worker.execute(task)
    return task.params["argv"], code, out, err


def _edit(out, name, **changes):
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        if row["name"] == name and row["kind"] == "contract":
            row.update(changes)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def test_oracle_keeps_c05a_red():
    argv, code, out, err = _resolution_output()
    verdict = checks.check_cli(argv, code, out, err)
    assert code == 1
    assert verdict.ok, verdict.reasons
    assert verdict.expected_red == 2

    green = _edit(out, "hiho_identity_residual", ok="true", value="1e-06")
    assert "known_red_green" in {c for c, _ in checks.check_cli(argv, code, green, err).reasons}
    moved = _edit(out, "xaxa_identity_residual", value="0.5")
    assert "known_red_value" in {c for c, _ in checks.check_cli(argv, code, moved, err).reasons}
    red_frame = _edit(out, "hiho_frame_residual", ok="false", value="0.1")
    assert "red_contract" in {c for c, _ in checks.check_cli(argv, code, red_frame, err).reasons}
    nan = _edit(out, "resolv_residual", value="nan")
    assert "non_finite" in {c for c, _ in checks.check_cli(argv, code, nan, err).reasons}
    assert "exit_2" in {c for c, _ in checks.check_cli(argv, 2, "", '{"error": "x"}').reasons}


def test_library_oracles():
    task = next(t for t in workloads.make_round("small_contracts", 0) if t.kind == "cs_overlap")
    value = worker.execute(task)
    assert checks.check_cs_overlap(task.params, value).ok
    assert not checks.check_cs_overlap(task.params, value * 1.001).ok
    row = next(t for t in workloads.make_round("small_contracts", 0) if t.kind == "wigner_row")
    reference = checks.wigner_row_reference(row.params)
    values = worker.execute(row)
    assert checks.check_wigner_row(reference, values).ok
    assert not checks.check_wigner_row(reference, values.conj() + 1e-9).ok


def test_tracer_records_rebound_functions_and_restores():
    import hsqm
    from hsqm import cli, fock

    original = fock.displacement_stack
    tracer = spans.Tracer()
    tracer.install(hsqm)
    try:
        # thermal, wigner and cli import displacement_stack by name
        assert cli.displacement_stack is not original
        tracer.task = 0
        worker.execute(workloads.cli_task("wigner", 4))
    finally:
        tracer.uninstall()
    assert fock.displacement_stack is original and cli.displacement_stack is original
    totals = tracer.aggregate()
    assert totals["cli.main"]["calls"] == 1
    assert totals["fock.displacement_stack"]["matrices"] > 0
    assert totals["wigner.wigner_function"]["points"] == 21 * 21 + 2 * 8 * 17
    root = tracer.names.index("cli.main")
    self_times = tracer.self_times()
    assert np.all(self_times >= -1e-9)
    # one root span: self times of all spans add up to its duration
    (index,) = np.nonzero(np.frombuffer(tracer.name, dtype=np.intc) == root)[0]
    assert math.isclose(self_times.sum(), tracer.end[index] - tracer.start[index], rel_tol=1e-6)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    layer = {f"{name}.{q}": worker.UNITS[q] for name, qs in worker.LAYER_METRICS.items() for q in qs}
    layer.update(worker.TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
