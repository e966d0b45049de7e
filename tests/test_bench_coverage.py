"""Tier-1 gate on the benchmark's trace coverage and its oracle.

One seeded round of each workload in ``benchmarks/`` runs under the span
tracer.  Every span the benchmark's ``--trace 1`` run requires must record
a call (a missing one makes that run exit 3), and the oracle must pass
every task, with no exemption for known defects.  The benchmark modules
are imported as they are; no bytecode is written next to them.
"""

import importlib
import sys
from pathlib import Path

import pytest

import hsqm

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCHMARKS))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        yield tuple(importlib.import_module(name) for name in ("spans", "worker", "workloads"))
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCHMARKS))


@pytest.mark.parametrize("workload", ["phase_space", "algebra", "small_contracts"])
def test_one_traced_round_covers_spans_and_passes_oracle(bench, workload):
    spans, worker, workloads = bench
    assert workload in workloads.WORKLOADS
    tasks = workloads.make_round(workload, 1)
    tracer = spans.Tracer()
    tracer.install(hsqm)
    try:
        results, _ = worker.run_rounds(tasks, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    totals = tracer.aggregate()
    missing = [name for name in worker.EXPECTED_SPANS[workload] if totals.get(name, {}).get("calls", 0) == 0]
    assert missing == []
    summary = worker.summarize(worker.Checker(tasks), results)
    assert summary["failed"] == 0, summary["failures"]
