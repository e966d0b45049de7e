"""One benchmark process: set up, run a workload's rounds, check, report.

Started by ``run.py`` in a fresh interpreter with the BLAS thread count
already fixed in its environment.  Protocol on stdout: the line
``ready`` once set-up is done (import hsqm, generate the round, run one
untimed warm-up task), then, unless ``--probe``, one JSON object as the
last line.  Library output never reaches stdout: CLI tasks write into a
captured buffer.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import hsqm
# library functions are called through their modules, so the tracer's
# patched bindings are the ones used
from hsqm import cli, commutant, fock, hs_space, thermal, wigner
from hsqm.fock import FockSpace, ThermalSpec

import checks
import spans
import workloads

#: Per-layer metrics of the traced run: span name -> (quantities).
LAYER_METRICS = {
    "fock.displacement_stack": ("calls", "matrices", "self_s", "bytes_computed"),
    "quadrature.QuadratureScheme": ("calls", "self_s", "nodes"),
    "thermal.resolution_operator": ("calls", "self_s", "gemm_flops_computed", "gflops"),
    "thermal.frame_operator_residual": ("self_s",),
    "thermal.resolution_residual": ("self_s",),
    "wigner.wigner_function": ("calls", "points", "self_s"),
    "wigner.wigner_inverse": ("self_s",),
    "landau.tensor_resolution_residual": ("self_s",),
    "landau.husimi": ("calls", "self_s"),
    "landau.husimi_trace_residual": ("self_s",),
    "landau.project_hol": ("self_s",),
    "landau.reproducing_kernel": ("calls",),
    "modular.polar_check": ("self_s",),
    "modular.kms_residual": ("calls", "self_s"),
    "modular.ModularData.from_thermal": ("self_s",),
    "hs_space.basis_element": ("calls",),
    "hs_space.vee": ("calls",),
    "hs_space.SuperOp.to_dense": ("calls", "self_s"),
    "commutant.algebra_span": ("calls", "self_s", "out_dim"),
    "commutant.commutant_basis": ("calls", "self_s", "stacked_bytes_computed"),
    "commutant.is_factor": ("self_s",),
    "commutant.intersection_dimension": ("self_s",),
    "commutant.span_contains": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
UNITS = {"calls": "count", "matrices": "count", "nodes": "count", "points": "count", "out_dim": "count",
         "self_s": "s", "bytes_computed": "bytes", "stacked_bytes_computed": "bytes",
         "gemm_flops_computed": "flop", "gflops": "GFLOP/s"}
TRACE_METRICS = {"trace.overhead_s": "s", "trace.overhead_share": "ratio", "trace.spans": "count"}

#: Wrapped functions each workload must hit; a traced run in which one of
#: them records no call fails, so a rename cannot drop a layer silently.
EXPECTED_SPANS = {
    "phase_space": (
        "cli.main", "fock.displacement_stack", "quadrature.QuadratureScheme",
        "thermal.resolution_operator", "thermal.frame_operator_residual", "thermal.resolution_residual",
        "wigner.wigner_function", "wigner.wigner_inverse", "landau.tensor_resolution_residual",
        "hs_space.basis_element",
    ),
    "algebra": (
        "hs_space.vee", "hs_space.SuperOp.to_dense", "commutant.algebra_span",
        "commutant.commutant_basis", "commutant.is_factor", "commutant.intersection_dimension",
        "commutant.span_contains",
    ),
    "small_contracts": (
        "cli.main", "fock.displacement_stack", "quadrature.QuadratureScheme", "wigner.wigner_function",
        "landau.husimi", "landau.husimi_trace_residual", "landau.project_hol", "landau.reproducing_kernel",
        "modular.polar_check", "modular.kms_residual", "modular.ModularData.from_thermal",
        "hs_space.basis_element", "hs_space.vee", "thermal.cs_overlap",
    ),
}


# -- task execution --------------------------------------------------------


def execute(task: workloads.Task):
    """Run one task; the caller times this call only."""
    p = task.params
    if task.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(p["argv"]))
        return code, out.getvalue(), err.getvalue()
    if task.kind == "cs_overlap":
        return thermal.cs_overlap(FockSpace(p["N"]), ThermalSpec(p["omega"], p["beta"]), complex(*p["z1"]), complex(*p["z2"]))
    if task.kind == "wigner_row":
        f = wigner.wigner_function(hs_space.basis_element(FockSpace(p["N"]), p["n"], p["l"]))
        return f(np.full_like(workloads.WIGNER_ROW, p["x"]), workloads.WIGNER_ROW)
    if task.kind == "algebra":
        return _algebra_sequence(p["dim"], task.arrays)
    if task.kind == "ladder":
        space = FockSpace(p["N"])
        ops = (fock.annihilation(space), fock.creation(space))
        eye = fock.identity(space)
        sups = [hs_space.vee(op, eye) if p["side"] == "left" else hs_space.vee(eye, op) for op in ops]
        return _algebra_sequence(p["dim"], [s.to_dense() for s in sups])
    raise ValueError(f"unknown task kind {task.kind!r}")


def _algebra_sequence(dim: int, gens: list) -> dict:
    alg = commutant.algebra_span(commutant.AlgebraGens(dim, gens))
    comm = commutant.commutant_basis(alg)
    double = commutant.commutant_basis(comm)
    return {
        "generators": gens,
        "span_dim": alg.size,
        "commutant_dim": comm.size,
        "double_commutant_dim": double.size,
        "is_factor": commutant.is_factor(alg),
        "generators_in_double_commutant": [commutant.span_contains(double, g) for g in gens],
        "commutant_basis": comm.basis,
    }


class TaskError:
    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_task(task):
    try:
        return execute(task)
    except Exception as exc:  # a raising task is a failed task, not a crashed run
        return TaskError(exc)


def run_rounds(tasks, rounds: int, tracer=None):
    """Closed loop: each task starts when the previous one has finished."""
    results = []
    start = time.perf_counter()
    for _ in range(rounds):
        for index, task in enumerate(tasks):
            if tracer is not None:
                tracer.task = len(results)
            t0 = time.perf_counter()
            out = run_task(task)
            results.append((index, time.perf_counter() - t0, out))
    return results, time.perf_counter() - start


# -- checking --------------------------------------------------------------


class Checker:
    """Checks outputs; independent references are computed once per task."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.references = {}

    def verdict(self, index: int, out) -> checks.Verdict:
        task = self.tasks[index]
        if isinstance(out, TaskError):
            v = checks.Verdict()
            v.fail("exception", out.text)
            return v
        if task.kind == "cli":
            return checks.check_cli(task.params["argv"], *out)
        if task.kind == "cs_overlap":
            return checks.check_cs_overlap(task.params, out)
        if task.kind == "wigner_row":
            if index not in self.references:
                self.references[index] = checks.wigner_row_reference(task.params)
            return checks.check_wigner_row(self.references[index], out)
        return checks.check_algebra(task.params, out)


def summarize(checker: Checker, results) -> dict:
    tasks = checker.tasks
    failures = {}
    accuracy = []
    failed = unexpected = expected_red = 0
    for index, _, out in results:
        v = checker.verdict(index, out)
        accuracy.extend(v.accuracy)
        expected_red += v.expected_red
        if not v.ok:
            failed += 1
            unexpected += not v.known_defect
            entry = failures.setdefault(tasks[index].label, {"count": 0, "known_defect": v.known_defect, "reasons": v.reasons})
            entry["count"] += 1
    return {
        "attempted": len(results),
        "failed": failed,
        "unexpected_failures": unexpected,
        "expected_red_contracts": expected_red,
        "accuracy_digits": min(accuracy) if accuracy else None,
        "failures": failures,
    }


# -- metrics ---------------------------------------------------------------


def tail(durations) -> dict:
    """Highest percentile with at least ten tasks beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "tasks_beyond": 10, "tasks": n}


def end_to_end(results, wall: float, peak_rss_kb: int, summary: dict) -> dict:
    durations = [dt for _, dt, _ in results]
    if len(durations) < 20:
        raise RuntimeError(f"only {len(durations)} tasks ran; the tail needs at least 20")
    return {
        "tasks_per_s": len(durations) / wall,
        "task_s.p50": statistics.median(durations),
        "task_s.tail": tail(durations),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "accuracy_digits": summary["accuracy_digits"],
    }


def per_layer(totals: dict, rounds: int) -> dict:
    """Per-round layer quantities: counts and self times divided by rounds."""
    out = {}
    for name, quantities in LAYER_METRICS.items():
        entry = totals.get(name, {})
        for q in quantities:
            if q == "gflops":
                self_s = entry.get("self_s", 0.0)
                value = entry.get("gemm_flops_computed", 0.0) / self_s / 1e9 if self_s > 0 else 0.0
            else:
                value = entry.get(q, 0.0) / rounds
            out[f"{name}.{q}"] = (value, UNITS[q])
    return out


def computed_sizes(tasks) -> list:
    """Problem sizes derived from the inputs, per distinct task label."""
    sizes = {}
    for task in tasks:
        p = task.params
        if task.kind == "cli" and task.params["argv"][0] in ("resolution", "wigner"):
            n = int(p["argv"][2])
            k = 2 * n * (4 * n + 1)
            entry = {"N": n, "K": k, "displacement_stack_bytes": 16 * k * n * n}
            if p["argv"][0] == "resolution":
                entry["gemm_flops_per_assembly"] = 8 * k * n**4
            sizes[task.label] = entry
        elif task.kind in ("algebra", "ladder"):
            d = p["dim"]
            span = sum(a * a for a, _ in p["blocks"])
            comm = sum(b * b for _, b in p["blocks"])
            sizes[task.label.rsplit(" ", 1)[0]] = {"d": d, "stacked_commutant_bytes": 16 * max(span, comm) * d**4}
        elif task.kind in ("cs_overlap", "wigner_row"):
            n = p["N"]
            k = 1 if task.kind == "cs_overlap" else len(workloads.WIGNER_ROW)
            sizes[task.label] = {"N": n, "K": k, "displacement_stack_bytes": 16 * k * n * n}
    return [dict(label=label, computed=entry) for label, entry in sorted(sizes.items())]


def _l3_size() -> str | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            return None
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3_size": _l3_size(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


# -- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit once set-up is done")
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if src not in Path(hsqm.__file__).resolve().parents:
        raise RuntimeError(f"hsqm imported from {hsqm.__file__}, not from the checkout's src/")
    tasks = workloads.make_round(args.workload, args.seed)
    warm = workloads.warmup_task(args.workload)
    warm_ok = Checker([warm]).verdict(0, run_task(warm)).ok
    print("ready", flush=True)
    if args.probe:
        return 0

    rounds = workloads.rounds_for(args.workload, args.seconds)
    results, wall = run_rounds(tasks, rounds)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    checker = Checker(tasks)
    summary = summarize(checker, results)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "round_tasks": len(tasks),
        "warmup_ok": warm_ok,
        "environment": environment(),
        "computed": computed_sizes(tasks),
        "summary": summary,
    }
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(hsqm)
        traced, traced_wall = run_rounds(tasks, rounds, tracer=tracer)
        tracer.uninstall()
        totals = tracer.aggregate()
        missing = [name for name in EXPECTED_SPANS[args.workload] if totals.get(name, {}).get("calls", 0) == 0]
        if missing:
            sys.stderr.write(f"trace coverage: expected spans recorded no call: {', '.join(missing)}\n")
            return 3
        layer = per_layer(totals, rounds)
        overhead = {
            "trace.overhead_s": (traced_wall - wall) / rounds,
            "trace.overhead_share": (traced_wall - wall) / wall,
            "trace.spans": len(tracer) / rounds,
        }
        layer.update((name, (value, TRACE_METRICS[name])) for name, value in overhead.items())
        out_dir = Path.cwd() / ".hsqmbench"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans_path)
        report["traced_summary"] = summarize(checker, traced)
        report["spans_file"] = str(spans_path.relative_to(Path.cwd()))
        report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        report["metrics"] = end_to_end(results, wall, peak_rss_kb, summary)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
