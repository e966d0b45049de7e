"""hsqm benchmark: one command per workload run, results on stdout.

    python3 benchmarks/run.py --workload <phase_space|algebra|small_contracts>
                              --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every run is a closed loop with one
caller in one fresh worker process, with the BLAS thread count fixed to
min(2, available CPUs) and recorded.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` repeats the same rounds untraced and
traced and reports per-layer metrics.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  See
benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("phase_space", "algebra", "small_contracts")
#: set-up is measured in this many fresh processes (probes plus the measuring worker)
SETUP_SAMPLES = 5
#: every worker process of a run must have finished by then
RUN_DEADLINE_S = 175.0
UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_s.p50": "s", "task_s.tail": "s", "peak_rss_mb": "MB", "accuracy_digits": "digits"}


class WorkerError(RuntimeError):
    pass


def blas_threads() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(threads)
    # the CLI's husimi pool keeps its default of one thread
    env.pop("HSQM_THREADS", None)
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, env: dict, deadline: float, probe: bool):
    """Start a worker; return (seconds from spawn to ready, last stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or code != 0 or not (probe or lines):
        raise WorkerError(f"worker exited with status {code} (timed out: {time.perf_counter() > deadline})")
    return ready, (lines[-1] if lines else None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "hsqm" / "__init__.py").is_file():
        sys.stderr.write("run from the root of an hsqm checkout: src/hsqm not found\n")
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    threads = blas_threads()
    env = worker_env(threads)
    try:
        setup = []
        if not args.trace:
            setup = [run_worker(args, env, deadline, probe=True)[0] for _ in range(SETUP_SAMPLES - 1)]
        ready, line = run_worker(args, env, deadline, probe=False)
    except WorkerError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    setup.append(ready)
    report = json.loads(line)
    summary = report["summary"]

    if args.trace:
        metrics = report["metrics"]
        traced = report["traced_summary"]
        correct = report["warmup_ok"] and summary["unexpected_failures"] == 0 and traced["unexpected_failures"] == 0
    else:
        m = report["metrics"]
        if m["accuracy_digits"] is None:
            sys.stderr.write("benchmark failed: no passing residual contract to measure accuracy on\n")
            return 1
        report["tail"] = m["task_s.tail"]
        values = {
            "setup_s": statistics.median(setup),
            "tasks_per_s": m["tasks_per_s"],
            "task_s.p50": m["task_s.p50"],
            "task_s.tail": m["task_s.tail"]["value"],
            "peak_rss_mb": m["peak_rss_mb"],
            "accuracy_digits": m["accuracy_digits"],
        }
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
        report["setup_samples_s"] = setup
        correct = report["warmup_ok"] and summary["unexpected_failures"] == 0
    report["metrics"] = metrics

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  blas_threads {threads}  "
          f"rounds {report['rounds']} x {report['round_tasks']} tasks")
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  ops_attempted {summary['attempted']}  ops_failed {summary['failed']}  "
          f"(known defect {summary['failed'] - summary['unexpected_failures']}, "
          f"expected-red contracts {summary['expected_red_contracts']})")
    print(json.dumps({"record": report}))
    print(json.dumps({"correct": bool(correct), "attempted": summary["attempted"], "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
