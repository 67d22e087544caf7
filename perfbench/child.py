"""One workload run in a fresh process: set up, signal ready, run tasks.

Started by run.py, never by hand.  Messages go to the parent as JSON lines
on the file descriptor ``--fd``: ``ready`` once set-up (imports, operator
and sampler construction, one untimed warm-up task per kind) is done, then
``result`` with the task timings.  Standard output is left to the CLI's own
printing.  A task that raises or fails its output check is logged to
standard error and counted; it never stops the run.

Times are the process's CPU time (``time.process_time``; OpenBLAS runs one
thread, so this is the one thread doing the work).  The kernel charges CPU
time only while the process runs on a CPU and, with paravirtual steal-time
accounting, not while the hypervisor runs another guest on that CPU.  On a
shared host that stolen time and the wait behind other processes belong to
the neighbours, not to the program; on a quiet 2-vCPU host the CPU and
wall time of a run's tasks agreed to within 1 %.  The wall time is kept for the ratio reported as
``cpu_over_wall``.  The run itself still lasts ``--seconds`` of wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import workloads
from tracer import Tracer

MAX_LOGGED = 20


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "largest_operand_bytes": workloads.LARGEST_OPERAND_BYTES,
    }


class Runner:
    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.counts: Counter = Counter()

    def task(self, kind, inp, task_id):
        """Run one task; return its CPU and wall time in seconds."""
        self.attempted += 1
        if self.tracer:
            self.tracer.begin_task(task_id)
        t0, c0 = perf_counter(), process_time()
        try:
            out, error = kind.run(inp), None
        except Exception:
            error = traceback.format_exc()
        elapsed = (process_time() - c0, perf_counter() - t0)
        if self.tracer:
            self.tracer.end_task()
        if error is not None:
            self._fail(kind, error)
            return elapsed
        try:
            self.counts.update(kind.count(inp, out))
            problems = kind.check(inp, out)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self._fail(kind, "; ".join(problems))
        return elapsed

    def _fail(self, kind, message):
        self.failed += 1
        if self.failed <= MAX_LOGGED:
            print(f"[perfbench] {self.workload.name}/{kind.name} failed: {message}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--skew", type=float, default=0.0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--fd", type=int, required=True)
    args = ap.parse_args()
    channel = os.fdopen(args.fd, "w", buffering=1)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, args.skew, Path(args.scratch))
    try:
        runner = Runner(workload, tracer=None)
        warm_rng = np.random.default_rng([args.seed, 1])
        for kind in workload.kinds:
            runner.task(kind, kind.make(warm_rng), -1)  # fills caches, finishes lazy set-up
        channel.write(json.dumps({"event": "ready", "setup_cpu_s": process_time()}) + "\n")
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            # installed after set-up: the workload calls firmlp through module
            # attributes and class methods, which the patches replace
            tracer = runner.tracer = Tracer()
            tracer.install()

        order = workloads.schedule(workload.kinds)
        rng = np.random.default_rng([args.seed, 3])
        runner.counts.clear()
        times: list[float] = []
        busy_wall = 0.0
        per_kind: dict = {}
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline:
            kind = order[len(times) % len(order)]
            cpu, wall = runner.task(kind, kind.make(rng), len(times))
            times.append(cpu)
            busy_wall += wall
            per_kind.setdefault(kind.name, []).append(cpu)

        busy = sum(times)
        # the mix's throughput at each kind's median cost: a burst of host
        # contention slows some tasks of a kind, not its median
        typical_busy = sum(len(v) * statistics.median(v) for v in per_kind.values())
        result = {
            "event": "result",
            "attempted": runner.attempted,
            "failed": runner.failed,
            "tasks": len(times),
            "busy_s": busy,
            "cpu_over_wall": busy / busy_wall,
            "task_p50_ms": 1e3 * statistics.median(times),
            "task_p90_ms": 1e3 * statistics.quantiles(times, n=10)[-1] if len(times) > 1 else 1e3 * times[0],
            "tasks_per_s": len(times) / typical_busy,
            "pairs": runner.counts["pairs"],
            "steps": runner.counts["steps"],
            "counts": dict(runner.counts),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "kind_median_ms": {k: 1e3 * statistics.median(v) for k, v in per_kind.items()},
            "kind_share": {k: len(v) / len(times) for k, v in per_kind.items()},
            "provenance": provenance(),
        }
        if tracer:
            result["trace"] = tracer.summary()
            tracer.write(Path(args.scratch) / f"spans-{args.workload}.csv")
        channel.write(json.dumps(result) + "\n")
        return 0
    finally:
        workload.cleanup()


if __name__ == "__main__":
    sys.exit(main())
