"""firmlp benchmark: one workload run, end-to-end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload falsify_batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Workloads (see BENCHMARK.json for why each was chosen):

* falsify_batch  sampled certification on 2e5-pair batches, and projection
                 pair residuals: vectorised numpy kernels
* solve_small    single-vector Picard, feasibility and fixed-set solves:
                 per-call overhead of operators and norms
* cli_campaign   ``firmlp.cli.main`` on seeded copies of the packaged
                 configs plus two p = 3 semigroup schedules

Each workload runs closed-loop with one client in a fresh child process
(child.py), nothing else from the benchmark running beside it, with
OpenBLAS pinned to one thread.  Task kinds interleave in fixed proportions
chosen so that the 50th and 90th percentiles each fall inside one kind's
cost cluster.  Every task's output is checked against the tolerances the
acceptance suite pins; failures are counted, logged and never stop the run.

``--trace 0`` reports the end-to-end metrics.  All of them are CPU time of
the child process (child.py says why): the benchmark measures the program,
and on a shared host the wall clock also counts the neighbours.  The table
gives ``cpu_over_wall``, the ratio of the two over the timed tasks.
``setup_s`` is the median over five children (four set-up-only children and
the measured one) of the CPU time from process start to the first timed
task.  Task times cover the public call only; output checks and input
generation are outside them.  ``tasks_per_s`` is the number of tasks over
the sum, across task kinds, of each kind's task count times its median task
time, so a burst of contention that slows a few tasks does not move it;
the per-layer rates divide by the summed task times.

``--trace 1`` runs the workload twice, untraced and then traced, each in its
own child for half of ``--seconds``, and reports the per-layer metrics:
calls, counts and self time of the wrapped public functions of each firmlp
module (tracer.py), plus the tracing overhead (traced minus untraced tasks
per second, and the wrapper time outside the spans, ``trace.overhead_s``).
Self time is given as a percentage of the traced task time
(``trace.task_s``), so a layer a workload never calls reads 0 % rather than
a constant time.  Layer self times, the tracer's own overhead and the
unwrapped part of the tasks add up to the traced task time.
``pairs_per_s``, ``picard_steps_per_s`` and ``failed_ratio`` come from the
untraced child; steps are those of the trajectories the tasks return.  The
spans are written to .perfbench_out/spans-<workload>.csv.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the firmlp
sources beside it (src/firmlp) the benchmark exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out"
SETUP_PROBES = 4  # set-up-only children besides the measured one
RUN_DEADLINE_S = 170.0
SKEW = 1e-3  # self-test: shift of one expected value per workload
CACHE_SYSCONF = {"L1d": 188, "L2": 191, "L3": 194}  # glibc sysconf cache-size names


class BenchError(RuntimeError):
    pass


def git_revision() -> str:
    # --git-dir keeps git from searching the directories above the checkout
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def host_provenance(largest_operand_bytes: int) -> dict:
    caches = {}
    for level, code in CACHE_SYSCONF.items():
        try:
            caches[level] = os.sysconf(code)
        except (ValueError, OSError):
            caches[level] = None
    l3 = caches.get("L3") or 0
    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cache_bytes_per_instance": caches,
        "working_set": (
            f"largest operand {largest_operand_bytes / 1e6:.1f} MB < 4 x L3 = {4 * l3 / 1e6:.0f} MB, so "
            "space.lp_norm.bytes is a computed count of input bytes, not an achieved bandwidth"
        ),
    }


def spawn(workload, seed, seconds, trace, tiny, skew, setup_only, deadline):
    """Run child.py once; return (set-up CPU seconds, result message or None)."""
    read_fd, write_fd = os.pipe()
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--skew", repr(skew),
        "--scratch", str(SCRATCH), "--fd", str(write_fd),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.Popen(cmd, pass_fds=(write_fd,), stdout=subprocess.DEVNULL, env=env, cwd=ROOT)
    os.close(write_fd)
    setup_s, result, buf = None, None, b""
    try:
        while True:
            remaining = deadline - monotonic()
            if remaining <= 0:
                raise BenchError(f"{workload}: child did not finish before the run deadline")
            if not select.select([read_fd], [], [], remaining)[0]:
                continue
            chunk = os.read(read_fd, 1 << 20)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                msg = json.loads(line)
                if msg["event"] == "ready":
                    setup_s = msg["setup_cpu_s"]
                else:
                    result = msg
        proc.wait(timeout=max(1.0, deadline - monotonic()))
    finally:
        os.close(read_fd)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or setup_s is None or (result is None and not setup_only):
        raise BenchError(f"{workload}: child exited with code {proc.returncode}")
    return setup_s, result


def rates(res) -> dict:
    """Workload throughputs and the failure share of one untraced child."""
    return {
        "pairs_per_s": res["pairs"] / res["busy_s"],
        "picard_steps_per_s": res["steps"] / res["busy_s"],
        "failed_ratio": res["failed"] / res["attempted"],
    }


def layer_metric(name, plain, traced):
    """Value of one per-layer metric from the untraced and traced results."""
    t = traced["trace"]
    calls, self_s, counts = t["calls"], t["self_s"], t["counts"]
    derived = {
        **rates(plain),
        "trace.task_s": t["task_s"],
        "trace.layers_self_s": t["layers_self_s"],
        "trace.overhead_s": t["overhead_s"],
        "trace.unwrapped_s": t["unwrapped_s"],
        "trace.spans": t["spans"],
        "trace.tasks_per_s_traced_minus_untraced": traced["tasks_per_s"] - plain["tasks_per_s"],
        "certify.active_pair_ratio": (
            1.0 - counts.get("certify.degenerate_pairs", 0) / counts["certify.pairs"]
            if counts.get("certify.pairs") else 0.0
        ),
        "dynamics.steps_per_solve": (
            counts.get("dynamics.picard_steps", 0) / calls["dynamics.picard_iterate"]
            if calls.get("dynamics.picard_iterate") else 0.0
        ),
        "cli.bytes_written": traced["counts"].get("cli_bytes", 0),
        "cli.files_written": traced["counts"].get("cli_files", 0),
    }
    if name in derived:
        return derived[name]
    prefix, _, field = name.rpartition(".")
    if field == "calls":
        return calls.get(prefix, 0)
    if field == "self_pct":
        return 100.0 * self_s.get(prefix, 0.0) / t["task_s"]
    return counts.get(name, 0)


def measure(bench, workload, seed, seconds, trace, tiny=False, skew=0.0):
    """Run one workload; return (metrics, attempted, failed, provenance)."""
    deadline = monotonic() + RUN_DEADLINE_S
    SCRATCH.mkdir(exist_ok=True)
    args = (workload, seed, seconds)
    if not trace:
        setups = [spawn(*args, 0, tiny, skew, True, deadline)[0] for _ in range(SETUP_PROBES)]
        setup_s, res = spawn(*args, 0, tiny, skew, False, deadline)
        metrics = {
            "setup_s": statistics.median(setups + [setup_s]),
            "task_p50_ms": res["task_p50_ms"],
            "task_p90_ms": res["task_p90_ms"],
            "tasks_per_s": res["tasks_per_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            **rates(res),  # shown in the table
        }
        attempted, failed = res["attempted"], res["failed"]
    else:
        half = (workload, seed, seconds / 2)
        _, plain = spawn(*half, 0, tiny, skew, False, deadline)
        _, res = spawn(*half, 1, tiny, skew, False, deadline)
        metrics = {m["name"]: layer_metric(m["name"], plain, res) for m in bench["per_layer"]}
        attempted = plain["attempted"] + res["attempted"]
        failed = plain["failed"] + res["failed"]
    extra = {key: res[key] for key in ("tasks", "cpu_over_wall", "kind_median_ms", "kind_share")}
    host = host_provenance(res["provenance"]["largest_operand_bytes"])
    return metrics, attempted, failed, res["provenance"] | host | extra


def render(bench, workload, trace, metrics, attempted, failed, provenance) -> list[str]:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    lines = [f"# {key}: {json.dumps(val, sort_keys=True)}" for key, val in provenance.items()]
    lines.append(f"# workload {workload}, trace {trace}: {attempted} tasks attempted, {failed} failed")
    lines += [f"{name} {value!r} {units[name]}" for name, value in metrics.items()]
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    lines.append(json.dumps(result))
    return lines


def self_test(bench) -> int:
    """Tiny runs of every workload: every listed metric is printed with its
    unit, no task fails, the traced time accounting adds up, and a
    deliberately wrong expected value is counted."""
    problems = []
    for w in (wl["name"] for wl in bench["workloads"]):
        for trace in (0, 1):
            out = measure(bench, w, 1, 1.0, trace, tiny=True)
            lines = render(bench, w, trace, *out)
            listed = bench["per_layer"] if trace else bench["end_to_end"]
            for m in listed:
                if not any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}") for line in lines):
                    problems.append(f"{w} trace {trace}: {m['name']} not printed with unit {m['unit']}")
            if out[2]:
                problems.append(f"{w} trace {trace}: {out[2]} tasks failed at the true expectations")
            if trace:
                m = out[0]
                parts = m["trace.layers_self_s"] + m["trace.overhead_s"] + m["trace.unwrapped_s"]
                if abs(parts - m["trace.task_s"]) > 1e-9 * max(1.0, m["trace.task_s"]):
                    problems.append(f"{w}: layer self + overhead + unwrapped != traced task time")
        metrics, attempted, failed, _ = measure(bench, w, 1, 1.0, 0, tiny=True, skew=SKEW)
        if not (failed > 0 and metrics["failed_ratio"] > 0.0):
            problems.append(f"{w}: a wrong expected value did not show up in failed_ratio")
        print(f"self-test {w}: wrong expectation failed {failed}/{attempted} tasks")
    for p in problems:
        print(f"self-test problem: {p}")
    print("self-test:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="firmlp benchmark (see module docstring)")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "firmlp" / "__init__.py").is_file():
        print(f"perfbench: firmlp sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.self_test:
        return self_test(bench)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    try:
        out = measure(bench, args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(render(bench, args.workload, args.trace, *out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
