"""pmsflow benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Every execution runs in a fresh interpreter (``child.py``), one at a time
(closed loop, one client, one thread).  Executions repeat until the next one
would overrun ``--seconds``; at least one always runs.  Each execution
sets up afresh, and ``setup_s`` is the median over the executions.

``--trace 0`` reports the end-to-end metrics, medians over the executions.
``--trace 1`` alternates untraced and traced executions and reports the
per-layer metrics, medians over the traced ones, and the tracing overhead
as the difference of the two wall-time medians.  The last line of standard
output is the JSON result, with exactly the metrics ``BENCHMARK.json``
declares for the mode; the lines before it are informational.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("quarter_circles", "rectangle_cosine", "contraction_pairs")
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def machine_note() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy  # only after the thread variables are pinned

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def run_child(workload: str, seed: int, *, trace: bool):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} execution exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} execution exited with {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, spec: dict) -> dict:
    """Run the executions and return the result object."""
    started = time.perf_counter()
    plain, traced = [], []
    durations = []
    while True:
        # --trace 1 alternates untraced and traced executions, untraced first.
        trace = args.trace == 1 and len(plain) > len(traced)
        t0 = time.perf_counter()
        rec = run_child(args.workload, args.seed, trace=trace)
        durations.append(time.perf_counter() - t0)
        (traced if trace else plain).append(rec)
        kind = "traced" if trace else "untraced"
        print(
            f"execution {len(durations)} ({kind}): wall_s {rec['wall_s']:.4f} "
            f"setup_s {rec['setup_s']:.4f} peak_rss_mb {rec['peak_rss_mb']:.2f} "
            f"attempted {rec['attempted']} failed {rec['failed']}"
        )
        for failure in rec["failures"]:
            print(f"  FAILED {failure}")
        elapsed = time.perf_counter() - started
        done = args.trace == 0 or traced
        if done and elapsed + statistics.mean(durations) > args.seconds:
            break

    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # Same inputs must give the same outputs, bit for bit.
    first = runs[0]
    deterministic = all(
        r["counters"] == first["counters"] and r["digests"] == first["digests"] for r in runs
    )
    if not deterministic:
        print("FAILED: executions of the same inputs disagree on counters or digests")
    print("counters " + json.dumps(first["counters"], sort_keys=True))
    print("digests " + json.dumps(first["digests"], sort_keys=True))
    print(f"ref_err {first['ref_err']!r} fail_frac {failed / attempted!r}")
    print(f"samples: {len(plain)} untraced, {len(traced)} traced executions")

    if args.trace == 0:
        values = {
            "wall_s": statistics.median([r["wall_s"] for r in plain]),
            "setup_s": statistics.median([r["setup_s"] for r in plain]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
        }
    else:
        print(
            "waits: none; the program is single-threaded with no queues, "
            "so no layer waits on another"
        )
        print(f"spans of the last traced execution: .perfbench_out/spans-{args.workload}.csv")
        values = {
            name: statistics.median([r["layers"][name] for r in traced])
            for name in traced[0]["layers"]
        }
        traced_wall = statistics.median([r["wall_s"] for r in traced])
        plain_wall = statistics.median([r["wall_s"] for r in plain])
        print(f"traced wall_s {traced_wall:.4f} untraced wall_s {plain_wall:.4f}")
        values["fail_frac"] = failed / attempted
        values["ref_err"] = first["ref_err"]
        values["bench.trace_overhead_s"] = traced_wall - plain_wall

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="pmsflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "pmsflow" / "__init__.py").is_file():
        print(f"error: no pmsflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    print("machine " + json.dumps(machine_note(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    try:
        result = measure(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
