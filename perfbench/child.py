"""One workload execution in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N [--trace]

``setup_s`` is the time to import ``pmsflow`` plus the workload's config
resolution.  ``wall_s`` covers only the workload's calls into the program.
``peak_rss_mb`` is this process's peak resident set after those calls,
before the checks.  With ``--trace`` the calls run under the tracer, the
per-layer numbers are added to the line, and the spans are written to
``.perfbench_out/spans-<workload>.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _layer_metrics(tracer, outcome) -> dict[str, float]:
    """Per-layer metrics of one traced execution, named as in BENCHMARK.json."""
    summary = tracer.summary()

    def span(name, key="s"):
        return summary.get(name, {}).get(key, 0)

    return {
        "energy.dual_radius.s": span("energy.dual_radius"),
        "energy.dual_radius.calls": span("energy.dual_radius", "calls"),
        "energy.dual_radius.entries": tracer.dual_radius_entries,
        "energy.dual_radius.ns_per_entry": _per(
            span("energy.dual_radius"), tracer.dual_radius_entries, 1e9
        ),
        "solver.steps": outcome.steps,
        "solver.inner_iters": outcome.inner_iters,
        "solver.inner_iters_max": outcome.inner_iters_max,
        "solver.nonconverged": outcome.nonconverged,
        "solver.cert_checks": outcome.cert_checks,
        "solver.cert_accept_ratio": _per(outcome.steps, outcome.cert_checks),
        "solver.implicit_step.s": span("solver.implicit_step"),
        "solver.implicit_step.self_s": span("solver.implicit_step", "self_s"),
        "solver.us_per_inner_iter": _per(
            span("solver.implicit_step"), outcome.inner_iters, 1e6
        ),
        "solver.evolve.s": span("solver.evolve"),
        "solver.k_apply.s": span("solver.k_apply"),
        "solver.k_apply.calls": span("solver.k_apply", "calls"),
        "solver.div_dual.s": span("solver.div_dual"),
        "solver.div_dual.calls": span("solver.div_dual", "calls"),
        "diagnostics.measure.s": span("diagnostics.measure"),
        "diagnostics.measure.calls": span("diagnostics.measure", "calls"),
        "diagnostics.check_contraction.s": span("diagnostics.check_contraction"),
        "runner.csv.s": span("runner.csv"),
        "runner.csv.bytes": outcome.csv_bytes,
        "runner.gates.s": span("runner.gates"),
        # runner.run minus its traced children: report writing and the rest.
        "runner.report.s": span("runner.run", "self_s"),
        "runner.run.s": span("runner.run"),
        "runner.load_config.s": span("runner.load_config"),
        "grid.build_grid.s": span("grid.build_grid"),
        "initial_data.build_initial.s": span("initial_data.build_initial"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import pmsflow

    import_s = time.perf_counter() - started
    if not Path(pmsflow.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported pmsflow from {pmsflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS

    setup, execute, check = WORKLOADS[args.workload]
    # The tracer wraps set-up and the timed calls only; it is installed
    # afresh for each and restores every original name on exit.
    traced = Tracer(pmsflow) if args.trace else contextlib.nullcontext()
    with traced:
        started = time.perf_counter()
        inputs = setup(pmsflow, args.seed)
        setup_s = import_s + time.perf_counter() - started

    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        out_dir = Path(tmp)
        with traced:
            started = time.perf_counter()
            outputs = execute(pmsflow, inputs, out_dir)
            wall_s = time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcome = check(pmsflow, inputs, outputs, out_dir)

    line = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": outcome.attempted,
        "failed": len(outcome.failed_ops),
        "failures": outcome.failures,
        "ref_err": outcome.ref_err,
        "counters": {
            "solver.steps": outcome.steps,
            "solver.inner_iters": outcome.inner_iters,
            "solver.cert_checks": outcome.cert_checks,
        },
        "digests": outcome.digests,
    }
    if args.trace:
        line["layers"] = _layer_metrics(traced, outcome)
        traced.write_csv(out_root / f"spans-{args.workload}.csv")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
