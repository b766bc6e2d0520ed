"""Spans recorded from outside the solver, by wrapping module-level names.

Each wrapped name is the attribute a caller looks up at call time: for
example ``evolve`` calls ``implicit_step`` through ``pmsflow.solver``'s
module globals, and ``implicit_step`` calls ``ops.k_apply`` through the
class of its operator object.  Replacing those attributes with timing
wrappers traces every call without a timer inside ``src/pmsflow``.  The
wrappers exist only between ``install()`` and ``uninstall()``, which puts
back the exact original objects.

Spans are kept in memory as (id, parent, name, start_ns, end_ns) tuples and
written out once, at the end, by ``write_csv``.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import defaultdict


def traced_names(pmsflow) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every layer boundary traced.

    A name is wrapped in each module that looks it up, so ``grid.build_grid``
    is traced whether ``runner.run`` or the benchmark itself calls it.
    """
    runner, solver = pmsflow.runner, pmsflow.solver
    diagnostics = pmsflow.diagnostics
    grid, initial_data = pmsflow.grid, pmsflow.initial_data
    return [
        (runner, "load_config", "runner.load_config"),
        (runner, "run", "runner.run"),
        (runner, "build_grid", "grid.build_grid"),
        (runner, "build_initial", "initial_data.build_initial"),
        (runner, "evolve", "solver.evolve"),
        (runner, "_gate_verdicts", "runner.gates"),
        (runner, "_write_series_csv", "runner.csv"),
        (runner, "_write_snapshot_csv", "runner.csv"),
        (grid, "build_grid", "grid.build_grid"),
        (initial_data, "build_initial", "initial_data.build_initial"),
        (solver, "evolve", "solver.evolve"),
        (solver, "implicit_step", "solver.implicit_step"),
        (solver, "measure", "diagnostics.measure"),
        (solver, "_dual_radius", "energy.dual_radius"),
        (solver._OneAxisOps, "k_apply", "solver.k_apply"),
        (solver._OneAxisOps, "div_dual", "solver.div_dual"),
        (solver._RectangleOps, "k_apply", "solver.k_apply"),
        (solver._RectangleOps, "div_dual", "solver.div_dual"),
        (diagnostics, "check_contraction", "diagnostics.check_contraction"),
    ]


class Tracer:
    """Install timing wrappers, collect spans, restore the originals."""

    def __init__(self, pmsflow):
        self._names = traced_names(pmsflow)
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = [0]
        self._ids = itertools.count(1)
        self.spans: list[tuple[int, int, str, int, int]] = []
        # Elements handed to the dual-radius solve, one entry per call.
        self.dual_radius_entries = 0

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, span_name in self._names:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, span_name: str):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns
        count_entries = span_name == "energy.dual_radius"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            if count_entries:
                self.dual_radius_entries += getattr(args[0], "size", 1)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, span_name, start, end))

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus its direct children's.  The
        program is single-threaded, so children never overlap each other.
        """
        duration = {}
        child_ns = defaultdict(int)
        for span_id, parent, _, start, end in self.spans:
            duration[span_id] = end - start
            child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, _, name, _, _ in self.spans:
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += duration[span_id] * 1e-9
            agg["self_s"] += (duration[span_id] - child_ns[span_id]) * 1e-9
        return out

    def write_csv(self, path) -> None:
        """Write every span, times in ns relative to the first span start."""
        origin = min((s[3] for s in self.spans), default=0)
        lines = ["id,parent,name,start_ns,end_ns"]
        lines.extend(
            f"{i},{p},{name},{start - origin},{end - origin}"
            for i, p, name, start, end in self.spans
        )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
