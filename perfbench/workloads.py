"""The three benchmark workloads: set-up, the timed call, and output checks.

Each workload has three parts:

* ``setup(pm, seed)`` resolves the configuration and builds the inputs.  It
  is timed as part of ``setup_s``.
* ``execute(pm, inputs, out_dir)`` makes the calls a user would make.  It is
  timed as ``wall_s`` and is the only part that runs under the tracer.
* ``check(pm, inputs, outputs, out_dir)`` verifies every output and gathers
  the exact counters.  It is not timed.

One operation is one ``evolve`` run together with its checks.  A failing
operation is counted as failed, not dropped.  ``pm`` is the ``pmsflow``
package of the checkout under test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# Largest weighted-L2 snapshot error against the closed form allowed on
# quarter_circles; acceptance criterion 1 uses the same bound.
REF_ERR_BOUND = 0.02


@dataclass
class Outcome:
    """Checks and exact counters of one workload execution."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_ops: set = field(default_factory=set)
    steps: int = 0
    inner_iters: int = 0
    inner_iters_max: int = 0
    cert_checks: int = 0
    nonconverged: int = 0
    csv_bytes: int = 0
    ref_err: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)

    def fail(self, op, reason: str) -> None:
        self.failed_ops.add(op)
        self.failures.append(f"{op}: {reason}")

    def count_trajectory(self, traj) -> None:
        """Add one trajectory's steps, inner iterations and certificate checks."""
        cfg = traj.config
        iters = [int(k) for k in traj.inner_iters]
        self.steps += len(iters)
        self.inner_iters += sum(iters)
        self.inner_iters_max = max([self.inner_iters_max] + iters)
        self.cert_checks += sum(_certificate_checks(k, cfg) for k in iters)

    def check_certificates(self, op, traj) -> None:
        worst = float(np.max(traj.kkt_residuals))
        if not worst <= traj.config.inner_tol:
            self.fail(op, f"certificate residual {worst:.3e} > {traj.config.inner_tol:g}")


def _certificate_checks(k: int, cfg) -> int:
    """Certificate evaluations in a step that ended after k inner iterations.

    ``implicit_step`` evaluates its certificate at iteration 1, at every
    multiple of ``check_every`` and at ``max_inner``; a step ends only at an
    evaluation, so a step of k iterations made exactly this many.
    """
    every = cfg.check_every
    n = k // every + (every > 1)
    if k == cfg.max_inner and k % every and k > 1:
        n += 1
    return n


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_gates(outcome: Outcome, op, gates) -> None:
    for g in gates:
        if not g.passed:
            outcome.fail(op, f"gate {g.name} failed: {g.detail}")


def _check_trajectory(outcome: Outcome, op, traj) -> None:
    outcome.count_trajectory(traj)
    outcome.check_certificates(op, traj)


def runner_execute(pm, cfg, out_dir: Path):
    """``runner.run`` as ``pmsflow run`` calls it; a non-convergence is kept."""
    try:
        return pm.runner.run(cfg, out_dir)
    except pm.solver.NonConvergenceError as exc:
        return exc


def runner_check(pm, cfg, report, out_dir: Path) -> Outcome:
    """One operation: its certificates, the runner's own gates and the CSVs."""
    outcome = Outcome(attempted=1)
    op = cfg.experiment
    if isinstance(report, pm.solver.NonConvergenceError):
        outcome.nonconverged += 1
        outcome.fail(op, f"did not converge: {report}")
        return outcome
    _check_trajectory(outcome, op, report.trajectory)
    _check_gates(outcome, op, report.gates)
    if not report.passed:
        outcome.fail(op, "runner reported overall FAIL")
    written = [report.series_path, *report.snapshot_paths]
    outcome.csv_bytes += sum(p.stat().st_size for p in written)
    outcome.digests["series.csv"] = _sha256(report.series_path)
    return outcome


# ------------------------------------------------------------ quarter_circles


def qc_setup(pm, seed: int):
    """The shipped preset exactly as ``pmsflow run`` loads it; no seeded input."""
    return pm.runner.load_config(HERE / "quarter_circles.yaml")


def qc_check(pm, cfg, report, out_dir: Path) -> Outcome:
    """Runner checks plus the largest snapshot error against the closed form."""
    outcome = runner_check(pm, cfg, report, out_dir)
    if outcome.failed_ops:
        return outcome
    traj = report.trajectory
    profile = pm.QuarterCircleProfile(c=float(cfg.initial["c"]))
    x = traj.grid.cell_centers[0]
    vol = traj.grid.cell_volumes
    errors = [
        float(np.sqrt(np.sum(vol * (u.values - profile.solution(t, x)) ** 2)))
        for t, u, _ in traj.snapshots
    ]
    op = cfg.experiment
    if len(errors) != len(cfg.snapshot_times):
        outcome.fail(op, f"{len(errors)} snapshots, expected {len(cfg.snapshot_times)}")
    outcome.ref_err = max(errors, default=float("inf"))
    if not outcome.ref_err <= REF_ERR_BOUND:
        outcome.fail(op, f"reference error {outcome.ref_err:.3e} > {REF_ERR_BOUND}")
    return outcome


# ----------------------------------------------------------- rectangle_cosine

RECT_GRID = {"kind": "rectangle", "lo": [0.0, 0.0], "hi": [1.0, 1.0], "cells": [96, 96]}
# s/sigma for the rectangle; the symmetric default needs ~2 000 inner
# iterations per step here, this ratio about 184.
RECT_STEP_RATIO = 3e-3


def _balanced_steps(pm, grid, ratio: float) -> tuple[float, float]:
    """sigma and s with s/sigma = ratio and s*sigma = 1/L^2."""
    bound = pm.solver.operator_norm_bound(grid)
    root = float(np.sqrt(ratio))
    return 1.0 / (bound * root), root / bound


def rect_setup(pm, seed: int):
    """A 96x96 cosine on the unit square; no seeded input."""
    sigma, s = _balanced_steps(pm, pm.grid.build_grid(RECT_GRID), RECT_STEP_RATIO)
    return pm.runner.RunConfig(
        experiment="custom",
        grid=dict(RECT_GRID),
        initial={"type": "cosine", "amplitude": 0.5},
        tau=1e-3,
        t_end=0.05,
        snapshot_times=(0.0, 0.05),
        kappa=None,
        inner_tol=1e-8,
        max_inner=20000,
        theta=1.0,
        check_every=16,
        sigma=sigma,
        s=s,
    )


# ---------------------------------------------------------- contraction_pairs

PAIR_CELLS = 64
PAIR_STEP_RATIO = 0.01


@dataclass
class PairInputs:
    cfg: object
    t_end: float
    data: list  # (u0_a, u0_b) CellField pairs


def pairs_setup(pm, seed: int, pairs: int = 10) -> PairInputs:
    """``pairs`` pairs of 6-piece random data drawn from the workload seed.

    This is the load of acceptance criterion 8, built from public calls.
    """
    grid_spec = {"kind": "interval", "lo": 0.0, "hi": 1.0, "cells": PAIR_CELLS}
    grid = pm.grid.build_grid(grid_spec)
    sigma, s = _balanced_steps(pm, grid, PAIR_STEP_RATIO)
    cfg = pm.solver.SolverConfig(tau=5e-3, inner_tol=1e-10, sigma=sigma, s=s)
    data_seeds = np.random.SeedSequence(seed).generate_state(2 * pairs)
    fields = [
        pm.initial_data.build_initial(
            grid,
            {"type": "random_piecewise", "seed": int(k), "pieces": 6, "amplitude": 1.0},
        )
        for k in data_seeds
    ]
    return PairInputs(cfg=cfg, t_end=0.1, data=list(zip(fields[0::2], fields[1::2])))


def pairs_execute(pm, inputs: PairInputs, out_dir: Path):
    """Every run cold-started with keep="all", then one verdict per pair."""
    results = []
    for u0a, u0b in inputs.data:
        runs = []
        for u0 in (u0a, u0b):
            try:
                runs.append(pm.solver.evolve(u0, inputs.t_end, inputs.cfg, keep="all"))
            except pm.solver.NonConvergenceError as exc:
                runs.append(exc)
        verdict = None
        if not any(isinstance(r, Exception) for r in runs):
            verdict = pm.diagnostics.check_contraction(*runs)
        results.append((runs, verdict))
    return results


def pairs_check(pm, inputs: PairInputs, results, out_dir: Path) -> Outcome:
    outcome = Outcome()
    digest = hashlib.sha256()
    for k, (runs, verdict) in enumerate(results):
        ops = (f"pair{k}a", f"pair{k}b")
        for op, traj in zip(ops, runs):
            outcome.attempted += 1
            if isinstance(traj, pm.solver.NonConvergenceError):
                outcome.nonconverged += 1
                outcome.fail(op, f"did not converge: {traj}")
                continue
            _check_trajectory(outcome, op, traj)
            # The gates runner.run applies to a custom run.
            _check_gates(outcome, op, pm.runner._gate_verdicts(traj, "custom"))
            for state in traj.states:
                digest.update(state.values.tobytes())
        if verdict is not None and not verdict.passed:
            for op in ops:
                outcome.fail(op, f"contraction failed: {verdict.detail}")
    outcome.digests["states"] = digest.hexdigest()
    return outcome


WORKLOADS = {
    "quarter_circles": (qc_setup, runner_execute, qc_check),
    "rectangle_cosine": (rect_setup, runner_execute, runner_check),
    "contraction_pairs": (pairs_setup, pairs_execute, pairs_check),
}
