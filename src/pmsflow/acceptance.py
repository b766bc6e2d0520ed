"""End-to-end acceptance suite: ten criteria the solver is gated on.

Each criterion reports one Verdict.  Expensive evolutions are shared through
a per-call cache, so the conservation/dissipation criterion audits every run
the other criteria produced.  Wall-clock budgets apply to the criteria that
trigger the big runs; exceeding a budget fails the criterion even when the
mathematical check passes.

The checks, in order:

 1. quarter_circle_accuracy    solution error against the closed-form paired
                               quarter-circle profile, plus improvement
                               under one grid/step refinement
 2. jump_persistence           the initial jump survives for the predicted
                               time span and its height tracks the linear
                               decay law before regularization
 3. unit_vertical_speed        the smooth upper branch moves at speed -1
 4. conservation_and_dissipation   every cached run conserves the weighted
                               mean, dissipates energy up to inner_tol, and
                               never increases the sup norm beyond 1e-10
 5. velocity_decay             |u_t(t)|_w <= 1.5 |u0|_w / t
 6. smooth_flattening          smooth data: Lipschitz bound and sup velocity
                               nonincreasing, profile nearly flat at the end
 7. small_problem_exactness    implicit steps on random 5-cell problems
                               match a derivative-free coordinate-descent
                               oracle to 1e-6 per cell
 8. contraction                weighted-L2 distance of random run pairs is
                               nonexpanding up to the inner tolerance
 9. steep_spike_persistence    a capped 1/r spike in three dimensions stays
                               steep, and the 1/r comparison profile is a
                               subsolution wherever it is differentiable
10. grid_convergence           successive grid refinements of the jump
                               profile approach each other
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .diagnostics import (
    Verdict,
    check_contraction,
    check_ut_decay,
    regularization_time,
    smoothness_gates,
    structural_gates,
)
from .grid import CellField, interval_grid
from .initial_data import quarter_circles, random_piecewise
from .reference import QuarterCircleProfile, RadialSubsolution
from .runner import _evolve_config, _resolve
from .solver import SolverConfig, balanced_steps, evolve, implicit_step

__all__ = ["run_acceptance", "CRITERIA_NAMES"]

CRITERIA_NAMES = (
    "quarter_circle_accuracy",
    "jump_persistence",
    "unit_vertical_speed",
    "conservation_and_dissipation",
    "velocity_decay",
    "smooth_flattening",
    "small_problem_exactness",
    "contraction",
    "steep_spike_persistence",
    "grid_convergence",
)

_BUDGETS = {1: 120.0, 2: 240.0, 7: 30.0, 9: 180.0}


class _Workspace:
    """Cache of the evolutions shared between criteria, seeded once.

    Runs that are presets of ``pmsflow run`` come from the runner's preset
    table; the others pick their step ratio by measurement on each suite run.
    """

    def __init__(self, seed: int):
        self.runs: dict[str, object] = {}
        children = np.random.SeedSequence(seed).spawn(3)
        self.bv_seed, self.oracle_seed, self.pair_seed = children

    def qc_run(self, cells: int, tau: float):
        """The quarter_circles preset on ``cells`` cells with step ``tau``,
        detecting jumps at the default threshold."""
        key = f"quarter_circle_{cells}"
        if key not in self.runs:
            cfg = _resolve("quarter_circles", {})
            cfg = dataclasses.replace(
                cfg, grid=dict(cfg.grid, cells=cells), tau=tau, kappa=None
            )
            self.runs[key] = _evolve_config(cfg)
        return self.runs[key]

    def persist_run(self):
        """Tall jump (c = 2) on a fine grid, run past its closing time."""
        if "jump_persistence" not in self.runs:
            grid = interval_grid(0.0, 2.0, 800)
            u0 = quarter_circles(grid, c=2.0)
            sigma, s = balanced_steps(grid, 0.03)
            cfg = SolverConfig(tau=1e-3, sigma=sigma, s=s)
            self.runs["jump_persistence"] = evolve(
                u0, 1.15, cfg, kappa=0.3, keep="all"
            )
        return self.runs["jump_persistence"]

    def bv_run(self):
        """Seeded piecewise-constant data of bounded variation on (0, 1)."""
        if "bounded_variation" not in self.runs:
            grid = interval_grid(0.0, 1.0, 100)
            rng = np.random.default_rng(self.bv_seed)
            u0 = random_piecewise(grid, rng, pieces=10, amplitude=1.0)
            sigma, s = balanced_steps(grid, 3e-3)
            cfg = SolverConfig(tau=1e-3, inner_tol=1e-11, sigma=sigma, s=s)
            self.runs["bounded_variation"] = evolve(u0, 0.5, cfg)
        return self.runs["bounded_variation"]

    def preset_run(self, experiment: str):
        """A named preset exactly as ``pmsflow run`` evolves it."""
        if experiment not in self.runs:
            self.runs[experiment] = _evolve_config(_resolve(experiment, {}))
        return self.runs[experiment]


def _weighted_error(grid, values, exact) -> float:
    return float(np.sqrt(np.sum(grid.cell_volumes * (values - exact) ** 2)))


def _quarter_circle_accuracy(ws: _Workspace) -> Verdict:
    """Criterion 1: snapshot error <= 0.02, refinement gain >= 1.4."""
    profile = QuarterCircleProfile(c=1.0)

    def worst_error(run):
        x = run.grid.cell_centers[0]
        worst, at = 0.0, None
        for ts, u, _ in run.snapshots:
            err = _weighted_error(run.grid, u.values, profile.solution(ts, x))
            if err > worst:
                worst, at = err, ts
        return worst, at

    coarse, at = worst_error(ws.qc_run(400, 1e-3))
    fine, _ = worst_error(ws.qc_run(800, 5e-4))
    ratio = coarse / fine if fine > 0 else np.inf
    worst = max(coarse - 0.02, 1.4 - ratio)
    return Verdict(
        name=CRITERIA_NAMES[0],
        passed=worst <= 0.0,
        worst_violation=worst,
        location=at,
        tolerance=0.0,
        detail=f"worst error {coarse:.4f} (<= 0.02) at t = {at}, "
        f"refinement ratio {ratio:.2f} (>= 1.4)",
    )


def _jump_persistence(ws: _Workspace) -> Verdict:
    """Criterion 2: regularization lands in [0.9, 1.1]; until then the
    largest face difference tracks the closing law c - 2t within 0.25."""
    run = ws.persist_run()
    reg = regularization_time(run)
    if reg is None:
        reg_violation = np.inf
        reg_text = "jump persists through the final record"
    else:
        reg_violation = max(0.9 - reg, reg - 1.1)
        reg_text = f"regularization at t = {reg:.3f} (window [0.9, 1.1])"
    height_dev, at = 0.0, None
    for rec in run.records:
        if not 0.1 - 1e-12 <= rec.t <= 0.8 + 1e-12:
            continue
        dev = abs(rec.max_face_diff - (2.0 - 2.0 * rec.t))
        if dev > height_dev:
            height_dev, at = dev, rec.t
    worst = max(reg_violation, height_dev - 0.25)
    return Verdict(
        name=CRITERIA_NAMES[1],
        passed=worst <= 0.0,
        worst_violation=worst,
        location=at,
        tolerance=0.0,
        detail=f"{reg_text}; worst height deviation {height_dev:.4f} "
        f"(<= 0.25) at t = {at}",
    )


def _unit_vertical_speed(ws: _Workspace) -> Verdict:
    """Criterion 3: backward quotients on the upper branch equal -1 +- 0.05."""
    run = ws.persist_run()
    x = run.grid.cell_centers[0]
    sel = (x > 0.1) & (x < 0.8)
    tau = run.config.tau
    worst, at = 0.0, None
    for k in range(1, len(run.states)):
        t = float(run.times[k])
        if not 0.1 - 1e-12 <= t <= 0.4 + 1e-12:
            continue
        quotient = (run.states[k].values[sel] - run.states[k - 1].values[sel]) / tau
        dev = float(np.max(np.abs(quotient + 1.0)))
        if dev > worst:
            worst, at = dev, t
    return Verdict(
        name=CRITERIA_NAMES[2],
        passed=worst <= 0.05,
        worst_violation=worst,
        location=at,
        tolerance=0.05,
        detail=f"largest deviation from speed -1 is {worst:.4f} at t = {at} "
        "over x in (0.1, 0.8), t in [0.1, 0.4]",
    )


def _conservation_and_dissipation(ws: _Workspace) -> Verdict:
    """Criterion 4: every cached run conserves mass, dissipates energy up to
    its inner tolerance, and never raises the sup norm beyond 1e-10."""
    worst, where = -np.inf, None
    audited = 0
    for name in sorted(ws.runs):
        run = ws.runs[name]
        audited += 1
        labels = ("mean drift", "energy increase", "sup increase")
        for label, gate in zip(labels, structural_gates(run)):
            violation = gate.worst_violation - gate.tolerance
            if violation > worst:
                worst, where = violation, f"{name}: {label}"
    return Verdict(
        name=CRITERIA_NAMES[3],
        passed=worst <= 0.0,
        worst_violation=worst,
        location=where,
        tolerance=0.0,
        detail=f"audited {audited} runs; closest call {worst:.3e} at {where}",
    )


def _velocity_decay(ws: _Workspace) -> Verdict:
    """Criterion 5: |u_t(t)|_w <= 1.5 |u0|_w / t on the jump run and on
    seeded bounded-variation data."""
    verdicts = [
        ("quarter_circle_400", check_ut_decay(ws.qc_run(400, 1e-3))),
        ("bounded_variation", check_ut_decay(ws.bv_run())),
    ]
    worst, where = -np.inf, None
    for label, v in verdicts:
        if v.worst_violation > worst:
            worst, where = v.worst_violation, f"{label} at t = {v.location}"
    return Verdict(
        name=CRITERIA_NAMES[4],
        passed=worst <= 0.0,
        worst_violation=worst,
        location=where,
        tolerance=0.0,
        detail=f"largest excess over 1.5 |u0|_w / t is {worst:.3e} ({where})",
    )


def _smooth_flattening(ws: _Workspace) -> Verdict:
    """Criterion 6: cosine data keeps lip and sup velocity nonincreasing
    (1e-6 slack) and is flat to 1e-2 at t = 2."""
    run = ws.preset_run("smooth_cosine")
    lip, ut = smoothness_gates(run)
    final_sup = run.records[-1].sup_norm
    parts = (
        ("lip increase", lip.worst_violation - lip.tolerance),
        ("ut_sup increase", ut.worst_violation - ut.tolerance),
        ("final sup", final_sup - 1e-2),
    )
    worst, where = max((v, w) for w, v in parts)
    return Verdict(
        name=CRITERIA_NAMES[5],
        passed=worst <= 0.0,
        worst_violation=worst,
        location=where,
        tolerance=0.0,
        detail=f"lip increment {lip.worst_violation:.2e}, ut_sup increment "
        f"{ut.worst_violation:.2e} (both <= 1e-6), final sup "
        f"{final_sup:.2e} (<= 1e-2)",
    )


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, a: float, b: float, xtol: float) -> float:
    """Golden-section minimizer of a unimodal scalar function on [a, b]."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _descent_oracle(grid, u_prev: np.ndarray, tau: float) -> np.ndarray:
    """Derivative-free minimizer of the implicit step objective.

    Cyclic coordinate descent with golden-section line searches against an
    inline face-sum energy; shares no code with the solver.
    """
    h = float(grid.spacing[0])
    w = grid.face_weights[0]
    vol = grid.cell_volumes
    n = u_prev.size
    v = u_prev.copy()
    lo = float(u_prev.min()) - 2.0
    hi = float(u_prev.max()) + 2.0

    def line_objective(i, x):
        val = vol[i] * (x - u_prev[i]) ** 2 / (2.0 * tau)
        if i > 0:
            val += w[i - 1] * np.sqrt(1.0 + ((x - v[i - 1]) / h) ** 2)
        if i < n - 1:
            val += w[i] * np.sqrt(1.0 + ((v[i + 1] - x) / h) ** 2)
        return val

    for _ in range(500):
        moved = 0.0
        for i in range(n):
            x_new = _golden_min(lambda x: line_objective(i, x), lo, hi, 1e-12)
            moved = max(moved, abs(x_new - v[i]))
            v[i] = x_new
        if moved <= 1e-11:
            break
    return v


def _small_problem_exactness(ws: _Workspace) -> Verdict:
    """Criterion 7: implicit steps match the coordinate-descent oracle to
    1e-6 per cell on twenty random 5-cell problems."""
    grid = interval_grid(0.0, 2.0, 5)
    rng = np.random.default_rng(ws.oracle_seed)
    worst, where = 0.0, None
    for k in range(20):
        tau = 0.05 if k % 2 == 0 else 0.5
        u_prev = CellField(grid, rng.uniform(-1.0, 1.0, size=5))
        cfg = SolverConfig(tau=tau, inner_tol=1e-12)
        res = implicit_step(u_prev, cfg)
        oracle = _descent_oracle(grid, u_prev.values, tau)
        dev = float(np.max(np.abs(res.u_next.values - oracle)))
        if dev > worst:
            worst, where = dev, f"problem {k} (tau = {tau})"
    return Verdict(
        name=CRITERIA_NAMES[6],
        passed=worst <= 1e-6,
        worst_violation=worst,
        location=where,
        tolerance=1e-6,
        detail=f"largest per-cell deviation from the oracle {worst:.3e} at {where}",
    )


def _contraction(ws: _Workspace) -> Verdict:
    """Criterion 8: runs from ten random data pairs stay nonexpanding in the
    weighted norm up to twice the inner tolerance per step."""
    grid = interval_grid(0.0, 1.0, 64)
    sigma, s = balanced_steps(grid, 0.01)
    cfg = SolverConfig(tau=5e-3, inner_tol=1e-10, sigma=sigma, s=s)
    rng = np.random.default_rng(ws.pair_seed)
    worst, where, allowance = -np.inf, None, 0.0
    for k in range(10):
        u0a = random_piecewise(grid, rng, pieces=6, amplitude=1.0)
        u0b = random_piecewise(grid, rng, pieces=6, amplitude=1.0)
        ta = evolve(u0a, 0.1, cfg, keep="all")
        tb = evolve(u0b, 0.1, cfg, keep="all")
        ws.runs[f"contraction_pair_{k}a"] = ta
        ws.runs[f"contraction_pair_{k}b"] = tb
        v = check_contraction(ta, tb)
        allowance = v.tolerance
        if v.worst_violation - v.tolerance > worst:
            worst, where = v.worst_violation - v.tolerance, f"pair {k}"
    return Verdict(
        name=CRITERIA_NAMES[7],
        passed=worst <= 0.0,
        worst_violation=worst,
        location=where,
        tolerance=0.0,
        detail=f"largest distance growth beyond the {allowance:.1e} "
        f"allowance is {worst:.3e} ({where})",
    )


def _steep_spike_persistence(ws: _Workspace) -> Verdict:
    """Criterion 9: the spike keeps slope >= 5 through t = 0.4, and the 1/r
    comparison profile has nonpositive residual off its kink."""
    run = ws.preset_run("radial_spike")
    lip = run.series("lip")
    min_lip = float(np.min(lip))
    lip_at = float(run.times[int(np.argmin(lip))])
    sub = RadialSubsolution(dimension=3)
    rs = np.linspace(0.01, 1.0, 100)
    worst_res = -np.inf
    for t in np.linspace(0.01, 0.45, 100):
        worst_res = max(worst_res, float(np.max(sub.residual(t, rs))))
    worst = max(5.0 - min_lip, worst_res)
    return Verdict(
        name=CRITERIA_NAMES[8],
        passed=worst <= 0.0,
        worst_violation=worst,
        location=lip_at,
        tolerance=0.0,
        detail=f"smallest slope bound {min_lip:.2f} (>= 5) at t = {lip_at}; "
        f"largest subsolution residual {worst_res:.3e} (<= 0)",
    )


def _grid_convergence(ws: _Workspace) -> Verdict:
    """Criterion 10: refinement differences at t = 0.3 shrink."""
    runs = [ws.qc_run(200, 2e-3), ws.qc_run(400, 1e-3), ws.qc_run(800, 5e-4)]
    states = [run.snapshot_at(0.3)[1].values for run in runs]

    def restrict(fine):
        return 0.5 * (fine[0::2] + fine[1::2])

    d_coarse = _weighted_error(runs[0].grid, restrict(states[1]), states[0])
    d_fine = _weighted_error(runs[1].grid, restrict(states[2]), states[1])
    worst = d_fine - d_coarse
    return Verdict(
        name=CRITERIA_NAMES[9],
        passed=worst <= 0.0,
        worst_violation=worst,
        location="t = 0.3",
        tolerance=0.0,
        detail=f"refinement differences {d_coarse:.5f} -> {d_fine:.5f} "
        "(must decrease)",
    )


_CRITERIA = {
    1: _quarter_circle_accuracy,
    2: _jump_persistence,
    3: _unit_vertical_speed,
    4: _conservation_and_dissipation,
    5: _velocity_decay,
    6: _smooth_flattening,
    7: _small_problem_exactness,
    8: _contraction,
    9: _steep_spike_persistence,
    10: _grid_convergence,
}

# Criterion 4 audits every cached run, so it executes after the others.
_EXECUTION_ORDER = (1, 2, 3, 5, 6, 7, 8, 9, 10, 4)


def run_acceptance(seed: int = 0, progress=None) -> list[Verdict]:
    """Run all ten criteria and return their Verdicts in criterion order.

    ``seed`` feeds the randomized criteria (5, 7, 8); ``progress`` is an
    optional callable receiving one line per finished criterion.
    """
    ws = _Workspace(seed)
    verdicts: dict[int, Verdict] = {}
    for idx in _EXECUTION_ORDER:
        start = time.perf_counter()
        verdict = _CRITERIA[idx](ws)
        elapsed = time.perf_counter() - start
        budget = _BUDGETS.get(idx)
        if budget is not None and elapsed > budget:
            verdict = dataclasses.replace(
                verdict,
                passed=False,
                detail=f"{verdict.detail}; elapsed {elapsed:.1f}s EXCEEDS "
                f"budget {budget:.0f}s",
            )
        else:
            verdict = dataclasses.replace(
                verdict, detail=f"{verdict.detail}; elapsed {elapsed:.1f}s"
            )
        verdicts[idx] = verdict
        if progress is not None:
            status = "PASS" if verdict.passed else "FAIL"
            progress(f"[{idx:2d}/10] {verdict.name}: {status} ({elapsed:.1f}s)")
    return [verdicts[i] for i in sorted(verdicts)]
