"""End-to-end acceptance suite: ten criteria the solver is gated on.

``_CRITERIA`` is the one table of criteria: (name, check, budget) in
criterion order.  A check returns (margin, location, detail).  The margin
is the signed distance of the worst observation from its bound, so a
margin <= 0 passes and a negative margin says how much room was left; the
location says where that observation was made (a time, a run and step, a
problem).  ``run_acceptance`` turns each result into the criterion's
Verdict, with tolerance 0.  Expensive evolutions are shared through a
per-call cache, so the conservation/dissipation criterion runs last and
audits every run the other criteria produced.  Wall-clock budgets apply to
the criteria that trigger the big runs; exceeding a budget fails the
criterion even when its margin passes.

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
                               match a self-certifying banded primal Newton
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
from time import perf_counter

import numpy as np

from .diagnostics import (
    Verdict,
    check_contraction,
    check_ut_decay,
    regularization_time,
    smoothness_gates,
    structural_gates,
)
from .grid import CellField, cell_norm, interval_grid
from .initial_data import quarter_circles, random_piecewise
from .reference import QuarterCircleProfile, RadialSubsolution
from .runner import _evolve_config, _resolve
from .solver import SolverConfig, evolve, implicit_step

__all__ = ["run_acceptance", "CRITERIA_NAMES"]

class _Workspace:
    """Cache of the evolutions shared between criteria, seeded once.

    Runs that are presets of ``pmsflow run`` come from the runner's preset
    table.
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
            cfg = SolverConfig(tau=1e-3)
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
            cfg = SolverConfig(tau=1e-3, inner_tol=1e-11)
            self.runs["bounded_variation"] = evolve(u0, 0.5, cfg)
        return self.runs["bounded_variation"]

    def preset_run(self, experiment: str):
        """A named preset exactly as ``pmsflow run`` evolves it."""
        if experiment not in self.runs:
            self.runs[experiment] = _evolve_config(_resolve(experiment, {}))
        return self.runs[experiment]


def _weighted_error(grid, values, exact) -> float:
    return cell_norm(CellField(grid, values - exact))


def _closest(parts):
    """(margin, label, location) of the (label, Verdict) part with the
    largest ``worst_violation - tolerance``; the first such part wins a tie."""
    return max(
        ((v.worst_violation - v.tolerance, label, v.location) for label, v in parts),
        key=lambda part: part[0],
    )


def _quarter_circle_accuracy(ws: _Workspace):
    """Criterion 1: snapshot error <= 0.02, refinement gain >= 1.4."""
    profile = QuarterCircleProfile(c=1.0)

    def worst_error(run):
        x = run.grid.cell_centers[0]
        return max(
            (_weighted_error(run.grid, u.values, profile.solution(ts, x)), ts)
            for ts, u, _ in run.snapshots
        )

    coarse, at = worst_error(ws.qc_run(400, 1e-3))
    fine, _ = worst_error(ws.qc_run(800, 5e-4))
    ratio = coarse / fine if fine > 0 else np.inf
    margin = max(coarse - 0.02, 1.4 - ratio)
    return margin, f"t = {at}", (
        f"worst error {coarse:.4f} (<= 0.02) at t = {at}, "
        f"refinement ratio {ratio:.2f} (>= 1.4)"
    )


def _jump_persistence(ws: _Workspace):
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
    height_dev, at = max(
        (abs(rec.max_face_diff - (2.0 - 2.0 * rec.t)), rec.t)
        for rec in run.records
        if 0.1 - 1e-12 <= rec.t <= 0.8 + 1e-12
    )
    margin = max(reg_violation, height_dev - 0.25)
    return margin, f"t = {at}", (
        f"{reg_text}; worst height deviation {height_dev:.4f} (<= 0.25) at t = {at}"
    )


def _unit_vertical_speed(ws: _Workspace):
    """Criterion 3: backward quotients on the upper branch equal -1 +- 0.05."""
    run = ws.persist_run()
    x = run.grid.cell_centers[0]
    sel = (x > 0.1) & (x < 0.8)
    tau = run.config.tau
    devs = []
    for k in range(1, len(run.states)):
        t = float(run.times[k])
        if 0.1 - 1e-12 <= t <= 0.4 + 1e-12:
            quotient = (run.states[k].values[sel] - run.states[k - 1].values[sel]) / tau
            devs.append((float(np.max(np.abs(quotient + 1.0))), t))
    worst, at = max(devs)
    return worst - 0.05, f"t = {at}", (
        f"largest deviation from speed -1 is {worst:.4f} (<= 0.05) at t = {at} "
        "over x in (0.1, 0.8), t in [0.1, 0.4]"
    )


def _conservation_and_dissipation(ws: _Workspace):
    """Criterion 4: every cached run conserves mass, dissipates energy up to
    its inner tolerance, and never raises the sup norm beyond 1e-10."""
    labels = ("mean drift", "energy increase", "sup increase")
    margin, where, step = _closest(
        (f"{name}: {label}", gate)
        for name in sorted(ws.runs)
        for label, gate in zip(labels, structural_gates(ws.runs[name]))
    )
    where = f"{where} at step {step}"
    return margin, where, (
        f"audited {len(ws.runs)} runs; closest call {margin:.3e} at {where}"
    )


def _velocity_decay(ws: _Workspace):
    """Criterion 5: |u_t(t)|_w <= 1.5 |u0|_w / t on the jump run and on
    seeded bounded-variation data."""
    margin, label, t = _closest(
        (
            ("quarter_circle_400", check_ut_decay(ws.qc_run(400, 1e-3))),
            ("bounded_variation", check_ut_decay(ws.bv_run())),
        )
    )
    where = f"{label} at t = {t}"
    return margin, where, (
        f"largest excess over 1.5 |u0|_w / t is {margin:.3e} ({where})"
    )


def _smooth_flattening(ws: _Workspace):
    """Criterion 6: cosine data keeps lip and sup velocity nonincreasing
    (1e-6 slack) and is flat to 1e-2 at t = 2."""
    run = ws.preset_run("smooth_cosine")
    lip, ut = smoothness_gates(run)
    margin, where, step = _closest((("lip increase", lip), ("ut_sup increase", ut)))
    final_sup = run.records[-1].sup_norm
    if final_sup - 1e-2 > margin:
        margin, where, step = final_sup - 1e-2, "final sup", len(run.records) - 1
    return margin, f"{where} at step {step}", (
        f"lip increment {lip.worst_violation:.2e} at step {lip.location}, "
        f"ut_sup increment {ut.worst_violation:.2e} at step {ut.location} "
        f"(both <= 1e-6), final sup {final_sup:.2e} (<= 1e-2)"
    )


def _primal_step_oracle(grid, u_prev: np.ndarray, tau: float):
    """Reference minimizer of one implicit step on a one-axis grid, sharing
    no code with the solver: damped Newton on F(v) = sum W sqrt(1 + (D v)^2)
    + sum V (v - u_prev)^2 / (2 tau), with D v = np.diff(v) / h the face
    difference quotient, W the face weights and V the cell volumes.  Its
    Hessian D^T diag(W (1 + (D v)^2)^(-3/2)) D + diag(V / tau) is
    tridiagonal and positive definite; an LDL^T elimination of its bands,
    written here, solves it in O(n).  Steps are halved until the
    stationarity residual |grad F / V|_V falls, and it stops where a full
    step no longer lowers a residual that lies under its rounding floor:
    eps times the same norm of the gradient's terms, counting the rounding
    of D v that reaches the flux.  F is (1/tau)-strongly convex in the
    V-norm, so the returned v lies within tau times the returned residual
    of the minimizer.  RuntimeError where the residual stalls above the
    floor."""
    h, eps = grid.spacing[0], np.finfo(float).eps
    w, vol = grid.face_weights[0], grid.cell_volumes

    def evaluate(v):
        q = np.diff(v) / h
        root = np.sqrt(1.0 + q * q)
        grad = -np.diff(w * q / root, prepend=0.0, append=0.0) / h + vol * (v - u_prev) / tau
        flux_terms = w * (np.abs(q) + (np.abs(v[:-1]) + np.abs(v[1:])) / (h * root * root)) / root
        flux_terms = np.concatenate(([0.0], flux_terms, [0.0]))
        terms = (flux_terms[:-1] + flux_terms[1:]) / h + vol * (np.abs(v) + np.abs(u_prev)) / tau
        norm = [float(np.sqrt(np.sum(g * g / vol))) for g in (grad, terms)]
        return v, root, grad, norm[0], eps * norm[1]

    def solve(root, rhs):  # LDL^T of the bands: diag d, off-diagonal -c
        c = (w / (h * h * root**3)).tolist()
        d = (vol / tau).tolist()
        for i, ci in enumerate(c):
            d[i] += ci
            d[i + 1] += ci
        x = rhs.tolist()
        for i in range(1, len(d)):
            m = c[i - 1] / d[i - 1]
            d[i] -= m * c[i - 1]
            x[i] += m * x[i - 1]
        x[-1] /= d[-1]
        for i in range(len(d) - 2, -1, -1):
            x[i] = (x[i] + c[i] * x[i + 1]) / d[i]
        return np.array(x)

    v, root, grad, residual, floor = evaluate(np.array(u_prev, dtype=float))
    for _ in range(100):
        step, length = solve(root, -grad), 1.0
        while (trial := evaluate(v + length * step))[3] >= (1.0 - 1e-4 * length) * residual:
            if residual <= floor:  # a full step no longer helps: rounding
                return v, residual
            length *= 0.5
            if length < 1e-12:
                raise RuntimeError(f"step oracle stalled at residual {residual:.3e} "
                                   f"above its rounding floor {floor:.3e}")
        v, root, grad, residual, floor = trial
    raise RuntimeError(f"step oracle still at residual {residual:.3e} after 100 steps")


def _small_problem_exactness(ws: _Workspace):
    """Criterion 7: implicit steps match the primal Newton step oracle to
    1e-6 per cell on twenty random 5-cell problems; the detail adds the
    oracle's own certified per-cell error, tau * residual / sqrt(min V)."""
    grid = interval_grid(0.0, 2.0, 5)
    rng = np.random.default_rng(ws.oracle_seed)
    devs, oracle_error = [], 0.0
    for k in range(20):
        tau = 0.05 if k % 2 == 0 else 0.5
        u_prev = CellField(grid, rng.uniform(-1.0, 1.0, size=5))
        res = implicit_step(u_prev, SolverConfig(tau=tau, inner_tol=1e-12))
        oracle, residual = _primal_step_oracle(grid, u_prev.values, tau)
        dev = float(np.max(np.abs(res.u_next.values - oracle)))
        devs.append((dev, f"problem {k} (tau = {tau})"))
        oracle_error = max(oracle_error, tau * residual / np.sqrt(grid.cell_volumes.min()))
    worst, where = max(devs)
    return worst - 1e-6, where, (
        f"largest per-cell deviation from the oracle {worst:.3e} (<= 1e-6) at {where}; "
        f"the oracle is certified within {oracle_error:.1e} per cell"
    )


def _contraction(ws: _Workspace):
    """Criterion 8: runs from ten random data pairs stay nonexpanding in the
    weighted norm up to twice the inner tolerance per step."""
    grid = interval_grid(0.0, 1.0, 64)
    cfg = SolverConfig(tau=5e-3, inner_tol=1e-10)
    rng = np.random.default_rng(ws.pair_seed)
    pairs = []
    for k in range(10):
        u0a = random_piecewise(grid, rng, pieces=6, amplitude=1.0)
        u0b = random_piecewise(grid, rng, pieces=6, amplitude=1.0)
        ta = evolve(u0a, 0.1, cfg, keep="all")
        tb = evolve(u0b, 0.1, cfg, keep="all")
        ws.runs[f"contraction_pair_{k}a"] = ta
        ws.runs[f"contraction_pair_{k}b"] = tb
        pairs.append((f"pair {k}", check_contraction(ta, tb)))
    margin, where, step = _closest(pairs)
    where = f"{where} at step {step}"
    return margin, where, (
        f"largest distance growth beyond the {pairs[0][1].tolerance:.1e} "
        f"allowance is {margin:.3e} ({where})"
    )


def _steep_spike_persistence(ws: _Workspace):
    """Criterion 9: the spike keeps slope >= 5 through t = 0.4, and the 1/r
    comparison profile has nonpositive residual off its kink."""
    run = ws.preset_run("radial_spike")
    lip = run.series("lip")
    min_lip = float(np.min(lip))
    lip_at = float(run.times[int(np.argmin(lip))])
    sub = RadialSubsolution(dimension=3)
    rs = np.linspace(0.01, 1.0, 100)
    worst_res = max(
        float(np.max(sub.residual(t, rs))) for t in np.linspace(0.01, 0.45, 100)
    )
    margin = max(5.0 - min_lip, worst_res)
    return margin, f"t = {lip_at}", (
        f"smallest slope bound {min_lip:.2f} (>= 5) at t = {lip_at}; "
        f"largest subsolution residual {worst_res:.3e} (<= 0)"
    )


def _grid_convergence(ws: _Workspace):
    """Criterion 10: refinement differences at t = 0.3 shrink."""
    runs = [ws.qc_run(200, 2e-3), ws.qc_run(400, 1e-3), ws.qc_run(800, 5e-4)]
    states = [run.snapshot_at(0.3)[1].values for run in runs]

    def restrict(fine):
        return 0.5 * (fine[0::2] + fine[1::2])

    d_coarse = _weighted_error(runs[0].grid, restrict(states[1]), states[0])
    d_fine = _weighted_error(runs[1].grid, restrict(states[2]), states[1])
    return d_fine - d_coarse, "t = 0.3", (
        f"refinement differences {d_coarse:.5f} -> {d_fine:.5f} (must decrease)"
    )


# (name, check, wall-clock budget in seconds or None), in criterion order.
_CRITERIA = (
    ("quarter_circle_accuracy", _quarter_circle_accuracy, 120.0),
    ("jump_persistence", _jump_persistence, 240.0),
    ("unit_vertical_speed", _unit_vertical_speed, None),
    ("conservation_and_dissipation", _conservation_and_dissipation, None),
    ("velocity_decay", _velocity_decay, None),
    ("smooth_flattening", _smooth_flattening, None),
    ("small_problem_exactness", _small_problem_exactness, 30.0),
    ("contraction", _contraction, None),
    ("steep_spike_persistence", _steep_spike_persistence, 180.0),
    ("grid_convergence", _grid_convergence, None),
)

CRITERIA_NAMES = tuple(name for name, _, _ in _CRITERIA)

# Audits every cached run, so it executes after the others.
_AUDIT = "conservation_and_dissipation"


def run_acceptance(seed: int = 0, progress=None) -> list[Verdict]:
    """Run all ten criteria and return their Verdicts in criterion order.

    Each Verdict has tolerance 0 and the criterion's signed margin as
    ``worst_violation``; it passes iff the margin is <= 0 and the criterion
    stayed within its wall-clock budget.  ``seed`` feeds the randomized
    criteria (5, 7, 8); ``progress`` is an optional callable receiving one
    line per finished criterion.
    """
    ws = _Workspace(seed)
    count = len(_CRITERIA)
    verdicts: list[Verdict | None] = [None] * count
    for i in sorted(range(count), key=lambda i: _CRITERIA[i][0] == _AUDIT):
        name, check, budget = _CRITERIA[i]
        start = perf_counter()
        margin, location, detail = check(ws)
        elapsed = perf_counter() - start
        detail = f"{detail}; elapsed {elapsed:.1f}s"
        overrun = budget is not None and elapsed > budget
        if overrun:
            detail += f" EXCEEDS budget {budget:.0f}s"
        verdicts[i] = Verdict(
            name=name,
            passed=margin <= 0.0 and not overrun,
            worst_violation=float(margin),
            location=location,
            tolerance=0.0,
            detail=detail,
        )
        if progress is not None:
            status = "PASS" if verdicts[i].passed else "FAIL"
            progress(f"[{i + 1:2d}/{count}] {name}: {status} ({elapsed:.1f}s)")
    return verdicts
