"""Per-step measurements and the checks the flow is gated on.

A ``DiagnosticRecord`` is recorded for every time level.  ``evolve``
measures its certified states in stacks, with one array call per
diagnostic over a whole stack, and ``measure``, the public entry point, is
the one-state case of the same routine, so a record has the same bits
whichever way it was made.  Checks consume the recorded series (or the
stored states, for the contraction check) and return ``Verdict`` objects.
A check reports its signed worst value and the place where it occurred,
never a clamped one: a passing run shows how much room it left (a
negative increment, a negative excess), and ``passed`` is exactly
``worst_violation <= tolerance``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .energy import _area, _make_ops
from .grid import CellField, _as_float, _differences, cell_norm

__all__ = [
    "DiagnosticRecord",
    "Verdict",
    "measure",
    "default_jump_threshold",
    "regularization_time",
    "check_monotone",
    "check_ut_decay",
    "check_contraction",
    "structural_gates",
    "smoothness_gates",
]


@dataclass(frozen=True)
class DiagnosticRecord:
    """Scalar measurements of one stored time level."""

    t: float
    energy: float
    mean: float
    sup_norm: float
    lip: float
    ut_l2: float
    ut_sup: float
    max_face_diff: float
    jump_count: int


# the field names in order: the series CSV's columns and Trajectory.series's keys
DiagnosticRecord.FIELDS = tuple(f.name for f in dataclasses.fields(DiagnosticRecord))


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check.

    ``worst_violation`` is the signed worst value the check observed and
    ``location`` where it occurred (a series index, a time, or a label);
    ``passed`` iff ``worst_violation <= tolerance``.  The acceptance suite
    stores its signed margin with tolerance 0, and also fails a criterion
    that overruns its wall-clock budget.
    """

    name: str
    passed: bool
    worst_violation: float
    location: object
    tolerance: float
    detail: str = ""


def measure(
    u: CellField,
    u_prev: CellField | None,
    t: float,
    tau: float,
    kappa: float,
) -> DiagnosticRecord:
    """Measure one time level; velocity entries are 0 when u_prev is None.

    The one-state case of ``_measure_stack``, which ``evolve`` hands its
    certified states in stacks.  ``tau`` and ``kappa`` must be positive
    finite numbers and ``u_prev`` must live on ``u``'s grid, else ValueError.
    """
    if u_prev is not None and not u.grid.same_layout(u_prev.grid):
        raise ValueError("u and u_prev live on different grids")
    if _as_float(tau, "tau") <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not 0 < kappa < math.inf:
        raise ValueError(f"jump threshold must be positive and finite, got kappa = {kappa}")
    prev = None if u_prev is None else u_prev.values[None]
    return _measure_stack(u.grid, u.values[None], prev, (t,), tau, kappa)[0]


def _measure_stack(grid, values, prev, times, tau, kappa) -> list[DiagnosticRecord]:
    """The records of a stack of states, one per leading index of ``values``.

    State k is recorded at ``times[k]`` and stepped from ``prev[k]``
    (velocity entries 0 when ``prev`` is None); ``tau`` and ``kappa`` are
    those ``measure`` validates.  Each diagnostic is one array call over the
    whole stack, and each reduction runs over one state's entries in the
    order a lone state's would, so a record does not depend on the stack it
    was measured in.

    One pass over the face differences (``grid._differences``) gives
    ``max_face_diff``, ``jump_count`` (the faces whose |difference| reaches
    kappa) and the face gradient; one call of the grid's ops class
    (``slope_terms``) makes |K u| and ``lip`` (the largest co-located slope)
    from it, so the dual layout stays in ``energy``, and the energy is
    ``area_energy``'s.
    """
    ops = _make_ops(grid)
    volumes = grid.cell_volumes
    if prev is None:
        ut_l2 = ut_sup = np.zeros(len(values))
    else:
        du = values - prev
        du /= tau
        ut_l2 = np.sqrt(_per_state(volumes * du * du).sum(axis=1))
        ut_sup = _per_state(np.abs(du)).max(axis=1)
    diffs = _differences(values, grid.ndim)
    max_face_diff, jump_count = _face_jumps(diffs, kappa)
    # the differences are this routine's own arrays: they become the face gradient
    slopes = [np.divide(d, h, out=d) for d, h in zip(diffs, grid.spacing)]
    mag, lip = ops.slope_terms(slopes)
    columns = (  # in the order of DiagnosticRecord.FIELDS
        np.asarray(times, dtype=float),
        _area(ops, mag),
        _per_state(volumes * values).sum(axis=1) / ops.total_volume,
        _per_state(np.abs(values)).max(axis=1),
        lip,
        ut_l2,
        ut_sup,
        max_face_diff,
        jump_count,
    )
    return [DiagnosticRecord(*row) for row in zip(*(c.tolist() for c in columns))]


def _per_state(a: np.ndarray) -> np.ndarray:
    """A stack's entries as one row per state, for reductions over each state."""
    return a.reshape(len(a), -1)


def _face_jumps(diffs, kappa: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Per state of a stack: the largest |difference| over the faces, and
    how many faces reach kappa."""
    gaps = [_per_state(np.abs(d)) for d in diffs]
    largest = np.max([g.max(axis=1) for g in gaps], axis=0)
    return largest, sum(np.count_nonzero(g >= kappa, axis=1) for g in gaps)


def default_jump_threshold(u0: CellField) -> float:
    """Threshold separating genuine jumps from resolved steep slopes.

    max(10 * sqrt(h * sup|u0|), 0.1 * initial max face difference), floored
    away from zero so constant data detects nothing rather than everything.
    """
    h = max(u0.grid.spacing)
    sup = float(np.max(np.abs(u0.values)))
    max_fd = float(_face_jumps(_differences(u0.values[None], u0.grid.ndim))[0][0])
    kappa = max(10.0 * np.sqrt(h * sup), 0.1 * max_fd)
    floor = 1e-12 * (1.0 + sup)
    return float(max(kappa, floor))


def regularization_time(traj):
    """First recorded time after which no face difference reaches kappa.

    Reads the jump counts recorded during the run.  Returns ``times[0]``
    when no record ever jumps and ``None`` when jumps persist through the
    final record.
    """
    nonzero = [k for k, rec in enumerate(traj.records) if rec.jump_count > 0]
    if not nonzero:
        return float(traj.times[0])
    last = nonzero[-1]
    if last == len(traj.records) - 1:
        return None
    return float(traj.times[last + 1])


def check_monotone(series, tolerance: float, name: str = "monotone") -> Verdict:
    """Pass iff no increment of the series exceeds the tolerance.

    Reports the largest signed increment and the index of the entry it
    leads to; a series shorter than two entries has no increment and
    reports 0 at location None.
    """
    s = np.asarray(series, dtype=float)
    if s.size < 2:
        return Verdict(name, True, 0.0, None, float(tolerance))
    inc = np.diff(s)
    k = int(np.argmax(inc))
    worst = float(inc[k])
    return Verdict(
        name=name,
        passed=worst <= tolerance,
        worst_violation=worst,
        location=k + 1,
        tolerance=float(tolerance),
        detail=f"largest increment {worst:.3e} at index {k + 1} of {s.size}",
    )


_UT_DECAY_SLACK = 1.5


def check_ut_decay(traj) -> Verdict:
    """Velocity decay gate: ut_l2(t) <= _UT_DECAY_SLACK * |u0|_w / t at every step.

    Reports the largest signed excess over the bound and its time.
    """
    excess, at = max(
        (rec.ut_l2 - _UT_DECAY_SLACK * traj.u0_norm / rec.t, rec.t)
        for rec in traj.records
        if rec.t > 0.0
    )
    return Verdict(
        name="velocity_decay",
        passed=excess <= 0.0,
        worst_violation=excess,
        location=at,
        tolerance=0.0,
        detail=f"slack {_UT_DECAY_SLACK}, |u0|_w = {traj.u0_norm:.6g}",
    )


def check_contraction(traj_a, traj_b) -> Verdict:
    """Weighted-L2 distance between two runs may grow at most 2*inner_tol per step."""
    if not traj_a.grid.same_layout(traj_b.grid):
        raise ValueError("trajectories live on different grids")
    if traj_a.states is None or traj_b.states is None:
        raise ValueError("contraction check needs keep='all' trajectories")
    if len(traj_a.states) != len(traj_b.states) or not np.allclose(
        traj_a.times, traj_b.times
    ):
        raise ValueError("trajectories must share their time grid")
    dist = np.array(
        [
            cell_norm(CellField(traj_a.grid, a.values - b.values))
            for a, b in zip(traj_a.states, traj_b.states)
        ]
    )
    allowance = 2.0 * max(traj_a.config.inner_tol, traj_b.config.inner_tol)
    return check_monotone(dist, allowance, name="contraction")


def structural_gates(traj) -> list[Verdict]:
    """The guarantees every run is gated on, as three Verdicts.

    The weighted mean drifts by at most 1e-8 from its initial value, the
    energy rises by at most the run's inner tolerance per step, and the sup
    norm rises by at most 1e-10 per step.
    """
    mean = traj.series("mean")
    drifts = np.abs(mean - mean[0])
    at = int(np.argmax(drifts))
    drift, drift_tol = float(drifts[at]), 1e-8
    return [
        Verdict(
            name="mean_conservation",
            passed=drift <= drift_tol,
            worst_violation=drift,
            location=at,
            tolerance=drift_tol,
            detail=f"largest weighted-mean drift {drift:.3e}",
        ),
        check_monotone(traj.series("energy"), traj.config.inner_tol, name="energy_dissipation"),
        check_monotone(traj.series("sup_norm"), 1e-10, name="max_principle"),
    ]


def smoothness_gates(traj) -> list[Verdict]:
    """Smooth data: the Lipschitz bound and the sup velocity never grow by
    more than 1e-6 per step (the velocity from the first step on).

    Both locations are record indices, that is step numbers.
    """
    ut_sup = traj.series("ut_sup")
    # No velocity is recorded at t = 0; +inf there makes the increment into
    # step 1 -inf, so it never binds and indices stay step numbers.
    ut_sup[0] = np.inf
    return [
        check_monotone(traj.series("lip"), 1e-6, name="lip_monotone"),
        check_monotone(ut_sup, 1e-6, name="ut_sup_monotone"),
    ]
