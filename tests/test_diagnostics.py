"""Diagnostic records, jump detection, and the gate checks."""

import dataclasses
import math

import numpy as np
import pytest

from pmsflow import diagnostics, solver
from pmsflow.diagnostics import (
    DiagnosticRecord,
    check_contraction,
    check_monotone,
    check_ut_decay,
    default_jump_threshold,
    measure,
    regularization_time,
)
import reference_calculus as ref
from pmsflow.energy import area_energy
from pmsflow.grid import (
    CellField,
    interval_grid,
    radial_grid,
    rectangle_grid,
)
from pmsflow.initial_data import constant, cosine, quarter_circles, step
from pmsflow.reference import QuarterCircleProfile
from pmsflow.solver import SolverConfig, evolve


def test_measure_constant_field():
    grid = interval_grid(0.0, 2.0, 25)
    rec = measure(constant(grid, 0.7), None, t=0.0, tau=0.1, kappa=0.5)
    assert rec.energy == pytest.approx(2.0, abs=1e-14)
    assert rec.mean == pytest.approx(0.7)
    assert rec.sup_norm == pytest.approx(0.7)
    assert rec.lip == 0.0
    assert rec.ut_l2 == 0.0 and rec.ut_sup == 0.0
    assert rec.max_face_diff == 0.0
    assert rec.jump_count == 0


def test_measure_unit_slope_and_velocity():
    grid = interval_grid(0.0, 1.0, 50)
    x = grid.cell_centers[0]
    u = CellField(grid, x.copy())
    u_prev = CellField(grid, x - 0.02)
    rec = measure(u, u_prev, t=0.1, tau=0.1, kappa=0.5)
    assert rec.lip == pytest.approx(1.0, abs=1e-12)
    assert rec.ut_sup == pytest.approx(0.2)
    assert rec.ut_l2 == pytest.approx(
        np.sqrt(np.sum(grid.cell_volumes * 0.2**2))
    )
    assert rec.max_face_diff == pytest.approx(1.0 / 50)


@pytest.mark.parametrize(
    "grid",
    [
        interval_grid(0.0, 2.0, 24),
        *(radial_grid(n, 1.3, 17) for n in range(2, 7)),
        # two cells: both hold the one face slope, co-located
        interval_grid(0.0, 2.0, 2),
        radial_grid(3, 1.3, 2),
        rectangle_grid((0.0, 0.0), (1.0, 2.3), (9, 6)),
        rectangle_grid((0.0, 0.0), (1.7, 0.4), (2, 7)),
    ],
    ids=["interval", *(f"radial{n}" for n in range(2, 7)), "interval2", "radial3_2",
         "rect9x6", "rect2x7"],
)
def test_measure_is_the_public_calculus_bit_for_bit(grid):
    # measure differences u once; its energy is area_energy's, and its lip,
    # largest face difference and jump count are the plain-numpy formulas,
    # all to the bit
    rng = np.random.default_rng(31)
    draws = (
        rng.standard_normal(grid.shape),
        40.0 * rng.uniform(-1.0, 1.0, grid.shape),
        rng.choice([-0.0, 0.0, 0.5, -2.0], grid.shape),
    )
    for values in draws:
        u = CellField(grid, values)
        rec = measure(u, None, t=0.0, tau=0.1, kappa=0.3)
        gaps = [np.abs(np.diff(values, axis=k)) for k in range(grid.ndim)]
        expected = (
            area_energy(u),
            float(ref.magnitude(ref.colocated(ref.slopes(grid, values))).max()),
            max(float(d.max()) for d in gaps),
        )
        got = (rec.energy, rec.lip, rec.max_face_diff)
        assert np.array_equal(np.array(got).view(np.int64), np.array(expected).view(np.int64))
        assert rec.jump_count == sum(int(np.count_nonzero(d >= 0.3)) for d in gaps)
    # the three draws measured as one stack, each stepped from the one
    # before it, are measure of each alone
    stack = np.array(draws)
    records = diagnostics._measure_stack(grid, stack[1:], stack[:-1], (0.1, 0.2), 0.1, 0.3)
    want = [measure(CellField(grid, v), CellField(grid, w), t, 0.1, 0.3)
            for v, w, t in zip(draws[1:], draws, (0.1, 0.2))]
    got, want = (np.array([dataclasses.astuple(r) for r in recs]) for recs in (records, want))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


_STACKED = [
    interval_grid(0.0, 2.0, 200),
    *(radial_grid(n, 1.0, 512) for n in range(2, 7)),
    rectangle_grid((0.0, 0.0), (1.0, 2.3), (16, 12)),
    rectangle_grid((0.0, 0.0), (1.0, 1.0), (66, 64)),
]


@pytest.mark.parametrize(
    "grid",
    _STACKED,
    ids=["interval", *(f"radial{n}" for n in range(2, 7)), "rect16x12", "rect66x64"],
)
def test_evolve_records_are_measure_state_by_state(grid):
    # evolve measures its states in stacks of at most solver._STACK_VALUES
    # cell values (one state per stack on the 66 x 64 rectangle); each
    # record is measure of its state alone, to the bit, in runs that end
    # after one step and one step before, at and after a stack's end.  The
    # data jump, and the rest of the domain holds +0.0 and -0.0
    per_stack = max(1, solver._STACK_VALUES // math.prod(grid.shape))
    assert (per_stack == 1) == (grid.shape == (66, 64))
    x = grid.cell_centers[0].reshape((-1,) + (1,) * (grid.ndim - 1))
    signed_zeros = np.where(np.indices(grid.shape).sum(axis=0) % 2, -0.0, 0.0)
    u0 = CellField(grid, np.where(x < 0.5 * grid.cell_centers[0][-1], 0.8, signed_zeros))
    tau = 1e-3
    for n in sorted({1, per_stack - 1, per_stack, per_stack + 1} - {0}):
        traj = evolve(u0, n * tau, SolverConfig(tau=tau), kappa=0.3, keep="all")
        states = traj.states
        want = [measure(states[0], None, 0.0, tau, 0.3)]
        want += [measure(states[k], states[k - 1], traj.times[k], tau, 0.3)
                 for k in range(1, n + 1)]
        assert len(traj.records) == n + 1
        got, want = (np.array([dataclasses.astuple(r) for r in recs])
                     for recs in (traj.records, want))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert all(type(r.jump_count) is int for r in traj.records)
        assert traj.records[-1].jump_count > 0


def test_record_fields_enumerates_the_csv_columns():
    assert DiagnosticRecord.FIELDS == (
        "t", "energy", "mean", "sup_norm", "lip", "ut_l2", "ut_sup",
        "max_face_diff", "jump_count",
    )


def _jumps(u, kappa):
    return measure(u, None, t=0.0, tau=1.0, kappa=kappa).jump_count


def test_jump_set_ignores_resolved_slopes():
    grid = interval_grid(0.0, 1.0, 400)
    u = CellField(grid, np.sin(2.0 * np.pi * grid.cell_centers[0]))
    assert _jumps(u, 0.2) == 0


def test_jump_set_finds_a_step_face():
    grid = interval_grid(0.0, 1.0, 100)
    u = step(grid, left=0.0, right=1.0)
    assert _jumps(u, 0.5) == 1
    assert _jumps(u, 1.0) == 1 and _jumps(u, np.nextafter(1.0, 2.0)) == 0


def test_jump_set_on_the_quarter_circle_profile():
    # only the center face counts as a jump; the vertical-tangent sides do not
    grid = interval_grid(0.0, 2.0, 400)
    profile = QuarterCircleProfile(c=1.0)
    values = profile.solution(0.2, grid.cell_centers[0])
    assert _jumps(CellField(grid, values), 0.3) == 1
    assert np.abs(np.diff(values))[199] >= 0.3


def test_jump_set_rejects_nonpositive_threshold():
    grid = interval_grid(0.0, 1.0, 10)
    for kappa in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="jump threshold must be positive"):
            _jumps(constant(grid, 1.0), kappa)
    # the velocity divides by tau, which must be a positive finite number
    u = cosine(grid)
    for tau, match in ((0.0, "tau must be positive"), (-0.1, "tau must be positive"),
                       (np.nan, "tau must be finite"), (np.inf, "tau must be finite"),
                       ("0.1", "tau must be a number")):
        with pytest.raises(ValueError, match=match):
            measure(u, u, t=0.1, tau=tau, kappa=0.5)
    # a velocity needs both states on one grid
    with pytest.raises(ValueError, match="u and u_prev live on different grids"):
        measure(u, cosine(interval_grid(0.0, 2.0, 10), 3.0), t=0.1, tau=0.1, kappa=0.5)


def test_default_threshold_separates_jumps_from_steepness():
    grid = interval_grid(0.0, 1.0, 100)
    u = step(grid, left=0.0, right=4.0)
    kappa = default_jump_threshold(u)
    assert kappa == pytest.approx(10.0 * np.sqrt(0.01 * 4.0))
    assert _jumps(u, kappa) == 1
    flat = constant(grid, 0.0)
    assert default_jump_threshold(flat) > 0.0
    assert _jumps(flat, default_jump_threshold(flat)) == 0


def test_regularization_time_trivial_cases():
    grid = interval_grid(0.0, 1.0, 20)
    cfg = SolverConfig(tau=1e-3)
    never = evolve(constant(grid, 1.0), 0.005, cfg, kappa=0.3)
    assert regularization_time(never) == 0.0
    persists = evolve(step(grid, 0.0, 1.0), 0.002, cfg, kappa=0.3)
    assert regularization_time(persists) is None


def test_regularization_time_matches_the_jump_record():
    grid = interval_grid(0.0, 1.0, 20)
    cfg = SolverConfig(tau=1e-3)
    traj = evolve(step(grid, 0.0, 0.2), 0.05, cfg, kappa=0.15, keep="all")
    reg = regularization_time(traj)
    assert reg is not None and 0.0 < reg < 0.05
    k = int(np.argmin(np.abs(np.asarray(traj.times) - reg)))
    assert np.max(np.abs(np.diff(traj.states[k].values))) < 0.15
    assert np.max(np.abs(np.diff(traj.states[k - 1].values))) >= 0.15


def test_check_monotone_passes_decreasing_series():
    v = check_monotone([3.0, 2.0, 2.0, 1.5], 1e-12)
    assert v.passed and v.worst_violation == 0.0 and v.location == 2
    assert v.passed == (v.worst_violation <= v.tolerance)
    # the signed increment shows the room left; no clamp at 0
    v = check_monotone([3.0, 2.0, 1.75, 1.5], 1e-12)
    assert v.passed and v.worst_violation == -0.25 and v.location == 2


def test_check_monotone_flags_a_bump():
    tol = 1e-6
    v = check_monotone([1.0, 1.0 + 2 * tol, 0.5], tol, name="bumped")
    assert not v.passed
    assert v.worst_violation == pytest.approx(2 * tol)
    assert v.location == 1
    assert v.name == "bumped"


def test_check_monotone_short_series_passes():
    v = check_monotone([42.0], 0.0)
    assert v.passed and v.worst_violation == 0.0 and v.location is None


def test_check_ut_decay_on_a_real_run(monkeypatch):
    grid = interval_grid(0.0, 1.0, 20)
    traj = evolve(cosine(grid), 0.05, SolverConfig(tau=5e-3))
    good = check_ut_decay(traj)
    assert good.name == "velocity_decay"
    assert good.passed and good.worst_violation < 0.0
    assert good.location in traj.times[1:]
    assert "slack 1.5" in good.detail
    monkeypatch.setattr(diagnostics, "_UT_DECAY_SLACK", 0.0)
    strict = check_ut_decay(traj)
    assert not strict.passed
    assert strict.location is not None


def test_check_contraction_identical_runs():
    grid = interval_grid(0.0, 1.0, 20)
    u0 = step(grid, 0.0, 1.0)
    cfg = SolverConfig(tau=5e-3)
    ta = evolve(u0, 0.02, cfg, keep="all")
    tb = evolve(u0, 0.02, cfg, keep="all")
    v = check_contraction(ta, tb)
    assert v.passed and v.worst_violation == 0.0


def test_check_contraction_input_validation():
    cfg = SolverConfig(tau=5e-3)
    g1 = interval_grid(0.0, 1.0, 20)
    g2 = interval_grid(0.0, 1.0, 21)
    a = evolve(step(g1, 0.0, 1.0), 0.02, cfg, keep="all")
    b = evolve(step(g2, 0.0, 1.0), 0.02, cfg, keep="all")
    with pytest.raises(ValueError):
        check_contraction(a, b)
    c = evolve(step(g1, 0.0, 1.0), 0.02, cfg)  # no stored states
    with pytest.raises(ValueError):
        check_contraction(a, c)
    d = evolve(step(g1, 0.0, 1.0), 0.03, cfg, keep="all")  # other time grid
    with pytest.raises(ValueError):
        check_contraction(a, d)
