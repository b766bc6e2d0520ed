"""Property tests of the step guarantees over drawn data (hypothesis).

Each example draws a grid, data and solver settings from wide ranges; the
draws are derandomized so that every run checks the same examples.  Single
steps are checked on rectangles, intervals and radial grids of dimension
2 to 6, cold, warm and from a drawn start dual; short ``evolve`` runs, whose
later steps start from the predicted dual, on all three grid kinds;
contraction on all three grid kinds; comparison on the one-axis grids,
where the discrete comparison principle is exact.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pmsflow.energy import _make_ops, area_energy
from pmsflow.grid import CellField, interval_grid, radial_grid, rectangle_grid
from pmsflow.solver import _FLOOR_MULTIPLE, SolverConfig, evolve, implicit_step


def _data(grid, kind, rng):
    """+-1 cells, uniform values in [-1, 1], or a jump: on rectangles the
    indicator of a disk inside the rectangle [0, a] x [0, b] that ``grid``
    covers, on one-axis grids a step of height 1/h at a drawn face."""
    if kind == "sign":
        return np.where(rng.uniform(size=grid.shape) < 0.5, -1.0, 1.0)
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, grid.shape)
    if grid.kind != "rectangle":
        face = rng.integers(1, grid.shape[0])
        return np.where(np.arange(grid.shape[0]) < face, 0.0, 1.0 / grid.spacing[0])
    x, y = np.meshgrid(*grid.cell_centers, indexing="ij")
    a, b = (n * h for n, h in zip(grid.shape, grid.spacing))
    cx, cy = rng.uniform(0.0, a), rng.uniform(0.0, b)
    radius = rng.uniform(0.1, 0.5) * min(a, b)
    return np.where((x - cx) ** 2 + (y - cy) ** 2 < radius**2, 1.0, 0.0)


def _one_axis_grid(dimension, cells, extent):
    """The interval (0, extent) for dimension 1, else the ball of radius
    ``extent`` in that ambient dimension."""
    if dimension == 1:
        return interval_grid(0.0, extent, cells)
    return radial_grid(dimension, extent, cells)


_KINDS = st.sampled_from(["sign", "uniform", "jump"])
_ONE_AXIS_GRIDS = st.builds(
    _one_axis_grid, st.integers(1, 6), st.integers(2, 48), st.floats(0.5, 2.0)
)
_RECTANGLES = st.builds(
    lambda cells, extent: rectangle_grid((0.0, 0.0), extent, cells),
    st.tuples(st.integers(2, 24), st.integers(2, 24)),
    st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
)
_STEP_SETTINGS = dict(
    log_amplitude=st.floats(-3.0, 2.0),
    log_tau=st.floats(-5.0, float(np.log10(0.5))),
    log_tol=st.floats(-11.0, -8.0),
    seed=st.integers(0, 2**32 - 1),
)


def _assume_above_the_float_floor(cfg, *fields):
    # The primal certificate compares (u_next - u)/tau with div(flux), and
    # u_next is stored in float64, so it cannot go below about
    # eps max|u| / tau on any solver: a tolerance under that floor asks for
    # a certificate no step can give, which is not what these tests cover.
    # The margin is the solver's own floor multiple; a 2 x 2 +-10 step at
    # tau 1e-5 stalls at 0.17 of that floor.
    for u in fields:
        floor = np.finfo(float).eps * float(np.max(np.abs(u.values))) / cfg.tau
        assume(cfg.inner_tol > _FLOOR_MULTIPLE * floor)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cells=st.tuples(st.integers(2, 24), st.integers(2, 24)),
    extent=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    kind=_KINDS,
    **_STEP_SETTINGS,
)
def test_rectangle_steps_keep_their_guarantees(
    cells, extent, kind, log_amplitude, log_tau, log_tol, seed
):
    grid = rectangle_grid((0.0, 0.0), extent, cells)
    rng = np.random.default_rng(seed)
    u = CellField(grid, 10.0**log_amplitude * _data(grid, kind, rng))
    cfg = SolverConfig(tau=10.0**log_tau, inner_tol=10.0**log_tol)
    _assume_above_the_float_floor(cfg, u)
    _check_cold_and_warm_steps(u, cfg)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(grid=_ONE_AXIS_GRIDS, kind=_KINDS, **_STEP_SETTINGS)
def test_one_axis_steps_keep_their_guarantees(grid, kind, log_amplitude, log_tau, log_tol, seed):
    # the same checks for the Newton solve, on intervals and on radial grids
    # of dimension 2 to 6
    rng = np.random.default_rng(seed)
    u = CellField(grid, 10.0**log_amplitude * _data(grid, kind, rng))
    cfg = SolverConfig(tau=10.0**log_tau, inner_tol=10.0**log_tol)
    _assume_above_the_float_floor(cfg, u)
    _check_cold_and_warm_steps(u, cfg)


def _check_cold_and_warm_steps(u, cfg):
    # every cold step, and a second step warm-started from its dual,
    # certifies, conserves the weighted mean, obeys the energy inequality
    # E(u_next) + |u_next - u|_w^2 / (2 tau) <= E(u) + tol and keeps
    # |flux| < 1 on every face
    first = implicit_step(u, cfg)
    _check_step(u, first, cfg)
    _check_step(first.u_next, implicit_step(first.u_next, cfg, dual=first.dual), cfg)


def _check_step(u, res, cfg, mass=None):
    # ``mass`` scales the drift bound; by default it is the total |u|
    assert res.kkt_residual <= cfg.inner_tol
    vol = u.grid.cell_volumes
    drift = abs(np.sum(vol * (res.u_next.values - u.values)))
    if mass is None:
        mass = np.sum(vol * np.abs(u.values))
    assert drift <= 1e-12 * mass
    step_cost = np.sum(vol * (res.u_next.values - u.values) ** 2)
    lhs = area_energy(res.u_next) + step_cost / (2.0 * cfg.tau)
    assert lhs <= area_energy(u) + cfg.inner_tol
    assert max(float(np.max(np.abs(c))) for c in res.flux.components) < 1.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid=st.one_of(_ONE_AXIS_GRIDS, _RECTANGLES), kind=_KINDS, **_STEP_SETTINGS)
def test_runs_keep_their_guarantees_at_every_step(grid, kind, log_amplitude, log_tau, log_tol, seed):
    # twelve steps of evolve: cold, warm from the first dual, then from the
    # variable-order prediction, whose order reaches the top of its table
    # (six) and which leaves the unit ball on the steepest data; every step
    # keeps the single-step guarantees
    rng = np.random.default_rng(seed)
    u = CellField(grid, 10.0**log_amplitude * _data(grid, kind, rng))
    cfg = SolverConfig(tau=10.0**log_tau, inner_tol=10.0**log_tol)
    _assume_above_the_float_floor(cfg, u)
    traj = evolve(u, 12 * cfg.tau, cfg, snapshot_times=cfg.tau * np.arange(1, 13))
    assert len(traj.snapshots) == 12
    for (_, u_next, flux), kkt in zip(traj.snapshots, traj.kkt_residuals):
        _check_step(u, SimpleNamespace(u_next=u_next, flux=flux, kkt_residual=kkt), cfg)
        u = u_next


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    grid=st.one_of(_ONE_AXIS_GRIDS, _RECTANGLES),
    kind=_KINDS,
    dual_scale=st.floats(0.0, 2.0),
    **_STEP_SETTINGS,
)
def test_steps_certify_from_any_finite_start_dual(
    grid, kind, dual_scale, log_amplitude, log_tau, log_tol, seed
):
    # a start dual with random directions and magnitudes up to dual_scale
    # <= 2, outside the unit ball on many entries, changes only the
    # iteration count: the step keeps every guarantee
    rng = np.random.default_rng(seed)
    u = CellField(grid, 10.0**log_amplitude * _data(grid, kind, rng))
    cfg = SolverConfig(tau=10.0**log_tau, inner_tol=10.0**log_tol)
    _assume_above_the_float_floor(cfg, u)
    ops = _make_ops(grid)
    direction = rng.normal(size=ops.dual_shape)
    length = ops.magnitude(direction)
    dual = direction * (dual_scale * rng.uniform(size=length.shape) / np.maximum(length, 1e-300))
    res = implicit_step(u, cfg, dual=dual)
    # the drift is rounding of u and of the increment, and u may be zero
    vol = grid.cell_volumes
    _check_step(u, res, cfg, mass=np.sum(vol * (np.abs(u.values) + np.abs(res.u_next.values))))


def _weighted_distance(u, v):
    return float(np.sqrt(np.sum(u.grid.cell_volumes * (u.values - v.values) ** 2)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    grid=st.one_of(_ONE_AXIS_GRIDS, _RECTANGLES),
    kinds=st.tuples(_KINDS, _KINDS),
    **_STEP_SETTINGS,
)
def test_steps_contract_the_weighted_distance(grid, kinds, log_amplitude, log_tau, log_tol, seed):
    # a certified step lies within sqrt(2 tau tol) of the exact one in the
    # weighted norm (the step problem is (1/tau)-strongly convex and its
    # duality gap is at most tol), and the exact step is nonexpansive, so
    # |u' - v'|_w <= |u - v|_w + 2 sqrt(2 tau tol) on every grid kind
    rng = np.random.default_rng(seed)
    u, v = (CellField(grid, 10.0**log_amplitude * _data(grid, k, rng)) for k in kinds)
    cfg = SolverConfig(tau=10.0**log_tau, inner_tol=10.0**log_tol)
    _assume_above_the_float_floor(cfg, u, v)
    u_next, v_next = (implicit_step(w, cfg).u_next for w in (u, v))
    slack = 2.0 * np.sqrt(2.0 * cfg.tau * cfg.inner_tol)
    assert _weighted_distance(u_next, v_next) <= _weighted_distance(u, v) + slack


@settings(max_examples=100, deadline=None, derandomize=True)
@given(grid=_ONE_AXIS_GRIDS, kind=_KINDS, log_lift=st.floats(-3.0, 1.0), **_STEP_SETTINGS)
def test_one_axis_steps_keep_the_order(grid, kind, log_lift, log_amplitude, log_tau, log_tol, seed):
    # on one-axis grids the exact step keeps u <= v; a certified state lies
    # within sqrt(2 tau tol / V_i) of the exact one in cell i, so
    # u' <= v' + 2 sqrt(2 tau tol / V_i) cell by cell.  About half the
    # cells of v touch u.
    rng = np.random.default_rng(seed)
    u = CellField(grid, 10.0**log_amplitude * _data(grid, kind, rng))
    lift = 10.0 ** (log_amplitude + log_lift) * np.maximum(rng.uniform(-1.0, 1.0, grid.shape), 0.0)
    v = CellField(grid, u.values + lift)
    cfg = SolverConfig(tau=10.0**log_tau, inner_tol=10.0**log_tol)
    _assume_above_the_float_floor(cfg, u, v)
    u_next, v_next = (implicit_step(w, cfg).u_next for w in (u, v))
    slack = 2.0 * np.sqrt(2.0 * cfg.tau * cfg.inner_tol / grid.cell_volumes)
    assert np.all(u_next.values <= v_next.values + slack)
