"""Implicit minimizing steps and trajectories: optimality, conservation,
dissipation, comparison, refinement order, and error taxonomy."""

import numpy as np
import pytest

from pmsflow import solver
from pmsflow.acceptance import _descent_oracle
from pmsflow.energy import _make_ops, area_energy
from pmsflow.grid import (
    CellField,
    FaceField,
    colocated_gradient,
    divergence,
    face_differences,
    forward_gradient,
    interval_grid,
    radial_grid,
    rectangle_grid,
)
from pmsflow.initial_data import cosine, quarter_circles
from pmsflow.solver import (
    NonConvergenceError,
    SolverConfig,
    balanced_steps,
    evolve,
    implicit_step,
    kkt_residual,
    operator_norm_bound,
)


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tau=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tau=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(tau=0.1, theta=1.5)
    with pytest.raises(ValueError):
        SolverConfig(tau=0.1, theta=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(tau=0.1, inner_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tau=0.1, max_inner=0)
    with pytest.raises(ValueError):
        SolverConfig(tau=0.1, check_every=0)
    with pytest.raises(ValueError):
        SolverConfig(tau=0.1, sigma=0.5)  # s missing
    with pytest.raises(ValueError):
        SolverConfig(tau=0.1, s=0.5)  # sigma missing
    with pytest.raises(ValueError):
        SolverConfig(tau=0.1, sigma=-0.5, s=0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            SolverConfig(tau=bad)
        with pytest.raises(ValueError, match="inner_tol must be positive and finite"):
            SolverConfig(tau=0.1, inner_tol=bad)
        with pytest.raises(ValueError, match="sigma and s must be positive and finite"):
            SolverConfig(tau=0.1, sigma=bad, s=0.5)
        with pytest.raises(ValueError, match="sigma and s must be positive and finite"):
            SolverConfig(tau=0.1, sigma=0.5, s=bad)


def test_step_size_product_validated_against_operator_bound():
    grid = interval_grid(0.0, 1.0, 16)
    u = CellField(grid, np.zeros(16))
    bound = operator_norm_bound(grid)
    too_big = SolverConfig(tau=0.1, sigma=2.0 / bound, s=1.0 / bound)
    with pytest.raises(ValueError):
        implicit_step(u, too_big)
    at_limit = SolverConfig(tau=0.1, sigma=1.0 / bound, s=1.0 / bound)
    implicit_step(u, at_limit)  # exactly on the allowed boundary


def test_operator_norm_bound_values():
    g = interval_grid(0.0, 1.0, 10)  # h = 0.1
    assert operator_norm_bound(g) == pytest.approx(20.0)
    r = rectangle_grid((0.0, 0.0), (1.0, 2.0), (10, 10))  # hx=0.1, hy=0.2
    assert operator_norm_bound(r) == pytest.approx(2.0 * np.sqrt(100.0 + 25.0))
    rad = radial_grid(3, 1.0, 10)
    assert operator_norm_bound(rad) == pytest.approx(2.0 ** 1.5 / 0.1)


def test_operator_norm_bound_dominates_gradient():
    # |grad u|_w <= L |u|_w on every grid the bound is quoted for
    rng = np.random.default_rng(410)
    grids = [
        interval_grid(0.0, 2.0, 30),
        radial_grid(2, 1.0, 25),
        radial_grid(3, 1.0, 25),
        radial_grid(4, 0.5, 25),
    ]
    for grid in grids:
        bound = operator_norm_bound(grid)
        for _ in range(10):
            u = CellField(grid, rng.standard_normal(grid.shape))
            g = face_differences(u)[0] / grid.spacing[0]
            lhs = np.sqrt(np.sum(grid.face_weights[0] * g**2))
            rhs = bound * np.sqrt(np.sum(grid.cell_volumes * u.values**2))
            assert lhs <= rhs * (1.0 + 1e-12)


def test_balanced_steps_keep_the_product_at_the_bound():
    grid = radial_grid(3, 1.0, 20)
    bound = operator_norm_bound(grid)
    sigma, s = balanced_steps(grid, 4e-2)
    assert s / sigma == pytest.approx(4e-2, rel=1e-14)
    assert s * sigma * bound**2 == pytest.approx(1.0, rel=1e-14)
    assert balanced_steps(grid, 1.0) == (1.0 / bound, 1.0 / bound)


_ALL_GRID_KINDS = [
    interval_grid(0.0, 2.0, 24),
    *(radial_grid(n, 1.0, 20) for n in range(2, 7)),
    rectangle_grid((0.0, 0.0), (1.0, 2.0), (7, 6)),
]
_ALL_GRID_IDS = ["interval", *(f"radial{n}" for n in range(2, 7)), "rectangle"]


@pytest.mark.parametrize("grid", _ALL_GRID_KINDS, ids=_ALL_GRID_IDS)
def test_saddle_operators_are_the_public_calculus(grid):
    # the solver iterates with the grid module's calculus, bit for bit, and
    # K is the exact negative adjoint of div under the pairings it uses
    ops = _make_ops(grid)
    rng = np.random.default_rng(77)
    u = CellField(grid, rng.standard_normal(grid.shape))
    if grid.kind == "rectangle":
        p = rng.uniform(-1.0, 1.0, (2,) + grid.shape)
        assert np.array_equal(ops.k_apply(u.values), np.stack(colocated_gradient(u)))
    else:
        p = rng.uniform(-1.0, 1.0, grid.face_shape(0))
        assert np.array_equal(ops.k_apply(u.values), forward_gradient(u).components[0])
    flux = FaceField(grid, ops.flux_components(p))
    assert np.array_equal(ops.div_dual(p), divergence(flux).values)
    lhs = float(np.sum(ops.dual_weights * ops.dot(ops.k_apply(u.values), p)))
    rhs = float(np.sum(grid.cell_volumes * u.values * ops.div_dual(p)))
    assert abs(lhs + rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


# ---------------------------------------------------------------- one step


def test_constant_data_is_a_stationary_point():
    grid = interval_grid(0.0, 2.0, 20)
    u = CellField(grid, np.full(20, 1.7))
    res = implicit_step(u, SolverConfig(tau=0.3))
    assert np.array_equal(res.u_next.values, u.values)
    assert np.all(res.flux.components[0] == 0.0)
    assert res.inner_iters == 1
    assert res.kkt_residual == 0.0


def test_five_cell_step_matches_brute_force():
    grid = interval_grid(0.0, 2.0, 5)
    u_prev = CellField(grid, np.array([0.0, 0.0, 1.0, 1.0, 1.0]))
    res = implicit_step(u_prev, SolverConfig(tau=0.1, inner_tol=1e-12))
    oracle = _descent_oracle(grid, u_prev.values, 0.1)
    assert np.max(np.abs(res.u_next.values - oracle)) <= 1e-6


def test_step_conserves_weighted_mean_exactly():
    for grid in (
        interval_grid(0.0, 2.0, 40),
        radial_grid(3, 1.0, 40),
        rectangle_grid((0.0, 0.0), (1.0, 1.0), (6, 5)),
    ):
        rng = np.random.default_rng(17)
        u = CellField(grid, rng.uniform(-1.0, 1.0, grid.shape))
        res = implicit_step(u, SolverConfig(tau=0.05))
        before = np.sum(grid.cell_volumes * u.values)
        after = np.sum(grid.cell_volumes * res.u_next.values)
        assert abs(after - before) <= 1e-13 * (1.0 + abs(before))


@pytest.mark.parametrize("grid", _ALL_GRID_KINDS, ids=_ALL_GRID_IDS)
def test_step_dissipates_energy_and_keeps_flux_feasible(grid):
    # area_energy is the functional the certified step minimizes, on every
    # dual layout: E(u_next) + |u_next - u_prev|_w^2 / (2 tau) <= E(u_prev)
    rng = np.random.default_rng(12)
    u = CellField(grid, np.where(rng.uniform(size=grid.shape) < 0.5, -1.0, 1.0))
    cfg = SolverConfig(tau=1e-2)
    res = implicit_step(u, cfg)
    step_cost = np.sum(grid.cell_volumes * (res.u_next.values - u.values) ** 2)
    lhs = area_energy(res.u_next) + step_cost / (2.0 * cfg.tau)
    assert lhs <= area_energy(u) + cfg.inner_tol
    assert max(float(np.max(np.abs(c))) for c in res.flux.components) < 1.0
    assert res.kkt_residual <= cfg.inner_tol


def test_warm_start_agrees_with_cold_start():
    grid = interval_grid(0.0, 2.0, 60)
    u0 = quarter_circles(grid, c=1.0)
    cfg = SolverConfig(tau=5e-3, inner_tol=1e-10)
    first = implicit_step(u0, cfg)
    cold = implicit_step(first.u_next, cfg)
    warm = implicit_step(
        first.u_next, cfg, warm=(first.u_next.values.copy(), first.dual)
    )
    assert np.max(np.abs(cold.u_next.values - warm.u_next.values)) <= 1e-7
    assert warm.inner_iters <= cold.inner_iters


def test_non_convergence_reports_residuals():
    grid = interval_grid(0.0, 2.0, 100)
    u = quarter_circles(grid, c=1.0)
    with pytest.raises(NonConvergenceError) as info:
        implicit_step(u, SolverConfig(tau=1e-2, max_inner=2))
    err = info.value
    assert err.iterations == 2
    assert err.primal_residual > 0 or err.dual_residual > 0
    assert err.kkt_residual == max(err.primal_residual, err.dual_residual)
    assert "2" in str(err)
    assert err.step is None and err.t is None
    # evolve says which step failed, and when
    with pytest.raises(NonConvergenceError) as info:
        evolve(u, 0.05, SolverConfig(tau=1e-2, max_inner=2))
    assert (info.value.step, info.value.t) == (1, 1e-2)
    assert str(info.value).startswith("step 1 at t = 0.01: ")


# ------------------------------------------------------------ kkt residual


def test_kkt_zero_at_exact_stationary_pair():
    grid = interval_grid(0.0, 1.0, 30)
    u = CellField(grid, np.full(30, 0.4))
    p = FaceField(grid, (np.zeros(29),))
    assert kkt_residual(u, p, u, tau=0.2) == 0.0


def test_kkt_scales_linearly_in_the_perturbation():
    grid = interval_grid(0.0, 1.0, 30)
    base = CellField(grid, np.full(30, 0.4))
    p = FaceField(grid, (np.zeros(29),))
    bump = np.sin(np.linspace(0.0, 3.0, 30))

    def res(eps):
        return kkt_residual(CellField(grid, base.values + eps * bump), p, base, 0.2)

    r1, r2 = res(1e-6), res(2e-6)
    assert r2 / r1 == pytest.approx(2.0, rel=1e-3)


def test_kkt_of_converged_step_is_within_tolerance():
    grid = interval_grid(0.0, 2.0, 40)
    u = quarter_circles(grid, c=1.0)
    cfg = SolverConfig(tau=1e-2, inner_tol=1e-9)
    res = implicit_step(u, cfg)
    assert kkt_residual(res.u_next, res.flux, u, cfg.tau) <= cfg.inner_tol
    assert kkt_residual(res.u_next, res.dual, u, cfg.tau) <= cfg.inner_tol


def test_kkt_rejects_infeasible_dual_and_wrong_rectangle_input():
    grid = interval_grid(0.0, 1.0, 10)
    u = CellField(grid, np.zeros(10))
    bad = FaceField(grid, (np.full(9, 1.5),))
    with pytest.raises(ValueError):
        kkt_residual(u, bad, u, 0.1)
    rect = rectangle_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    ur = CellField(rect, np.zeros((4, 4)))
    fr = FaceField(rect, (np.zeros((3, 4)), np.zeros((4, 3))))
    with pytest.raises(ValueError, match="dual"):
        kkt_residual(ur, fr, ur, 0.1)
    res = implicit_step(ur, SolverConfig(tau=0.1))
    assert kkt_residual(res.u_next, res.dual, ur, 0.1) == 0.0


@pytest.mark.parametrize("grid", _ALL_GRID_KINDS, ids=_ALL_GRID_IDS)
def test_returned_certificate_is_the_public_one(grid):
    rng = np.random.default_rng(58)
    u_prev = CellField(grid, rng.uniform(-1.0, 1.0, grid.shape))
    res = implicit_step(u_prev, SolverConfig(tau=1e-2))
    assert res.kkt_residual > 0.0
    assert res.kkt_residual == kkt_residual(res.u_next, res.dual, u_prev, 1e-2)


@pytest.mark.parametrize("grid", _ALL_GRID_KINDS, ids=_ALL_GRID_IDS)
def test_warm_radius_solves_give_the_cold_iterates(grid, monkeypatch):
    # each step carries the dual-radius slopes across its inner iterations;
    # solving every radius from the cold start instead changes only last bits
    rng = np.random.default_rng(90)
    u0 = CellField(grid, np.where(rng.uniform(size=grid.shape) < 0.5, -1.0, 1.0))
    cfg = SolverConfig(tau=1e-2, inner_tol=1e-10)
    warm = evolve(u0, 0.05, cfg, keep="all")
    cold_radius = solver._dual_radius
    monkeypatch.setattr(
        solver, "_dual_radius", lambda m, sigma, w: cold_radius(m, sigma, np.zeros_like(m))
    )
    cold = evolve(u0, 0.05, cfg, keep="all")
    assert np.array_equal(warm.inner_iters, cold.inner_iters)
    for a, b in zip(warm.states, cold.states):
        assert np.max(np.abs(a.values - b.values)) <= 1e-13
    assert np.max(warm.kkt_residuals) <= cfg.inner_tol
    assert np.max(cold.kkt_residuals) <= cfg.inner_tol


# ---------------------------------------------------------------- evolve


def test_constant_trajectory_stays_constant():
    grid = interval_grid(0.0, 2.0, 25)
    u0 = CellField(grid, np.full(25, 3.0))
    traj = evolve(u0, 0.5, SolverConfig(tau=0.1), keep="all")
    for state in traj.states:
        assert np.array_equal(state.values, u0.values)
    assert np.allclose(traj.series("energy"), grid.total_volume)


def test_energy_series_nonincreasing_on_jump_data():
    grid = interval_grid(0.0, 2.0, 100)
    cfg = SolverConfig(tau=2e-3)
    traj = evolve(quarter_circles(grid, c=1.0), 0.1, cfg)
    energy = traj.series("energy")
    assert np.max(np.diff(energy)) <= cfg.inner_tol


def test_random_data_flattens_to_its_mean():
    grid = interval_grid(0.0, 1.0, 50)
    rng = np.random.default_rng(2024)
    u0 = CellField(grid, rng.uniform(-1.0, 1.0, 50))
    mean = np.sum(grid.cell_volumes * u0.values) / grid.total_volume
    sigma, s = balanced_steps(grid, 3e-3)
    cfg = SolverConfig(tau=2e-2, sigma=sigma, s=s)
    traj = evolve(u0, 5.0, cfg)
    final = traj.records[-1]
    assert final.sup_norm <= abs(mean) + 1e-3
    assert abs(final.mean - mean) <= 1e-10


def test_comparison_and_max_principle():
    grid = interval_grid(0.0, 1.0, 40)
    rng = np.random.default_rng(5)
    u0 = CellField(grid, rng.uniform(-1.0, 1.0, 40))
    v0 = CellField(grid, u0.values + rng.uniform(0.0, 0.5, 40))
    cfg = SolverConfig(tau=5e-3, inner_tol=1e-10)
    tu = evolve(u0, 0.05, cfg, keep="all")
    tv = evolve(v0, 0.05, cfg, keep="all")
    for su, sv in zip(tu.states, tv.states):
        assert np.all(su.values <= sv.values + 1e-8)
    for state in tu.states:
        assert state.values.max() <= u0.values.max() + 1e-10
        assert state.values.min() >= u0.values.min() - 1e-10


def test_contraction_of_weighted_distance():
    grid = interval_grid(0.0, 1.0, 40)
    rng = np.random.default_rng(99)
    cfg = SolverConfig(tau=5e-3, inner_tol=1e-10)
    ua = evolve(CellField(grid, rng.uniform(-1, 1, 40)), 0.05, cfg, keep="all")
    ub = evolve(CellField(grid, rng.uniform(-1, 1, 40)), 0.05, cfg, keep="all")
    dist = [
        float(np.sqrt(np.sum(grid.cell_volumes * (a.values - b.values) ** 2)))
        for a, b in zip(ua.states, ub.states)
    ]
    assert np.max(np.diff(dist)) <= 2.0 * cfg.inner_tol


def test_vertical_shift_commutes_with_the_flow():
    grid = interval_grid(0.0, 1.0, 30)
    rng = np.random.default_rng(8)
    u0 = rng.uniform(-1.0, 1.0, 30)
    cfg = SolverConfig(tau=5e-3, inner_tol=1e-10)
    ta = evolve(CellField(grid, u0), 0.03, cfg, keep="all")
    tb = evolve(CellField(grid, u0 + 5.0), 0.03, cfg, keep="all")
    for sa, sb in zip(ta.states, tb.states):
        assert np.max(np.abs(sb.values - sa.values - 5.0)) <= 1e-7


def test_time_step_refinement_is_first_order():
    grid = interval_grid(0.0, 1.0, 64)
    u0 = cosine(grid)
    sigma, s = balanced_steps(grid, 3e-3)
    states = []
    for tau in (5e-3, 2.5e-3, 1.25e-3, 6.25e-4):
        cfg = SolverConfig(tau=tau, inner_tol=1e-11, sigma=sigma, s=s)
        states.append(evolve(u0, 0.05, cfg, snapshot_times=(0.05,)).snapshot_at(0.05)[1])
    diffs = [
        float(np.sqrt(np.sum(grid.cell_volumes * (a.values - b.values) ** 2)))
        for a, b in zip(states, states[1:])
    ]
    for coarse, fine in zip(diffs, diffs[1:]):
        assert 1.5 <= coarse / fine <= 2.5


def test_rectangle_run_keeps_all_certificates():
    grid = rectangle_grid((0.0, 0.0), (1.0, 1.0), (6, 5))
    rng = np.random.default_rng(31)
    u0 = CellField(grid, rng.uniform(-1.0, 1.0, (6, 5)))
    cfg = SolverConfig(tau=1e-2)
    traj = evolve(u0, 0.05, cfg, keep="all")
    mean = traj.series("mean")
    assert np.max(np.abs(mean - mean[0])) <= 1e-12
    assert np.max(np.diff(traj.series("energy"))) <= cfg.inner_tol
    assert np.max(np.diff(traj.series("sup_norm"))) <= 1e-10


def test_snapshot_times_are_clamped_into_the_run():
    grid = interval_grid(0.0, 1.0, 20)
    u0 = CellField(grid, np.zeros(20))
    traj = evolve(u0, 0.1, SolverConfig(tau=0.05), snapshot_times=(10.0,))
    t, u, flux = traj.snapshot_at(0.1)
    assert t == pytest.approx(0.1)
    assert np.array_equal(u.values, u0.values)
    assert flux is not None


def test_initial_snapshot_carries_the_variational_flux():
    grid = interval_grid(0.0, 2.0, 16)
    u0 = CellField(grid, np.linspace(0.0, 1.0, 16))
    traj = evolve(u0, 0.1, SolverConfig(tau=0.05), snapshot_times=(0.0,))
    _, u, flux = traj.snapshot_at(0.0)
    g = face_differences(u0)[0] / grid.spacing[0]
    assert np.allclose(flux.components[0], g / np.sqrt(1.0 + g**2))


def test_evolve_validation_errors():
    grid = interval_grid(0.0, 1.0, 10)
    u0 = CellField(grid, np.zeros(10))
    cfg = SolverConfig(tau=0.1)
    with pytest.raises(ValueError):
        evolve(u0, 0.0, cfg)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="t_end"):
            evolve(u0, bad, cfg)
        with pytest.raises(ValueError, match="kappa"):
            evolve(u0, 1.0, cfg, kappa=bad)
    for keep in ("sometimes", "none"):
        with pytest.raises(ValueError):
            evolve(u0, 1.0, cfg, keep=keep)
    with pytest.raises(ValueError):
        evolve(u0, 1.0, cfg, kappa=0.0)


def test_trajectory_accessors_validate_requests():
    grid = interval_grid(0.0, 1.0, 10)
    u0 = CellField(grid, np.zeros(10))
    traj = evolve(u0, 0.2, SolverConfig(tau=0.1))
    with pytest.raises(ValueError):
        traj.series("entropy")
    with pytest.raises(KeyError):
        traj.snapshot_at(0.1)  # no snapshot was requested there
    with pytest.raises(ValueError):
        traj.state_at(0.1)  # needs keep="all"
    kept = evolve(u0, 0.2, SolverConfig(tau=0.1), keep="all")
    with pytest.raises(KeyError):
        kept.state_at(5.0)  # outside the recorded range


# ---------------------------------------------------------------- radial


def test_radial_constant_is_stationary():
    grid = radial_grid(3, 1.0, 30)
    u0 = CellField(grid, np.full(30, 2.0))
    traj = evolve(u0, 0.2, SolverConfig(tau=0.05), keep="all")
    for state in traj.states:
        assert np.array_equal(state.values, u0.values)


def test_radial_spike_conserves_mean_and_stays_steep():
    grid = radial_grid(3, 1.0, 60)
    r = grid.cell_centers[0]
    u0 = CellField(grid, np.minimum(1.0 / r, 20.0))
    sigma, s = balanced_steps(grid, 1e-3)
    cfg = SolverConfig(tau=2e-3, sigma=sigma, s=s)
    traj = evolve(u0, 0.05, cfg)
    mean = traj.series("mean")
    assert np.max(np.abs(mean - mean[0])) <= 1e-8
    assert np.min(traj.series("lip")) >= 5.0
