"""Implicit minimizing steps and trajectories: optimality, conservation,
dissipation, comparison, refinement order, and error taxonomy."""

import itertools

import numpy as np
import pytest

from pmsflow import solver
from pmsflow.acceptance import _descent_oracle
from pmsflow.energy import _make_ops, _solve_tridiagonal, area_energy, prox_quadratic
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
from pmsflow.initial_data import capped_inverse, cosine, quarter_circles
from pmsflow.solver import (
    NonConvergenceError,
    SolverConfig,
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
    for name in ("max_inner", "check_every"):
        for bad in (2.5, True, "16"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SolverConfig(tau=0.1, **{name: bad})
        SolverConfig(tau=0.1, **{name: np.int64(3)})
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


def test_default_steps_balance_the_two_moduli():
    # the step quadratic is (1/tau)-strongly convex, the conjugate 1-strongly
    # convex: the default pair has s/sigma = tau at the largest product
    grids = (radial_grid(3, 1.0, 20), rectangle_grid((0.0, 0.0), (1.0, 2.0), (7, 6)))
    for grid, tau in itertools.product(grids, (1e-5, 1e-3, 0.5, 4.0)):
        bound = operator_norm_bound(grid)
        sigma, s = solver._resolve_steps(grid, SolverConfig(tau=tau))
        assert s / sigma == pytest.approx(tau, rel=1e-14)
        assert s * sigma * bound**2 == pytest.approx(1.0, rel=1e-14)
        explicit = SolverConfig(tau=tau, sigma=0.5 / bound, s=1.0 / bound)
        assert solver._resolve_steps(grid, explicit) == (0.5 / bound, 1.0 / bound)


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


# The in-place loop kernels may round differently from the public calculus,
# by at most this many ulps of the largest magnitude involved.
_KERNEL_ULPS = 8.0
# Rectangles with hx != hy (a square would hide swapped spacings), a 2-cell
# axis (empty interior slices) and 8 cells along the second axis, whose
# 64-byte column stride numpy 2.4's np.negative miswrites.
_KERNEL_RECTANGLES = [
    rectangle_grid((0.0, 0.0), (0.6, 1.3), (2, 2)),
    rectangle_grid((0.0, 0.0), (0.6, 1.3), (2, 7)),
    rectangle_grid((0.0, 0.0), (1.0, 2.0), (7, 6)),
    rectangle_grid((0.0, 0.0), (1.7, 0.4), (3, 8)),
]


@pytest.mark.parametrize(
    "grid",
    _KERNEL_RECTANGLES + _ALL_GRID_KINDS[:-1],
    ids=["rect2x2", "rect2x7", "rect7x6", "rect3x8", *_ALL_GRID_IDS[:-1]],
)
def test_loop_kernels_are_the_public_calculus(grid):
    # the primal-dual loop's in-place pair writes sigma K and b div: on
    # rectangles to rounding and exactly adjoint, on one-axis grids bit for bit
    ops = _make_ops(grid)
    rng = np.random.default_rng(12)
    v = 30.0 * rng.standard_normal(grid.shape)
    p = rng.uniform(-1.0, 1.0, ops.dual_shape)
    sigma, b = 0.37, 2.3e-3
    k_into, div_into = ops.loop_kernels(sigma, b)
    kv, bdivz = np.empty(ops.dual_shape), np.empty(grid.shape)
    k_into(v, kv)
    div_into(p, bdivz)
    if grid.kind == "rectangle":
        eps, h = np.finfo(float).eps, min(grid.spacing)
        k_mag = sigma * np.max(np.abs(v)) / h
        div_mag = b * np.max(np.abs(p)) / h
        assert np.max(np.abs(kv - sigma * ops.k_apply(v))) <= _KERNEL_ULPS * eps * k_mag
        assert np.max(np.abs(bdivz - b * ops.div_dual(p))) <= _KERNEL_ULPS * eps * div_mag
    else:
        assert np.array_equal(kv, sigma * ops.k_apply(v))
        assert np.array_equal(bdivz, b * ops.div_dual(p))
    lhs = float(np.sum(ops.dual_weights * ops.dot(kv, p))) / sigma
    rhs = float(np.sum(grid.cell_volumes * v * bdivz)) / b
    assert abs(lhs + rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


@pytest.mark.parametrize("theta", [1.0, 0.4])
def test_fused_primal_update_is_the_prox_and_extrapolation(theta):
    # on the increment w = v - u_prev, a w + b div p is
    # prox_quadratic(v + s div p, u_prev, tau, s) - u_prev, and vbar is its
    # extrapolation, to rounding
    grid = _KERNEL_RECTANGLES[2]
    ops = _make_ops(grid)
    rng = np.random.default_rng(13)
    v, u_prev = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    p = rng.uniform(-1.0, 1.0, ops.dual_shape)
    tau, s = 3e-3, 0.05
    a, b = solver._prox_coefficients(tau, s)
    bdivz, w_new, vbar = (np.empty(grid.shape) for _ in range(3))
    ops.loop_kernels(1.0, b)[1](p, bdivz)
    solver._primal_update(v - u_prev, bdivz, a, theta, u_prev, w_new, vbar)
    divz = ops.div_dual(p)
    want = prox_quadratic(v + s * divz, u_prev, tau, s)
    mag = max(np.max(np.abs(v)), np.max(np.abs(u_prev)), s * np.max(np.abs(divz)))
    tol = _KERNEL_ULPS * np.finfo(float).eps * mag
    assert np.max(np.abs(u_prev + w_new - want)) <= tol
    assert np.max(np.abs(vbar - (want + theta * (want - v)))) <= (1.0 + theta) * tol


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
    warm = implicit_step(first.u_next, cfg, dual=first.dual)
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


@pytest.mark.parametrize("height", [1e7, 1e8, 1e10])
def test_step_below_the_float_floor_fails_fast(height):
    # a jump this tall puts the primal certificate's rounding, about
    # eps * height / tau, above inner_tol: the Newton solve stops within a
    # few steps instead of spending max_inner on rounding noise
    grid = interval_grid(0.0, 1.0, 10)
    u = CellField(grid, np.where(np.arange(10) < 5, 0.0, height))
    with pytest.raises(NonConvergenceError) as info:
        implicit_step(u, SolverConfig(tau=1e-3))
    assert info.value.iterations <= 100
    assert max(info.value.primal_residual, info.value.dual_residual) > 1e-8


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
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            kkt_residual(u, FaceField(grid, (np.zeros(9),)), u, bad)


@pytest.mark.parametrize("grid", _ALL_GRID_KINDS, ids=_ALL_GRID_IDS)
def test_returned_certificate_is_the_public_one(grid):
    # whatever the inner loop computes with, the returned pair is exactly
    # u_prev + tau * divergence(flux) in the grid module's calculus and its
    # kkt_residual the public one, cold and warm-started
    rng = np.random.default_rng(58)
    u_prev = CellField(grid, rng.uniform(-1.0, 1.0, grid.shape))
    dual = None
    for _ in range(2):
        res = implicit_step(u_prev, SolverConfig(tau=1e-2), dual=dual)
        assert np.array_equal(res.u_next.values, u_prev.values + 1e-2 * divergence(res.flux).values)
        assert res.kkt_residual > 0.0
        assert res.kkt_residual == kkt_residual(res.u_next, res.dual, u_prev, 1e-2)
        u_prev, dual = res.u_next, res.dual


_SQUARE8 = rectangle_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
_LINE8 = interval_grid(0.0, 1.0, 8)


@pytest.mark.parametrize(
    "grid, dual, match",
    [
        (_SQUARE8, np.full((2, 8, 8), np.nan), "finite"),
        (_SQUARE8, np.full((2, 8, 8), np.inf), "finite"),
        (_SQUARE8, np.zeros((8, 8, 2)), r"\(2, 8, 8\)"),
        (_SQUARE8, np.zeros((3, 8, 8)), r"\(2, 8, 8\)"),
        (_SQUARE8, np.zeros(128), r"\(2, 8, 8\)"),
        (_LINE8, np.zeros(8), r"\(7,\)"),
        (_LINE8, np.full(7, np.nan), "finite"),
    ],
    ids=["nan", "inf", "cells-last", "lifted", "flat", "interval-length", "interval-nan"],
)
def test_warm_start_dual_is_validated(grid, dual, match):
    # a warm start of the wrong shape or with non-finite entries is a
    # ValueError naming the expected shape, raised before any inner iteration
    with pytest.raises(ValueError, match=match):
        implicit_step(cosine(grid, amplitude=0.5), SolverConfig(tau=1e-3), dual=dual)


def test_rectangle_dual_is_a_fixed_point_of_the_exact_prox():
    # the rectangle loop projects a lifted dual onto a unit ball; its
    # certified p must still be what the exact conjugate prox maps p + sigma q
    # back to, q = K u_next.  That prox fixes q / sqrt(1 + |q|^2), which lies
    # within the dual-relation residual of p, and it is nonexpansive.
    grid = rectangle_grid((0.0, 0.0), (1.0, 2.0), (7, 6))
    ops = _make_ops(grid)
    rng = np.random.default_rng(90)
    u = CellField(grid, np.where(rng.uniform(size=grid.shape) < 0.5, -1.0, 1.0))
    cfg = SolverConfig(tau=1e-2, inner_tol=1e-10)
    sigma, _ = solver._resolve_steps(grid, cfg)
    dual = None
    for _ in range(5):
        res = implicit_step(u, cfg, dual=dual)
        assert res.kkt_residual <= cfg.inner_tol
        d = res.dual + sigma * ops.k_apply(res.u_next.values)
        m = ops.magnitude(d)
        radius = solver._dual_radius(m, sigma, np.zeros_like(m))
        prox = radius / np.where(m > 0.0, m, 1.0) * d
        assert np.max(ops.magnitude(prox - res.dual)) <= 2.0 * res.kkt_residual + 1e-14
        u, dual = res.u_next, res.dual


# ------------------------------------------------------- one-axis Newton

_ONE_AXIS_SMALL = [
    *(interval_grid(0.0, 1.5, n) for n in (2, 3, 7)),
    *(radial_grid(n, 1.0, 9) for n in range(2, 7)),
]
_ONE_AXIS_SMALL_IDS = ["interval2", "interval3", "interval7", *(f"radial{n}" for n in range(2, 7))]


@pytest.mark.parametrize("grid", _ONE_AXIS_SMALL, ids=_ONE_AXIS_SMALL_IDS)
def test_hessian_bands_match_the_probed_dense_hessian(grid):
    # tau div^T V div has columns -W * K(div e_k), probed with the saddle
    # operators themselves; the bands are the closed form of it plus the
    # conjugate's diagonal W (1 - p^2)^(-3/2)
    ops = _make_ops(grid)
    rng = np.random.default_rng(3)
    n, tau = grid.face_shape(0)[0], 0.37
    p = rng.uniform(-0.95, 0.95, n)
    dense = np.diag(ops.dual_weights * (1.0 - p * p) ** -1.5)
    for k, e in enumerate(np.eye(n)):
        dense[:, k] -= tau * ops.dual_weights * ops.k_apply(ops.div_dual(e))
    diag, off = ops.hessian_bands(p, tau)
    banded = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.allclose(banded, dense, rtol=1e-12, atol=1e-12 * np.max(np.abs(dense)))
    assert np.all(np.linalg.eigvalsh(banded) > 0.0)


@pytest.mark.parametrize("grid", _ONE_AXIS_SMALL, ids=_ONE_AXIS_SMALL_IDS)
def test_dual_gradient_is_the_derivative_of_the_negative_dual(grid):
    ops = _make_ops(grid)
    rng = np.random.default_rng(4)
    u0, tau = rng.standard_normal(grid.shape), 0.2
    p = rng.uniform(-0.9, 0.9, grid.face_shape(0))
    grad = ops.dual_gradient(p, ops.k_apply(u0 + tau * ops.div_dual(p)))
    eps = 1e-6
    numeric = [
        (solver._negative_dual(ops, u0, tau, p + eps * e)[0]
         - solver._negative_dual(ops, u0, tau, p - eps * e)[0]) / (2.0 * eps)
        for e in np.eye(p.size)
    ]
    assert np.allclose(grad, numeric, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 257])
def test_tridiagonal_solve_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        off = rng.standard_normal(n - 1)
        pad = np.abs(np.concatenate([[0.0], off])) + np.abs(np.concatenate([off, [0.0]]))
        diag = pad + rng.uniform(1e-3, 2.0, n)  # diagonally dominant, hence SPD
        rhs = rng.standard_normal(n)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        x = _solve_tridiagonal(diag, off, rhs)
        assert np.allclose(x, np.linalg.solve(dense, rhs), rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(dense @ x - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(rhs)))


@pytest.mark.parametrize(
    "grid", [interval_grid(0.0, 2.0, 60), radial_grid(3, 1.0, 40)], ids=["interval", "radial3"]
)
def test_newton_step_agrees_with_the_primal_dual_loop(grid):
    # two certified minimizers of the same (1/tau)-strongly convex step lie
    # within 2 sqrt(2 tau inner_tol) of each other in the weighted norm
    rng = np.random.default_rng(21)
    u0 = np.where(rng.uniform(size=grid.shape) < 0.5, -1.0, 1.0) * rng.uniform(0.5, 1.0)
    cfg = SolverConfig(tau=1e-2, inner_tol=1e-9)
    ops = _make_ops(grid)
    newton = implicit_step(CellField(grid, u0), cfg)
    sigma, s = solver._resolve_steps(grid, cfg)
    pdhg = solver._pdhg(ops, u0, cfg, sigma, s, solver._variational_dual(ops, u0))
    assert max(newton.kkt_residual, pdhg.kkt_residual) <= cfg.inner_tol
    diff = newton.u_next.values - pdhg.u_next.values
    dist = float(np.sqrt(np.sum(grid.cell_volumes * diff**2)))
    assert dist <= 2.0 * np.sqrt(2.0 * cfg.tau * cfg.inner_tol)


@pytest.mark.parametrize(
    "grid", [interval_grid(0.0, 2.0, 60), radial_grid(3, 1.0, 40)], ids=["interval", "radial3"]
)
def test_one_axis_runs_ignore_the_step_sizes(grid):
    # valid sigma/s pairs steer only the rectangle loop: the Newton solve of
    # one-axis grids gives the same bits with any of them
    u0 = quarter_circles(grid, c=1.0) if grid.kind == "interval" else capped_inverse(grid, cap=20.0)
    bound = operator_norm_bound(grid)
    runs = [
        evolve(u0, 0.05, SolverConfig(tau=5e-3, sigma=sigma, s=s), keep="all")
        for sigma, s in [(None, None), (30.0 / bound, 1e-3 / bound), (1.0 / bound, 0.5 / bound)]
    ]
    first = runs[0]
    for other in runs[1:]:
        for a, b in zip(first.states, other.states, strict=True):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(first.inner_iters, other.inner_iters)
        assert np.array_equal(first.kkt_residuals, other.kkt_residuals)


@pytest.mark.parametrize("cells", [4000, 40000])
def test_newton_certifies_fine_cosine_grids(cells):
    grid = interval_grid(0.0, 1.0, cells)
    cfg = SolverConfig(tau=1e-3, inner_tol=1e-8, max_inner=20)
    traj = evolve(cosine(grid), 5e-3, cfg)
    assert len(traj.inner_iters) == 5
    assert np.max(traj.kkt_residuals) <= cfg.inner_tol


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
    cfg = SolverConfig(tau=2e-2)
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
    states = []
    for tau in (5e-3, 2.5e-3, 1.25e-3, 6.25e-4):
        cfg = SolverConfig(tau=tau, inner_tol=1e-11)
        states.append(evolve(u0, 0.05, cfg, snapshot_times=(0.05,)).snapshot_at(0.05)[1])
    diffs = [
        float(np.sqrt(np.sum(grid.cell_volumes * (a.values - b.values) ** 2)))
        for a, b in zip(states, states[1:])
    ]
    for coarse, fine in zip(diffs, diffs[1:]):
        assert 1.5 <= coarse / fine <= 2.5


def test_default_rectangle_steps_cut_the_inner_iterations():
    # s/sigma = tau against the symmetric pair s = sigma = 1/L: the same
    # certificates from at most a quarter of the inner iterations
    grid = rectangle_grid((0.0, 0.0), (1.0, 1.0), (24, 24))
    u0 = cosine(grid, amplitude=0.5)
    bound = operator_norm_bound(grid)
    derived = evolve(u0, 3e-3, SolverConfig(tau=1e-3))
    symmetric = evolve(u0, 3e-3, SolverConfig(tau=1e-3, sigma=1.0 / bound, s=1.0 / bound))
    assert len(derived.inner_iters) == 3
    assert 4 * np.sum(derived.inner_iters) <= np.sum(symmetric.inner_iters)
    for traj in (derived, symmetric):
        assert np.max(traj.kkt_residuals) <= traj.config.inner_tol


def test_default_rectangle_steps_certify_random_cold_steps():
    # seeded draws over cell counts, data, tau and amplitude: every cold
    # step with the derived pair certifies and keeps the step's guarantees
    rng = np.random.default_rng(1104)
    for _ in range(24):
        nx, ny = (int(n) for n in rng.integers(2, 25, size=2))
        grid = rectangle_grid((0.0, 0.0), (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)), (nx, ny))
        amplitude = 10.0 ** rng.uniform(-2.0, 2.0)
        if rng.uniform() < 0.5:
            shape = rng.uniform(-1.0, 1.0, (nx, ny))
        else:
            shape = np.where(rng.uniform(size=(nx, ny)) < 0.5, -1.0, 1.0)
        u = CellField(grid, amplitude * shape)
        cfg = SolverConfig(tau=10.0 ** rng.uniform(-4.0, np.log10(0.5)))
        res = implicit_step(u, cfg)
        assert res.inner_iters <= cfg.max_inner and res.kkt_residual <= cfg.inner_tol
        vol = grid.cell_volumes
        drift = abs(np.sum(vol * (res.u_next.values - u.values)))
        assert drift <= 1e-12 * (1.0 + np.sum(vol * np.abs(u.values)))
        assert max(float(np.max(np.abs(c))) for c in res.flux.components) < 1.0
        step_cost = np.sum(vol * (res.u_next.values - u.values) ** 2)
        lhs = area_energy(res.u_next) + step_cost / (2.0 * cfg.tau)
        assert lhs <= area_energy(u) + cfg.inner_tol


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
    cfg = SolverConfig(tau=2e-3)
    traj = evolve(u0, 0.05, cfg)
    mean = traj.series("mean")
    assert np.max(np.abs(mean - mean[0])) <= 1e-8
    assert np.min(traj.series("lip")) >= 5.0
