"""Implicit minimizing steps and trajectories: optimality, conservation,
dissipation, comparison, refinement order, and error taxonomy."""

import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from pmsflow import solver
from pmsflow.acceptance import _primal_step_oracle
import reference_calculus as ref
from pmsflow.energy import (
    _ldl_solve,
    _make_ops,
    _RectangleOps,
    _solve_tridiagonal,
    area_energy,
)
from pmsflow.grid import (
    CellField,
    FaceField,
    divergence_values,
    interval_grid,
    radial_grid,
    rectangle_grid,
)
from pmsflow.initial_data import capped_inverse, cosine, quarter_circles, random_piecewise
from pmsflow.runner import _initial_data, _resolve, main
from pmsflow.solver import (
    _DualIterate,
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
    assert operator_norm_bound(r) == pytest.approx(np.sqrt(100.0 + 25.0))
    rad = radial_grid(3, 1.0, 10)
    assert operator_norm_bound(rad) == pytest.approx(2.0 ** 1.5 / 0.1)


def _power_iterated_norm(ops, rng, iterations=200):
    # -div K is K^T K in the weighted metrics (div is K's negative adjoint),
    # so power iteration on it finds a unit v with |K v| close to |K|
    vol = ops.grid.cell_volumes
    v = rng.standard_normal(ops.grid.shape)
    for _ in range(iterations):
        v = -ops.div_dual(ops.k_apply(v))
        v /= np.sqrt(np.sum(vol * v**2))
    return float(np.sqrt(np.sum(ops.dual_weights * ops.magnitude(ops.k_apply(v)) ** 2)))


def test_operator_norm_bound_dominates_gradient():
    # |K u|_W <= L |u|_V on every grid the bound is quoted for, for random u
    # and for the power-iterated top of the spectrum; on rectangles the
    # bound is attained on 2 x 2 and nearly so on 96 x 96, so a return to
    # the loose forward-difference bound fails
    rng = np.random.default_rng(410)
    tight = [_KERNEL_RECTANGLES[0], rectangle_grid((0.0, 0.0), (1.0, 1.0), (96, 96))]
    grids = [
        interval_grid(0.0, 2.0, 30),
        radial_grid(2, 1.0, 25),
        radial_grid(3, 1.0, 25),
        radial_grid(4, 0.5, 25),
        *_KERNEL_RECTANGLES,
        rectangle_grid((0.0, 0.0), (1.0, 0.3), (40, 13)),
        tight[1],
    ]
    for grid in grids:
        ops = _make_ops(grid)
        bound = operator_norm_bound(grid)
        vol = grid.cell_volumes
        for _ in range(10):
            u = rng.standard_normal(grid.shape)
            lhs = np.sqrt(np.sum(ops.dual_weights * ops.magnitude(ops.k_apply(u)) ** 2))
            assert lhs <= bound * np.sqrt(np.sum(vol * u**2)) * (1.0 + 1e-12)
        norm = _power_iterated_norm(ops, rng)
        assert norm <= bound * (1.0 + 1e-12)
        if any(grid is g for g in tight):
            assert norm >= 0.95 * bound


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_rectangle_steps_certify_at_the_edge_of_the_bound(theta):
    # on 2 x 2 the bound is |K| itself: pairs with s * sigma * L^2 = 1
    # exactly still certify cold and warm steps, and a pair 1e-6 above that
    # limit is rejected with L named
    grid = _KERNEL_RECTANGLES[0]
    bound = operator_norm_bound(grid)
    assert _power_iterated_norm(_make_ops(grid), np.random.default_rng(1)) == pytest.approx(
        bound, rel=1e-12
    )
    rng = np.random.default_rng(2211)
    for _ in range(10):
        tau = 10.0 ** rng.uniform(-4.0, 0.0)
        root = np.sqrt(tau * 10.0 ** rng.uniform(-1.0, 1.0))  # sqrt(s / sigma)
        sigma, s = 1.0 / (bound * root), root / bound
        u = CellField(grid, 10.0 ** rng.uniform(-2.0, 1.0) * rng.uniform(-1.0, 1.0, grid.shape))
        cfg = SolverConfig(tau=tau, theta=theta, sigma=sigma, s=s)
        dual = None
        for _ in range(2):
            res = implicit_step(u, cfg, dual=dual)
            assert res.kkt_residual <= cfg.inner_tol
            u, dual = res.u_next, res.dual
        over = SolverConfig(tau=tau, theta=theta, sigma=sigma * (1.0 + 1e-6), s=s)
        with pytest.raises(ValueError, match=f"L = {bound:.6g}"):
            implicit_step(u, over)


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


def _same_bits(a, b):
    """Whether two float arrays agree bit for bit, signed zeros included."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_ALL_GRID_KINDS = [
    interval_grid(0.0, 2.0, 24),
    *(radial_grid(n, 1.0, 20) for n in range(2, 7)),
    rectangle_grid((0.0, 0.0), (1.0, 2.0), (7, 6)),
]
_ALL_GRID_IDS = ["interval", *(f"radial{n}" for n in range(2, 7)), "rectangle"]


@pytest.mark.parametrize("grid", _ALL_GRID_KINDS, ids=_ALL_GRID_IDS)
def test_saddle_operators_are_the_public_calculus(grid):
    # the saddle operators that the certificates and the Newton solve use
    # are the plain-numpy calculus, bit for bit: K u is the face gradient on
    # one-axis grids and its co-located face-pair means on rectangles, and
    # div p the divergence of the face flux (p itself, or the face-pair
    # means of the cell duals).  K is the exact negative adjoint of div
    # under the pairings it uses (the rectangle loop's in-place kernels
    # round differently; see the next test)
    ops = _make_ops(grid)
    rng = np.random.default_rng(77)
    u = rng.standard_normal(grid.shape)
    slopes = ref.slopes(grid, u)
    if grid.kind == "rectangle":
        p = rng.uniform(-1.0, 1.0, (2,) + grid.shape)
        k_want = ref.colocated(slopes)
        flux = (0.5 * (p[0, :-1, :] + p[0, 1:, :]), 0.5 * (p[1, :, :-1] + p[1, :, 1:]))
    else:
        p = rng.uniform(-1.0, 1.0, grid.face_shape(0))
        k_want, flux = slopes[0], (p,)
    assert np.array_equal(ops.k_apply(u), k_want)
    assert all(np.array_equal(a, b) for a, b in zip(ops.flux_components(p), flux, strict=True))
    assert np.array_equal(ops.div_dual(p), ref.divergence(grid, flux))
    lhs = float(np.sum(ops.dual_weights * ops.dot(ops.k_apply(u), p)))
    rhs = float(np.sum(grid.cell_volumes * u * ops.div_dual(p)))
    assert abs(lhs + rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))
    # K of a stack of states (B, *shape), as area_energy and the records
    # apply it, is K of each state; the dual axis leads on rectangles
    stack = rng.standard_normal((3,) + grid.shape)
    if grid.kind == "rectangle":
        k_stack = np.stack([ref.colocated(ref.slopes(grid, v)) for v in stack], axis=1)
    else:
        k_stack = np.stack([ref.slopes(grid, v)[0] for v in stack])
    assert np.array_equal(ops.k_apply(stack), k_stack)
    # the dual relation squares |q| as each layout's squared_magnitude does;
    # on faces that is q * q, which must equal the |q| * |q| it replaced,
    # signed zeros and huge slopes included
    q = ops.k_apply(u)
    q.reshape(-1)[:4] = (0.0, -0.0, 1e150, -1e150)
    m = ops.magnitude(q)
    root = np.sqrt(m * m + 1.0)
    want = (float(np.max(ops.magnitude(p * root - q))), root)
    got = solver._relation(ops, p, q)
    assert got[0] == want[0] and _same_bits(got[1], want[1])


# The in-place loop kernels may round differently from the public calculus,
# by at most this many ulps of the largest magnitude involved.
_KERNEL_ULPS = 8.0
# Rectangles with hx != hy (a square would hide swapped spacings), a 2-cell
# axis (empty interior slices) and 8 cells along the second axis, whose
# 64-byte column stride numpy 2.4's np.negative miswrites.  The operator
# norm bound is checked on them too; 2 x 2 attains it.
_KERNEL_RECTANGLES = [
    rectangle_grid((0.0, 0.0), (0.6, 1.3), (2, 2)),
    rectangle_grid((0.0, 0.0), (0.6, 1.3), (2, 7)),
    rectangle_grid((0.0, 0.0), (1.0, 2.0), (7, 6)),
    rectangle_grid((0.0, 0.0), (1.7, 0.4), (3, 8)),
]


@pytest.mark.parametrize(
    "grid", _KERNEL_RECTANGLES, ids=["rect2x2", "rect2x7", "rect7x6", "rect3x8"]
)
def test_loop_kernels_are_the_public_calculus(grid):
    # on a primal carried in units of c, the rectangle loop's in-place pair,
    # bound to its buffers, adds sigma K v into the dual and writes
    # c b div p, to rounding, and is exactly adjoint
    ops = _make_ops(grid)
    rng = np.random.default_rng(12)
    v = 30.0 * rng.standard_normal(grid.shape)
    p = rng.uniform(-1.0, 1.0, ops.dual_shape)
    sigma, b = 0.37, 2.3e-3
    cv, scratch, cbdivz = (np.empty(grid.shape) for _ in range(3))
    kv = np.zeros(ops.dual_shape)
    c, k_add, _ = ops.loop_kernels(sigma, b, cv, kv, scratch, cbdivz)
    assert c == 0.5 * sigma / grid.spacing[0]
    cv[...] = c * v
    k_add()
    c, _, div_into = ops.loop_kernels(sigma, b, cv, p, scratch, cbdivz)
    div_into()
    eps, h = np.finfo(float).eps, min(grid.spacing)
    k_mag = sigma * np.max(np.abs(v)) / h
    div_mag = c * b * np.max(np.abs(p)) / h
    assert np.max(np.abs(kv - sigma * ops.k_apply(v))) <= _KERNEL_ULPS * eps * k_mag
    assert np.max(np.abs(cbdivz - c * b * ops.div_dual(p))) <= _KERNEL_ULPS * eps * div_mag
    lhs = float(np.sum(ops.dual_weights * ops.dot(kv, p))) / sigma
    rhs = float(np.sum(grid.cell_volumes * v * cbdivz)) / (c * b)
    assert abs(lhs + rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))
    # k_add adds into the dual it is bound to: from p it gives p + sigma K v
    moved = p.copy()
    ops.loop_kernels(sigma, b, cv, moved, scratch, cbdivz)[1]()
    assert np.array_equal(moved, p + kv)


@pytest.mark.parametrize("theta", [1.0, 0.4])
def test_fused_primal_update_is_the_prox_and_extrapolation(theta):
    # in units of c, on the increment w = v - u_prev, a w + b div p is
    # prox(v + s div p) - u_prev, with prox(v_hat) = (tau v_hat + s u_prev)
    # / (tau + s) the minimizer of |v - u_prev|^2 / (2 tau) + |v - v_hat|^2
    # / (2 s), and vbar is its extrapolation, to rounding
    grid = _KERNEL_RECTANGLES[2]
    ops = _make_ops(grid)
    rng = np.random.default_rng(13)
    v, u_prev = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    p = rng.uniform(-1.0, 1.0, ops.dual_shape)
    tau, s = 3e-3, 0.05
    a, b = solver._prox_coefficients(tau, s)
    cbdivz, w_new, vbar, scratch = (np.empty(grid.shape) for _ in range(4))
    c, _, div_into = ops.loop_kernels(0.37, b, vbar, p, scratch, cbdivz)
    div_into()
    solver._primal_update(c * (v - u_prev), cbdivz, a, theta, c * u_prev, w_new, vbar)
    divz = ops.div_dual(p)
    want = (tau * (v + s * divz) + s * u_prev) / (tau + s)
    mag = max(np.max(np.abs(v)), np.max(np.abs(u_prev)), s * np.max(np.abs(divz)))
    tol = _KERNEL_ULPS * np.finfo(float).eps * mag
    assert np.max(np.abs(u_prev + w_new / c - want)) <= tol
    assert np.max(np.abs(vbar / c - (want + theta * (want - v)))) <= (1.0 + theta) * tol
    # the step is the proximal step, so (v_new - u_prev)/tau - div p = (v - v_new)/s:
    # the loop screens with |W - W_new|_V / (c s), the public primal residual of v_new
    step = c * (v - u_prev) - w_new
    screen = math.sqrt(grid.cell_volumes.flat[0] * np.vdot(step, step)) / (c * s)
    r = (u_prev + w_new / c - u_prev) / tau - divz
    primal = math.sqrt(np.sum(grid.cell_volumes * r * r))
    scale = np.max(np.abs(u_prev)) / tau + np.max(np.abs(divz))
    assert abs(screen - primal) <= _KERNEL_ULPS * np.finfo(float).eps * scale


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
    oracle, _ = _primal_step_oracle(grid, u_prev.values, 0.1)
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
    # the step keeps only its dual; each read of the flux makes it from that
    # dual, bit for bit, in arrays of its own
    assert [f.name for f in dataclasses.fields(res)] == ["u_next", "dual", "inner_iters",
                                                         "kkt_residual"]
    flux = res.flux
    for got, want in zip(flux.components, _make_ops(grid).flux_components(res.dual), strict=True):
        assert np.array_equal(got, want) and not np.shares_memory(got, res.dual)
    assert res.flux is not flux


def test_warm_start_agrees_with_cold_start():
    grid = interval_grid(0.0, 2.0, 60)
    u0 = quarter_circles(grid, c=1.0)
    cfg = SolverConfig(tau=5e-3, inner_tol=1e-10)
    first = implicit_step(u0, cfg)
    cold = implicit_step(first.u_next, cfg)
    warm = implicit_step(first.u_next, cfg, dual=first.dual)
    assert np.max(np.abs(cold.u_next.values - warm.u_next.values)) <= 1e-7
    assert warm.inner_iters <= cold.inner_iters


@pytest.mark.parametrize(
    "grid", [interval_grid(0.0, 2.0, 60), radial_grid(3, 1.0, 40)], ids=["interval", "radial3"]
)
def test_saturated_start_duals_take_the_cold_start(grid):
    # Newton replaces start entries at or beyond |p| = 1 by the cold start's,
    # so a start of +-1.5 everywhere is the cold step, bit for bit
    u = cosine(grid, amplitude=0.5)
    cfg = SolverConfig(tau=5e-3, inner_tol=1e-10)
    cold = implicit_step(u, cfg)
    signs = np.where(np.arange(_make_ops(grid).dual_shape[0]) % 3 == 0, -1.0, 1.0)
    saturated = implicit_step(u, cfg, dual=1.5 * signs)
    assert saturated.inner_iters == cold.inner_iters
    assert np.array_equal(saturated.u_next.values, cold.u_next.values)
    assert np.array_equal(saturated.dual, cold.dual)


@pytest.mark.parametrize("cells", [16, 96])
def test_rectangle_step_from_its_own_dual_certifies_at_once(cells):
    # the primal iterate starts at u_prev + tau div p, the state the start
    # dual certifies, so a step re-solved from its own certified dual passes
    # the first check (started at u_prev it takes 32 iterations on 16 x 16
    # and 96 on 96 x 96)
    grid = rectangle_grid((0.0, 0.0), (1.0, 1.0), (cells, cells))
    u = cosine(grid, amplitude=0.5)
    cfg = SolverConfig(tau=1e-3)
    first = implicit_step(u, cfg)
    again = implicit_step(u, cfg, dual=first.dual)
    assert first.inner_iters > 1
    assert again.inner_iters == 1
    assert again.kkt_residual <= cfg.inner_tol


_PREDICTOR_GRIDS = [interval_grid(0.0, 1.0, 4), rectangle_grid((0.0, 0.0), (1.0, 1.0), (2, 2))]


@pytest.mark.parametrize("grid", _PREDICTOR_GRIDS)
def test_dual_predictor_keeps_the_last_dual_where_it_leaves_the_ball(grid):
    # from two duals the prediction is 2 p - prev; an entry (a cell's vector
    # on rectangles) whose prediction leaves the open unit ball keeps p
    ops = _make_ops(grid)
    if grid.kind == "interval":
        p, prev = np.array([0.5, 0.9, -0.9]), np.array([0.4, 0.5, -0.5])
        expected = np.array([0.6, 0.9, -0.9])
    else:
        p = np.array([[[0.5, 0.0], [0.6, 0.1]], [[0.0, 0.1], [0.6, 0.1]]])
        prev = np.array([[[0.3, 0.0], [0.2, 0.1]], [[0.0, 0.1], [0.2, 0.1]]])
        expected = np.array([[[0.7, 0.0], [0.6, 0.1]], [[0.0, 0.1], [0.6, 0.1]]])
    predictor = solver._DualPredictor(ops)
    assert predictor.push(prev.copy()) is predictor.table[0]  # the second step's start
    out = predictor.push(p.copy())
    assert predictor.order == 2
    assert np.allclose(out, expected, rtol=0.0, atol=1e-15)


def _polynomial_duals(ops, degree, n, rng):
    """n duals p_k = sum_j c_j (k/10)^j, k = 1 ... n, with drawn coefficients
    of a polynomial of the given degree, all inside the ball |p| < 0.9."""
    t = 0.1 * np.arange(1, n + 1)
    coeffs = rng.uniform(-1.0, 1.0, (degree + 1,) + ops.dual_shape)
    duals = [sum(c * tk**j for j, c in enumerate(coeffs)) for tk in t]
    scale = 0.9 / max(float(np.max(ops.magnitude(p))) for p in duals)
    return [scale * p for p in duals]


@pytest.mark.parametrize("degree", range(6))
@pytest.mark.parametrize("grid", _PREDICTOR_GRIDS)
def test_dual_predictor_is_exact_on_polynomial_duals(grid, degree):
    # the polynomial through the last m duals reproduces a dual polynomial
    # of degree < m; once the table holds nabla^(degree+1), which is zero to
    # rounding, the chosen order is at least degree + 1
    ops = _make_ops(grid)
    duals = _polynomial_duals(ops, degree, 14, np.random.default_rng(degree))
    predictor = solver._DualPredictor(ops)
    for k, p in enumerate(duals[:-1], start=1):
        out = predictor.push(p.copy())
        if k >= degree + 2:
            assert predictor.order >= degree + 1
            assert np.allclose(out, duals[k], rtol=0.0, atol=1e-12)


def _backward_differences(history, top):
    """nabla^j of the last entry of ``history``, j = 0 ... top, written out
    as sum_i (-1)^i C(j, i) p_(k-i)."""
    return [
        sum((-1) ** i * math.comb(j, i) * history[-1 - i] for i in range(j + 1))
        for j in range(top + 1)
    ]


@pytest.mark.parametrize("grid", _PREDICTOR_GRIDS)
def test_dual_predictor_takes_the_order_of_the_smallest_difference(grid):
    # smooth duals plus noise that grows and shrinks: low differences carry
    # the trend, high ones amplify the noise, so the order moves; against
    # differences written out from the kept history, the table holds
    # nabla^j p_k, the order minimizes |nabla^m| (one higher while that is
    # the top of a table not yet full), and the prediction sums the first m
    ops = _make_ops(grid)
    rng = np.random.default_rng(5)
    base = rng.uniform(-1.0, 1.0, (2,) + ops.dual_shape)
    top_order = solver._MAX_ORDER
    predictor = solver._DualPredictor(ops)
    history, orders = [], set()
    for k in range(1, 25):
        noise = 10.0 ** (-8 + 6 * np.sin(0.4 * k) ** 2) * rng.standard_normal(ops.dual_shape)
        p = 0.4 * np.sin(0.2 * k + base[0]) * np.cos(base[1]) + noise
        history.append(p.copy())
        out = predictor.push(p)
        table = predictor.table
        top = min(k - 1, top_order)
        assert len(table) == top + 1  # at most _MAX_ORDER + 1 arrays
        assert table[0] is p
        assert len({id(d) for d in table}) == len(table)
        expected = _backward_differences(history, top)
        for j in range(top + 1):
            assert np.allclose(table[j], expected[j], rtol=0.0, atol=1e-12)
        m = 1
        if top > 0:
            m = 1 + int(np.argmin([np.sum(d * d) for d in table[1:]]))
            if m == top < top_order:
                m += 1
        assert predictor.order == m
        orders.add(m)
        prediction = sum(expected[:m])
        keep = ops.magnitude(prediction) >= 1.0
        assert np.allclose(out, np.where(keep, p, prediction), rtol=0.0, atol=1e-12)
        assert all(out is not d for d in table[1:])
    assert len(orders) >= 3


def _previous_dual_counts(u, cfg, n_steps):
    """Certificate evaluations of n_steps steps that each start from the
    previous step's dual as it stands, and whether the first extrapolation
    2 p_2 - p_1 leaves the unit ball."""
    counts, duals = [], []
    dual = None
    for _ in range(n_steps):
        res = implicit_step(u, cfg, dual=dual)
        counts.append(res.inner_iters)
        duals.append(res.dual)
        u, dual = res.u_next, res.dual
    ops = _make_ops(u.grid)
    leaves = float(np.max(ops.magnitude(2.0 * duals[1] - duals[0]))) >= 1.0
    return np.array(counts), leaves


def _linear_prediction_counts(u, cfg, n_steps):
    """Certificate evaluations of n_steps steps started as by the linear
    predictor: cold, then from p_1, then from 2 p_k - p_(k-1), with p_k kept
    on entries where that leaves the open unit ball."""
    ops = _make_ops(u.grid)
    counts = []
    dual = prev = None
    for _ in range(n_steps):
        res = implicit_step(u, cfg, dual=dual)
        counts.append(res.inner_iters)
        dual = res.dual
        if prev is not None:
            dual = 2.0 * dual - prev
            dual = np.where(ops.magnitude(dual) >= 1.0, res.dual, dual)
        u, prev = res.u_next, res.dual
    return np.array(counts)


def test_quarter_circles_steps_take_at_most_two_evaluations_from_the_third_on():
    # the predicted dual of a smooth flow misses the next dual by O(tau^m):
    # one Newton step certifies from the third step on, and on some steps
    # the start itself does
    cfg = _resolve("quarter_circles", {})
    u0 = _initial_data(cfg)
    traj = evolve(u0, 0.4, cfg)
    assert len(traj.inner_iters) == 400
    assert list(traj.inner_iters[:2]) == [3, 3]
    assert np.all(traj.inner_iters[2:] <= 2)
    assert np.any(traj.inner_iters == 1)
    assert np.sum(traj.inner_iters) <= 710


@pytest.mark.parametrize("experiment", ["radial_spike", "smooth_cosine"])
def test_extrapolated_starts_cut_the_preset_evaluations(experiment):
    # over the first 100 steps of the steep and the tightly certified
    # preset, the variable order takes fewer evaluations than the linear
    # prediction 2 p_k - p_(k-1)
    cfg = _resolve(experiment, {})
    u0 = _initial_data(cfg)
    traj = evolve(u0, 100 * cfg.tau, cfg)
    reference = _linear_prediction_counts(u0, cfg, 100)
    assert len(traj.inner_iters) == 100
    assert np.sum(traj.inner_iters) < np.sum(reference)
    assert np.max(traj.kkt_residuals) <= cfg.inner_tol


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "grid", [interval_grid(0.0, 1.0, 64), radial_grid(3, 1.0, 64)], ids=["interval", "radial3"]
)
def test_extrapolated_starts_that_leave_the_ball_cost_no_evaluations(grid, seed):
    # on jump data the prediction leaves the unit ball where a flux nears
    # saturation; those entries keep the last dual, so the run takes no more
    # evaluations than starting every step from the last dual (scaled back
    # onto |p| = 1 instead, such a step took about 37)
    u0 = random_piecewise(grid, np.random.default_rng(seed), pieces=6)
    cfg = SolverConfig(tau=5e-3, inner_tol=1e-10)
    traj = evolve(u0, 0.1, cfg)
    reference, leaves = _previous_dual_counts(u0, cfg, 20)
    assert leaves
    assert np.sum(traj.inner_iters) <= np.sum(reference)
    assert np.max(traj.inner_iters) <= np.max(reference) + 2
    assert np.max(traj.kkt_residuals) <= cfg.inner_tol


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


def test_rectangle_non_convergence_reports_the_full_triplet(monkeypatch):
    # intermediate checks stop at a failing screen; at max_inner the loop
    # still certifies the pair it would return, u_prev + tau div p with p,
    # so the error names that pair's three certificates
    grid = rectangle_grid((0.0, 0.0), (1.0, 1.0), (12, 10))
    residuals, results = solver._residuals, []

    def captured(*args):
        results.append(residuals(*args))
        return results[-1]

    monkeypatch.setattr(solver, "_residuals", captured)
    with pytest.raises(NonConvergenceError) as info:
        implicit_step(cosine(grid, amplitude=0.5), SolverConfig(tau=1e-3, max_inner=3))
    err = info.value
    assert err.iterations == 3
    triplet = (err.primal_residual, err.dual_residual, err.gap)
    assert all(np.isfinite(r) for r in triplet)
    assert triplet == results[-1]
    assert err.dual_residual > 1e-8
    for name, value in zip(("primal", "dual", "gap"), triplet):
        assert f"{name} {value:.3e}" in str(err)


@pytest.mark.parametrize("failure", ["max_inner", "line search stalled"])
def test_one_axis_non_convergence_reports_the_full_triplet(failure, monkeypatch):
    # Newton screens its iterates and trials with the dual relation alone;
    # both failure exits still evaluate the primal residual and the gap, so
    # all three are finite and named
    if failure == "max_inner":
        grid = interval_grid(0.0, 2.0, 100)
        u, cfg = quarter_circles(grid, c=1.0), SolverConfig(tau=1e-2, max_inner=2)
    else:  # the step of test_step_below_the_float_floor_fails_fast at height 1e7
        grid = interval_grid(0.0, 1.0, 10)
        u, cfg = CellField(grid, np.where(np.arange(10) < 5, 0.0, 1e7)), SolverConfig(tau=1e-3)
    relation, residuals, screens, results = solver._relation, solver._residuals, [], []

    def screened(*args):
        screens.append(args)
        return relation(*args)

    def certified(*args):
        results.append(residuals(*args))
        return results[-1]

    descends, tests = solver._descends, []

    def tested(*args):
        tests.append(descends(*args))
        return tests[-1]

    monkeypatch.setattr(solver, "_relation", screened)
    monkeypatch.setattr(solver, "_residuals", certified)
    monkeypatch.setattr(solver, "_descends", tested)
    with pytest.raises(NonConvergenceError) as info:
        implicit_step(u, cfg)
    err = info.value
    assert ("line search stalled" in str(err)) == (failure == "line search stalled")
    # the relation is evaluated once per dual: every iterate, and every
    # line-search trial the descent test turned away
    rejected = tests.count(False)
    assert len(screens) == err.iterations + rejected
    assert (rejected >= solver._MAX_HALVINGS) == (failure == "line search stalled")
    triplet = (err.primal_residual, err.dual_residual, err.gap)
    assert triplet == results[-1]
    assert all(np.isfinite(r) for r in triplet)
    assert max(err.primal_residual, err.dual_residual) > cfg.inner_tol
    for name, value in zip(("primal", "dual", "gap"), triplet):
        assert f"{name} {value:.3e}" in str(err)


def test_newton_runs_the_full_certificate_once_per_certified_step(monkeypatch):
    # the dual relation screens every iterate; the three-part certificate
    # runs only on the iterate that passes it, so once per step however many
    # iterates the step takes
    grid = interval_grid(0.0, 2.0, 100)
    u0, cfg = quarter_circles(grid, c=1.0), SolverConfig(tau=1e-3)
    first = implicit_step(u0, cfg)
    residuals, calls = solver._residuals, []

    def counted(*args):
        calls.append(args)
        return residuals(*args)

    monkeypatch.setattr(solver, "_residuals", counted)
    res = implicit_step(first.u_next, cfg, dual=first.dual)
    assert res.inner_iters > 1
    assert len(calls) == 1
    calls.clear()
    traj = evolve(u0, 5 * cfg.tau, cfg)
    assert len(traj.inner_iters) == 5 and traj.inner_iters.sum() > 5
    assert len(calls) == 5
    monkeypatch.undo()
    assert res.kkt_residual == kkt_residual(res.u_next, res.dual, first.u_next, cfg.tau)


# What a dual of the Newton solve makes, in order: every dual, the start and
# each line-search trial, is screened with the dual relation once, as soon
# as it is made.  A dual that certifies makes nothing more.  A trial that
# does not meets the descent test, which makes -D (Armijo) or the gradient
# (relation test); an iterate that steps makes the gradient for its
# direction, and -D for a descent test unless it has it already.
_DUAL_HISTORIES = {
    ("new", "screen"),
    ("new", "screen", "grad"), ("new", "screen", "grad", "-D"),
    ("new", "screen", "-D"), ("new", "screen", "-D", "grad"),
}


class _Recorder:
    """Records, per ``_DualIterate`` that ``solver`` makes, the terms it
    makes in order: its screen, which construction makes, its certificate,
    the gradient, -D (with its noise) and each ``relation_sq`` read;
    ``install`` patches them in through monkeypatch."""

    def __init__(self):
        self.duals, self.events = [], []

    def install(self, monkeypatch):
        duals, events = self.duals, self.events

        class Recorded(_DualIterate):
            def __init__(self, *args):
                duals.append(self)  # before construction, which screens it
                events.append(("new", self))
                super().__init__(*args)

            def _negative_dual(self):
                events.append(("-D", self))
                super()._negative_dual()

            @property
            def grad(self):
                if self._grad is None:
                    events.append(("grad", self))
                return super().grad

            def relation_sq(self):
                events.append(("relation_sq", self))
                return super().relation_sq()

        relation, residuals = solver._relation, solver._residuals

        def owner(p):
            return next(d for d in duals if d.p is p)

        def screened(ops, p, q):
            events.append(("screen", owner(p)))
            return relation(ops, p, q)

        def certified(ops, u_prev, tau, p, *args):
            events.append(("cert", owner(p)))
            return residuals(ops, u_prev, tau, p, *args)

        monkeypatch.setattr(solver, "_DualIterate", Recorded)
        monkeypatch.setattr(solver, "_relation", screened)
        monkeypatch.setattr(solver, "_residuals", certified)

    def clear(self):
        self.duals.clear()
        self.events.clear()

    def histories(self, kinds=("screen", "grad", "-D")):
        return [tuple(kind for kind, d in self.events if d is dual and kind in ("new",) + kinds)
                for dual in self.duals]


def test_newton_makes_each_term_of_a_dual_only_where_it_is_read(monkeypatch):
    # -D (with its noise) and the gradient are made on their first read,
    # and the dual relation screens each dual once, as soon as it is made,
    # and is handed to the certificate: a certified dual makes nothing
    # after its screen, a trial tested by the relation never makes -D, and
    # one turned away by Armijo never makes the gradient.  Runs: a cold
    # step, a 5-step evolve, and the step of
    # test_step_below_the_float_floor_fails_fast at height 1e7, whose line
    # search turns 60 relation-tested trials away
    recorder, descends, tests = _Recorder(), solver._descends, []

    def tested(*args):
        tests.append(descends(*args))
        return tests[-1]

    recorder.install(monkeypatch)
    monkeypatch.setattr(solver, "_descends", tested)
    grid = interval_grid(0.0, 2.0, 100)
    u0, cfg = quarter_circles(grid, c=1.0), SolverConfig(tau=1e-3)
    runs = []
    for run in range(3):
        recorder.clear()
        tests.clear()
        if run == 0:
            iters = [implicit_step(u0, cfg).inner_iters]
        elif run == 1:
            iters = evolve(u0, 5 * cfg.tau, cfg).inner_iters
        else:
            tall = CellField(interval_grid(0.0, 1.0, 10), np.where(np.arange(10) < 5, 0.0, 1e7))
            with pytest.raises(NonConvergenceError, match="line search stalled") as info:
                implicit_step(tall, cfg)
            iters = [info.value.iterations]
        runs.append((iters, recorder.histories(), tests.count(False),
                     recorder.histories(("cert",))))
    monkeypatch.undo()
    for iters, histories, rejected, certificates in runs:
        assert set(histories) <= _DUAL_HISTORIES
        assert all(h.count("screen") == 1 for h in histories)
        assert all(h.count("cert") <= 1 for h in certificates)
        assert len(histories) == sum(iters) + rejected  # iterates and turned-away trials
    # the histories that end in their screen are the certified duals
    (cold, cold_histories, *_), (steps, histories, *_), (_, stall_histories, stalled, _) = runs
    assert cold_histories.count(("new", "screen")) == len(cold) == 1
    assert histories.count(("new", "screen")) == len(steps) == 5
    assert ("new", "screen") not in stall_histories
    assert stalled == solver._MAX_HALVINGS
    assert stall_histories.count(("new", "screen", "grad")) >= stalled


def _descent_first_newton(ops, u0, cfg, p):
    """``solver._newton`` in the order it had before it screened its trials:
    every trial meets the descent test (``solver._descends``) and is
    screened only as the next iterate.  Returns the certified dual, the
    iterate count and the number of trials that would have certified but
    were turned away by the descent test, or None where it stalls."""
    tau, tol, bound = cfg.tau, cfg.inner_tol, solver._P_MAX
    outside = np.abs(p) >= 1.0
    if outside.any():
        p = np.where(outside, solver._variational_dual(ops, u0), p)
    coupling = ops.hessian_coupling(tau)
    it, turned_away = _DualIterate(ops, u0, tau, np.clip(p, -bound, bound)), 0
    for k in range(1, cfg.max_inner + 1):
        if it.certified(tol):
            return it.p, k, turned_away
        d = _solve_tridiagonal(*it.hessian_bands(coupling), -it.grad)
        with np.errstate(divide="ignore"):
            room = np.divide(np.copysign(1.0, d) - it.p, d)
        alpha = min(1.0, solver._TO_BOUNDARY * float(room.min()))
        slope = float(np.dot(it.grad, d))
        for _ in range(solver._MAX_HALVINGS):
            trial = _DualIterate(ops, u0, tau, np.clip(it.p + alpha * d, -bound, bound))
            if solver._descends(it, trial, alpha, slope):
                break
            turned_away += trial.certified(tol)
            alpha *= 0.5
        else:
            return None
        it = trial
    return None


def test_newton_returns_the_trial_it_certifies(monkeypatch):
    # a line-search trial is screened, and certified where its screen
    # passes, before its descent test; a trial that certifies is returned
    # at once as the next iterate
    grid = interval_grid(0.0, 2.0, 100)
    u0, cfg = quarter_circles(grid, c=1.0), SolverConfig(tau=1e-3)
    recorder, residuals, certified = _Recorder(), solver._residuals, []

    def counted(ops, u_prev, tau, p, *args):
        certified.append(p)
        return residuals(ops, u_prev, tau, p, *args)

    # (1) a certified trial makes no -D, noise, gradient or relation_sq, and
    # each step runs the full certificate once
    recorder.install(monkeypatch)
    monkeypatch.setattr(solver, "_residuals", counted)
    traj = evolve(u0, 5 * cfg.tau, cfg)
    histories = recorder.histories(("screen", "grad", "-D", "relation_sq"))
    assert len(certified) == 5
    returned = [h for d, h in zip(recorder.duals, histories)
                if any(d.p is p for p in certified)]
    assert returned == [("new", "screen")] * 5
    assert traj.inner_iters.sum() > 5  # some steps return a trial
    monkeypatch.undo()

    # (2) iterate max_inner may be a certified trial: a step of that evolve
    # whose first trial certifies returns 2 iterates under max_inner = 2
    starts, step = [], solver.implicit_step

    def started(u, cfg, dual=None):
        starts.append((u, None if dual is None else dual.copy()))  # the predictor reuses it
        return step(u, cfg, dual=dual)

    monkeypatch.setattr(solver, "implicit_step", started)
    k = list(evolve(u0, 5 * cfg.tau, cfg).inner_iters).index(2)
    monkeypatch.undo()
    u, dual = starts[k]
    res, capped = (implicit_step(u, dataclasses.replace(cfg, max_inner=m), dual=dual)
                   for m in (cfg.max_inner, 2))
    assert res.inner_iters == capped.inner_iters == 2
    assert np.array_equal(capped.dual, res.dual)
    assert np.array_equal(capped.u_next.values, res.u_next.values)

    # (3) a trial that passes the screen but not the certificate (the primal
    # residual of this jump lies at its float floor) is certified once: one
    # that the descent test then accepts carries its certificate into the
    # iteration it is the iterate of.  After that failure at the floor the
    # line search only screens its trials, and the next iterate, a trial it
    # accepted, is certified as the iterate
    tall = CellField(interval_grid(0.0, 1.0, 20), np.where(np.arange(20) < 10, 0.0, 3e5))
    results, descends, accepted = [], solver._descends, []

    def kept(*args):
        results.append(residuals(*args))
        certified.append(args[3])
        return results[-1]

    def tested(it, trial, *args):
        if descends(it, trial, *args):
            accepted.append(trial.p)
            return True
        return False

    certified.clear()
    monkeypatch.setattr(solver, "_residuals", kept)
    monkeypatch.setattr(solver, "_descends", tested)
    with pytest.raises(NonConvergenceError, match="line search stalled") as info:
        implicit_step(tall, cfg)
    monkeypatch.undo()
    err = info.value
    assert len({id(p) for p in certified}) == len(certified) > 1
    assert not any(all(r <= cfg.inner_tol for r in triplet) for triplet in results)
    assert any(dual <= cfg.inner_tol < primal for primal, dual, _ in results)
    assert any(p is q for p in accepted for q in certified[:-1])  # a carried certificate
    assert (err.primal_residual, err.dual_residual, err.gap) in results

    # (4) on quarter_circles data, radial grids N = 2 ... 6 and random
    # pieces, every trial that certifies also passes the descent test, so
    # each step returns the dual and iterate count of the former order bit
    # for bit
    newton, compared = solver._newton, []

    def both(ops, u0, cfg, p):
        expected = _descent_first_newton(ops, u0, cfg, p)
        res = newton(ops, u0, cfg, p)
        dual, iters, turned_away = expected
        assert turned_away == 0
        assert res.inner_iters == iters and np.array_equal(res.dual, dual)
        compared.append(iters)
        return res

    monkeypatch.setattr(solver, "_newton", both)
    grid = interval_grid(0.0, 2.0, 100)
    evolve(quarter_circles(grid, c=1.0), 0.02, SolverConfig(tau=1e-3))
    for n in range(2, 7):
        grid = radial_grid(n, 1.0, 64)
        evolve(capped_inverse(grid), 0.01, SolverConfig(tau=5e-4))
    cfg = SolverConfig(tau=5e-3, inner_tol=1e-10)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for grid in (interval_grid(0.0, 1.0, 64), radial_grid(2 + seed, 1.0, 48)):
            evolve(random_piecewise(grid, rng, pieces=6), 0.05, cfg)
    assert len(compared) == 20 + 5 * 20 + 8 * 10
    assert sum(k > 1 for k in compared) > 100  # steps that return a trial


@pytest.mark.parametrize("cells, height", [(10, 1e7), (12, 3e6), (20, 3e5)])
def test_a_stalled_line_search_certifies_each_iterate_at_most_once(cells, height, monkeypatch):
    # the primal residual of these jumps lies at the float floor, so none of
    # their steps can certify and each line search stalls.  Once a
    # certificate fails there, the line search only screens its trials: the
    # step runs at most one certificate per iterate, and fails with the
    # same message, iterate count and triplet as when it certifies every
    # trial whose screen passes (61 and 64 certificates on the 12- and
    # 20-cell jumps)
    grid = interval_grid(0.0, 1.0, cells)
    u = CellField(grid, np.where(np.arange(cells) < cells // 2, 0.0, height))
    cfg = SolverConfig(tau=1e-3)
    residuals, errors = solver._residuals, []
    for floor_rule in (True, False):
        results = []

        def kept(*args):
            results.append(residuals(*args))
            return results[-1]

        monkeypatch.setattr(solver, "_residuals", kept)
        if not floor_rule:
            monkeypatch.setattr(solver, "_at_float_floor", lambda *args: False)
        with pytest.raises(NonConvergenceError, match="line search stalled") as info:
            implicit_step(u, cfg)
        monkeypatch.undo()
        err = info.value
        triplet = (err.primal_residual, err.dual_residual, err.gap)
        assert triplet == results[-1]
        errors.append((str(err), err.iterations, triplet, len(results)))
    (message, iterations, triplet, count), (*every_trial, every_count) = errors
    assert count <= iterations
    assert [message, iterations, triplet] == every_trial
    assert (every_count > iterations) == (cells > 10)


def test_rectangle_certifies_only_where_its_screen_passes(monkeypatch):
    # the loop screens each check with its own primal step; only a check
    # that passes makes div p and runs the three-part certificate, which
    # certifies at its last call of a step.  So div_dual runs once per
    # certificate plus once per step (the start's increment)
    grid = rectangle_grid((0.0, 0.0), (1.0, 1.0), (12, 10))
    u0, cfg = cosine(grid, amplitude=0.5), SolverConfig(tau=1e-3)
    first = implicit_step(u0, cfg)
    residuals, div_dual, results, divs = solver._residuals, _RectangleOps.div_dual, [], []

    def counted_residuals(*args):
        results.append(residuals(*args))
        return results[-1]

    def counted_div(self, p):
        divs.append(p.shape)
        return div_dual(self, p)

    monkeypatch.setattr(solver, "_residuals", counted_residuals)
    monkeypatch.setattr(_RectangleOps, "div_dual", counted_div)
    res = implicit_step(first.u_next, cfg, dual=first.dual)
    runs = [(1, [res.inner_iters], results[:], divs[:])]
    results.clear()
    divs.clear()
    traj = evolve(u0, 5 * cfg.tau, cfg)
    runs.append((5, traj.inner_iters, results, divs))
    monkeypatch.undo()
    assert res.inner_iters > cfg.check_every
    for steps, iters, certificates, starts_and_certificates in runs:
        assert len(starts_and_certificates) == len(certificates) + steps
        checks = sum(1 + k // cfg.check_every for k in iters)
        assert steps <= len(certificates) < checks  # the screen turned some checks away
        passed = [all(r <= cfg.inner_tol for r in triplet) for triplet in certificates]
        assert sum(passed) == steps and passed[-1]
    assert res.kkt_residual == kkt_residual(res.u_next, res.dual, first.u_next, cfg.tau)


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


def test_rectangle_step_below_the_float_floor_fails_fast():
    # the pair u_prev + tau div p of this step keeps a primal residual of
    # 2.1e-11, its rounding, under the float floor eps max|u| / tau = 2.2e-10
    # and above the tolerance: the loop stops at the first check whose
    # screen passes (16 iterations), and says so, instead of running all
    # max_inner iterations
    grid = rectangle_grid((0.0, 0.0), (1.0, 1.0), (2, 2))
    u = CellField(grid, np.array([[10.0, -10.0], [-10.0, 10.0]]))
    with pytest.raises(NonConvergenceError, match="float floor") as info:
        implicit_step(u, SolverConfig(tau=1e-5, inner_tol=1e-12))
    err = info.value
    assert err.iterations <= 300
    floor = np.finfo(float).eps * 10.0 / 1e-5
    assert f"{floor:.3e}" in str(err)
    assert 1e-12 < err.primal_residual <= solver._FLOOR_MULTIPLE * floor
    # above the floor the same step certifies at once
    assert implicit_step(u, SolverConfig(tau=1e-5, inner_tol=1e-9)).inner_iters == 1


def test_rectangle_step_memory_does_not_grow_with_its_iterations():
    # the loop allocates nothing per iteration: a 96 x 96 step that runs
    # half as long again (64 and 96 iterations) peaks at the same traced
    # memory, 1.7 MB
    grid = rectangle_grid((0.0, 0.0), (1.0, 1.0), (96, 96))
    u = cosine(grid, amplitude=0.5)
    peaks, iters = [], []
    for tol in (1e-6, 1e-10):
        implicit_step(u, SolverConfig(tau=1e-3, inner_tol=tol))  # warm the caches
        tracemalloc.start()
        try:
            iters.append(implicit_step(u, SolverConfig(tau=1e-3, inner_tol=tol)).inner_iters)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert iters[1] > iters[0]
    assert peaks[1] <= peaks[0] + 4096


# ------------------------------------------------------------ kkt residual


def test_kkt_zero_at_exact_stationary_pair():
    grid = interval_grid(0.0, 1.0, 30)
    u = CellField(grid, np.full(30, 0.4))
    p = np.zeros(29)
    assert kkt_residual(u, p, u, tau=0.2) == 0.0


def test_kkt_scales_linearly_in_the_perturbation():
    grid = interval_grid(0.0, 1.0, 30)
    base = CellField(grid, np.full(30, 0.4))
    p = np.zeros(29)
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
    # on one-axis grids the face flux array is the dual
    assert kkt_residual(res.u_next, res.flux.components[0], u, cfg.tau) <= cfg.inner_tol
    assert kkt_residual(res.u_next, res.dual, u, cfg.tau) <= cfg.inner_tol


def test_kkt_rejects_infeasible_dual_and_wrong_rectangle_input():
    grid = interval_grid(0.0, 1.0, 10)
    u = CellField(grid, np.zeros(10))
    bad = np.full(9, 1.5)
    with pytest.raises(ValueError):
        kkt_residual(u, bad, u, 0.1)
    rect = rectangle_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    ur = CellField(rect, np.zeros((4, 4)))
    # the arrays of a rectangle's face flux are not its per-cell dual
    fr = (np.zeros((3, 4)), np.zeros((4, 3)))
    with pytest.raises(ValueError, match="dual"):
        kkt_residual(ur, fr, ur, 0.1)
    res = implicit_step(ur, SolverConfig(tau=0.1))
    assert kkt_residual(res.u_next, res.dual, ur, 0.1) == 0.0
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            kkt_residual(u, np.zeros(9), u, bad)


@pytest.mark.parametrize("grid", _ALL_GRID_KINDS, ids=_ALL_GRID_IDS)
def test_returned_certificate_is_the_public_one(grid):
    # whatever the inner loop computes with, the returned pair is exactly
    # u_prev + tau * divergence_values(flux) in the grid module's calculus and its
    # kkt_residual the public one, cold and warm-started
    rng = np.random.default_rng(58)
    u_prev = CellField(grid, rng.uniform(-1.0, 1.0, grid.shape))
    dual = None
    for _ in range(2):
        res = implicit_step(u_prev, SolverConfig(tau=1e-2), dual=dual)
        div = divergence_values(grid, res.flux.components)
        assert np.array_equal(res.u_next.values, u_prev.values + 1e-2 * div)
        assert res.kkt_residual > 0.0
        assert res.kkt_residual == kkt_residual(res.u_next, res.dual, u_prev, 1e-2)
        u_prev, dual = res.u_next, res.dual


_SQUARE8 = rectangle_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
_LINE8 = interval_grid(0.0, 1.0, 8)
# (grid, dual, message pattern): the message names the expected shape
_BAD_DUALS = pytest.mark.parametrize(
    "grid, dual, match",
    [
        (_SQUARE8, np.full((2, 8, 8), np.nan), r"\(2, 8, 8\) must be finite"),
        (_SQUARE8, np.full((2, 8, 8), np.inf), r"\(2, 8, 8\) must be finite"),
        (_SQUARE8, np.zeros((8, 8, 2)), r"\(2, 8, 8\)"),
        (_SQUARE8, np.zeros((3, 8, 8)), r"\(2, 8, 8\)"),
        (_SQUARE8, np.zeros(128), r"\(2, 8, 8\)"),
        (_LINE8, np.zeros(8), r"\(7,\)"),
        (_LINE8, np.full(7, np.nan), r"\(7,\) must be finite"),
        # the dual is an array on every grid, never a face field
        (_SQUARE8, FaceField(_SQUARE8, (np.zeros((7, 8)), np.zeros((8, 7)))),
         r"\(2, 8, 8\), got a FaceField"),
        (_LINE8, FaceField(_LINE8, (np.zeros(7),)), r"\(7,\), got a FaceField"),
    ],
    ids=["nan", "inf", "cells-last", "lifted", "flat", "interval-length", "interval-nan",
         "face-field", "interval-face-field"],
)


@_BAD_DUALS
def test_warm_start_dual_is_validated(grid, dual, match):
    # a warm start of the wrong shape or with non-finite entries is a
    # ValueError naming the expected shape, raised before any inner iteration
    with pytest.raises(ValueError, match=match):
        implicit_step(cosine(grid, amplitude=0.5), SolverConfig(tau=1e-3), dual=dual)


@_BAD_DUALS
def test_kkt_residual_dual_is_validated(grid, dual, match):
    # the same check as the warm start: no nan residual, no bare broadcast error
    u = cosine(grid, amplitude=0.5)
    with pytest.raises(ValueError, match=match):
        kkt_residual(u, dual, u, 1e-3)


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
        radius = solver._dual_radius(m, sigma)
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
    # operators themselves; the bands are its closed form (the ops'
    # hessian_coupling) plus the conjugate's diagonal W (1 - p^2)^(-3/2)
    ops = _make_ops(grid)
    rng = np.random.default_rng(3)
    n, tau = grid.face_shape(0)[0], 0.37
    p = rng.uniform(-0.95, 0.95, n)
    dense = np.diag(ops.dual_weights * (1.0 - p * p) ** -1.5)
    for k, e in enumerate(np.eye(n)):
        dense[:, k] -= tau * ops.dual_weights * ops.k_apply(ops.div_dual(e))
    iterate = _DualIterate(ops, rng.standard_normal(grid.shape), tau, p)
    diag, off = iterate.hessian_bands(ops.hessian_coupling(tau))
    banded = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert np.allclose(banded, dense, rtol=1e-12, atol=1e-12 * np.max(np.abs(dense)))
    assert np.all(np.linalg.eigvalsh(banded) > 0.0)


@pytest.mark.parametrize("grid", _ONE_AXIS_SMALL, ids=_ONE_AXIS_SMALL_IDS)
def test_dual_gradient_is_the_derivative_of_the_negative_dual(grid):
    ops = _make_ops(grid)
    rng = np.random.default_rng(4)
    u0, tau = rng.standard_normal(grid.shape), 0.2
    p = rng.uniform(-0.9, 0.9, grid.face_shape(0))
    iterate = _DualIterate(ops, u0, tau, p)
    assert np.array_equal(iterate.q, ops.k_apply(u0 + tau * ops.div_dual(p)))
    grad = iterate.grad
    eps = 1e-6
    numeric = [
        (_DualIterate(ops, u0, tau, p + eps * e).f
         - _DualIterate(ops, u0, tau, p - eps * e).f) / (2.0 * eps)
        for e in np.eye(p.size)
    ]
    assert np.allclose(grad, numeric, rtol=1e-6, atol=1e-8)


def _tridiagonal_system(rng, n, kind):
    """Bands and right-hand side of an SPD tridiagonal system of n unknowns.

    "dominant": diagonally dominant.  "saturated": the dominant diagonal's
    margin times up to 1e12, as the conjugate's W (1 - p^2)^(-3/2) gives
    faces near |p| = 1.  "radial": D S D with S dominant and D^2 = j^5,
    as the face areas r^5 of a six-dimensional radial grid scale the rows of
    its Hessian (past 1e12 from about 250 unknowns on), and the right-hand side,
    a gradient, scaled by D^2.
    """
    off = rng.standard_normal(n - 1)
    pad = np.abs(np.concatenate([[0.0], off])) + np.abs(np.concatenate([off, [0.0]]))
    margin = rng.uniform(1e-3, 2.0, n)
    rhs = rng.standard_normal(n)
    if kind == "saturated":
        margin *= 10.0 ** rng.uniform(0.0, 12.0, n)
    diag = pad + margin  # diagonally dominant, hence SPD
    if kind == "radial":
        scale = np.arange(1.0, n + 1.0) ** 5
        diag, off, rhs = diag * scale, off * np.sqrt(scale[:-1] * scale[1:]), rhs * scale
    return diag, off, rhs


# 1 to 128 unknowns go to the LDL^T loop as they stand; 129 and more are
# halved by odd-even reduction until at most 128 are left (4097: six levels,
# every one of odd size).  Up to 1000 unknowns the reference is LAPACK's dense
# solve.  At 4097 the dense matrix takes 134 MB and its solve seconds, so the
# reference is the LDL^T loop run over all the unknowns, which eliminates
# them in their natural order instead of the odd-even one.
_TRIDIAGONAL_SIZES = [1, 2, 3, 10, 127, 128, 129, 130, 257, 1000, 4097]
_TRIDIAGONAL_KINDS = ("dominant", "saturated", "radial")


@pytest.mark.parametrize("n", _TRIDIAGONAL_SIZES)
def test_tridiagonal_solve_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    for kind in _TRIDIAGONAL_KINDS:
        for _ in range(5):
            diag, off, rhs = _tridiagonal_system(rng, n, kind)
            inputs = [a.copy() for a in (diag, off, rhs)]
            x = _solve_tridiagonal(diag, off, rhs)
            if n <= 1000:
                dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
                reference = np.linalg.solve(dense, rhs)
            else:
                reference = _ldl_solve(diag, off, rhs)
            assert np.allclose(x, reference, rtol=1e-10, atol=1e-12)
            residual = diag * x - rhs  # A x - b from the three bands
            residual[:-1] += off * x[1:]
            residual[1:] += off * x[:-1]
            assert np.max(np.abs(residual)) <= 1e-12 * (1.0 + np.max(np.abs(rhs)))
            assert all(np.array_equal(a, b) for a, b in zip(inputs, (diag, off, rhs)))


@pytest.mark.parametrize("n", _TRIDIAGONAL_SIZES)
def test_tridiagonal_solve_is_odd_in_its_right_hand_side(n):
    # Newton solves H x = grad and steps along -x, which is the solve for
    # -grad only because every operation of the solve is linear in the
    # right-hand side, so that negating it negates the solution bit for bit
    rng = np.random.default_rng(n)
    for kind in _TRIDIAGONAL_KINDS:
        for _ in range(5):
            diag, off, rhs = _tridiagonal_system(rng, n, kind)
            assert _same_bits(_solve_tridiagonal(diag, off, -rhs),
                              -_solve_tridiagonal(diag, off, rhs))


@pytest.mark.parametrize(
    "grid", [interval_grid(0.0, 2.0, 60), radial_grid(3, 1.0, 40)], ids=["interval", "radial3"]
)
def test_newton_step_agrees_with_the_step_oracle(grid):
    # the certified Newton step against an independent reference: criterion
    # 7's dense primal Newton, which checks its own stationarity.  A certified
    # minimizer of the (1/tau)-strongly convex step lies within sqrt(2 tau
    # inner_tol) of the exact one in the weighted norm, the reference within
    # tau * its residual; the bound is the one for two certified minimizers
    rng = np.random.default_rng(21)
    u0 = np.where(rng.uniform(size=grid.shape) < 0.5, -1.0, 1.0) * rng.uniform(0.5, 1.0)
    cfg = SolverConfig(tau=1e-2, inner_tol=1e-9)
    newton = implicit_step(CellField(grid, u0), cfg)
    reference, residual = _primal_step_oracle(grid, u0, cfg.tau)
    assert newton.kkt_residual <= cfg.inner_tol
    assert cfg.tau * residual <= 1e-3 * np.sqrt(2.0 * cfg.tau * cfg.inner_tol)
    diff = newton.u_next.values - reference
    dist = float(np.sqrt(np.sum(grid.cell_volumes * diff**2)))
    assert dist <= 2.0 * np.sqrt(2.0 * cfg.tau * cfg.inner_tol)


def test_newton_step_through_reduced_solves_agrees_with_the_step_oracle():
    # 999 faces: every Newton direction passes three levels of odd-even
    # reduction before the LDL^T loop.  Jumps at every cell drive faces to
    # |p| = 1 - 2e-6, so the Hessian's diagonal spans five decades; on the
    # cosine, quarter_circles and piecewise data the oracle stops at its own
    # rounding floor, above 1e-11 at this size.  The bound is the one of
    # test_newton_step_agrees_with_the_step_oracle.
    grid = interval_grid(0.0, 2.0, 1000)
    rng = np.random.default_rng(21)
    jumps = np.where(rng.uniform(size=grid.shape) < 0.5, -0.7, 0.7)
    cases = [
        (jumps, 1e-3),
        (cosine(grid, amplitude=1.0).values, 1e-2),
        (quarter_circles(grid, c=1.0).values, 1e-3),
        (random_piecewise(grid, rng, pieces=10, amplitude=1.0).values, 1e-2),
    ]
    for u0, tau in cases:
        cfg = SolverConfig(tau=tau, inner_tol=1e-9)
        newton = implicit_step(CellField(grid, u0), cfg)
        reference, residual = _primal_step_oracle(grid, u0, cfg.tau)
        assert newton.kkt_residual <= cfg.inner_tol
        if u0 is jumps:
            assert np.max(np.abs(newton.dual)) > 1.0 - 1e-5
        assert cfg.tau * residual <= 1e-3 * np.sqrt(2.0 * cfg.tau * cfg.inner_tol)
        diff = newton.u_next.values - reference
        dist = float(np.sqrt(np.sum(grid.cell_volumes * diff**2)))
        assert dist <= 2.0 * np.sqrt(2.0 * cfg.tau * cfg.inner_tol)


@pytest.mark.parametrize(
    "grid",
    [interval_grid(0.0, 0.5, 2), radial_grid(2, 1.0, 2), radial_grid(5, 1.0, 2)],
    ids=["interval", "radial2", "radial5"],
)
@pytest.mark.parametrize("u_prev", [(0.0, 1.0), (3.0, -2.0), (0.2, 0.25)])
@pytest.mark.parametrize("tau", [0.05, 0.5])
def test_step_oracle_solves_the_two_cell_step(grid, u_prev, tau):
    # criterion 7's oracle against bisection.  On two cells stationarity
    # keeps V1 v1 + V2 v2, and d = v2 - v1 is the root between 0 and
    # d0 = u2 - u1 of the increasing (W/h) phi(d/h) + V1 V2/(V1 + V2)
    # (d - d0)/tau, phi(q) = q/sqrt(1 + q^2); every weight enters, none is 1.
    (h,), w, (vol1, vol2) = grid.spacing, grid.face_weights[0][0], grid.cell_volumes
    (u1, u2), (lo, hi) = u_prev, sorted((0.0, u_prev[1] - u_prev[0]))
    while lo < (d := 0.5 * (lo + hi)) < hi:
        area = w / h * (d / h) / math.sqrt(1.0 + (d / h) ** 2)
        drift = vol1 * vol2 / (vol1 + vol2) * (d - (u2 - u1)) / tau
        lo, hi = (lo, d) if area + drift > 0.0 else (d, hi)
    mass = vol1 * u1 + vol2 * u2
    exact = np.array([mass - vol2 * d, mass + vol1 * d]) / (vol1 + vol2)
    oracle, _ = _primal_step_oracle(grid, np.array(u_prev), tau)
    assert np.max(np.abs(oracle - exact)) <= 1e-12


def test_newton_kkt_is_the_public_certificate():
    # the residual Newton reports is the one kkt_residual computes from the
    # returned pair, bit for bit, although Newton shares its intermediates
    # (div p, K u, sqrt(1 - p^2)) between certificate, gradient and Hessian
    rng = np.random.default_rng(31)
    for _ in range(120):
        kind = int(rng.integers(1, 7))
        cells = int(rng.integers(2, 80))
        grid = interval_grid(0.0, 1.0, cells) if kind == 1 else radial_grid(kind, 1.0, cells)
        amplitude = 10.0 ** rng.uniform(-2.0, np.log10(5.0))
        u = CellField(grid, amplitude * rng.uniform(-1.0, 1.0, grid.shape))
        tau = 10.0 ** rng.uniform(-4.0, -1.0)
        res = implicit_step(u, SolverConfig(tau=tau))
        assert res.kkt_residual == kkt_residual(res.u_next, res.dual, u, tau)


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


@pytest.mark.parametrize(
    "grid", [interval_grid(0.0, 2.0, 60), radial_grid(3, 1.0, 40)], ids=["interval", "radial3"]
)
def test_newton_applies_k_once_per_certificate_evaluation(grid, monkeypatch):
    # q = K u serves both the certificate and the Newton gradient, so a
    # warm-started step applies K exactly inner_iters times
    u0 = quarter_circles(grid, c=1.0) if grid.kind == "interval" else capped_inverse(grid, cap=20.0)
    cfg = SolverConfig(tau=1e-3)
    first = implicit_step(u0, cfg)
    k_apply, calls = solver._OneAxisOps.k_apply, []

    def counted(ops, v):
        calls.append(v)
        return k_apply(ops, v)

    monkeypatch.setattr(solver._OneAxisOps, "k_apply", counted)
    res = implicit_step(first.u_next, cfg, dual=first.dual)
    assert res.inner_iters > 1
    assert len(calls) == res.inner_iters


# ---------------------------------------------------------------- evolve


def test_constant_trajectory_stays_constant():
    grid = interval_grid(0.0, 2.0, 25)
    u0 = CellField(grid, np.full(25, 3.0))
    traj = evolve(u0, 0.5, SolverConfig(tau=0.1), keep="all")
    for state in traj.states:
        assert np.array_equal(state.values, u0.values)
    assert np.allclose(traj.series("energy"), grid.total_volume)


@pytest.mark.parametrize(
    "build",
    [lambda: radial_grid(3, 1.0, 150), lambda: rectangle_grid((0.0, 0.0), (1.0, 1.0), (6, 5))],
    ids=["radial", "rectangle"],
)
def test_runs_on_one_grid_object_match_runs_on_fresh_grids(build):
    # each grid keeps its ops object, and with it the run invariants and the
    # coupling bands of the last tau; changing tau on the same grid object
    # must leave no stale invariant behind
    def run(grid, tau):
        return evolve(cosine(grid, 0.8), 4 * tau, SolverConfig(tau=tau), keep="all")

    shared = build()
    for tau in (1e-3, 2e-3, 1e-3):
        again, fresh = run(shared, tau), run(build(), tau)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(again.states, fresh.states))
        assert again.records == fresh.records


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


def test_snapshot_times_outside_the_run_are_rejected(tmp_path, capsys):
    # a time whose nearest step lies outside 0 ... n_steps is an error that
    # names it and the run's last step time, never a snapshot of the first or
    # last step; through the command line it exits 2 and writes nothing
    grid = interval_grid(0.0, 1.0, 20)
    u0 = cosine(grid, amplitude=0.5)
    cfg = SolverConfig(tau=1e-3)
    for times, bad in (((-5.0, 0.5, 7.0), "-5.0"), ((0.0, 0.01, 0.0106), "0.0106"),
                       ((-0.0006,), "-0.0006"), ((1e300,), "1e+300")):
        message = rf"snapshot time {re.escape(bad)} .*last at t = 0\.01$"
        with pytest.raises(ValueError, match=message):
            evolve(u0, 0.01, cfg, snapshot_times=times)
    # nearest steps 0 and 10 are inside the run
    traj = evolve(u0, 0.01, cfg, snapshot_times=(-0.0004, 0.0104))
    assert [t for t, _, _ in traj.snapshots] == [0.0, 0.01]
    config = tmp_path / "late.yaml"
    config.write_text("experiment: custom\n"
                      "grid: {kind: interval, lo: 0.0, hi: 1.0, cells: 20}\n"
                      "initial: {type: cosine, amplitude: 0.5}\n"
                      "tau: 1.0e-3\nt_end: 2.0e-2\nsnapshot_times: [0.5]\n")
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "snapshot time 0.5 lies outside the run" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["interval", "rectangle"])
def test_a_snapshot_does_not_depend_on_how_long_the_run_goes_on(kind):
    # the predictor reuses the arrays of earlier step duals; a snapshot that
    # shared one would change as the run goes on past it
    if kind == "interval":
        grid = interval_grid(0.0, 1.0, 40)
    else:
        grid = rectangle_grid((0.0, 0.0), (1.0, 1.0), (10, 8))
    u0 = cosine(grid, amplitude=0.5)
    cfg = SolverConfig(tau=1e-3)
    short = evolve(u0, 0.02, cfg, snapshot_times=(0.02,))
    long = evolve(u0, 0.05, cfg, snapshot_times=(0.02,), keep="all")
    (t_a, u_a, z_a), (t_b, u_b, z_b) = short.snapshots[0], long.snapshots[0]
    assert t_a == t_b == 0.02
    assert np.array_equal(u_a.values, u_b.values)
    for a, b in zip(z_a.components, z_b.components, strict=True):
        assert np.array_equal(a, b)
    # each state is recorded once: the snapshot state is the kept state
    assert u_b is long.states[20]


def test_initial_snapshot_carries_the_variational_flux():
    grid = interval_grid(0.0, 2.0, 16)
    u0 = CellField(grid, np.linspace(0.0, 1.0, 16))
    traj = evolve(u0, 0.1, SolverConfig(tau=0.05), snapshot_times=(0.0,))
    _, u, flux = traj.snapshot_at(0.0)
    g = np.diff(u0.values) / grid.spacing[0]
    assert np.allclose(flux.components[0], g / np.sqrt(1.0 + g**2))


def test_evolve_validation_errors():
    grid = interval_grid(0.0, 1.0, 10)
    u0 = CellField(grid, np.zeros(10))
    cfg = SolverConfig(tau=0.1)
    with pytest.raises(ValueError):
        evolve(u0, 0.0, cfg)
    # a run takes whole steps: a t_end below tau would run one full step past it
    message = r"^t_end must be at least tau, got t_end = 0\.01 < tau = 0\.1$"
    with pytest.raises(ValueError, match=message):
        evolve(u0, 0.01, cfg)
    assert evolve(u0, 0.1, cfg).times.tolist() == [0.0, 0.1]
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="t_end"):
            evolve(u0, bad, cfg)
        with pytest.raises(ValueError, match="kappa"):
            evolve(u0, 1.0, cfg, kappa=bad)
        with pytest.raises(ValueError, match="snapshot_times"):
            evolve(u0, 1.0, cfg, snapshot_times=[0.5, bad])
    for keep in ("sometimes", "none"):
        with pytest.raises(ValueError):
            evolve(u0, 1.0, cfg, keep=keep)
    with pytest.raises(ValueError):
        evolve(u0, 1.0, cfg, kappa=0.0)


def test_a_step_count_that_overflows_or_exceeds_the_cap_is_rejected(tmp_path, capsys):
    # t_end / tau = inf, or one step more than _MAX_STEPS, raises ValueError
    # naming t_end, tau and the count before the run allocates its steps;
    # the command line exits 2 and makes no --out
    grid = interval_grid(0.0, 1.0, 8)
    u0, cap = cosine(grid, amplitude=0.5), solver._MAX_STEPS
    assert solver._check_run_settings(u0, 0.5 * cap, SolverConfig(tau=0.5), None, ())[0] == cap
    cases = (("1.0e-300", "1.0e+300", "inf"), ("0.5", f"{0.5 * (cap + 1)}", str(cap + 1)))
    for tau, t_end, count in cases:
        message = (f"t_end = {float(t_end)} over tau = {float(tau)} makes {count} steps, "
                   f"more than {cap}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evolve(u0, float(t_end), SolverConfig(tau=float(tau)))
        config = tmp_path / "long.yaml"
        config.write_text("experiment: custom\n"
                          "grid: {kind: interval, lo: 0.0, hi: 1.0, cells: 8}\n"
                          f"initial: {{type: cosine}}\ntau: {tau}\nt_end: {t_end}\n")
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["interval", "rectangle"])
def test_evolve_rejects_initial_data_that_overflows(kind):
    # from the face slope sqrt(float max) on, 1 + |K u|^2 overflows; below
    # it the t = 0 record can still overflow (the rectangle's |K u|^2 sums
    # two squares, the mean sums values near float max).  Either raises
    # ValueError before the first step, and no numpy warning
    if kind == "rectangle":
        grid = rectangle_grid((0.0, 0.0), (1.0, 1.0), (8, 8))
        xs, ys = np.meshgrid(*grid.cell_centers, indexing="ij")
        near, field = 1.2e154 * (xs + ys), "energy, lip"
    else:
        grid = interval_grid(0.0, 2.0, 8)
        near, field = np.full(8, 1.7e308), "mean"
    cfg = SolverConfig(tau=1e-3)
    with pytest.raises(ValueError, match=r"too steep: .* sqrt\(float max\) = 1\.341e\+154"):
        evolve(cosine(grid, 1e300), 1e-2, cfg)
    with pytest.raises(ValueError, match=f"initial data overflows: its t = 0 {field} exceeds"):
        evolve(CellField(grid, near), 1e-2, cfg)


def test_trajectory_accessors_validate_requests():
    grid = interval_grid(0.0, 1.0, 10)
    u0 = CellField(grid, np.zeros(10))
    traj = evolve(u0, 0.2, SolverConfig(tau=0.1))
    with pytest.raises(ValueError):
        traj.series("entropy")
    with pytest.raises(KeyError):
        traj.snapshot_at(0.1)  # no snapshot was requested there


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
