"""Property tests of the step guarantees over drawn data (hypothesis).

Each example draws a grid, data and solver settings from wide ranges; the
draws are derandomized so that every run checks the same examples.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pmsflow.energy import area_energy
from pmsflow.grid import CellField, rectangle_grid
from pmsflow.solver import SolverConfig, implicit_step


def _rectangle_data(grid, kind, rng):
    """+-1 cells, uniform values in [-1, 1], or the indicator of a disk
    inside the rectangle [0, a] x [0, b] that ``grid`` covers."""
    if kind == "sign":
        return np.where(rng.uniform(size=grid.shape) < 0.5, -1.0, 1.0)
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, grid.shape)
    x, y = np.meshgrid(*grid.cell_centers, indexing="ij")
    a, b = (n * h for n, h in zip(grid.shape, grid.spacing))
    cx, cy = rng.uniform(0.0, a), rng.uniform(0.0, b)
    radius = rng.uniform(0.1, 0.5) * min(a, b)
    return np.where((x - cx) ** 2 + (y - cy) ** 2 < radius**2, 1.0, 0.0)


# Safety factor over the rounding floor eps max|u| / tau of the primal
# certificate; a 2 x 2 +-10 step at tau 1e-5 stalls at 0.17 of that floor.
_FLOOR_FACTOR = 4.0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    cells=st.tuples(st.integers(2, 24), st.integers(2, 24)),
    extent=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    kind=st.sampled_from(["sign", "uniform", "disk"]),
    log_amplitude=st.floats(-3.0, 2.0),
    log_tau=st.floats(-5.0, float(np.log10(0.5))),
    log_tol=st.floats(-11.0, -8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_rectangle_steps_keep_their_guarantees(
    cells, extent, kind, log_amplitude, log_tau, log_tol, seed
):
    # every cold step, and a second step warm-started from its dual,
    # certifies, conserves the weighted mean, obeys the energy inequality
    # E(u_next) + |u_next - u|_w^2 / (2 tau) <= E(u) + tol and keeps
    # |flux| < 1 on every face
    grid = rectangle_grid((0.0, 0.0), extent, cells)
    rng = np.random.default_rng(seed)
    u = CellField(grid, 10.0**log_amplitude * _rectangle_data(grid, kind, rng))
    cfg = SolverConfig(tau=10.0**log_tau, inner_tol=10.0**log_tol)
    # The primal certificate compares (u_next - u)/tau with div(flux), and
    # u_next is stored in float64, so it cannot go below about
    # eps max|u| / tau on any solver: a tolerance under that floor asks for
    # a certificate no step can give, which is not what this test covers.
    floor = np.finfo(float).eps * float(np.max(np.abs(u.values))) / cfg.tau
    assume(cfg.inner_tol > _FLOOR_FACTOR * floor)
    first = implicit_step(u, cfg)
    _check_step(u, first, cfg)
    _check_step(first.u_next, implicit_step(first.u_next, cfg, dual=first.dual), cfg)


def _check_step(u, res, cfg):
    assert res.kkt_residual <= cfg.inner_tol
    vol = u.grid.cell_volumes
    drift = abs(np.sum(vol * (res.u_next.values - u.values)))
    assert drift <= 1e-12 * np.sum(vol * np.abs(u.values))
    step_cost = np.sum(vol * (res.u_next.values - u.values) ** 2)
    lhs = area_energy(res.u_next) + step_cost / (2.0 * cfg.tau)
    assert lhs <= area_energy(u) + cfg.inner_tol
    assert max(float(np.max(np.abs(c))) for c in res.flux.components) < 1.0
