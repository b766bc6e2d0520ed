"""Area energy values, the conjugate duality it rests on, and the dual
radius the rectangle's certified duals are checked against."""

import gc
import weakref

import numpy as np
import pytest

import reference_calculus as ref
from pmsflow.energy import (
    _dual_radius,
    _make_ops,
    area_energy,
)
from pmsflow.grid import CellField, interval_grid, radial_grid, rectangle_grid


def _face_sum_energy(grid, values):
    # independent reference: face control volumes times sqrt(1 + slope^2),
    # plus the boundary half cells that no face covers
    h = grid.spacing[0]
    w = grid.face_weights[0]
    slopes = np.diff(values) / h
    return float(np.sum(w * np.sqrt(1.0 + slopes**2))) + (
        grid.total_volume - float(np.sum(w))
    )


def test_constant_energy_is_domain_volume():
    for grid in (
        interval_grid(0.0, 1.0, 50),
        radial_grid(3, 1.0, 30),
        rectangle_grid((0, 0), (2, 1), (10, 10)),
    ):
        e = area_energy(CellField(grid, np.full(grid.shape, 4.2)))
        assert isinstance(e, float)
        assert e == pytest.approx(grid.total_volume, abs=1e-14)


def test_energy_exceeds_the_domain_volume():
    g = interval_grid(0.0, 1.0, 100)
    rng = np.random.default_rng(7)
    u = CellField(g, rng.uniform(-1, 1, 100))
    assert area_energy(u) > g.total_volume


def test_slope_one_energy():
    g = interval_grid(0.0, 1.0, 80)
    u = CellField(g, g.cell_centers[0].copy())
    e = area_energy(u)
    # sqrt(2) up to the boundary half cells that see no slope
    assert abs(e - np.sqrt(2.0)) <= 2.0 * g.spacing[0]
    assert e == pytest.approx(_face_sum_energy(g, u.values))


def test_unit_step_energy_near_two():
    g = interval_grid(0.0, 1.0, 200)
    x = g.cell_centers[0]
    u = CellField(g, np.where(x < 0.5, 0.0, 1.0))
    e = area_energy(u)
    # flat area 1 plus jump height 1
    assert abs(e - 2.0) <= 0.02
    assert e == pytest.approx(_face_sum_energy(g, u.values))


def test_energy_translation_invariance():
    g = radial_grid(3, 1.0, 40)
    rng = np.random.default_rng(11)
    v = rng.uniform(-2, 2, 40)
    e0 = area_energy(CellField(g, v))
    e1 = area_energy(CellField(g, v + 17.5))
    assert e1 == pytest.approx(e0, rel=1e-14)


def test_energy_convexity_property():
    rng = np.random.default_rng(23)
    for grid in (interval_grid(0.0, 1.0, 30), rectangle_grid((0, 0), (1, 1), (7, 9))):
        for _ in range(20):
            u = rng.standard_normal(grid.shape)
            w = rng.standard_normal(grid.shape)
            lam = rng.uniform(0.05, 0.95)
            mixed = area_energy(CellField(grid, lam * u + (1 - lam) * w))
            bound = (
                lam * area_energy(CellField(grid, u))
                + (1 - lam) * area_energy(CellField(grid, w))
            )
            assert mixed <= bound + 1e-10


def test_rectangle_energy_uses_colocated_magnitude():
    g = rectangle_grid((0, 0), (1, 1), (6, 6))
    xs, ys = np.meshgrid(*g.cell_centers, indexing="ij")
    u = CellField(g, 3.0 * xs + 4.0 * ys)
    mag = ref.magnitude(ref.colocated(ref.slopes(g, u.values)))
    expected = float(np.sum(g.cell_volumes * np.sqrt(1.0 + mag**2)))
    assert area_energy(u) == pytest.approx(expected)


def test_each_grid_keeps_one_ops_object_and_does_not_outlive_it():
    grid = radial_grid(3, 1.0, 12)
    ops = _make_ops(grid)
    assert _make_ops(grid) is ops
    # ops hash grids by identity: an equal layout is another grid
    assert _make_ops(radial_grid(3, 1.0, 12)) is not ops
    assert ops.total_volume == grid.total_volume
    assert ops.uncovered == grid.total_volume - float(np.sum(grid.face_weights[0]))
    alive = weakref.ref(grid)
    del grid
    gc.collect()
    assert alive() is None  # the table of ops objects keeps no grid alive


def test_two_taus_on_one_grid_get_their_own_coupling_bands():
    grid = radial_grid(3, 1.0, 12)
    ops = _make_ops(grid)
    a, vol = grid.face_areas[0], grid.cell_volumes

    def closed_form(tau):
        return tau * a * a * (1.0 / vol[:-1] + 1.0 / vol[1:]), -tau * a[:-1] * a[1:] / vol[1:-1]

    for tau in (0.1, 0.3, 0.1):
        bands = ops.hessian_coupling(tau)
        for band, expected in zip(bands, closed_form(tau)):
            assert np.array_equal(band, expected)
            with pytest.raises(ValueError):
                band[0] = 0.0  # kept bands are read-only


def test_conjugate_duality_sup():
    # sqrt(1 + q^2) = sup over |p| <= 1 of p q + sqrt(1 - p^2)
    q = 3.0
    p = np.linspace(-1.0, 1.0, 20001)
    sup = np.max(p * q + np.sqrt(1.0 - p**2))
    assert abs(sup - np.sqrt(10.0)) <= 1e-3


def test_conjugate_duality_random_q():
    rng = np.random.default_rng(3)
    p = np.linspace(-1.0, 1.0, 200001)
    conj = np.sqrt(1.0 - p**2)
    for q in rng.uniform(-5, 5, 10):
        sup = np.max(p * q + conj)
        # sup over the grid is below the true value by at most the grid gap
        assert 0.0 <= np.sqrt(1.0 + q * q) - sup <= 1e-7 * (1 + abs(q)) ** 2


def _radius_by_bisection(m, sigma):
    lo, hi = 0.0, 1.0 - 1e-16
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sigma * mid / np.sqrt(1.0 - mid * mid) + mid > m:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _radius(m, sigma):
    return float(_dual_radius(np.array([m]), sigma)[0])


def test_dual_radius_matches_bisection():
    rng = np.random.default_rng(17)
    for _ in range(50):
        sigma = rng.uniform(0.01, 10.0)
        p_hat = rng.standard_normal(rng.integers(1, 4)) * rng.uniform(0.1, 5.0)
        m = float(np.linalg.norm(p_hat))
        r = _radius(m, sigma)
        assert r < 1.0
        assert r == pytest.approx(_radius_by_bisection(m, sigma), abs=1e-10)
        # defining equation residual at the returned radius
        if m > 0:
            assert abs(sigma * r / np.sqrt(1 - r * r) + r - m) <= 1e-9 * (1 + m)


def test_dual_radius_known_radius():
    assert _radius(2.0, 1.0) == pytest.approx(0.7747295739010802, abs=1e-10)


def test_dual_radius_beats_radial_scan():
    # the radius minimizes -sqrt(1-r^2) + (r-m)^2/(2 sigma) on a fine scan
    sigma, m = 0.7, 1.3
    r_star = _radius(m, sigma)

    def objective(r):
        return -np.sqrt(1.0 - r * r) + (r - m) ** 2 / (2.0 * sigma)

    scan = np.linspace(0.0, 1.0 - 1e-9, 100001)
    assert objective(r_star) <= np.min(objective(scan)) + 1e-10


def test_dual_radius_large_sigma_residual():
    r = _radius(2.0, 1000.0)
    assert 0.0 < r < 1.0
    assert abs(r * (1.0 + 1000.0 / np.sqrt(1.0 - r * r)) - 2.0) <= 1e-9


def _cold_radius(m, sigma):
    # the documented cold start, Newton from max((m-1)/sigma, m/(1+sigma))
    # with finished entries held, written out independently
    w = np.maximum((m - 1.0) / sigma, m / (1.0 + sigma))
    tol = np.maximum(1e-15, 4e-16 * m)
    done = np.zeros(m.shape, dtype=bool)
    for _ in range(60):
        root = np.sqrt(1.0 + w * w)
        g = sigma * w + w / root - m
        step = g / (sigma + 1.0 / (root * root * root))
        done |= (np.abs(g) <= tol) | (np.abs(step) <= 4e-16 * w)
        if np.all(done):
            break
        w = np.where(done, w, w - step)
    return w / np.sqrt(1.0 + w * w), w


def _slope_residual(w, m, sigma):
    return np.abs(sigma * w + w / np.sqrt(1.0 + w * w) - m)


def _magnitudes(rng):
    special = [0.0, 1e-300, 1e-12, 1.0, 1e6]
    return np.concatenate([special, rng.uniform(0.0, 2.0, 200), 10.0 ** rng.uniform(-8, 4, 200)])


def test_dual_radius_is_the_cold_start_newton():
    # bit for bit the documented Newton climb from the cold start
    rng = np.random.default_rng(5)
    m = _magnitudes(rng)
    for sigma in (1e-4, 2.7e-3, 0.37, 1.0, 50.0):
        r_cold, w_cold = _cold_radius(m, sigma)
        assert np.array_equal(_dual_radius(m, sigma), r_cold)


def test_dual_radius_extreme_scalar_and_two_dimensional_input():
    # m = 0 gives radius 0
    assert np.array_equal(_dual_radius(np.zeros(2), 0.5), np.zeros(2))
    # a huge magnitude keeps the slope finite; the radius rounds to at most 1
    for sigma in (1e-3, 1.0, 1e6):
        r = _dual_radius(np.array([1e12]), sigma)
        r_cold, w_cold = _cold_radius(np.array([1e12]), sigma)
        assert np.array_equal(r, r_cold)
        assert np.all(np.isfinite(w_cold)) and np.all(np.isfinite(r))
        assert 0.0 < r[0] <= 1.0
        assert _slope_residual(w_cold, 1e12, sigma)[0] <= 4e-16 * 1e12
    assert _dual_radius(np.array([1e12]), 1e6)[0] < 1.0
    # a one-entry magnitude returns a one-entry radius
    r0 = _dual_radius(np.array([2.0]), 1.0)
    assert r0.shape == (1,)
    assert r0[0] == pytest.approx(0.7747295739010802, abs=1e-15)
    # a 2-D field, as the rectangle's per-cell magnitudes
    rng = np.random.default_rng(3)
    m2 = rng.uniform(0.0, 3.0, (96, 96))
    r2 = _dual_radius(m2, 2.7e-3)
    assert r2.shape == (96, 96)
    assert np.array_equal(r2.ravel(), _cold_radius(m2.ravel(), 2.7e-3)[0])


def test_dual_radius_rejects_a_negative_magnitude():
    with pytest.raises(ValueError, match="nonnegative"):
        _dual_radius(np.array([1.0, -1e-300]), 0.5)
