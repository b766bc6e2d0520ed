"""Grid factories, discrete calculus, and the adjointness that the
zero-flux setup is built on."""

import numpy as np
import pytest

import reference_calculus as ref
from pmsflow.grid import (
    CellField,
    FaceField,
    _differences,
    build_grid,
    cell_norm,
    colocate,
    divergence_values,
    forward_gradient_values,
    interval_grid,
    radial_grid,
    rectangle_grid,
)


def test_interval_grid_layout():
    g = interval_grid(0.0, 2.0, 4)
    assert g.kind == "interval"
    assert g.shape == (4,)
    assert g.spacing == (0.5,)
    assert np.allclose(g.cell_centers[0], [0.25, 0.75, 1.25, 1.75])
    assert np.allclose(g.cell_volumes, 0.5)
    assert np.allclose(g.face_areas[0], 1.0)
    assert np.allclose(g.face_weights[0], 0.5)
    assert g.total_volume == pytest.approx(2.0)
    assert g.face_shape(0) == (3,)


def test_rectangle_grid_layout():
    g = rectangle_grid((0.0, -1.0), (2.0, 1.0), (4, 8))
    assert g.shape == (4, 8)
    assert g.spacing == (0.5, 0.25)
    assert g.total_volume == pytest.approx(4.0)
    assert g.face_areas[0].shape == (3, 8)
    assert g.face_areas[1].shape == (4, 7)
    # x-face area is the y spacing and vice versa
    assert np.allclose(g.face_areas[0], 0.25)
    assert np.allclose(g.face_areas[1], 0.5)
    assert np.allclose(g.cell_centers[1][0], -1.0 + 0.125)


def test_radial_grid_layout():
    g = radial_grid(3, 1.0, 10)
    assert g.kind == "radial"
    assert g.radial_dim == 3
    h = 0.1
    assert g.spacing == (h,)
    # centers offset half a cell from the origin, faces at multiples of h
    assert g.cell_centers[0][0] == pytest.approx(0.05)
    assert g.cell_volumes[0] == pytest.approx(0.05**2 * h)
    assert g.face_areas[0][0] == pytest.approx(h**2)
    assert g.face_weights[0][0] == pytest.approx(h**3)
    # no face at r=0 or r=R
    assert g.face_areas[0].shape == (9,)


def test_grid_factory_validation():
    with pytest.raises(ValueError):
        interval_grid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        interval_grid(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        rectangle_grid((0.0, 0.0), (1.0, 0.0), (4, 4))
    with pytest.raises(ValueError):
        radial_grid(1, 1.0, 4)
    with pytest.raises(ValueError):
        radial_grid(3, -1.0, 4)
    with pytest.raises(ValueError):
        radial_grid(3, 1.0, 1)


def test_build_grid_round_trip():
    g = build_grid({"kind": "interval", "lo": 0.0, "hi": 2.0, "cells": 400})
    assert g.shape == (400,) and g.spacing[0] == pytest.approx(0.005)
    g2 = build_grid({"kind": "rectangle", "lo": [0, 0], "hi": [1, 1], "cells": [8, 8]})
    assert g2.shape == (8, 8)
    g3 = build_grid({"kind": "radial", "dimension": 3, "radius": 1.0, "cells": 400})
    assert g3.radial_dim == 3


def test_build_grid_rejects_bad_specs():
    with pytest.raises(ValueError):
        build_grid({"kind": "triangle", "cells": 4})
    with pytest.raises(ValueError):
        build_grid({"kind": "interval", "lo": 0.0, "hi": 1.0, "cells": 4, "junk": 1})
    with pytest.raises(ValueError):
        build_grid({"kind": "interval", "lo": 0.0, "cells": 4})
    with pytest.raises(ValueError):
        build_grid({"kind": "rectangle", "lo": [0], "hi": [1], "cells": [4]})
    with pytest.raises(ValueError):
        build_grid("interval")


def test_cell_field_validation():
    g = interval_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        CellField(g, np.zeros(5))
    with pytest.raises(ValueError):
        CellField(g, np.array([0.0, 1.0, np.nan, 2.0]))
    u = CellField(g, np.arange(4.0))
    v = u.copy()
    v.values[0] = 99.0
    assert u.values[0] == 0.0


def test_face_field_validation():
    g = rectangle_grid((0, 0), (1, 1), (4, 4))
    with pytest.raises(ValueError):
        FaceField(g, (np.zeros((3, 4)),))  # missing the y component
    with pytest.raises(ValueError):
        FaceField(g, (np.zeros((4, 4)), np.zeros((4, 3))))
    FaceField(g, (np.zeros((3, 4)), np.zeros((4, 3))))


def test_forward_gradient_examples():
    g = interval_grid(0.0, 1.0, 4)
    assert np.allclose(forward_gradient_values(g, np.full(4, 5.0))[0], 0.0)
    assert np.allclose(forward_gradient_values(g, g.cell_centers[0].copy())[0], 1.0)
    g2 = interval_grid(0.0, 2.0, 4)
    stepped = np.array([0.0, 0.0, 1.0, 1.0])
    assert np.allclose(forward_gradient_values(g2, stepped)[0], [0.0, 2.0, 0.0])


def test_divergence_example():
    g = interval_grid(0.0, 2.0, 4)
    p = np.array([1.0, 0.0, 0.0])
    assert np.allclose(divergence_values(g, (p,)), [2.0, -2.0, 0.0, 0.0])


def test_divergence_zero_field():
    g = radial_grid(3, 1.0, 8)
    assert np.allclose(divergence_values(g, (np.zeros(7),)), 0.0)


def _random_fields(grid, rng):
    u = rng.standard_normal(grid.shape)
    p = tuple(rng.standard_normal(grid.face_shape(k)) for k in range(grid.ndim))
    return u, p


_CALCULUS_GRIDS = [
    interval_grid(0.0, 2.0, 17),
    rectangle_grid((0.0, 0.0), (1.0, 3.0), (8, 8)),
    radial_grid(2, 1.0, 13),
    radial_grid(3, 2.0, 9),
    radial_grid(4, 1.0, 7),
]


@pytest.mark.parametrize(
    "grid", _CALCULUS_GRIDS, ids=["interval", "rectangle", "radial2", "radial3", "radial4"]
)
def test_adjointness_property(grid):
    # the gradient and the divergence are the plain-numpy formulas to the
    # bit, and sum W grad(u) p + sum V u div(p) = 0 for random fields, with
    # both pairings written out
    rng = np.random.default_rng(1234)
    for _ in range(10):
        u, p = _random_fields(grid, rng)
        grad, div = forward_gradient_values(grid, u), divergence_values(grid, p)
        for got, want in zip(grad, ref.slopes(grid, u)):
            assert np.array_equal(got, want)
        assert np.array_equal(div, ref.divergence(grid, p))
        lhs = sum(float(np.sum(w * g * q)) for w, g, q in zip(grid.face_weights, grad, p))
        rhs = float(np.sum(grid.cell_volumes * u * div))
        scale = 1.0 + abs(lhs) + abs(rhs)
        assert abs(lhs + rhs) <= 1e-12 * scale


@pytest.mark.parametrize(
    "grid",
    [
        interval_grid(0.0, 2.0, 17),
        rectangle_grid((0.0, 0.0), (1.0, 3.0), (8, 8)),
        radial_grid(3, 2.0, 9),
    ],
    ids=["interval", "rectangle", "radial"],
)
def test_divergence_weighted_sum_is_zero(grid):
    # absent boundary faces make the weighted sum telescope to 0 exactly
    rng = np.random.default_rng(99)
    for _ in range(10):
        _, p = _random_fields(grid, rng)
        d = divergence_values(grid, p)
        total = float(np.sum(grid.cell_volumes * d))
        scale = 1.0 + float(np.max(np.abs(d)))
        assert abs(total) <= 1e-12 * scale


def _colocated_gradient(grid, values):
    return colocate(grid, forward_gradient_values(grid, values))


def test_colocated_gradient_interval():
    g = interval_grid(0.0, 1.0, 4)
    cg = _colocated_gradient(g, 2.0 * g.cell_centers[0])[0]
    # boundary cells see half of their single face gradient
    assert np.allclose(cg, [1.0, 2.0, 2.0, 1.0])


def test_colocated_magnitude_rectangle_isotropy():
    g = rectangle_grid((0.0, 0.0), (1.0, 1.0), (6, 6))
    xs, ys = np.meshgrid(*g.cell_centers, indexing="ij")
    mag = ref.magnitude(_colocated_gradient(g, 3.0 * xs + 4.0 * ys))
    # interior cells see the full (3, 4) gradient, norm 5
    assert np.allclose(mag[1:-1, 1:-1], 5.0)


@pytest.mark.parametrize(
    "grid",
    [
        interval_grid(0.0, 1.0, 2),
        interval_grid(0.0, 2.0, 11),
        *(radial_grid(n, 1.3, 9) for n in range(2, 7)),
        rectangle_grid((0.0, 0.0), (0.6, 1.3), (2, 2)),
        rectangle_grid((0.0, 0.0), (1.0, 2.3), (9, 6)),
        rectangle_grid((0.0, 0.0), (1.7, 0.4), (3, 8)),
    ],
)
def test_colocated_gradient_is_the_zero_stack_accumulation_bit_for_bit(grid):
    # the co-located gradient is built without a zero array, in the order
    # of additions of the zero-padded face-pair means: every bit agrees,
    # signed zeros included (0 + (-0.0) is +0.0)
    rng = np.random.default_rng(41)
    for values in (rng.standard_normal(grid.shape), rng.choice([-0.0, 0.0, 1.0], grid.shape)):
        got = _colocated_gradient(grid, values)
        want = ref.colocated(ref.slopes(grid, values))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_face_differences_are_raw():
    g = interval_grid(0.0, 2.0, 4)
    values = np.array([0.0, 0.0, 1.0, 1.0])
    assert np.array_equal(_differences(values)[0], [0.0, 1.0, 0.0])


def test_inner_products_use_weights():
    g = radial_grid(3, 1.0, 8)
    assert cell_norm(CellField(g, np.ones(8))) == pytest.approx(np.sqrt(g.total_volume))
    u = np.random.default_rng(5).standard_normal(8)
    assert cell_norm(CellField(g, u)) == pytest.approx(np.sqrt(np.sum(g.cell_volumes * u * u)))


def test_grid_arrays_are_readonly():
    g = interval_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        g.cell_volumes[0] = 7.0
    with pytest.raises(ValueError):
        g.face_areas[0][0] = 7.0
