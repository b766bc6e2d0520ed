"""Grid factories, discrete calculus, and the adjointness that the
zero-flux setup is built on."""

import numpy as np
import pytest

from pmsflow.grid import (
    CellField,
    FaceField,
    build_grid,
    cell_inner,
    cell_norm,
    colocated_gradient,
    colocated_gradient_values,
    colocated_magnitude,
    divergence,
    face_differences,
    face_inner,
    forward_gradient,
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
    assert np.allclose(forward_gradient(CellField(g, np.full(4, 5.0))).components[0], 0.0)
    linear = CellField(g, g.cell_centers[0].copy())
    assert np.allclose(forward_gradient(linear).components[0], 1.0)
    g2 = interval_grid(0.0, 2.0, 4)
    stepped = CellField(g2, np.array([0.0, 0.0, 1.0, 1.0]))
    assert np.allclose(forward_gradient(stepped).components[0], [0.0, 2.0, 0.0])


def test_divergence_example():
    g = interval_grid(0.0, 2.0, 4)
    p = FaceField(g, (np.array([1.0, 0.0, 0.0]),))
    assert np.allclose(divergence(p).values, [2.0, -2.0, 0.0, 0.0])


def test_divergence_zero_field():
    g = radial_grid(3, 1.0, 8)
    p = FaceField(g, (np.zeros(7),))
    assert np.allclose(divergence(p).values, 0.0)


def _random_fields(grid, rng):
    u = CellField(grid, rng.standard_normal(grid.shape))
    p = FaceField(
        grid, tuple(rng.standard_normal(grid.face_shape(k)) for k in range(grid.ndim))
    )
    return u, p


@pytest.mark.parametrize(
    "grid",
    [
        interval_grid(0.0, 2.0, 17),
        rectangle_grid((0.0, 0.0), (1.0, 3.0), (8, 8)),
        radial_grid(2, 1.0, 13),
        radial_grid(3, 2.0, 9),
        radial_grid(4, 1.0, 7),
    ],
    ids=["interval", "rectangle", "radial2", "radial3", "radial4"],
)
def test_adjointness_property(grid):
    # <grad u, p>_faces + <u, div p>_cells = 0 for random fields
    rng = np.random.default_rng(1234)
    for _ in range(10):
        u, p = _random_fields(grid, rng)
        lhs = face_inner(forward_gradient(u), p)
        rhs = cell_inner(u, divergence(p))
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
        d = divergence(p)
        total = float(np.sum(grid.cell_volumes * d.values))
        scale = 1.0 + float(np.max(np.abs(d.values)))
        assert abs(total) <= 1e-12 * scale


def test_colocated_gradient_interval():
    g = interval_grid(0.0, 1.0, 4)
    linear = CellField(g, 2.0 * g.cell_centers[0])
    cg = colocated_gradient(linear)[0]
    # boundary cells see half of their single face gradient
    assert np.allclose(cg, [1.0, 2.0, 2.0, 1.0])
    assert np.allclose(colocated_magnitude(linear), np.abs(cg))


def test_colocated_magnitude_rectangle_isotropy():
    g = rectangle_grid((0.0, 0.0), (1.0, 1.0), (6, 6))
    xs, ys = np.meshgrid(*g.cell_centers, indexing="ij")
    u = CellField(g, 3.0 * xs + 4.0 * ys)
    mag = colocated_magnitude(u)
    # interior cells see the full (3, 4) gradient, norm 5
    assert np.allclose(mag[1:-1, 1:-1], 5.0)


def _zero_stack_colocated(grid, values):
    # the co-located gradient accumulated onto zeros, face by face
    out = np.zeros((grid.ndim,) + grid.shape)
    for axis, gf in enumerate(forward_gradient(CellField(grid, values)).components):
        lower = tuple(slice(None, -1) if k == axis else slice(None) for k in range(grid.ndim))
        upper = tuple(slice(1, None) if k == axis else slice(None) for k in range(grid.ndim))
        out[axis][lower] += gf
        out[axis][upper] += gf
    return 0.5 * out


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
    # the co-located gradient is built without a zero array, in the same
    # order of additions: every bit agrees, signed zeros included
    # (0 + (-0.0) is +0.0)
    rng = np.random.default_rng(41)
    for values in (rng.standard_normal(grid.shape), rng.choice([-0.0, 0.0, 1.0], grid.shape)):
        got = colocated_gradient_values(grid, values)
        want = _zero_stack_colocated(grid, values)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_face_differences_are_raw():
    g = interval_grid(0.0, 2.0, 4)
    u = CellField(g, np.array([0.0, 0.0, 1.0, 1.0]))
    assert np.allclose(face_differences(u)[0], [0.0, 1.0, 0.0])


def test_inner_products_use_weights():
    g = radial_grid(3, 1.0, 8)
    ones = CellField(g, np.ones(8))
    assert cell_inner(ones, ones) == pytest.approx(g.total_volume)
    assert cell_norm(ones) == pytest.approx(np.sqrt(g.total_volume))
    mismatched = interval_grid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        cell_inner(ones, CellField(mismatched, np.ones(8)))


def test_grid_arrays_are_readonly():
    g = interval_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        g.cell_volumes[0] = 7.0
    with pytest.raises(ValueError):
        g.face_areas[0][0] = 7.0
