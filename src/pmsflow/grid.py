"""Staggered grids for zero-flux finite-volume calculus.

Scalars (cell fields) live at cell centers, fluxes (face fields) live on
interior faces only.  There are no ghost cells: a boundary face simply does
not exist, which is how the zero-flux condition enters the discrete
operators.  Three kinds share the layout:

* ``interval``: uniform cells on (a, b), spacing h, unit face areas.
* ``rectangle``: tensor product of two intervals, per-axis face arrays.
* ``radial``: radially symmetric profiles on a ball of radius R in ambient
  dimension N, reduced to one axis.  Cell centers sit at r_i = (i + 1/2) h
  so r = 0 is never a sample point; cells carry the measure weight
  r_i^(N-1) h and interior faces carry the area r_j^(N-1) and the control
  volume r_j^(N-1) h.  The absent face at r = 0 has zero area, which
  encodes regularity at the origin exactly like the absent boundary faces
  encode zero flux.  The solid-angle constant is dropped throughout.

The calculus is three array operators and a norm.
``forward_gradient_values`` takes per-axis face difference quotients,
``divergence_values`` is its exact negative adjoint under the weighted
pairings sum V u v over cells (``cell_volumes``) and sum W p q over faces
(``face_weights``), and ``colocate`` averages face values onto the cells.
Summation by parts holds to rounding and the weighted cell sum of any
divergence telescopes to zero.  ``cell_norm`` is the norm of the cell
pairing.  The solver, ``energy`` and ``diagnostics`` all run on these
operators and on ``_differences``, the raw face differences; the
differences, the gradient and ``colocate`` also take a stack of states,
the grid's axes last.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "CellField",
    "FaceField",
    "build_grid",
    "interval_grid",
    "rectangle_grid",
    "radial_grid",
    "forward_gradient_values",
    "divergence_values",
    "colocate",
    "cell_norm",
]


_MAX_CELLS = 10**6  # far above every preset and planned sweep, far below exhausting memory


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Grid:
    """Immutable grid geometry.

    ``face_areas[k]`` holds the measure of each interior face normal to axis
    k and ``face_weights[k]`` the face control volume (area times spacing),
    which is the weight of the face inner product.  ``cell_volumes`` weights
    the cell inner product.
    """

    kind: str
    shape: tuple[int, ...]
    spacing: tuple[float, ...]
    lo: tuple[float, ...]
    radial_dim: int | None
    cell_volumes: np.ndarray
    face_areas: tuple[np.ndarray, ...]
    face_weights: tuple[np.ndarray, ...]
    cell_centers: tuple[np.ndarray, ...]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def total_volume(self) -> float:
        return float(self.cell_volumes.sum())

    def face_shape(self, axis: int) -> tuple[int, ...]:
        s = list(self.shape)
        s[axis] -= 1
        return tuple(s)

    def same_layout(self, other: "Grid") -> bool:
        return (
            self.kind == other.kind
            and self.shape == other.shape
            and self.spacing == other.spacing
            and self.lo == other.lo
            and self.radial_dim == other.radial_dim
        )


def interval_grid(lo: float, hi: float, cells: int) -> Grid:
    """Uniform cells on the open interval (lo, hi)."""
    lo, hi, cells = _as_float(lo, "lo"), _as_float(hi, "hi"), _as_count(cells, "cells")
    if cells < 2:
        raise ValueError(f"need at least 2 cells, got {cells}")
    h = _spacing(hi - lo, cells, "hi - lo")
    centers = lo + (np.arange(cells) + 0.5) * h
    return Grid(
        kind="interval",
        shape=(cells,),
        spacing=(h,),
        lo=(lo,),
        radial_dim=None,
        cell_volumes=_readonly(np.full(cells, h)),
        face_areas=(_readonly(np.ones(cells - 1)),),
        face_weights=(_readonly(np.full(cells - 1, h)),),
        cell_centers=(_readonly(centers),),
    )


def rectangle_grid(
    lo: tuple[float, float], hi: tuple[float, float], cells: tuple[int, int]
) -> Grid:
    """Tensor-product cells on the open rectangle (lo[0], hi[0]) x (lo[1], hi[1])."""
    lo = tuple(_as_float(x, "lo") for x in _pair(lo, "lo"))
    hi = tuple(_as_float(x, "hi") for x in _pair(hi, "hi"))
    nx, ny = (_as_count(n, "cells") for n in _pair(cells, "cells"))
    if nx < 2 or ny < 2:
        raise ValueError(f"need at least 2 cells per axis, got {cells}")
    hx = _spacing(hi[0] - lo[0], nx, "hi[0] - lo[0]")
    hy = _spacing(hi[1] - lo[1], ny, "hi[1] - lo[1]")
    vol = hx * hy
    if not 0 < vol * nx * ny < math.inf:  # Python floats: no numpy warning
        raise ConfigError(f"lo and hi must be bounds whose cell area hx * hy is positive with "
                          f"a finite sum, got lo {lo!r}, hi {hi!r}")
    return Grid(
        kind="rectangle",
        shape=(nx, ny),
        spacing=(hx, hy),
        lo=lo,
        radial_dim=None,
        cell_volumes=_readonly(np.full((nx, ny), vol)),
        face_areas=(
            _readonly(np.full((nx - 1, ny), hy)),
            _readonly(np.full((nx, ny - 1), hx)),
        ),
        face_weights=(
            _readonly(np.full((nx - 1, ny), vol)),
            _readonly(np.full((nx, ny - 1), vol)),
        ),
        cell_centers=(
            _readonly(lo[0] + (np.arange(nx) + 0.5) * hx),
            _readonly(lo[1] + (np.arange(ny) + 0.5) * hy),
        ),
    )


def radial_grid(dimension: int, radius: float, cells: int) -> Grid:
    """Radial grid on the ball of the given radius in the given ambient dimension."""
    dimension, radius = _as_count(dimension, "dimension"), _as_float(radius, "radius")
    cells = _as_count(cells, "cells")
    if dimension < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {dimension}")
    if cells < 2:
        raise ValueError(f"need at least 2 cells, got {cells}")
    h = _spacing(radius, cells, "radius")
    centers = (np.arange(cells) + 0.5) * h
    faces = np.arange(1, cells) * h  # interior faces; none at r=0 or r=R
    with np.errstate(over="ignore", under="ignore"):  # checked just below
        areas = faces ** (dimension - 1)
        volumes, weights = centers ** (dimension - 1) * h, areas * h
        total = volumes.sum()
    if not all(np.all((w > 0) & (w < np.inf)) for w in (volumes, areas, weights, total)):
        raise ConfigError(f"radius must be a length whose r^(N-1) weights in dimension "
                          f"{dimension} are positive with a finite sum, got {radius!r}")
    return Grid(
        kind="radial",
        shape=(cells,),
        spacing=(h,),
        lo=(0.0,),
        radial_dim=dimension,
        cell_volumes=_readonly(volumes),
        face_areas=(_readonly(areas),),
        face_weights=(_readonly(weights),),
        cell_centers=(_readonly(centers),),
    )


def build_grid(spec: dict) -> Grid:
    """Build a grid from a plain mapping, as read from a config file.

    Recognized forms::

        {"kind": "interval", "lo": 0.0, "hi": 2.0, "cells": 400}
        {"kind": "rectangle", "lo": [0, 0], "hi": [1, 1], "cells": [32, 32]}
        {"kind": "radial", "dimension": 3, "radius": 1.0, "cells": 400}

    Raises:
        ValueError: unknown kind, missing keys, or degenerate geometry;
            its subclass ConfigError for a bad value or too many cells.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("grid spec must be a mapping with a 'kind' key")
    kind = spec["kind"]
    known = {
        "interval": {"kind", "lo", "hi", "cells"},
        "rectangle": {"kind", "lo", "hi", "cells"},
        "radial": {"kind", "dimension", "radius", "cells"},
    }
    if not isinstance(kind, str) or kind not in known:
        raise ValueError(f"unknown grid kind {kind!r}")
    extra = set(spec) - known[kind]
    if extra:
        raise ValueError(f"unknown grid keys for {kind}: {sorted(extra)}")
    try:
        if kind == "rectangle":
            lo, hi, cells = (_pair(spec[key], key) for key in ("lo", "hi", "cells"))
            shape = tuple(_as_count(n, "cells") for n in cells)
        else:
            shape = (_as_count(spec["cells"], "cells"),)
        if math.prod(shape) > _MAX_CELLS:
            raise ConfigError(f"cells must total at most {_MAX_CELLS}, got {shape}")
        # the constructors check each number under its config key
        if kind == "interval":
            return interval_grid(spec["lo"], spec["hi"], *shape)
        if kind == "rectangle":
            return rectangle_grid(lo, hi, shape)
        return radial_grid(spec["dimension"], spec["radius"], *shape)
    except KeyError as exc:
        raise ValueError(f"grid spec missing key {exc}") from exc


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configurations."""


def _pair(value, key: str):
    """A rectangle's per-axis list, tuple or array of two entries."""
    if not (isinstance(value, (list, tuple, np.ndarray)) and len(value) == 2):
        raise ConfigError(f"{key} must be a pair, got {value!r}")
    return value


def _spacing(width: float, cells: int, key: str) -> float:
    """The cell spacing width / cells, which must be positive and finite."""
    h = width / cells
    if not 0 < h < math.inf:
        raise ConfigError(f"{key} must be positive and split into {cells} cells of positive "
                          f"finite size, got {width!r}")
    return h


def _as_count(value, key: str) -> int:
    """A config integer; a float is rejected rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, key: str) -> float:
    """A finite config number; a bool, string or list is rejected.  YAML 1.1
    floats need a dot and a signed exponent, so for a string that ``float``
    reads as a finite number, such as ``1e-3``, the message says so."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        hint = ""
        if isinstance(value, str):
            with contextlib.suppress(ValueError):
                if math.isfinite(float(value)):
                    hint = (f"; YAML 1.1 reads {value} as a string, write the mantissa"
                            f" with a dot and the exponent with a sign, as in 1.0e-3")
        raise ConfigError(f"{key} must be a number, got {value!r}{hint}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, huge integers
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return float(value)


@dataclass
class CellField:
    """One real value per cell."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"cell values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.isfinite(v).all():
            raise ValueError("cell values must be finite")
        self.values = v

    def copy(self) -> "CellField":
        return CellField(self.grid, self.values.copy())


@dataclass
class FaceField:
    """One real value per interior face, grouped by normal axis."""

    grid: Grid
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        comps = tuple(np.asarray(c, dtype=float) for c in self.components)
        if len(comps) != self.grid.ndim:
            raise ValueError(f"expected {self.grid.ndim} face components, got {len(comps)}")
        for axis, c in enumerate(comps):
            want = self.grid.face_shape(axis)
            if c.shape != want:
                raise ValueError(f"axis {axis} face shape {c.shape} != {want}")
            if not np.isfinite(c).all():
                raise ValueError("face values must be finite")
        self.components = comps


# Index tuples of the lower and the upper cell of every interior face, keyed
# by (ndim, axis), the grid's axes being the last ndim: any axes before them
# stack states (``diagnostics`` measures a stack at a time).  Built once: the
# records and the rectangle's certificates index with them at every use.
_LO, _HI, _ALL = slice(None, -1), slice(1, None), slice(None)
_FACE_SIDES = {
    (1, 0): ((..., _LO), (..., _HI)),
    (2, 0): ((..., _LO, _ALL), (..., _HI, _ALL)),
    (2, 1): ((..., _LO), (..., _HI)),
}
# The last cell and the inner cells (all but the first and the last) along
# each axis, keyed the same way; ``colocate`` writes each cell once with them.
_LAST, _INNER = slice(-1, None), slice(1, -1)
_AXIS_ENDS = {
    (1, 0): ((..., _LAST), (..., _INNER)),
    (2, 0): ((..., _LAST, _ALL), (..., _INNER, _ALL)),
    (2, 1): ((..., _LAST), (..., _INNER)),
}


def _differences(values: np.ndarray, ndim: int | None = None) -> list[np.ndarray]:
    """Upper minus lower cell value across every interior face, per axis.

    The last ``ndim`` axes of ``values`` (all of them by default) are the
    grid's; any before them stack states, each differenced on its own.
    """
    ndim = values.ndim if ndim is None else ndim
    out = []
    for axis in range(ndim):
        lower, upper = _FACE_SIDES[ndim, axis]
        out.append(values[upper] - values[lower])
    return out


def forward_gradient_values(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-axis face difference quotients; boundary faces do not exist.

    ``values`` has the grid's shape, or that shape after leading stack axes.
    """
    return tuple(d / h for d, h in zip(_differences(values, grid.ndim), grid.spacing))


def colocate(grid: Grid, components) -> np.ndarray:
    """Per-axis face values averaged onto the cells, stacked as (ndim, *grid.shape).

    A cell holds half the sum of its two faces' values, and an absent
    boundary face enters as zero.  The sum is (0 + upper face) + lower face,
    so a wall cell next to a -0.0 face holds +0.0.  Face values of a stack
    of states, with leading axes ``lead``, give (ndim, *lead, *grid.shape).
    """
    lead = components[0].shape[: components[0].ndim - grid.ndim]
    out = np.empty((grid.ndim,) + lead + grid.shape)
    for axis, f in enumerate(components):
        o = out[axis]
        lower, _ = _FACE_SIDES[grid.ndim, axis]
        last, inner = _AXIS_ENDS[grid.ndim, axis]
        np.add(f, 0.0, out=o[lower])  # each cell but the last, from the face above it
        np.add(f[last], 0.0, out=o[last])  # the last cell, from the face below it
        o[inner] += f[lower]
    out *= 0.5
    return out


def divergence_values(grid: Grid, components) -> np.ndarray:
    """Exact negative adjoint of ``forward_gradient_values`` under the weighted pairings.

    Per cell: sum over axes of (area * p at the right face minus area * p at
    the left face), divided by the cell volume; absent boundary faces
    contribute zero, so the weighted cell sum of the result telescopes to
    zero for every face field.
    """
    acc = np.zeros(grid.shape)
    for axis, p in enumerate(components):
        lower, upper = _FACE_SIDES[grid.ndim, axis]
        ap = grid.face_areas[axis] * p
        acc[lower] += ap
        acc[upper] -= ap
    acc /= grid.cell_volumes
    return acc


def cell_norm(u: CellField) -> float:
    """Volume-weighted L2 norm of a cell field."""
    return float(np.sqrt(np.sum(u.grid.cell_volumes * u.values * u.values)))
