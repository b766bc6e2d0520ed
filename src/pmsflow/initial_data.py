"""Initial profiles: constants, steps, cosines, the paired quarter-circle
graph, capped inverse spikes, and seeded piecewise-constant data.

Every builder samples at cell centers and returns a CellField on the given
grid.  ``build_initial`` constructs a profile from a config mapping and
rejects unknown keys, mirroring ``build_grid``.
"""

from __future__ import annotations

import numpy as np

from .grid import CellField, Grid, _as_count
from .reference import QuarterCircleProfile

__all__ = [
    "constant",
    "step",
    "cosine",
    "quarter_circles",
    "capped_inverse",
    "random_piecewise",
    "build_initial",
]


def _one_axis(grid: Grid, what: str) -> np.ndarray:
    if grid.ndim != 1:
        raise ValueError(f"{what} needs a one-axis grid, got {grid.kind!r}")
    return grid.cell_centers[0]


def constant(grid: Grid, value: float = 0.0) -> CellField:
    """Uniform profile; stationary under the flow."""
    return CellField(grid, np.full(grid.shape, float(value)))


def step(grid: Grid, left: float = 0.0, right: float = 1.0, position: float | None = None) -> CellField:
    """Two-level profile on a one-axis grid.

    Cells whose center lies strictly left of ``position`` (default: domain
    midpoint) take ``left``, the rest take ``right``.
    """
    x = _one_axis(grid, "step")
    lo = grid.lo[0]
    hi = lo + grid.spacing[0] * grid.shape[0]
    pos = 0.5 * (lo + hi) if position is None else float(position)
    if not lo < pos < hi:
        raise ValueError(f"position {pos} outside the domain ({lo}, {hi})")
    values = np.where(x < pos, float(left), float(right))
    return CellField(grid, values)


def cosine(grid: Grid, amplitude: float = 1.0) -> CellField:
    """Product of half-period cosines per axis; zero-slope at every wall.

    On an interval (0, 1) this is amplitude * cos(pi x).
    """
    values = np.full(grid.shape, float(amplitude))
    for axis, centers in enumerate(grid.cell_centers):
        length = grid.spacing[axis] * grid.shape[axis]
        phase = np.cos(np.pi * (centers - grid.lo[axis]) / length)
        shape = [1] * grid.ndim
        shape[axis] = -1
        values = values * phase.reshape(shape)
    return CellField(grid, values)


def quarter_circles(grid: Grid, c: float = 1.0) -> CellField:
    """Paired quarter-circle graph on an interval grid over (0, 2).

    The profile jumps by ``c`` at x = 1, so the cell count must be even for
    no center to land on the jump.
    """
    x = _one_axis(grid, "quarter_circles")
    if grid.kind != "interval":
        raise ValueError(f"quarter_circles needs an interval grid, got {grid.kind!r}")
    hi = grid.lo[0] + grid.spacing[0] * grid.shape[0]
    if abs(grid.lo[0]) > 1e-12 or abs(hi - 2.0) > 1e-12:
        raise ValueError(f"quarter_circles is defined on (0, 2), got ({grid.lo[0]}, {hi})")
    if np.any(x == 1.0):
        raise ValueError("a cell center sits on the jump at x = 1; use an even cell count")
    profile = QuarterCircleProfile(c=float(c))
    return CellField(grid, profile.initial(x))


def capped_inverse(grid: Grid, cap: float = 20.0) -> CellField:
    """min(1/r, cap) over cell centers of a one-axis grid with centers > 0."""
    r = _one_axis(grid, "capped_inverse")
    if cap <= 0:
        raise ValueError(f"cap must be positive, got {cap}")
    if np.any(r <= 0.0):
        raise ValueError("capped_inverse needs strictly positive cell centers")
    return CellField(grid, np.minimum(1.0 / r, float(cap)))


def random_piecewise(
    grid: Grid,
    rng: np.random.Generator,
    pieces: int = 8,
    amplitude: float = 1.0,
) -> CellField:
    """Piecewise-constant profile with random breakpoints and levels.

    Bounded data of bounded variation: ``pieces`` contiguous blocks, each at
    a level drawn uniformly from [-amplitude, amplitude].
    """
    _one_axis(grid, "random_piecewise")
    n = grid.shape[0]
    pieces = _as_count(pieces, "pieces")
    if not 1 <= pieces <= n:
        raise ValueError(f"pieces must lie in [1, {n}], got {pieces}")
    if amplitude <= 0:
        raise ValueError(f"amplitude must be positive, got {amplitude}")
    if pieces > 1:
        cuts = np.sort(rng.choice(np.arange(1, n), size=pieces - 1, replace=False))
    else:
        cuts = np.array([], dtype=int)
    levels = rng.uniform(-amplitude, amplitude, size=pieces)
    lengths = np.diff(np.concatenate(([0], cuts, [n])))
    return CellField(grid, np.repeat(levels, lengths))


_BUILDERS = {
    "constant": (constant, {"value"}),
    "step": (step, {"left", "right", "position"}),
    "cosine": (cosine, {"amplitude"}),
    "quarter_circles": (quarter_circles, {"c"}),
    "capped_inverse": (capped_inverse, {"cap"}),
    "random_piecewise": (random_piecewise, {"seed", "pieces", "amplitude"}),
}


def build_initial(grid: Grid, spec: dict) -> CellField:
    """Build a profile from a mapping like {"type": "cosine", "amplitude": 2}.

    ``random_piecewise`` takes a ``seed`` (default 0) instead of a generator
    so configs stay fully reproducible.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"initial spec must be a mapping, got {type(spec).__name__}")
    params = dict(spec)
    kind = params.pop("type", None)
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise ValueError(
            f"unknown initial type {kind!r}; expected one of {sorted(_BUILDERS)}"
        )
    builder, allowed = _BUILDERS[kind]
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"unknown keys for initial type {kind!r}: {sorted(unknown)}")
    if kind == "random_piecewise":
        rng = np.random.default_rng(_as_count(params.pop("seed", 0), "seed"))
        return random_piecewise(grid, rng, **params)
    return builder(grid, **params)
