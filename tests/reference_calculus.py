"""The discrete calculus written out in plain numpy, as the tests' reference.

Each formula is written from its definition, not from ``pmsflow.grid``: the
face gradient is ``np.diff`` over the spacing, the co-located gradient is
the mean of a cell's two faces with an absent wall face as zero, and the
divergence is the area-weighted face values differenced across each cell,
again with the absent wall faces as zero.  The sums are associated the way
the module's accumulations are, so agreement can be checked to the bit.
"""

import numpy as np


def pad(a, axis, before, after):
    """``a`` with ``before`` zeros ahead of and ``after`` zeros behind it along ``axis``."""
    return np.pad(a, [(before, after) if k == axis else (0, 0) for k in range(a.ndim)])


def slopes(grid, values):
    """Face difference quotients, axis by axis."""
    return [np.diff(values, axis=k) / h for k, h in enumerate(grid.spacing)]


def colocated(faces):
    """Per-axis face-pair means on the cells, stacked as (ndim, *shape)."""
    return np.stack(
        [0.5 * ((0.0 + pad(f, k, 0, 1)) + pad(f, k, 1, 0)) for k, f in enumerate(faces)]
    )


def divergence(grid, faces):
    """Area-weighted face values, upper minus lower face, over the cell volume."""
    acc = 0.0
    for k, p in enumerate(faces):
        ap = grid.face_areas[k] * p
        acc = (acc + pad(ap, k, 0, 1)) - pad(ap, k, 1, 0)
    return acc / grid.cell_volumes


def magnitude(stacked):
    """Euclidean norm over the leading (axis) dimension."""
    return np.sqrt(np.sum(stacked * stacked, axis=0))
