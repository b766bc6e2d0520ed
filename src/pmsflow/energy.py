"""Discrete area functional and the convex pieces of its saddle form.

The continuum functional is the graph area integral of sqrt(1 + |grad u|^2),
whose pointwise convex conjugate over the closed unit ball is
-sqrt(1 - |p|^2).  The duality

    sqrt(1 + |q|^2) = sup_{|p| <= 1} [ p.q + sqrt(1 - |p|^2) ]

is what both step solvers exploit.  The primal-dual iteration of
rectangles lifts it to sqrt(1 + |q|^2) = max over |(p0, p)| <= 1 of
p0 + p.q, so its dual proximal map is a projection onto the unit ball of
R^3; its primal map is ``prox_quadratic``, the closed form of the
implicit-step quadratic.  Each ops class also gives that iteration an
in-place pair of K and div (``loop_kernels``).  ``_dual_radius`` keeps the
exact proximal map of the unlifted conjugate as a reference for tests.  The Newton solve of
one-axis grids maximizes the step's dual, whose gradient and tridiagonal
Hessian ``_OneAxisOps`` supplies.

Discretization: the saddle operator K maps cell values to the dual space,
and the discrete area, which ``area_energy`` returns as one float, is
sum W * sqrt(1 + |K u|^2) over the dual entries plus the volume no dual
weight W covers.  ``_make_ops`` is the one place that picks the dual
layout.  One-axis grids (interval, radial) put the dual on faces: K is the
face gradient and W the face control volumes, so each term depends on a
single difference quotient, the discrete comparison principle is exact,
and the boundary half cells form the uncovered volume.
The rectangle puts a 2-vector dual on each cell: K co-locates per-axis
face-pair means onto cells and the Euclidean norm couples the axes, which
keeps the two-dimensional functional isotropic; W is the cell volume and
nothing is uncovered.  Both forms are convex, exceed the domain volume
unless the field is constant, and are invariant under adding a constant.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    CellField,
    Grid,
    colocated_gradient_values,
    divergence_values,
    forward_gradient_values,
)

__all__ = [
    "area_energy",
    "prox_quadratic",
]


class _OneAxisOps:
    """Saddle operators for interval and radial grids; duals live on faces."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.dual_weights = grid.face_weights[0]
        self.dual_shape = grid.face_shape(0)

    def k_apply(self, v: np.ndarray) -> np.ndarray:
        return forward_gradient_values(self.grid, v)[0]

    def div_dual(self, p: np.ndarray) -> np.ndarray:
        return divergence_values(self.grid, (p,))

    def loop_kernels(self, sigma: float, b: float):
        """In-place pair (v, out) -> sigma * K v and (p, out) -> b * div p.

        One-axis steps are solved by Newton; only a direct call of the
        primal-dual loop iterates with these, so they write the public
        operators into ``out``.
        """

        def k_into(v: np.ndarray, out: np.ndarray) -> None:
            np.multiply(self.k_apply(v), sigma, out=out)

        def div_into(p: np.ndarray, out: np.ndarray) -> None:
            np.multiply(self.div_dual(p), b, out=out)

        return k_into, div_into

    @staticmethod
    def magnitude(p: np.ndarray) -> np.ndarray:
        return np.abs(p)

    @staticmethod
    def dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return p * q

    @staticmethod
    def flux_components(p: np.ndarray) -> tuple[np.ndarray, ...]:
        return (p.copy(),)

    @staticmethod
    def dual_from_flux(flux) -> np.ndarray:
        return flux.components[0]

    def hessian_bands(self, p: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of the Hessian of the negative step dual.

        The Hessian is diag(W (1 - p^2)^(-3/2)) + tau * div^T V div, and
        <div e_j, div e_k>_V is nonzero only for faces sharing a cell:
        a_j^2 (1/V_j + 1/V_{j+1}) on the diagonal, -a_j a_{j+1} / V_{j+1}
        beside it, with a the face areas and V the cell volumes.
        """
        a, vol = self.grid.face_areas[0], self.grid.cell_volumes
        slack = (1.0 - p) * (1.0 + p)
        diag = self.dual_weights / (slack * np.sqrt(slack))
        diag += tau * a * a * (1.0 / vol[:-1] + 1.0 / vol[1:])
        return diag, -tau * a[:-1] * a[1:] / vol[1:-1]

    def dual_gradient(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Gradient W (p / sqrt(1 - p^2) - q) of the negative step dual.

        The negative step dual is -sum W sqrt(1 - p^2) + <u_prev, div p>_V
        + (tau/2) |div p|_V^2 with ``q`` = K u and u = u_prev + tau div p;
        its gradient vanishes exactly where the dual relation does.
        """
        return self.dual_weights * (p / np.sqrt((1.0 - p) * (1.0 + p)) - q)

    def newton_direction(self, p: np.ndarray, grad: np.ndarray, tau: float) -> np.ndarray:
        """Newton direction -H^(-1) grad of the negative step dual at p."""
        diag, off = self.hessian_bands(p, tau)
        return _solve_tridiagonal(diag, off, -grad)


def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive definite tridiagonal system by LDL^T.

    ``diag`` holds the n diagonal entries and ``off`` the n - 1 entries
    beside them.  The recurrence is sequential, so it runs over Python
    floats, which costs less per entry than numpy's per-call dispatch.
    """
    d, e, x = diag.tolist(), off.tolist(), rhs.tolist()
    n = len(d)
    low = [0.0] * n
    for i in range(1, n):
        li = e[i - 1] / d[i - 1]
        d[i] -= li * e[i - 1]
        x[i] -= li * x[i - 1]
        low[i] = li
    x[-1] /= d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = x[i] / d[i] - low[i + 1] * x[i + 1]
    return np.array(x)


class _RectangleOps:
    """Saddle operators for rectangles; duals are 2-vectors per cell.

    The dual pairs against the co-located gradient (per-axis face-pair
    means), its ball constraint holds per cell, and the face flux is the
    adjoint average of the two adjacent cell duals, so |flux| < 1 per face
    whenever the duals are feasible.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.dual_weights = grid.cell_volumes
        self.dual_shape = (2,) + grid.shape

    def k_apply(self, v: np.ndarray) -> np.ndarray:
        return colocated_gradient_values(self.grid, v)

    def flux_components(self, p: np.ndarray) -> tuple[np.ndarray, ...]:
        zx = 0.5 * (p[0, :-1, :] + p[0, 1:, :])
        zy = 0.5 * (p[1, :, :-1] + p[1, :, 1:])
        return (zx, zy)

    def div_dual(self, p: np.ndarray) -> np.ndarray:
        return divergence_values(self.grid, self.flux_components(p))

    def loop_kernels(self, sigma: float, b: float):
        """In-place pair (v, out) -> sigma * K v and (p, out) -> b * div p.

        Per axis, K is the central difference (v[i+1] - v[i-1]) / (2h) with
        the one-sided half (v[1] - v[0]) / (2h) in a wall cell, as if the
        walls mirrored v evenly.  Its exact negative adjoint under the
        equal cell weights is the central difference of p mirrored oddly:
        (p[1] + p[0]) / (2h) and -(p[-1] + p[-2]) / (2h) in the wall cells.
        Both write into ``out`` without allocating, and fold the step sizes
        into one multiplication per array; they agree with ``k_apply`` and
        ``div_dual`` to rounding.

        All arrays must be C-contiguous.  Along the second axis the kernels
        difference the flattened arrays, which costs a third of the strided
        two-dimensional slices; the entries that wrap across a row are wall
        cells, written afterwards.
        """
        hx, hy = self.grid.spacing
        k_coef = np.array([0.5 * sigma / hx, 0.5 * sigma / hy]).reshape(2, 1, 1)
        ratio, div_coef = hx / hy, 0.5 * b / hx

        def k_into(v: np.ndarray, out: np.ndarray) -> None:
            gx, gy = out
            np.subtract(v[2:], v[:-2], out=gx[1:-1])
            np.subtract(v[1], v[0], out=gx[0])
            np.subtract(v[-1], v[-2], out=gx[-1])
            flat = v.reshape(-1)
            np.subtract(flat[2:], flat[:-2], out=gy.reshape(-1)[1:-1])
            np.subtract(v[:, 1], v[:, 0], out=gy[:, 0])
            np.subtract(v[:, -1], v[:, -2], out=gy[:, -1])
            out *= k_coef

        def div_into(p: np.ndarray, out: np.ndarray) -> None:
            px, py = p
            flat = py.reshape(-1)
            np.subtract(flat[2:], flat[:-2], out=out.reshape(-1)[1:-1])
            np.add(py[:, 0], py[:, 1], out=out[:, 0])
            np.add(py[:, -2], py[:, -1], out=out[:, -1])
            out[:, -1] *= -1.0  # numpy 2.4's np.negative miswrites 64-byte strides
            out *= ratio  # the y differences in units of 1/hx
            out[1:-1] += px[2:]
            out[1:-1] -= px[:-2]
            out[0] += px[0]
            out[0] += px[1]
            out[-1] -= px[-2]
            out[-1] -= px[-1]
            out *= div_coef

        return k_into, div_into

    @staticmethod
    def magnitude(p: np.ndarray) -> np.ndarray:
        return np.sqrt(p[0] ** 2 + p[1] ** 2)

    @staticmethod
    def dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return p[0] * q[0] + p[1] * q[1]

    @staticmethod
    def dual_from_flux(flux) -> np.ndarray:
        raise ValueError("rectangle duals are per-cell 2-vectors; pass StepResult.dual")


def _make_ops(grid: Grid):
    return _RectangleOps(grid) if grid.kind == "rectangle" else _OneAxisOps(grid)


def area_energy(u: CellField) -> float:
    """Discrete graph area of a cell field; never below the domain volume."""
    ops = _make_ops(u.grid)
    mag = ops.magnitude(ops.k_apply(u.values))
    terms = ops.dual_weights * np.sqrt(1.0 + mag * mag)
    uncovered = u.grid.total_volume - float(ops.dual_weights.sum())
    return float(terms.sum()) + uncovered


def _dual_radius(m: np.ndarray, sigma: float, w: np.ndarray) -> np.ndarray:
    """Solve sigma*r/sqrt(1-r^2) + r = m elementwise for r in [0, 1).

    r is the radius of the proximal map of the conjugate at a point of
    magnitude m: the minimizer of -sqrt(1 - |p|^2) + |p - p_hat|^2 / (2 sigma)
    over the unit ball is r * p_hat / |p_hat|, strictly inside the ball.
    No solver calls it: the rectangle loop projects a lifted dual instead,
    and this exact prox is the reference its certified duals are tested
    against (a solution p with q = K u is the prox's fixed point at
    p + sigma q).

    Solved in the slope variable w = r/sqrt(1-r^2), where the equation
    becomes g(w) = sigma*w + w/sqrt(1+w^2) - m = 0.  ``w`` is a float
    buffer of m's shape holding the starting slopes; it is overwritten with
    the solved ones, so a caller that passes it back in on the next call
    starts there (a zero buffer gives the cold start below).

    g is increasing and concave on w >= 0.  The cold start
    c = max((m-1)/sigma, m/(1+sigma)) lies in [0, root], and each solve
    starts at max(c, w).  From at or below the root, concavity keeps every
    Newton iterate at or below it, so Newton climbs to it monotonically,
    with no bracket and no singular derivative near r = 1.  From above the
    root, concavity puts the first Newton iterate at or below it (possibly
    below 0, where g is convex); every update is clamped below by c, which
    is at most the root, and the climb takes over from there.  An entry is
    finished when its residual reaches the rounding noise of evaluating it
    (so downstream certificates can go to 1e-12 and below) or its update
    falls below the float resolution of w itself.
    """
    m = np.asarray(m, dtype=float)
    if np.any(m < 0):
        raise ValueError("radius equation needs a nonnegative magnitude")
    cold = np.maximum((m - 1.0) / sigma, m / (1.0 + sigma))
    np.maximum(cold, w, out=w)
    tol = np.maximum(1e-15, 4e-16 * m)
    done = np.zeros(m.shape, dtype=bool)
    for _ in range(60):
        root = np.sqrt(1.0 + w * w)
        g = sigma * w + w / root - m
        step = g / (sigma + 1.0 / (root * root * root))
        done |= (np.abs(g) <= tol) | (np.abs(step) <= 4e-16 * w)
        if np.all(done):
            break
        np.subtract(w, step, out=w, where=~done)  # hold finished entries
        np.maximum(w, cold, out=w)
    return w / np.sqrt(1.0 + w * w)


def prox_quadratic(v_hat, u_prev, tau: float, s: float):
    """Closed-form proximal map of the implicit-step quadratic.

    Minimizes |v - u_prev|^2 / (2 tau) + |v - v_hat|^2 / (2 s), giving
    (tau * v_hat + s * u_prev) / (tau + s); the grid weights cancel because
    both terms carry the same ones.
    """
    for name, value in (("tau", tau), ("s", s)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    v_hat = np.asarray(v_hat, dtype=float)
    u_prev = np.asarray(u_prev, dtype=float)
    if v_hat.shape != u_prev.shape:
        raise ValueError(f"shape mismatch {v_hat.shape} vs {u_prev.shape}")
    return (tau * v_hat + s * u_prev) / (tau + s)
