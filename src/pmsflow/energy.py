"""Discrete area functional and the convex pieces of its saddle form.

The continuum functional is the graph area integral of sqrt(1 + |grad u|^2),
whose pointwise convex conjugate over the closed unit ball is
-sqrt(1 - |p|^2).  The duality

    sqrt(1 + |q|^2) = sup_{|p| <= 1} [ p.q + sqrt(1 - |p|^2) ]

is what both step solvers exploit.  The primal-dual iteration of
rectangles lifts it to sqrt(1 + |q|^2) = max over |(p0, p)| <= 1 of
p0 + p.q, so its dual proximal map is a projection onto the unit ball of
R^3; its primal map, the closed form of the step quadratic, is applied in
``solver``.  ``_RectangleOps`` gives that iteration an in-place pair of K
and div, bound to its buffers and working on a primal carried in units of
sigma / (2 hx) (``loop_kernels``).  Each ops class proves a bound on the
norm of its K (``norm_bound``), from which the step sizes follow, makes
K u from the face gradient of u (``k_from_slopes``) and the largest
co-located slope from that gradient and |K u| (``lip``), so that
``diagnostics`` differences u once and never sees the dual layout.  These
pieces, ``_area`` and the grid's ``colocate`` take a stack of states (a
leading axis), so that one set of record formulas serves every grid kind,
and ``evolve`` measures many states in one array call.
``k_apply`` and ``div_dual`` serve the certificates and the Newton solve;
the benchmark's tracer times them.
The one-axis Newton solve of ``solver`` takes the part of its tridiagonal
Hessian that does not depend on the dual from
``_OneAxisOps.hessian_coupling``, and its direction from
``_solve_tridiagonal``.  ``_make_ops`` keeps one ops object per live
grid, and with it the run invariants: the domain volume, the volume no
dual weight covers, and the coupling bands of the last tau.  ``_dual_radius``,
the exact proximal map of the unlifted conjugate, is a test reference; it
stays here while the benchmark's tracer still wraps it.

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

import weakref

import numpy as np

from .grid import (
    CellField,
    Grid,
    colocate,
    divergence_values,
    forward_gradient_values,
)

__all__ = [
    "area_energy",
]


class _GridOps:
    """What both ops classes keep of their grid: the dual weights W and
    shape, the cell volumes, and the run invariants that ``measure`` would
    otherwise sum at every step, the domain volume and the volume no dual
    weight covers.

    ``grid`` is held through a weak reference, so that ``_make_ops``'s table
    of ops objects keeps no grid alive; the grid's arrays, read-only, are
    held directly.
    """

    def __init__(self, grid: Grid, dual_weights: np.ndarray, dual_shape: tuple[int, ...]):
        self._grid = weakref.ref(grid)
        self.dual_weights = dual_weights
        self.dual_shape = dual_shape
        self.cell_volumes = grid.cell_volumes
        self.total_volume = grid.total_volume
        self.uncovered = self.total_volume - float(dual_weights.sum())

    @property
    def grid(self) -> Grid:
        return self._grid()


class _OneAxisOps(_GridOps):
    """Saddle operators for interval and radial grids; duals live on faces.

    ``norm_bound`` bounds the norm of K from the cell metric
    sum V u^2 to the face metric sum W q^2.  On an interval it is 2/h, the
    classical bound of the forward difference.  Radial grids need more: the
    innermost cell has face-to-volume ratio 2^(N-1), so the bound there is
    2^(N/2)/h, which reduces to 2/h when N = 2.

    K and div are the grid module's ``forward_gradient_values`` and
    ``divergence_values`` written out for one axis, on the spacing, face
    areas and cell count kept here: the same operations in the same order,
    so the same bits, without those functions' per-axis loops and lookups.
    The Newton solve applies each once per dual it visits; a Newton step
    costs about 44 us at 63 faces and 88 us at 399 faces (2-core Xeon,
    numpy 2.4.6), most of it numpy's per-call dispatch.
    """

    def __init__(self, grid: Grid):
        super().__init__(grid, grid.face_weights[0], grid.face_shape(0))
        scale = 2.0 ** (grid.radial_dim / 2.0) if grid.kind == "radial" else 2.0
        self.spacing = grid.spacing[0]
        self.face_areas = grid.face_areas[0]
        self.cells = grid.shape[0]
        self.norm_bound = scale / self.spacing
        self._coupling = None, None  # (tau, bands) of the last hessian_coupling

    def k_apply(self, v: np.ndarray) -> np.ndarray:
        """The face gradient of a state, or of each state of a stack."""
        slopes = np.subtract(v[..., 1:], v[..., :-1])
        slopes /= self.spacing
        return slopes

    @staticmethod
    def k_from_slopes(slopes) -> np.ndarray:
        """K u from the face gradient of u (``forward_gradient_values``)."""
        return slopes[0]

    def div_dual(self, p: np.ndarray) -> np.ndarray:
        """The divergence of the face flux p: per cell, the area-weighted
        flux through its upper face minus that through its lower one (an
        absent wall face gives zero), over the cell volume."""
        ap = self.face_areas * p
        acc = np.zeros(self.cells)
        acc[:-1] += ap
        acc[1:] -= ap
        acc /= self.cell_volumes
        return acc

    @staticmethod
    def magnitude(p: np.ndarray) -> np.ndarray:
        return np.abs(p)

    @staticmethod
    def squared_magnitude(p: np.ndarray) -> np.ndarray:
        """|p|^2 per dual entry, as p * p, which equals |p| * |p| exactly."""
        return p * p

    @staticmethod
    def lip(slopes, mag) -> np.ndarray:
        """Largest co-located slope of each state of a stack; K u is the face
        gradient, not that slope.

        ``colocate`` gives a cell half the sum of its two face slopes and a
        wall cell half its one face slope, so the largest of them is half
        the largest of |f[i] + f[i+1]| and the two wall slopes.
        """
        f = slopes[0]
        inner = np.abs(f[:, 1:] + f[:, :-1]).max(axis=1, initial=0.0)
        walls = np.maximum(np.abs(f[:, 0]), np.abs(f[:, -1]))
        return 0.5 * np.maximum(inner, walls)

    @staticmethod
    def dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return p * q

    @staticmethod
    def flux_components(p: np.ndarray) -> tuple[np.ndarray, ...]:
        """The face flux is the dual itself, copied: a flux never shares an
        array with a dual that ``evolve``'s predictor later overwrites."""
        return (p.copy(),)

    def hessian_coupling(self, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of tau * div^T V div, the part of the
        negative step dual's Hessian that does not depend on the dual.

        <div e_j, div e_k>_V is nonzero only for faces sharing a cell:
        a_j^2 (1/V_j + 1/V_{j+1}) on the diagonal, -a_j a_{j+1} / V_{j+1}
        beside it, with a the face areas and V the cell volumes.  The full
        Hessian adds the conjugate's diagonal W (1 - p^2)^(-3/2).

        The bands of the last tau are kept, read-only: a run steps with one
        tau, and a caller that changes it gets bands made for the new one.
        """
        kept, bands = self._coupling
        if tau != kept:
            a, vol = self.face_areas, self.cell_volumes
            bands = (tau * a * a * (1.0 / vol[:-1] + 1.0 / vol[1:]),
                     -tau * a[:-1] * a[1:] / vol[1:-1])
            for band in bands:
                band.setflags(write=False)
            self._coupling = tau, bands  # one store: a reader sees both or neither
        return bands


# Odd-even reduction halves a tridiagonal system while it has more unknowns
# than this; the rest go to the LDL^T loop.  A level costs about twenty numpy
# calls, and the loop about 0.25 us per unknown, so a level pays from about
# a hundred unknowns on.  Measured as the min of 7 x 500 solves of
# diagonally dominant systems (2-core Xeon, numpy 2.4.6): at 128, systems of
# 160 / 399 / 1 599 unknowns took 35 / 57 / 96 us, against 42 / 107 / 477
# unreduced; thresholds from 64 to 192 stayed within 15 % of 128 from 100
# to 1 599 unknowns, while 48 and 256 were up to 35 % slower.
_REDUCE_ABOVE = 128


def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive definite tridiagonal system.

    ``diag`` holds the n diagonal entries and ``off`` the n - 1 entries
    beside them; none of the three arrays is written to.  While more than
    ``_REDUCE_ABOVE`` unknowns are left, odd-even reduction (Buzbee, Golub
    & Nielson 1970) eliminates the odd-indexed unknowns in a few array
    passes: the even ones keep a tridiagonal system, their Schur
    complement, which is again symmetric positive definite, so no pivoting
    is needed.  The reduced system goes to ``_ldl_solve``, and the odd
    unknowns of each level follow from their two even neighbours.
    """
    levels = []
    while diag.size > _REDUCE_ABOVE:
        # odd unknown k couples to the even unknowns k (``left``) and k + 1
        # (``right``, absent after the last odd unknown when n is even); a and
        # c are its two multipliers, y its right-hand side over its pivot
        odd, left, right = diag[1::2], off[0::2], off[1::2]
        m = right.size
        a, c, y = left / odd, right / odd[:m], rhs[1::2] / odd
        diag, rhs = diag[0::2].copy(), rhs[0::2].copy()
        diag[: a.size] -= a * left
        diag[1 : m + 1] -= c * right
        rhs[: a.size] -= left * y
        rhs[1 : m + 1] -= right * y[:m]
        off = a[:m] * right
        np.negative(off, out=off)
        levels.append((a, c, y))
    x = _ldl_solve(diag, off, rhs)
    for a, c, y in reversed(levels):
        m = c.size
        odd = y - a * x[: a.size]
        odd[:m] -= c * x[1 : m + 1]
        full = np.empty(x.size + odd.size)
        full[0::2], full[1::2] = x, odd
        x = full
    return x


def _ldl_solve(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``_solve_tridiagonal`` by LDL^T, on the at most ``_REDUCE_ABOVE``
    unknowns that odd-even reduction leaves.

    The recurrence is sequential, so it runs over Python floats, which
    costs less per entry than numpy's per-call dispatch.  The running pivot
    and right-hand side stay in locals; the multipliers overwrite the list
    of the off-diagonal, and each forward-eliminated right-hand side, over
    its pivot, that of the right-hand side: the back substitution's
    divisions, made in the forward pass, so that the back substitution
    reads no pivot.  The solve, this loop at 63 unknowns and reduction plus
    loop at 399, is about 40 % and 60 % of a Newton step of 44 and 88 us
    (2-core Xeon, numpy 2.4.6); ``np.fromiter`` makes the result in 2.4 us
    at 63 entries, where ``np.array`` took 3.3.
    """
    d, e, x = diag.tolist(), off.tolist(), rhs.tolist()
    piv, xi = d[0], x[0]
    x[0] = xi / piv
    for i in range(1, len(d)):
        ei = e[i - 1]
        li = ei / piv
        piv = d[i] - li * ei
        xi = x[i] - li * xi
        e[i - 1] = li
        x[i] = xi / piv
    xi = x[-1]
    for i in range(len(d) - 2, -1, -1):
        xi = x[i] - e[i] * xi
        x[i] = xi
    return np.fromiter(x, float, len(x))


class _RectangleOps(_GridOps):
    """Saddle operators for rectangles; duals are 2-vectors per cell.

    The dual pairs against the co-located gradient (per-axis face-pair
    means), its ball constraint holds per cell, and the face flux is the
    adjoint average of the two adjacent cell duals, so |flux| < 1 per face
    whenever the duals are feasible.

    ``norm_bound`` is sqrt(1/hx^2 + 1/hy^2), the norm of K in the cell
    metric.  Per axis, K_x is the central difference with the one-sided
    half in the wall cells (see ``loop_kernels``): every row and every
    column of it, wall halves included, has absolute sum 1/hx, so by the
    Schur test |K_x| <= 1/hx, and likewise |K_y| <= 1/hy.  Since
    |K u|^2 = |K_x u|^2 + |K_y u|^2, |K|^2 <= 1/hx^2 + 1/hy^2.  The dual
    weights and the cell volumes are the same equal numbers, so they
    cancel from the ratio.  On a 2 x 2 grid the bound is attained.
    """

    def __init__(self, grid: Grid):
        super().__init__(grid, grid.cell_volumes, (2,) + grid.shape)
        self.norm_bound = float(np.sqrt(sum(1.0 / h**2 for h in grid.spacing)))

    def k_apply(self, v: np.ndarray) -> np.ndarray:
        return self.k_from_slopes(forward_gradient_values(self.grid, v))

    def k_from_slopes(self, slopes) -> np.ndarray:
        """K u from the face gradient of u (``forward_gradient_values``)."""
        return colocate(self.grid, slopes)

    def flux_components(self, p: np.ndarray) -> tuple[np.ndarray, ...]:
        zx = 0.5 * (p[0, :-1, :] + p[0, 1:, :])
        zy = 0.5 * (p[1, :, :-1] + p[1, :, 1:])
        return (zx, zy)

    def div_dual(self, p: np.ndarray) -> np.ndarray:
        return divergence_values(self.grid, self.flux_components(p))

    def loop_kernels(self, sigma: float, b: float, cv, p, scratch, out):
        """The loop's in-place K and div, on a primal carried in units of c.

        Returns (c, k_add, div_into) with c = sigma / (2 hx).  The loop
        carries cv = c vbar instead of vbar, so that the two kernels, bound
        to the loop's buffers, are

            k_add():     p += sigma K vbar,
            div_into():  out = c b div p.

        Per axis, K is the central difference (v[i+1] - v[i-1]) / (2h) with
        the one-sided half (v[1] - v[0]) / (2h) in a wall cell, as if the
        walls mirrored v evenly.  Its exact negative adjoint under the
        equal cell weights is the central difference of p mirrored oddly:
        (p[1] + p[0]) / (2h) and -(p[-1] + p[-2]) / (2h) in the wall cells.
        In units of c, sigma K_x vbar is the raw difference of cv and
        sigma K_y vbar that difference times hx/hy: ``k_add`` adds the x
        differences into p[0] and the y differences into p[1], each through
        ``scratch``, and multiplies only when hx != hy.  ``div_into`` writes
        the raw x differences of p[0] into ``out``, adds the y differences
        of p[1] through ``scratch`` (times hx/hy when hx != hy) and makes one
        multiplication, by c b / (2 hx).  Neither allocates; they agree with
        ``k_apply`` and ``div_dual`` to rounding.

        All arrays must be C-contiguous and stay in place while the kernels
        are used: every slice is taken once, here.  Along the second axis
        the kernels difference the flattened arrays, which costs a third of
        the strided two-dimensional slices; the entries that wrap across a
        row are wall cells, written afterwards.  Each axis's two walls are
        one operation on a two-row (two-column) view.
        """
        hx, hy = self.grid.spacing
        c = 0.5 * sigma / hx
        ratio, div_coef = hx / hy, c * (0.5 * b / hx)
        px, py = p
        add, subtract, multiply = np.add, np.subtract, np.multiply
        flat_cv, flat_py, flat_scratch = cv.reshape(-1), py.reshape(-1), scratch.reshape(-1)
        # K: central differences, and v[1] - v[0], v[-1] - v[-2] at the walls
        kx = (cv[2:], cv[:-2], scratch[1:-1])
        kx_walls = (_pair(cv, 1, -1, 0), _pair(cv, 0, -2, 0), _pair(scratch, 0, -1, 0))
        ky = (flat_cv[2:], flat_cv[:-2], flat_scratch[1:-1])
        ky_walls = (_pair(cv, 1, -1, 1), _pair(cv, 0, -2, 1), _pair(scratch, 0, -1, 1))
        # div: central differences, and p[0] + p[1], -(p[-2] + p[-1]) at the walls
        dx = (px[2:], px[:-2], out[1:-1])
        dx_walls = (_pair(px, 0, -2, 0), _pair(px, 1, -1, 0), _pair(out, 0, -1, 0))
        dy = (flat_py[2:], flat_py[:-2], flat_scratch[1:-1])
        dy_walls = (_pair(py, 0, -2, 1), _pair(py, 1, -1, 1), _pair(scratch, 0, -1, 1))
        top_row, top_column = out[-1:], scratch[:, -1:]

        def k_add() -> None:
            subtract(*kx)
            subtract(*kx_walls)
            add(px, scratch, px)
            subtract(*ky)
            subtract(*ky_walls)
            if ratio != 1.0:
                multiply(scratch, ratio, scratch)
            add(py, scratch, py)

        def div_into() -> None:
            subtract(*dx)
            add(*dx_walls)
            multiply(top_row, -1.0, top_row)
            subtract(*dy)
            add(*dy_walls)
            # not np.negative: numpy 2.4's miswrites 64-byte strides
            multiply(top_column, -1.0, top_column)
            if ratio != 1.0:
                multiply(scratch, ratio, scratch)  # the y differences in units of 1/hx
            add(out, scratch, out)
            multiply(out, div_coef, out)

        return c, k_add, div_into

    @staticmethod
    def lip(slopes, mag) -> np.ndarray:
        """Largest co-located slope of each state of a stack: K u is the
        co-located gradient, so the largest |K u|."""
        return mag.reshape(len(mag), -1).max(axis=1)

    @staticmethod
    def magnitude(p: np.ndarray) -> np.ndarray:
        m = np.square(p[0])
        m += np.square(p[1])
        return np.sqrt(m, out=m)

    @staticmethod
    def squared_magnitude(p: np.ndarray) -> np.ndarray:
        """|p|^2 per cell, as the square of ``magnitude``."""
        m = _RectangleOps.magnitude(p)
        return np.multiply(m, m, out=m)

    @staticmethod
    def dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        d = p[0] * q[0]
        d += p[1] * q[1]
        return d


def _pair(a: np.ndarray, i: int, j: int, axis: int) -> np.ndarray:
    """View of the entries i and j of ``a`` along ``axis`` (i before j), as
    one strided slice; when they coincide, one entry, which broadcasts."""
    n = a.shape[axis]
    i, j = i % n, j % n
    part = slice(i, j + 1, j - i) if j > i else slice(i, i + 1)
    return a[(slice(None),) * axis + (part,)]


# One ops object per live grid (``Grid`` hashes by identity); an ops object
# refers to its grid weakly, so this table keeps no grid alive.
_OPS = weakref.WeakKeyDictionary()


def _make_ops(grid: Grid):
    """The ops object of ``grid``, made on its first use and kept with it."""
    ops = _OPS.get(grid)
    if ops is None:
        ops = _RectangleOps(grid) if grid.kind == "rectangle" else _OneAxisOps(grid)
        _OPS[grid] = ops
    return ops


def area_energy(u: CellField) -> float:
    """Discrete graph area of a cell field; never below the domain volume."""
    ops = _make_ops(u.grid)
    return float(_area(ops, ops.magnitude(ops.k_apply(u.values[None])))[0])


def _area(ops, mag: np.ndarray) -> np.ndarray:
    """The discrete area of each state of a stack at |K u| = ``mag``, of
    shape (states, *dual entries): sum W sqrt(1 + mag^2) over the dual
    entries plus the volume no dual weight covers."""
    terms = ops.dual_weights * np.sqrt(1.0 + mag * mag)
    return terms.reshape(len(terms), -1).sum(axis=1) + ops.uncovered


def _dual_radius(m: np.ndarray, sigma: float) -> np.ndarray:
    """Solve sigma*r/sqrt(1-r^2) + r = m elementwise for r in [0, 1).

    r is the radius of the proximal map of the conjugate at a point of
    magnitude m: the minimizer of -sqrt(1 - |p|^2) + |p - p_hat|^2 / (2 sigma)
    over the unit ball is r * p_hat / |p_hat|, strictly inside the ball.
    No solver calls it; it is the reference the tests check the rectangle
    loop's certified duals against (a solution p with q = K u is the prox's
    fixed point at p + sigma q).

    Solved in the slope variable w = r/sqrt(1-r^2), where the equation
    becomes g(w) = sigma*w + w/sqrt(1+w^2) - m = 0.  g is increasing and
    concave on w >= 0, and the start w = max((m-1)/sigma, m/(1+sigma)) lies
    in [0, root]; concavity keeps every Newton iterate at or below the
    root, so Newton climbs to it monotonically, with no bracket and no
    singular derivative near r = 1.  An entry is finished when its residual
    reaches the rounding noise of evaluating it (so downstream certificates
    can go to 1e-12 and below) or its update falls below the float
    resolution of w itself.
    """
    m = np.asarray(m, dtype=float)
    if np.any(m < 0):
        raise ValueError("radius equation needs a nonnegative magnitude")
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
        np.subtract(w, step, out=w, where=~done)  # hold finished entries
    return w / np.sqrt(1.0 + w * w)

