"""Implicit time stepping for the zero-flux parabolic minimal surface flow.

Each step advances u by solving the strictly convex problem

    minimize  E(v) + |v - u_prev|_w^2 / (2 tau)

with E the discrete area functional.  K and div are the saddle operators of
``energy._make_ops`` (the face gradient on one-axis grids, the co-located
cell gradient on rectangles), and the step has two inner solvers.

On one-axis grids (interval, radial) the step's dual

    maximize  D(p) = sum W sqrt(1 - p^2) - <u_prev, div p>_V
                     - (tau/2) |div p|_V^2   over |p| < 1,

with u = u_prev + tau * div p, is smooth and strictly concave, and its
Hessian is tridiagonal.  Damped Newton solves it: each direction is one
tridiagonal solve with the closed-form bands (``energy._solve_tridiagonal``:
odd-even reduction in array passes down to at most 128 unknowns, then an
LDL^T loop), the step keeps a fixed fraction of the distance to |p| = 1
and backtracks until -D decreases (Armijo), or, once that decrease is
below the rounding of -D, until the scaled gradient does.  It certifies
within a handful of steps.  Each dual it visits, the start or a
line-search trial, is one ``_DualIterate``, which is screened with the
dual relation as it is made, owns its certificate and makes every other
term once and only where it is read.  A trial is screened, and certified
where its screen passes, before its descent test, and one that certifies
is returned at once as the next iterate: the certified dual, start or
trial, makes neither -D nor the gradient.  The part of the Hessian
that does not depend on p is a run invariant: the grid's ops object
(``energy._make_ops``, one per live grid) keeps it for the last tau, with
the domain volume and the volume no dual weight covers that every record
uses.

On rectangles a primal-dual iteration (PDHG) runs on a lifted dual.  Since
sqrt(1 + |q|^2) = |(1, q)| = max over |(p0, p)| <= 1 of p0 + p.q, each
cell carries a third dual component p0, started at sqrt(1 - |p|^2), and
the dual proximal map is the projection onto the unit ball of R^3; the
primal proximal map of the step quadratic at v_hat is the closed form
(tau v_hat + s u_prev) / (tau + s):

    (p0, p) <- (p0 + sigma, p + sigma * K vbar)
               / max(1, |(p0 + sigma, p + sigma * K vbar)|)   (per cell)
    v       <- (tau (v + s * div p) + s u_prev) / (tau + s)
    vbar    <- v + theta * (v - v_prev)

The loop carries the increment v - u_prev and vbar in units of
sigma / (2 hx), through in-place kernels bound to buffers made once per
step (``_pdhg``, ``_RectangleOps.loop_kernels``).  With the closed-form
prox, (v - u_prev)/tau - div p = (v_prev - v)/s exactly: the loop's primal
residual is its own primal step.

The grid weights are carried by the pairing, so they cancel inside both
proximal maps.  The quadratic term is (1/tau)-strongly convex and the
conjugate -sqrt(1 - |p|^2) of the unlifted dual is 1-strongly convex on
its domain; those two moduli fix the default pair: s/sigma = tau with
s * sigma * L^2 = 1 (Chambolle & Pock 2011, Alg. 3), see
``_resolve_steps``.  L is the norm bound that each ops class proves for
its own K (``operator_norm_bound``); on rectangles it is
sqrt(1/hx^2 + 1/hy^2), which a 2 x 2 grid attains, and the loop's linear
rate improves as L shrinks.

Both solvers terminate on the same three certificates at tolerance
``inner_tol``: the primal stationarity residual, the pointwise dual
relation residual, and the summed Fenchel gap, which at the finalized
iterate equals the duality gap of the step problem.  One routine,
``_residuals``, evaluates them on the pair a solver would return,
(u_prev + tau div p, p), only where a cheaper screen passes or a failure
is raised, so every NonConvergenceError reports that pair's triplet.
Newton screens with the dual relation (``_relation``), since its state is
u_prev + tau div p by construction, and each dual certifies on its own
screen's relation; the rectangle loop screens with its primal step.
Neither runs on below the float floor of its certificates, where the
pair's primal, the rounding of u_prev + tau div p, lies above
``inner_tol`` within a few times eps max|u_prev| / tau
(``_at_float_floor``): the rectangle loop fails once its screen passes
there, and names that floor; Newton then certifies only its iterates, and
fails once no step length shrinks its dual relation.  The returned state
is exactly u_prev + tau * divergence_values(flux) in the grid module's
calculus, so the weighted mean is conserved to machine precision and the
energy inequality E(u_next) + |u_next - u_prev|_w^2/(2 tau) <= E(u_prev) +
inner_tol holds by convex duality rather than by observation.

Both solvers certify a step from any finite start, so the start only sets
the number of inner iterations.  ``evolve`` starts the first step from the
pointwise variational dual of u_0, the second from the first step's dual
p_1, and every later step from a variable-order prediction: the polynomial
through the last m step duals, p_k + nabla p_k + ... + nabla^(m-1) p_k in
backward differences, with m <= 6 the order of the smallest difference
(``_DualPredictor``).  Once the flow is smooth the step duals are smooth in
time, and the prediction misses the next dual by O(tau^m) where p_k alone
misses by O(tau); an entry whose prediction leaves the open unit ball keeps
p_k.  On one-axis grids a start entry at or beyond |p| = 1 takes the value
of the cold start.  The rectangle loop starts its primal iterate at
u_prev + tau * div p, the state its start dual certifies (on a cold step,
the explicit Euler predictor).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticRecord, _measure_stack, default_jump_threshold, measure
# perfbench/tracer.py finds _dual_radius and the two ops classes here and
# wraps them to time the saddle operators, which only certificate
# evaluations call (the rectangle loop runs ``loop_kernels``).  No step
# calls _dual_radius (the tests use it as the exact prox); the name stays
# bound here until the benchmark drops its dual-radius metrics.
from .energy import _dual_radius, _make_ops, _OneAxisOps, _RectangleOps  # noqa: F401
from .energy import _solve_tridiagonal
from .grid import CellField, FaceField, Grid, cell_norm, forward_gradient_values

__all__ = [
    "SolverConfig",
    "StepResult",
    "Trajectory",
    "NonConvergenceError",
    "implicit_step",
    "kkt_residual",
    "evolve",
]


@dataclass(frozen=True)
class SolverConfig:
    """Time step and inner-iteration settings.

    ``theta``, ``sigma``, ``s`` and ``check_every`` steer the primal-dual
    iteration, which only rectangles run; the Newton solve of one-axis grids
    takes no step sizes and ignores them, but they are validated on every
    grid.  Without an explicit pair, ``sigma`` and ``s`` follow from tau and
    the grid's bound L on the saddle operator norm: the step quadratic is
    (1/tau)-strongly convex and the dual conjugate 1-strongly convex, so
    s/sigma = tau with s * sigma * L^2 = 1.  Explicit values must satisfy
    s * sigma * L^2 <= 1.  ``max_inner`` caps inner iterations (PDHG) or
    Newton iterates, one per Newton step plus the start (one-axis grids);
    it and ``check_every`` are integers.  The rectangle loop screens with
    its primal step every ``check_every`` iterations and certifies where
    the screen passes.  Only the tests and the benchmark set those four
    fields, which stay while the benchmark does.  A ``runner.RunConfig`` is
    a SolverConfig plus a run's own fields, so a config file's bad ``tau``,
    ``inner_tol`` or ``max_inner`` fails these checks as it loads.
    """

    tau: float
    theta: float = 1.0
    sigma: float | None = None
    s: float | None = None
    inner_tol: float = 1e-8
    max_inner: int = 20000
    check_every: int = 16

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if not 0 < self.inner_tol < np.inf:
            raise ValueError(f"inner_tol must be positive and finite, got {self.inner_tol}")
        for name in ("max_inner", "check_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if (self.sigma is None) != (self.s is None):
            raise ValueError("give both sigma and s, or neither")
        if self.sigma is not None and not (0 < self.sigma < np.inf and 0 < self.s < np.inf):
            raise ValueError("sigma and s must be positive and finite")


class NonConvergenceError(RuntimeError):
    """An implicit step whose inner solve did not certify.

    Raised at ``max_inner``, or earlier where the step cannot certify: a
    Newton line search that finds no acceptable length, or a rectangle step
    whose screen passes while its certificate lies at the float floor.
    Both solvers then certify the pair the step would have returned,
    (u_prev + tau div p, p), with ``_residuals``: ``primal_residual``,
    ``dual_residual`` and ``gap`` are that triplet, and ``iterations`` the
    count at which the step stopped.  ``evolve`` sets ``step`` and ``t``,
    the step that failed and its time, and names them in the message; both
    are None for a lone implicit step.
    """

    step: int | None = None
    t: float | None = None

    def __init__(self, message, *, iterations, primal_residual, dual_residual, gap):
        super().__init__(message)
        self.iterations = iterations
        self.primal_residual = primal_residual
        self.dual_residual = dual_residual
        self.gap = gap

    @property
    def kkt_residual(self) -> float:
        return max(self.primal_residual, self.dual_residual)


def operator_norm_bound(grid: Grid) -> float:
    """Upper bound L on the saddle operator norm in the weighted metrics.

    Each dual layout of ``energy._make_ops`` carries its own bound, with its
    proof: 2/h on intervals and 2^(N/2)/h on N-dimensional radial grids
    (face gradient), sqrt(1/hx^2 + 1/hy^2) on rectangles (co-located
    central difference), which a 2 x 2 rectangle attains.  The benchmark
    derives its explicit step pair from it; a helper of that tool, so not
    in ``__all__``.
    """
    return _make_ops(grid).norm_bound


def _resolve_steps(grid: Grid, cfg: SolverConfig) -> tuple[float, float]:
    """Step sizes (sigma, s) of the rectangle loop.

    Without an explicit pair they follow from the problem.  The step
    quadratic is (1/tau)-strongly convex and the dual conjugate 1-strongly
    convex, so Chambolle & Pock (2011, "A first-order primal-dual algorithm
    for convex problems with applications to imaging", Alg. 3) balance the
    two moduli with s/sigma = tau, and s * sigma * L^2 = 1 takes the largest
    product the bound L allows: sigma = 1/(L sqrt(tau)), s = sqrt(tau)/L,
    with L = ``operator_norm_bound(grid)``.  Over the first five steps of a
    96 x 96 cosine (amplitude 0.5, tau 1e-3) that takes 96 inner iterations
    per step against 1 661 at s = sigma = 1/L (176 against 3 302 under the
    former rectangle bound 2 sqrt(1/hx^2 + 1/hy^2)).  An explicit pair is
    checked against s * sigma * L^2 <= 1.
    """
    bound = operator_norm_bound(grid)
    if cfg.sigma is None:
        root = float(np.sqrt(cfg.tau))
        return 1.0 / (bound * root), root / bound
    if cfg.sigma * cfg.s * bound * bound > 1.0 + 1e-9:
        raise ValueError(
            f"sigma*s*L^2 = {cfg.sigma * cfg.s * bound * bound:.6g} exceeds 1 "
            f"(L = {bound:.6g} on this grid)"
        )
    return cfg.sigma, cfg.s


def _variational_dual(ops, values: np.ndarray) -> np.ndarray:
    """Pointwise dual of the gradient: q / sqrt(1 + |q|^2), always feasible."""
    q = ops.k_apply(values)
    m = ops.magnitude(q)
    return q / np.sqrt(1.0 + m * m)


def _conjugate(ops, p) -> np.ndarray:
    """sqrt(1 - |p|^2) per dual entry (0 where |p| >= 1)."""
    mp = ops.magnitude(p)
    slack = np.subtract(1.0, mp)
    slack *= np.add(mp, 1.0, out=mp)
    np.maximum(slack, 0.0, out=slack)
    return np.sqrt(slack, out=slack)


def _relation(ops, p, q) -> tuple[float, np.ndarray]:
    """The dual relation max |p * sqrt(1 + |q|^2) - q| of the dual p against
    q = K u, and the array sqrt(1 + |q|^2), which the caller may overwrite."""
    root = ops.magnitude(q)
    np.multiply(root, root, out=root)
    root += 1.0
    np.sqrt(root, out=root)
    relation = p * root
    relation -= q
    return float(ops.magnitude(relation).max()), root


def _residuals(ops, u_prev, tau, p, divz, u, q, conj, relation=None):
    """The three certificates (primal, dual relation, gap) of the pair (u, p).

    ``divz`` = div(p), ``q`` = K u and ``conj`` = sqrt(1 - |p|^2)
    (``_conjugate``) come from the caller, which computes each once per
    pair.  Primal: |(u - u_prev)/tau - div(p)|_w.  Dual: ``_relation``,
    which a Newton dual screens with as it is made and passes in as
    ``relation``, so that it is evaluated once per dual; its root array is
    overwritten here.  Gap: sum W * (sqrt(1 + |q|^2) - p.q - sqrt(1 - |p|^2)),
    the duality gap of the step problem at u = u_prev + tau * div(p).  Each
    works in place on the arrays it makes, in the order of the formulas,
    which spares the allocations of a 96 x 96 certificate.  Both solvers
    and ``kkt_residual`` certify here.
    """
    r = np.subtract(u, u_prev)
    r /= tau
    r -= divz
    r *= r
    r *= ops.grid.cell_volumes
    primal = math.sqrt(r.sum())
    dual, root = _relation(ops, p, q) if relation is None else relation
    gap_terms = np.subtract(root, ops.dot(p, q), out=root)
    gap_terms -= conj
    np.maximum(gap_terms, 0.0, out=gap_terms)
    gap_terms *= ops.dual_weights
    return primal, dual, float(gap_terms.sum())


@dataclass
class StepResult:
    """One accepted implicit step.

    ``dual`` is the certified dual, the one stored form of the step's
    solution and the warm start of the next step's ``implicit_step``: of
    the face shape on one-axis grids, the per-cell (2, nx, ny) field on
    rectangles.  ``flux`` is its face flux, made anew at each read, with
    |flux| < 1 on every face.  ``kkt_residual`` is evaluated at the
    returned pair and is at most ``inner_tol``.
    """

    u_next: CellField
    dual: np.ndarray
    inner_iters: int
    kkt_residual: float

    @property
    def flux(self) -> FaceField:
        return _face_flux(_make_ops(self.u_next.grid), self.dual)


def _face_flux(ops, p) -> FaceField:
    """The face flux of the dual ``p``, in arrays of its own."""
    return FaceField(ops.grid, ops.flux_components(p))


def implicit_step(
    u_prev: CellField,
    cfg: SolverConfig,
    dual: np.ndarray | None = None,
) -> StepResult:
    """Solve one minimizing step of the area functional.

    Parameters
    ----------
    u_prev : CellField
        State being stepped from.
    cfg : SolverConfig
        Step length and inner-iteration settings.
    dual : array, optional
        Dual starting guess, typically ``StepResult.dual`` of the previous
        step: finite, of shape (2, nx, ny) on rectangles and of the face
        shape on one-axis grids.  Without it the dual starts at the
        pointwise variational flux of u_prev.  The primal iterate of the
        rectangle loop starts at u_prev + tau * div(dual), the state the
        start dual certifies; the Newton solve of one-axis grids needs no
        primal start, and replaces start entries at or beyond |p| = 1 by
        those of the variational flux.

    Returns
    -------
    StepResult
        With u_next = u_prev + tau * div(flux) exactly, so the weighted mean
        is conserved to rounding.

    Raises
    ------
    ValueError
        If ``dual`` has the wrong shape or a non-finite entry.
    NonConvergenceError
        If the three inner certificates (primal stationarity, pointwise dual
        relation, summed Fenchel gap) do not all reach inner_tol within
        max_inner iterations; the error carries the last residuals.
    """
    grid = u_prev.grid
    ops = _make_ops(grid)
    sigma, s = _resolve_steps(grid, cfg)  # validated on every grid, used on rectangles
    u0 = u_prev.values
    p = _variational_dual(ops, u0) if dual is None else _checked_dual(ops, dual)
    if isinstance(ops, _OneAxisOps):
        return _newton(ops, u0, cfg, p)
    return _pdhg(ops, u0, cfg, sigma, s, p)


def _checked_dual(ops, dual) -> np.ndarray:
    """``dual`` as a float array, which must be finite and of ``ops.dual_shape``.

    No caller writes to it: both solvers and ``kkt_residual`` only read
    their start dual, so a float array is used as it stands.
    """
    try:
        p = np.asarray(dual, dtype=float)
    except (TypeError, ValueError):  # not an array: a FaceField, a ragged list
        raise ValueError(f"dual must have shape {ops.dual_shape}, "
                         f"got a {type(dual).__name__}") from None
    if p.shape != ops.dual_shape:
        raise ValueError(f"dual must have shape {ops.dual_shape}, got {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError(f"dual of shape {ops.dual_shape} must be finite")
    return p


def _nonconvergence(what, iterations, residuals, tol):
    a_res, b_res, gap = residuals
    return NonConvergenceError(
        f"{what} did not meet tol {tol:g} within {iterations} iterations "
        f"(primal {a_res:.3e}, dual {b_res:.3e}, gap {gap:.3e})",
        iterations=iterations,
        primal_residual=a_res,
        dual_residual=b_res,
        gap=gap,
    )


def _prox_coefficients(tau, s):
    """(a, b) with u_prev + a w + b d the proximal map of the step quadratic
    at v + s d, (tau (v + s d) + s u_prev) / (tau + s), for w = v - u_prev."""
    a = tau / (tau + s)
    return a, s * a


def _primal_update(w, cbdivz, a, theta, cu0, w_new, vbar):
    """w_new = a w + c b div p and vbar = c u0 + w_new + theta (w_new - w), in place.

    The loop carries its primal in units of c (``loop_kernels``): w is
    c (v - u_prev), the scaled increment of the primal iterate, ``cbdivz``
    holds c b div p and ``cu0`` c u_prev.  With (a, b) from
    ``_prox_coefficients`` the first line is the primal proximal step, the
    second the extrapolation, both times c.  Iterating on the increment
    keeps the rounding of u_prev out of it: a fixed point with div p = 0 is
    w = 0 exactly.
    """
    np.multiply(w, a, w_new)
    np.add(w_new, cbdivz, w_new)
    np.subtract(w_new, w, vbar)
    if theta != 1.0:
        np.multiply(vbar, theta, vbar)
    np.add(vbar, w_new, vbar)
    np.add(vbar, cu0, vbar)


# A primal residual above inner_tol and within this multiple of the float
# floor eps max|u_prev| / tau is rounding that the step cannot remove
# (``_at_float_floor``).  The property tests draw tolerances above this
# multiple, so none of their steps stop there.
_FLOOR_MULTIPLE = 4.0


def _float_floor(u0, tau) -> float:
    return np.finfo(float).eps * float(np.abs(u0).max()) / tau


def _at_float_floor(primal, tol, u0, tau) -> bool:
    """Whether a step from ``u0`` whose pair has this primal residual can
    never certify: the residual fails tol within the floor's multiple."""
    return tol < primal <= _FLOOR_MULTIPLE * _float_floor(u0, tau)


def _pdhg(ops, u0, cfg, sigma, s, p) -> StepResult:
    """The rectangle primal-dual iteration from (u_prev, p), screened every
    check_every and certified where the screen passes.

    The dual runs lifted: sqrt(1 + |q|^2) = |(1, q)| is the maximum of
    p0 + p.q over |(p0, p)| <= 1, so each cell's dual carries a third
    component p0 and the dual proximal step is the projection of
    (p0 + sigma, p + sigma K vbar) onto the unit ball of R^3.
    p0 starts at sqrt(1 - |p|^2), its value at the solution, and the primal
    iterate at v = u_prev + tau * div p, the state the start dual certifies:
    from a dual that already solves the step, the first check passes.

    The primal runs in units of c = sigma / (2 hx) (``ops.loop_kernels``):
    with W = c (v - u_prev), Vbar = c vbar and (a, b) of ``_prox_coefficients``:

        p      += D Vbar                          (``k_add``: sigma K vbar)
        (p0, p) <- (p0 + sigma, p) / max(1, |(p0 + sigma, p)|)
        W_new   = a W + c b div p                 (``div_into``)
        Vbar    = c u_prev + W_new + theta (W_new - W)

    where D takes the raw central differences of Vbar, the y ones times
    hx/hy.  sigma K thus costs no multiplication on a square grid, and the
    divergence one.  An iteration allocates nothing: its buffers are made
    once per step, the two increments swap roles, and ``k_add`` uses the
    projection's norm array as its scratch.  The kernels round differently
    from the public calculus, so they move the iterates in the last bits
    only.

    The primal update is the proximal step, so (v_new - u_prev)/tau - div p
    = (v - v_new)/s exactly: a check screens with |W - W_new|_V / (c s), one
    subtraction and one dot product (the cell volumes are equal).  Only
    where the screen passes, or at ``max_inner``, does the loop make the
    pair it would return, u = u_prev + tau * div p with the public
    ``ops.div_dual``, and certify it with ``_residuals`` as Newton does.
    That pair's primal residual is the rounding of u_prev + tau div p, about
    eps max|u_prev| / tau: where the screen passes and it lies above
    inner_tol, within ``_FLOOR_MULTIPLE`` of that floor, the step can never
    certify and raises at once, naming the floor.
    """
    tau, theta, tol = cfg.tau, cfg.theta, cfg.inner_tol
    a, b = _prox_coefficients(tau, s)
    vbar, w_new, cbdivz, norm = (np.empty(u0.shape) for _ in range(4))
    lifted = np.concatenate((_conjugate(ops, p)[None], p))
    p0, p = lifted[0], lifted[1:]  # views: updating lifted updates p
    c, k_add, div_into = ops.loop_kernels(sigma, b, vbar, p, norm, cbdivz)
    cu0 = c * u0
    w = (c * tau) * ops.div_dual(p)  # the increment the start dual certifies
    np.add(cu0, w, vbar)
    step_norm = math.sqrt(float(ops.grid.cell_volumes.flat[0])) / (c * s)  # |.|_V / (c s)
    for k in range(1, cfg.max_inner + 1):
        k_add()
        np.add(p0, sigma, p0)
        np.einsum("i...,i...->...", lifted, lifted, out=norm)
        np.sqrt(norm, norm)
        np.maximum(norm, 1.0, out=norm)
        np.divide(1.0, norm, norm)
        np.multiply(lifted, norm, lifted)
        div_into()
        _primal_update(w, cbdivz, a, theta, cu0, w_new, vbar)
        w, w_new = w_new, w
        if k == 1 or k % cfg.check_every == 0 or k == cfg.max_inner:
            step = np.subtract(w_new, w, out=norm)  # W - W_new; norm is scratch here
            passes = not step_norm * math.sqrt(np.vdot(step, step)) > tol  # NaN passes
            if not passes and k < cfg.max_inner:
                continue  # the step cannot certify; skip the certificate
            divz = ops.div_dual(p)
            u = u0 + tau * divz
            residuals = _residuals(ops, u0, tau, p, divz, u, ops.k_apply(u), _conjugate(ops, p))
            if all(r <= tol for r in residuals):
                return StepResult(CellField(ops.grid, u), p.copy(), k, max(residuals[:2]))
            if passes and _at_float_floor(residuals[0], tol, u0, tau):
                where = f"the float floor eps max|u| / tau = {_float_floor(u0, tau):.3e}"
                raise _nonconvergence(f"inner iteration (stalled at {where})", k, residuals, tol)
    raise _nonconvergence("inner iteration", cfg.max_inner, residuals, tol)


# Newton steps keep this fraction of the distance to |p| = 1, must cut -D by
# this fraction of the first-order prediction (Armijo), and are halved at
# most this often.
_TO_BOUNDARY = 0.995
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
# Rounding noise of -D relative to the sum of its terms' magnitudes: a
# predicted decrease below it cannot be told from zero.
_DUAL_NOISE = 1e-13
# Below the rounding noise of -D (``_DualIterate.noise``) a step must cut
# the squared ``relation_sq`` by this factor, as Newton does near the
# solution.  A step at that measure's own
# rounding floor cannot, so a step whose certificates lie below the float
# floor fails within a few iterations instead of running to max_inner.
_RELATION_SHRINK = 0.25
# The largest float below 1: iterates are clipped to it so that
# sqrt(1 - p^2) stays positive.
_P_MAX = float(np.nextafter(1.0, 0.0))


class _DualIterate:
    """One dual p of the one-axis Newton solve, an iterate or a line-search
    trial, with its screen, its certificate and the terms that its
    gradient, Hessian and descent test share, each made at most once.

    Construction makes slack = (1 - p)(1 + p), conj = sqrt(slack), div p,
    u = u_prev + tau div p, q = K u and the screen ``relation`` of p against
    q (``_relation``).  The rest is made on its first read:

    * ``residuals``, the certificate (``_residuals``) of (u, p) on that
      relation, read where the screen passes and where a step fails;
    * ``f`` and ``noise``, together: the negative dual of the step problem

          -D(p) = -sum W conj + <u_prev, div p>_V + (tau/2) |div p|_V^2,

      minimized where u solves the step, and its rounding noise, which the
      descent test reads on the iterate it steps from and on the trials it
      tests by Armijo, and only for a trial that does not certify;
    * ``grad``, the gradient of -D, for the Newton direction and
      ``relation_sq``.

    A dual that certifies thus makes nothing after its screen but the
    certificate; a trial that fails the Armijo test makes no gradient; and
    an accepted trial brings what it made into the next Newton step.
    """

    def __init__(self, ops, u0, tau, p):
        self.ops, self.u0, self.tau, self.p = ops, u0, tau, p
        self.slack = (1.0 - p) * (1.0 + p)
        self.conj = np.sqrt(self.slack)
        self.divz = ops.div_dual(p)
        self.u = u0 + tau * self.divz
        self.q = ops.k_apply(self.u)
        self.relation = _relation(ops, p, self.q)
        self._triplet = self._grad = self._f = self._noise = self._rel_sq = None

    @property
    def residuals(self) -> tuple[float, float, float]:
        """The certificate (primal, dual relation, gap) of (u, p), made on
        the first read from the screen's relation, whose root it overwrites."""
        if self._triplet is None:
            self._triplet = _residuals(self.ops, self.u0, self.tau, self.p, self.divz, self.u,
                                       self.q, self.conj, self.relation)
        return self._triplet

    def certified(self, tol) -> bool:
        """Whether the screen passes (its relation is <= tol or NaN) and then
        all three certificates reach tol."""
        return not self.relation[0] > tol and all(r <= tol for r in self.residuals)

    def stuck_at_floor(self, tol) -> bool:
        """Whether its certificate, if made, fails at the float floor."""
        return self._triplet is not None and _at_float_floor(self._triplet[0], tol,
                                                             self.u0, self.tau)

    @property
    def f(self) -> float:
        """-D(p); made with ``noise``."""
        if self._f is None:
            self._negative_dual()
        return self._f

    @property
    def noise(self) -> float:
        """Rounding noise of -D, ``_DUAL_NOISE`` times the sum of its terms'
        magnitudes; made with ``f``."""
        if self._f is None:
            self._negative_dual()
        return self._noise

    def _negative_dual(self) -> None:
        ops, divz = self.ops, self.divz
        conj_sum = (ops.dual_weights * self.conj).sum()
        pair = ops.grid.cell_volumes * divz * (self.u0 + 0.5 * self.tau * divz)
        self._f = float(pair.sum() - conj_sum)
        self._noise = _DUAL_NOISE * float(conj_sum + np.abs(pair).sum())

    @property
    def grad(self) -> np.ndarray:
        """The gradient W (p / sqrt(1 - p^2) - q) of -D, which vanishes
        exactly where the dual relation does."""
        if self._grad is None:
            self._grad = self.ops.dual_weights * (self.p / self.conj - self.q)
        return self._grad

    def relation_sq(self) -> float:
        """Squared norm of (1 - p^2) grad / W, which is the dual-relation
        residual p sqrt(1 + q^2) - q to first order.  Unlike the bare
        gradient, it does not blow up the rounding of faces near saturation."""
        if self._rel_sq is None:
            r = self.slack * self.grad / self.ops.dual_weights
            self._rel_sq = float(np.dot(r, r))
        return self._rel_sq

    def hessian_bands(self, coupling) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of the Hessian of -D: the conjugate's
        W (1 - p^2)^(-3/2) on the diagonal plus ``coupling``, the bands of
        tau div^T V div (``_OneAxisOps.hessian_coupling``)."""
        diag, off = coupling
        return self.ops.dual_weights / (self.slack * self.conj) + diag, off


def _newton(ops, u0, cfg, p) -> StepResult:
    """Damped Newton on the step's dual over |p| < 1, certified once per dual.

    Each step is capped at ``_TO_BOUNDARY`` of the way to |p| = 1 and
    halved until the line search accepts a trial (``_descends``).  A step
    that finds no acceptable length raises NonConvergenceError at once.
    ``inner_iters`` counts the iterates: Newton steps + 1.

    Every dual, the start and each line-search trial, is one
    ``_DualIterate``, screened with the certificate's own dual relation as
    it is made: its state is u_prev + tau div p by construction, so its
    primal residual is only rounding, and ``certified`` runs the full
    certificate only where the relation passes (or is NaN).  A trial is
    screened before its descent test, and one that certifies is returned at
    once as the next iterate: only a trial that does not certify meets
    ``_descends``, and no step is taken from iterate ``max_inner``.  An
    accepted trial carries its screen and certificate into the next
    iteration.  A failure names the last iterate's certificate, made then
    if it was not before.  Once a certificate of the step fails on a primal
    residual at the float floor (``_at_float_floor``), which halving the
    step barely moves, the line search only screens its trials, and only
    iterates are certified.

    A start entry at or beyond |p| = 1 takes the value of the cold start,
    the variational dual of u_prev.  Clipped to ``_P_MAX`` instead, it would
    sit at the edge of the domain, whose distance Newton only triples per
    step: from duals drawn up to +-2 that cost 30-46 evaluations a step
    where the cold start took 3-7.
    """
    tau, tol = cfg.tau, cfg.inner_tol
    outside = np.abs(p) >= 1.0
    if outside.any():
        p = np.where(outside, _variational_dual(ops, u0), p)
    coupling = ops.hessian_coupling(tau)
    it = _DualIterate(ops, u0, tau, np.minimum(np.maximum(p, -_P_MAX), _P_MAX))  # never the caller's
    failure, at_floor = "Newton iteration", False
    for k in range(1, cfg.max_inner + 1):
        if it.certified(tol):
            return StepResult(CellField(ops.grid, it.u), it.p, k, max(it.residuals[:2]))
        at_floor = at_floor or it.stuck_at_floor(tol)
        if k == cfg.max_inner:
            break
        d = _solve_tridiagonal(*it.hessian_bands(coupling), -it.grad)
        with np.errstate(divide="ignore"):  # d = +-0 leaves room +inf
            room = np.divide(np.copysign(1.0, d) - it.p, d)
        alpha = min(1.0, _TO_BOUNDARY * float(room.min()))
        slope = float(np.dot(it.grad, d))
        for _ in range(_MAX_HALVINGS):
            trial_p = it.p + alpha * d
            np.minimum(np.maximum(trial_p, -_P_MAX, out=trial_p), _P_MAX, out=trial_p)
            trial = _DualIterate(ops, u0, tau, trial_p)
            if not at_floor and trial.certified(tol):
                break  # a certified trial is returned as iterate k + 1
            at_floor = at_floor or trial.stuck_at_floor(tol)
            if _descends(it, trial, alpha, slope):
                break
            alpha *= 0.5
        else:
            failure += " (line search stalled)"
            break
        it = trial
    raise _nonconvergence(failure, k, it.residuals, tol)


def _descends(it, trial, alpha, slope) -> bool:
    """The line search's test of ``trial`` = it.p + alpha d, d the Newton
    direction and ``slope`` = grad . d: where the predicted decrease
    -alpha slope exceeds the rounding noise of -D, -D must fall by the
    Armijo fraction of it; below that noise ``relation_sq`` must shrink by
    ``_RELATION_SHRINK``."""
    if -alpha * slope > it.noise:
        return trial.f <= it.f + _ARMIJO * alpha * slope
    return trial.relation_sq() <= _RELATION_SHRINK * it.relation_sq()


def kkt_residual(u: CellField, p: np.ndarray, u_prev: CellField, tau: float) -> float:
    """Optimality residual of a (state, dual) pair for one implicit step.

    Maximum of (a) the weighted-L2 stationarity residual
    |(u - u_prev)/tau - div p|_w and (b) the largest pointwise dual
    relation residual |p * sqrt(1 + |q|^2) - q| with q the gradient the dual
    pairs against.  Form (b) vanishes exactly at the optimum, scales
    linearly in perturbations, and stays finite where the dual saturates.

    ``p`` is the dual array, as ``StepResult.dual`` holds it: of the face
    shape on one-axis grids, the (2, nx, ny) per-cell dual on rectangles.
    It must be finite, of that shape and feasible, |p| <= 1; otherwise
    ValueError, also for a ``FaceField``.
    """
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    grid = u.grid
    if not grid.same_layout(u_prev.grid):
        raise ValueError("u and u_prev live on different grids")
    ops = _make_ops(grid)
    pa = _checked_dual(ops, p)
    if float(np.max(ops.magnitude(pa))) > 1.0 + 1e-12:
        raise ValueError("dual state is infeasible: |p| > 1 somewhere")
    v = u.values
    divz, q = ops.div_dual(pa), ops.k_apply(v)
    return max(_residuals(ops, u_prev.values, tau, pa, divz, v, q, _conjugate(ops, pa))[:2])


@dataclass
class Trajectory:
    """Recorded evolution of one run.

    ``times`` has the step times including 0 and is strictly increasing;
    ``records`` holds one DiagnosticRecord per time; ``snapshots`` holds
    (time, state, flux) triples at the requested snapshot times, each flux
    made from its step's certified dual; ``states`` holds every state, in
    step order, when the run was made with keep="all".  Each state is
    recorded once: ``states[k]`` and the snapshot state of step k are the
    same object (at k = 0 the run's one copy of u0).
    """

    grid: Grid
    config: SolverConfig
    kappa: float
    times: np.ndarray
    records: list[DiagnosticRecord]
    snapshots: list[tuple[float, CellField, FaceField]]
    states: list[CellField] | None
    u0_norm: float
    inner_iters: np.ndarray
    kkt_residuals: np.ndarray

    def series(self, name: str) -> np.ndarray:
        """Column of one DiagnosticRecord field over all recorded times."""
        if name not in DiagnosticRecord.FIELDS:
            raise ValueError(f"unknown diagnostic field {name!r}")
        return np.array([getattr(rec, name) for rec in self.records], dtype=float)

    def snapshot_at(self, t: float) -> tuple[float, CellField, FaceField]:
        tau = self.config.tau
        for ts, u, z in self.snapshots:
            if abs(ts - t) <= 0.5 * tau:
                return ts, u, z
        raise KeyError(f"no snapshot within tau/2 of t = {t}")


# The dual predictor of ``evolve`` keeps the backward differences of the
# step duals up to this order, so it predicts with polynomials through at
# most this many duals.
_MAX_ORDER = 6


class _DualPredictor:
    """Variable-order prediction of the next step dual from the last ones.

    ``table[j]`` holds the backward difference nabla^j p_k of the step duals,
    j = 0 ... min(k - 1, _MAX_ORDER).  The prediction of order m is
    p_k + nabla p_k + ... + nabla^(m-1) p_k, the polynomial through the last
    m duals evaluated one step ahead; once the flow is smooth the duals are
    smooth in time and it misses p_(k+1) by O(tau^m).  The order minimizes
    the squared L2 norm of nabla^m p_k over the available m >= 1, and moves
    one order higher while the minimum sits at the top of a table that is
    not yet full (Shampine & Gordon 1975): the second step starts from p_1,
    the third from 2 p_2 - p_1.

    An entry (a cell's 2-vector on rectangles) whose prediction leaves the
    open unit ball is saturating and keeps p_k.  Scaled back, it would sit
    on |p| = 1, the edge of the dual's domain, where Newton's distance to
    the edge only triples per step: on jump data such a step took about 37
    certificate evaluations instead of about 8.

    ``push`` updates the table in place: p_k becomes ``table[0]`` without a
    copy, so the table holds at most _MAX_ORDER + 1 dual arrays, and the one
    that falls off the end becomes the buffer of the next prediction.
    """

    def __init__(self, ops):
        self.ops = ops
        self.table: list[np.ndarray] = []
        self.order = 0
        self._out = None

    def push(self, p: np.ndarray) -> np.ndarray:
        """Take the step dual ``p`` (no caller may write to it afterwards) and
        return the start dual of the next step, which only reads it."""
        carry = p
        for j, diff in enumerate(self.table):
            np.subtract(carry, diff, out=diff)
            self.table[j], carry = carry, diff
        if len(self.table) <= _MAX_ORDER:
            self.table.append(carry)
        else:
            self._out = carry
        top = len(self.table) - 1
        m = 1
        if top > 0:
            sizes = [np.vdot(d, d) for d in self.table[1:]]
            m = 1 + sizes.index(min(sizes))
            if m == top < _MAX_ORDER:
                m += 1
        self.order = m
        if m == 1:
            return self.table[0]
        if self._out is None:
            self._out = np.empty_like(p)
        out = self._out
        np.copyto(out, self.table[m - 1])
        for diff in self.table[m - 2 :: -1]:
            out += diff
        np.copyto(out, self.table[0], where=self.ops.magnitude(out) >= 1.0)
        return out


# From this face slope |du|/h on, sqrt(float max), 1 + |K u|^2 overflows.
_SLOPE_LIMIT = math.sqrt(sys.float_info.max)
# ``evolve`` measures its certified states in stacks of at most this many
# cell values (``diagnostics._measure_stack``): a record then costs a share
# of one array call per diagnostic instead of about thirty calls of its own.
# Measured per record as the min of 5 repeats (2-core Xeon, numpy 2.4.6):
# on 400 cells 58-90 us alone, 13-19 us at this budget (10 states), 11-15 us
# at 8 192 and 14-20 us at 16 384; on 64 cells 50-70 us alone and 4-7 us
# here.  16 384 raised the benchmark's peak RSS on quarter_circles by 0.3 MB.
_STACK_VALUES = 4096
# A run holds about 340 bytes per step (a record, a time, an iteration count
# and a residual): far above the longest preset (2 000 steps), far below memory.
_MAX_STEPS = 10**6


def _check_run_settings(u0: CellField, t_end: float, cfg: SolverConfig, kappa, times):
    """Plan a run of ``evolve`` and reject what it cannot run, initial data
    that overflows included, without a numpy warning.

    Returns the step count ceil(t_end / tau), which must lie in
    1 ... ``_MAX_STEPS``, the set of snapshot steps (each time's nearest
    step, which must lie in 0 ... n_steps), kappa (or its default;
    ``measure`` rejects one that is not positive and finite) and the t = 0
    record.
    """
    if not 0 < t_end < np.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if t_end < cfg.tau:
        raise ValueError(f"t_end must be at least tau, got t_end = {t_end} < tau = {cfg.tau}")
    if not all(np.isfinite(t) for t in times):
        raise ValueError(f"snapshot_times must be finite, got {list(times)}")
    n_steps = np.ceil(t_end / cfg.tau - 1e-9)  # inf where t_end / tau overflows
    if not n_steps <= _MAX_STEPS:
        raise ValueError(f"t_end = {t_end} over tau = {cfg.tau} makes {n_steps:.7g} steps, "
                         f"more than {_MAX_STEPS}")
    n_steps = int(n_steps)
    steps = set()
    for t in times:
        k = float(t) / cfg.tau  # inf for a finite time far beyond the run
        if not (math.isfinite(k) and 0 <= round(k) <= n_steps):
            raise ValueError(f"snapshot time {t!r} lies outside the run: its nearest step is "
                             f"not in 0 ... {n_steps}, the last at t = {n_steps * cfg.tau:g}")
        steps.add(round(k))
    _resolve_steps(u0.grid, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        slope = max(float(np.abs(d).max()) for d in forward_gradient_values(u0.grid, u0.values))
        if not slope < _SLOPE_LIMIT:
            raise ValueError(f"initial data too steep: largest face slope |du|/h {slope:.3e} is "
                             f"at or above sqrt(float max) = {_SLOPE_LIMIT:.3e}")
        kappa = default_jump_threshold(u0) if kappa is None else kappa
        record = measure(u0, None, 0.0, cfg.tau, kappa)
    overflowed = [f for f in record.FIELDS if not math.isfinite(getattr(record, f))]
    if overflowed:
        raise ValueError(f"initial data overflows: its t = 0 {', '.join(overflowed)} "
                         f"exceeds float max = {sys.float_info.max:.3e}")
    return n_steps, steps, kappa, record


def evolve(
    u0: CellField,
    t_end: float,
    cfg: SolverConfig,
    snapshot_times=(),
    kappa: float | None = None,
    keep: str = "snapshots",
) -> Trajectory:
    """March the flow from u0 to t_end in steps of cfg.tau.

    Parameters
    ----------
    u0 : CellField
        Initial data, sampled at cell centers.
    t_end : float
        Final time, at least tau; the number of steps is ceil(t_end / tau).
    cfg : SolverConfig
        Step settings, shared by every step.  The first step starts cold,
        the second from the first step's dual, and each later one from the
        polynomial through the last m step duals, evaluated one step
        ahead, with the order m <= 6 chosen from the sizes of their
        backward differences (``_DualPredictor``).
    snapshot_times : iterable of float
        Times at which (state, flux) snapshots are kept, rounded to the
        nearest step, which must lie in the run (0 ... n_steps).  Time 0
        pairs the initial data with its pointwise variational flux.
    kappa : float, optional
        Jump detection threshold, positive and finite; default per
        ``default_jump_threshold``.
    keep : "snapshots" | "all"
        "all" additionally stores every intermediate state.

    The records are measured in stacks of certified states, at most
    ``_STACK_VALUES`` cell values each (``diagnostics._measure_stack``),
    after the stack fills and after the last step; each equals ``measure``
    of its state against the one before, bit for bit.  The t = 0 record is
    ``measure``'s own, made while the run is planned.

    Raises
    ------
    ValueError
        Before the first step, for a bad setting (t_end below tau, more than
        ``_MAX_STEPS`` steps, a kappa that is not positive and finite), a
        snapshot time outside the run, or initial data with a face slope
        |du|/h of sqrt(float max) ~ 1.34e154 or more or a non-finite t = 0
        record.
    NonConvergenceError
        From the first step whose inner iteration fails, with that step's
        index and time in ``step``, ``t`` and the message.
    """
    if keep not in ("snapshots", "all"):
        raise ValueError(f"keep must be snapshots or all, got {keep!r}")
    grid = u0.grid
    snapshot_times = [float(t) for t in snapshot_times]
    n_steps, snap_idx, kappa, start = _check_run_settings(u0, t_end, cfg, kappa, snapshot_times)
    times = cfg.tau * np.arange(n_steps + 1)

    ops = _make_ops(grid)
    u = u0.copy()  # the caller's; every later state is the run's own
    records = [start]
    snapshots = []
    if 0 in snap_idx:
        snapshots.append((0.0, u, _face_flux(ops, _variational_dual(ops, u.values))))
    states = [u] if keep == "all" else None
    dual = None
    predictor = _DualPredictor(ops)
    inner_iters = np.zeros(n_steps, dtype=int)
    kkt_residuals = np.zeros(n_steps)
    per_stack = max(1, _STACK_VALUES // u.values.size)
    unmeasured = [u]  # the last measured state, then the states awaiting records
    for k in range(1, n_steps + 1):
        try:
            res = implicit_step(u, cfg, dual=dual)
        except NonConvergenceError as exc:
            exc.step, exc.t = k, float(times[k])
            exc.args = (f"step {k} at t = {exc.t:g}: {exc}",)
            raise
        if k in snap_idx:  # before the predictor takes the dual and reuses it
            snapshots.append((float(times[k]), res.u_next, _face_flux(ops, res.dual)))
        dual = predictor.push(res.dual)
        if keep == "all":
            states.append(res.u_next)
        inner_iters[k - 1] = res.inner_iters
        kkt_residuals[k - 1] = res.kkt_residual
        u = res.u_next
        unmeasured.append(u)
        if len(unmeasured) > per_stack or k == n_steps:
            stack = np.stack([state.values for state in unmeasured])
            first = k + 2 - len(unmeasured)
            records += _measure_stack(grid, stack[1:], stack[:-1], times[first : k + 1],
                                      cfg.tau, kappa)
            unmeasured = [u]
    return Trajectory(
        grid=grid,
        config=cfg,
        kappa=float(kappa),
        times=times,
        records=records,
        snapshots=snapshots,
        states=states,
        u0_norm=cell_norm(u0),
        inner_iters=inner_iters,
        kkt_residuals=kkt_residuals,
    )
