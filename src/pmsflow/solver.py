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
LDL^T solve with the closed-form bands, the step keeps a fixed fraction of
the distance to |p| = 1 and backtracks until -D decreases (Armijo), or,
once that decrease is below the rounding of -D, until the scaled gradient
does.  It certifies within a handful of steps.  Each dual it visits, an
iterate or a line-search trial, is evaluated once (``_DualIterate``):
sqrt(1 - p^2), div p, u and K u serve the certificate, -D, the gradient
and the Hessian alike, and the part of the Hessian that does not depend
on p is made once per step.

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

The loop carries the increment w = v - u_prev, for which the primal step
is w <- a w + b div p with a = tau/(tau + s) and b = tau s/(tau + s), and
it carries w and vbar in units of c = sigma / (2 hx):

    p      += D (c vbar)                 (= sigma * K vbar)
    (p0, p) <- (p0 + sigma, p) / max(1, |(p0 + sigma, p)|)
    c w     <- a (c w) + c b div p
    c vbar  <- c u_prev + c w + theta * (c w - c w_prev)

D takes the raw central differences of c vbar, the y ones times hx/hy, so
sigma K costs no multiplication on a square grid and c b div one.  An
inner iteration allocates no array: its buffers are made once per step,
and ``_RectangleOps.loop_kernels`` binds D and c b div to them.  They
round differently from the public calculus, so they steer only the
iterates; every certificate evaluation rebuilds div p with ``div_dual``.

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
iterate equals the duality gap of the step problem.  The rectangle loop
evaluates the primal residual first and the other two only once it
passes, or at ``max_inner`` so that a failure reports all three; the
iterates do not depend on the order.  Neither solver runs on below the
float floor of its certificates: Newton fails once no step length shrinks
them, and the rectangle loop once its primal residual, lying within a few
times eps max|u_prev| / tau and above ``inner_tol``, stops falling over
consecutive checks; the error names that floor.  The returned state is
exactly u_prev + tau * divergence_values(flux) in the grid module's
calculus, so the weighted mean is conserved to machine precision and the
per-step energy inequality E(u_next) + |u_next - u_prev|_w^2/(2 tau) <=
E(u_prev) + inner_tol holds by convex duality rather than by observation.

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
of the cold start.  The rectangle loop
starts its primal iterate at u_prev + tau * div p, the state its start dual
certifies (on a cold step, the explicit Euler predictor).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticRecord, default_jump_threshold, measure
# perfbench/tracer.py finds _dual_radius and the two ops classes here and
# wraps them to time the saddle operators, which only certificate
# evaluations call (the rectangle loop runs ``loop_kernels``).  No step
# calls _dual_radius (the tests use it as the exact prox); the name stays
# bound here until the benchmark drops its dual-radius metrics.
from .energy import _dual_radius, _make_ops, _OneAxisOps, _RectangleOps  # noqa: F401
from .energy import _DualIterate, _solve_tridiagonal
from .grid import CellField, FaceField, Grid, cell_norm, forward_gradient_values

__all__ = [
    "SolverConfig",
    "StepResult",
    "Trajectory",
    "NonConvergenceError",
    "operator_norm_bound",
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
    certificate evaluations, one per Newton step plus the start (one-axis
    grids); it and ``check_every`` are integers.  Only the tests and the
    benchmark set the other four fields, which stay while the benchmark does.
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
    """Inner iteration exhausted max_inner without meeting inner_tol.

    ``evolve`` sets ``step`` and ``t``, the step that failed and its time,
    and names them in the message; both are None for a lone implicit step.
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
    derives its explicit step pair from it.
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


def _primal_residual(ops, u_prev, tau, divz, v) -> float:
    """Primal stationarity |(v - u_prev)/tau - div(p)|_w with ``divz`` = div(p)."""
    r = np.subtract(v, u_prev)
    r /= tau
    r -= divz
    r *= r
    r *= ops.grid.cell_volumes
    return math.sqrt(r.sum())


def _dual_residuals(ops, p, q, conj) -> tuple[float, float]:
    """Dual relation and gap of the dual p against q = K u.

    Dual relation: max |p * sqrt(1 + |q|^2) - q|.  Gap: the summed Fenchel
    gap sum W * (sqrt(1 + |q|^2) - p.q - sqrt(1 - |p|^2)), the duality gap
    of the step problem at u = u_prev + tau * div(p); ``conj`` holds
    sqrt(1 - |p|^2) (``_conjugate``).  Like ``_primal_residual`` and
    ``_conjugate`` it works in place on the arrays it makes, in the order
    of the formulas, which spares the allocations of a 96 x 96 check.
    """
    root = ops.magnitude(q)
    np.multiply(root, root, out=root)
    root += 1.0
    np.sqrt(root, out=root)
    relation = p * root
    relation -= q
    dual = float(ops.magnitude(relation).max())
    gap_terms = np.subtract(root, ops.dot(p, q), out=root)
    gap_terms -= conj
    np.maximum(gap_terms, 0.0, out=gap_terms)
    gap_terms *= ops.dual_weights
    return dual, float(gap_terms.sum())


def _residuals(ops, u_prev, tau, p, divz, u, q, conj):
    """The three certificates (primal, dual relation, gap) of the pair (u, p).

    ``divz`` = div(p), ``q`` = K u and ``conj`` = sqrt(1 - |p|^2) come from
    the caller, which computes each once per iterate.
    """
    return (_primal_residual(ops, u_prev, tau, divz, u), *_dual_residuals(ops, p, q, conj))


@dataclass
class StepResult:
    """One accepted implicit step.

    ``flux`` satisfies |flux| < 1 on every face; ``dual`` is the raw dual
    state, the warm start of the next step's ``implicit_step`` (identical to
    the flux on one-axis grids, the per-cell 2-vector field on rectangles);
    ``kkt_residual`` is evaluated at the returned pair and is at most
    ``inner_tol``.
    """

    u_next: CellField
    flux: FaceField
    inner_iters: int
    kkt_residual: float
    dual: np.ndarray


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
    p = np.asarray(dual, dtype=float)
    if p.shape != ops.dual_shape:
        raise ValueError(f"dual must have shape {ops.dual_shape}, got {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"dual of shape {ops.dual_shape} must be finite")
    return p


def _step_result(ops, u, p, iters, kkt):
    return StepResult(
        u_next=CellField(ops.grid, u),
        flux=FaceField(ops.grid, ops.flux_components(p)),
        inner_iters=iters,
        kkt_residual=kkt,
        dual=p,
    )


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


# A rectangle step stops early at the float floor eps max|u_prev| / tau of
# its primal certificate: once the primal residual lies within this multiple
# of the floor and above inner_tol, and this many consecutive checks have not
# lowered its smallest value, the step raises.  The property tests draw
# tolerances above four floors, so none of their steps can stop here.
_FLOOR_MULTIPLE = 4.0
_STALLED_CHECKS = 4


def _pdhg(ops, u0, cfg, sigma, s, p) -> StepResult:
    """The rectangle primal-dual iteration from (u_prev, p), certified every
    check_every.

    The dual runs lifted: sqrt(1 + |q|^2) = |(1, q)| is the maximum of
    p0 + p.q over |(p0, p)| <= 1, so each cell's dual carries a third
    component p0 and the dual proximal step is the projection of
    (p0 + sigma, p + sigma K vbar) onto the unit ball of R^3.
    p0 starts at sqrt(1 - |p|^2), its value at the solution, and the primal
    iterate at v = u_prev + tau * div p, the state the start dual certifies:
    from a dual that already solves the step, the first check passes.

    The primal runs in units of c = sigma / (2 hx) (``ops.loop_kernels``):
    with W = c (v - u_prev) and Vbar = c vbar, one iteration is

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
    only.  Every certificate evaluation rebuilds div p with the public
    ``ops.div_dual``: the returned pair is exactly
    u_prev + tau * divergence_values(flux), certified by the parts of
    ``_residuals``.  A check computes the primal residual at
    v = u_prev + W / c first; K u, the dual relation and the gap follow only
    when it passes (or at ``max_inner``, so that NonConvergenceError carries
    all three).  At acceptance only the primal is recomputed at v = u: the
    dual relation and the gap already were evaluated at u.

    A primal residual cannot fall much below eps max|u_prev| / tau, the
    rounding of v - u_prev over tau.  When it has stalled there above
    inner_tol (``_FLOOR_MULTIPLE``, ``_STALLED_CHECKS``) the step raises
    at once, naming that floor, instead of running to ``max_inner``.
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
    floor = np.finfo(float).eps * float(np.abs(u0).max()) / tau
    smallest, stalled = np.inf, 0
    residuals = (np.inf, np.inf, np.inf)
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
            divz = ops.div_dual(p)
            primal = _primal_residual(ops, u0, tau, divz, u0 + w / c)
            smallest, stalled = (primal, 0) if primal < smallest else (smallest, stalled + 1)
            at_floor = stalled >= _STALLED_CHECKS and tol < primal <= _FLOOR_MULTIPLE * floor
            if primal > tol and k < cfg.max_inner and not at_floor:
                continue  # the step cannot certify; skip the dual side
            u_cand = u0 + tau * divz
            q = ops.k_apply(u_cand)
            residuals = (primal, *_dual_residuals(ops, p, q, _conjugate(ops, p)))
            if all(r <= tol for r in residuals):
                # v = u_cand changes only the primal; dual and gap stand
                kkt = max(_primal_residual(ops, u0, tau, divz, u_cand), residuals[1])
                return _step_result(ops, u_cand, p.copy(), k, kkt)
            if at_floor:
                where = f"the float floor eps max|u| / tau = {floor:.3e}"
                raise _nonconvergence(f"inner iteration (stalled at {where})", k, residuals, tol)
    raise _nonconvergence("inner iteration", cfg.max_inner, residuals, tol)


# Newton steps keep this fraction of the distance to |p| = 1, must cut -D by
# this fraction of the first-order prediction (Armijo), and are halved at
# most this often.
_TO_BOUNDARY = 0.995
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
# Below the rounding noise of -D (``_DualIterate.noise``) a step must cut
# the squared ``relation_sq`` by this factor, as Newton does near the
# solution.  A step at that measure's own
# rounding floor cannot, so a step whose certificates lie below the float
# floor fails within a few iterations instead of running to max_inner.
_RELATION_SHRINK = 0.25
# The largest float below 1: iterates are clipped to it so that
# sqrt(1 - p^2) stays positive.
_P_MAX = float(np.nextafter(1.0, 0.0))


def _newton(ops, u0, cfg, p) -> StepResult:
    """Damped Newton on the step's dual over |p| < 1, certified every step.

    Each step is capped at ``_TO_BOUNDARY`` of the way to |p| = 1 and
    halved until -D decreases by the Armijo fraction of its prediction.
    Near the solution that decrease sinks below the rounding noise of -D;
    there a step is accepted when it shrinks the gradient, measured by
    ``relation_sq``, by ``_RELATION_SHRINK`` instead.  A step that finds
    no acceptable length raises NonConvergenceError at once.
    ``inner_iters`` counts certificate evaluations: Newton steps + 1.

    Every iterate and every line-search trial is one ``_DualIterate``, so
    each term is made once per dual: div p, u and K u feed the certificate
    and the gradient both, and the accepted trial becomes the next iterate
    as it stands.  The Hessian's dual-independent bands are made once per
    step.

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
    it = _DualIterate(ops, u0, tau, np.clip(p, -_P_MAX, _P_MAX))  # never the caller's array
    for k in range(1, cfg.max_inner + 1):
        residuals = _residuals(ops, u0, tau, it.p, it.divz, it.u, it.q, it.conj)
        if all(r <= tol for r in residuals):
            return _step_result(ops, it.u, it.p, k, max(residuals[:2]))
        if k == cfg.max_inner:
            break
        d = _solve_tridiagonal(*it.hessian_bands(coupling), -it.grad)
        room = np.full(d.shape, np.inf)
        np.divide(np.copysign(1.0, d) - it.p, d, out=room, where=d != 0.0)
        alpha = min(1.0, _TO_BOUNDARY * float(room.min()))
        slope = float(np.dot(it.grad, d))
        for _ in range(_MAX_HALVINGS):
            trial_p = it.p + alpha * d
            np.minimum(np.maximum(trial_p, -_P_MAX, out=trial_p), _P_MAX, out=trial_p)
            trial = _DualIterate(ops, u0, tau, trial_p)
            if -alpha * slope > it.noise:
                if trial.f <= it.f + _ARMIJO * alpha * slope:
                    break
            elif trial.relation_sq <= _RELATION_SHRINK * it.relation_sq:
                break
            alpha *= 0.5
        else:
            raise _nonconvergence("Newton iteration (line search stalled)", k, residuals, tol)
        it = trial
    raise _nonconvergence("Newton iteration", cfg.max_inner, residuals, tol)


def kkt_residual(u: CellField, p, u_prev: CellField, tau: float) -> float:
    """Optimality residual of a (state, dual) pair for one implicit step.

    Maximum of (a) the weighted-L2 stationarity residual
    |(u - u_prev)/tau - div(flux)|_w and (b) the largest pointwise dual
    relation residual |p * sqrt(1 + |q|^2) - q| with q the gradient the dual
    pairs against.  Form (b) vanishes exactly at the optimum, scales
    linearly in perturbations, and stays finite where the dual saturates.

    ``p`` is the dual state: a FaceField (or its raw array) on one-axis
    grids, the (2, nx, ny) per-cell dual on rectangles.  It must be finite,
    of that shape and feasible, |p| <= 1; otherwise ValueError.
    """
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    grid = u.grid
    if not grid.same_layout(u_prev.grid):
        raise ValueError("u and u_prev live on different grids")
    ops = _make_ops(grid)
    pa = _checked_dual(ops, ops.dual_from_flux(p) if isinstance(p, FaceField) else p)
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
    (time, state, flux) triples at the requested snapshot times; ``states``
    holds every state, in step order, when the run was made with keep="all".
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
            sizes = [np.dot(d.reshape(-1), d.reshape(-1)) for d in self.table[1:]]
            m = 1 + int(np.argmin(sizes))
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


def _check_run_settings(u0: CellField, t_end: float, cfg: SolverConfig, kappa, times):
    """Reject what ``evolve`` cannot run, initial data that overflows included,
    without a numpy warning; return kappa (or its default) and the t = 0 record."""
    if not 0 < t_end < np.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if kappa is not None and not 0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if not all(np.isfinite(t) for t in times):
        raise ValueError(f"snapshot_times must be finite, got {list(times)}")
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
    return kappa, record


def _run_steps(t_end: float, tau: float, times) -> tuple[int, set[int]]:
    """Step count to t_end, and each time's nearest step within the run."""
    n_steps = max(1, int(np.ceil(t_end / tau - 1e-9)))
    return n_steps, {min(n_steps, max(0, int(round(t / tau)))) for t in times}


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
        Final time; the number of steps is ceil(t_end / tau).
    cfg : SolverConfig
        Step settings, shared by every step.  The first step starts cold,
        the second from the first step's dual, and each later one from the
        polynomial through the last m step duals, evaluated one step
        ahead, with the order m <= 6 chosen from the sizes of their
        backward differences (``_DualPredictor``).
    snapshot_times : iterable of float
        Times at which (state, flux) snapshots are kept, rounded to the
        nearest step.  Time 0 pairs the initial data with its pointwise
        variational flux.
    kappa : float, optional
        Jump detection threshold; default per ``default_jump_threshold``.
    keep : "snapshots" | "all"
        "all" additionally stores every intermediate state.

    Raises
    ------
    ValueError
        Before the first step, for a bad setting or for initial data with a face
        slope |du|/h of sqrt(float max) ~ 1.34e154 or more or a non-finite t = 0 record.
    NonConvergenceError
        From the first step whose inner iteration fails, with that step's
        index and time in ``step``, ``t`` and the message.
    """
    if keep not in ("snapshots", "all"):
        raise ValueError(f"keep must be snapshots or all, got {keep!r}")
    grid = u0.grid
    snapshot_times = [float(t) for t in snapshot_times]
    kappa, start = _check_run_settings(u0, t_end, cfg, kappa, snapshot_times)
    n_steps, snap_idx = _run_steps(t_end, cfg.tau, snapshot_times)
    times = cfg.tau * np.arange(n_steps + 1)

    ops = _make_ops(grid)
    records = [start]
    snapshots = []
    if 0 in snap_idx:
        z0 = _variational_dual(ops, u0.values)
        snapshots.append((0.0, u0.copy(), FaceField(grid, ops.flux_components(z0))))
    states = [u0.copy()] if keep == "all" else None

    u = u0.copy()
    dual = None
    predictor = _DualPredictor(ops)
    inner_iters = np.zeros(n_steps, dtype=int)
    kkt_residuals = np.zeros(n_steps)
    for k in range(1, n_steps + 1):
        try:
            res = implicit_step(u, cfg, dual=dual)
        except NonConvergenceError as exc:
            exc.step, exc.t = k, float(times[k])
            exc.args = (f"step {k} at t = {exc.t:g}: {exc}",)
            raise
        dual = predictor.push(res.dual)
        records.append(measure(res.u_next, u, float(times[k]), cfg.tau, kappa))
        if keep == "all":
            states.append(res.u_next.copy())
        if k in snap_idx:
            snapshots.append((float(times[k]), res.u_next.copy(), res.flux.copy()))
        inner_iters[k - 1] = res.inner_iters
        kkt_residuals[k - 1] = res.kkt_residual
        u = res.u_next
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
