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
does.  It certifies within a handful of steps.

On rectangles a primal-dual iteration (PDHG) runs on a lifted dual.  Since
sqrt(1 + |q|^2) = |(1, q)| = max over |(p0, p)| <= 1 of p0 + p.q, each
cell carries a third dual component p0, started at sqrt(1 - |p|^2), and
the dual proximal map is the projection onto the unit ball of R^3; the
primal proximal map is the closed form ``prox_quadratic``:

    (p0, p) <- (p0 + sigma, p + sigma * K vbar)
               / max(1, |(p0 + sigma, p + sigma * K vbar)|)   (per cell)
    v       <- prox_quadratic(v + s * div p, u_prev, tau, s)
    vbar    <- v + theta * (v - v_prev)

The loop carries the increment w = v - u_prev, for which the primal step
is w <- a w + b div p with a = tau/(tau + s) and b = tau s/(tau + s).  An
inner iteration allocates no array: its buffers are made once per step,
and ``loop_kernels`` of the ops class writes sigma K and b div in place,
as central differences on rectangles with the step sizes folded into
their coefficients.  They round differently from the public calculus, so
they steer only the iterates; every certificate evaluation rebuilds div p
with ``div_dual``.

The grid weights are carried by the pairing, so they cancel inside both
proximal maps.  The quadratic term is (1/tau)-strongly convex and the
conjugate -sqrt(1 - |p|^2) of the unlifted dual is 1-strongly convex on
its domain; those two moduli fix the default pair: s/sigma = tau with
s * sigma * L^2 = 1 (Chambolle & Pock 2011, Alg. 3), see
``_resolve_steps``.

Both solvers terminate on the same three certificates at tolerance
``inner_tol``: the primal stationarity residual, the pointwise dual
relation residual, and the summed Fenchel gap, which at the finalized
iterate equals the duality gap of the step problem.  The returned state is
exactly u_prev + tau * divergence(flux) in the grid module's calculus, so
the weighted mean is conserved to machine precision and the per-step
energy inequality E(u_next) + |u_next - u_prev|_w^2/(2 tau) <=
E(u_prev) + inner_tol holds by convex duality rather than by observation.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticRecord, default_jump_threshold, measure
# perfbench/tracer.py finds _dual_radius and the two ops classes here and
# wraps them to time the saddle operators, which only certificate
# evaluations call on rectangles (the loop runs ``loop_kernels``).  No step
# calls _dual_radius (the tests use it as the exact prox); the name stays
# bound here until the benchmark drops its dual-radius metrics.
from .energy import _dual_radius, _make_ops, _OneAxisOps, _RectangleOps  # noqa: F401
from .grid import CellField, FaceField, Grid, cell_norm

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
    grids); it and ``check_every`` are integers.
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
    """Safe upper bound for the saddle operator norm in the weighted metrics.

    Uniform grids obey the classical 2 * sqrt(sum 1/h^2) bound.  Radial
    grids do not: the innermost cell has face-to-volume ratio 2^(N-1), so
    the bound there is 2^(N/2)/h (which reduces to 2/h when N = 2).
    """
    if grid.kind == "radial":
        return 2.0 ** (grid.radial_dim / 2.0) / grid.spacing[0]
    return 2.0 * float(np.sqrt(sum(1.0 / h**2 for h in grid.spacing)))


def _resolve_steps(grid: Grid, cfg: SolverConfig) -> tuple[float, float]:
    """Step sizes (sigma, s) of the rectangle loop.

    Without an explicit pair they follow from the problem.  The step
    quadratic is (1/tau)-strongly convex and the dual conjugate 1-strongly
    convex, so Chambolle & Pock (2011, "A first-order primal-dual algorithm
    for convex problems with applications to imaging", Alg. 3) balance the
    two moduli with s/sigma = tau, and s * sigma * L^2 = 1 takes the largest
    product the bound L allows: sigma = 1/(L sqrt(tau)), s = sqrt(tau)/L.
    Over the first five steps of a 96 x 96 cosine (amplitude 0.5, tau 1e-3)
    that takes 176 inner iterations per step against 3 302 at s = sigma.
    An explicit pair is checked against s * sigma * L^2 <= 1.
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


def _residuals(ops, u_prev, tau, p, divz, v, u):
    """The three certificates (primal, dual relation, gap) of a step pair.

    Primal: |(v - u_prev)/tau - div(p)|_w with ``divz`` = div(p).  Dual
    relation: max |p * sqrt(1 + |q|^2) - q| with q = K u.  Gap: the summed
    Fenchel gap sum W * (sqrt(1 + |q|^2) - p.q - sqrt(1 - |p|^2)), the
    duality gap of the step problem at u = u_prev + tau * div(p).
    A returned pair is certified with v = u.
    """
    primal = float(np.sqrt(np.sum(ops.grid.cell_volumes * ((v - u_prev) / tau - divz) ** 2)))
    q = ops.k_apply(u)
    mq = ops.magnitude(q)
    root = np.sqrt(1.0 + mq * mq)
    dual = float(np.max(ops.magnitude(p * root - q)))
    mp = ops.magnitude(p)
    conj = np.sqrt(np.clip((1.0 - mp) * (1.0 + mp), 0.0, None))
    gap_terms = np.clip(root - ops.dot(p, q) - conj, 0.0, None)
    return primal, dual, float(np.sum(ops.dual_weights * gap_terms))


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
        rectangle loop starts at u_prev; the Newton solve of one-axis grids
        needs no primal start.

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
    if dual is None:
        p = _variational_dual(ops, u0)
    else:
        p = np.array(dual, dtype=float)
        if p.shape != ops.dual_shape:
            raise ValueError(f"dual shape {p.shape} != {ops.dual_shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("dual values must be finite")
    if isinstance(ops, _OneAxisOps):
        return _newton(ops, u0, cfg, p)
    return _pdhg(ops, u0, cfg, sigma, s, p)


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
    """(a, b) with prox_quadratic(v + s d, u_prev, tau, s) = u_prev + a w + b d
    for w = v - u_prev."""
    a = tau / (tau + s)
    return a, s * a


def _primal_update(w, bdivz, a, theta, u0, w_new, vbar):
    """w_new = a w + b div p and vbar = u0 + w_new + theta (w_new - w), in place.

    w = v - u_prev is the primal iterate's increment and ``bdivz`` holds
    b div p; with (a, b) from ``_prox_coefficients`` the first line is the
    primal proximal step, the second the extrapolation.  Iterating on the
    increment keeps the rounding of u_prev out of it: a fixed point with
    div p = 0 is w = 0 exactly.
    """
    np.multiply(w, a, out=w_new)
    w_new += bdivz
    np.subtract(w_new, w, out=vbar)
    if theta != 1.0:
        vbar *= theta
    vbar += w_new
    vbar += u0


def _pdhg(ops, u0, cfg, sigma, s, p) -> StepResult:
    """The primal-dual iteration from (u_prev, p), certified every check_every.

    The dual runs lifted: sqrt(1 + |q|^2) = |(1, q)| is the maximum of
    p0 + p.q over |(p0, p)| <= 1, so each dual entry carries a third
    component p0 (a second on one-axis grids) and the dual proximal step is
    the projection of (p0 + sigma, p + sigma K vbar) onto that unit ball.
    p0 starts at sqrt(1 - |p|^2), its value at the solution.

    An iteration allocates nothing.  Its buffers are made once per step and
    the two primal increments swap roles.  ``ops.loop_kernels`` writes
    sigma K and b div in place, with the step sizes folded into their
    coefficients, and the primal step is ``_primal_update``.  They round
    differently from the public calculus, so they move the iterates in the
    last bits only.  Every certificate evaluation rebuilds div p with the
    public ``ops.div_dual``: the returned pair is exactly
    u_prev + tau * divergence(flux), certified by ``_residuals`` unchanged.
    """
    tau, theta, tol = cfg.tau, cfg.theta, cfg.inner_tol
    a, b = _prox_coefficients(tau, s)
    k_into, div_into = ops.loop_kernels(sigma, b)
    w, vbar = np.zeros(u0.shape), u0.copy()
    w_new, bdivz = np.empty(u0.shape), np.empty(u0.shape)
    mp = ops.magnitude(p)
    p0 = np.sqrt(np.clip((1.0 - mp) * (1.0 + mp), 0.0, None))
    lifted = np.concatenate((p0[None], np.reshape(p, (-1,) + p0.shape)))
    p = lifted[1:].reshape(np.shape(p))  # a view: updating lifted updates p
    kv = np.empty(p.shape)
    norm = np.empty(p0.shape)
    residuals = (np.inf, np.inf, np.inf)
    for k in range(1, cfg.max_inner + 1):
        k_into(vbar, kv)
        p += kv
        lifted[0] += sigma
        np.einsum("i...,i...->...", lifted, lifted, out=norm)
        np.sqrt(norm, out=norm)
        np.maximum(norm, 1.0, out=norm)
        np.divide(1.0, norm, out=norm)
        lifted *= norm
        div_into(p, bdivz)
        _primal_update(w, bdivz, a, theta, u0, w_new, vbar)
        w, w_new = w_new, w
        if k == 1 or k % cfg.check_every == 0 or k == cfg.max_inner:
            divz = ops.div_dual(p)
            u_cand = u0 + tau * divz
            residuals = _residuals(ops, u0, tau, p, divz, u0 + w, u_cand)
            if all(r <= tol for r in residuals):
                kkt = max(_residuals(ops, u0, tau, p, divz, u_cand, u_cand)[:2])
                return _step_result(ops, u_cand, p.copy(), k, kkt)
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
# Below that noise a step must cut the squared ``_relation_sq`` by this
# factor, as Newton does near the solution.  A step at that measure's own
# rounding floor cannot, so a step whose certificates lie below the float
# floor fails within a few iterations instead of running to max_inner.
_RELATION_SHRINK = 0.25
# The largest float below 1: iterates are clipped to it so that
# sqrt(1 - p^2) stays positive.
_P_MAX = float(np.nextafter(1.0, 0.0))


def _negative_dual(ops, u0, tau, p):
    """-D(p), its rounding noise, and div p.

    -D(p) = -sum W sqrt(1 - p^2) + <u_prev, div p>_V + (tau/2) |div p|_V^2
    is the negative dual of the step problem on one-axis grids, minimized
    where u = u_prev + tau div p solves the step.
    """
    divz = ops.div_dual(p)
    conj = ops.dual_weights * np.sqrt((1.0 - p) * (1.0 + p))
    pair = ops.grid.cell_volumes * divz * (u0 + 0.5 * tau * divz)
    noise = _DUAL_NOISE * float(conj.sum() + np.abs(pair).sum())
    return float(pair.sum() - conj.sum()), noise, divz


def _relation_sq(ops, p, grad):
    """Squared norm of (1 - p^2) grad / W, which is the dual-relation
    residual p sqrt(1 + q^2) - q to first order.  Unlike the bare gradient,
    it does not blow up the rounding of faces near saturation."""
    r = (1.0 - p) * (1.0 + p) * grad / ops.dual_weights
    return float(np.dot(r, r))


def _newton(ops, u0, cfg, p) -> StepResult:
    """Damped Newton on the step's dual over |p| < 1, certified every step.

    Each step is capped at ``_TO_BOUNDARY`` of the way to |p| = 1 and
    halved until -D decreases by the Armijo fraction of its prediction.
    Near the solution that decrease sinks below the rounding noise of -D;
    there a step is accepted when it shrinks the gradient, measured by
    ``_relation_sq``, by ``_RELATION_SHRINK`` instead.  A step that finds
    no acceptable length raises NonConvergenceError at once.
    ``inner_iters`` counts certificate evaluations: Newton steps + 1.
    """
    tau, tol = cfg.tau, cfg.inner_tol
    p = np.clip(p, -_P_MAX, _P_MAX)
    f, noise, divz = _negative_dual(ops, u0, tau, p)
    for k in range(1, cfg.max_inner + 1):
        u = u0 + tau * divz
        residuals = _residuals(ops, u0, tau, p, divz, u, u)
        if all(r <= tol for r in residuals):
            return _step_result(ops, u, p, k, max(residuals[:2]))
        if k == cfg.max_inner:
            break
        grad = ops.dual_gradient(p, ops.k_apply(u))
        d = ops.newton_direction(p, grad, tau)
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(d != 0.0, (np.copysign(1.0, d) - p) / d, np.inf)
        alpha = min(1.0, _TO_BOUNDARY * float(np.min(room)))
        slope = float(np.dot(grad, d))
        rel_sq = _relation_sq(ops, p, grad)
        for _ in range(_MAX_HALVINGS):
            trial = np.clip(p + alpha * d, -_P_MAX, _P_MAX)
            f_t, noise_t, divz_t = _negative_dual(ops, u0, tau, trial)
            if -alpha * slope > noise:
                if f_t <= f + _ARMIJO * alpha * slope:
                    break
            else:
                g_t = ops.dual_gradient(trial, ops.k_apply(u0 + tau * divz_t))
                if _relation_sq(ops, trial, g_t) <= _RELATION_SHRINK * rel_sq:
                    break
            alpha *= 0.5
        else:
            raise _nonconvergence("Newton iteration (line search stalled)", k, residuals, tol)
        p, f, noise, divz = trial, f_t, noise_t, divz_t
    raise _nonconvergence("Newton iteration", cfg.max_inner, residuals, tol)


def kkt_residual(u: CellField, p, u_prev: CellField, tau: float) -> float:
    """Optimality residual of a (state, dual) pair for one implicit step.

    Maximum of (a) the weighted-L2 stationarity residual
    |(u - u_prev)/tau - div(flux)|_w and (b) the largest pointwise dual
    relation residual |p * sqrt(1 + |q|^2) - q| with q the gradient the dual
    pairs against.  Form (b) vanishes exactly at the optimum, scales
    linearly in perturbations, and stays finite where the dual saturates.

    ``p`` is the dual state: a FaceField (or its raw array) on one-axis
    grids, the (2, nx, ny) per-cell dual on rectangles.
    """
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    grid = u.grid
    if not grid.same_layout(u_prev.grid):
        raise ValueError("u and u_prev live on different grids")
    ops = _make_ops(grid)
    pa = ops.dual_from_flux(p) if isinstance(p, FaceField) else np.asarray(p, dtype=float)
    if float(np.max(ops.magnitude(pa))) > 1.0 + 1e-12:
        raise ValueError("dual state is infeasible: |p| > 1 somewhere")
    divz = ops.div_dual(pa)
    return max(_residuals(ops, u_prev.values, tau, pa, divz, u.values, u.values)[:2])


@dataclass
class Trajectory:
    """Recorded evolution of one run.

    ``times`` has the step times including 0 and is strictly increasing;
    ``records`` holds one DiagnosticRecord per time; ``snapshots`` holds
    (time, state, flux) triples at the requested snapshot times; ``states``
    holds every state when the run was made with keep="all".
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

    def state_at(self, t: float) -> CellField:
        if self.states is None:
            raise ValueError("state_at needs a keep='all' trajectory")
        k = int(round(t / self.config.tau))
        if not 0 <= k < len(self.states):
            raise KeyError(f"t = {t} outside the recorded range")
        return self.states[k]


def _check_run_settings(grid: Grid, t_end: float, cfg: SolverConfig, kappa) -> None:
    """Reject a t_end, kappa or explicit step-size pair that ``evolve`` cannot run."""
    if not 0 < t_end < np.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if kappa is not None and not 0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    _resolve_steps(grid, cfg)


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
        Step settings, shared by every step; each step warm-starts from the
        previous step's dual.
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
    NonConvergenceError
        From the first step whose inner iteration fails, with that step's
        index and time in ``step``, ``t`` and the message.
    """
    if keep not in ("snapshots", "all"):
        raise ValueError(f"keep must be snapshots or all, got {keep!r}")
    grid = u0.grid
    _check_run_settings(grid, t_end, cfg, kappa)
    if kappa is None:
        kappa = default_jump_threshold(u0)
    n_steps = max(1, int(np.ceil(t_end / cfg.tau - 1e-9)))
    times = cfg.tau * np.arange(n_steps + 1)
    snap_idx = {min(n_steps, max(0, int(round(float(t) / cfg.tau)))) for t in snapshot_times}

    records = [measure(u0, None, 0.0, cfg.tau, kappa)]
    snapshots = []
    if 0 in snap_idx:
        ops = _make_ops(grid)
        z0 = _variational_dual(ops, u0.values)
        snapshots.append((0.0, u0.copy(), FaceField(grid, ops.flux_components(z0))))
    states = [u0.copy()] if keep == "all" else None

    u = u0.copy()
    dual = None
    inner_iters = np.zeros(n_steps, dtype=int)
    kkt_residuals = np.zeros(n_steps)
    for k in range(1, n_steps + 1):
        try:
            res = implicit_step(u, cfg, dual=dual)
        except NonConvergenceError as exc:
            exc.step, exc.t = k, float(times[k])
            exc.args = (f"step {k} at t = {exc.t:g}: {exc}",)
            raise
        dual = res.dual
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
