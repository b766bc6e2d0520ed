"""Implicit time stepping for the zero-flux parabolic minimal surface flow.

Each step advances u by solving the strictly convex problem

    minimize  E(v) + |v - u_prev|_w^2 / (2 tau)

with E the discrete area functional, through a primal-dual iteration whose
dual proximal map is exact (``prox_dual``) and whose primal proximal map is
the closed form ``prox_quadratic``:

    p    <- prox_dual(p + sigma * K vbar)
    v    <- prox_quadratic(v + s * div p, u_prev, tau, s)
    vbar <- v + theta * (v - v_prev)

K and div are the saddle operators of ``energy._make_ops`` (the face gradient
on one-axis grids, the co-located cell gradient on rectangles); the grid
weights are carried by the pairing, so they cancel inside both proximal
maps.  Because the quadratic term is (1/tau)-strongly convex and the dual
conjugate is 1-strongly convex on its domain, the iteration converges
linearly for fixed steps with s * sigma * L^2 <= 1.

Termination requires three certificates at tolerance ``inner_tol``: the
primal stationarity residual, the pointwise dual relation residual, and the
summed Fenchel gap, which at the finalized iterate equals the duality gap of
the step problem.  The returned state is u_prev + tau * div(flux), so the
weighted mean is conserved to machine precision and the per-step energy
inequality E(u_next) + |u_next - u_prev|_w^2/(2 tau) <= E(u_prev) + inner_tol
holds by convex duality rather than by observation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticRecord, default_jump_threshold, measure
# perfbench/tracer.py finds _dual_radius and the two ops classes here and
# wraps them to time the inner loop.
from .energy import _dual_radius, _make_ops, _OneAxisOps, _RectangleOps, prox_quadratic  # noqa: F401
from .grid import CellField, FaceField, Grid, cell_norm

__all__ = [
    "SolverConfig",
    "StepResult",
    "Trajectory",
    "NonConvergenceError",
    "operator_norm_bound",
    "balanced_steps",
    "implicit_step",
    "kkt_residual",
    "evolve",
]


@dataclass(frozen=True)
class SolverConfig:
    """Time step and inner-iteration settings.

    ``sigma`` and ``s`` default to 1/L with L the grid-specific bound on the
    saddle operator norm; explicit values must satisfy s * sigma * L^2 <= 1.
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
        if self.max_inner < 1:
            raise ValueError(f"max_inner must be >= 1, got {self.max_inner}")
        if self.check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {self.check_every}")
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


def balanced_steps(grid: Grid, ratio: float) -> tuple[float, float]:
    """Inner step sizes (sigma, s) with s/sigma = ratio and s*sigma = 1/L^2.

    The primal prox is (1/tau)-strongly convex while the dual conjugate is
    only 1-strongly convex, so a ratio well below one balances the two and
    cuts inner iterations several-fold against the symmetric default (ratio
    1); runs dominated by saturated faces (jumps) want a larger ratio than
    smooth ones.
    """
    bound = operator_norm_bound(grid)
    root = float(np.sqrt(ratio))
    return 1.0 / (bound * root), root / bound


def _resolve_steps(grid: Grid, cfg: SolverConfig) -> tuple[float, float]:
    if cfg.sigma is None:
        return balanced_steps(grid, 1.0)
    bound = operator_norm_bound(grid)
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
    state for warm starts (identical to the flux on one-axis grids, the
    per-cell 2-vector field on rectangles); ``kkt_residual`` is evaluated at
    the returned pair and is at most ``inner_tol``.
    """

    u_next: CellField
    flux: FaceField
    inner_iters: int
    kkt_residual: float
    dual: np.ndarray


def implicit_step(
    u_prev: CellField,
    cfg: SolverConfig,
    warm: tuple[np.ndarray, np.ndarray] | None = None,
) -> StepResult:
    """Solve one minimizing step of the area functional.

    Parameters
    ----------
    u_prev : CellField
        State being stepped from.
    cfg : SolverConfig
        Step length and inner-iteration settings.
    warm : (v, dual) pair, optional
        Primal and dual starting guesses, typically from the previous step.
        Without it the primal starts at u_prev and the dual at the pointwise
        variational flux of u_prev.

    Returns
    -------
    StepResult
        With u_next = u_prev + tau * div(flux) exactly, so the weighted mean
        is conserved to rounding.

    Raises
    ------
    NonConvergenceError
        If the three inner certificates (primal stationarity, pointwise dual
        relation, summed Fenchel gap) do not all reach inner_tol within
        max_inner iterations; the error carries the last residuals.
    """
    grid = u_prev.grid
    ops = _make_ops(grid)
    sigma, s = _resolve_steps(grid, cfg)
    tau, theta, tol = cfg.tau, cfg.theta, cfg.inner_tol
    u0 = u_prev.values
    if warm is None:
        v = u0.copy()
        p = _variational_dual(ops, u0)
    else:
        v = np.array(warm[0], dtype=float)
        p = np.array(warm[1], dtype=float)
    vbar = v.copy()
    slope = np.zeros(ops.dual_weights.shape)  # radius solves start at the last slopes
    a_res = b_res = gap = np.inf
    for k in range(1, cfg.max_inner + 1):
        d = p + sigma * ops.k_apply(vbar)
        m = ops.magnitude(d)
        r = _dual_radius(m, sigma, slope)
        safe = np.where(m > 0.0, m, 1.0)
        p = (r / safe) * d
        divz = ops.div_dual(p)
        v_new = prox_quadratic(v + s * divz, u0, tau, s)
        vbar = v_new + theta * (v_new - v)
        v = v_new
        if k == 1 or k % cfg.check_every == 0 or k == cfg.max_inner:
            u_cand = u0 + tau * divz
            a_res, b_res, gap = _residuals(ops, u0, tau, p, divz, v, u_cand)
            if a_res <= tol and b_res <= tol and gap <= tol:
                return StepResult(
                    u_next=CellField(grid, u_cand),
                    flux=FaceField(grid, ops.flux_components(p)),
                    inner_iters=k,
                    kkt_residual=max(_residuals(ops, u0, tau, p, divz, u_cand, u_cand)[:2]),
                    dual=p,
                )
    raise NonConvergenceError(
        f"inner iteration did not meet tol {tol:g} within {cfg.max_inner} iterations "
        f"(primal {a_res:.3e}, dual {b_res:.3e}, gap {gap:.3e})",
        iterations=cfg.max_inner,
        primal_residual=a_res,
        dual_residual=b_res,
        gap=gap,
    )


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
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
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
        previous one.
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
    if not 0 < t_end < np.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if keep not in ("snapshots", "all"):
        raise ValueError(f"keep must be snapshots or all, got {keep!r}")
    grid = u0.grid
    _resolve_steps(grid, cfg)  # validate explicit step sizes up front
    if kappa is None:
        kappa = default_jump_threshold(u0)
    elif not 0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
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
    warm = None
    inner_iters = np.zeros(n_steps, dtype=int)
    kkt_residuals = np.zeros(n_steps)
    for k in range(1, n_steps + 1):
        try:
            res = implicit_step(u, cfg, warm=warm)
        except NonConvergenceError as exc:
            exc.step, exc.t = k, float(times[k])
            exc.args = (f"step {k} at t = {exc.t:g}: {exc}",)
            raise
        warm = (res.u_next.values, res.dual)
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
