"""Discrete area functional and the convex pieces of its saddle form.

The continuum functional is the graph area integral of sqrt(1 + |grad u|^2),
whose pointwise convex conjugate over the closed unit ball is
-sqrt(1 - |p|^2).  The duality

    sqrt(1 + |q|^2) = sup_{|p| <= 1} [ p.q + sqrt(1 - |p|^2) ]

is what the primal-dual step solver exploits; ``prox_dual`` is the exact
proximal map of the conjugate and ``prox_quadratic`` the closed-form
proximal map of the implicit-step quadratic.

Discretization: one-axis grids (interval, radial) sum face terms
W_f * sqrt(1 + g_f^2) plus the constant uncovered boundary volume, so each
term depends on a single difference quotient and the discrete comparison
principle is exact.  The rectangle co-locates per-axis face-pair means onto
cells and couples the axes through the Euclidean norm, which keeps the
two-dimensional functional isotropic.  Both forms are convex, exceed the
domain volume unless the field is constant, and are invariant under adding
a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import CellField, colocated_magnitude, forward_gradient_values

__all__ = [
    "EnergyBreakdown",
    "area_energy",
    "conjugate_value",
    "prox_dual",
    "prox_quadratic",
]

# Classification threshold separating resolved slopes from grid-scale ones;
# a genuine jump has a difference quotient of order 1/h, far above this.
STEEP_DEFAULT = 10.0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Total area and its split into sub- and super-threshold parts.

    ``total == smooth_part + steep_part`` exactly, and ``total`` is never
    below the domain volume.
    """

    total: float
    smooth_part: float
    steep_part: float
    threshold: float


def area_energy(u: CellField, steep_threshold: float = STEEP_DEFAULT) -> EnergyBreakdown:
    """Discrete graph area of a cell field.

    The split assigns a term to ``steep_part`` when the gradient magnitude
    it sees exceeds ``steep_threshold`` (face gradients on one-axis grids,
    co-located magnitudes on rectangles).  The constant uncovered boundary
    volume of one-axis grids counts as smooth.
    """
    if steep_threshold <= 0:
        raise ValueError(f"steep_threshold must be positive, got {steep_threshold}")
    g = u.grid
    if g.kind == "rectangle":
        mag = colocated_magnitude(u)
        terms = g.cell_volumes * np.sqrt(1.0 + mag * mag)
        steep = mag > steep_threshold
        steep_part = float(terms[steep].sum())
        smooth_part = float(terms[~steep].sum())
    else:
        gf = forward_gradient_values(g, u.values)[0]
        w = g.face_weights[0]
        terms = w * np.sqrt(1.0 + gf * gf)
        uncovered = g.total_volume - float(w.sum())  # boundary half cells, > 0
        steep = np.abs(gf) > steep_threshold
        steep_part = float(terms[steep].sum())
        smooth_part = float(terms[~steep].sum()) + uncovered
    return EnergyBreakdown(
        total=smooth_part + steep_part,
        smooth_part=smooth_part,
        steep_part=steep_part,
        threshold=float(steep_threshold),
    )


def conjugate_value(p) -> float:
    """sqrt(1 - |p|^2) for a dual vector p with |p| <= 1.

    Raises:
        ValueError: when |p| exceeds 1 beyond a 1e-12 rounding grace.
    """
    p = np.asarray(p, dtype=float)
    m2 = float(np.sum(p * p))
    if m2 > 1.0 + 1e-12:
        raise ValueError(f"dual vector has norm {np.sqrt(m2):.17g} > 1")
    return float(np.sqrt(max(1.0 - m2, 0.0)))


def _dual_radius(m, sigma: float, w: np.ndarray):
    """Solve sigma*r/sqrt(1-r^2) + r = m elementwise for r in [0, 1).

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
    scalar = m.ndim == 0
    m = np.atleast_1d(m)
    w = np.atleast_1d(w)  # a view, so a 0-d buffer is written too
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
    r = w / np.sqrt(1.0 + w * w)
    return float(r[0]) if scalar else r


def prox_dual(p_hat, sigma: float):
    """Exact proximal map of -sqrt(1 - |p|^2) + indicator(|p| <= 1).

    Returns the minimizer of -sqrt(1 - |p|^2) + |p - p_hat|^2 / (2 sigma)
    over the closed unit ball.  The minimizer is radial: r * p_hat / |p_hat|
    with r solving sigma*r/sqrt(1-r^2) + r = |p_hat|, hence strictly inside
    the ball.

    Parameters
    ----------
    p_hat : array_like
        A single dual vector (any shape; the Euclidean norm is taken over
        all entries).
    sigma : float
        Positive prox parameter.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    p_hat = np.asarray(p_hat, dtype=float)
    m = float(np.sqrt(np.sum(p_hat * p_hat)))
    if m == 0.0:
        return np.zeros_like(p_hat)
    r = _dual_radius(np.asarray(m), sigma, np.zeros(()))
    return (r / m) * p_hat


def prox_quadratic(v_hat, u_prev, tau: float, s: float):
    """Closed-form proximal map of the implicit-step quadratic.

    Minimizes |v - u_prev|^2 / (2 tau) + |v - v_hat|^2 / (2 s), giving
    (tau * v_hat + s * u_prev) / (tau + s); the grid weights cancel because
    both terms carry the same ones.
    """
    if tau <= 0 or s <= 0:
        raise ValueError(f"tau and s must be positive, got tau={tau}, s={s}")
    v_hat = np.asarray(v_hat, dtype=float)
    u_prev = np.asarray(u_prev, dtype=float)
    if v_hat.shape != u_prev.shape:
        raise ValueError(f"shape mismatch {v_hat.shape} vs {u_prev.shape}")
    return (tau * v_hat + s * u_prev) / (tau + s)
