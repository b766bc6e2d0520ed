"""Anatomy of one implicit step on a problem small enough to see whole.

Each time step solves

    minimize  area(v) + |v - u|^2 / (2 tau)

over all cell profiles v.  On five cells that minimization is concrete
enough to audit by hand: this script runs the inner iteration once, prints
the optimality certificate it returns, then attacks the minimizer with a
few hundred random perturbations to show none of them lowers the
objective.  It also shows the three structural facts every accepted step
carries: the flux never leaves [-1, 1], the weighted mean of the profile
is conserved to the last bit, and the energy cannot increase.
"""

import argparse

import numpy as np

from pmsflow import (
    CellField,
    SolverConfig,
    area_energy,
    cell_norm,
    implicit_step,
    interval_grid,
    kkt_residual,
)


def objective(v: CellField, u_prev: CellField, tau: float) -> float:
    drift = CellField(v.grid, v.values - u_prev.values)
    return area_energy(v) + cell_norm(drift) ** 2 / (2.0 * tau)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tau", type=float, default=0.1)
    ap.add_argument("--trials", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    grid = interval_grid(0.0, 1.0, 5)
    u_prev = CellField(grid, np.array([0.0, 0.0, 1.0, 1.0, 1.0]))
    cfg = SolverConfig(tau=args.tau, inner_tol=1e-12)

    print(f"previous profile: {u_prev.values}")
    res = implicit_step(u_prev, cfg)
    np.set_printoptions(precision=6, suppress=True)
    print(f"minimizer:        {res.u_next.values}")
    print(f"face flux:        {res.flux.components[0]}")
    print(f"\ninner iterations: {res.inner_iters}")
    print(f"returned certificate:   {res.kkt_residual:.3e} (tolerance {cfg.inner_tol:g})")
    recheck = kkt_residual(res.u_next, res.flux, u_prev, args.tau)
    print(f"recomputed certificate: {recheck:.3e}")

    flux = res.flux.components[0]
    print(f"\nmax |flux| = {np.max(np.abs(flux)):.6f} < 1")
    mean_before = np.sum(grid.cell_volumes * u_prev.values)
    mean_after = np.sum(grid.cell_volumes * res.u_next.values)
    print(f"weighted mean drift = {abs(mean_after - mean_before):.1e}")
    print(
        f"energy {area_energy(u_prev):.9f} -> {area_energy(res.u_next):.9f}"
    )

    best = objective(res.u_next, u_prev, args.tau)
    print(f"\nobjective at the minimizer: {best:.12f}")
    rng = np.random.default_rng(args.seed)
    worst_gain = np.inf
    for scale in (1e-1, 1e-2, 1e-4):
        gains = []
        for _ in range(args.trials):
            probe = CellField(
                grid, res.u_next.values + scale * rng.standard_normal(5)
            )
            gains.append(objective(probe, u_prev, args.tau) - best)
        worst_gain = min(worst_gain, min(gains))
        print(
            f"perturbations of size {scale:7.0e}: objective rises by at least "
            f"{min(gains):.3e}"
        )
    print(
        "\nno probe beat the returned profile"
        if worst_gain >= 0.0
        else "\nWARNING: a probe beat the returned profile"
    )


if __name__ == "__main__":
    main()
