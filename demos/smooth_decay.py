"""Smooth data flattens monotonically toward its mean.

Starting from a cosine profile, every printed quantity decays in lockstep:
the area energy, the distance to the mean, the steepest slope, and the
vertical speed.  None of them ever increases between steps, which is the
discrete fingerprint of the implicit construction: each step is a
minimization, so the energy cannot go up, and the comparison principle
pins everything else.
"""

import argparse

import numpy as np

from pmsflow import (
    SolverConfig,
    cosine,
    evolve,
    interval_grid,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cells", type=int, default=100)
    ap.add_argument("--tau", type=float, default=2e-3)
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--plot", action="store_true")
    args = ap.parse_args()

    grid = interval_grid(0.0, 1.0, args.cells)
    u0 = cosine(grid)
    cfg = SolverConfig(tau=args.tau, inner_tol=1e-10)

    print(f"cos(pi x) on {args.cells} cells, tau = {args.tau:g}, t_end = {args.t_end:g}")
    traj = evolve(u0, args.t_end, cfg)

    times = traj.series("t")
    table = {
        "energy - |domain|": traj.series("energy") - np.sum(grid.cell_volumes),
        "sup |u|": traj.series("sup_norm"),
        "steepest slope": traj.series("lip"),
        "vertical speed": traj.series("ut_sup"),
    }
    marks = np.linspace(0.0, args.t_end, 6)
    print("\n   t     " + "".join(f"{name:>20}" for name in table))
    for t_mark in marks:
        k = int(np.argmin(np.abs(times - t_mark)))
        row = "".join(f"{col[k]:20.3e}" for col in table.values())
        print(f"  {times[k]:5.2f} {row}")

    for name, col in table.items():
        worst = np.max(np.diff(col[1:])) if col.size > 2 else 0.0
        print(f"largest increase of {name!r} between steps: {worst:.2e}")

    if args.plot:
        try:
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib is not installed; skipping the plot")
            return
        for name, col in table.items():
            plt.semilogy(times[1:], np.maximum(col[1:], 1e-16), label=name)
        plt.xlabel("t")
        plt.title("monotone decay from smooth data")
        plt.legend()
        plt.show()


if __name__ == "__main__":
    main()
