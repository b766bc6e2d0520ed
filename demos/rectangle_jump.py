"""Watch a disk-shaped jump relax on a square: eventual regularity in 2-D.

The initial datum is c times the indicator of a disk, a jump of height c
along a circle.  Across a jump the flux is saturated at |flux| = 1, so the
disk loses height and its surroundings gain it at a bounded rate: the jump
shrinks at a finite speed, closes in finite time, and the profile is
smooth afterwards.  This script evolves that datum on a square with the
default step sizes, prints the area energy, the largest face difference
and the number of jump faces as they decay, and reports the time after
which the jump detector stays silent.

Run with --plot to draw the initial and final states (needs matplotlib).
"""

import argparse

import numpy as np

from pmsflow import (
    CellField,
    SolverConfig,
    evolve,
    rectangle_grid,
    regularization_time,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cells", type=int, default=48, help="cells per axis")
    ap.add_argument("--jump", type=float, default=0.5, help="jump height c")
    ap.add_argument("--radius", type=float, default=0.25)
    ap.add_argument("--tau", type=float, default=2e-3)
    ap.add_argument("--t-end", type=float, default=0.1)
    ap.add_argument("--plot", action="store_true")
    args = ap.parse_args()

    grid = rectangle_grid((0.0, 0.0), (1.0, 1.0), (args.cells, args.cells))
    x, y = np.meshgrid(*grid.cell_centers, indexing="ij")
    inside = (x - 0.5) ** 2 + (y - 0.5) ** 2 < args.radius**2
    u0 = CellField(grid, np.where(inside, args.jump, 0.0))
    cfg = SolverConfig(tau=args.tau)

    print(
        f"disk of radius {args.radius:g} and height {args.jump:g} on "
        f"{args.cells} x {args.cells} cells, tau = {args.tau:g}, t_end = {args.t_end:g}"
    )
    traj = evolve(u0, args.t_end, cfg, snapshot_times=(args.t_end,), kappa=0.3 * args.jump)

    times = traj.series("t")
    table = {
        "energy - |domain|": traj.series("energy") - grid.total_volume,
        "max face diff": traj.series("max_face_diff"),
        "jump faces": traj.series("jump_count"),
    }
    print("\n   t     " + "".join(f"{name:>20}" for name in table))
    for t_mark in np.linspace(0.0, args.t_end, 11):
        k = int(np.argmin(np.abs(times - t_mark)))
        row = "".join(f"{col[k]:20.4g}" for col in table.values())
        print(f"  {times[k]:5.3f} {row}")

    energy = table["energy - |domain|"]
    print(f"\nlargest energy increase between steps: {np.max(np.diff(energy)):.2e}")
    print(f"inner iterations per step: {np.mean(traj.inner_iters):.0f} on average")
    reg = regularization_time(traj)
    if reg is None:
        print(f"jump detector (threshold {traj.kappa:g}) still fires at t = {args.t_end:g}")
    else:
        print(f"jump detector (threshold {traj.kappa:g}) last fires before t = {reg:g}")

    if args.plot:
        try:
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib is not installed; skipping the plot")
            return
        t_last, u_last, _ = traj.snapshots[-1]
        _, axes = plt.subplots(1, 2, figsize=(9, 4))
        for axis, u, t in ((axes[0], u0, 0.0), (axes[1], u_last, t_last)):
            axis.imshow(u.values.T, origin="lower", extent=(0.0, 1.0, 0.0, 1.0))
            axis.set_title(f"t = {t:g}")
        plt.show()


if __name__ == "__main__":
    main()
