"""Watch a height-c jump relax: the paired quarter-circle solution.

Two quarter circles meeting at the domain center with a vertical offset c
form a closed-form solution of the flow: both halves translate vertically
at unit speed while the jump height c - 2t shrinks linearly, hits zero at
t = c/2, and the profile is smooth afterwards.  This script evolves that
initial datum numerically, prints the computed jump height against the
formula, and reports when the jump detector stops firing.

Run with --plot to draw the computed snapshots (needs matplotlib).
"""

import argparse

import numpy as np

from pmsflow import (
    QuarterCircleProfile,
    SolverConfig,
    balanced_steps,
    evolve,
    interval_grid,
    quarter_circles,
    regularization_time,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cells", type=int, default=100)
    ap.add_argument("--jump", type=float, default=1.0, help="initial jump height c")
    ap.add_argument("--tau", type=float, default=1e-3)
    ap.add_argument("--plot", action="store_true")
    args = ap.parse_args()

    grid = interval_grid(0.0, 2.0, args.cells)
    u0 = quarter_circles(grid, c=args.jump)
    profile = QuarterCircleProfile(c=args.jump)
    t_end = profile.extinction_time + 0.1
    compare_times = tuple(np.linspace(0.0, profile.extinction_time, 6)[1:-1])
    snapshot_times = compare_times + (t_end,)

    # the jump face makes the problem stiff; a small primal/dual step ratio
    # keeps the inner iteration counts reasonable
    sigma, s = balanced_steps(grid, 0.03)
    cfg = SolverConfig(tau=args.tau, sigma=sigma, s=s)

    print(f"jump height c = {args.jump:g}, predicted extinction at t = {args.jump / 2:g}")
    print(f"evolving {args.cells} cells to t = {t_end:g} with tau = {args.tau:g}")
    traj = evolve(u0, t_end, cfg, snapshot_times=snapshot_times, kappa=0.3 * args.jump)

    times = traj.series("t")
    heights = traj.series("max_face_diff")
    # the measured center-face difference carries the jump plus the last
    # sliver of each quarter circle, 2 sqrt(h - h^2/4) on spacing h
    h = grid.spacing[0]
    sliver = 2.0 * np.sqrt(h - 0.25 * h * h)
    print("\n   t      measured face difference   jump c - 2t   jump + grid sliver")
    for t_mark in (0.0, *compare_times):
        k = int(np.argmin(np.abs(times - t_mark)))
        jump = profile.jump_height(times[k])
        print(
            f"  {times[k]:5.3f}   {heights[k]:19.6f}   {jump:11.6f}"
            f"   {jump + sliver:15.6f}"
        )
    k_end = int(np.argmin(np.abs(times - t_end)))
    print(
        f"  {times[k_end]:5.3f}   {heights[k_end]:19.6f}   "
        f"(past extinction; profile is smooth)"
    )

    reg = regularization_time(traj)
    print(f"\njump detector (threshold {traj.kappa:g}) last fires before t = {reg:g}")
    err = []
    for t_mark in compare_times:
        ts, u, _ = traj.snapshot_at(t_mark)
        exact = profile.solution(ts, grid.cell_centers[0])
        err.append(np.max(np.abs(u.values - exact)))
    print("sup error against the closed form while the jump lives:",
          ", ".join(f"{e:.2e}" for e in err))

    if args.plot:
        try:
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib is not installed; skipping the plot")
            return
        x = grid.cell_centers[0]
        plt.plot(x, u0.values, "k--", label="t = 0")
        for t_mark in snapshot_times:
            ts, u, _ = traj.snapshot_at(t_mark)
            plt.plot(x, u.values, label=f"t = {ts:.3f}")
        plt.xlabel("x")
        plt.ylabel("u")
        plt.title("quarter-circle pair relaxing at unit vertical speed")
        plt.legend()
        plt.show()


if __name__ == "__main__":
    main()
