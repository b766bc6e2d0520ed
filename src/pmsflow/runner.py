"""Configured experiment runs and the command line interface.

Subcommands:

    pmsflow run <config.yaml> [--out DIR] [--seed N]
    pmsflow verify [--seed N] [--out DIR]
    pmsflow print-config-reference

``run`` executes one configured evolution, writes series.csv, one snapshot
CSV per requested time, and a report in text and JSON form, then checks the
run against its gates (conservation, dissipation, max principle, velocity
decay, plus smoothness monotonicity for the smooth preset).  ``verify``
executes the acceptance suite.  Exit codes: 0 all checks passed, 1 a check
failed, 2 configuration or usage error, 3 the inner solver did not converge.

CSV outputs never embed timestamps or other run-local state, so identical
configs produce byte identical CSVs; the reports additionally carry wall
time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .diagnostics import (
    DiagnosticRecord,
    Verdict,
    check_ut_decay,
    regularization_time,
    smoothness_gates,
    structural_gates,
)
from .grid import CellField, FaceField, Grid, build_grid
from .initial_data import build_initial
from .solver import (
    NonConvergenceError,
    SolverConfig,
    Trajectory,
    balanced_steps,
    evolve,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "RunReport",
    "load_config",
    "run",
    "main",
]


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configurations."""


# Keys every experiment may leave unset: no snapshots, the default jump
# threshold, and SolverConfig's own inner-iteration defaults.
_BASE_DEFAULTS = {
    "snapshot_times": (),
    "kappa": None,
    **{
        f.name: f.default
        for f in dataclasses.fields(SolverConfig)
        if f.default is not dataclasses.MISSING
    },
}

# Named presets.  ``step_ratio`` is the inner step-size ratio s/sigma a preset
# runs with when the config leaves sigma and s unset (see ``balanced_steps``);
# it cuts inner iterations several-fold on these experiments.  Explicit
# sigma/s in the config always win; custom runs keep the symmetric solver
# default.  The smooth preset is gated on 1e-10 scale monotonicity, so it
# runs with a tighter inner tolerance than the default.  The acceptance
# suite evolves these same presets.
_EXPERIMENTS = {
    "quarter_circles": {
        "grid": {"kind": "interval", "lo": 0.0, "hi": 2.0, "cells": 400},
        "initial": {"type": "quarter_circles", "c": 1.0},
        "tau": 1e-3,
        "t_end": 0.4,
        "snapshot_times": (0.1, 0.2, 0.3, 0.4),
        "kappa": 0.3,
        "step_ratio": 0.03,
    },
    "radial_spike": {
        "grid": {"kind": "radial", "dimension": 3, "radius": 1.0, "cells": 400},
        "initial": {"type": "capped_inverse", "cap": 20.0},
        "tau": 5e-4,
        "t_end": 0.4,
        "step_ratio": 1e-3,
    },
    "smooth_cosine": {
        "grid": {"kind": "interval", "lo": 0.0, "hi": 1.0, "cells": 200},
        "initial": {"type": "cosine", "amplitude": 1.0},
        "tau": 1e-3,
        "t_end": 2.0,
        "inner_tol": 1e-11,
        "step_ratio": 3e-3,
    },
    "custom": {},
}

@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings of one experiment run."""

    experiment: str
    grid: dict
    initial: dict
    tau: float
    t_end: float
    snapshot_times: tuple
    kappa: float | None
    inner_tol: float
    max_inner: int
    theta: float
    check_every: int
    sigma: float | None
    s: float | None


_TOP_KEYS = {f.name for f in dataclasses.fields(RunConfig)}


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, huge integers
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return float(value)


def _as_optional_float(value, key: str):
    return None if value is None else _as_float(value, key)


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def load_config(path) -> RunConfig:
    """Parse and resolve a YAML run config; unknown keys are errors."""
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a mapping, got {type(raw).__name__}")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    settings = dict(raw)
    return _resolve(settings.pop("experiment", "custom"), settings)


def _resolve(experiment: str, settings: dict) -> RunConfig:
    """Fill the named experiment's preset in under the explicit settings."""
    if not isinstance(experiment, str) or experiment not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of "
            f"{sorted(_EXPERIMENTS)}"
        )
    merged = dict(_BASE_DEFAULTS)
    merged.update(_EXPERIMENTS[experiment])
    merged.update(settings)
    for key in ("grid", "initial", "tau", "t_end"):
        if key not in merged:
            raise ConfigError(f"experiment {experiment!r} needs an explicit {key!r}")
    if not isinstance(merged["grid"], dict):
        raise ConfigError("grid must be a mapping")
    if not isinstance(merged["initial"], dict):
        raise ConfigError("initial must be a mapping")
    snaps = merged["snapshot_times"]
    if not isinstance(snaps, (list, tuple)):
        raise ConfigError(f"snapshot_times must be a list, got {snaps!r}")
    return RunConfig(
        experiment=experiment,
        grid=dict(merged["grid"]),
        initial=dict(merged["initial"]),
        tau=_as_float(merged["tau"], "tau"),
        t_end=_as_float(merged["t_end"], "t_end"),
        snapshot_times=tuple(_as_float(t, "snapshot_times") for t in snaps),
        kappa=_as_optional_float(merged["kappa"], "kappa"),
        inner_tol=_as_float(merged["inner_tol"], "inner_tol"),
        max_inner=_as_int(merged["max_inner"], "max_inner"),
        theta=_as_float(merged["theta"], "theta"),
        check_every=_as_int(merged["check_every"], "check_every"),
        sigma=_as_optional_float(merged["sigma"], "sigma"),
        s=_as_optional_float(merged["s"], "s"),
    )


def _gate_verdicts(traj: Trajectory, experiment: str) -> list[Verdict]:
    gates = structural_gates(traj)
    gates.append(check_ut_decay(traj))
    if experiment == "smooth_cosine":
        gates.extend(smoothness_gates(traj))
    return gates


def _evolve_config(cfg: RunConfig) -> Trajectory:
    """Build the grid and initial data of a resolved config and evolve them."""
    grid = build_grid(cfg.grid)
    u0 = build_initial(grid, cfg.initial)
    sigma, s = cfg.sigma, cfg.s
    ratio = _EXPERIMENTS.get(cfg.experiment, {}).get("step_ratio")
    if sigma is None and s is None and ratio is not None:
        sigma, s = balanced_steps(grid, ratio)
    solver_cfg = SolverConfig(
        tau=cfg.tau,
        theta=cfg.theta,
        sigma=sigma,
        s=s,
        inner_tol=cfg.inner_tol,
        max_inner=cfg.max_inner,
        check_every=cfg.check_every,
    )
    return evolve(
        u0,
        cfg.t_end,
        solver_cfg,
        snapshot_times=cfg.snapshot_times,
        kappa=cfg.kappa,
    )


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_rows(path: Path, header: str, columns) -> None:
    """Write ``header`` and one row per entry of the equal-length columns,
    streamed so that no copy of the table is held in memory."""
    rows = zip(*(np.ravel(c) for c in columns))
    with path.open("w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _write_series_csv(path: Path, traj: Trajectory) -> None:
    _write_rows(
        path,
        "t,energy,mean,sup,lip,ut_l2,ut_sup,max_face_diff,jump_count",
        [traj.series(name) for name in DiagnosticRecord.FIELDS],
    )


def _write_snapshot_csv(path: Path, grid: Grid, u: CellField, flux: FaceField) -> None:
    """One row per cell in i-major order; flux columns hold the flux on the
    cell's left face per axis, with 0 on the boundary where the zero-flux
    wall sits."""
    axes = "xy"[: grid.ndim]
    fluxes = ["flux_left"] if grid.ndim == 1 else [f"flux_left_{a}" for a in axes]
    left = [
        np.pad(z, [(int(a == k), 0) for a in range(grid.ndim)])
        for k, z in enumerate(flux.components)
    ]
    centers = np.meshgrid(*grid.cell_centers, indexing="ij")
    _write_rows(path, ",".join([*axes, "u", *fluxes]), [*centers, u.values, *left])


def _json_safe(value):
    """A strict JSON value: non-finite floats become null."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value) if np.isfinite(value) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    return str(value)


@dataclass
class RunReport:
    """What one ``run`` produced: gate verdicts and output file paths."""

    config: RunConfig
    gates: list[Verdict]
    passed: bool
    out_dir: Path
    series_path: Path
    snapshot_paths: list[Path]
    report_text_path: Path
    report_json_path: Path
    trajectory: Trajectory


def run(cfg: RunConfig, out_dir) -> RunReport:
    """Execute one configured run, write its outputs, check its gates."""
    started = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)  # an unusable path fails before evolving
    traj = _evolve_config(cfg)
    grid = traj.grid
    gates = _gate_verdicts(traj, cfg.experiment)
    passed = all(g.passed for g in gates)
    reg_time = regularization_time(traj)
    elapsed = time.perf_counter() - started

    series_path = out / "series.csv"
    _write_series_csv(series_path, traj)
    snapshot_paths = []
    for t, u, flux in traj.snapshots:
        p = out / f"snapshot_t{t:.6f}.csv"
        _write_snapshot_csv(p, grid, u, flux)
        snapshot_paths.append(p)

    final = traj.records[-1]
    if reg_time is None:
        reg_text = "none (jumps persist through the final record)"
    else:
        reg_text = f"{reg_time:g}"
    text_lines = [
        f"experiment: {cfg.experiment}",
        f"grid: {grid.kind}, cells {'x'.join(str(n) for n in grid.shape)}, "
        f"spacing {'x'.join(_fmt(h) for h in grid.spacing)}",
        f"steps: {len(traj.records) - 1} x tau {cfg.tau:g} -> t_end {float(traj.times[-1]):g}",
        f"inner iterations: total {int(np.sum(traj.inner_iters))}, "
        f"max per step {int(np.max(traj.inner_iters))}",
        f"largest step kkt residual: {float(np.max(traj.kkt_residuals)):.3e}",
        f"regularization time (kappa {traj.kappa:g}): {reg_text}",
        f"final: t {final.t:g}, energy {final.energy:.12g}, sup {final.sup_norm:.6g}, "
        f"jumps {final.jump_count}",
        f"wall time: {elapsed:.2f}s",
        "gates:",
    ]
    for g in gates:
        status = "PASS" if g.passed else "FAIL"
        text_lines.append(
            f"  {status} {g.name}: worst {g.worst_violation:.3e} "
            f"tolerance {g.tolerance:.3e} ({g.detail})"
        )
    text_lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    report_text_path = out / "report.txt"
    report_text_path.write_text("\n".join(text_lines) + "\n")

    report = {
        "experiment": cfg.experiment,
        "grid": cfg.grid,
        "initial": cfg.initial,
        "tau": cfg.tau,
        "t_end": cfg.t_end,
        "steps": len(traj.records) - 1,
        "inner_iterations_total": int(np.sum(traj.inner_iters)),
        "inner_iterations_max": int(np.max(traj.inner_iters)),
        "max_kkt_residual": float(np.max(traj.kkt_residuals)),
        "kappa": traj.kappa,
        "regularization_time": reg_time,
        "wall_time_seconds": elapsed,
        "outputs": ["series.csv"]
        + [f"snapshot_t{t:.6f}.csv" for t, _, _ in traj.snapshots]
        + ["report.txt", "report.json"],
        "final": {
            "t": final.t,
            "energy": final.energy,
            "mean": final.mean,
            "sup_norm": final.sup_norm,
            "lip": final.lip,
            "jump_count": final.jump_count,
        },
        "gates": [
            {
                "name": g.name,
                "passed": g.passed,
                "worst_violation": _json_safe(g.worst_violation),
                "tolerance": g.tolerance,
                "location": _json_safe(g.location),
                "detail": g.detail,
            }
            for g in gates
        ],
        "passed": passed,
    }
    report_json_path = out / "report.json"
    report_json_path.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")

    return RunReport(
        config=cfg,
        gates=gates,
        passed=passed,
        out_dir=out,
        series_path=series_path,
        snapshot_paths=snapshot_paths,
        report_text_path=report_text_path,
        report_json_path=report_json_path,
        trajectory=traj,
    )


_CONFIG_REFERENCE = """\
# Run configuration reference (YAML).  Every key is optional unless the
# chosen experiment leaves it unset; explicit keys override the preset.

experiment: quarter_circles   # quarter_circles | radial_spike | smooth_cosine | custom

# Presets:
#   quarter_circles   interval (0, 2) with 400 cells, paired quarter-circle
#                     data of jump height c = 1, tau 1e-3, t_end 0.4,
#                     snapshots at 0.1 0.2 0.3 0.4
#   radial_spike      radially symmetric unit ball in dimension 3 with 400
#                     cells, capped 1/r data (cap 20), tau 5e-4, t_end 0.4
#   smooth_cosine     interval (0, 1) with 200 cells, cos(pi x) data,
#                     tau 1e-3, t_end 2.0, inner_tol tightened to 1e-11
#   custom            no preset; grid, initial, tau, t_end are required

grid:                 # domain discretization
  kind: interval      # interval | rectangle | radial
  lo: 0.0             # interval: lo/hi/cells
  hi: 2.0
  cells: 400
  # rectangle uses lo: [x, y], hi: [x, y], cells: [nx, ny]
  # radial uses dimension (ambient, >= 2), radius, cells

initial:              # initial profile sampled at cell centers
  type: quarter_circles   # constant | step | cosine | quarter_circles |
                          # capped_inverse | random_piecewise
  c: 1.0
  # constant: value        step: left, right, position
  # cosine: amplitude      capped_inverse: cap
  # random_piecewise: seed, pieces, amplitude

tau: 1.0e-3           # time step (> 0)
t_end: 0.4            # final time; steps = ceil(t_end / tau)
snapshot_times: [0.1, 0.2, 0.3, 0.4]   # each rounded to the nearest step
kappa: 0.3            # jump detection threshold; null picks a grid-aware default

inner_tol: 1.0e-8     # certificate tolerance of the implicit step solver
max_inner: 20000      # inner iteration cap per step
theta: 1.0            # extrapolation weight of the inner iteration, in [0, 1]
check_every: 16       # termination check cadence of the inner iteration
sigma: null           # dual step; null picks 1/L for the grid's bound L,
                      # except that named presets pick a measured ratio
                      # s/sigma < 1 (product still 1/L^2) to cut iterations
s: null               # primal step; set both or neither, s*sigma*L^2 <= 1
"""


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        if cfg.initial.get("type") == "random_piecewise":
            initial = dict(cfg.initial)
            initial["seed"] = args.seed
            cfg = dataclasses.replace(cfg, initial=initial)
        else:
            print(
                f"note: --seed ignored, initial type "
                f"{cfg.initial.get('type')!r} is not seeded",
                file=sys.stderr,
            )
    report = run(cfg, args.out)
    sys.stdout.write(report.report_text_path.read_text())
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    from .acceptance import run_acceptance  # acceptance imports this module

    verdicts = run_acceptance(seed=args.seed, progress=print)
    passed = all(v.passed for v in verdicts)
    lines = []
    for v in verdicts:
        status = "PASS" if v.passed else "FAIL"
        lines.append(
            f"{status} {v.name}: margin {v.worst_violation:.3e} at {v.location}; "
            f"{v.detail}"
        )
    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "verify_report.txt").write_text(text)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pmsflow",
        description="Implicit finite-volume solver for the parabolic minimal "
        "surface equation with zero-flux boundary conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("config", help="path to a YAML run config")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument(
        "--seed", type=int, default=None, help="override the seed of a seeded initial"
    )

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--seed", type=int, default=0, help="suite seed (default: 0)")
    p_verify.add_argument(
        "--out", default=None, help="also write verify_report.txt to this directory"
    )

    sub.add_parser(
        "print-config-reference", help="print the annotated YAML config reference"
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        sys.stdout.write(_CONFIG_REFERENCE)
        return 0
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
