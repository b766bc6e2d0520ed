"""Configured experiment runs and the command line interface.

Subcommands:

    pmsflow run <config.yaml> [--out DIR] [--seed N]
    pmsflow verify [--seed N] [--out DIR]
    pmsflow print-config-reference

``run`` executes one configured evolution, writes series.csv, one snapshot
CSV per requested time, and a report in text and JSON form, then checks the
run against its gates (conservation, dissipation, max principle, velocity
decay, plus smoothness monotonicity for the smooth preset).  Both reports
render one summary record; report.txt and ``verify`` print every verdict
as the same margin line.  ``verify`` executes the acceptance suite.  Exit
codes: 0 all checks passed, 1 a check failed, 2 configuration or usage
error, 3 the inner solver did not converge.

CSV outputs never embed timestamps or other run-local state, so identical
configs produce byte identical CSVs; the reports additionally carry wall
time.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
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
from .grid import CellField, ConfigError, FaceField, Grid, _as_count, _as_float, build_grid
from .initial_data import build_initial
from .solver import (
    NonConvergenceError,
    SolverConfig,
    Trajectory,
    _check_run_settings,
    _run_steps,
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


# Named presets.  The smooth preset is gated on 1e-10 scale monotonicity, so
# it runs with a tighter inner tolerance than the default.  The acceptance
# suite evolves these same presets.
_EXPERIMENTS = {
    "quarter_circles": {
        "grid": {"kind": "interval", "lo": 0.0, "hi": 2.0, "cells": 400},
        "initial": {"type": "quarter_circles", "c": 1.0},
        "tau": 1e-3,
        "t_end": 0.4,
        "snapshot_times": (0.1, 0.2, 0.3, 0.4),
        "kappa": 0.3,
    },
    "radial_spike": {
        "grid": {"kind": "radial", "dimension": 3, "radius": 1.0, "cells": 400},
        "initial": {"type": "capped_inverse", "cap": 20.0},
        "tau": 5e-4,
        "t_end": 0.4,
    },
    "smooth_cosine": {
        "grid": {"kind": "interval", "lo": 0.0, "hi": 1.0, "cells": 200},
        "initial": {"type": "cosine", "amplitude": 1.0},
        "tau": 1e-3,
        "t_end": 2.0,
        "inner_tol": 1e-11,
    },
    "custom": {},
}

@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings of one experiment run.

    The fields with defaults steer the rectangle loop and are set through
    the API only; a config file leaves them at SolverConfig's defaults, so
    the loop's step sizes follow from tau.
    """

    experiment: str
    grid: dict
    initial: dict
    tau: float
    t_end: float
    snapshot_times: tuple
    kappa: float | None
    inner_tol: float
    max_inner: int
    theta: float = SolverConfig.theta
    check_every: int = SolverConfig.check_every
    sigma: float | None = SolverConfig.sigma
    s: float | None = SolverConfig.s


# A config file sets exactly the RunConfig fields without a default.
_TOP_KEYS = {f.name for f in dataclasses.fields(RunConfig) if f.default is dataclasses.MISSING}

# Keys every experiment may leave unset: no snapshots, the default jump
# threshold, and SolverConfig's own inner-iteration defaults.
_BASE_DEFAULTS = {
    "snapshot_times": (),
    "kappa": None,
    "inner_tol": SolverConfig.inner_tol,
    "max_inner": SolverConfig.max_inner,
}


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
    kappa = merged["kappa"]
    return RunConfig(
        experiment=experiment,
        grid=dict(merged["grid"]),
        initial=dict(merged["initial"]),
        tau=_as_float(merged["tau"], "tau"),
        t_end=_as_float(merged["t_end"], "t_end"),
        snapshot_times=tuple(_as_float(t, "snapshot_times") for t in snaps),
        kappa=None if kappa is None else _as_float(kappa, "kappa"),
        inner_tol=_as_float(merged["inner_tol"], "inner_tol"),
        max_inner=_as_count(merged["max_inner"], "max_inner"),
    )


def _gate_verdicts(traj: Trajectory, experiment: str) -> list[Verdict]:
    gates = structural_gates(traj)
    gates.append(check_ut_decay(traj))
    if experiment == "smooth_cosine":
        gates.extend(smoothness_gates(traj))
    return gates


def _evolve_inputs(cfg: RunConfig) -> tuple[CellField, SolverConfig]:
    """The initial data and solver settings of a resolved config: a bad
    grid, initial value or solver setting fails here, before any write."""
    grid = build_grid(cfg.grid)
    u0 = build_initial(grid, cfg.initial)
    solver_cfg = SolverConfig(
        tau=cfg.tau,
        theta=cfg.theta,
        sigma=cfg.sigma,
        s=cfg.s,
        inner_tol=cfg.inner_tol,
        max_inner=cfg.max_inner,
        check_every=cfg.check_every,
    )
    return u0, solver_cfg


def _evolve_config(cfg: RunConfig) -> Trajectory:
    """Build the grid and initial data of a resolved config and evolve them."""
    u0, solver_cfg = _evolve_inputs(cfg)
    return evolve(u0, cfg.t_end, solver_cfg, snapshot_times=cfg.snapshot_times, kappa=cfg.kappa)


def _write_rows(path: Path, header: str, columns, coordinates=()) -> None:
    """Write ``header`` and one row per entry of the equal-length columns.

    Every value is written with 17 significant digits, which round-trips a
    float.  A row is one ``%``-format over Python floats from ``tolist``;
    that shares CPython's float formatting with ``format(x, ".17g")``.
    ``coordinates`` holds, per grid axis, the cell-centre values that lead
    the rows in i-major order.  Each of them is formatted once, and the rows
    take the strings: a 96 x 96 snapshot formats 192 coordinates instead of
    18 432.
    """
    labels = [["%.17g," % x for x in np.ravel(c).tolist()] for c in coordinates]
    columns = [np.ravel(c).tolist() for c in columns]
    row_format = "%s" * len(labels) + ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*columns)
    if labels:
        rows = (lead + row for lead, row in zip(itertools.product(*labels), rows))
    with path.open("w") as fh:
        fh.write(header + "\n")
        fh.writelines(row_format % row for row in rows)


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
    _write_rows(path, ",".join([*axes, "u", *fluxes]), [u.values, *left], grid.cell_centers)


def _snapshot_names(cfg: RunConfig) -> list[str]:
    """The run's snapshot file names in step order; ConfigError on a clash."""
    _, steps = _run_steps(cfg.t_end, cfg.tau, cfg.snapshot_times)
    names = {}
    for t in sorted(cfg.tau * k for k in steps):
        name = f"snapshot_t{t:.6f}.csv"
        if name in names:
            raise ConfigError(f"snapshot_times {names[name]!r} and {t!r} both write {name}")
        names[name] = t
    return list(names)


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


def _verdict_line(v: Verdict) -> str:
    """A verdict's status, signed margin past its tolerance, and where."""
    status = "PASS" if v.passed else "FAIL"
    margin = v.worst_violation - v.tolerance
    return f"{status} {v.name}: margin {margin:.3e} at {v.location}; {v.detail}"


def _verdict_lines(verdicts: list[Verdict]) -> list[str]:
    """One line per verdict, then the overall verdict."""
    overall = "PASS" if all(v.passed for v in verdicts) else "FAIL"
    return [*map(_verdict_line, verdicts), f"overall: {overall}"]


def run(cfg: RunConfig, out_dir) -> RunReport:
    """Execute one configured run, write its outputs, check its gates."""
    started = time.perf_counter()
    u0, solver_cfg = _evolve_inputs(cfg)
    _check_run_settings(u0, cfg.t_end, solver_cfg, cfg.kappa, cfg.snapshot_times)
    snapshot_names = _snapshot_names(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)  # an unusable path fails before evolving
    traj = evolve(u0, cfg.t_end, solver_cfg, snapshot_times=cfg.snapshot_times, kappa=cfg.kappa)
    gates = _gate_verdicts(traj, cfg.experiment)
    passed = all(g.passed for g in gates)
    reg_time = regularization_time(traj)
    elapsed = time.perf_counter() - started

    series_path = out / "series.csv"
    _write_series_csv(series_path, traj)
    snapshot_paths = [out / name for name in snapshot_names]
    for path, (_, u, flux) in zip(snapshot_paths, traj.snapshots, strict=True):
        _write_snapshot_csv(path, traj.grid, u, flux)
    report_text_path, report_json_path = out / "report.txt", out / "report.json"

    final = traj.records[-1]
    summary = {
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
        "outputs": [
            p.name for p in (series_path, *snapshot_paths, report_text_path, report_json_path)
        ],
        "final": {
            "t": final.t,
            "energy": final.energy,
            "mean": final.mean,
            "sup_norm": final.sup_norm,
            "lip": final.lip,
            "jump_count": final.jump_count,
        },
    }
    lines = [f"{k.replace('_', ' ')}: {json.dumps(v, sort_keys=True)}" for k, v in summary.items()]
    report_text_path.write_text("\n".join(lines + _verdict_lines(gates)) + "\n")
    gate_docs = [{k: _json_safe(v) for k, v in dataclasses.asdict(g).items()} for g in gates]
    report = {**summary, "gates": gate_docs, "passed": passed}
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
# No other solver key exists.  Interval and radial steps run Newton on the
# step's dual, which takes no step sizes; the rectangle loop derives its
# pair from tau, the quadratic being (1/tau)- and the conjugate 1-strongly
# convex: s/sigma = tau with s*sigma*L^2 = 1 for the grid's bound L.
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
    text = "\n".join(_verdict_lines(verdicts)) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "verify_report.txt").write_text(text)
    return 0 if all(v.passed for v in verdicts) else 1


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
