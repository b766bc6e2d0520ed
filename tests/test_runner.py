"""Config loading, run outputs, and the command line interface."""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

import pmsflow.runner as runner_module
from pmsflow.diagnostics import Verdict
from pmsflow.runner import ConfigError, RunConfig, load_config, main, run
from pmsflow.solver import SolverConfig


def write_config(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path


CUSTOM_SMALL = """\
experiment: custom
grid: {kind: interval, lo: 0.0, hi: 2.0, cells: 40}
initial: {type: quarter_circles, c: 1.0}
tau: 5.0e-3
t_end: 0.02
snapshot_times: [0.01, 0.02]
"""


# ---------------------------------------------------------------- loading


def test_preset_defaults_resolve(tmp_path):
    cfg = load_config(write_config(tmp_path, "experiment: quarter_circles\n"))
    assert cfg.experiment == "quarter_circles"
    assert cfg.grid == {"kind": "interval", "lo": 0.0, "hi": 2.0, "cells": 400}
    assert cfg.initial == {"type": "quarter_circles", "c": 1.0}
    assert cfg.tau == 1e-3 and cfg.t_end == 0.4
    assert cfg.snapshot_times == (0.1, 0.2, 0.3, 0.4)
    assert cfg.kappa == 0.3
    assert cfg.inner_tol == 1e-8 and cfg.max_inner == 20000
    assert cfg.sigma is None and cfg.s is None


def test_explicit_keys_override_the_preset(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            "experiment: quarter_circles\ntau: 2.0e-3\nsnapshot_times: []\n",
        )
    )
    assert cfg.tau == 2e-3
    assert cfg.snapshot_times == ()
    assert cfg.t_end == 0.4  # untouched preset value survives


def test_smooth_preset_tightens_inner_tol(tmp_path):
    cfg = load_config(write_config(tmp_path, "experiment: smooth_cosine\n"))
    assert cfg.inner_tol == 1e-11
    assert cfg.kappa is None


@pytest.mark.parametrize("experiment", ["quarter_circles", "radial_spike", "smooth_cosine"])
def test_presets_leave_the_step_sizes_unset(experiment):
    # every preset is one-axis, whose Newton solve takes no step sizes
    _, solver_cfg = runner_module._evolve_inputs(runner_module._resolve(experiment, {}))
    assert solver_cfg.sigma is None and solver_cfg.s is None


def test_custom_config_carries_the_solver_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, CUSTOM_SMALL))
    defaults = SolverConfig(tau=cfg.tau)
    for key in ("inner_tol", "max_inner", "theta", "check_every", "sigma", "s"):
        assert getattr(cfg, key) == getattr(defaults, key), key


def test_custom_requires_the_core_keys(tmp_path):
    with pytest.raises(ConfigError, match="grid"):
        load_config(write_config(tmp_path, "experiment: custom\n"))


def test_unknown_keys_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match="banana"):
        load_config(
            write_config(tmp_path, "experiment: quarter_circles\nbanana: 1\n")
        )


def test_unknown_experiment_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="nonsense"):
        load_config(write_config(tmp_path, "experiment: nonsense\n"))


def test_malformed_values_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match="tau"):
        load_config(
            write_config(tmp_path, "experiment: quarter_circles\ntau: fast\n")
        )
    with pytest.raises(ConfigError, match="max_inner"):
        load_config(
            write_config(tmp_path, "experiment: quarter_circles\nmax_inner: 1.5\n")
        )
    with pytest.raises(ConfigError, match="snapshot_times"):
        load_config(
            write_config(
                tmp_path, "experiment: quarter_circles\nsnapshot_times: 0.1\n"
            )
        )
    with pytest.raises(ConfigError, match="mapping"):
        load_config(write_config(tmp_path, "- just\n- a\n- list\n"))
    with pytest.raises(ConfigError, match="YAML"):
        load_config(write_config(tmp_path, "experiment: [unclosed\n"))


# ---------------------------------------------------------------- run outputs


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small_run")
    cfg = load_config(write_config(tmp, CUSTOM_SMALL))
    return run(cfg, tmp / "out"), tmp


def test_run_declares_exactly_the_files_it_writes(small_run):
    report, _ = small_run
    with open(report.report_json_path) as fh:
        doc = json.load(fh)
    assert sorted(doc["outputs"]) == sorted(os.listdir(report.out_dir))
    for key in (
        "experiment", "tau", "t_end", "steps", "kappa", "regularization_time",
        "wall_time_seconds", "final", "gates", "passed",
    ):
        assert key in doc
    assert doc["passed"] is True
    assert doc["steps"] == 4
    assert doc["wall_time_seconds"] > 0.0
    names = [g["name"] for g in doc["gates"]]
    assert names.count("energy_dissipation") == 1
    assert "mean_conservation" in names and "max_principle" in names


def test_series_csv_parses_back(small_run):
    report, _ = small_run
    lines = report.series_path.read_text().splitlines()
    assert lines[0] == "t,energy,mean,sup,lip,ut_l2,ut_sup,max_face_diff,jump_count"
    data = np.genfromtxt(report.series_path, delimiter=",", skip_header=1)
    assert data.shape == (5, 9)
    assert data[0, 0] == 0.0
    assert np.allclose(data[:, 0], report.trajectory.series("t"))
    assert np.allclose(data[:, 1], report.trajectory.series("energy"))


def test_snapshot_csv_round_trips_the_state(small_run):
    report, _ = small_run
    assert len(report.snapshot_paths) == 2
    path = report.snapshot_paths[-1]
    assert path.name == "snapshot_t0.020000.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "x,u,flux_left"
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    ts, u, flux = report.trajectory.snapshot_at(0.02)
    assert ts == pytest.approx(0.02)
    assert data.shape == (40, 3)
    # 17 significant digits round trip doubles exactly
    assert np.array_equal(data[:, 1], u.values)
    assert data[0, 2] == 0.0  # zero-flux wall on the left boundary
    assert np.array_equal(data[1:, 2], flux.components[0])


def _run_custom(tmp_path, grid, initial):
    cfg = load_config(
        write_config(
            tmp_path,
            f"experiment: custom\ngrid: {grid}\ninitial: {initial}\n"
            "tau: 5.0e-3\nt_end: 1.0e-2\nsnapshot_times: [0.01]\n",
        )
    )
    report = run(cfg, tmp_path / "out")
    (path,) = report.snapshot_paths
    _, u, flux = report.trajectory.snapshot_at(0.01)
    return path, report.trajectory.grid, u, flux


def test_rectangle_snapshot_csv_round_trips_the_state(tmp_path):
    path, grid, u, flux = _run_custom(
        tmp_path,
        "{kind: rectangle, lo: [0.0, 0.0], hi: [1.0, 2.0], cells: [6, 5]}",
        "{type: cosine, amplitude: 0.5}",
    )
    assert path.read_text().splitlines()[0] == "x,y,u,flux_left_x,flux_left_y"
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert data.shape == (30, 5)
    xs, ys = grid.cell_centers
    # one row per cell, i-major: the y index runs fastest
    assert np.array_equal(data[:, 0], np.repeat(xs, 5))
    assert np.array_equal(data[:, 1], np.tile(ys, 6))
    assert np.array_equal(data[:, 2], u.values.ravel())
    left_x = data[:, 3].reshape(6, 5)
    left_y = data[:, 4].reshape(6, 5)
    zx, zy = flux.components
    assert np.all(left_x[0, :] == 0.0) and np.all(left_y[:, 0] == 0.0)
    assert np.array_equal(left_x[1:, :], zx)
    assert np.array_equal(left_y[:, 1:], zy)
    assert np.any(zx != 0.0) and np.any(zy != 0.0)


def test_radial_snapshot_csv_round_trips_the_state(tmp_path):
    path, grid, u, flux = _run_custom(
        tmp_path,
        "{kind: radial, dimension: 3, radius: 1.0, cells: 12}",
        "{type: capped_inverse, cap: 5.0}",
    )
    assert path.read_text().splitlines()[0] == "x,u,flux_left"
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert data.shape == (12, 3)
    assert np.array_equal(data[:, 0], grid.cell_centers[0])
    assert np.array_equal(data[:, 1], u.values)
    assert data[0, 2] == 0.0  # no face at r = 0
    assert np.array_equal(data[1:, 2], flux.components[0])
    assert np.any(flux.components[0] != 0.0)


def _per_value_snapshot(grid, u, flux) -> str:
    # the snapshot layout, every value formatted on its own
    axes = "xy"[: grid.ndim]
    fluxes = ["flux_left"] if grid.ndim == 1 else [f"flux_left_{a}" for a in axes]
    lines = [",".join([*axes, "u", *fluxes])]
    for index in np.ndindex(*grid.shape):
        centers = [grid.cell_centers[a][i] for a, i in enumerate(index)]
        left = []
        for axis, z in enumerate(flux.components):
            below = list(index)
            below[axis] -= 1
            left.append(z[tuple(below)] if index[axis] > 0 else 0.0)
        lines.append(",".join("%.17g" % float(x) for x in [*centers, u.values[index], *left]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "grid, initial",
    [
        (
            "{kind: rectangle, lo: [-0.3, 0.1], hi: [1.0, 2.0], cells: [7, 5]}",
            "{type: cosine, amplitude: 0.5}",
        ),
        (
            "{kind: radial, dimension: 3, radius: 1.0, cells: 12}",
            "{type: capped_inverse, cap: 5.0}",
        ),
    ],
    ids=["rectangle", "radial"],
)
def test_snapshot_csv_is_the_per_value_format(tmp_path, grid, initial):
    # the writer formats each distinct cell-centre coordinate once; the
    # bytes are those of formatting every value with %.17g
    path, grid, u, flux = _run_custom(tmp_path, grid, initial)
    assert path.read_text() == _per_value_snapshot(grid, u, flux)


def test_identical_configs_write_identical_csvs(tmp_path):
    cfg = load_config(write_config(tmp_path, CUSTOM_SMALL))
    first = run(cfg, tmp_path / "a")
    second = run(cfg, tmp_path / "b")
    assert first.series_path.read_bytes() == second.series_path.read_bytes()
    for pa, pb in zip(first.snapshot_paths, second.snapshot_paths):
        assert pa.read_bytes() == pb.read_bytes()


def test_report_text_names_every_gate(small_run):
    report, _ = small_run
    text = report.report_text_path.read_text()
    for gate in report.gates:
        assert gate.name in text
    assert "overall: PASS" in text
    assert "wall time" in text
    # one line per summary key of report.json, then one margin line per
    # gate in the format `verify` prints, then the overall line
    with open(report.report_json_path) as fh:
        doc = json.load(fh)
    keys = [key for key in doc if key not in ("gates", "passed")]
    lines = text.splitlines()
    assert len(lines) == len(keys) + len(report.gates) + 1
    summary = {line.split(": ", 1)[0] for line in lines[: len(keys)]}
    assert summary == {key.replace("_", " ") for key in keys}
    verdicts = lines[len(keys) : -1]
    assert verdicts == [runner_module._verdict_line(g) for g in report.gates]
    assert lines[-1] == "overall: PASS"


# ---------------------------------------------------------------- CLI


def test_cli_run_passes_on_a_clean_config(tmp_path, capsys):
    path = write_config(tmp_path, CUSTOM_SMALL)
    rc = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_rejects_a_bad_config(tmp_path, capsys):
    path = write_config(tmp_path, "experiment: quarter_circles\nbanana: 1\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "banana" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("kappa", ".nan"),
        ("tau", ".nan"),
        ("tau", ".inf"),
        ("t_end", ".nan"),
        ("t_end", ".inf"),
        ("inner_tol", ".nan"),
        ("snapshot_times", "[0.1, .nan]"),
        ("t_end", "1" + "0" * 400),
    ],
    ids=["kappa-nan", "tau-nan", "tau-inf", "t_end-nan", "t_end-inf",
         "inner_tol-nan", "snapshot_times-nan", "t_end-huge-int"],
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, key, value):
    path = write_config(tmp_path, f"experiment: quarter_circles\n{key}: {value}\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_SMALL_GRID = "{kind: interval, lo: 0.0, hi: 1.0, cells: 8}"
_SMALL_INITIAL = "{type: cosine}"


@pytest.mark.parametrize(
    "grid, initial, key",
    [
        (_SMALL_GRID, _SMALL_INITIAL, "experiment"),
        ("{kind: [interval], lo: 0.0, hi: 1.0, cells: 8}", _SMALL_INITIAL, "kind"),
        (_SMALL_GRID, "{type: [cosine]}", "type"),
        ("{kind: interval, lo: 0.0, hi: 1.0, cells: .inf}", _SMALL_INITIAL, "cells"),
        ("{kind: interval, lo: 0.0, hi: 1.0, cells: 2.7}", _SMALL_INITIAL, "cells"),
        ("{kind: rectangle, lo: [0, 0], hi: [1, 1], cells: [4, 4.5]}", _SMALL_INITIAL, "cells"),
        ("{kind: radial, dimension: 3.5, radius: 1.0, cells: 8}", _SMALL_INITIAL, "dimension"),
        (_SMALL_GRID, "{type: random_piecewise, seed: 2.5, pieces: 2}", "seed"),
        (_SMALL_GRID, "{type: random_piecewise, seed: 1, pieces: 2.5}", "pieces"),
        ("{kind: sphere, lo: 0.0, hi: 1.0, cells: 8}", _SMALL_INITIAL, "kind"),
        ("{kind: interval, lo: [0], hi: 1.0, cells: 8}", _SMALL_INITIAL, "lo"),
        ("{kind: interval, lo: true, hi: 1.0, cells: 8}", _SMALL_INITIAL, "lo"),
        ("{kind: interval, lo: 0.0, hi: .inf, cells: 8}", _SMALL_INITIAL, "hi"),
        ("{kind: rectangle, lo: [0, '0'], hi: [1, 1], cells: [4, 4]}", _SMALL_INITIAL, "lo"),
        ("{kind: rectangle, lo: [0, 0], hi: [1, .nan], cells: [4, 4]}", _SMALL_INITIAL, "hi"),
        ("{kind: radial, dimension: 3, radius: .nan, cells: 8}", _SMALL_INITIAL, "radius"),
        ("{kind: interval, lo: 0.0, hi: 1.0, cells: 1000000000}", _SMALL_INITIAL, "cells"),
        ("{kind: rectangle, lo: [0, 0], hi: [1, 1], cells: [100000, 100000]}",
         _SMALL_INITIAL, "cells"),
        (_SMALL_GRID, "{type: cosine, amplitude: [1]}", "amplitude"),
        (_SMALL_GRID, "{type: cosine, amplitude: true}", "amplitude"),
        (_SMALL_GRID, "{type: step, position: [0.5]}", "position"),
        (_SMALL_GRID, "{type: step, position: '0.5'}", "position"),
        (_SMALL_GRID, "{type: step, left: .nan}", "left"),
        (_SMALL_GRID, "{type: step, right: [1]}", "right"),
        (_SMALL_GRID, "{type: constant, value: '1'}", "value"),
        (_SMALL_GRID, "{type: quarter_circles, c: [1]}", "c"),
        (_SMALL_GRID, "{type: capped_inverse, cap: .inf}", "cap"),
        (_SMALL_GRID, "{type: random_piecewise, amplitude: false}", "amplitude"),
    ],
    ids=["experiment-list", "kind-list", "type-list", "cells-inf", "cells-float",
         "rectangle-cells-float", "dimension-float", "seed-float", "pieces-float",
         "kind-unknown", "lo-list", "lo-bool", "hi-inf", "rectangle-lo-string",
         "rectangle-hi-nan", "radius-nan", "cells-huge", "rectangle-cells-huge",
         "amplitude-list", "amplitude-bool", "position-list", "position-string",
         "left-nan", "right-list", "value-string", "c-list", "cap-inf",
         "random-amplitude-bool"],
)
def test_cli_rejects_malformed_config_values(tmp_path, capsys, grid, initial, key):
    experiment = "[quarter_circles]" if key == "experiment" else "custom"
    path = write_config(
        tmp_path,
        f"experiment: {experiment}\ngrid: {grid}\ninitial: {initial}\n"
        "tau: 5.0e-3\nt_end: 1.0e-2\n",
    )
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "out").exists()


_GRID_TEMPLATE = "grid: {{kind: interval, lo: 0.0, hi: {}, cells: 40}}\n"


@pytest.mark.parametrize(
    "key, written, fixed, value",
    [
        ("tau", "tau: 1e-3\n", "tau: 1.0e-3\n", 1e-3),
        ("hi", _GRID_TEMPLATE.format("2e0"), _GRID_TEMPLATE.format("2.0e+0"), 2.0),
        ("tau", "tau: 1.0e3\n", "tau: 1.0e+3\n", 1e3),
    ],
    ids=["tau", "grid-hi", "unsigned-exponent"],
)
def test_yaml_1_1_exponent_strings_get_a_hint(tmp_path, capsys, key, written, fixed, value):
    # YAML 1.1 floats need a dot and a signed exponent; a string that float()
    # reads is rejected with that hint, and the form it names loads
    path = write_config(tmp_path, CUSTOM_SMALL + written)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be a number" in err and "YAML 1.1 reads" in err
    assert not (tmp_path / "out").exists()
    cfg = load_config(write_config(tmp_path, CUSTOM_SMALL + fixed))
    assert (cfg.grid["hi"] if key == "hi" else cfg.tau) == value


@pytest.mark.parametrize("value", ["fast", "nan", "inf"])
def test_non_numeric_strings_get_no_yaml_hint(tmp_path, value):
    with pytest.raises(ConfigError, match=f"got '{value}'$"):
        load_config(write_config(tmp_path, f"experiment: quarter_circles\ntau: {value}\n"))


@pytest.mark.parametrize(
    "grid",
    [
        "{kind: interval, lo: 0.0, hi: 1.0, cells: 8}",
        "{kind: rectangle, lo: [0.0, 0.0], hi: [1.0, 1.0], cells: [8, 8]}",
    ],
    ids=["interval", "rectangle"],
)
def test_overflowing_initial_data_is_rejected_before_writing(tmp_path, capsys, grid):
    # 1 + |K u|^2 overflows from the face slope sqrt(float max) on; such
    # data exits 2 naming that limit, with no --out and no numpy warning
    path = write_config(
        tmp_path,
        f"experiment: custom\ngrid: {grid}\ninitial: {{type: cosine, amplitude: 1.0e+300}}\n"
        "tau: 1.0e-3\nt_end: 2.0e-2\n",
    )
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: initial data too steep") and "sqrt(float max) = 1.341e+154" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("tau", "-1.0"),
        ("t_end", "-1.0"),
        ("kappa", "-0.5"),
    ],
)
def test_cli_rejects_bad_solver_settings_before_writing(tmp_path, capsys, key, value):
    # YAML keeps the last value of a repeated key, so these override CUSTOM_SMALL
    path = write_config(tmp_path, f"{CUSTOM_SMALL}{key}: {value}\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_snapshots_that_would_share_a_file_are_rejected_before_writing(tmp_path, capsys):
    # both snapshot times print as 0.000000 in the file name
    text = f"{CUSTOM_SMALL}tau: 1.0e-7\nt_end: 2.0e-7\nsnapshot_times: [1.0e-7, 2.0e-7]\n"
    path = write_config(tmp_path, text)
    message = "snapshot_times 1e-07 and 2e-07 both write snapshot_t0.000000.csv"
    with pytest.raises(ConfigError, match=message):
        run(load_config(path), tmp_path / "out")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value", [("theta", "0.5"), ("check_every", "8"), ("sigma", "null"), ("s", "null")]
)
def test_step_size_keys_are_rejected_on_every_grid(tmp_path, capsys, key, value):
    # the rectangle loop derives its step sizes from tau, and the one-axis
    # Newton solve takes none: a config file cannot set them on any grid
    grids = {
        "interval": "{kind: interval, lo: 0.0, hi: 1.0, cells: 8}",
        "radial": "{kind: radial, dimension: 3, radius: 1.0, cells: 8}",
        "rectangle": "{kind: rectangle, lo: [0.0, 0.0], hi: [1.0, 1.0], cells: [4, 4]}",
    }
    for kind, grid in grids.items():
        path = write_config(
            tmp_path,
            f"experiment: custom\ngrid: {grid}\ninitial: {{type: cosine}}\n"
            f"tau: 5.0e-3\nt_end: 1.0e-2\n{key}: {value}\n",
        )
        out = tmp_path / f"out-{kind}"
        assert main(["run", str(path), "--out", str(out)]) == 2, kind
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config keys") and repr(key) in err
        assert not out.exists()


def test_null_position_is_the_midpoint(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            "experiment: custom\ngrid: {kind: interval, lo: 0.0, hi: 1.0, cells: 8}\n"
            "initial: {type: step, left: 0, right: 1, position: null}\n"
            "tau: 5.0e-3\nt_end: 5.0e-3\nsnapshot_times: [0.0]\n",
        )
    )
    _, u, _ = run(cfg, tmp_path / "out").trajectory.snapshot_at(0.0)
    assert list(u.values) == [0.0] * 4 + [1.0] * 4


@pytest.mark.parametrize("unusable", ["config", "out"])
def test_cli_rejects_unusable_paths_before_evolving(tmp_path, monkeypatch, capsys, unusable):
    monkeypatch.setattr(runner_module, "evolve", lambda *a, **kw: pytest.fail("evolved"))
    config = write_config(tmp_path, CUSTOM_SMALL)
    out = tmp_path / "out"
    if unusable == "config":
        config = tmp_path / "a_directory"
        config.mkdir()
    else:
        out.write_text("an existing file\n")
    assert main(["run", str(config), "--out", str(out)]) == 2
    bad = config if unusable == "config" else out
    assert str(bad) in capsys.readouterr().err


def test_cli_rejects_a_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_reports_solver_breakdown(tmp_path, capsys):
    path = write_config(
        tmp_path,
        "experiment: custom\n"
        "grid: {kind: interval, lo: 0.0, hi: 1.0, cells: 50}\n"
        "initial: {type: step, left: 0.0, right: 1.0}\n"
        "tau: 1.0e-3\n"
        "t_end: 2.0e-3\n"
        "inner_tol: 1.0e-12\n"
        "max_inner: 1\n",
    )
    rc = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error" in err
    # where it failed: the first step, at t = tau
    assert "step 1 at t = 0.001" in err


def test_cli_maps_gate_failure_to_exit_one(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, CUSTOM_SMALL)
    real_run = runner_module.run

    def failing_run(cfg, out_dir):
        report = real_run(cfg, out_dir)
        return dataclasses.replace(report, passed=False)

    monkeypatch.setattr(runner_module, "run", failing_run)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1


def test_cli_verify_prints_margin_and_location(tmp_path, monkeypatch, capsys):
    import pmsflow.acceptance

    verdicts = [
        Verdict("first", True, -0.25, "t = 0.4", 0.0, "first detail"),
        Verdict("second", False, 1.5, "pair 3 at step 7", 0.0, "second detail"),
    ]
    monkeypatch.setattr(
        pmsflow.acceptance, "run_acceptance", lambda seed, progress: verdicts
    )
    assert main(["verify", "--out", str(tmp_path)]) == 1
    lines = (tmp_path / "verify_report.txt").read_text().splitlines()
    assert lines == [
        "PASS first: margin -2.500e-01 at t = 0.4; first detail",
        "FAIL second: margin 1.500e+00 at pair 3 at step 7; second detail",
        "overall: FAIL",
    ]
    assert capsys.readouterr().out.splitlines() == lines


def test_cli_seed_override_changes_seeded_data(tmp_path, capsys):
    base = (
        "experiment: custom\n"
        "grid: {kind: interval, lo: 0.0, hi: 1.0, cells: 24}\n"
        "initial: {type: random_piecewise, seed: 7, pieces: 4, amplitude: 1.0}\n"
        "tau: 2.0e-3\n"
        "t_end: 1.0e-2\n"
    )
    path = write_config(tmp_path, base)
    assert main(["run", str(path), "--out", str(tmp_path / "a"), "--seed", "3"]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "b"), "--seed", "3"]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "c"), "--seed", "4"]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "series.csv").read_bytes()
    b = (tmp_path / "b" / "series.csv").read_bytes()
    c = (tmp_path / "c" / "series.csv").read_bytes()
    assert a == b
    assert a != c


def test_cli_seed_note_for_unseeded_data(tmp_path, capsys):
    path = write_config(tmp_path, CUSTOM_SMALL)
    rc = main(["run", str(path), "--out", str(tmp_path / "out"), "--seed", "5"])
    assert rc == 0
    assert "--seed ignored" in capsys.readouterr().err


def test_cli_prints_the_config_reference(capsys):
    assert main(["print-config-reference"]) == 0
    text = capsys.readouterr().out
    for key in (
        "experiment", "quarter_circles", "radial_spike", "smooth_cosine",
        "grid", "initial", "tau", "t_end", "snapshot_times", "kappa",
        "inner_tol", "max_inner",
    ):
        assert key in text


def test_printed_reference_is_the_quarter_circles_preset(tmp_path, capsys):
    assert main(["print-config-reference"]) == 0
    path = write_config(tmp_path, capsys.readouterr().out)
    assert load_config(path) == runner_module._resolve("quarter_circles", {})


def test_report_json_is_strict_json(tmp_path, capsys):
    # a one-step smooth run has no ut_sup increment to bound: its worst
    # value is -inf, which strict JSON writes as null
    path = write_config(tmp_path, "experiment: smooth_cosine\nt_end: 1.0e-3\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    text = (tmp_path / "out" / "report.json").read_text()
    doc = json.loads(text, parse_constant=reject)
    gate = next(g for g in doc["gates"] if g["name"] == "ut_sup_monotone")
    assert gate["worst_violation"] is None and gate["passed"] is True


# ------------------------------------------------------- jump disappearance


def test_quarter_circle_run_reports_the_regularization_time(tmp_path, capsys):
    # with unit jump height the measured jump falls below the 0.3 detection
    # threshold near t = 0.5 on this grid
    path = write_config(
        tmp_path, "experiment: quarter_circles\nt_end: 1.0\n"
    )
    rc = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    capsys.readouterr()
    with open(tmp_path / "out" / "report.json") as fh:
        doc = json.load(fh)
    assert doc["passed"] is True
    assert 0.4 <= doc["regularization_time"] <= 0.6
    text = (tmp_path / "out" / "report.txt").read_text()
    assert "regularization time" in text
