"""Config loading, run outputs, and the command line interface."""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

import pmsflow.runner as runner_module
from pmsflow.diagnostics import Verdict
from pmsflow.grid import build_grid
from pmsflow.runner import ConfigError, RunConfig, load_config, main, run
from pmsflow.solver import SolverConfig, operator_norm_bound


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


@pytest.mark.parametrize(
    "experiment, ratio",
    [("quarter_circles", 0.03), ("radial_spike", 1e-3), ("smooth_cosine", 3e-3)],
)
def test_presets_run_with_their_step_ratio(tmp_path, monkeypatch, experiment, ratio):
    # the measured s/sigma of each preset, at the largest product s*sigma*L^2 = 1
    seen = []
    monkeypatch.setattr(runner_module, "evolve", lambda u0, t_end, cfg, **kw: seen.append(cfg))
    cfg = load_config(write_config(tmp_path, f"experiment: {experiment}\n"))
    runner_module._evolve_config(cfg)
    (solver_cfg,) = seen
    bound = operator_norm_bound(build_grid(cfg.grid))
    assert solver_cfg.s / solver_cfg.sigma == pytest.approx(ratio, rel=1e-14)
    assert solver_cfg.s * solver_cfg.sigma * bound**2 == pytest.approx(1.0, rel=1e-14)


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
        "max_inner: 50\n",
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
        "inner_tol", "max_inner", "theta", "check_every", "sigma",
    ):
        assert key in text


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
