"""Full acceptance gate: all ten criteria at their stated tolerances.

The suite is executed once per session; each test below reports one
criterion with a single PASS or FAIL line.  Run with ``-s`` to watch the
per-criterion progress while the suite executes (about 4.5 s on one core
of a 2-core Intel Xeon).  The first test checks how ``run_acceptance``
turns the criteria table into Verdicts, on stub criteria and a stub clock,
in no time.
"""

import pytest

import pmsflow.acceptance as acceptance
from pmsflow.acceptance import CRITERIA_NAMES, run_acceptance


def test_run_acceptance_builds_verdicts_from_the_table(monkeypatch):
    budgets = {i + 1: b for i, (_, _, b) in enumerate(acceptance._CRITERIA) if b}
    assert budgets == {1: 120.0, 2: 240.0, 7: 30.0, 9: 180.0}
    assert CRITERIA_NAMES == tuple(name for name, _, _ in acceptance._CRITERIA)

    now = [0.0]
    calls = []

    def stub(name, margin, seconds):
        def check(ws):
            calls.append(name)
            now[0] += seconds
            return margin, f"at {name}", f"{name} detail"

        return check

    audit = "conservation_and_dissipation"
    table = (
        ("first", stub("first", -1.0, 1.0), 5.0),
        (audit, stub(audit, 0.0, 1.0), None),
        ("slow", stub("slow", -1.0, 10.0), 5.0),
        ("failing", stub("failing", 0.5, 1.0), None),
    )
    monkeypatch.setattr(acceptance, "_CRITERIA", table)
    monkeypatch.setattr(acceptance, "perf_counter", lambda: now[0])
    lines = []
    verdicts = run_acceptance(seed=0, progress=lines.append)

    assert calls == ["first", "slow", "failing", audit]
    assert [v.name for v in verdicts] == [name for name, _, _ in table]
    assert [v.passed for v in verdicts] == [True, True, False, False]
    assert [v.worst_violation for v in verdicts] == [-1.0, 0.0, -1.0, 0.5]
    assert all(v.tolerance == 0.0 for v in verdicts)
    assert verdicts[1].location == f"at {audit}"
    # a passing margin does not rescue a criterion that overran its budget
    assert verdicts[2].detail == "slow detail; elapsed 10.0s EXCEEDS budget 5s"
    assert verdicts[0].detail == "first detail; elapsed 1.0s"
    assert lines[-1] == "[ 2/4] conservation_and_dissipation: PASS (1.0s)"


@pytest.fixture(scope="session")
def verdicts():
    return run_acceptance(seed=0, progress=print)


def _report(verdicts, index):
    v = verdicts[index - 1]
    assert v.name == CRITERIA_NAMES[index - 1]
    status = "PASS" if v.passed else "FAIL"
    print(f"criterion {index:2d} {v.name}: {status} ({v.detail})")
    assert v.passed, f"criterion {index} {v.name}: {v.detail}"


def test_criterion_01_quarter_circle_accuracy(verdicts):
    _report(verdicts, 1)


def test_criterion_02_jump_persistence(verdicts):
    _report(verdicts, 2)


def test_criterion_03_unit_vertical_speed(verdicts):
    _report(verdicts, 3)


def test_criterion_04_conservation_and_dissipation(verdicts):
    _report(verdicts, 4)


def test_criterion_05_velocity_decay(verdicts):
    _report(verdicts, 5)


def test_criterion_06_smooth_flattening(verdicts):
    _report(verdicts, 6)


def test_criterion_07_small_problem_exactness(verdicts):
    _report(verdicts, 7)


def test_criterion_08_contraction(verdicts):
    _report(verdicts, 8)


def test_criterion_09_steep_spike_persistence(verdicts):
    _report(verdicts, 9)


def test_criterion_10_grid_convergence(verdicts):
    _report(verdicts, 10)
