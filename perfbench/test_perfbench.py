"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They use one contraction pair instead of ten, so they take seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pmsflow  # noqa: E402
from tracer import Tracer, traced_names  # noqa: E402
from workloads import pairs_check, pairs_execute, pairs_setup  # noqa: E402


def run_pairs(seed: int, tmp_path: Path, pairs: int = 1):
    inputs = pairs_setup(pmsflow, seed, pairs=pairs)
    outputs = pairs_execute(pmsflow, inputs, tmp_path)
    return inputs, pairs_check(pmsflow, inputs, outputs, tmp_path)


def test_two_runs_give_identical_counts(tmp_path):
    _, first = run_pairs(7, tmp_path)
    _, second = run_pairs(7, tmp_path)
    assert first.failures == [] and second.failures == []
    assert first.inner_iters > 0
    counts = ("steps", "inner_iters", "inner_iters_max", "cert_checks", "attempted")
    assert [getattr(first, c) for c in counts] == [getattr(second, c) for c in counts]
    assert first.digests == second.digests


def _namespace_snapshot():
    owners = {id(owner): owner for owner, _, _ in traced_names(pmsflow)}
    return {key: dict(vars(owner)) for key, owner in owners.items()}


def _assert_same_objects(before, after):
    assert before.keys() == after.keys()
    for key, names in before.items():
        assert names.keys() == after[key].keys()
        for name, value in names.items():
            assert after[key][name] is value, name


def test_tracer_leaves_the_modules_unchanged(tmp_path):
    before = _namespace_snapshot()
    with Tracer(pmsflow) as tracer:
        assert pmsflow.solver.implicit_step is not before[id(pmsflow.solver)]["implicit_step"]
        run_pairs(3, tmp_path)
    _assert_same_objects(before, _namespace_snapshot())
    summary = tracer.summary()
    assert summary["solver.implicit_step"]["calls"] == 2 * 20
    assert summary["diagnostics.check_contraction"]["calls"] == 1
    assert tracer.dual_radius_entries == 63 * summary["energy.dual_radius"]["calls"]

    # An exception inside the traced region still restores every name.
    with pytest.raises(ZeroDivisionError):
        with Tracer(pmsflow):
            1 / 0
    _assert_same_objects(before, _namespace_snapshot())


def test_workload_seed_changes_contraction_data(tmp_path):
    inputs_a, outcome_a = run_pairs(1, tmp_path)
    inputs_b, outcome_b = run_pairs(2, tmp_path)
    (a0, a1), (b0, b1) = inputs_a.data[0], inputs_b.data[0]
    assert not np.array_equal(a0.values, b0.values)
    assert not np.array_equal(a1.values, b1.values)
    assert outcome_a.failures == [] and outcome_b.failures == []
    assert outcome_a.digests != outcome_b.digests
