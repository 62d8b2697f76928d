"""Smoke test of the benchmark's contract with the package.

perfbench/workloads.py calls the package's API directly; a change to that
API would show there only as failed ops.  This runs the first ops of one
round of each in-process workload and asserts that the workload's own check
finds no failures.  It changes nothing under perfbench/.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,ops", [("ideal_build", 3), ("ideal_query", 15), ("kappa_sweep", 60)])
def test_first_ops_pass_their_checks(workloads, name, ops):
    workload = workloads.WORKLOADS[name](1)
    batch = next(iter(workload.rounds()))[:ops]
    outcomes = [workload.run(op) for op in batch]
    assert workload.check(batch, outcomes) == []
