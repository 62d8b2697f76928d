"""Smoke test of the benchmark's contract with the package.

perfbench/workloads.py calls the package's API directly, and its cli_mix
workload runs the CLI; a change to either would show there only as failed
ops.  This runs the first ops of one round of each in-process workload, and
one cli_mix op per command of a few, and asserts that the workload's own
check finds no failures.  It changes nothing under perfbench/.
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


# the cli_mix commands run here, one subprocess each: the ones whose output
# reads a record's fields or prints a table
CLI_MIX_COMMANDS = [
    ("brieskorn", "class"),
    ("xi", "table"),
    ("ring", "restrict"),
    ("ideal", "info"),
    ("bounds", "split"),
    ("bauer", "check"),
]


def test_cli_mix_ops_pass_their_checks(workloads):
    workload = workloads.WORKLOADS["cli_mix"](1)
    first = {}
    for op in next(iter(workload.rounds())):
        first.setdefault(tuple(op[0][:2]), op)
    batch = [first[command] for command in CLI_MIX_COMMANDS]
    outcomes = [workload.run(op) for op in batch]
    assert workload.check(batch, outcomes) == []
