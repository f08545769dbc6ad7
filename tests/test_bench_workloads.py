"""One round of each benchmark workload passes the workload's own checks.

``perfbench/run.py`` rejects a run whose outputs fail these checks, or
whose round raises; a change to the package that the checks refuse, such
as a changed call shape that a check taps, shows here first."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
workloads = importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["ci_pc", "ci_oracle", "anm_polytree", "cli_session"])
def test_one_round_passes_the_workload_checks(name, tmp_path):
    workload = workloads.build(name, 1, 0.01, tmp_path)
    try:
        workload.warm()
        out = workload.round()
        assert workload.check([out]) == []
    finally:
        workload.close()
