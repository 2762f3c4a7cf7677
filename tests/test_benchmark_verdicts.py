"""The benchmark workloads' verdicts at the default master seed equal the ones
perfbench/baseline.json records.

perfbench/run.py compares a workload's record count and verdict digest with
the baseline only while the workload's payload fingerprint is the recorded
one; a change that moves payload bits on purpose turns that gate off until the
baseline is recorded again.  This test keeps it on: it compares verdicts
whatever the fingerprints, and reads the baseline without editing it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from ksgnslab import harness
from ksgnslab.numkernel import Tolerance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = perfbench_module("run")
WORKLOADS = perfbench_module("workloads")
BASELINE = json.loads((PERFBENCH / "baseline.json").read_text())["workloads"]


@pytest.mark.parametrize("workload", RUN.WORKLOADS)
def test_workload_verdicts_match_the_baseline(workload):
    recorded = BASELINE[workload]
    master = WORKLOADS.DEFAULT_MASTER_SEED
    assert recorded["master_seed"] == master
    tol = Tolerance()
    records = [
        r
        for suite, payload in WORKLOADS.build(workload, master)
        for r in harness.check_instance(suite, payload, tol)
    ]
    assert len(records) == recorded["records"]
    assert RUN.verdict_digest(records) == recorded["digest"]
