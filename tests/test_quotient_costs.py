"""scripts/quotient_costs.py: a check pass's structured tensor builds, replayed per path."""

import importlib.util
from pathlib import Path

import pytest

from ksgnslab.harness import SizeCaps, generate_instance, instance_seed

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "quotient_costs.py"


@pytest.fixture(scope="module")
def quotient_costs():
    spec = importlib.util.spec_from_file_location("quotient_costs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replays_the_builds_of_a_ksgns_and_a_tensor_task(quotient_costs):
    # a KSGNS space takes the row copies; a tensor task builds along C over itself
    tasks = [(suite, generate_instance(suite, SizeCaps(), instance_seed(20250809, suite, 0)))
             for suite in ("ksgns", "tensor")]
    builds = quotient_costs.recorded_builds(tasks)
    assert set(builds) == {"rows", "columns", "null"} and builds["rows"] and builds["columns"]
    for path, calls in builds.items():
        costs = quotient_costs.path_costs(calls)
        assert costs["builds"] == len(calls) and costs["slices"] >= len(calls)
        if calls:
            assert costs["calls"] > 0 and costs["us"] > 0 and 0.0 < costs["eigh"] < 1.0, path
