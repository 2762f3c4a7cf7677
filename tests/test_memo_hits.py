"""scripts/memo_hits.py: requests and builds of the build memo per key kind."""

import importlib.util
from pathlib import Path

import pytest

from ksgnslab.harness import SizeCaps, generate_instance, instance_seed

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "memo_hits.py"


@pytest.fixture(scope="module")
def memo_hits():
    spec = importlib.util.spec_from_file_location("memo_hits", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_two_category_tasks(memo_hits):
    # category composites are built directly, so no key of theirs reaches the memo
    seeds = [instance_seed(20250809, "category", idx) for idx in range(2)]
    tasks = [("category", generate_instance("category", SizeCaps(), seed)) for seed in seeds]
    counts = memo_hits.memo_counts(tasks)
    assert {"tensor", "extend", "left_mult"} <= counts.keys()
    assert "compose" not in counts
    assert all(requests >= builds > 0 for requests, builds in counts.values()), counts
