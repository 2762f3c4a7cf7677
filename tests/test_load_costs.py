"""scripts/load_costs.py: the outermost payload loads of a check pass, per suite and loader."""

import importlib.util
from pathlib import Path

from ksgnslab.harness import SizeCaps, generate_instance, instance_seed

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "load_costs.py"


def test_times_the_outermost_loads_of_a_continuity_and_an_equivariant_task():
    spec = importlib.util.spec_from_file_location("load_costs", SCRIPT)
    load_costs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(load_costs)
    tasks = [(suite, generate_instance(suite, SizeCaps(), instance_seed(20250809, suite, 0)))
             for suite in ("continuity", "equivariant")]
    suites, loaders = load_costs.load_costs(tasks, repeats=2)
    # continuity: two modules, two CP maps, input_algebra (read against the
    # maps), the path's matrices and automorphisms, the samples' vectors and
    # elements; equivariant: one load
    assert {s: calls for s, (_, calls, _) in suites.items()} == {"continuity": 9, "equivariant": 1}
    assert all(0 < load_s < check_s for load_s, _, check_s in suites.values())
    assert loaders["load_equivariant"][1] == 1 and loaders["load_automorphisms"][1] == 1
    assert "load_elements" in loaders and "load_star_maps" not in loaders
    assert all(spent > 0 for spent, _ in loaders.values())
