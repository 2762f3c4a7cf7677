"""Time the row split against the whole-Gram quotient, per pre-space width.

Collects the tensor_quotients stacks whose left factors are A over itself
from one check pass of each named workload, then times each stack both
ways in this process (best of 2 x 3 calls, ROW_SPLIT_MIN_DIM set to 0 and
out of reach) and prints the mean per (width, blocks of A).  This is the
measurement behind cp.ROW_SPLIT_MIN_DIM.

    PYTHONPATH=src python scripts/split_widths.py suites-default prespace-cap

Run it with one BLAS thread (OPENBLAS_NUM_THREADS=1) for steadier numbers.
"""

import argparse
import collections
import importlib
import importlib.util
import time
from pathlib import Path

from ksgnslab import cp, harness
from ksgnslab.numkernel import DEFAULT_TOL

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def collect(names: list[str]) -> list[tuple]:
    """The arguments of every A-over-itself tensor_quotients call of one check pass."""
    workloads, real, stacks = load_workloads(), cp.tensor_quotients, []
    callers = (cp, importlib.import_module("ksgnslab.ksgns"))

    def recording(E, F, pi, tol, memo):
        if cp.over_itself(E, memo):
            stacks.append((E, F, pi, tol, memo))
        return real(E, F, pi, tol, memo)

    for module in callers:
        module.tensor_quotients = recording
    try:
        for name in names:
            for suite, payload in workloads.build(name, workloads.DEFAULT_MASTER_SEED):
                harness.check_instance(suite, payload, DEFAULT_TOL)
    finally:
        for module in callers:
            module.tensor_quotients = real
    return stacks


def best(args: tuple, threshold: int) -> float:
    cp.ROW_SPLIT_MIN_DIM, out = threshold, float("inf")
    for _ in range(3):
        start = time.perf_counter()
        cp.tensor_quotients(*args)
        out = min(out, time.perf_counter() - start)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    names = parser.parse_args().workloads
    saved, totals = cp.ROW_SPLIT_MIN_DIM, collections.defaultdict(lambda: [0, 0.0, 0.0])
    for args in collect(names):
        E, F = args[0], args[1]
        row = min(best(args, 0), best(args, 0))
        whole = min(best(args, 10**9), best(args, 10**9))
        entry = totals[E[0].dim * F[0].dim, E[0].algebra.blocks]
        entry[0] += 1
        entry[1] += row
        entry[2] += whole
    cp.ROW_SPLIT_MIN_DIM = saved
    for (width, blocks), (n, row, whole) in sorted(totals.items()):
        print(f"width {width:3d}  A blocks {str(blocks):9}  stacks {n:4d}  "
              f"row {1e6 * row / n:7.0f} us  whole {1e6 * whole / n:7.0f} us  "
              f"{100 * (row / whole - 1):+5.0f}%")


if __name__ == "__main__":
    main()
