#!/usr/bin/env python3
"""Fixed cost of the structured tensor builds of a check pass, per quotient path.

cp.tensor_quotients builds every interior tensor E (x)_pi F and KSGNS space
A (x)_phi E of a check pass, and most of its builds are a few slices wide, so
their cost is Python and numpy overhead more than LAPACK.  For each perfbench
workload named (all three by default) at the default master seed, with BLAS
pinned to one thread, this runs one check pass to warm the process's block-size
structure, records the arguments of every tensor_quotients call of a second
pass, and replays them warm, grouped by the path the structure picks: rows (E
an algebra over itself, the KSGNS row copies), columns (F an algebra over
itself, the closed form) and null (the whole Grams).  Per path it prints the
builds, the slices, the Python-level calls per build (cProfile's total over
one replay), microseconds per build (the best of several replays) and the
share of that time spent in LAPACK's eigh.  src is left untouched.  Run from
the repository root:

    python3 scripts/quotient_costs.py [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("suites-default", "prespace-cap", "equivariant-dilation")
PATHS = ("rows", "columns", "null")
REPEATS = 7  # replays per path; the best is reported


def over_itself(M) -> bool:
    """Whether every module of M is its coefficient algebra over itself, dim > 1."""
    from ksgnslab.hilbert import algebra_module, same_module

    C = M[0].algebra
    return C.dim > 1 and all(same_module(m, algebra_module(C)) for m in M)


def path_of(E, F) -> str:
    """The quotient path tensor_quotients takes from the structure of its factors."""
    return "rows" if over_itself(E) else "columns" if over_itself(F) else "null"


def recorded_builds(tasks: list[tuple[str, dict]]) -> dict[str, list[tuple]]:
    """{path: [(E, F, pi, tol), ...]}: the tensor_quotients calls of one check
    pass of tasks, each (suite, payload) through harness.check_instance."""
    from ksgnslab import cp, harness
    from ksgnslab.numkernel import Tolerance

    ksgns = sys.modules["ksgnslab.ksgns"]  # the package's `ksgns` is the function
    calls, real = [], cp.tensor_quotients

    def recording(E, F, pi, tol):
        calls.append((list(E), list(F), list(pi), tol))
        return real(E, F, pi, tol)

    cp.tensor_quotients = ksgns.tensor_quotients = recording
    try:
        for suite, payload in tasks:
            harness.check_instance(suite, payload, Tolerance())
    finally:
        cp.tensor_quotients = ksgns.tensor_quotients = real
    builds: dict[str, list[tuple]] = {p: [] for p in PATHS}
    for call in calls:
        builds[path_of(call[0], call[1])].append(call)
    return builds


def replay(builds: list[tuple]) -> float:
    """Seconds to run tensor_quotients on every recorded call once."""
    from ksgnslab import cp

    start = time.perf_counter()
    for call in builds:
        cp.tensor_quotients(*call)
    return time.perf_counter() - start


def python_calls(builds: list[tuple]) -> int:
    """cProfile's count of Python-level calls over one replay."""
    profile = cProfile.Profile()
    profile.runcall(replay, builds)
    return pstats.Stats(profile).total_calls


def eigh_seconds(builds: list[tuple]) -> tuple[float, float]:
    """(seconds in LAPACK's eigh, seconds in all) over one replay."""
    from ksgnslab import numkernel

    spent, real = [0.0], numkernel.lapack

    def timing(kernel, a):
        start = time.perf_counter()
        try:
            return real(kernel, a)
        finally:
            if kernel == "eigh_lo":
                spent[0] += time.perf_counter() - start

    numkernel.lapack = timing
    try:
        total = replay(builds)
    finally:
        numkernel.lapack = real
    return spent[0], total


def path_costs(builds: list[tuple]) -> dict:
    """builds, slices, calls per build, us per build and eigh share of one path."""
    n = len(builds)
    if not n:
        return {"builds": 0, "slices": 0, "calls": 0.0, "us": 0.0, "eigh": 0.0}
    replay(builds)  # warm
    best = min(replay(builds) for _ in range(REPEATS))
    eigh, total = min((eigh_seconds(builds) for _ in range(3)), key=lambda x: x[1])
    calls = python_calls(builds) - 1  # less the replay itself
    return {"builds": n, "slices": sum(len(E) for E, *_ in builds), "calls": calls / n,
            "us": 1e6 * best / n, "eigh": eigh / total}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help=", ".join(WORKLOADS))
    args = parser.parse_args(argv)
    # the builds follow the instances, which follow the BLAS thread count
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    for name in args.workloads or WORKLOADS:
        tasks = workloads.build(name, workloads.DEFAULT_MASTER_SEED)
        recorded_builds(tasks)  # the warm-up pass
        builds = recorded_builds(tasks)
        print(f"{name} @ {workloads.DEFAULT_MASTER_SEED}")
        print(f"  {'path':8} {'builds':>7} {'slices':>7} {'calls':>7} {'us':>8} {'eigh':>6}")
        for path in PATHS:
            c = path_costs(builds[path])
            print(f"  {path:8} {c['builds']:7d} {c['slices']:7d} {c['calls']:7.0f} "
                  f"{c['us']:8.0f} {c['eigh']:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
