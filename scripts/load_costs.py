#!/usr/bin/env python3
"""Time a check pass spends reading its payloads, per suite and per loader.

Every checker reads its instance back from the payload's JSON-shaped data
through `serialize.load_*` before it builds anything.  For each perfbench
workload named (`suites-default` and `equivariant-dilation` by default) at
the default master seed, with BLAS pinned to one thread, this runs one check
pass to warm the process's tables, then times the outermost `serialize.load_*`
calls (a loader called by another loader is part of its caller's time) of
several more passes.  Per suite it prints the outermost load calls, their
milliseconds, the suite's check milliseconds and the load share; per loader
its outermost calls and microseconds per call.  Times are the best of the
passes, per suite and per loader.  src is left untouched.  Run from the
repository root:

    python3 scripts/load_costs.py [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("suites-default", "equivariant-dilation")
REPEATS = 5  # timed passes; the best is reported


def timed_pass(tasks: list[tuple[str, dict]]) -> tuple[dict, dict]:
    """({suite: [load s, load calls, check s]}, {loader: [s, calls]}) of one
    check pass of tasks, each (suite, payload) through harness.check_instance,
    counting only outermost serialize.load_* calls."""
    from ksgnslab import harness, serialize
    from ksgnslab.numkernel import Tolerance

    loaders = {name: fn for name, fn in vars(serialize).items()
               if name.startswith("load") and callable(fn)}
    suites: dict[str, list] = {}
    by_loader = {name: [0.0, 0] for name in loaders}
    depth, current = [0], [None]

    def wrap(name, fn):
        def timed(*args, **kwargs):
            depth[0] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    spent = time.perf_counter() - start
                    by_loader[name][0] += spent
                    by_loader[name][1] += 1
                    suites[current[0]][0] += spent
                    suites[current[0]][1] += 1
        return timed

    patches = []
    for key, module in list(sys.modules.items()):
        if key == "ksgnslab" or key.startswith("ksgnslab."):
            for attr, value in list(vars(module).items()):
                for name, fn in loaders.items():
                    if value is fn:
                        patches.append((module, attr, value))
                        setattr(module, attr, wrap(name, fn))
    try:
        for suite, payload in tasks:
            current[0] = suite
            entry = suites.setdefault(suite, [0.0, 0, 0.0])
            start = time.perf_counter()
            harness.check_instance(suite, payload, Tolerance())
            entry[2] += time.perf_counter() - start
    finally:
        for module, attr, value in patches:
            setattr(module, attr, value)
    return suites, {name: cost for name, cost in by_loader.items() if cost[1]}


def load_costs(tasks: list[tuple[str, dict]], repeats: int = REPEATS) -> tuple[dict, dict]:
    """timed_pass of tasks after one warm-up pass, each time the best of
    `repeats` passes (per suite, per loader and for the suite's check time)."""
    timed_pass(tasks)
    passes = [timed_pass(tasks) for _ in range(repeats)]
    suites = {s: [min(p[0][s][0] for p in passes), passes[0][0][s][1],
                  min(p[0][s][2] for p in passes)] for s in passes[0][0]}
    loaders = {n: [min(p[1][n][0] for p in passes), passes[0][1][n][1]] for n in passes[0][1]}
    return suites, loaders


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help="perfbench workloads (default: " + ", ".join(WORKLOADS) + ")")
    args = parser.parse_args(argv)
    # the instances follow the BLAS thread count
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    for name in args.workloads or WORKLOADS:
        suites, loaders = load_costs(workloads.build(name, workloads.DEFAULT_MASTER_SEED))
        print(f"{name} @ {workloads.DEFAULT_MASTER_SEED}, best of {REPEATS} warm passes")
        print(f"  {'suite':12} {'loads':>6} {'load ms':>8} {'check ms':>9} {'share':>6}")
        for suite, (load_s, calls, check_s) in suites.items():
            print(f"  {suite:12} {calls:6d} {1e3 * load_s:8.2f} {1e3 * check_s:9.2f} "
                  f"{load_s / check_s:6.1%}")
        load_s, check_s = (sum(c[i] for c in suites.values()) for i in (0, 2))
        calls = sum(c[1] for c in suites.values())
        print(f"  {'all':12} {calls:6d} {1e3 * load_s:8.2f} {1e3 * check_s:9.2f} "
              f"{load_s / check_s:6.1%}")
        print(f"  {'loader':20} {'calls':>6} {'us each':>8} {'ms':>7}")
        for loader, (spent, n) in sorted(loaders.items(), key=lambda x: -x[1][0]):
            print(f"  {loader:20} {n:6d} {1e6 * spent / n:8.1f} {1e3 * spent:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
