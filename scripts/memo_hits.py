#!/usr/bin/env python3
"""Count the build memo's requests and builds per key kind on a check pass.

Whether a builder belongs on the content-keyed build memo is a question of
how often a check pass asks it for content it has already built.  For each
perfbench workload named (all three by default) at the default master seed,
with BLAS pinned to one thread, this runs one check pass to warm the
process's block-size structure, then a second pass with
`memo.BuildMemo.get_all` wrapped, and prints per key kind (a key's first
field: ksgns, tensor, extend, left_mult, check_cp) the slices requested, the
slices built and the hits between them.  src is left untouched.  Run from the
repository root:

    python3 scripts/memo_hits.py [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("suites-default", "prespace-cap", "equivariant-dilation")


def memo_counts(tasks: list[tuple[str, dict]]) -> dict[str, list[int]]:
    """{key kind: [slices requested, slices built]} over one check pass of
    tasks, each (suite, payload) through harness.check_instance."""
    from ksgnslab import harness, memo
    from ksgnslab.numkernel import Tolerance

    counts: dict[str, list[int]] = {}
    real = memo.BuildMemo.get_all

    def counting(self, keys, build):
        def building(todo):
            for i in todo:
                counts[keys[i][0]][1] += 1
            return build(todo)

        for key in keys:
            counts.setdefault(key[0], [0, 0])[0] += 1
        return real(self, keys, building)

    memo.BuildMemo.get_all = counting
    try:
        for suite, payload in tasks:
            harness.check_instance(suite, payload, Tolerance())
    finally:
        memo.BuildMemo.get_all = real
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help=", ".join(WORKLOADS))
    args = parser.parse_args(argv)
    # the counts follow the instances, which follow the BLAS thread count
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    for name in args.workloads or WORKLOADS:
        tasks = workloads.build(name, workloads.DEFAULT_MASTER_SEED)
        memo_counts(tasks)  # the warm-up pass
        counts = memo_counts(tasks)
        print(f"{name} @ {workloads.DEFAULT_MASTER_SEED}")
        print(f"  {'kind':12} {'requests':>9} {'builds':>9} {'hits':>9}")
        for kind, (requests, builds) in sorted(counts.items()):
            print(f"  {kind:12} {requests:9d} {builds:9d} {requests - builds:9d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
