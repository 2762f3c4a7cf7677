#!/usr/bin/env python3
"""Dump the check records of the benchmark workloads, and diff two dumps.

A change that moves bits has to show which records moved and by how much.
`dump` checks every task of the three perfbench workloads at the default
master seed, plus `suites-default` at master seed 42 (`verify run --seed 42`),
through `harness.check_instance`, with BLAS pinned to one thread, and writes
one row per record:

    (suite, seed, check, theorem, repr(residual), repr(threshold), passed, error)

with each workload's payload fingerprint (the sha256 perfbench/run.py
computes).  `diff` prints, per check name, how many residuals changed and the
largest |delta residual| with its ratio to the threshold, then per workload
the worst residual / threshold of each dump, and exits 1 if any
fingerprint, record count, check name, theorem, threshold, verdict or error
differs.  Run from the repository root:

    python3 scripts/record_diff.py dump parent.json      # in the parent checkout
    python3 scripts/record_diff.py dump change.json
    python3 scripts/record_diff.py diff parent.json change.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the perfbench workloads at the default master seed, then `verify run --seed 42`
WORKLOADS = ("suites-default", "prespace-cap", "equivariant-dilation")
EXTRA_RUNS = (("suites-default", 42),)
# row fields; every one but the residual must match between two dumps
FIELDS = ("suite", "seed", "check", "theorem", "residual", "threshold", "passed", "error")
RESIDUAL, THRESHOLD = FIELDS.index("residual"), FIELDS.index("threshold")


def dump(out: str) -> int:
    # reports are bit-reproducible only at a fixed BLAS thread count
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from ksgnslab import harness
    from ksgnslab import serialize as ser
    from ksgnslab.numkernel import Tolerance

    tol = Tolerance()
    master = workloads.DEFAULT_MASTER_SEED
    plan = [(name, master) for name in WORKLOADS] + list(EXTRA_RUNS)
    runs = []
    for name, seed in plan:
        tasks = workloads.build(name, seed)
        fingerprint = hashlib.sha256(ser.dumps(tasks).encode()).hexdigest()
        rows = [
            [r.suite, r.instance_seed, r.check, r.theorem, repr(r.residual),
             repr(r.threshold), bool(r.passed), r.error]
            for suite, payload in tasks
            for r in harness.check_instance(suite, payload, tol)
        ]
        runs.append({
            "workload": name,
            "master_seed": seed,
            "fingerprint": fingerprint,
            "records": rows,
        })
        print(f"{name} @ {seed}: {len(rows)} records")
    Path(out).write_text(json.dumps({"runs": runs}, indent=0) + "\n")
    return 0


def _delta(old: str, new: str) -> float:
    a, b = float(old), float(new)
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def _worst_ratio(records: list[list]) -> float:
    """The largest residual / threshold over the records with a positive threshold."""
    return max(
        (float(r[RESIDUAL]) / float(r[THRESHOLD]) for r in records if float(r[THRESHOLD]) > 0),
        default=0.0,
    )


def _runs(path: str) -> dict[tuple[str, int], dict]:
    runs = json.loads(Path(path).read_text())["runs"]
    return {(r["workload"], r["master_seed"]): r for r in runs}


def diff(old_path: str, new_path: str) -> int:
    old, new = _runs(old_path), _runs(new_path)
    problems = []
    if old.keys() != new.keys():
        problems.append(f"runs differ: {sorted(old)} vs {sorted(new)}")
    changed: dict[str, list[tuple[float, float]]] = {}
    worst: dict[str, tuple[float, float]] = {}
    total = 0
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        label = f"{key[0]} @ {key[1]}"
        worst[label] = _worst_ratio(a["records"]), _worst_ratio(b["records"])
        if a["fingerprint"] != b["fingerprint"]:
            problems.append(f"{label}: payload fingerprint differs")
        if len(a["records"]) != len(b["records"]):
            problems.append(f"{label}: {len(a['records'])} records vs {len(b['records'])}")
        for i, (ra, rb) in enumerate(zip(a["records"], b["records"])):
            total += 1
            for field, x, y in zip(FIELDS, ra, rb):
                if field != "residual" and x != y:
                    problems.append(f"{label} record {i} ({ra[2]}): {field} {x!r} -> {y!r}")
            if ra[RESIDUAL] != rb[RESIDUAL]:
                d = _delta(ra[RESIDUAL], rb[RESIDUAL])
                threshold = float(rb[FIELDS.index("threshold")])
                ratio = d / threshold if threshold > 0 else math.inf
                changed.setdefault(rb[2], []).append((d, ratio))
    moved = sum(len(v) for v in changed.values())
    print(f"{moved} of {total} records changed in residual")
    if changed:
        print(f"{'check':32} {'changed':>8} {'max |dresidual|':>16} {'/ threshold':>12}")
        for check in sorted(changed):
            d, ratio = max(changed[check])
            print(f"{check:32} {len(changed[check]):8d} {d:16.3e} {ratio:12.3e}")
    print(f"{'workload':32} {'worst residual / threshold, old':>32} {'new':>12}")
    for label, (x, y) in worst.items():
        print(f"{label:32} {x:32.3e} {y:12.3e}")
    for line in problems:
        print(f"MISMATCH {line}")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="write the records of this checkout")
    p_dump.add_argument("out")
    p_diff = sub.add_parser("diff", help="compare two dumps")
    p_diff.add_argument("old")
    p_diff.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.out)
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
