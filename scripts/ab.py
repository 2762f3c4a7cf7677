#!/usr/bin/env python3
"""A/B benchmark of two commits: alternating perfbench runs and the claim rule.

    python3 scripts/ab.py PARENT CHANGE --workload equivariant-dilation \\
        --pairs 10 --seeds 101-110 --out /tmp/ab

The committed files of each commit are exported (`git archive`) into
OUT/trees/<commit>, so the runs see what a fresh checkout sees and the
repository's working tree and worktree list are left alone.  Pair i runs
`perfbench/run.py --seed s_i --seconds S --trace 0` in both trees, the parent
first on even pairs and the change first on odd ones, so a drift in machine
speed falls on both sides alike.  Per end-to-end metric of BENCHMARK.json it
prints each side's median and quartiles, the pairs the change wins, and the gap
between the medians (positive when the change is better) against the parent's
interquartile range.  A gain may be claimed when the change wins at least 9 in
10 pairs and the gap exceeds the parent's interquartile range.

Each round (one workload's pairs) is written to OUT/<workload>.json with both
commit ids, every run's metrics and machine speed, and the summary.  Last, each
tree's scripts/record_diff.py dumps its records, the change's diffs the two
dumps, and the payload fingerprints of both are printed.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_WINS = 0.9  # the share of pairs the change must win
SPEED = re.compile(r"machine speed ([0-9.]+) of the reference")
PROGRESS = ("verify_s", "setup_s")  # the metrics of each pair's progress line


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), interpolated between order statistics (numpy's default)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[dict]:
    """Per metric (BENCHMARK.json's end_to_end entries: name, better), from the
    metric values of each pair's parent and change runs: both sides' quartiles,
    the pairs the change wins (strictly better), the gap between the medians
    (positive when the change is better), the parent's IQR, and whether the
    claim rule holds: wins >= 90% of the pairs and gap > parent IQR."""
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        old = [run[name] for run in parent]
        new = [run[name] for run in change]
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        wins = sum(sign * (a - b) > 0 for a, b in zip(old, new))
        gap = sign * (om - nm)
        rows.append({
            "metric": name, "parent": (o1, om, o3), "change": (n1, nm, n3),
            "relative": (nm - om) / abs(om) if om else math.nan,
            "wins": wins, "pairs": len(old), "gap": gap, "parent_iqr": o3 - o1,
            "claim": wins >= math.ceil(CLAIM_WINS * len(old)) and gap > o3 - o1,
        })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    lines = [f"{'metric':18} {'parent Q1 / median / Q3':>30} {'change Q1 / median / Q3':>30} "
             f"{'change':>8} {'wins':>6} {'gap':>10} {'parent IQR':>10}  claim"]
    for r in rows:
        old, new = (" / ".join(f"{x:.4g}" for x in r[side]) for side in ("parent", "change"))
        lines.append(
            f"{r['metric']:18} {old:>30} {new:>30} {100 * r['relative']:+7.1f}% "
            f"{r['wins']:>3}/{r['pairs']:<2} {r['gap']:10.4g} {r['parent_iqr']:10.4g}  "
            f"{'holds' if r['claim'] else 'no'}"
        )
    return lines


def seed_list(text: str) -> list[int]:
    """`A-B` (inclusive) or `A`."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def export(commit: str, trees: Path) -> tuple[str, Path]:
    """The full id of commit and a directory holding its committed files."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{commit}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tree = trees / sha[:12]
    if not (tree / "perfbench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return sha, tree


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result object, with the machine speed it printed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited {proc.returncode} in {tree}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    speed = SPEED.search(proc.stdout)
    result["machine_speed"] = float(speed.group(1)) if speed else None
    return result


def round_of_pairs(args, workload: str, sides: list[tuple[str, Path]], metrics: list[dict]) -> dict:
    """args.pairs alternating pairs of runs on one workload, and their summary."""
    seeds = seed_list(args.seeds)
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            sha, tree = sides[0] if side == "parent" else sides[1]
            result = bench(tree, workload, seed, args.seconds)
            runs[side].append({"pair": i, "seed": seed, "position": order.index(side), **result})
        p, c = (runs[side][-1] for side in ("parent", "change"))
        shifts = ", ".join(f"{name} {p['metrics'][name]['value']:.4f} -> "
                           f"{c['metrics'][name]['value']:.4f}" for name in PROGRESS)
        print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: {shifts}"
              f" (speed {p['machine_speed']} / {c['machine_speed']})", flush=True)
    values = {side: [{k: v["value"] for k, v in r["metrics"].items()} for r in rs]
              for side, rs in runs.items()}
    rows = summarize(values["parent"], values["change"], metrics)
    incorrect = [f"{side} pair {r['pair']}" for side, rs in runs.items() for r in rs
                 if not r["correct"] or r["failed"]]
    return {
        "workload": workload, "parent": sides[0][0], "change": sides[1][0],
        "seconds": args.seconds, "runs": runs, "summary": rows, "incorrect": incorrect,
    }


def record_diff(sides: list[tuple[str, Path]], out: Path) -> int:
    """Dump each tree's records with its own record_diff, diff them with the
    change's, and print both dumps' payload fingerprints."""
    dumps = []
    for sha, tree in sides:
        path = out / f"records-{sha[:12]}.json"
        subprocess.run([sys.executable, "scripts/record_diff.py", "dump", str(path)], cwd=tree,
                       check=True, capture_output=True)
        dumps.append(path)
    proc = subprocess.run([sys.executable, "scripts/record_diff.py", "diff", *map(str, dumps)],
                          cwd=sides[1][1], capture_output=True, text=True, check=False)
    print(proc.stdout, end="")
    old, new = ({(r["workload"], r["master_seed"]): r["fingerprint"]
                 for r in json.loads(p.read_text())["runs"]} for p in dumps)
    for key in sorted(old.keys() | new.keys()):
        print(f"fingerprint {key[0]} @ {key[1]}: {old.get(key, '-')[:16]} -> "
              f"{new.get(key, '-')[:16]}")
    print(f"record_diff diff exited {proc.returncode}")
    return proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for more rounds")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", required=True, help="A-B: perfbench --seed of the pairs")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", required=True, help="directory for the trees and the JSON")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    sides = [export(commit, out / "trees") for commit in (args.parent, args.change)]
    metrics = json.loads((sides[1][1] / "BENCHMARK.json").read_text())["end_to_end"]
    status = 0
    for workload in args.workload:
        result = round_of_pairs(args, workload, sides, metrics)
        (out / f"{workload}.json").write_text(json.dumps(result, indent=1) + "\n")
        print(f"\n{workload}: {sides[0][0][:12]} -> {sides[1][0][:12]}, {args.pairs} pairs, "
              f"seeds {args.seeds}, --seconds {args.seconds:g}")
        print("\n".join(format_rows(result["summary"])))
        speeds = [r["machine_speed"] for rs in result["runs"].values() for r in rs
                  if r["machine_speed"] is not None]
        if speeds:
            print(f"machine speed {min(speeds)} to {max(speeds)} of the reference")
        for line in result["incorrect"]:
            print(f"INCORRECT {line}")
            status = 1
    return record_diff(sides, out) or status


if __name__ == "__main__":
    sys.exit(main())
