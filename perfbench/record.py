"""Run the benchmark over several seeds and summarise, or record, the results.

    python3 perfbench/record.py --seeds 1-10                  # print spreads
    python3 perfbench/record.py --seeds 1-10 --trace-seed 1 --write

Each run is a fresh `perfbench/run.py` process, one after another, at the
default master seed.  For every end-to-end metric the summary gives the
median, the quartiles from `statistics.quantiles(values, n=4)` and the spread
(q3 - q1) / median.  With `--write`, perfbench/baseline.json receives per
workload the payload fingerprint, record count and verdict digest (the
verdict gate of later runs), each run's metrics, the summaries, one traced
run's per-layer metrics and notes, and the machine's provenance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import BASELINE, WORKLOADS  # noqa: E402

GATED = ("master_seed", "fingerprint", "digest", "records", "instances", "tail_percentile")
NOTE_PREFIXES = ("traced:", "largest cumulative:", "self-time share:", "set-up self time:")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark process; returns (result, detail, provenance, notes)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    detail = provenance = {}
    for line in lines:
        if line.startswith("detail: "):
            detail = json.loads(line[len("detail: "):])
        elif line.startswith("provenance: "):
            provenance = json.loads(line[len("provenance: "):])
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
    notes = [line for line in lines if line.startswith(NOTE_PREFIXES)]
    return result, detail, provenance, notes


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, help="also make one traced run at this seed")
    parser.add_argument("--write", action="store_true", help="update perfbench/baseline.json")
    args = parser.parse_args()
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    all_ok = True
    for workload in args.workloads:
        entry: dict = {"runs": {}}
        series: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            result, detail, provenance, _ = run_once(workload, seed, seconds, 0)
            all_ok &= result["correct"] and result["failed"] == 0
            for key in GATED:
                if entry.setdefault(key, detail[key]) != detail[key]:
                    print(f"{workload} seed {seed}: {key} differs between runs", file=sys.stderr)
                    all_ok = False
            values = {k: v["value"] for k, v in result["metrics"].items()}
            for name, value in values.items():
                series.setdefault(name, []).append(value)
            entry["runs"][str(seed)] = values
            doc["provenance"] = {k: v for k, v in provenance.items() if k != "seed"}
            print(workload, seed, "correct" if result["correct"] else "INCORRECT",
                  " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        entry["summary"] = {name: summarise(vals) for name, vals in series.items()}
        for name, s in entry["summary"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  (spread >= bound/3)"
            print(f"  {workload:22s} {name:18s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {bound}{flag}")
        if args.trace_seed is not None:
            result, _, _, notes = run_once(workload, args.trace_seed, seconds, 1)
            all_ok &= result["correct"]
            entry["trace"] = {
                "seed": args.trace_seed,
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "notes": notes,
            }
            print("\n".join(notes))
        elif "trace" in doc.get("workloads", {}).get(workload, {}):
            entry["trace"] = doc["workloads"][workload]["trace"]
        doc.setdefault("workloads", {})[workload] = entry
    if args.write:
        BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
