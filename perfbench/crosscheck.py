"""One-off checks of the benchmark against independent references.

    python3 perfbench/crosscheck.py [--write]

For each workload at the default master seed it checks the task list once
under stdlib cProfile and once under the outside-in tracer, and lists the
public ksgnslab functions with the largest cumulative time by both; the
largest must agree.  It also requires, for every ksgnslab function the tracer
wraps, that the tracer counted as many calls as cProfile did: a call that
reaches a function without passing its wrapper (a reference taken before the
tracer was installed, say) makes the counts differ.  For the workloads that `verify run` can reproduce it
also runs the CLI at the same seed and caps and requires, over the
workload's instances, the same record count and verdict digest.  With `--write` the findings go into
perfbench/baseline.json under "crosscheck".
"""

from __future__ import annotations

import argparse
import hashlib
import cProfile
import json
import os
import pstats
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

# the CLI invocation whose records, restricted to the workload's instance
# seeds, must equal the workload's
VERIFY_RUN_ARGS = {
    "suites-default": [],
    "prespace-cap": ["--suites", "ksgns", "--caps", "max_module_dim=11", "instances_per_suite=12"],
}


def cprofile_cumulative(profile: cProfile.Profile, names: set[str]) -> list[tuple[float, str]]:
    """cProfile's cumulative time for the functions the tracer also wraps."""
    src = (run.ROOT / "src" / "ksgnslab").resolve()
    found = []
    for (filename, _, func), (_, _, _, cumtime, _) in pstats.Stats(profile).stats.items():
        path = Path(filename)
        if path.parent.resolve() != src or func.startswith("__"):
            continue
        name = f"{path.stem}.{func}"
        if name in names:
            found.append((cumtime, name))
    return sorted(found, reverse=True)


def call_count_mismatches(tracer, tracing, profile: cProfile.Profile) -> list[str]:
    """Wrapped ksgnslab functions whose traced call count differs from
    cProfile's count for the same code object, over the same pass."""
    counted = {key: value[1] for key, value in pstats.Stats(profile).stats.items()}
    mismatches = []
    for name, fn in sorted(tracer.originals.items()):
        code = getattr(fn, "__code__", None)
        if tracing.layer_of(name) == "numpy" or code is None:
            continue
        profiled = counted.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        if profiled != tracer.stats[name].calls:
            mismatches.append(f"{name}: traced {tracer.stats[name].calls}, cProfile {profiled}")
    return mismatches


def verify_run_digest(master: int, extra: list[str], seeds: set[int]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    cmd = [sys.executable, "-m", "ksgnslab.cli", "run", "--seed", str(master),
           "--format", "json", *extra]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    records = json.loads(proc.stdout)["records"]
    rows = sorted((r["suite"], r["instance_seed"], r["check"], bool(r["passed"]))
                  for r in records if r["instance_seed"] in seeds)
    return len(rows), hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="update perfbench/baseline.json")
    args = parser.parse_args()
    h = run.import_harness()
    import tracer as tracing
    import workloads
    from ksgnslab.numkernel import Tolerance

    tol = Tolerance()
    master = workloads.DEFAULT_MASTER_SEED
    findings = {}
    ok = True
    for workload in run.WORKLOADS:
        tasks = workloads.build(workload, master)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, _, records = run.check_pass(h, tasks, tol, tracer=tracer)
        finally:
            tracer.uninstall()
        traced = run.largest_cumulative(tracing, tracer.stats)[:5]
        profile = cProfile.Profile()
        profile.enable()
        try:
            run.check_pass(h, tasks, tol)
        finally:
            profile.disable()
        compared = {name for _, name in run.largest_cumulative(tracing, tracer.stats)}
        profiled = cprofile_cumulative(profile, compared)[:5]
        entry = {
            "tracer_top": [[name, round(t, 4)] for t, name in traced],
            "cprofile_top": [[name, round(t, 4)] for t, name in profiled],
            "largest_agrees": traced[0][1] == profiled[0][1],
            "call_count_mismatches": call_count_mismatches(tracer, tracing, profile),
        }
        ok &= entry["largest_agrees"] and not entry["call_count_mismatches"]
        digest = run.verdict_digest(records)
        if workload in VERIFY_RUN_ARGS:
            seeds = {payload["seed"] for _, payload in tasks}
            count, cli_digest = verify_run_digest(master, VERIFY_RUN_ARGS[workload], seeds)
            entry["verify_run"] = {"args": VERIFY_RUN_ARGS[workload], "records": count,
                                   "same_records_and_digest": (count, cli_digest) == (len(records), digest)}
            ok &= entry["verify_run"]["same_records_and_digest"]
        findings[workload] = entry
        print(workload, json.dumps(entry), flush=True)
    if args.write:
        doc = json.loads(run.BASELINE.read_text()) if run.BASELINE.exists() else {}
        doc["crosscheck"] = findings
        run.BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
