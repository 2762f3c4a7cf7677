"""ksgnslab benchmark: time to a full set of verdicts, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload suites-default --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with a single client that checks its
instances back to back through `harness.check_instance`, the call
`verify run` makes, with `jobs=1`.  This launcher pins BLAS to one thread and
starts fresh worker processes one after another, so load comes from one
process at a time.  `--master-seed` fixes the instances (see
perfbench/workloads.py) and `--seed` the orders in which they are checked.

With `--trace 0`, two workers each set up (import ksgnslab and build the
payloads) and then check the instance list a fixed number of times, under the
speed probe of perfbench/speed.py, which scales each timing to the
reference speed of the baseline machine.  The end-to-end metrics use each
instance's fastest normalised check over all passes and the fastest
normalised set-up.  With `--trace 1`, one worker checks the list once
untraced, then builds and checks it again under the outside-in tracer
(perfbench/tracer.py) and reports the per-layer metrics.  Every run checks its verdicts: every
record must pass, every pass must give the same verdict digest, every worker
the same payloads, and where perfbench/baseline.json holds the master seed's
payload fingerprint, the record count and digest must equal the recorded
ones.  The last line of standard output is the result object; the lines
before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
WORKERS = 2  # fresh processes per untraced run, one after another
RUN_LIMIT_S = 170.0
SELF_SUM_TOLERANCE = 0.01  # per-layer self times vs traced verify_s, as a share
# Self time of the harness layer (check_instance and the harness's private
# checkers) in the traced check pass, as a share of it: time that no wrapped
# layer function claims.  It is 0.02-0.7% at the seed commit; more means the
# tracer misses a heavy function the harness calls.
UNATTRIBUTED_LIMIT = 0.05
WORKLOADS = ("suites-default", "prespace-cap", "equivariant-dilation")
# A pass's normalised time at the seed commit, rounded.  A run makes
# round(--seconds / (workers * this)) passes per worker (one each at 20 s), a
# number that does not depend on the speed of the code under test, so every
# commit takes its minima over the same number of samples.
NOMINAL_PASS_S = {"suites-default": 7.0, "prespace-cap": 9.0, "equivariant-dilation": 8.0}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# per-layer metrics: call counts, then self times of single functions
COUNTED = (
    "hilbert.pair", "numpy.einsum", "numpy.einsum_path", "cstar.element",
    "numkernel.operator_norm", "numkernel.herm_eig", "numpy.linalg.svd",
    "numpy.linalg.eigh", "hilbert.quotient_by_null", "ksgns.ksgns",
    "poscor.interior_tensor_along",
)
SELF_TIMED = (
    "hilbert.pair", "numpy.einsum", "hilbert.rank_one_operator", "cp.random_blinear_unitary",
    "poscor.check_category_laws", "numkernel.operator_norm", "hilbert.quotient_by_null",
    "ksgns.ksgns", "ksgns.check_triple", "equivariant.check_equivariant",
    "equivariant.check_functor_laws", "equivariant.categorical_dilation_unitary",
    "cp.check_cp",
)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it, or
    100 (the maximum) when there are fewer than twenty samples, where that
    percentile would lie below the median."""
    if n < 20:
        return 100
    return math.floor(100.0 * (1.0 - 10.0 / n))


def percentile(values: list[float], q: int) -> float:
    ordered = sorted(values)
    if q >= 100:
        return ordered[-1]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def verdict_digest(records) -> str:
    rows = sorted((r.suite, r.instance_seed, r.check, bool(r.passed)) for r in records)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def provenance(seed: int, master_seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "master_seed": master_seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "jobs": 1,
    }


def check_pass(h, tasks, tol, probe=None, tracer=None):
    """Check every task once.  Returns per-task wall seconds, per-task
    seconds normalised by `probe` (the wall seconds when there is no probe),
    and the records."""
    latencies = []
    normalised = []
    records = []
    clock = time.perf_counter
    for suite, payload in tasks:
        if tracer is not None:
            tracer.new_instance()
        if probe is None:
            t0 = clock()
            recs = h.check_instance(suite, payload, tol)
            wall = norm = clock() - t0
        else:
            recs, wall, norm = probe.time(h.check_instance, suite, payload, tol)
        records.extend(recs)
        latencies.append(wall)
        normalised.append(norm)
    return latencies, normalised, records


def recorded_workload(workload: str) -> dict | None:
    try:
        with open(BASELINE) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    return doc.get("workloads", {}).get(workload)


def prepare_import() -> None:
    """Pin BLAS to one thread (before numpy loads) and put this checkout's
    src/ first on the module path."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "ksgnslab" / "__init__.py").is_file():
        raise ImportError(f"no ksgnslab sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def import_harness():
    """Import ksgnslab.harness from this checkout's src/."""
    prepare_import()
    import ksgnslab.harness as h

    if Path(h.__file__).resolve().parent != (ROOT / "src" / "ksgnslab").resolve():
        raise ImportError(f"imported ksgnslab from {h.__file__}, not {ROOT / 'src'}")
    return h


def largest_cumulative(tracing, stats, before=None) -> list[tuple[float, str]]:
    """Public ksgnslab functions by inclusive time, largest first; `before`
    maps names to inclusive seconds already spent, to leave out."""
    before = before or {}
    return sorted(
        ((s.incl_s - before.get(name, 0.0), name) for name, s in stats.items()
         if tracing.layer_of(name) not in ("harness", "numpy")),
        reverse=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="orders of the checks")
    parser.add_argument("--master-seed", type=int, help="the instances; default as verify run")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="sets the number of passes, with NOMINAL_PASS_S")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.master_seed is not None and args.master_seed < 0:
        parser.error("--master-seed must be non-negative")
    if args.worker is not None:
        return worker(args)
    return launch(args)


def launch(args) -> int:
    """Run the workers one after another and report on all of them."""
    if not (ROOT / "src" / "ksgnslab" / "__init__.py").is_file():
        print(f"error: no ksgnslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    count = 1 if args.trace else WORKERS
    passes = 1 if args.trace else max(
        1, round(args.seconds / (count * NOMINAL_PASS_S[args.workload])))
    deadline = time.monotonic() + RUN_LIMIT_S
    reports = []
    for index in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(index),
               "--workload", args.workload, "--seed", str(args.seed),
               "--passes", str(passes), "--trace", str(args.trace)]
        if args.master_seed is not None:
            cmd += ["--master-seed", str(args.master_seed)]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"error: worker {index} ran past {RUN_LIMIT_S} s", file=sys.stderr)
            return 3
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: worker {index} exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode or 3
        for line in lines[:-1]:
            print(line)
        reports.append(json.loads(lines[-1]))

    problems = []
    if len({r["fingerprint"] for r in reports}) != 1:
        problems.append("payload generation is not deterministic")
    fingerprint = reports[0]["fingerprint"]
    master = reports[0]["master_seed"]
    passes = [p for r in reports for p in r["passes"]]
    attempted = sum(p["records"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    digest, record_count = passes[0]["digest"], passes[0]["records"]
    if len({p["digest"] for p in passes}) != 1:
        problems.append("verdict digest differs between passes")
        failed = attempted

    # -- verdict gate against the recorded workload -------------------------
    recorded = recorded_workload(args.workload)
    comparable = False
    if recorded is None or recorded.get("master_seed") != master:
        print(f"baseline: master seed {master} not recorded; gate is every record passing")
    elif recorded["fingerprint"] != fingerprint:
        print(f"workload changed: payload fingerprint {fingerprint[:16]} != recorded "
              f"{recorded['fingerprint'][:16]}; digest and numbers not compared")
    elif recorded["digest"] != digest or recorded["records"] != record_count:
        problems.append(
            f"verdicts differ from baseline: {record_count} records, digest {digest[:16]} "
            f"(recorded {recorded['records']}, {recorded['digest'][:16]})"
        )
        failed = attempted
    else:
        comparable = True
    if failed:
        problems.append(f"{failed} of {attempted} check records failed")
        for line in passes[0]["failed"]:
            print("FAIL", line)

    # each instance's fastest check over all passes of all workers: load
    # from other processes only ever adds time.  verify_s is a pass made of
    # these fastest checks.
    # each instance's fastest normalised check (perfbench/speed.py) over all
    # passes of all workers; verify_s is a pass made of these
    n_tasks = len(passes[0]["norm"])
    latencies = [min(p["norm"][i] for p in passes) for i in range(n_tasks)]
    wall = [min(p["lat"][i] for p in passes) for i in range(n_tasks)]
    q_tail = tail_percentile(len(latencies))
    detail = {
        "workload": args.workload,
        "master_seed": master,
        "instances": len(latencies),
        "records": record_count,
        "pass_s": [round(sum(p["lat"]), 4) for p in passes],
        "tail_percentile": q_tail,
        "fingerprint": fingerprint,
        "digest": digest,
    }
    print("detail:", json.dumps(detail))
    print(f"closed loop, 1 client, {len(reports)} worker process(es) one after another; "
          f"tail is p{q_tail} of {len(latencies)} instances")
    print("wait time: none; one process at a time with no queue, lock or other process to wait on")

    if args.trace:
        metrics = {name: tuple(v) for name, v in reports[0]["trace_metrics"].items()}
        problems.extend(reports[0]["trace_problems"])
    else:
        metrics = {
            "verify_s": (sum(latencies), "s"),
            "instance_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "instance_tail_ms": (1e3 * percentile(latencies, q_tail), "ms"),
            "setup_s": (min(r["setup_s"] for r in reports), "s"),
            "peak_rss_mb": (max(r["rss_mb"] for r in reports), "MB"),
            "headroom_log10": (-math.log10(max(r["worst"] for r in reports)), "log10"),
        }
        print(f"wall time, not normalised: verify {sum(wall):.4f} s, set-up "
              f"{min(r['setup_wall_s'] for r in reports):.4f} s; machine speed "
              f"{sum(latencies) / sum(wall):.3f} of the reference")
        if comparable:
            for name, base in recorded.get("summary", {}).items():
                if name in metrics:
                    value, median = metrics[name][0], base["median"]
                    print(f"vs baseline: {name} {value:.6g} (recorded median {median:.6g}, "
                          f"{100.0 * (value - median) / abs(median):+.1f}%)")

    for name, (value, unit) in metrics.items():
        print(f"{name:46s} {value:14.6g} {unit}")
    for problem in problems:
        print("ERROR:", problem)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def worker(args) -> int:
    """Set up once, check `--passes` passes, print a JSON report."""
    try:
        prepare_import()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import speed

    def set_up():
        h = import_harness()
        import workloads

        master = workloads.DEFAULT_MASTER_SEED if args.master_seed is None else args.master_seed
        return h, workloads, master, workloads.build(args.workload, master)

    # a traced run times its untraced pass without the probe, like its traced one
    probe = None if args.trace else speed.Probe()
    if probe is not None:
        probe.start()
    try:
        if probe is None:
            t0 = time.perf_counter()
            (h, workloads, master, built) = set_up()
            setup_wall = setup_s = time.perf_counter() - t0
        else:
            (h, workloads, master, built), setup_wall, setup_s = probe.time(set_up)
        from ksgnslab import serialize as ser
        from ksgnslab.numkernel import Tolerance

        tol = Tolerance()
        fingerprint = hashlib.sha256(ser.dumps(built).encode()).hexdigest()
        passes = []
        first_records = None
        for index in range(args.passes):
            order = workloads.visit_order(len(built), args.seed, f"{args.worker}:{index}")
            lat, norm, records = check_pass(h, [built[i] for i in order], tol, probe)
            by_task = [0.0] * len(built)
            norm_by_task = [0.0] * len(built)
            for i, dt, dn in zip(order, lat, norm):
                by_task[i] = dt
                norm_by_task[i] = dn
            passes.append({
                "lat": by_task,
                "norm": norm_by_task,
                "digest": verdict_digest(records),
                "records": len(records),
                "failed": [f"{r.suite} {r.instance_seed} {r.check}: {r.residual:.3e} > "
                           f"{r.threshold:.3e} {r.error}" for r in records if not r.passed],
            })
            if first_records is None:
                first_records = records
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if probe is not None:
            probe.stop()
    if args.worker == 0:
        print("provenance:", json.dumps(provenance(args.seed, master), sort_keys=True))
    worst = max(
        (r.residual / r.threshold for r in first_records if r.passed and r.threshold > 0),
        default=0.0,
    )
    report = {
        "master_seed": master,
        "fingerprint": fingerprint,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "passes": passes,
        "worst": max(worst, sys.float_info.min),  # all residuals exactly zero
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        by_suite: dict[str, float] = {}
        for (suite, _), dt in zip(built, passes[0]["lat"]):
            by_suite[suite] = by_suite.get(suite, 0.0) + dt
        metrics, problems = traced_metrics(
            args.workload, master, args.seed, fingerprint, tol, passes[0]["digest"],
            sum(passes[0]["lat"]), by_suite,
        )
        report["trace_metrics"] = metrics
        report["trace_problems"] = problems
    print(json.dumps(report))
    return 0


def traced_metrics(workload, master, seed, fingerprint, tol, digest, untraced_verify_s,
                   by_suite):
    """Build and check the workload once more under the tracer."""
    import ksgnslab.harness as h
    import tracer as tracing
    import workloads
    from ksgnslab import serialize as ser

    problems = []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        b0 = time.perf_counter()
        built = workloads.build(workload, master)
        traced_build_s = time.perf_counter() - b0
        build_self_s = {name: s.self_s for name, s in tracer.stats.items()}
        build_incl_s = {name: s.incl_s for name, s in tracer.stats.items()}
        build_self = sum(build_self_s.values())
        build_construct, build_load = tracer.construct_s, tracer.load_s
        order = workloads.visit_order(len(built), seed, "0:0")
        lat, _, records = check_pass(h, [built[i] for i in order], tol, tracer=tracer)
        traced_verify_s = sum(lat)
    finally:
        tracer.uninstall()
    if hashlib.sha256(ser.dumps(built).encode()).hexdigest() != fingerprint:
        problems.append("traced payloads differ from the untraced ones")
    if verdict_digest(records) != digest:
        problems.append("traced verdict digest differs from the untraced one")
    # harness.check_instance is a wrapped root span, so this sum can differ
    # from verify_s only by bookkeeping errors; the unattributed share below
    # is the check that fails when the tracer misses a function
    check_self = tracer.self_total() - build_self
    if abs(check_self - traced_verify_s) > SELF_SUM_TOLERANCE * traced_verify_s:
        problems.append(f"per-layer self times sum to {check_self:.4f} s, "
                        f"traced verify_s is {traced_verify_s:.4f} s")
    unattributed = sum(
        s.self_s - build_self_s.get(name, 0.0)
        for name, s in tracer.stats.items() if tracing.layer_of(name) == "harness"
    ) / traced_verify_s
    if unattributed > UNATTRIBUTED_LIMIT:
        problems.append(f"{100.0 * unattributed:.1f}% of the traced verify pass is harness "
                        f"self time, over {100.0 * UNATTRIBUTED_LIMIT:.0f}%: a heavy function "
                        f"is not traced")

    stats = tracer.stats
    layers = ("numpy", *tracing.LAYERS)

    def total_self(match) -> float:
        return sum(s.self_s for name, s in stats.items() if match(name))

    construct_s = tracer.construct_s - build_construct
    load_s = tracer.load_s - build_load
    check_s = traced_verify_s - construct_s - load_s
    m = {}
    for name in COUNTED:
        m[f"{name}.calls"] = (float(stats[name].calls) if name in stats else 0.0, "count")
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (stats[name].self_s if name in stats else 0.0, "s")
    layer_self = {
        layer: total_self(lambda n, layer=layer: tracing.layer_of(n) == layer) for layer in layers
    }
    for layer in layers:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    for group in ("numpy.linalg", "serialize.dump", "serialize.load"):
        m[f"{group}.self_s"] = (total_self(lambda n, g=group: tracing.group_of(n) == g), "s")
    m["numpy.linalg.gflop"] = (tracer.flops / 1e9, "gflop")
    m["poscor.interior_tensor_along.repeat_frac"] = (
        tracer.repeat_hits / tracer.repeat_calls if tracer.repeat_calls else 0.0, "ratio")
    m["harness.construct_s"] = (construct_s, "s")
    m["harness.check_s"] = (check_s, "s")
    m["harness.check_construct_ratio"] = (
        check_s / construct_s if construct_s > 0 else 0.0, "ratio")
    for suite in h.SUITE_NAMES:
        m[f"harness.suite.{suite}.s"] = (by_suite.get(suite, 0.0), "s")
    m["trace.overhead_frac"] = (traced_verify_s / untraced_verify_s - 1.0, "ratio")

    print(f"traced: set-up build {traced_build_s:.4f} s, verify {traced_verify_s:.4f} s, "
          f"verify self-time sum {check_self:.4f} s, unattributed {100.0 * unattributed:.2f}%; "
          f"numpy.linalg.gflop is computed from "
          f"shapes; per-layer figures cover the traced set-up build and verify pass")
    for incl, name in largest_cumulative(tracing, stats, build_incl_s)[:5]:
        print(f"largest cumulative: {name:44s} {incl:10.4f} s of the traced verify pass")
    total = sum(layer_self.values())
    for layer in layers:
        print(f"self-time share: {layer:12s} {100.0 * layer_self[layer] / total:5.1f}%")
    setup_top = sorted(((v, k) for k, v in build_self_s.items()), reverse=True)[:3]
    print("set-up self time: " + ", ".join(f"{k} {v:.4f} s" for v, k in setup_top))
    return m, problems


if __name__ == "__main__":
    sys.exit(main())
