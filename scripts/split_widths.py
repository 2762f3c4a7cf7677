"""Time the live cut against the dense expression, per width of the stack cut.

Collects the tensor_quotients stacks whose left factors are A over itself
from one check pass of each named workload, dilates each collected (F, phi),
so that every pi_phi is block-sparse on the row split's copies, and times the
live cut's callers on it both ways (numkernel.LIVE_MIN_DIM set to 0 and out of
reach, best of 2 x 3 calls): pi's norm and multiplicativity
(check_correspondence on a copy of pi, so its norm is not cached), its
conjugation Z pi Z* by a dense unitary, and the descent of left multiplication
(hilbert.descend), each per the width the cut sees: dim F for pi, the
pre-space for the descent.  This is the measurement behind
numkernel.LIVE_MIN_DIM.

    PYTHONPATH=src python scripts/split_widths.py suites-default prespace-cap

Run it with one BLAS thread (OPENBLAS_NUM_THREADS=1) for steadier numbers.
"""

import argparse
import collections
import importlib
import importlib.util
import time
from pathlib import Path

import numpy as np

from ksgnslab import cp, harness, hilbert, numkernel
from ksgnslab.cp import CPMap
from ksgnslab.ksgns import ksgns
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import DEFAULT_TOL, kron, live_products

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

    def recording(E, F, pi, tol):
        if cp.over_itself(E):
            stacks.append((E, F, pi, tol))
        return real(E, F, pi, tol)

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


def best(run, threshold: int) -> float:
    """Best of 3 calls of run() with numkernel.LIVE_MIN_DIM set to threshold."""
    numkernel.LIVE_MIN_DIM = threshold
    out = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        run()
        out = min(out, time.perf_counter() - start)
    return out


def live_runs(args: tuple) -> list[tuple]:
    """((what, width the cut sees), call) for each live-cut caller on the
    pi_phi of the stack's (F, phi), dilated on the row split."""
    F, phi, tol = args[1], args[2], args[3]
    triples = ksgns(F, phi, tol, BuildMemo())
    A = phi[0].algebra
    K = kron(cp.left_multiplication(A), np.eye(F[0].dim, dtype=complex))
    runs = []
    for t in triples:
        Z = np.linalg.qr(np.random.default_rng(t.dim).standard_normal((t.dim, t.dim)))[0]
        pi = t.pi
        runs += [
            (("pi", t.dim), lambda pi=pi: cp.check_correspondence(CPMap(A, pi.module, pi.images), tol)),
            (("pi", t.dim), lambda pi=pi, Z=Z: live_products(Z, pi.images, Z.T)),
            (("descend", len(K[0])), lambda t=t: hilbert.descend([K], [t], [t], "left", tol)),
        ]
    return runs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    opts = parser.parse_args()
    saved = numkernel.LIVE_MIN_DIM
    totals = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for args in collect(opts.workloads):
        for key, run in live_runs(args):
            entry = totals[key]
            entry[0] += 1
            entry[1] += min(best(run, 0), best(run, 0))
            entry[2] += min(best(run, 10**9), best(run, 10**9))
    numkernel.LIVE_MIN_DIM = saved
    for (key, width), (n, new, old) in sorted(totals.items(), key=lambda kv: kv[0][::-1]):
        print(f"width {width:3d}  {key:18}  stacks {n:4d}  "
              f"live {1e6 * new / n:7.0f} us  dense {1e6 * old / n:7.0f} us  "
              f"{100 * (new / old - 1):+5.0f}%")


if __name__ == "__main__":
    main()
