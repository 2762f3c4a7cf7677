#!/usr/bin/env python3
"""Scan how the dilation space dimension tracks the Choi rank of the input.

For a state-like map on a single matrix block acting on C^d, the dilation of
a rank-r Choi matrix lands in a space of dimension r * n when the block is
M_n.  This script sweeps block size, module dimension, and Choi rank and
tabulates dim F_phi against the product, exposing the rank collapse that the
quotient performs.

Example:
    python3 scripts/dilation_dimension_scan.py --seeds 5
"""

import argparse
import sys

import numpy as np

from ksgnslab.cp import CPMap
from ksgnslab.cstar import AlgebraShape
from ksgnslab.generators import canonical_module
from ksgnslab.ksgns import check_triple, ksgns
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import DEFAULT_TOL


def rank_limited_cp(n, d, rank, rng):
    """CP map from M_n into B(C^d) with Choi rank exactly `rank`."""
    A = AlgebraShape((n,))
    E = canonical_module(AlgebraShape((1,)), (d,))
    m = n * d
    Y = (rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))) / np.sqrt(2)
    C = Y @ Y.conj().T
    C /= np.linalg.norm(C, 2)
    images = np.zeros((A.dim, d, d), dtype=complex)
    for p, i, k, l in A.basis_labels():
        images[p] = C[k * d : (k + 1) * d, l * d : (l + 1) * d]
    return A, E, CPMap(A, E, images)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--max-block", type=int, default=3)
    parser.add_argument("--max-dim", type=int, default=3)
    args = parser.parse_args()

    print(f"{'n':>3} {'d':>3} {'choi rank':>10} {'pre dim':>8} {'dim F':>6} {'residual':>10}")
    for n in range(1, args.max_block + 1):
        for d in range(1, args.max_dim + 1):
            for rank in range(1, n * d + 1):
                dims = []
                worst = 0.0
                for seed in range(args.seeds):
                    rng = np.random.default_rng(1000 * n + 100 * d + 10 * rank + seed)
                    A, E, phi = rank_limited_cp(n, d, rank, rng)
                    t = ksgns([E], [phi], DEFAULT_TOL, BuildMemo())[0]
                    rep = check_triple(t, DEFAULT_TOL)
                    worst = max(worst, rep.max_residual)
                    dims.append(t.module.dim)
                assert len(set(dims)) == 1, "dimension should depend only on the rank"
                print(f"{n:>3} {d:>3} {rank:>10} {n * n * d:>8} {dims[0]:>6} {worst:>10.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
