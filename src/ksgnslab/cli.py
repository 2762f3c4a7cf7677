"""Command line front end.

    verify gen --seed S --out DIR [--suites ...] [--caps k=v ...]
    verify run [--in DIR | --seed S] [--suites ...] [--tol T] [--format f] [--jobs N]
    verify demo gns

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
IO error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from .errors import KsgnslabError
from .harness import (
    BLAS_THREAD_VARS,
    SUITE_NAMES,
    SizeCaps,
    SuiteConfig,
    generate,
    report_emit,
    run,
)
from .numkernel import Tolerance


def _parse_caps(pairs: list[str]) -> SizeCaps:
    values = asdict(SizeCaps())
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"cap must look like name=value, got {pair!r}")
        name, raw = pair.split("=", 1)
        if name not in values:
            raise ValueError(f"unknown cap {name!r}; known: {sorted(values)}")
        values[name] = int(raw)
    return SizeCaps(**values)


def _config_from_args(args) -> SuiteConfig:
    tol = Tolerance()
    if getattr(args, "tol", None) is not None:
        tol = Tolerance(ctol=float(args.tol))
    if getattr(args, "rtol", None) is not None:
        tol = Tolerance(rtol=float(args.rtol), ctol=tol.ctol)
    return SuiteConfig(
        seed=args.seed,
        tolerance=tol,
        caps=_parse_caps(args.caps or []),
        suites=tuple(args.suites) if args.suites else SUITE_NAMES,
        jobs=getattr(args, "jobs", 1),
    )


def _blas_note() -> None:
    """Generated instances follow the BLAS thread count: say so unless one is pinned."""
    if "1" not in map(os.environ.get, BLAS_THREAD_VARS):
        print(f"note: none of {', '.join(BLAS_THREAD_VARS)} is 1, so the generated "
              "instances can differ from the ones pinned at one BLAS thread", file=sys.stderr)


def _cmd_gen(args) -> int:
    config = _config_from_args(args)
    _blas_note()
    paths = generate(config, args.out)
    for path in paths:
        print(path)
    return 0


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    if args.in_dir is None:  # the instances are generated here
        _blas_note()
    report = run(config, instance_dir=args.in_dir)
    text = report_emit(report, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.all_passed else 1


def _cmd_demo(args) -> int:
    if args.example != "gns":
        raise ValueError(f"unknown demo {args.example!r}")
    return demo_gns()


def demo_gns() -> int:
    """Dilate the trace state on the 2x2 matrix algebra together with an
    order-two symmetry that fixes it, and show the symmetry survives as a
    nontrivial unitary on the dilation space."""
    from .cp import CPMap
    from .cstar import AlgebraShape, identity_automorphism, inner_automorphism
    from .equivariant import (
        DynamicalSystem,
        EquivariantCorrespondence,
        check_dilation,
        check_equivariant,
        cyclic_group,
        dilate,
        trivial_system,
    )
    from .hilbert import algebra_module
    from .memo import BuildMemo
    from .numkernel import DEFAULT_TOL, max_operator_norm, operator_norm, summarize

    A = AlgebraShape((2,))
    B = AlgebraShape((1,))
    E = algebra_module(B)  # the complex numbers as a module over themselves
    # the trace state tau(a)/2 as a CP map into L(C) = C
    images = np.zeros((A.dim, 1, 1), dtype=complex)
    for p, i, k, l in A.basis_labels():
        if k == l:
            images[p, 0, 0] = 0.5
    phi = CPMap(A, E, images)
    # order-two symmetry a -> u a u* with u = offdiagonal flip; it fixes the trace
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    alpha = inner_automorphism(A, [flip])
    G = cyclic_group(2)
    system_in = DynamicalSystem(A, G, [identity_automorphism(A), alpha])
    system_out = trivial_system(B, G)
    corr = EquivariantCorrespondence(
        system_in, system_out, E, phi, [np.eye(1, dtype=complex)] * 2
    )
    print("input: trace state on the 2x2 matrix block, flip symmetry, group Z2")
    residual, threshold = summarize(check_equivariant(corr, DEFAULT_TOL))
    input_ok = residual <= threshold
    print(f"equivariant input check: {'pass' if input_ok else 'FAIL'} (residual {residual:.3e})")
    quad = dilate(corr, DEFAULT_TOL, BuildMemo())
    t = quad.triple
    print(f"dilation space dimension: {t.module.dim} (the 2x2 algebra itself)")
    residual, threshold = summarize(check_dilation(quad, DEFAULT_TOL))
    dilation_ok = residual <= threshold
    print(f"dilation conditions:     {'pass' if dilation_ok else 'FAIL'} (residual {residual:.3e})")
    U = quad.unitaries[1]
    gap = operator_norm(U - np.eye(t.module.dim))
    print(f"dilated symmetry unitary: ||U~ - I|| = {gap:.3f} (nontrivial)")
    moved = np.einsum("qp,qij->pij", alpha.matrix, t.pi.images)  # pi(alpha(u_p))
    covar = max_operator_norm(U @ t.pi.images - moved @ U)
    print(f"covariance U~ pi(a) = pi(alpha(a)) U~: residual {covar:.3e}")
    ok = input_ok and dilation_ok and gap > 0.5
    print("demo:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Generate and run verification suites for the KSGNS "
        "dilation machinery on finite-dimensional Hilbert modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write deterministic instance files")
    gen.add_argument("--seed", type=int, default=20250809)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--suites", nargs="*", choices=SUITE_NAMES)
    gen.add_argument("--caps", nargs="*", metavar="NAME=VALUE")
    gen.set_defaults(func=_cmd_gen)

    runp = sub.add_parser("run", help="run suites and emit a report")
    runp.add_argument("--in", dest="in_dir", help="instance directory from gen")
    runp.add_argument("--seed", type=int, default=20250809)
    runp.add_argument("--suites", nargs="*", choices=SUITE_NAMES)
    runp.add_argument("--caps", nargs="*", metavar="NAME=VALUE")
    runp.add_argument("--tol", type=float, help="residual pass threshold ctol")
    runp.add_argument("--rtol", type=float, help="relative rank cutoff")
    runp.add_argument("--format", choices=("json", "text"), default="text")
    runp.add_argument("--jobs", type=int, default=1)
    runp.add_argument("--out", help="write the report to a file")
    runp.set_defaults(func=_cmd_run)

    demo = sub.add_parser("demo", help="run a self-contained example")
    demo.add_argument("example", choices=("gns",))
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KsgnslabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
