"""What one check pass of a benchmark workload spends on validation and LAPACK.

Arrays are checked finite where they enter, once per stack, and builders read
stacks whole: require_finite and stack_slices calls per `suites-default` and
`equivariant-dilation` check pass are pinned.  LAPACK runs only where a record can
change: every call site is labelled, and a site whose result only feeds a
verdict may take exact SVDs only where a Frobenius gate or certificate
(numkernel.exceeds_gate, certified_norms) could not decide.  The row split
of the KSGNS quotients keeps `prespace-cap`'s eigh work pinned, and the live
cut of their block-sparse pi_phi its SVD work.  Block-size structure is built
once per process, so a second check pass builds none, and content keys per
pass are pinned.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import _linalg as linalg_impl

from ksgnslab import harness, hilbert, memo, numkernel
from ksgnslab.numkernel import DEFAULT_TOL

from conftest import lapack_calls

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
WORKLOADS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(WORKLOADS)

RECORDED, VERDICT, CONSTRUCTION = "recorded value", "verdict only", "construction"
# (routine, site) -> what the call's result feeds; a site takes its label from
# its one role, or "construction" when it builds as well as gates
SITE_LABELS = {
    ("eigh", "cp.random_blinear_unitary"): CONSTRUCTION,  # exp(iH)
    ("eigh", "hilbert.__post_init__"): CONSTRUCTION,  # a module's Gram spectrum
    ("eigh", "hilbert._quotient_stack"): CONSTRUCTION,  # quotient spectra
    ("eigh", "hilbert.quotient_by_columns"): CONSTRUCTION,  # rank decisions over the copies 0
    ("eigh", "hilbert.quotient_by_copies"): CONSTRUCTION,  # rank decisions over the copies 0
    ("eigh", "hilbert.quotient_by_null"): CONSTRUCTION,  # rank decisions
    ("eigvalsh", "cp.build"): RECORDED,  # check_cp's Choi minima
    ("eigvalsh", "hilbert.is_map_positive"): RECORDED,
    ("svd", "cp.build"): RECORDED,  # check_cp caches the maps' norms, the thresholds' scale
    ("svd", "cp.check_correspondence"): RECORDED,
    ("svd", "cp.check_morphism"): RECORDED,
    ("svd", "cp.hermiticity_residual"): RECORDED,
    ("svd", "cp.norm"): RECORDED,
    ("svd", "cp.random_blinear_unitary"): CONSTRUCTION,  # H's scale, then herm_expi's gate
    ("svd", "cp.column_quotients"): VERDICT,  # the C-linearity gate
    ("svd", "cstar.check_star_map"): RECORDED,
    ("svd", "cstar.element_norms"): RECORDED,  # pseudometric samples, vector norms
    ("svd", "equivariant._gram_scale"): RECORDED,
    ("svd", "equivariant._require_group_law"): VERDICT,
    ("svd", "equivariant.check_dilation"): RECORDED,
    ("svd", "equivariant.check_equivariant"): RECORDED,
    ("svd", "equivariant.check_functor_laws"): RECORDED,
    ("svd", "equivariant.representation_defect"): RECORDED,
    ("svd", "equivariant.uniqueness_unitary"): RECORDED,
    ("svd", "harness._check_dilation"): RECORDED,
    ("svd", "harness._check_equivariant_suite"): RECORDED,
    ("svd", "harness._check_idempotency"): RECORDED,
    ("svd", "harness._check_ksgns"): RECORDED,
    ("svd", "harness._check_lift"): RECORDED,
    ("svd", "harness._check_tensor"): RECORDED,
    ("svd", "harness._check_uniqueness"): RECORDED,
    ("svd", "hilbert.descend"): VERDICT,  # the well-definedness leak gate
    ("svd", "hilbert.module_operator_norms"): RECORDED,
    ("svd", "hilbert.null_leak"): RECORDED,
    ("svd", "hilbert.quotient_by_columns"): VERDICT,  # the Hermitian and leak gates
    ("svd", "hilbert.quotient_by_copies"): VERDICT,  # the copy and Hermitian gates
    ("svd", "hilbert.quotient_by_null"): VERDICT,  # the Hermitian gate of rank decisions
    ("svd", "hilbert._quotient_stack"): VERDICT,  # the leak gate
    ("svd", "hilbert.unitarity_residual"): RECORDED,
    ("svd", "ksgns.check_idempotency"): RECORDED,
    ("svd", "ksgns.check_lift"): RECORDED,
    ("svd", "ksgns.check_triple"): RECORDED,
    ("svd", "ksgns.spanning_svd"): RECORDED,  # the spanning rank, and U's pseudo-inverse
    ("svd", "ksgns.triple_uniqueness_unitary"): RECORDED,
    ("svd", "poscor.check_commuting_unitary"): RECORDED,
    ("svd", "poscor.morphism_distance"): RECORDED,
}


@pytest.fixture(scope="module")
def suites_default():
    return WORKLOADS.build("suites-default", WORKLOADS.DEFAULT_MASTER_SEED)


def check_pass(tasks):
    for suite, payload in tasks:
        assert all(r.passed for r in harness.check_instance(suite, payload, DEFAULT_TOL))


def counted(monkeypatch, name: str, source=numkernel) -> list:
    """Every call of source.<name> from here on, wherever ksgnslab bound it."""
    calls, real = [], getattr(source, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in [m for key, m in sys.modules.items() if key.startswith("ksgnslab.")]:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_require_finite_once_per_array_on_a_check_pass(monkeypatch, suites_default):
    # require_finite: 15,843 calls with exceeds_gate re-checking the M that
    # herm_eig, psd_verdict and first_leak's callers had just checked, and a
    # quotient's Gram taken from a pre-module built (and checked) for it
    # alone; 12,703 with every slice a module, map and star map checked on
    # its own; 5,661 with stacks checked once, where data enters.
    # stack_slices: 11,320 (8,929 stacks of one) re-stacking the fields of
    # one-slice objects; 3,129 with builders reading the quotient and module
    # stacks whole
    finite, stacked = counted(monkeypatch, "require_finite"), counted(monkeypatch, "stack_slices")
    check_pass(suites_default)
    assert len(finite) <= 6_000, len(finite)
    assert len(stacked) <= 4_000, len(stacked)


def test_equivariant_dilation_checks_and_stacks_once_per_stack(monkeypatch):
    # require_finite 5,442 and stack_slices 2,320 calls per check pass with one
    # checked object per slice of the twist, functor and Cayley-table stacks;
    # 1,912 and 660 with the stacks the objects
    tasks = WORKLOADS.build("equivariant-dilation", WORKLOADS.DEFAULT_MASTER_SEED)
    finite, stacked = counted(monkeypatch, "require_finite"), counted(monkeypatch, "stack_slices")
    check_pass(tasks)
    assert len(finite) <= 2_500, len(finite)
    assert len(stacked) <= 1_500, len(stacked)


def test_a_second_equivariant_dilation_pass_builds_no_block_size_structure(monkeypatch):
    # 40 algebra modules, 120 Copies and 80 CopyLayouts per pass when every
    # instance memo built its own; the first pass of a process builds what the
    # process has not met yet (0, 4 and 3 after the workload's generation), a
    # second builds nothing
    tasks = WORKLOADS.build("equivariant-dilation", WORKLOADS.DEFAULT_MASTER_SEED)
    check_pass(tasks)
    modules, layouts, shapes = [], [], set(memo._STRUCTURE)
    real_module, real_layout = hilbert.canonical_module, hilbert.CopyLayout

    class CountingLayout(real_layout):
        def __init__(self, *args):
            layouts.append(args)
            super().__init__(*args)

    monkeypatch.setattr(hilbert, "canonical_module",
                        lambda *args: modules.append(args) or real_module(*args))
    monkeypatch.setattr(hilbert, "CopyLayout", CountingLayout)
    check_pass(tasks)
    assert (len(modules), len(layouts)) == (0, 0)
    assert set(memo._STRUCTURE) == shapes


@pytest.mark.parametrize("workload, pin",
                         [("suites-default", 2_236), ("equivariant-dilation", 901)])
def test_content_keys_per_check_pass(monkeypatch, workload, pin):
    # memo.content_key calls per check pass: 2,236 and 901 with C over itself
    # built and keyed in every instance memo, 2,180-2,185 and 861-862 with one per
    # process (fewer once the process has keyed its own)
    tasks = WORKLOADS.build(workload, WORKLOADS.DEFAULT_MASTER_SEED)
    keys = counted(monkeypatch, "content_key", source=memo)
    check_pass(tasks)
    assert len(keys) <= pin, len(keys)


def test_every_lapack_site_is_labelled_and_verdicts_take_no_full_svd(monkeypatch, suites_default):
    calls = lapack_calls(monkeypatch)
    check_pass(suites_default)
    unlabelled = {(c.routine, c.site) for c in calls} - SITE_LABELS.keys()
    assert not unlabelled, f"label these call sites: {sorted(unlabelled)}"
    full = {c for c in calls if c.routine == "svd" and c.kind == "full"
            and SITE_LABELS[c.routine, c.site] == VERDICT}
    assert not full, f"verdict-only sites take full SVDs: {sorted(full)}"


def test_suites_default_eigh_calls(monkeypatch, suites_default):
    # 1,331 eigh calls per check pass with every column-split tensor's
    # quotient Gram decomposed again after its rank decision; 1,246 with the
    # quotient written in closed form from the copy-0 blocks' decisions;
    # 1,177 with every tensor along an algebra over itself structured, at
    # every width
    calls = lapack_calls(monkeypatch)
    check_pass(suites_default)
    assert sum(c.routine == "eigh" for c in calls) <= 1_180


def test_suites_default_eigh_work(monkeypatch, suites_default):
    # the sum of n^3 over the eigh matrices of one check pass: 1.98M with the
    # tensors narrower than 16 (along C over itself) or 40 (A over itself) on
    # their whole Grams, 1.18M with the structure alone choosing the quotient
    cubes = []

    def cubing(a, *args, _real=np.linalg.eigh, **kwargs):
        cubes.append(int(np.prod(np.shape(a)[:-2])) * np.shape(a)[-1] ** 3)
        return _real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", cubing)
    check_pass(suites_default)
    assert sum(cubes) <= 1_200_000, sum(cubes)


def test_prespace_cap_eigh_work(monkeypatch):
    # the sum of n^3 over the eigh matrices of one check pass: 5.63M with
    # every KSGNS quotient on its whole Gram, 2.02M with one eigh per block
    # of A over itself, for the rank decision and the quotient spectrum
    tasks = WORKLOADS.build("prespace-cap", WORKLOADS.DEFAULT_MASTER_SEED)
    calls = lapack_calls(monkeypatch)
    cubes = []

    def cubing(a, *args, _real=np.linalg.eigh, **kwargs):
        cubes.append(int(np.prod(np.shape(a)[:-2])) * np.shape(a)[-1] ** 3)
        return _real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", cubing)
    check_pass(tasks)
    assert sum(cubes) <= 4_000_000, sum(cubes)
    assert len(cubes) == sum(c.routine == "eigh" for c in calls) <= 15


def test_prespace_cap_svd_work(monkeypatch):
    # the sum of m n min(m, n) over the SVD matrices of one check pass, pinv's
    # included: 52.6M with pi_phi's norms and multiplicativity differences on
    # whole (dim A, d, d) slices and (33, 99) row blocks, 32.6M on their live
    # blocks, 30.7M with one SVD of each triple's spanning columns where the
    # spanning rank and the uniqueness pseudo-inverse took one each (1.87M);
    # the dense uniqueness difference (16.9M) stays
    tasks = WORKLOADS.build("prespace-cap", WORKLOADS.DEFAULT_MASTER_SEED)
    work = []

    def measuring(a, *args, _real=linalg_impl.svd, **kwargs):
        *lead, m, n = np.shape(a)
        work.append(math.prod(lead) * m * n * min(m, n))
        return _real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", measuring)
    monkeypatch.setattr(linalg_impl, "svd", measuring)
    check_pass(tasks)
    assert sum(work) <= 31_500_000, sum(work)
