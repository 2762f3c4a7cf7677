"""What one check pass of a benchmark workload spends on validation and LAPACK.

Arrays are checked finite where they enter, once per stack, and builders read
stacks whole: require_finite and stack_slices calls per `suites-default` and
`equivariant-dilation` check pass are pinned.  LAPACK runs only where a record can
change: every call site is labelled, and a site whose result only feeds a
verdict may take exact norms (eigvalsh of a smaller Gram) only where a
Frobenius gate (numkernel.exceeds_gate) or the bounds of a certified maximum
(numkernel.certified_maxima) could not decide.  Operator norms come from
eigvalsh, so the SVD matrices per pass are pinned to the sites that still need
an SVD, and the eigvalsh matrices per pass beside them, in total and by width.  The row split of the KSGNS quotients keeps `prespace-cap`'s
eigh work pinned, and the live cut of their block-sparse pi_phi its SVD work.
Block-size structure is built once per process, so a second check pass builds
none, and content keys and block-list parses per pass are pinned.  Payload
sections load as stacks and groups are interned by content: array parses,
group validations and the category loader's tensor builds per pass are pinned.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from ksgnslab import cstar, equivariant, harness, hilbert, memo, numkernel, serialize
from ksgnslab.numkernel import DEFAULT_TOL

from conftest import lapack_calls, watch_lapack

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
WORKLOADS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(WORKLOADS)

_spec = importlib.util.spec_from_file_location(
    "quotient_costs", Path(__file__).resolve().parent.parent / "scripts" / "quotient_costs.py")
QUOTIENT_COSTS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(QUOTIENT_COSTS)

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
    # operator norms: sqrt(lambda_max) of the smaller Gram
    ("eigvalsh", "cp.build"): RECORDED,  # check_cp's Choi minima, and the maps' norms it caches
    ("eigvalsh", "cp.check_correspondence"): RECORDED,
    ("eigvalsh", "cp.check_morphism"): RECORDED,
    ("eigvalsh", "cp.column_quotients"): VERDICT,  # the C-linearity gate
    ("eigvalsh", "cp.hermiticity_residual"): RECORDED,
    ("eigvalsh", "cp.norm"): RECORDED,
    ("eigvalsh", "cp.random_blinear_unitary"): CONSTRUCTION,  # herm_expi's gate
    ("eigvalsh", "cstar.check_star_map"): RECORDED,
    ("eigvalsh", "cstar.element_norms"): RECORDED,  # pseudometric samples, vector norms
    ("eigvalsh", "equivariant._require_group_law"): VERDICT,
    ("eigvalsh", "equivariant.check_dilation"): RECORDED,
    ("eigvalsh", "equivariant.check_equivariant"): RECORDED,
    ("eigvalsh", "equivariant.check_functor_laws"): RECORDED,
    ("eigvalsh", "equivariant.homomorphism_residual"): RECORDED,
    ("eigvalsh", "equivariant.uniqueness_unitary"): RECORDED,
    ("eigvalsh", "harness._check_dilation"): RECORDED,
    ("eigvalsh", "harness._check_equivariant_suite"): RECORDED,
    ("eigvalsh", "harness._check_idempotency"): RECORDED,
    ("eigvalsh", "harness._check_ksgns"): RECORDED,
    ("eigvalsh", "harness._check_lift"): RECORDED,
    ("eigvalsh", "harness._check_tensor"): RECORDED,
    ("eigvalsh", "harness._check_uniqueness"): RECORDED,
    ("eigvalsh", "hilbert.descend"): VERDICT,  # the well-definedness leak gate
    ("eigvalsh", "hilbert.is_map_positive"): RECORDED,
    ("eigvalsh", "hilbert.module_operator_norms"): RECORDED,
    ("eigvalsh", "hilbert.null_leak"): RECORDED,
    ("eigvalsh", "hilbert.quotient_by_columns"): VERDICT,  # the Hermitian and leak gates
    ("eigvalsh", "hilbert.quotient_by_copies"): VERDICT,  # the copy and Hermitian gates
    ("eigvalsh", "hilbert.quotient_by_null"): VERDICT,  # the Hermitian gate of rank decisions
    ("eigvalsh", "hilbert._quotient_stack"): VERDICT,  # the leak gate
    ("eigvalsh", "hilbert.unitarity_residual"): RECORDED,
    ("eigvalsh", "ksgns.check_idempotency"): RECORDED,
    ("eigvalsh", "ksgns.check_lift"): RECORDED,
    ("eigvalsh", "ksgns.check_triple"): RECORDED,
    ("eigvalsh", "ksgns.triple_uniqueness_unitary"): RECORDED,
    ("eigvalsh", "poscor.check_commuting_unitary"): RECORDED,
    ("eigvalsh", "poscor.morphism_distance"): RECORDED,
    # the SVDs a check pass still takes
    ("svd", "cp.random_blinear_unitary"): CONSTRUCTION,  # H's scale, kept on LAPACK's SVD
    ("svd", "ksgns.spanning_svd"): RECORDED,  # the spanning rank, and U's pseudo-inverse
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
                         [("suites-default", 1_631), ("equivariant-dilation", 640)])
def test_content_keys_per_check_pass(monkeypatch, workload, pin):
    # memo.content_key calls per check pass: 2,236 and 901 with C over itself
    # built and keyed in every instance memo, 2,180-2,185 and 861-862 with one per
    # process (fewer once the process has keyed its own), 1,984 and 822 with
    # each KSGNS build reading A's left multiplication from the process's table
    # instead of keying identity_star_map(A) in its instance memo; 1,628-1,631
    # and 640 with category composites built directly, so that category
    # objects and morphisms carry no key, and same_module comparing no keys
    # of one module object
    tasks = WORKLOADS.build(workload, WORKLOADS.DEFAULT_MASTER_SEED)
    keys = counted(monkeypatch, "content_key", source=memo)
    check_pass(tasks)
    assert len(keys) <= pin, len(keys)


# Python-level calls (cProfile's total) per tensor_quotients build of a check pass,
# replayed warm, per quotient path: 353 and 387 (equivariant-dilation rows and
# columns), 339, 301 and 285 (suites-default rows, columns and null) with each stage
# a loop of takes, concatenations and gates over the blocks and slices; 228, 156,
# 234, 147 and 214 with pi's images stacked once and the C-linearity gate one take,
# copy 0's eigenvectors and spectra in one row of pieces, the dispatch reading the
# process's algebra module first, slices reading their stack lazily, and the gates'
# verdicts without numpy's Python wrappers
STRUCTURED_CALLS = {
    "equivariant-dilation": {"rows": 229, "columns": 156},
    "suites-default": {"rows": 234, "columns": 147, "null": 214},
}


@pytest.mark.parametrize("workload", sorted(STRUCTURED_CALLS))
def test_python_calls_per_structured_build(workload):
    tasks = WORKLOADS.build(workload, WORKLOADS.DEFAULT_MASTER_SEED)
    QUOTIENT_COSTS.recorded_builds(tasks)  # the warm-up pass
    builds = QUOTIENT_COSTS.recorded_builds(tasks)
    calls = {path: (QUOTIENT_COSTS.python_calls(builds[path]) - 1) / len(builds[path])
             for path in STRUCTURED_CALLS[workload]}
    assert all(calls[p] <= pin for p, pin in STRUCTURED_CALLS[workload].items()), calls


@pytest.mark.parametrize("workload, pin", [("suites-default", 770), ("equivariant-dilation", 200)])
def test_payload_parses_per_check_pass(monkeypatch, workload, pin):
    # parses of a list of dumped arrays per check pass: 380 + 370 + 630 and
    # 0 + 120 + 120 (load_cmatrix, load_cmatrices and load_elements calls)
    # with each morphism's matrix and automorphism, each star map and each
    # sample parsed on its own; 770 and 200 with each payload section one
    # parse per shape, counted as calls of the one parser, _matrices (the
    # earlier count of 750 took an element stack of two block sizes, which
    # parses twice, as one)
    tasks = WORKLOADS.build(workload, WORKLOADS.DEFAULT_MASTER_SEED)
    parses = counted(monkeypatch, "_matrices", source=serialize)
    check_pass(tasks)
    assert len(parses) <= pin, len(parses)


@pytest.mark.parametrize("workload", ["suites-default", "equivariant-dilation"])
def test_each_group_is_validated_once_per_process(monkeypatch, workload):
    # FiniteGroup validations per check pass: 60 and 80 with every system's
    # group checked on every load; with the groups interned by content
    # (serialize.load_group), at most one per distinct group (4 on either
    # workload) in the first pass of a process, none after
    tasks = WORKLOADS.build(workload, WORKLOADS.DEFAULT_MASTER_SEED)
    checked, real = [], equivariant.FiniteGroup.__post_init__
    monkeypatch.setattr(equivariant.FiniteGroup, "__post_init__",
                        lambda G: checked.append(G.name) or real(G))
    check_pass(tasks)
    assert len(checked) == len(set(checked)) <= 4, checked
    checked.clear()
    check_pass(tasks)
    assert checked == []


def test_generating_and_checking_validates_each_menu_group_once(monkeypatch):
    # FiniteGroup validations from an empty process table over generating and
    # checking suites-default: 8 with harness.make_group and
    # serialize.load_group each validating the four menu groups, 4 with
    # make_group's groups interned where load_group finds them
    monkeypatch.setattr(memo, "_STRUCTURE", {})
    checked, real = [], equivariant.FiniteGroup.__post_init__
    monkeypatch.setattr(equivariant.FiniteGroup, "__post_init__",
                        lambda G: checked.append(G.name) or real(G))
    check_pass(WORKLOADS.build("suites-default", WORKLOADS.DEFAULT_MASTER_SEED))
    assert sorted(checked) == sorted(harness.GROUP_MENU), checked


def test_category_tensors_build_per_shape_on_a_check_pass(monkeypatch, suites_default):
    # the harness's interior_tensor_along calls over the category suite's
    # loads: 60 with one per morphism, 20 with one per tensor shape (1 or 3
    # per instance)
    calls, real = [], harness.interior_tensor_along
    monkeypatch.setattr(harness, "interior_tensor_along",
                        lambda *args: calls.append(1) or real(*args))
    check_pass([task for task in suites_default if task[0] == "category"])
    assert len(calls) <= 20, len(calls)


@pytest.mark.parametrize("workload", ["suites-default", "equivariant-dilation"])
def test_block_lists_parsed_per_check_pass(monkeypatch, workload):
    # AlgebraShapes made per check pass: 2,766 and 1,360 with every star map's
    # domain and codomain parsed anew; 756 and 40 with one per distinct block
    # list in each load_equivariant and load_system call; with one per block
    # sizes for the process (memo.structure), none on a second pass
    tasks = WORKLOADS.build(workload, WORKLOADS.DEFAULT_MASTER_SEED)
    check_pass(tasks)
    made, real = [], cstar.AlgebraShape.__post_init__

    def counting(shape):
        made.append(shape.blocks)
        real(shape)

    monkeypatch.setattr(cstar.AlgebraShape, "__post_init__", counting)
    assert cstar.AlgebraShape((1, 2)).dim == 5 and made == [(1, 2)]
    made.clear()
    check_pass(tasks)
    assert made == []


def test_every_lapack_site_is_labelled_and_verdicts_take_no_full_svd(monkeypatch, suites_default):
    # a verdict-only site takes no full norm, through the SVD or the Gram eigensolve
    calls = lapack_calls(monkeypatch)
    check_pass(suites_default)
    unlabelled = {(c.routine, c.site) for c in calls} - SITE_LABELS.keys()
    assert not unlabelled, f"label these call sites: {sorted(unlabelled)}"
    full = {c for c in calls if c.routine in ("svd", "eigvalsh") and c.kind == "full"
            and SITE_LABELS[c.routine, c.site] == VERDICT}
    assert not full, f"verdict-only sites take full norms: {sorted(full)}"


@pytest.mark.parametrize("workload, svd_sites, eigvalsh_pin", [
    ("suites-default", {"cp.random_blinear_unitary": 30, "ksgns.spanning_svd": 40}, 5_878),
    ("equivariant-dilation", {"ksgns.spanning_svd": 20}, 2_361),
    ("prespace-cap", {"cp.random_blinear_unitary": 3, "ksgns.spanning_svd": 3}, 261),
])
def test_svd_and_eigvalsh_matrices_per_check_pass(monkeypatch, workload, svd_sites, eigvalsh_pin):
    # SVD matrices per check pass: 9,966, 4,313 and 264 with every operator norm
    # the first singular value of an SVD; with norms from the smaller Gram's
    # eigvalsh only the spanning SVD (rank and pseudo-inverse) and the H scale
    # of random_blinear_unitary, kept on the SVD for its payload bits, remain,
    # and all-zero slices take no LAPACK call.  eigvalsh matrices: 245, 106 and
    # 3 (PSD verdicts alone), 10,141, 4,399 and 261 with the norms, 8,742,
    # 2,621 and 261 with the Gram-power bounds of certified maxima, 8,662,
    # 2,361 and 261 with check_dilation building only the records its suite
    # records (no embedding_adjoint, no check_correspondence of pi_phi); 5,878 on
    # suites-default with its 2,784 order-1 Grams decomposed without LAPACK
    tasks = WORKLOADS.build(workload, WORKLOADS.DEFAULT_MASTER_SEED)
    calls = lapack_calls(monkeypatch)
    check_pass(tasks)
    svds = {}
    for c in calls:
        if c.routine == "svd":
            svds[c.site] = svds.get(c.site, 0) + c.matrices
    assert svds == svd_sites
    eigvalsh = sum(c.matrices for c in calls if c.routine == "eigvalsh")
    assert eigvalsh <= eigvalsh_pin, eigvalsh


# eigvalsh matrices per check pass by width (the order of the Gram), with
# certified maxima from Gram-power bounds and check_dilation building only the
# records its suite records; before that trim they were, by width:
#   suites-default {1: 2784, 2: 3518, 3: 35, 4: 1154, 5: 74, 6: 127, 8: 588,
#     10: 39, 12: 22, 15: 28, 16: 195, 18: 50, 20: 14, 24: 9, 25: 14, 32: 47,
#     45: 22, 54: 22}
#   equivariant-dilation {2: 145, 4: 1788, 8: 266, 16: 422}
# and with the Frobenius certificate of stacks of 32 or more slices, by width:
#   suites-default {1: 3019, 2: 3887, 3: 35, 4: 1483, 5: 74, 6: 127, 8: 932,
#     10: 39, 12: 22, 15: 28, 16: 297, 18: 50, 20: 14, 24: 9, 25: 14, 32: 67,
#     45: 22, 54: 22}
#   equivariant-dilation {2: 152, 4: 2766, 8: 266, 16: 1215}
#   prespace-cap as below
# The 16-wide matrices of equivariant-dilation are the dilated check_equivariant's
# rounding-noise stacks, which a Frobenius bound cannot prune.  suites-default's
# 2,784 1-wide Grams no longer reach LAPACK (numkernel.eigvalsh answers order 1).
EIGVALSH_BY_WIDTH = {
    "suites-default": {2: 3487, 3: 35, 4: 1118, 5: 74, 6: 127, 8: 576, 10: 39,
                       12: 22, 15: 28, 16: 194, 18: 50, 20: 14, 24: 9, 25: 14, 32: 47,
                       45: 22, 54: 22},
    "equivariant-dilation": {2: 145, 4: 1708, 8: 106, 16: 402},
    "prespace-cap": {8: 37, 9: 37, 11: 37, 24: 37, 27: 37, 33: 37, 72: 13, 81: 13, 99: 13},
}


@pytest.mark.parametrize("workload", sorted(EIGVALSH_BY_WIDTH))
def test_eigvalsh_matrices_by_width_per_check_pass(monkeypatch, workload):
    # no width takes more eigensolves than it does here, and none appears anew
    tasks = WORKLOADS.build(workload, WORKLOADS.DEFAULT_MASTER_SEED)
    calls = lapack_calls(monkeypatch)
    check_pass(tasks)
    by_width = {}
    for c in calls:
        if c.routine == "eigvalsh":
            by_width[c.width] = by_width.get(c.width, 0) + c.matrices
    pins = EIGVALSH_BY_WIDTH[workload]
    assert by_width.keys() <= pins.keys(), sorted(by_width.keys() - pins.keys())
    assert all(by_width[w] <= pins[w] for w in by_width), by_width


def test_suites_default_eigh_calls(monkeypatch, suites_default):
    # 1,331 eigh calls per check pass with every column-split tensor's
    # quotient Gram decomposed again after its rank decision; 1,246 with the
    # quotient written in closed form from the copy-0 blocks' decisions;
    # 1,177 with every tensor along an algebra over itself structured, at
    # every width; 914 with order-1 eigensolves taking no LAPACK call
    calls = lapack_calls(monkeypatch)
    check_pass(suites_default)
    assert sum(c.routine == "eigh" for c in calls) <= 915


def eigh_cubes(calls: list) -> int:
    """The sum of n^3 over the eigh matrices of the calls."""
    return sum(c.matrices * c.width**3 for c in calls if c.routine == "eigh")


def test_suites_default_eigh_work(monkeypatch, suites_default):
    # the sum of n^3 over the eigh matrices of one check pass: 1.98M with the
    # tensors narrower than 16 (along C over itself) or 40 (A over itself) on
    # their whole Grams, 1.18M with the structure alone choosing the quotient
    calls = lapack_calls(monkeypatch)
    check_pass(suites_default)
    assert eigh_cubes(calls) <= 1_200_000, eigh_cubes(calls)


def test_prespace_cap_eigh_work(monkeypatch):
    # the sum of n^3 over the eigh matrices of one check pass: 5.63M with
    # every KSGNS quotient on its whole Gram, 2.02M with one eigh per block
    # of A over itself, for the rank decision and the quotient spectrum
    tasks = WORKLOADS.build("prespace-cap", WORKLOADS.DEFAULT_MASTER_SEED)
    calls = lapack_calls(monkeypatch)
    check_pass(tasks)
    assert eigh_cubes(calls) <= 4_000_000, eigh_cubes(calls)
    assert sum(c.routine == "eigh" for c in calls) <= 15


def test_prespace_cap_svd_work(monkeypatch):
    # the sum of m n min(m, n) over the SVD matrices of one check pass, pinv's
    # included: 52.6M with pi_phi's norms and multiplicativity differences on
    # whole (dim A, d, d) slices and (33, 99) row blocks, 32.6M on their live
    # blocks, 30.7M with one SVD of each triple's spanning columns where the
    # spanning rank and the uniqueness pseudo-inverse took one each (1.87M);
    # 3.75M with the norms on the Gram eigensolve, leaving the spanning SVDs
    # and random_blinear_unitary's H scale.  The sum of k^3 over the norms'
    # (k, k) Grams: 43.3M with no live cut, 27.0M on the live blocks
    tasks = WORKLOADS.build("prespace-cap", WORKLOADS.DEFAULT_MASTER_SEED)
    work, grams = [], []

    def measuring(routine, a):
        *lead, m, n = a.shape
        if routine == "svd":
            work.append(math.prod(lead) * m * n * min(m, n))
        elif routine == "eigvalsh":
            grams.append(math.prod(lead) * n**3)

    watch_lapack(monkeypatch, measuring)
    check_pass(tasks)
    assert sum(work) <= 3_750_000, sum(work)
    assert sum(grams) <= 27_100_000, sum(grams)


def test_check_cp_takes_no_norm_of_an_empty_stack(monkeypatch, suites_default):
    # numkernel.gram_norms calls on a stack of no matrices per check pass: 323,
    # 301 of them from cp.check_cp's build, which took the norms of the maps
    # whose norm was not yet cached when every norm was, and the exact
    # linearity norms of the slices the Frobenius gate could not pass when it
    # passed every slice; check_cp now skips both
    empty, real = [], numkernel.gram_norms

    def recording(X):
        if math.prod(X.shape[:-2]) == 0:
            frame = sys._getframe(1)
            while frame is not None and not (
                frame.f_code.co_name == "check_cp" and frame.f_globals["__name__"] == "ksgnslab.cp"
            ):
                frame = frame.f_back
            empty.append(frame is not None)
        return real(X)

    monkeypatch.setattr(numkernel, "gram_norms", recording)
    check_pass(suites_default)
    assert empty.count(True) == 0
    assert len(empty) <= 22, len(empty)
