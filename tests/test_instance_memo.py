"""check_instance builds through one BuildMemo that lives for the instance,
and reads block-size structure from one table that lives for the process.

These tests count the interior tensor builds and Choi certificates one
checked instance builds, check that nothing built inside an instance
outlives it, check that a build which raises inside the memo still breaks
the category audit's closure record, and check that instances share one
read-only algebra module, Copies and CopyLayout per shape.
"""

import gc
import importlib
import weakref

import numpy as np
import pytest

from ksgnslab import cp, harness, poscor
from ksgnslab import serialize as ser
from ksgnslab.cstar import AlgebraShape
from ksgnslab.equivariant import random_equivariant
from ksgnslab.errors import WellDefinednessViolation
from ksgnslab.harness import (
    SizeCaps, check_instance, generate_instance, instance_seed, make_group,
)
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import DEFAULT_TOL


def payload(suite, idx):
    return generate_instance(suite, SizeCaps(), instance_seed(20250809, suite, idx))


def content(M):
    return M.dim, M.action.tobytes(), tuple(P.tobytes() for P in M.pairing)


def count_builds(monkeypatch):
    """Count tensor builds, the slices of cp.tensor_quotients calls (interior_tensor's
    and ksgns's), by the content of (E, F, pi), and Choi certificates by the
    content key of phi: the memo misses of check_cp, which both ksgns and the
    harness's records go through."""
    tensors, cps = {}, {}
    real_quotients, real_get_all = cp.tensor_quotients, BuildMemo.get_all

    def quotients(E, F, pi, tol):
        for e, f, p in zip(E, F, pi):  # one count per slice of a stacked build
            key = (content(e), content(f), p.images.tobytes())
            tensors[key] = tensors.get(key, 0) + 1
        return real_quotients(E, F, pi, tol)

    def get_all(memo, keys, build):
        def certify(todo):
            for i in todo:  # ("check_cp", phi.key, tol)
                cps[keys[i][1]] = cps.get(keys[i][1], 0) + 1
            return build(todo)

        return real_get_all(memo, keys, certify if keys[0][0] == "check_cp" else build)

    for module in (cp, importlib.import_module("ksgnslab.ksgns")):
        monkeypatch.setattr(module, "tensor_quotients", quotients)
    monkeypatch.setattr(BuildMemo, "get_all", get_all)
    return tensors, cps


# the fewest tensor contents one default-caps instance of each suite builds
FEWEST_TENSORS = {
    "ksgns": 1, "lift": 3, "idempotency": 4, "tensor": 16, "category": 9,
    "equivariant": 2, "dilation": 4, "continuity": 1, "uniqueness": 1,
}


# every instance of the nine suites at the default caps; content-equal inputs
# built as separate objects (category 0, tensor 0 and 7, continuity) are
# built once
@pytest.mark.parametrize(
    "suite, idx", [(suite, idx) for suite in harness.SUITE_NAMES for idx in range(10)]
)
def test_instance_builds_each_tensor_and_triple_once(monkeypatch, suite, idx):
    data = payload(suite, idx)
    tensors, cps = count_builds(monkeypatch)
    records = check_instance(suite, data, DEFAULT_TOL)
    assert records and all(r.passed for r in records), [r for r in records if not r.passed]
    assert len(tensors) >= FEWEST_TENSORS[suite]
    assert max(tensors.values()) == 1
    assert max(cps.values(), default=1) == 1


def test_ksgns_suite_certifies_each_map_once(monkeypatch):
    # the input_cp record and the dilation's own certificate share one run
    _, cps = count_builds(monkeypatch)
    for idx in range(10):
        records = check_instance("ksgns", payload("ksgns", idx), DEFAULT_TOL)
        assert {"input_cp", "reconstruction"} <= {r.check for r in records}
    assert len(cps) == 10
    assert set(cps.values()) == {1}


def test_ksgns_functor_block_certifies_each_map_once(monkeypatch):
    # category instance 7 also runs the KSGNS-functor checks
    data = payload("category", 7)
    assert "ksgns_functor" in data["checks"]
    _, cps = count_builds(monkeypatch)
    records = check_instance("category", data, DEFAULT_TOL)
    assert all(r.passed for r in records)
    assert len(cps) >= 3
    assert max(cps.values()) == 1


def test_instance_builds_die_with_the_instance(monkeypatch):
    refs = []
    real = poscor.interior_tensor

    def tracking(E, F, pi, tol, memo):
        tms = real(E, F, pi, tol, memo)
        refs.extend(weakref.ref(tm) for tm in tms)
        return tms

    data = payload("category", 0)
    monkeypatch.setattr(poscor, "interior_tensor", tracking)
    records = check_instance("category", data, DEFAULT_TOL)
    assert all(r.passed for r in records)
    gc.collect()
    assert refs
    assert all(ref() is None for ref in refs)


def test_failed_build_in_instance_memo_breaks_closure(monkeypatch):
    composing = []
    failed = []
    real_quotients, real_composition = cp.tensor_quotients, poscor.composition_unitary

    def composition(*args, **kwargs):
        composing.append(True)
        try:
            return real_composition(*args, **kwargs)
        finally:
            composing.pop()

    def fail_one_content(E, F, pi, tol):
        # the first tensor a composite needs is built inside the audit; its
        # content fails every time, also when its stack is built again one
        # pair at a time
        slices = [(content(e), content(f), p.images.tobytes()) for e, f, p in zip(E, F, pi)]
        if composing and not failed:
            failed.append(slices[0])
        if failed and failed[0] in slices:
            raise WellDefinednessViolation("injected")
        return real_quotients(E, F, pi, tol)

    data = payload("category", 1)
    monkeypatch.setattr(poscor, "composition_unitary", composition)
    monkeypatch.setattr(cp, "tensor_quotients", fail_one_content)
    records = {r.check: r for r in check_instance("category", data, DEFAULT_TOL)}
    assert failed
    assert "construction" not in records
    assert records["closure"].residual == float("inf")
    assert not records["closure"].passed
    assert records["associativity"].passed
    assert records["morphism_invariants"].passed


def m2_payload(seed, group):
    """An equivariant-suite payload over A = B = M_2, as the equivariant-dilation
    workload draws them."""
    M2 = AlgebraShape((2,))
    c = random_equivariant(M2, M2, make_group(group), seed=seed, copies=1)
    return {"seed": seed, "group": group, "correspondence": ser.dump_equivariant(c)}


def assert_read_only(*arrays):
    for X in arrays:
        with pytest.raises(ValueError, match="read-only"):
            X[(0,) * X.ndim] = 0


def test_instances_share_one_read_only_algebra_module(monkeypatch):
    seen, real = [], cp.algebra_module

    def recording(C):
        seen[-1].append(real(C))
        return seen[-1][-1]

    monkeypatch.setattr(cp, "algebra_module", recording)
    for seed, group in ((1, "Z2"), (2, "S3")):
        seen.append([])
        assert all(r.passed for r in check_instance("equivariant", m2_payload(seed, group),
                                                    DEFAULT_TOL))
    first, second = seen
    assert first and second  # each instance asks for M_2 over itself
    E = first[0]
    assert E.algebra == AlgebraShape((2,)) and all(F is E for F in first + second)
    assert_read_only(E.action, *E.pairing, *E.gram_spectrum, E.gram_matrix, E.gram_sqrt,
                     E.gram_isqrt, E.gram_inv)


def test_copies_and_their_layouts_are_shared_and_read_only():
    C = AlgebraShape((1, 2))
    for split in (cp.row_split, cp.column_split):
        copies = split(C, 3)
        assert split(AlgebraShape((1, 2)), 3) is copies and split(C, 2) is not copies
        layout = copies.layout([(np.array([1]), None, None), (np.array([2]), None, None)])
        again = copies.layout([(np.array([1, 1]), None, None), (np.array([2]), None, None)])
        assert again is layout  # the ranks of slice 0 decide it
        assert_read_only(*copies, *copies.counterparts,
                         layout.s, layout.kernel, layout.diagonal, layout.spread, layout.index,
                         *layout.after)
    action, pairing, spread = layout.closed_form
    assert_read_only(action, *pairing, spread)
