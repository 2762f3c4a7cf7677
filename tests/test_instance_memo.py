"""check_instance builds through one BuildMemo that lives for the instance.

These tests count the interior tensor pre-modules and Choi certificates one
checked instance builds, check that nothing built inside an instance
outlives it, and check that a build which raises inside the memo still
breaks the category audit's closure record.
"""

import gc
import importlib
import weakref

import pytest

from ksgnslab import cp, harness, poscor
from ksgnslab.errors import WellDefinednessViolation
from ksgnslab.harness import SizeCaps, check_instance, generate_instance, instance_seed
from ksgnslab.numkernel import DEFAULT_TOL

ksgns_module = importlib.import_module("ksgnslab.ksgns")


def payload(suite, idx):
    return generate_instance(suite, SizeCaps(), instance_seed(20250809, suite, idx))


def content(M):
    return M.dim, M.action.tobytes(), tuple(P.tobytes() for P in M.pairing)


def count_builds(monkeypatch):
    """Count tensor_premodule calls by the content of (E, F, pi) and check_cp
    calls by the content of (E, phi)."""
    tensors, cps = {}, {}
    real_premodule, real_check_cp = cp.tensor_premodule, cp.check_cp

    def premodule(E, F, pi):
        key = (content(E), content(F), pi.images.tobytes())
        tensors[key] = tensors.get(key, 0) + 1
        return real_premodule(E, F, pi)

    def check_cp(phi, tol=DEFAULT_TOL):
        key = (content(phi.module), phi.images.tobytes())
        cps[key] = cps.get(key, 0) + 1
        return real_check_cp(phi, tol)

    monkeypatch.setattr(cp, "tensor_premodule", premodule)
    monkeypatch.setattr(ksgns_module, "check_cp", check_cp)
    monkeypatch.setattr(harness, "check_cp", check_cp)
    return tensors, cps


# category instance 1 checks the laws only; dilation instance 1 is over S3
@pytest.mark.parametrize("suite, idx", [("category", 1), ("dilation", 1)])
def test_instance_builds_each_tensor_and_triple_once(monkeypatch, suite, idx):
    data = payload(suite, idx)
    tensors, cps = count_builds(monkeypatch)
    records = check_instance(suite, data, DEFAULT_TOL)
    assert records and all(r.passed for r in records), [r for r in records if not r.passed]
    assert len(tensors) > 3
    assert max(tensors.values()) == 1
    assert max(cps.values(), default=1) == 1


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

    def tracking(E, F, pi, tol=DEFAULT_TOL):
        tm = real(E, F, pi, tol)
        refs.append(weakref.ref(tm))
        return tm

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
    real_tensor, real_composition = poscor.interior_tensor, poscor.composition_unitary

    def composition(*args, **kwargs):
        composing.append(True)
        try:
            return real_composition(*args, **kwargs)
        finally:
            composing.pop()

    def fail_once(E, F, pi, tol=DEFAULT_TOL):
        # the first tensor a composite needs is built inside the audit
        if composing and not failed:
            failed.append(E)
            raise WellDefinednessViolation("injected")
        return real_tensor(E, F, pi, tol)

    data = payload("category", 1)
    monkeypatch.setattr(poscor, "composition_unitary", composition)
    monkeypatch.setattr(poscor, "interior_tensor", fail_once)
    records = {r.check: r for r in check_instance("category", data, DEFAULT_TOL)}
    assert failed
    assert "construction" not in records
    assert records["closure"].residual == float("inf")
    assert not records["closure"].passed
    assert records["associativity"].passed
    assert records["morphism_invariants"].passed
