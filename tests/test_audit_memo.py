"""The category and functor-law audits build each tensor module once.

`check_category_laws` and `check_functor_laws` build through the BuildMemo
they are given.  These tests count the interior tensor builds an audit makes
on a fresh memo, by content, compare the audits' residuals with the
memo-less loops they replaced (kept in conftest as the references, each
builder call on a fresh memo of its own), and check that a build which raises is
not remembered.  The functor audit composes F(g) F(h) on the tensor of
F(gh); the loop that composed on a fresh tensor along beta_g beta_h is kept
as a second reference.
"""

import numpy as np
import pytest

from ksgnslab import cp, equivariant
from ksgnslab.equivariant import (
    categorical_dilation_unitary,
    check_functor_laws,
    correspondence_to_functor,
    cyclic_group,
    dilate,
    random_equivariant,
    symmetric_group,
)
from ksgnslab.cstar import AlgebraShape
from ksgnslab.errors import WellDefinednessViolation
from ksgnslab.harness import SizeCaps, _load_category, generate_instance, instance_seed
from ksgnslab.numkernel import DEFAULT_TOL, operator_norm
from ksgnslab.poscor import (
    BuildMemo,
    check_category_laws,
    check_poscor_morphism,
    ksgns_functor,
    poscor_compose,
    poscor_identity,
)

from conftest import (
    category_laws_reference, failing, functor_laws_reference, passed, poscor_key, residuals,
    thresholds,
)


def category_payload(idx):
    return generate_instance("category", SizeCaps(), instance_seed(20250809, "category", idx))


def category_instance(idx):
    return _load_category(category_payload(idx), DEFAULT_TOL, BuildMemo())


M2 = AlgebraShape((2,))


def functor_instance(group, seed):
    c = random_equivariant(M2, M2, group, seed=seed, copies=1)
    return c, correspondence_to_functor(c, DEFAULT_TOL, BuildMemo())


# -- the memo-less audits, as they were before the memo -------------------------


def functor_laws_composed_reference(c, functor, tol=DEFAULT_TOL):
    """The memo-less functor audit as it was before composites moved onto the
    tensor of F(gh): each composite on a fresh tensor along beta_g beta_h."""
    return functor_laws_reference(c, functor, tol, along_group_law=False)


# -- build counts ---------------------------------------------------------------


def content(M):
    return M.dim, M.action.tobytes(), tuple(P.tobytes() for P in M.pairing)


def count_tensor_builds(monkeypatch):
    """Count interior tensor builds, the cp.tensor_quotients calls that
    interior_tensor makes on a memo miss, by the content of (E, F, pi)."""
    builds = {}
    real = cp.tensor_quotients

    def counting(E, F, pi, tol):
        for e, f, p in zip(E, F, pi):  # one count per slice of a stacked build
            key = (content(e), content(f), p.images.tobytes())
            builds[key] = builds.get(key, 0) + 1
        return real(E, F, pi, tol)

    monkeypatch.setattr(cp, "tensor_quotients", counting)
    return builds


def test_category_audit_builds_each_tensor_module_once(monkeypatch):
    objects, morphisms = category_instance(0)
    builds = count_tensor_builds(monkeypatch)
    rep = check_category_laws(objects, morphisms, DEFAULT_TOL, BuildMemo())
    assert passed(rep), rep
    assert len(builds) > len(objects)
    assert max(builds.values()) == 1


def test_functor_audit_builds_each_tensor_module_once(monkeypatch):
    # seed 11 draws a genuine S3 functor: six beta_g and six F(g) contents;
    # the guard counts the |G|^2 composites requested, the builds are once
    # per content
    c, functor = functor_instance(symmetric_group(3), 11)
    assert len({poscor_key(m) for m in functor}) == c.group.order
    builds = count_tensor_builds(monkeypatch)
    requests = []
    real = equivariant.poscor_compose

    def requesting(m2, m1, tol, memo, rho=None):
        requests.extend(zip(m2, m1))  # one request per slice of a stacked call
        return real(m2, m1, tol, memo, rho)

    monkeypatch.setattr(equivariant, "poscor_compose", requesting)
    rep = check_functor_laws(c, functor, DEFAULT_TOL, BuildMemo())
    assert passed(rep), rep
    assert len(requests) > c.group.order
    assert max(builds.values()) == 1


def test_functor_audit_builds_one_tensor_of_e_along_the_group_law(monkeypatch):
    # S3 with a non-trivial beta: composed along beta_g beta_h, the audit
    # built 37 tensors of E itself (one per composite and the identity's)
    c = random_equivariant(M2, M2, symmetric_group(3), seed=11, copies=1)
    memo = BuildMemo()
    functor = correspondence_to_functor(c, DEFAULT_TOL, memo)
    builds = count_tensor_builds(monkeypatch)
    rep = check_functor_laws(c, functor, DEFAULT_TOL, BuildMemo())
    monkeypatch.undo()
    assert passed(rep), rep
    assert sum(n for (E, _, _), n in builds.items() if E == content(c.module)) <= 1
    assert len(builds) > c.group.order
    assert max(builds.values()) == 1
    shared = check_functor_laws(c, functor, DEFAULT_TOL, memo)
    assert residuals(shared) == residuals(rep)
    assert thresholds(shared) == thresholds(rep)


# -- equality with the memo-less audits -------------------------------------------


@pytest.mark.parametrize("idx", [0, 1])
def test_category_audit_equals_memo_less_loops(idx):
    objects, morphisms = category_instance(idx)
    rep = check_category_laws(objects, morphisms, DEFAULT_TOL, BuildMemo())
    ref = category_laws_reference(objects, morphisms, DEFAULT_TOL)
    assert residuals(rep) == residuals(ref)
    assert thresholds(rep) == thresholds(ref)


@pytest.mark.parametrize(
    "group, seed", [(cyclic_group(2), 1), (symmetric_group(3), 11)], ids=["Z2", "S3"]
)
def test_functor_audit_equals_memo_less_loops(group, seed):
    c, functor = functor_instance(group, seed)
    rep = check_functor_laws(c, functor, DEFAULT_TOL, BuildMemo())
    ref = functor_laws_reference(c, functor, DEFAULT_TOL)
    assert residuals(rep) == residuals(ref)
    assert thresholds(rep) == thresholds(ref)


@pytest.mark.parametrize(
    "group, seed",
    [(cyclic_group(2), 1), (cyclic_group(3), 1), (cyclic_group(4), 1), (symmetric_group(3), 11)],
    ids=["Z2", "Z3", "Z4", "S3"],
)
def test_group_law_composites_agree_with_composed_coefficients(group, seed):
    c, functor = functor_instance(group, seed)
    along = functor_laws_reference(c, functor, DEFAULT_TOL)
    composed = functor_laws_composed_reference(c, functor, DEFAULT_TOL)
    assert passed(along), along
    assert passed(composed), composed
    gap = residuals(along)["functor_composition"] - residuals(composed)["functor_composition"]
    assert abs(gap) <= 1e-13
    # beta is not the identity, so the two references compose along star maps
    # whose coefficients differ in the last bits
    eye = np.eye(c.module.algebra.dim)
    assert any(not np.array_equal(a.matrix, eye) for a in c.system_out.action)


# -- failed builds are not remembered ---------------------------------------------


def test_memo_stores_only_finished_builds():
    memo = BuildMemo()
    calls = []

    def failing(todo):
        calls.append("fail")
        raise WellDefinednessViolation("build failed")

    for _ in range(2):
        with pytest.raises(WellDefinednessViolation):
            memo.get_all([("k",)], failing)
    assert calls == ["fail", "fail"]
    first = memo.get_all([("k",)], lambda todo: [np.ones(2)])[0]
    assert memo.get_all([("k",)], failing)[0] is first


def test_category_audit_failed_build_still_breaks_closure(monkeypatch):
    # one tensor content fails every time it is built, so also when its
    # stack is built again one pair at a time: the last slice of the first
    # build after the identities' (one tensor per object)
    objects, morphisms = category_instance(0)
    real = cp.tensor_quotients
    calls, bad = [], []

    def fail_one_content(E, F, pi, tol):
        calls.append(E)
        slices = [(content(e), content(f), p.images.tobytes()) for e, f, p in zip(E, F, pi)]
        if len(calls) == len(objects) + 1:
            bad.append(slices[-1])
        if bad and bad[0] in slices:
            raise WellDefinednessViolation("injected")
        return real(E, F, pi, tol)

    monkeypatch.setattr(cp, "tensor_quotients", fail_one_content)
    rep = check_category_laws(objects, morphisms, DEFAULT_TOL, BuildMemo())
    assert bad
    assert residuals(rep)["closure"] == float("inf")
    assert "closure" in failing(rep)
    assert residuals(rep)["associativity"] <= thresholds(rep)["associativity"]


# -- objects built outside the memo ------------------------------------------------


def test_fresh_memo_builders_share_within_the_call(monkeypatch):
    # iota is read on the inclusion tensor, the composite on m1's tensor: on
    # a fresh memo the identity builds one tensor and a composite two (the
    # double and the target), none of them twice
    objects, morphisms = category_instance(0)
    m1, m2 = next(
        (a, b) for a in morphisms for b in morphisms if a is not b and a.cod.ident == b.dom.ident
    )
    builds = count_tensor_builds(monkeypatch)
    poscor_identity(objects[0], DEFAULT_TOL, BuildMemo())
    assert sum(builds.values()) == 1
    builds.clear()
    composed = poscor_compose([m2], [m1], DEFAULT_TOL, BuildMemo())[0]
    assert sum(builds.values()) == 2
    assert passed(check_poscor_morphism([composed], DEFAULT_TOL, BuildMemo())[0])


def test_content_equal_foreign_objects_give_the_same_matrices():
    # a quadruple or morphism built in another memo is equal in content to
    # the memo's own, so it reads the same matrices
    c = random_equivariant(M2, M2, cyclic_group(2), seed=1, copies=1)
    memo, other = BuildMemo(), BuildMemo()
    quad = dilate(c, DEFAULT_TOL, memo)
    foreign = dilate(c, DEFAULT_TOL, other)
    assert foreign.triple is not quad.triple
    cats = categorical_dilation_unitary(c, DEFAULT_TOL, memo)
    for g in range(c.group.order):
        assert operator_norm(cats[g] - quad.unitaries[g]) <= 1e-8
    assert np.array_equal(categorical_dilation_unitary(c, DEFAULT_TOL, other), cats)
    payload = category_payload(1)
    objects, morphisms = _load_category(payload, DEFAULT_TOL, memo)
    _, loaded_elsewhere = _load_category(payload, DEFAULT_TOL, other)
    m, f = morphisms[0], loaded_elsewhere[0]
    assert f is not m and f.dom_tensor is not m.dom_tensor and poscor_key(f) == poscor_key(m)
    k, kf = (ksgns_functor([x], DEFAULT_TOL, memo)[0] for x in (m, f))
    assert passed(check_poscor_morphism([k], DEFAULT_TOL, memo)[0])
    assert poscor_key(kf) == poscor_key(k)
    assert kf.dom_tensor is k.dom_tensor
    # composites are built from content: the foreign pair's has the bits of the memo's own
    i = next(i for i, x in enumerate(morphisms) if x.dom.ident == m.cod.ident)
    m2, f2 = morphisms[i], loaded_elsewhere[i]
    composed = poscor_compose([m2], [m], DEFAULT_TOL, memo)[0]
    composed_foreign = poscor_compose([f2], [f], DEFAULT_TOL, memo)[0]
    assert np.array_equal(composed_foreign.eta.matrix, composed.eta.matrix)
    assert np.array_equal(composed_foreign.alpha.matrix, composed.alpha.matrix)
    assert np.array_equal(composed_foreign.pullback, composed.pullback)


def test_morphisms_and_objects_compare_by_identity():
    # == on these classes is identity, so `in` and list.index find each
    # loaded morphism of category instance 1 without comparing arrays; two
    # loads of one payload are equal in content, which is equality of keys
    payload = category_payload(1)
    _, morphisms = _load_category(payload, DEFAULT_TOL, BuildMemo())
    _, twins = _load_category(payload, DEFAULT_TOL, BuildMemo())
    for i, (m, twin) in enumerate(zip(morphisms, twins)):
        assert m in morphisms and morphisms.index(m) == i
        assert twin not in morphisms
        assert m != twin and poscor_key(m) == poscor_key(twin)
        assert m.dom != twin.dom and poscor_key(m.dom) == poscor_key(twin.dom)
