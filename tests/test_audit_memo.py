"""The category and functor-law audits build each tensor module once.

`check_category_laws` and `check_functor_laws` build through the BuildMemo
they are given.  These tests count the interior tensor builds an audit makes
on a fresh memo, by content, compare the audits' residuals with the
memo-less loops they replaced (kept below as the reference, each builder
call on a fresh memo of its own), and check that a build which raises is
not remembered.  The functor audit composes F(g) F(h) on the tensor of
F(gh); the loop that composed on a fresh tensor along beta_g beta_h is kept
as a second reference.
"""

import itertools

import numpy as np
import pytest

from ksgnslab import equivariant, poscor
from ksgnslab.equivariant import (
    _gram_scale,
    categorical_dilation_unitary,
    check_functor_laws,
    correspondence_to_functor,
    cyclic_group,
    dilate,
    random_equivariant,
    symmetric_group,
)
from ksgnslab.cstar import AlgebraShape
from ksgnslab.errors import KsgnslabError, WellDefinednessViolation
from ksgnslab.harness import SizeCaps, _load_category, generate_instance, instance_seed
from ksgnslab.hilbert import unitarity_residual
from ksgnslab.numkernel import DEFAULT_TOL, operator_norm
from ksgnslab.poscor import (
    BuildMemo,
    check_category_laws,
    check_poscor_morphism,
    interior_tensor_along,
    ksgns_functor_poscor,
    morphism_distance,
    poscor_compose,
    poscor_identity,
)
from ksgnslab.reporting import CheckReport


def category_payload(idx):
    return generate_instance("category", SizeCaps(), instance_seed(20250809, "category", idx))


def category_instance(idx):
    return _load_category(category_payload(idx), DEFAULT_TOL, BuildMemo())


M2 = AlgebraShape((2,))


def functor_instance(group, seed):
    c = random_equivariant(M2, M2, group, seed=seed, copies=1)
    return c, correspondence_to_functor(c, DEFAULT_TOL, BuildMemo())


# -- the memo-less audits, as they were before the memo -------------------------


def identity(obj, tol):
    return poscor_identity(obj, tol, BuildMemo())


def compose(m2, m1, tol, rho=None):
    return poscor_compose(m2, m1, tol, BuildMemo(), rho)


def category_laws_reference(objects, morphisms, tol=DEFAULT_TOL):
    rep = CheckReport()
    identities = {o.ident: identity(o, tol) for o in objects}
    left_id = right_id = 0.0
    scale = 1.0
    closure = CheckReport()
    broken = 0
    for m in morphisms:
        scale = max(scale, 1.0 + m.norm)
        try:
            left_id = max(
                left_id,
                morphism_distance(compose(identities[m.cod.ident], m, tol), m),
            )
            right_id = max(
                right_id,
                morphism_distance(compose(m, identities[m.dom.ident], tol), m),
            )
        except KsgnslabError:
            broken += 1
    rep.add("left_identity", left_id, tol.ctol * scale)
    rep.add("right_identity", right_id, tol.ctol * scale)
    assoc = 0.0
    pair_count = 0
    for m1, m2 in itertools.product(morphisms, repeat=2):
        if m1 is m2 or m1.cod.ident != m2.dom.ident:
            continue
        pair_count += 1
        try:
            composed = compose(m2, m1, tol)
            closure.merge(
                check_poscor_morphism(composed, tol), prefix=f"pair{pair_count}_"
            )
            for m3 in morphisms:
                if m3.dom.ident != m2.cod.ident:
                    continue
                lhs = compose(m3, composed, tol)
                rhs = compose(compose(m3, m2, tol), m1, tol)
                assoc = max(assoc, morphism_distance(lhs, rhs))
        except KsgnslabError:
            broken += 1
    rep.add("associativity", assoc, tol.ctol * scale**3)
    rep.add(
        "composition_closure",
        float("inf") if broken else closure.max_residual,
        max(closure.thresholds.values(), default=tol.ctol),
    )
    return rep


def functor_laws_reference(c, functor, tol=DEFAULT_TOL):
    """The memo-less functor audit, composing F(g) F(h) on the tensor of F(gh)."""
    return _functor_laws_loop(c, functor, tol, along_group_law=True)


def functor_laws_composed_reference(c, functor, tol=DEFAULT_TOL):
    """The memo-less functor audit as it was before composites moved onto the
    tensor of F(gh): each composite on a fresh tensor along beta_g beta_h."""
    return _functor_laws_loop(c, functor, tol, along_group_law=False)


def _functor_laws_loop(c, functor, tol, along_group_law):
    rep = CheckReport()
    G = c.group
    scale = 1.0 + max(1.0, _gram_scale(c.module))
    recover = max(
        operator_norm(functor.morphisms[g].pullback - c.unitaries[g])
        for g in range(G.order)
    )
    rep.add("unitary_recovery", recover, tol.ctol * scale)
    unit_gap = morphism_distance(functor.morphisms[G.identity], identity(functor.obj, tol))
    rep.add("unit_law", unit_gap, tol.ctol * scale)
    law = unitary = 0.0
    for g in range(G.order):
        unitary = max(unitary, unitarity_residual(functor.morphisms[g].eta))
        for h in range(G.order):
            gh = G.mul(g, h)
            rho = functor.morphisms[gh].rho if along_group_law else None
            composed = compose(functor.morphisms[g], functor.morphisms[h], tol, rho)
            law = max(law, operator_norm(composed.pullback - c.unitaries[gh]))
    rep.add("composition_law", law, tol.ctol * scale)
    rep.add("unitary_valued", unitary, tol.ctol * scale)
    return rep


# -- build counts ---------------------------------------------------------------


def content(M):
    return M.dim, M.action.tobytes(), tuple(P.tobytes() for P in M.pairing)


def count_tensor_builds(monkeypatch):
    """Count poscor.interior_tensor builds by the content of (E, F, pi)."""
    builds = {}
    real = poscor.interior_tensor

    def counting(E, F, pi, tol=DEFAULT_TOL):
        key = (content(E), content(F), pi.images.tobytes())
        builds[key] = builds.get(key, 0) + 1
        return real(E, F, pi, tol)

    monkeypatch.setattr(poscor, "interior_tensor", counting)
    return builds


def test_category_audit_builds_each_tensor_module_once(monkeypatch):
    objects, morphisms = category_instance(0)
    builds = count_tensor_builds(monkeypatch)
    rep = check_category_laws(objects, morphisms, DEFAULT_TOL, BuildMemo())
    assert rep.passed, rep.residuals
    assert len(builds) > len(objects)
    assert max(builds.values()) == 1


def test_functor_audit_builds_each_tensor_module_once(monkeypatch):
    # seed 11 draws a genuine S3 functor: six beta_g and six F(g) contents;
    # the guard counts the |G|^2 composites requested, the builds are once
    # per content
    c, functor = functor_instance(symmetric_group(3), 11)
    assert len({m.key for m in functor.morphisms}) == c.group.order
    builds = count_tensor_builds(monkeypatch)
    requests = []
    real = equivariant.poscor_compose

    def requesting(m2, m1, tol, memo, rho=None):
        requests.append((m2, m1))
        return real(m2, m1, tol, memo, rho)

    monkeypatch.setattr(equivariant, "poscor_compose", requesting)
    rep = check_functor_laws(c, functor, DEFAULT_TOL, BuildMemo())
    assert rep.passed, rep.residuals
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
    assert rep.passed, rep.residuals
    assert sum(n for (E, _, _), n in builds.items() if E == content(c.module)) <= 1
    assert len(builds) > c.group.order
    assert max(builds.values()) == 1
    shared = check_functor_laws(c, functor, DEFAULT_TOL, memo)
    assert shared.residuals == rep.residuals
    assert shared.thresholds == rep.thresholds


# -- equality with the memo-less audits -------------------------------------------


@pytest.mark.parametrize("idx", [0, 1])
def test_category_audit_equals_memo_less_loops(idx):
    objects, morphisms = category_instance(idx)
    rep = check_category_laws(objects, morphisms, DEFAULT_TOL, BuildMemo())
    ref = category_laws_reference(objects, morphisms, DEFAULT_TOL)
    assert rep.residuals == ref.residuals
    assert rep.thresholds == ref.thresholds


@pytest.mark.parametrize(
    "group, seed", [(cyclic_group(2), 1), (symmetric_group(3), 11)], ids=["Z2", "S3"]
)
def test_functor_audit_equals_memo_less_loops(group, seed):
    c, functor = functor_instance(group, seed)
    rep = check_functor_laws(c, functor, DEFAULT_TOL, BuildMemo())
    ref = functor_laws_reference(c, functor, DEFAULT_TOL)
    assert rep.residuals == ref.residuals
    assert rep.thresholds == ref.thresholds


@pytest.mark.parametrize(
    "group, seed",
    [(cyclic_group(2), 1), (cyclic_group(3), 1), (cyclic_group(4), 1), (symmetric_group(3), 11)],
    ids=["Z2", "Z3", "Z4", "S3"],
)
def test_group_law_composites_agree_with_composed_coefficients(group, seed):
    c, functor = functor_instance(group, seed)
    along = functor_laws_reference(c, functor, DEFAULT_TOL)
    composed = functor_laws_composed_reference(c, functor, DEFAULT_TOL)
    assert along.passed, along.residuals
    assert composed.passed, composed.residuals
    gap = along.residuals["composition_law"] - composed.residuals["composition_law"]
    assert abs(gap) <= 1e-13
    # beta is not the identity, so the two references compose along star maps
    # whose coefficients differ in the last bits
    eye = np.eye(c.module.algebra.dim)
    assert any(not np.array_equal(a.matrix, eye) for a in c.system_out.action)


# -- failed builds are not remembered ---------------------------------------------


def test_memo_stores_only_finished_builds():
    memo = BuildMemo()
    calls = []

    def failing():
        calls.append("fail")
        raise WellDefinednessViolation("build failed")

    for _ in range(2):
        with pytest.raises(WellDefinednessViolation):
            memo.get(("k",), failing)
    assert calls == ["fail", "fail"]
    first = memo.get(("k",), lambda: np.ones(2))
    assert memo.get(("k",), failing) is first


def test_category_audit_failed_build_still_breaks_closure(monkeypatch):
    objects, morphisms = category_instance(0)
    real = poscor.interior_tensor
    calls = []

    def fail_once(E, F, pi, tol=DEFAULT_TOL):
        calls.append(E)
        # the identities build one tensor per object; fail the first build after
        if len(calls) == len(objects) + 1:
            raise WellDefinednessViolation("injected")
        return real(E, F, pi, tol)

    monkeypatch.setattr(poscor, "interior_tensor", fail_once)
    rep = check_category_laws(objects, morphisms, DEFAULT_TOL, BuildMemo())
    assert rep.residuals["composition_closure"] == float("inf")
    assert "composition_closure" in rep.failing()
    assert rep.residuals["associativity"] <= rep.thresholds["associativity"]


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
    composed = poscor_compose(m2, m1, DEFAULT_TOL, BuildMemo())
    assert sum(builds.values()) == 2
    assert check_poscor_morphism(composed).passed


def test_content_equal_foreign_objects_give_the_same_matrices():
    # a quadruple or morphism built in another memo is equal in content to
    # the memo's own, so it reads the same matrices
    c = random_equivariant(M2, M2, cyclic_group(2), seed=1, copies=1)
    memo, other = BuildMemo(), BuildMemo()
    quad = dilate(c, DEFAULT_TOL, memo)
    foreign = dilate(c, DEFAULT_TOL, other)
    assert foreign.triple is not quad.triple
    for g in range(c.group.order):
        cat = categorical_dilation_unitary(c, quad, g, DEFAULT_TOL, memo)
        assert operator_norm(cat - quad.unitaries[g]) <= 1e-8
        assert np.array_equal(categorical_dilation_unitary(c, foreign, g, DEFAULT_TOL, memo), cat)
    payload = category_payload(1)
    objects, morphisms = _load_category(payload, DEFAULT_TOL, memo)
    _, loaded_elsewhere = _load_category(payload, DEFAULT_TOL, other)
    m, f = morphisms[0], loaded_elsewhere[0]
    assert f is not m and f.dom_tensor is not m.dom_tensor and f.key == m.key
    k, kf = (ksgns_functor_poscor(x, DEFAULT_TOL, memo) for x in (m, f))
    assert check_poscor_morphism(k).passed
    assert kf.key == k.key
    assert kf.dom_tensor is k.dom_tensor
    # composites are keyed by content: the foreign pair finds the memo's composite
    m2 = next(x for x in morphisms if x.dom.ident == m.cod.ident)
    f2 = loaded_elsewhere[morphisms.index(m2)]
    composed = poscor_compose(m2, m, DEFAULT_TOL, memo)
    assert poscor_compose(f2, f, DEFAULT_TOL, memo) is composed
