"""The category audit composes, measures and checks stacks, not pairs.

`poscor.check_category_laws` builds its composites in two rounds, one
poscor_compose call per group of pairs of one shape, each pair of positions
once, and takes every distance and closure check over whole stacks.  These
tests count the calls and slices of one default check pass, fail each law
record by corrupting one composite at a later slice of a stacked call (a
slice mixed up with its pair would pass silently), and break one slice of a
stack on its own.
"""

from dataclasses import replace

import numpy as np
import pytest

import conftest
from ksgnslab import equivariant, harness, poscor
from ksgnslab.cp import CPMap, check_morphism
from ksgnslab.cstar import Automorphism, StarMap
from ksgnslab.errors import WellDefinednessViolation
from ksgnslab.harness import (
    SUITE_NAMES, SizeCaps, _load_category, check_instance, generate_instance, instance_seed,
)
from ksgnslab.hilbert import ModuleMap
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import DEFAULT_TOL
from ksgnslab.poscor import (
    check_category_laws, morphism_distance, morphism_shape, poscor_identity, tensor_extend_cpmap,
)

from conftest import (
    category_laws_reference, passed, poscor_key, residuals, thresholds,
)

MASTER = 20250809


def category_payload(idx):
    return generate_instance("category", SizeCaps(), instance_seed(MASTER, "category", idx))


def test_default_check_pass_stacks_the_category_audit(monkeypatch):
    # one check pass over the 90 default-caps instances: one composite per
    # poscor_compose call made 526 calls and 2,579 SVDs; one call per shape
    # group and level makes 121 and 1,756, and taking each category
    # morphism's norm once, in check_morphism's batch, 1,696.  With operator
    # norms from the smaller Gram's eigvalsh, the batched norms and PSD
    # verdicts make 1,631 eigvalsh calls, and 70 SVDs remain (the spanning
    # SVDs and random_blinear_unitary's H scale).  Building the category laws'
    # composites in two rounds, everything made of the given morphisms first,
    # takes 69 calls instead of five levels' 121.  Gram-power bounds in place of
    # the Frobenius certificate, and one norm batch each in check_equivariant,
    # check_triple and check_correspondence, make 1,511 eigvalsh calls
    tasks = [
        (suite, generate_instance(suite, SizeCaps(), instance_seed(MASTER, suite, idx)))
        for suite in SUITE_NAMES
        for idx in range(SizeCaps().instances_per_suite)
    ]
    composes = []
    real = poscor.poscor_compose

    def counting(*args, **kwargs):
        composes.append(len(args[0]))
        return real(*args, **kwargs)

    for module in (poscor, harness, equivariant):
        monkeypatch.setattr(module, "poscor_compose", counting)
    calls = conftest.lapack_calls(monkeypatch)
    records = [r for suite, p in tasks for r in check_instance(suite, p, DEFAULT_TOL)]
    routines = [c.routine for c in calls]
    assert len(records) == 826 and all(r.passed for r in records)
    assert len(composes) <= 69, len(composes)
    assert 1000 < routines.count("eigvalsh") <= 1511, routines.count("eigvalsh")
    assert routines.count("svd") <= 70, routines.count("svd")
    # 1,660 eigh calls with one per quotient module and a C over itself per
    # left-multiplication build; 1,331 with one per stack of quotients
    assert routines.count("eigh") <= 1350, routines.count("eigh")


def test_category_audit_composes_each_pair_of_positions_once(monkeypatch):
    # the slices check_category_laws hands poscor_compose over the category
    # instances of a default check pass: 500 when every triple's tail m3 . m2
    # was requested again (the build memo found 90 of them by content), 410
    # with each tail read by morphism index from the pair composites or from
    # the one self-composite of its endomorphism
    slices = []
    real = poscor.poscor_compose

    def counting(m2, m1, tol, memo, rho=None):
        slices.append(len(m1))
        return real(m2, m1, tol, memo, rho)

    monkeypatch.setattr(poscor, "poscor_compose", counting)
    for idx in range(SizeCaps().instances_per_suite):
        memo = BuildMemo()
        objects, morphisms = _load_category(category_payload(idx), DEFAULT_TOL, memo)
        assert passed(check_category_laws(objects, morphisms, DEFAULT_TOL, memo))
    assert sum(slices) == 410, sum(slices)


def test_stacked_distances_equal_each_pair_alone():
    # pairs of every shape of category instance 1, each morphism against a
    # copy with its rho, eta and alpha matrices scaled by its own amount, so
    # that every gap of every slice is nonzero and distinct
    _, morphisms = _load_category(category_payload(1), DEFAULT_TOL, BuildMemo())
    moved = [
        replace(
            m,
            rho=StarMap(m.rho.domain, m.rho.codomain, (1.0 + 1e-3 * k) * m.rho.matrix),
            eta=ModuleMap(m.eta.source, m.eta.target, (1.0 + 1e-2 * k) * m.eta.matrix),
            alpha=Automorphism(
                StarMap(m.alpha.shape, m.alpha.shape, (1.0 + 0.1 * k) * m.alpha.matrix),
                m.alpha.inverse,
            ),
        )
        for k, m in enumerate(morphisms, start=1)
    ]
    stacked = morphism_distance(morphisms + moved, moved + morphisms)
    alone = [morphism_distance([a], [b])[0] for a, b in zip(morphisms + moved, moved + morphisms)]
    assert np.array_equal(stacked, alone)
    assert len(set(stacked[: len(morphisms)].tolist())) == len(morphisms)
    assert min(stacked) > 0.0


def test_stacked_morphism_checks_equal_each_slice_alone():
    # every shape group of category instance 1, each morphism next to a copy
    # with its alpha scaled by its own amount, so that the residuals of the
    # copies are nonzero and distinct; each report, norms and thresholds
    # included, has the bits of check_morphism on a stack of one
    memo = BuildMemo()
    _, morphisms = _load_category(category_payload(1), DEFAULT_TOL, memo)
    moved = [
        replace(
            m,
            alpha=Automorphism(
                StarMap(m.alpha.shape, m.alpha.shape, (1.0 + 0.1 * k) * m.alpha.matrix),
                m.alpha.inverse,
            ),
        )
        for k, m in enumerate(morphisms, start=1)
    ]
    groups = {}
    for m in morphisms + moved:
        groups.setdefault(morphism_shape(m), []).append(m)
    assert max(map(len, groups.values())) > 2
    moved_gaps = []
    for ms in groups.values():
        phi1 = tensor_extend_cpmap(
            [m.dom.phi for m in ms], [m.dom_tensor for m in ms], DEFAULT_TOL, memo
        )
        phi2 = [m.cod.phi for m in ms]
        stacked = check_morphism([replace(m) for m in ms], phi1, phi2, DEFAULT_TOL)
        for m, p1, p2, rep in zip(ms, phi1, phi2, stacked):
            alone = check_morphism([replace(m)], [p1], [p2], DEFAULT_TOL)[0]
            assert residuals(rep) == residuals(alone)
            assert thresholds(rep) == thresholds(alone)
            if m in moved:
                moved_gaps.append(residuals(rep)["morphism"])
    assert min(moved_gaps) > 0.0 and len(set(moved_gaps)) == len(moved)


# -- negative controls: one corrupted composite at a later slice ------------------


def keys_of(payload):
    objects, morphisms = _load_category(payload, DEFAULT_TOL, BuildMemo())
    ids = {poscor_key(poscor_identity(o, DEFAULT_TOL, BuildMemo())) for o in objects}
    return ids, {poscor_key(m) for m in morphisms}


def scaled_eta(m, monkeypatch):
    return replace(m, eta=ModuleMap(m.eta.source, m.eta.target, 1.5 * m.eta.matrix))


def scaled_phi_ext(m, monkeypatch):
    """m itself, with its phi~ scaled where check_poscor_morphism builds it
    and hands it to check_morphism."""
    real = poscor.check_morphism

    def check_morphism(ms, phi1, phi2, tol):
        phi1 = [
            CPMap(p.algebra, p.module, 1.5 * p.images) if x is m else p for x, p in zip(ms, phi1)
        ]
        return real(ms, phi1, phi2, tol)

    monkeypatch.setattr(poscor, "check_morphism", check_morphism)
    return m


# record -> (which (m2, m1) slices to corrupt, given the identities' and the
# loaded morphisms' keys and the pair's; the corruption).  A scaled eta is
# still an intertwiner, so only the distance it enters grows; a scaled phi~
# enters only the closure check, since composites are built without it.
# Closure reads the composites of two distinct morphisms, not an
# endomorphism's self-composite m . m, which only associativity's tails read.
CONTROLS = {
    "left_identity": (lambda ids, ms, k2, k1: k2 in ids and k1 in ms, scaled_eta),
    "right_identity": (lambda ids, ms, k2, k1: k1 in ids and k2 in ms, scaled_eta),
    "closure": (lambda ids, ms, k2, k1: k2 in ms and k1 in ms and k2 != k1, scaled_phi_ext),
    "associativity": (lambda ids, ms, k2, k1: k2 in ms and k1 not in ms | ids, scaled_eta),
}
LAW_RECORDS = ("left_identity", "right_identity", "associativity", "closure")


@pytest.mark.parametrize("record", sorted(CONTROLS))
def test_corrupted_later_slice_fails_its_law_by_name(monkeypatch, record):
    payload = category_payload(0)
    ids, ms = keys_of(payload)
    chosen, corrupt = CONTROLS[record]
    real = poscor.poscor_compose
    hit = []

    def corrupting(m2, m1, tol, memo, rho=None):
        out = real(m2, m1, tol, memo, rho)
        keys = [(poscor_key(b), poscor_key(a)) for b, a in zip(m2, m1)]
        slices = [s for s in range(1, len(m1)) if chosen(ids, ms, *keys[s])]
        if not hit and slices:
            hit.append((slices[-1], len(m1)))
            out = list(out)
            out[slices[-1]] = corrupt(out[slices[-1]], monkeypatch)
        return out

    monkeypatch.setattr(poscor, "poscor_compose", corrupting)
    records = {r.check: r for r in check_instance("category", payload, DEFAULT_TOL)}
    assert hit and 0 < hit[0][0] < hit[0][1]
    assert records["morphism_invariants"].passed
    assert not records[record].passed
    assert [name for name in LAW_RECORDS if not records[name].passed] == [record]


# -- a slice that fails on its own ---------------------------------------------------


def test_slice_failing_alone_breaks_only_its_pair(monkeypatch):
    # a2 . c2 is a later slice of the stacked pair composites; it raises in
    # its stack and again alone, so its pair is broken, while every other
    # pair of the stack enters the laws as in the per-pair loops
    objects, morphisms = _load_category(category_payload(0), DEFAULT_TOL, BuildMemo())
    _, a2, _, _, _, c2 = morphisms
    assert (a2.dom.ident, a2.cod.ident, c2.dom.ident, c2.cod.ident) == ("O1", "O2", "O1", "O1")
    real = poscor.poscor_compose
    seen, target = [], (poscor_key(a2), poscor_key(c2))

    def failing(m2, m1, tol, memo, rho=None):
        pairs = [(poscor_key(b), poscor_key(a)) for b, a in zip(m2, m1)]
        if target in pairs:
            seen.append((pairs.index(target), len(pairs)))
            raise WellDefinednessViolation("injected")
        return real(m2, m1, tol, memo, rho)

    monkeypatch.setattr(poscor, "poscor_compose", failing)
    monkeypatch.setattr(conftest, "poscor_compose", failing)
    rep = check_category_laws(objects, morphisms, DEFAULT_TOL, BuildMemo())
    assert seen[0][0] > 0 and seen[0][1] > 2 and seen[1] == (0, 1)
    ref = category_laws_reference(objects, morphisms, DEFAULT_TOL)
    assert residuals(rep)["closure"] == residuals(ref)["closure"] == np.inf
    for name in ("left_identity", "right_identity", "associativity"):
        assert residuals(rep)[name] == residuals(ref)[name], name
        assert thresholds(rep)[name] == thresholds(ref)[name], name
    assert residuals(rep)["associativity"] > 0.0
