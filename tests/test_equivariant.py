from dataclasses import replace

import numpy as np
import pytest

from ksgnslab.cp import CPMap
from ksgnslab.cstar import AlgebraShape, block_diag, element_norms, identity_automorphism
from ksgnslab.equivariant import (
    DilationQuadruple,
    DynamicalSystem,
    EquivariantCorrespondence,
    average_covariant,
    categorical_dilation_unitary,
    check_dilation,
    check_equivariant,
    check_functor_laws,
    conjugated_quadruple,
    correspondence_to_functor,
    cyclic_group,
    dilate,
    direct_sum_module,
    inner_system,
    random_equivariant,
    sign_homomorphism,
    symmetric_group,
    trivial_group,
    trivial_system,
    uniqueness_unitary,
    unitary_representation,
)
from ksgnslab.errors import SpanningFailure, TwistMismatch, ValidationError
from ksgnslab.hilbert import (
    HilbertModule,
    ModuleMap,
    PreModule,
    Quotient,
    adjoint_map,
    algebra_module,
)
from ksgnslab.ksgns import check_triple, ksgns, triple_uniqueness_unitary
from ksgnslab.cp import random_blinear_unitary
from ksgnslab.harness import SizeCaps, check_instance, generate_instance, instance_seed
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import DEFAULT_TOL, operator_norm, summarize, Tolerance
from ksgnslab.poscor import poscor_compose, unitarity_residual
from ksgnslab.serialize import dump_equivariant, load_equivariant

from conftest import (
    adjoint_identity_residual,
    apply_star_map,
    basis_element,
    element_norm,
    failing,
    left_mult_matrix,
    pair_reference,
    passed,
    random_complex,
    residuals,
    sub,
    thresholds,
    validate_premodule,
)


# -- groups --------------------------------------------------------------------


def test_group_constructors():
    for G, order in [(cyclic_group(4), 4), (symmetric_group(3), 6), (trivial_group(), 1)]:
        assert G.order == order
        assert G.mul(G.identity, 1 % order) == 1 % order
    with pytest.raises(ValidationError):
        bad = np.zeros((2, 2), dtype=int)  # not a group table
        from ksgnslab.equivariant import FiniteGroup

        FiniteGroup(2, bad, 0, np.zeros(2, dtype=int))


@pytest.mark.parametrize(
    "table, identity, inverse, message",
    [
        ([[1, 0], [0, 0]], 0, [0, 1], "group table is not associative"),
        ([[1, 0], [0, 1]], 0, [0, 1], "identity law fails"),  # 1 is the identity
        ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], 0, [0, 1, 2], "inverse law fails"),
    ],
)
def test_group_table_laws_are_validated(table, identity, inverse, message):
    from ksgnslab.equivariant import FiniteGroup

    with pytest.raises(ValidationError, match=f"^{message}$"):
        FiniteGroup(len(table), np.array(table), identity, np.array(inverse))


def test_s3_parity_is_homomorphism():
    G = symmetric_group(3)
    signs = sign_homomorphism(G)
    assert sorted(signs) == [0, 0, 0, 1, 1, 1]
    for g in range(6):
        for h in range(6):
            assert signs[G.mul(g, h)] == signs[g] ^ signs[h]


@pytest.mark.parametrize("gname,n", [("Z2", 1), ("Z3", 2), ("Z4", 3), ("S3", 2), ("S3", 3)])
def test_unitary_representation_is_homomorphism(gname, n, rng):
    G = {"Z2": cyclic_group(2), "Z3": cyclic_group(3), "Z4": cyclic_group(4),
         "S3": symmetric_group(3)}[gname]
    mats = unitary_representation(G, n, rng)
    worst = operator_norm(mats[G.identity] - np.eye(n))
    for g in range(G.order):
        assert operator_norm(mats[g].conj().T @ mats[g] - np.eye(n)) <= 1e-12
        for h in range(G.order):
            worst = max(worst, operator_norm(mats[g] @ mats[h] - mats[G.mul(g, h)]))
    assert worst <= 1e-12


def test_inner_system_is_action(rng):
    A = AlgebraShape((2, 1))
    G = symmetric_group(3)
    sys = inner_system(A, G, rng)
    assert sys.homomorphism_residual() <= 1e-10


# -- equivariant correspondences -------------------------------------------------


def motivating_example():
    """E = B with U_g = beta_g and phi = left multiplication by an
    equivariant homomorphism image."""
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    G = cyclic_group(2)
    rng = np.random.default_rng(5)
    beta_sys = inner_system(B, G, rng)
    # pi = identity: equivariance pi(alpha_g(a)) = beta_g(pi(a)) forces alpha = beta
    alpha_sys = DynamicalSystem(A, G, beta_sys.action)
    E = algebra_module(B)
    images = np.stack(
        [left_mult_matrix(basis_element(A, p)) for p in range(A.dim)]
    )
    phi = CPMap(A, E, images)
    U = [beta_sys.action[g].matrix for g in range(G.order)]
    return EquivariantCorrespondence(alpha_sys, beta_sys, E, phi, U)


def test_motivating_example_is_equivariant():
    c = motivating_example()
    rep = check_equivariant(c, DEFAULT_TOL)
    assert passed(rep), rep


def test_trivial_group_reduces_to_cp_checks():
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((2,)), trivial_group(), seed=3)
    rep = check_equivariant(c, DEFAULT_TOL)
    assert passed(rep)
    assert len(c.unitaries) == 1
    assert operator_norm(c.unitaries[0] - np.eye(c.module.dim)) <= 1e-12


def test_corrupted_unitary_is_flagged(rng):
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((2,)), cyclic_group(2), seed=4)
    bad = [U.copy() for U in c.unitaries]
    noise = random_complex(rng, c.module.dim, c.module.dim)
    bad[1] = bad[1] + 0.1 * noise / operator_norm(noise)
    corrupted = EquivariantCorrespondence(
        c.system_in, c.system_out, c.module, c.phi, bad
    )
    rep = check_equivariant(corrupted, DEFAULT_TOL)
    assert not passed(rep)
    assert summarize(rep)[0] >= 0.001


def _pairing_twist_loop(c):
    """Reference: the pairing-twist residual with one E.pair call per basis pair."""
    E, eye, beta = c.module, np.eye(c.module.dim), c.system_out.action
    worst = 0.0
    for g, Ug in enumerate(c.unitaries):
        for i in range(E.dim):
            for j in range(E.dim):
                lhs = pair_reference(E, Ug @ eye[:, i], Ug @ eye[:, j])
                rhs = apply_star_map(beta[g].forward, pair_reference(E, eye[:, i], eye[:, j]))
                worst = max(worst, element_norm(sub(lhs, rhs)))
    return worst


def _with_unitary(c, g, Ug):
    U = list(c.unitaries)
    U[g] = Ug
    return EquivariantCorrespondence(c.system_in, c.system_out, c.module, c.phi, U)


@pytest.mark.parametrize("G", [cyclic_group(2), symmetric_group(3)], ids=["Z2", "S3"])
def test_pairing_twist_flags_non_isometry_and_matches_loop(G, rng):
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((1, 2)), G, seed=11)
    # 1.01 U_g is still beta_g-twisted B-linear but no longer isometric
    scaled = _with_unitary(c, 1, 1.01 * c.unitaries[1])
    noise = random_complex(rng, c.module.dim, c.module.dim)
    noisy = _with_unitary(c, 1, c.unitaries[1] + 0.1 * noise / operator_norm(noise))
    good, bad = check_equivariant(c, DEFAULT_TOL), check_equivariant(scaled, DEFAULT_TOL)
    assert residuals(good)["pairing_twist"] <= thresholds(good)["pairing_twist"]
    assert residuals(bad)["pairing_twist"] > thresholds(bad)["pairing_twist"]
    assert residuals(bad)["twisted_linearity"] <= thresholds(bad)["twisted_linearity"]
    for inst in (c, scaled, noisy):
        batched = residuals(check_equivariant(inst, DEFAULT_TOL))["pairing_twist"]
        assert abs(batched - _pairing_twist_loop(inst)) <= 1e-14


def test_pairing_identities_make_no_per_vector_pair_calls(monkeypatch, rng):
    """The planted unitary and the pairing checks contract all basis pairs at
    once; a per-vector PreModule.pair loop in any of them fails here."""
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((1, 2)), symmetric_group(3), seed=11)

    def refuse(self, x, y):
        raise AssertionError("per-vector PreModule.pair call")

    monkeypatch.setattr(PreModule, "pair", refuse)
    W = random_blinear_unitary(c.module, rng)
    assert passed(check_equivariant(c, DEFAULT_TOL))
    assert passed(validate_premodule(c.module))
    assert adjoint_identity_residual(W, adjoint_map(W)) <= 1e-10


@pytest.mark.parametrize("gname", ["Z2", "Z3", "Z4", "S3"])
def test_random_equivariant_self_certifies(gname):
    G = {"Z2": cyclic_group(2), "Z3": cyclic_group(3), "Z4": cyclic_group(4),
         "S3": symmetric_group(3)}[gname]
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((1, 2)), G, seed=11)
    rep = check_equivariant(c, DEFAULT_TOL)
    assert passed(rep), (gname, rep)
    from ksgnslab.cp import check_cp

    ok, _ = check_cp([c.phi], DEFAULT_TOL, BuildMemo())[0]
    assert ok


def test_trivial_beta_unitaries_are_permutation_like():
    G = cyclic_group(2)
    c = random_equivariant(
        AlgebraShape((2,)), AlgebraShape((2,)), G, seed=6, trivial_beta=True, copies=2
    )
    # with beta trivial the swap unitary is a (transported) permutation:
    # it squares to the identity
    U = c.unitaries[1]
    assert operator_norm(U @ U - np.eye(c.module.dim)) <= 1e-10


def test_averaging_is_idempotent():
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((2,)), cyclic_group(3), seed=7)
    again = average_covariant(c.phi, c.system_in, c.unitaries, c.group)
    worst = max(
        operator_norm(again.images[p] - c.phi.images[p])
        for p in range(c.phi.algebra.dim)
    )
    assert worst <= 1e-10 * (1.0 + c.phi.norm)


# -- functor face ------------------------------------------------------------------


def test_functor_laws_z2_involution():
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((2,)), cyclic_group(2), seed=9)
    memo = BuildMemo()
    fun = correspondence_to_functor(c, DEFAULT_TOL, memo)
    rep = check_functor_laws(c, fun, DEFAULT_TOL, memo)
    assert passed(rep), rep
    # the nontrivial morphism composes with itself to the identity pullback
    m = fun[1]
    square = poscor_compose([m], [m], DEFAULT_TOL, memo)[0]
    assert operator_norm(square.pullback - c.unitaries[0]) <= 1e-8


def test_functor_round_trip_recovers_unitaries():
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((1, 2)), cyclic_group(3), seed=10)
    fun = correspondence_to_functor(c, DEFAULT_TOL, BuildMemo())
    for g in range(c.group.order):
        m = fun[g]
        assert operator_norm(m.pullback - c.unitaries[g]) <= 1e-8
        assert unitarity_residual([m.eta]) <= 1e-8


def test_functor_laws_reject_beta_off_the_group_law():
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((2,)), symmetric_group(3), seed=11)
    fun = correspondence_to_functor(c, DEFAULT_TOL, BuildMemo())
    G = c.group
    action = list(c.system_out.action)
    action[1] = action[2]
    bad = replace(c, system_out=DynamicalSystem(c.system_out.algebra, G, action))
    g, h = next(
        (g, h)
        for g in range(G.order)
        for h in range(G.order)
        if operator_norm(action[g].matrix @ action[h].matrix - action[G.mul(g, h)].matrix)
        > 1e-6
    )
    with pytest.raises(TwistMismatch, match=rf"^beta_{g} beta_{h} and beta_{G.mul(g, h)} "):
        check_functor_laws(bad, fun, DEFAULT_TOL, BuildMemo())
    payload = {"seed": 11, "group": "S3", "correspondence": dump_equivariant(bad)}
    records = check_instance("equivariant", payload, Tolerance())
    failing = {r.check: r.error for r in records if not r.passed}
    assert "system_out" in failing
    assert failing["construction"].startswith("TwistMismatch: ")


# -- dilation ------------------------------------------------------------------------


def test_trivial_group_dilation_reproduces_ksgns_bitwise():
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((2,)), trivial_group(), seed=12)
    t_direct = ksgns([c.module], [c.phi], DEFAULT_TOL, BuildMemo())[0]
    quad = dilate(c, DEFAULT_TOL, BuildMemo())
    assert np.array_equal(quad.triple.module.gram_matrix, t_direct.module.gram_matrix)
    assert np.array_equal(quad.triple.pi.images, t_direct.pi.images)
    assert np.array_equal(quad.triple.embedding.matrix, t_direct.embedding.matrix)
    assert np.array_equal(quad.triple.q, t_direct.q)
    assert np.array_equal(quad.triple.s, t_direct.s)
    assert operator_norm(quad.unitaries[0] - np.eye(quad.triple.module.dim)) <= 1e-12


def test_gns_with_symmetry_dilates_to_nontrivial_unitary():
    # invariant trace state on the 2x2 block: the flip symmetry survives as a
    # nontrivial unitary with the covariance property
    from ksgnslab.cstar import inner_automorphism
    from ksgnslab.generators import canonical_module

    A = AlgebraShape((2,))
    B = AlgebraShape((1,))
    E = canonical_module(B, (1,))
    images = np.zeros((A.dim, 1, 1), dtype=complex)
    for p, i, k, l in A.basis_labels():
        if k == l:
            images[p, 0, 0] = 0.5
    phi = CPMap(A, E, images)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    alpha = inner_automorphism(A, [flip])
    G = cyclic_group(2)
    system_in = DynamicalSystem(A, G, [identity_automorphism(A), alpha])
    c = EquivariantCorrespondence(
        system_in, trivial_system(B, G), E, phi, [np.eye(1, dtype=complex)] * 2
    )
    assert passed(check_equivariant(c, DEFAULT_TOL))
    quad = dilate(c, DEFAULT_TOL, BuildMemo())
    assert quad.triple.module.dim == 4
    # with the triple's own records, which the dilation suite does not record
    rep = check_dilation(quad, DEFAULT_TOL) + check_triple(quad.triple, DEFAULT_TOL)
    assert passed(rep), rep
    U = quad.unitaries[1]
    assert operator_norm(U - np.eye(4)) >= 1.0  # genuinely nontrivial
    # covariance U pi(a) = pi(alpha(a)) U
    for p in range(A.dim):
        moved = sum(alpha.matrix[q, p] * quad.triple.pi.images[q] for q in range(A.dim))
        assert operator_norm(U @ quad.triple.pi.images[p] - moved @ U) <= 1e-10


@pytest.mark.parametrize("gname", ["Z2", "S3"])
def test_dilation_conditions_and_cross_check(gname):
    G = {"Z2": cyclic_group(2), "S3": symmetric_group(3)}[gname]
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((2,)), G, seed=13, copies=1)
    memo = BuildMemo()
    quad = dilate(c, DEFAULT_TOL, memo)
    # with the triple's own records, which the dilation suite does not record
    rep = check_dilation(quad, DEFAULT_TOL) + check_triple(quad.triple, DEFAULT_TOL)
    assert passed(rep), rep
    cats = categorical_dilation_unitary(c, DEFAULT_TOL, memo)
    for g in range(G.order):
        assert operator_norm(cats[g] - quad.unitaries[g]) <= 1e-8


def test_dilated_pairing_twist_on_random_vectors(rng):
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((2,)), cyclic_group(2), seed=14)
    quad = dilate(c, DEFAULT_TOL, BuildMemo())
    F = quad.triple.module
    beta = c.system_out.action
    for g in range(c.group.order):
        for _ in range(5):
            x = random_complex(rng, F.dim)
            y = random_complex(rng, F.dim)
            lhs = F.pair(quad.unitaries[g] @ x, quad.unitaries[g] @ y)
            rhs = beta[g](F.pair(x, y))
            gap = element_norms(F.algebra, lhs - rhs)
            assert gap <= 1e-8 * (1 + F.vector_norm(x) * F.vector_norm(y))


# -- uniqueness -----------------------------------------------------------------------


def test_uniqueness_identity_case():
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((2,)), cyclic_group(2), seed=15)
    quad = dilate(c, DEFAULT_TOL, BuildMemo())
    W, rep = uniqueness_unitary(quad, quad, DEFAULT_TOL)
    assert passed(rep), rep
    assert operator_norm(W.matrix - np.eye(quad.triple.module.dim)) <= 1e-8


def test_uniqueness_rejects_non_spanning_dilation():
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((2,)), cyclic_group(2), seed=15)
    quad = dilate(c, DEFAULT_TOL, BuildMemo())
    t = quad.triple
    zeroed = replace(t, embedding=ModuleMap(t.source, t.module, np.zeros_like(t.embedding.matrix)))
    broken = DilationQuadruple(quad.source, zeroed, quad.unitaries)
    for q1, q2 in ((quad, broken), (broken, quad)):
        with pytest.raises(SpanningFailure, match=f"spanning rank 0 < dim {t.module.dim}"):
            uniqueness_unitary(q1, q2, DEFAULT_TOL)


def test_uniqueness_recovers_planted_unitary(rng):
    c = random_equivariant(AlgebraShape((2,)), AlgebraShape((1, 2)), cyclic_group(3), seed=16)
    quad = dilate(c, DEFAULT_TOL, BuildMemo())
    Z = random_blinear_unitary(quad.triple.module, rng)
    quad2 = conjugated_quadruple(quad, Z)
    W, rep = uniqueness_unitary(quad, quad2, DEFAULT_TOL)
    assert passed(rep), rep
    Z_inv = adjoint_map(Z).matrix
    assert operator_norm(W.matrix - Z_inv) <= 1e-7


def doubled_quadruple(quad: DilationQuadruple) -> DilationQuadruple:
    """(F (+) F, pi (+) pi, [V; 0], U~ (+) U~): a dilation of the same (E, phi)
    and family that is not minimal, the second copy of F outside the span of
    pi(A) V E.  Its module is a one-slice quotient stack, q and s padded with
    zeros."""
    t, V = quad.triple, quad.triple.embedding.matrix
    F = direct_sum_module(t.module, 2)
    stack = Quotient(
        HilbertModule(F.algebra, F.dim, F.action[None], [P[None] for P in F.pairing]),
        np.vstack([t.q, np.zeros_like(t.q)])[None],
        np.hstack([t.s, np.zeros_like(t.s)])[None],
        t.kernel[None],
    )
    doubled = replace(t, stack=stack, index=0)
    return DilationQuadruple(
        quad.source,
        replace(
            doubled,
            pi=CPMap(t.phi.algebra, doubled.module, block_diag([t.pi.images, t.pi.images])),
            embedding=ModuleMap(t.source, doubled.module, np.vstack([V, np.zeros_like(V)])),
        ),
        [block_diag([U, U]) for U in quad.unitaries],
    )


@pytest.mark.parametrize("idx", range(10))
def test_uniqueness_needs_a_minimal_dilation(idx):
    # the default dilation instances against their doubles F (+) F: every
    # dilation condition but spanning holds, the matching map solved on the
    # spanning columns embeds V and U~ but is no unitary onto F (+) F, and
    # uniqueness_unitary refuses the pair before solving
    payload = generate_instance("dilation", SizeCaps(), instance_seed(20250809, "dilation", idx))
    quad = dilate(load_equivariant(payload["correspondence"]), DEFAULT_TOL, BuildMemo())
    doubled = doubled_quadruple(quad)
    r = quad.triple.module.dim
    assert failing(check_dilation(quad, DEFAULT_TOL)) == []
    assert failing(check_dilation(doubled, DEFAULT_TOL)) == ["spanning"]
    _, records = triple_uniqueness_unitary(quad.triple, doubled.triple, DEFAULT_TOL)
    assert failing(records) == ["unitary", "representation_match"]
    with pytest.raises(SpanningFailure, match=f"^spanning rank {r} < dim {2 * r}$"):
        uniqueness_unitary(quad, doubled, DEFAULT_TOL)
