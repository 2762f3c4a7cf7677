import numpy as np
import pytest

from ksgnslab.cp import CPMap, check_morphism, random_blinear_unitary, random_cp
from ksgnslab.cstar import (
    AlgebraShape,
    StarMap,
    compose_star_maps,
    identity_star_map,
    random_element,
)
from ksgnslab.equivariant import scramble_module
from ksgnslab.errors import ObjectMismatch, ShapeMismatch
from ksgnslab.generators import (
    random_endomorphism,
    random_module,
    random_morphism_to_new_object,
    random_object,
    random_representation,
    random_star_map,
    transported_copy,
)
from ksgnslab.harness import SizeCaps, _load_category, generate_instance, instance_seed
from ksgnslab.hilbert import (
    ModuleMap,
    adjoint_map,
    algebra_module,
    identity_map,
    module_operator_norm,
)
from ksgnslab.ksgns import ksgns_lift
from ksgnslab.numkernel import DEFAULT_TOL, operator_norm
from ksgnslab.poscor import (
    BuildMemo,
    balanced_relation_residual,
    check_category_laws,
    check_commuting_unitary,
    check_poscor_morphism,
    commuting_unitary,
    composition_unitary,
    dilate_object,
    idempotency_iso_poscor,
    interior_tensor,
    interior_tensor_along,
    ksgns_functor,
    left_mult_correspondence,
    make_poscor_morphism,
    morphism_distance,
    poscor_compose,
    poscor_identity,
    tensor_extend_between,
    tensor_extend_cpmap,
    unitarity_residual,
)

from conftest import (
    failing, left_mult_matrix, passed, poscor_key, poscor_pseudometric, random_complex,
    star_map_images, tensored_intertwiner,
)


# -- interior tensor -----------------------------------------------------------


@pytest.mark.parametrize("blocks", [(1,), (2,), (3,), (1, 2), (2, 3), (1, 1, 2)])
def test_left_mult_correspondence_matches_per_basis_build(blocks, rng):
    # any linear map will do: each image is read through its coefficients
    B, C = AlgebraShape((1, 2)), AlgebraShape(blocks)
    rho = StarMap(B, C, np.stack([random_element(C, rng).coeffs() for _ in range(B.dim)], axis=1))
    reference = np.stack([left_mult_matrix(img) for img in star_map_images(rho)])
    assert np.array_equal(left_mult_correspondence([rho], BuildMemo())[0].images, reference)


def test_tensor_with_coefficients_is_identity(rng):
    # F = C over itself along the inclusion: dims agree with E
    B = AlgebraShape((2,))
    E = random_module(B, rng, max_dim=4)
    tm = interior_tensor_along([E], [identity_star_map(B)], DEFAULT_TOL, BuildMemo())[0]
    assert tm.module.dim == E.dim


def test_tensor_with_base_module_gives_target(rng):
    # B over itself tensored along a representation pi gives F itself
    B = AlgebraShape((2,))
    C = AlgebraShape((1, 2))
    F, pi = random_representation(B, C, rng, max_dim=6)
    E = algebra_module(B)
    tm = interior_tensor([E], [F], [pi], DEFAULT_TOL, BuildMemo())[0]
    assert tm.module.dim == F.dim


def test_tensor_over_scalars_multiplies_dims(rng):
    # B = C: no collapse, the Gram is a Kronecker product of two PD Grams
    Bc = AlgebraShape((1,))
    E = random_module(Bc, rng, max_dim=3)
    C = AlgebraShape((2,))
    F, pi_unused = random_representation(Bc, C, rng, max_dim=4)
    images = np.stack([np.eye(F.dim, dtype=complex)])
    pi = CPMap(Bc, F, images)
    tm = interior_tensor([E], [F], [pi], DEFAULT_TOL, BuildMemo())[0]
    assert tm.module.dim == E.dim * F.dim


def test_balanced_relation(rng):
    B = AlgebraShape((2,))
    C = AlgebraShape((2,))
    E = random_module(B, rng, max_dim=4)
    F, pi = random_representation(B, C, rng, max_dim=4)
    tm = interior_tensor([E], [F], [pi], DEFAULT_TOL, BuildMemo())[0]
    assert balanced_relation_residual(tm, rng) <= 1e-10


def test_tensor_extend_operator_properties(rng):
    B = AlgebraShape((2,))
    C = AlgebraShape((2,))
    E = random_module(B, rng, max_dim=4)
    F, pi = random_representation(B, C, rng, max_dim=4)
    tm = interior_tensor([E], [F], [pi], DEFAULT_TOL, BuildMemo())[0]
    ident = tensor_extend_between([identity_map(E)], [tm], [tm], DEFAULT_TOL)[0]
    assert operator_norm(ident.matrix - np.eye(tm.module.dim)) <= 1e-10
    T = random_blinear_unitary(E, rng)
    S = random_blinear_unitary(E, rng)
    TI = tensor_extend_between([T], [tm], [tm], DEFAULT_TOL)[0]
    SI = tensor_extend_between([S], [tm], [tm], DEFAULT_TOL)[0]
    assert unitarity_residual([TI]) <= 1e-8
    assert operator_norm(
        adjoint_map(TI).matrix
        - tensor_extend_between([adjoint_map(T)], [tm], [tm], DEFAULT_TOL)[0].matrix
    ) <= 1e-8
    ST = ModuleMap(E, E, S.matrix @ T.matrix)
    assert operator_norm(
        tensor_extend_between([ST], [tm], [tm], DEFAULT_TOL)[0].matrix - SI.matrix @ TI.matrix
    ) <= 1e-8
    assert module_operator_norm(TI) <= module_operator_norm(T) + 1e-8


def test_tensor_functor_morphism_laws(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    C = AlgebraShape((2,))
    from ksgnslab.generators import extend_morphism

    E1 = random_module(B, rng, max_dim=3)
    phi1 = random_cp(A, E1, rng)
    E2, phi2, m1 = extend_morphism(E1, phi1, rng, DEFAULT_TOL)
    E3, phi3, m2 = extend_morphism(E2, phi2, rng, DEFAULT_TOL)
    F, pi = random_representation(B, C, rng, max_dim=4)
    tms = [interior_tensor([E], [F], [pi], DEFAULT_TOL, BuildMemo())[0] for E in (E1, E2, E3)]
    h1 = tensored_intertwiner(m1, tms[0], tms[1])
    h2 = tensored_intertwiner(m2, tms[1], tms[2])
    memo = BuildMemo()
    phi_exts = [
        tensor_extend_cpmap([phi], [tm], DEFAULT_TOL, memo)[0]
        for phi, tm in zip((phi1, phi2, phi3), tms)
    ]
    rep = check_morphism([h1], [phi_exts[0]], [phi_exts[1]], DEFAULT_TOL)[0]
    assert passed(rep), rep
    assert h1.norm <= m1.norm + 1e-8
    from ksgnslab.cp import compose_intertwiners

    h21 = tensored_intertwiner(compose_intertwiners(m2, m1), tms[0], tms[2])
    resid = operator_norm(h21.eta.matrix - h2.eta.matrix @ h1.eta.matrix)
    assert resid <= 1e-8 * (1 + m1.norm * m2.norm)
    # unitary eta tensors to unitary eta
    E2u, phi2u, mu = transported_copy(E1, phi1, rng)
    tmu = interior_tensor([E2u], [F], [pi], DEFAULT_TOL, BuildMemo())[0]
    hu = tensored_intertwiner(mu, tms[0], tmu)
    assert unitarity_residual([hu.eta]) <= 1e-8


# -- commuting unitary ----------------------------------------------------------


def test_commuting_unitary_checks(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    C = AlgebraShape((1, 2))
    E = random_module(B, rng, max_dim=3)
    phi = random_cp(A, E, rng)
    F, pi = random_representation(B, C, rng, max_dim=4)
    tm = interior_tensor([E], [F], [pi], DEFAULT_TOL, BuildMemo())[0]
    cu = commuting_unitary([phi], [tm], DEFAULT_TOL, BuildMemo())[0]
    rep = check_commuting_unitary(cu, DEFAULT_TOL, BuildMemo())
    assert passed(rep), rep
    assert cu.left.module.dim == cu.right.module.dim


def test_commuting_unitary_naturality(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    C = AlgebraShape((2,))
    from ksgnslab.generators import extend_morphism

    E1 = random_module(B, rng, max_dim=3)
    phi1 = random_cp(A, E1, rng)
    E2, phi2, m = extend_morphism(E1, phi1, rng, DEFAULT_TOL)
    F, pi = random_representation(B, C, rng, max_dim=4)
    memo = BuildMemo()
    tm1 = interior_tensor([E1], [F], [pi], DEFAULT_TOL, memo)[0]
    tm2 = interior_tensor([E2], [F], [pi], DEFAULT_TOL, memo)[0]
    cu1 = commuting_unitary([phi1], [tm1], DEFAULT_TOL, memo)[0]
    cu2 = commuting_unitary([phi2], [tm2], DEFAULT_TOL, memo)[0]
    lifted = ksgns_lift([m], [cu1.triple], [cu2.triple], DEFAULT_TOL)[0]
    lifted_hat = tensor_extend_between([lifted.eta], [cu1.right], [cu2.right], DEFAULT_TOL)[0]
    m_hat = tensored_intertwiner(m, tm1, tm2)
    hat_lifted = ksgns_lift([m_hat], [cu1.left], [cu2.left], DEFAULT_TOL)[0]
    resid = operator_norm(
        lifted_hat.matrix @ cu1.unitary.matrix
        - cu2.unitary.matrix @ hat_lifted.eta.matrix
    )
    assert resid <= 1e-8 * (1.0 + m.norm)


def test_pentagon(rng):
    B = AlgebraShape((2,))
    E = random_module(B, rng, max_dim=3)
    rho1 = random_star_map(B, rng, max_block=2, max_out_blocks=1)
    rho2 = random_star_map(rho1.codomain, rng, max_block=3, max_out_blocks=1)
    rho3 = random_star_map(rho2.codomain, rng, max_block=4, max_out_blocks=1)
    tol, memo = DEFAULT_TOL, BuildMemo()
    tm = interior_tensor_along([E], [rho1], tol, memo)[0]
    comp = composition_unitary([tm], [rho1], [rho2], tol, memo)[0]
    U2 = composition_unitary([comp.double], [rho2], [rho3], tol, memo)[0]
    sigma = compose_star_maps(U2.rho, rho1)
    U1 = composition_unitary([comp.inner], [rho1], [U2.rho], tol, memo, [sigma])[0]
    V1 = composition_unitary([comp.target], [comp.rho], [rho3], tol, memo, [sigma])[0]
    V2_hat = tensor_extend_between([comp.unitary], [U2.double], [V1.double], DEFAULT_TOL)[0]
    resid = operator_norm(
        U1.unitary.matrix @ U2.unitary.matrix - V1.unitary.matrix @ V2_hat.matrix
    )
    assert resid <= 1e-8


# -- category laws ----------------------------------------------------------------


def build_chain(rng):
    """Three objects O1 -> O2 -> O3 and the memo their morphisms were built in."""
    A = AlgebraShape((2,))
    memo = BuildMemo()
    o1 = random_object("O1", A, AlgebraShape((2,)), rng, max_dim=2)
    o2, m1 = random_morphism_to_new_object(
        o1, "O2", rng, DEFAULT_TOL, memo, max_block=2, max_out_blocks=1
    )
    o3, m2 = random_morphism_to_new_object(
        o2, "O3", rng, DEFAULT_TOL, memo, max_block=3, max_out_blocks=1
    )
    return A, [o1, o2, o3], m1, m2, memo


def test_poscor_identity_and_composition(rng):
    A, objs, m1, m2, memo = build_chain(rng)
    o1, o2, o3 = objs
    i1, i2 = poscor_identity(o1, DEFAULT_TOL, memo), poscor_identity(o2, DEFAULT_TOL, memo)
    assert passed(check_poscor_morphism([i1], DEFAULT_TOL, memo)[0])
    assert morphism_distance(poscor_compose([i1], [i1], DEFAULT_TOL, memo), [i1])[0] <= 1e-10
    assert morphism_distance(poscor_compose([m1], [i1], DEFAULT_TOL, memo), [m1])[0] <= 1e-10
    assert morphism_distance(poscor_compose([i2], [m1], DEFAULT_TOL, memo), [m1])[0] <= 1e-10
    composed = poscor_compose([m2], [m1], DEFAULT_TOL, memo)[0]
    assert passed(check_poscor_morphism([composed], DEFAULT_TOL, memo)[0])
    # composing unitary-eta morphisms keeps eta unitary
    assert unitarity_residual([composed.eta]) <= 1e-8


def test_poscor_compose_rejects_mismatch(rng):
    A, objs, m1, m2, memo = build_chain(rng)
    with pytest.raises(ObjectMismatch):
        poscor_compose([m1], [m2], DEFAULT_TOL, memo)[0]


def test_make_poscor_morphism_rejects_eta_off_the_tensor_along_rho(rng):
    # m1's matrix on a module of the same dimension but other content
    A, objs, m1, m2, memo = build_chain(rng)
    other, _ = scramble_module(m1.eta.source, rng)
    eta = ModuleMap(other, m1.cod.module, m1.eta.matrix)
    with pytest.raises(ShapeMismatch):
        make_poscor_morphism([m1.dom], [m1.cod], [m1.rho], [eta], [m1.alpha], DEFAULT_TOL, memo)[0]
    # the same matrix on m1's own tensor is accepted
    same = ModuleMap(m1.eta.source, m1.cod.module, m1.eta.matrix)
    rebuilt = make_poscor_morphism(
        [m1.dom], [m1.cod], [m1.rho], [same], [m1.alpha], DEFAULT_TOL, memo
    )[0]
    assert poscor_key(rebuilt) == poscor_key(m1)


def test_make_poscor_morphism_rejects_eta_into_another_module(rng):
    # default category instance 0: morphism 0's eta into a module of the same
    # dimension as its codomain's and other content; accepted, it passed all
    # six records of check_poscor_morphism
    memo = BuildMemo()
    payload = generate_instance("category", SizeCaps(), instance_seed(20250809, "category", 0))
    m = _load_category(payload, DEFAULT_TOL, memo)[1][0]
    other, _ = scramble_module(m.cod.module, rng)
    eta = ModuleMap(m.eta.source, other, m.eta.matrix)
    with pytest.raises(ShapeMismatch):
        make_poscor_morphism([m.dom], [m.cod], [m.rho], [eta], [m.alpha], DEFAULT_TOL, memo)
    # the same matrix into the codomain's own module is accepted
    same = ModuleMap(m.eta.source, m.cod.module, m.eta.matrix)
    rebuilt = make_poscor_morphism([m.dom], [m.cod], [m.rho], [same], [m.alpha], DEFAULT_TOL, memo)
    assert passed(check_poscor_morphism(rebuilt, DEFAULT_TOL, memo)[0])


def test_category_law_audit(rng):
    A, objs, m1, m2, memo = build_chain(rng)
    c3 = random_endomorphism(objs[2], rng, DEFAULT_TOL, memo)
    rep = check_category_laws(objs, [m1, m2, c3], DEFAULT_TOL, memo)
    assert passed(rep), rep


def test_category_audit_flags_corruption(rng):
    A, objs, m1, m2, memo = build_chain(rng)
    noise = random_complex(rng, m1.eta.matrix.shape[0], m1.eta.matrix.shape[1])
    eta = ModuleMap(m1.eta.source, m1.cod.module, m1.eta.matrix + 0.1 * noise / operator_norm(noise))
    bad = make_poscor_morphism(
        [m1.dom],
        [m1.cod],
        [m1.rho],
        [eta],
        [m1.alpha],
        DEFAULT_TOL,
        memo,
    )[0]
    rep = check_category_laws(objs, [bad, m2], DEFAULT_TOL, memo)
    assert not passed(rep)
    assert "closure" in failing(rep)


def test_poscor_pseudometric(rng):
    A, objs, m1, m2, memo = build_chain(rng)
    b = random_element(m1.dom.coefficient, rng)
    x = random_complex(rng, m1.dom.module.dim)
    a = random_element(A, rng)
    assert poscor_pseudometric(m1, m1, b, x, a) == 0.0
    sibling = make_poscor_morphism(
        [m1.dom],
        [m1.cod],
        [m1.rho],
        [ModuleMap(m1.eta.source, m1.cod.module, 1.1 * m1.eta.matrix)],
        [m1.alpha],
        DEFAULT_TOL,
        memo,
    )[0]
    d = poscor_pseudometric(m1, sibling, b, x, a)
    expected = m1.cod.module.vector_norm(0.1 * (m1.pullback @ x))
    assert d == pytest.approx(expected, rel=1e-9)


# -- the KSGNS endofunctor on the category ----------------------------------------


def test_ksgns_functor_laws(rng):
    A, objs, m1, m2, memo = build_chain(rng)
    tol = DEFAULT_TOL
    o1, o2, o3 = objs
    (d1,), _ = dilate_object([o1], tol, memo)
    k1 = ksgns_functor([m1], tol, memo)[0]
    k2 = ksgns_functor([m2], tol, memo)[0]
    assert passed(check_poscor_morphism([k1], tol, memo)[0])
    assert passed(check_poscor_morphism([k2], tol, memo)[0])
    ident = poscor_identity(o1, tol, memo)
    k_id = ksgns_functor([ident], tol, memo)[0]
    assert morphism_distance([k_id], [poscor_identity(d1, tol, memo)])[0] <= 1e-8
    k21 = ksgns_functor(poscor_compose([m2], [m1], tol, memo), tol, memo)[0]
    assert morphism_distance([k21], poscor_compose([k2], [k1], tol, memo))[0] <= 1e-8 * (
        1 + m1.norm * m2.norm
    )


def test_ksgns_idempotency_natural_iso(rng):
    A, objs, m1, _, memo = build_chain(rng)
    tol = DEFAULT_TOL
    o1, o2 = objs[0], objs[1]
    k1 = ksgns_functor([m1], tol, memo)[0]
    kk1 = ksgns_functor([k1], tol, memo)[0]
    iso1 = idempotency_iso_poscor(o1, tol, memo)
    iso2 = idempotency_iso_poscor(o2, tol, memo)
    assert passed(check_poscor_morphism([iso1], tol, memo)[0])
    assert unitarity_residual([iso1.eta]) <= 1e-8
    gap = morphism_distance(
        poscor_compose([iso2], [k1], tol, memo), poscor_compose([kk1], [iso1], tol, memo)
    )[0]
    assert gap <= 1e-8 * (1 + m1.norm)


def test_composition_continuity_along_paths(rng):
    # composed morphisms converge when one factor converges and the other is fixed
    A, objs, m1, m2, memo = build_chain(rng)
    tol = DEFAULT_TOL
    b = random_element(m1.dom.coefficient, rng)
    x = random_complex(rng, m1.dom.module.dim)
    a = random_element(A, rng)
    base = poscor_compose([m2], [m1], tol, memo)[0]
    dists = []
    for k in range(1, 9):
        eps = 4.0 ** (-k)
        eta = ModuleMap(m1.eta.source, m1.cod.module, (1 + eps) * m1.eta.matrix)
        wobbled = make_poscor_morphism(
            [m1.dom], [m1.cod], [m1.rho], [eta], [m1.alpha], tol, memo
        )[0]
        dists.append(
            poscor_pseudometric(poscor_compose([m2], [wobbled], tol, memo)[0], base, b, x, a)
        )
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(dists, dists[1:]))
    assert dists[-1] <= 1e-3 * (dists[0] + 1.0)
