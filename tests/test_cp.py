import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksgnslab.cp import (
    CPMap,
    Intertwiner,
    adjointable_commutant_basis,
    check_cp,
    check_correspondence,
    check_morphism,
    choi_blocks,
    hom_pseudometric,
    intertwiner_space,
    random_blinear_unitary,
    random_cp,
)
from ksgnslab.cstar import (
    AlgebraShape,
    basis_element,
    identity_automorphism,
    random_automorphism,
    random_element,
    unit_element,
)
from ksgnslab.errors import NonLinearMap
from ksgnslab.generators import (
    canonical_module,
    conjugate_cp,
    random_module,
    random_morphism_pair,
    random_vectors,
    transported_copy,
)
from ksgnslab.hilbert import (
    ModuleMap,
    adjoint_map,
    identity_map,
    is_map_positive,
    module_operator_norm,
)
from ksgnslab.numkernel import operator_norm

from conftest import random_complex


def transpose_map_on_m2():
    """phi(a) = a^T on the standard 2-dim Hilbert space; positive, not CP."""
    A = AlgebraShape((2,))
    E = canonical_module(AlgebraShape((1,)), (2,))
    images = np.zeros((4, 2, 2), dtype=complex)
    for p, i, k, l in A.basis_labels():
        unit = np.zeros((2, 2), dtype=complex)
        unit[l, k] = 1.0  # transpose of E_kl
        images[p] = unit
    return CPMap(A, E, images)


def test_transpose_choi_oracle_and_check():
    # independent oracle: the Choi matrix of the transpose map is the swap,
    # whose minimum eigenvalue is -1
    swap = np.zeros((4, 4))
    for k in range(2):
        for l in range(2):
            unit = np.zeros((2, 2))
            unit[k, l] = 1.0
            swap += np.kron(unit, unit.T)
    oracle_min = np.linalg.eigvalsh(swap)[0]
    assert oracle_min == pytest.approx(-1.0)

    phi = transpose_map_on_m2()
    ok, mins = check_cp(phi)
    assert not ok
    assert mins[0] == pytest.approx(-1.0, abs=1e-12)
    (C,) = choi_blocks(phi)
    assert np.allclose(C, swap)


def test_homomorphisms_are_cp(rng):
    from ksgnslab.generators import random_representation

    F, pi = random_representation(AlgebraShape((2,)), AlgebraShape((1, 2)), rng, 6)
    ok, mins = check_cp(pi)
    assert ok
    assert min(mins) >= -1e-12
    assert check_correspondence(pi).passed


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_random_cp_self_certifies(seed):
    rng = np.random.default_rng(seed)
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=5)
    phi = random_cp(A, E, rng)
    ok, _ = check_cp(phi)
    assert ok
    assert phi.hermiticity_residual() <= 1e-10 * (1.0 + phi.norm)
    assert phi.linearity_residual() <= 1e-10 * (1.0 + phi.norm)
    ok_pos, _ = is_map_positive(phi(unit_element(A)))
    assert ok_pos


def test_random_cp_deterministic():
    A = AlgebraShape((2,))
    rng = np.random.default_rng(5)
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    phi1 = random_cp(A, E, 1234)
    phi2 = random_cp(A, E, 1234)
    assert np.array_equal(phi1.images, phi2.images)


def test_check_cp_rejects_non_linear_images(rng):
    A = AlgebraShape((1,))
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    images = np.stack([random_complex(rng, E.dim, E.dim)])
    bad = CPMap(A, E, images)
    with pytest.raises(NonLinearMap):
        check_cp(bad)


def test_cp_preserved_by_unitary_conjugation(rng):
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    phi = random_cp(A, E, rng)
    W = random_blinear_unitary(E, rng)
    psi = conjugate_cp(phi, W, identity_automorphism(A))
    ok, _ = check_cp(psi)
    assert ok


@pytest.mark.parametrize("blocks, max_dim", [((1,), 1), ((2,), 4), ((1, 2), 5)])
def test_random_blinear_unitary_stream_and_unitarity(blocks, max_dim, rng):
    E = random_module(AlgebraShape(blocks), rng, max_dim=max_dim)
    d = E.dim
    gen, ref = np.random.default_rng(7), np.random.default_rng(7)
    W = random_blinear_unitary(E, gen)
    # the draw is max(2, d) pairs (x, y), each 2 d real and 2 d imaginary parts
    ref.standard_normal(4 * max(2, d) * d)
    assert np.array_equal(gen.standard_normal(5), ref.standard_normal(5))
    assert operator_norm(adjoint_map(W).matrix @ W.matrix - np.eye(d)) <= 1e-10
    act = max(operator_norm(R) for R in E.action)
    assert W.linearity_residual() <= 1e-10 * (1.0 + act)


def test_commutant_basis_matches_blinear_maps(rng):
    # over the scalars every map is module linear
    E = canonical_module(AlgebraShape((1,)), (3,))
    assert adjointable_commutant_basis(E).shape[0] == 9
    # over M_2 with the standard module the commutant is the row algebra
    E2 = canonical_module(AlgebraShape((2,)), (2,))
    assert adjointable_commutant_basis(E2).shape[0] == 4


# -- intertwiner spaces --------------------------------------------------------


def test_intertwiner_space_contains_identity(rng):
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    phi = random_cp(A, E, rng)
    basis = intertwiner_space(phi, phi, identity_automorphism(A))
    assert basis
    # project the identity onto the span and compare
    eye = np.eye(E.dim, dtype=complex).reshape(-1)
    coeffs = [np.vdot(b.matrix.reshape(-1), eye) for b in basis]
    recon = sum(c * b.matrix.reshape(-1) for c, b in zip(coeffs, basis))
    assert np.linalg.norm(recon - eye) <= 1e-8


def test_intertwiner_space_contains_planted_unitary(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((1, 2))
    E1 = random_module(B, rng, max_dim=5)
    phi1 = random_cp(A, E1, rng)
    E2, phi2, m = transported_copy(E1, phi1, rng)
    basis = intertwiner_space(phi1, phi2, m.alpha)
    W = m.eta.matrix.reshape(-1)
    coeffs = [np.vdot(b.matrix.reshape(-1), W) for b in basis]
    recon = sum(c * b.matrix.reshape(-1) for c, b in zip(coeffs, basis))
    assert np.linalg.norm(recon - W) <= 1e-8 * (1.0 + np.linalg.norm(W))


def test_irreducible_commutant_is_one_dimensional():
    # the identity representation of M_2 on C^2 has scalar commutant
    A = AlgebraShape((2,))
    E = canonical_module(AlgebraShape((1,)), (2,))
    images = np.zeros((4, 2, 2), dtype=complex)
    for p, i, k, l in A.basis_labels():
        unit = np.zeros((2, 2), dtype=complex)
        unit[k, l] = 1.0
        images[p] = unit
    phi = CPMap(A, E, images)
    basis = intertwiner_space(phi, phi, identity_automorphism(A))
    assert len(basis) == 1


@pytest.mark.parametrize("blocks", [(2,), (1, 2)])
def test_check_correspondence_multiplicativity_matches_loop(blocks, rng):
    A = AlgebraShape(blocks)
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    pi = CPMap(A, E, random_complex(rng, A.dim, E.dim, E.dim))
    # reference: every pair of matrix units, cross-block pairs included
    ref = 0.0
    for p in range(A.dim):
        for r in range(A.dim):
            prod = basis_element(A, p) * basis_element(A, r)
            ref = max(ref, operator_norm(pi(prod).matrix - pi.images[p] @ pi.images[r]))
    got = check_correspondence(pi).residuals["multiplicativity"]
    assert ref > 0.1
    assert got == pytest.approx(ref, rel=1e-12)


def test_check_morphism_identity_and_solver_consistency(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, max_dim=4)
    ident = Intertwiner(identity_map(E1), identity_automorphism(A))
    rep = check_morphism(ident, phi1, phi1)
    assert rep.passed
    assert rep.max_residual <= 1e-12
    rep = check_morphism(m, phi1, phi2)
    assert rep.passed, rep.residuals


def test_check_morphism_rejects_perturbation(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, max_dim=4)
    noise = random_complex(rng, E2.dim, E1.dim)
    noise = 0.1 * noise / operator_norm(noise)
    bad = Intertwiner(ModuleMap(E1, E2, m.eta.matrix + noise), m.alpha)
    rep = check_morphism(bad, phi1, phi2)
    assert not rep.passed
    assert rep.residuals["intertwining"] >= 0.001


# -- lemma content -------------------------------------------------------------


def test_properties_lemma_consequences(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((1, 2))
    E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, max_dim=5)
    eta, eta_star = m.eta.matrix, adjoint_map(m.eta).matrix
    gram = eta_star @ eta
    norm2 = m.norm**2
    for _ in range(10):
        a = random_element(A, rng)
        square = a.star() * a
        pos = phi1(square).matrix
        # part 1 and 2 are inside check_morphism; part 3 sandwich here
        lo_ok, lo = is_map_positive(ModuleMap(E1, E1, pos @ gram))
        hi_ok, hi = is_map_positive(ModuleMap(E1, E1, norm2 * pos - pos @ gram))
        scale = (1.0 + norm2) * (1.0 + phi1.norm * (1.0 + a.norm() ** 2))
        assert lo >= -1e-8 * scale
        assert hi >= -1e-8 * scale


def test_bounded_family_inequality(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, max_dim=4)
    eta_star_eta = adjoint_map(m.eta).matrix @ m.eta.matrix
    eta_eta_star = m.eta.matrix @ adjoint_map(m.eta).matrix
    norm2 = m.norm**2
    for _ in range(10):
        n = int(rng.integers(1, 5))
        xs, ys = random_vectors(E1, rng, n), random_vectors(E2, rng, n)
        elts = [random_element(A, rng) for _ in range(n)]
        s_lhs = s_rhs = t_lhs = t_rhs = None
        for i in range(n):
            for j in range(n):
                aa = elts[i].star() * elts[j]
                img1 = phi1(aa).matrix
                term = E1.pair(xs[i], img1 @ (eta_star_eta @ xs[j]))
                base = E1.pair(xs[i], img1 @ xs[j])
                s_lhs = term if s_lhs is None else s_lhs + term
                s_rhs = base if s_rhs is None else s_rhs + base
                moved = m.alpha(elts[i]).star() * m.alpha(elts[j])
                img2 = phi2(moved).matrix
                term2 = E2.pair(ys[i], img2 @ (eta_eta_star @ ys[j]))
                base2 = E2.pair(ys[i], img2 @ ys[j])
                t_lhs = term2 if t_lhs is None else t_lhs + term2
                t_rhs = base2 if t_rhs is None else t_rhs + base2
        assert s_lhs.norm() <= norm2 * s_rhs.norm() + 1e-8 * (1 + norm2 * s_rhs.norm())
        assert t_lhs.norm() <= norm2 * t_rhs.norm() + 1e-8 * (1 + norm2 * t_rhs.norm())


# -- pseudo-metrics -------------------------------------------------------------


def test_pseudometric_zero_and_exact_value(rng):
    A = AlgebraShape((2,))
    E = canonical_module(AlgebraShape((1,)), (3,))
    phi = random_cp(A, E, rng)
    alpha = identity_automorphism(A)
    m1 = Intertwiner(identity_map(E), alpha)
    x = random_complex(rng, 3)
    a = random_element(A, rng)
    assert hom_pseudometric(m1, m1, x, a) == 0.0
    delta = 0.37
    m2 = Intertwiner(ModuleMap(E, E, np.eye(3) * (1 + delta)), alpha)
    # on the standard scalar module the distance is exactly delta * ||x||
    assert hom_pseudometric(m1, m2, x, a) == pytest.approx(
        delta * np.linalg.norm(x), rel=1e-12
    )


def test_pseudometric_symmetry_and_triangle(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    E = random_module(B, rng, max_dim=4)
    alpha = identity_automorphism(A)

    def rand_m():
        return Intertwiner(
            ModuleMap(E, E, random_complex(rng, E.dim, E.dim)),
            random_automorphism(A, int(rng.integers(1 << 30))),
        )

    for _ in range(100):
        m1, m2, m3 = rand_m(), rand_m(), rand_m()
        x = random_complex(rng, E.dim)
        a = random_element(A, rng)
        d12 = hom_pseudometric(m1, m2, x, a)
        d21 = hom_pseudometric(m2, m1, x, a)
        assert d12 == pytest.approx(d21, rel=1e-9, abs=1e-12)
        d13 = hom_pseudometric(m1, m3, x, a)
        d32 = hom_pseudometric(m3, m2, x, a)
        assert d12 <= d13 + d32 + 1e-10
