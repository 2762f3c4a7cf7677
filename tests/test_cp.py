from dataclasses import replace

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
    intertwining_rows,
    left_mult_correspondence,
    left_multiplication,
    random_blinear_unitary,
    realized_images,
    random_cp,
)
from ksgnslab.cstar import (
    AlgebraShape,
    identity_automorphism,
    identity_star_map,
    random_automorphism,
    random_element,
    unit_coeffs,
)
from ksgnslab.equivariant import scramble_module
from ksgnslab.errors import NonFinite, NonLinearMap, ShapeMismatch
from ksgnslab.generators import (
    canonical_module,
    conjugate_cp,
    random_module,
    random_morphism_pair,
    random_vectors,
    transported_copy,
)
from ksgnslab.harness import SizeCaps, _load_category, generate_instance, instance_seed
from ksgnslab.hilbert import (
    ModuleMap,
    adjoint_map,
    identity_map,
    is_map_positive,
)
from ksgnslab.ksgns import ksgns
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import DEFAULT_TOL, LIVE_MIN_DIM, operator_norm, summarize
from ksgnslab.poscor import tensor_extend_cpmap

from conftest import (
    add,
    apply_star_map,
    basis_element,
    element_norm,
    hom_pseudometric_reference,
    kron_intertwining_rows,
    linearity_residual,
    mul,
    multiplicativity_reference,
    pair_reference,
    passed,
    random_complex,
    residuals,
    star,
    thresholds,
    watch_lapack,
)


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
    ok, mins = check_cp([phi], DEFAULT_TOL, BuildMemo())[0]
    assert not ok
    assert mins[0] == pytest.approx(-1.0, abs=1e-12)
    (C,) = choi_blocks(realized_images([phi.module], phi.images[None]), phi.algebra)
    assert np.allclose(C[0], swap)


def test_homomorphisms_are_cp(rng):
    from ksgnslab.generators import random_representation

    F, pi = random_representation(AlgebraShape((2,)), AlgebraShape((1, 2)), rng, 6)
    ok, mins = check_cp([pi], DEFAULT_TOL, BuildMemo())[0]
    assert ok
    assert min(mins) >= -1e-12
    assert passed(check_correspondence(pi, DEFAULT_TOL))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_random_cp_self_certifies(seed):
    rng = np.random.default_rng(seed)
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=5)
    phi = random_cp(A, E, rng)
    ok, _ = check_cp([phi], DEFAULT_TOL, BuildMemo())[0]
    assert ok
    assert phi.hermiticity_residual() <= 1e-10 * (1.0 + phi.norm)
    assert linearity_residual(phi) <= 1e-10 * (1.0 + phi.norm)
    ok_pos, _ = is_map_positive(phi(unit_coeffs(A)), DEFAULT_TOL)
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
        check_cp([bad], DEFAULT_TOL, BuildMemo())[0]


def test_cp_preserved_by_unitary_conjugation(rng):
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    phi = random_cp(A, E, rng)
    W = random_blinear_unitary(E, rng)
    psi = conjugate_cp(phi, W, identity_automorphism(A))
    ok, _ = check_cp([psi], DEFAULT_TOL, BuildMemo())[0]
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
    assert linearity_residual(W) <= 1e-10 * (1.0 + act)


def test_commutant_basis_matches_blinear_maps(rng):
    # over the scalars every map is module linear
    E = canonical_module(AlgebraShape((1,)), (3,))
    assert adjointable_commutant_basis(E, DEFAULT_TOL).shape[0] == 9
    # over M_2 with the standard module the commutant is the row algebra
    E2 = canonical_module(AlgebraShape((2,)), (2,))
    assert adjointable_commutant_basis(E2, DEFAULT_TOL).shape[0] == 4


# -- intertwiner spaces --------------------------------------------------------


def test_intertwiner_space_contains_identity(rng):
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    phi = random_cp(A, E, rng)
    basis = intertwiner_space(phi, phi, identity_automorphism(A), DEFAULT_TOL)
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
    basis = intertwiner_space(phi1, phi2, m.alpha, DEFAULT_TOL)
    W = m.eta.matrix.reshape(-1)
    coeffs = [np.vdot(b.matrix.reshape(-1), W) for b in basis]
    recon = sum(c * b.matrix.reshape(-1) for c, b in zip(coeffs, basis))
    assert np.linalg.norm(recon - W) <= 1e-8 * (1.0 + np.linalg.norm(W))


def with_negative_zeros(X, rng):
    """X with a random third of its entries, and every zero, set to -0 - 0j."""
    X = X.copy()
    X[(rng.random(X.shape) < 1 / 3) | (X == 0)] = complex(-0.0, -0.0)
    return X


@pytest.mark.parametrize("zeros", [False, True])
def test_intertwining_rows_match_the_kron_loop(zeros, rng):
    # both constraint systems the solvers stack: the commutant of a realized
    # action (X2 = X1), and an intertwiner system with d1 != d2 (module part
    # and phi part); equal bit for bit, signs of zeros included
    A, B = AlgebraShape((2,)), AlgebraShape((1, 2))
    E1, E2 = canonical_module(B, (1, 1)), canonical_module(B, (2, 1))
    phi1, phi2 = random_cp(A, E1, rng), random_cp(A, E2, rng)
    twisted = np.einsum("qp,qij->pij", random_automorphism(A, rng).matrix, phi2.images)
    R = E2.gram_sqrt @ E2.action @ E2.gram_isqrt
    systems = [(R, R), (E2.action, E1.action), (twisted, phi1.images)]
    assert E1.dim != E2.dim
    for X2, X1 in systems:
        if zeros:
            X2, X1 = with_negative_zeros(X2, rng), with_negative_zeros(X1, rng)
        rows = intertwining_rows(X2, X1)
        expected = kron_intertwining_rows(X2, X1)
        assert np.array_equal(rows, expected)
        assert rows.tobytes() == expected.tobytes()


def test_zero_dimensional_module_has_empty_solution_spaces(rng):
    A, B = AlgebraShape((2,)), AlgebraShape((1, 2))
    E0, E = canonical_module(B, (0, 0)), random_module(B, rng, max_dim=3)
    assert adjointable_commutant_basis(E0, DEFAULT_TOL).shape == (0, 0, 0)
    phi0, phi = random_cp(A, E0, rng), random_cp(A, E, rng)
    assert phi0.images.shape == (4, 0, 0)
    alpha = identity_automorphism(A)
    assert intertwiner_space(phi0, phi, alpha, DEFAULT_TOL) == []
    assert intertwiner_space(phi, phi0, alpha, DEFAULT_TOL) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_intertwiner_space_rejects_non_finite_maps(bad, rng):
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    phi = random_cp(A, E, rng)
    images = phi.images.copy()
    images[1, 0, 0] = bad
    with pytest.raises(NonFinite):
        intertwiner_space(phi, CPMap(A, E, images), identity_automorphism(A), DEFAULT_TOL)


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
    basis = intertwiner_space(phi, phi, identity_automorphism(A), DEFAULT_TOL)
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
            prod = mul(basis_element(A, p), basis_element(A, r))
            ref = max(ref, operator_norm(pi(prod.coeffs()).matrix - pi.images[p] @ pi.images[r]))
    got = residuals(check_correspondence(pi, DEFAULT_TOL))["multiplicative"]
    assert ref > 0.1
    assert got == pytest.approx(ref, rel=1e-12)


# (A blocks, B blocks) of KSGNS representations with dead rows in every image
KSGNS_SHAPES = [((1, 2), (1,)), ((2, 1, 1), (2,)), ((2, 2), (1, 2)), ((1, 3), (1,))]


def ksgns_pi(shapes, seed, max_dim=3):
    """The KSGNS pi: A -> L(F_phi) of a random CP phi, and the rng that drew it."""
    rng = np.random.default_rng(seed)
    A, B = (AlgebraShape(b) for b in shapes)
    E = random_module(B, rng, max_dim=max_dim)
    return ksgns([E], [random_cp(A, E, rng)], DEFAULT_TOL, BuildMemo())[0].pi, rng


def live_rows(pi):
    """live[p, i]: row i of pi(u_p) has a nonzero entry."""
    return (pi.images != 0).any(axis=2)


def multiplicativity_fails(pi) -> bool:
    """Whether check_correspondence's multiplicativity fails, after asserting
    that it equals the every-row reference to rounding, with the same verdict."""
    rep = check_correspondence(pi, DEFAULT_TOL)
    got, threshold = residuals(rep)["multiplicative"], thresholds(rep)["multiplicative"]
    ref = multiplicativity_reference(pi)
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-6 * threshold)
    assert (got > threshold) == (ref > threshold)
    return got > threshold


def corrupted(pi, q, row, col_values):
    """pi with row `row` of pi(u_q) shifted by col_values."""
    images = pi.images.copy()
    images[q, row] += col_values
    return CPMap(pi.algebra, pi.module, images)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(KSGNS_SHAPES), st.integers(0, 10**6))
def test_live_row_multiplicativity_matches_reference_on_ksgns(shapes, seed):
    pi, _ = ksgns_pi(shapes, seed)
    assert not live_rows(pi).all()  # rows are dropped
    assert not multiplicativity_fails(pi)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(KSGNS_SHAPES), st.integers(0, 10**6))
def test_live_row_multiplicativity_matches_reference_on_dense_conjugate(shapes, seed):
    pi, rng = ksgns_pi(shapes, seed)
    U, _ = np.linalg.qr(random_complex(rng, pi.module.dim, pi.module.dim))
    dense = CPMap(pi.algebra, pi.module, U @ pi.images @ U.conj().T)
    assert live_rows(dense).all()  # U pi U* has no dead row
    assert not multiplicativity_fails(dense)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(KSGNS_SHAPES), st.integers(0, 10**6))
def test_live_row_multiplicativity_sees_rows_live_only_in_the_product(shapes, seed):
    # corrupt pi(u_t), t = T[p, r] != p, in a row dead in pi(u_p): the row is
    # live only in pi(u_p u_r), and the residual of p must still see it
    pi, rng = ksgns_pi(shapes, seed)
    T, live = pi.algebra.product_table, live_rows(pi)
    cases = [
        (p, r, i)
        for p, r in zip(*np.nonzero(T >= 0))
        if T[p, r] != p
        for i in np.flatnonzero(~live[p])
    ]
    p, r, i = cases[rng.integers(len(cases))]
    bad = corrupted(pi, T[p, r], i, 0.1 * random_complex(rng, pi.module.dim))
    assert not live_rows(bad)[p, i] and live_rows(bad)[T[p, r], i]
    assert multiplicativity_fails(bad)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(2,), (1, 2), (3,), (2, 2)]), st.integers(0, 10**6))
def test_live_row_multiplicativity_sees_a_defect_only_dead_rows_carry(blocks, seed):
    # a sparse pi with one large defect, row i of pi(u_t), that only the
    # differences pi(u_t) - pi(u_p) pi(u_r) with u_p u_r = u_t, p != t, show:
    # row i is zero in every other image and column i in all of them, and
    # row j is zero except in pi(e), e the right unit of u_t, where it is e_j
    rng = np.random.default_rng(seed)
    A = AlgebraShape(blocks)
    d, i, j = 5, 0, 1
    X = 0.01 * random_complex(rng, A.dim, d, d)
    X[:, [i, j], :] = 0.0
    X[:, :, i] = 0.0
    t, b, _, m = rng.choice([lab for lab in A.basis_labels() if A.blocks[lab[1]] > 1])
    X[A.basis_index(b, m, m), j, j] = 1.0
    X[t, i, j] = 100.0
    pi = CPMap(A, canonical_module(AlgebraShape((1,)), (d,)), X)
    assert multiplicativity_reference(pi) >= 100.0
    assert multiplicativity_fails(pi)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(KSGNS_SHAPES), st.integers(0, 10**6))
def test_live_row_multiplicativity_sees_products_of_orthogonal_units(shapes, seed):
    # corrupt pi(u_r) where u_p u_r = 0 so that pi(u_p) pi(u_r) != 0: shift
    # the row of pi(u_r) that meets pi(u_p)'s largest column
    pi, rng = ksgns_pi(shapes, seed)
    T = pi.algebra.product_table
    p, r = np.transpose(np.nonzero(T < 0))[rng.integers(np.count_nonzero(T < 0))]
    j = int(np.argmax(np.linalg.norm(pi.images[p], axis=0)))
    bad = corrupted(pi, r, j, random_complex(rng, pi.module.dim))
    assert multiplicativity_fails(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_check_correspondence_rejects_non_finite_images(bad):
    pi, _ = ksgns_pi(((1, 2), (1,)), 3)
    for pos in np.ndindex(pi.images.shape):  # anywhere in the stack
        images = pi.images.copy()
        images[pos] = bad
        with pytest.raises(NonFinite, match="representation images"):
            check_correspondence(CPMap(pi.algebra, pi.module, images), DEFAULT_TOL)
    # an Inf in pi(u_r) that a dead row of pi(u_p) multiplies: in the full
    # product that row reads 0 * Inf = NaN, and it is a row the check drops
    p = 0
    i = int(np.flatnonzero(~live_rows(pi)[p])[0])
    r = int(np.flatnonzero(pi.algebra.product_table[p] < 0)[0])
    images = pi.images.copy()
    images[r, :, 0] = bad
    with np.errstate(invalid="ignore"):
        assert np.isnan((images[p] @ images[r])[i, 0])
    with pytest.raises(NonFinite, match="representation images"):
        check_correspondence(CPMap(pi.algebra, pi.module, images), DEFAULT_TOL)


def test_multiplicativity_svds_see_a_third_of_the_rows_on_m3(monkeypatch):
    # A = M_3: each pi(u_p) lives on one of the three row blocks and one of
    # the three column blocks of F's Gram eigen-coordinates, so every
    # multiplicativity norm sees a live block at most dim F / 3 wide both
    # ways, and only the 3 products u_p u_r != 0 per p are formed, the other
    # pairs differing by exactly zero; counted from the shapes of the Gram
    # eigensolves, not from timing
    rng = np.random.default_rng(7)
    A = AlgebraShape((3,))
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=8, min_dim=8)
    assert E.dim >= 8
    pi = ksgns([E], [random_cp(A, E, rng)], DEFAULT_TOL, BuildMemo())[0].pi
    d = pi.module.dim
    assert d >= LIVE_MIN_DIM
    assert pi.norm > 0  # cached first, so its own (dim A, d, d) norms are not counted
    shapes = []
    watch_lapack(monkeypatch, lambda routine, a: routine == "eigvalsh" and shapes.append(a.shape))
    assert passed(check_correspondence(pi, DEFAULT_TOL))
    monkeypatch.undo()
    stacks = [s for s in shapes if len(s) == 3]
    assert shapes == stacks + [(d, d)]  # then the unitality norm's Gram
    assert sum(s[0] for s in stacks) == 3 * A.dim
    assert all(0 < s[1] == s[2] <= d // 3 for s in stacks)


def test_check_morphism_identity_and_solver_consistency(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, max_dim=4)
    ident = Intertwiner(identity_map(E1), identity_automorphism(A))
    rep = check_morphism([ident], [phi1], [phi1], DEFAULT_TOL)[0]
    assert passed(rep)
    assert summarize(rep)[0] <= 1e-12
    rep = check_morphism([m], [phi1], [phi2], DEFAULT_TOL)[0]
    assert passed(rep), rep


def test_check_morphism_rejects_perturbation(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, max_dim=4)
    noise = random_complex(rng, E2.dim, E1.dim)
    noise = 0.1 * noise / operator_norm(noise)
    bad = Intertwiner(ModuleMap(E1, E2, m.eta.matrix + noise), m.alpha)
    rep = check_morphism([bad], [phi1], [phi2], DEFAULT_TOL)[0]
    assert not passed(rep)
    assert residuals(rep)["morphism"] >= 0.001


def test_check_morphism_rejects_eta_into_another_module(rng):
    # default category instance 0: morphism 0 with its eta into a module of
    # the same dimension as phi2's and other content; checked, it passed all
    # three records
    memo = BuildMemo()
    payload = generate_instance("category", SizeCaps(), instance_seed(20250809, "category", 0))
    m = _load_category(payload, DEFAULT_TOL, memo)[1][0]
    other, _ = scramble_module(m.cod.module, rng)
    moved = replace(m, eta=ModuleMap(m.eta.source, other, m.eta.matrix))
    phi1 = tensor_extend_cpmap([m.dom.phi], [m.dom_tensor], DEFAULT_TOL, memo)
    with pytest.raises(ShapeMismatch):
        check_morphism([moved], phi1, [m.cod.phi], DEFAULT_TOL)
    assert passed(check_morphism([replace(m)], phi1, [m.cod.phi], DEFAULT_TOL)[0])


def test_intertwiner_space_rejects_alpha_on_another_algebra(rng):
    # an alpha on M_3 for maps on C: the einsum of alpha with phi2's images
    # broadcast C's size-1 axis and solved a system of the wrong shape
    A, B = AlgebraShape((1,)), AlgebraShape((2,))
    E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, max_dim=4)
    M3 = identity_automorphism(AlgebraShape((3,)))
    with pytest.raises(ShapeMismatch, match="alpha acts on another algebra than phi1's"):
        intertwiner_space(phi1, phi2, M3, DEFAULT_TOL)
    with pytest.raises(ShapeMismatch, match="alpha acts on another algebra than phi1's"):
        check_morphism([Intertwiner(m.eta, M3)], [phi1], [phi2], DEFAULT_TOL)
    assert passed(check_morphism([m], [phi1], [phi2], DEFAULT_TOL)[0])


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
        square = mul(star(a), a)
        pos = phi1(square.coeffs()).matrix
        # part 1 and 2 are inside check_morphism; part 3 sandwich here
        lo_ok, lo = is_map_positive(ModuleMap(E1, E1, pos @ gram), DEFAULT_TOL)
        hi_ok, hi = is_map_positive(ModuleMap(E1, E1, norm2 * pos - pos @ gram), DEFAULT_TOL)
        scale = (1.0 + norm2) * (1.0 + phi1.norm * (1.0 + element_norm(a) ** 2))
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
                aa = mul(star(elts[i]), elts[j])
                img1 = phi1(aa.coeffs()).matrix
                term = pair_reference(E1, xs[i], img1 @ (eta_star_eta @ xs[j]))
                base = pair_reference(E1, xs[i], img1 @ xs[j])
                s_lhs = term if s_lhs is None else add(s_lhs, term)
                s_rhs = base if s_rhs is None else add(s_rhs, base)
                ai, aj = (apply_star_map(m.alpha.forward, e) for e in (elts[i], elts[j]))
                img2 = phi2(mul(star(ai), aj).coeffs()).matrix
                term2 = pair_reference(E2, ys[i], img2 @ (eta_eta_star @ ys[j]))
                base2 = pair_reference(E2, ys[i], img2 @ ys[j])
                t_lhs = term2 if t_lhs is None else add(t_lhs, term2)
                t_rhs = base2 if t_rhs is None else add(t_rhs, base2)
        for lhs, rhs in ((s_lhs, s_rhs), (t_lhs, t_rhs)):
            bound = norm2 * element_norm(rhs)
            assert element_norm(lhs) <= bound + 1e-8 * (1 + bound)


# -- pseudo-metrics -------------------------------------------------------------


def distance(m1: Intertwiner, m2: Intertwiner, x: np.ndarray, a) -> float:
    """d_{x,a}(m1, m2) for one morphism and one sample."""
    return float(hom_pseudometric([m1], m2, x[None], a.coeffs()[None])[0, 0])


def test_pseudometric_zero_and_exact_value(rng):
    A = AlgebraShape((2,))
    E = canonical_module(AlgebraShape((1,)), (3,))
    phi = random_cp(A, E, rng)
    alpha = identity_automorphism(A)
    m1 = Intertwiner(identity_map(E), alpha)
    x = random_complex(rng, 3)
    a = random_element(A, rng)
    assert distance(m1, m1, x, a) == 0.0
    delta = 0.37
    m2 = Intertwiner(ModuleMap(E, E, np.eye(3) * (1 + delta)), alpha)
    # on the standard scalar module the distance is exactly delta * ||x||
    assert distance(m1, m2, x, a) == pytest.approx(
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
        d12 = distance(m1, m2, x, a)
        d21 = distance(m2, m1, x, a)
        assert d12 == pytest.approx(d21, rel=1e-9, abs=1e-12)
        d13 = distance(m1, m3, x, a)
        d32 = distance(m3, m2, x, a)
        assert d12 <= d13 + d32 + 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(1,), (2,), (1, 2)]), st.integers(0, 4))
def test_pseudometric_stacks_match_per_sample_reference(seed, blocks, count):
    # one call over every (morphism, sample) gives each couple's bits of the
    # single-sample formula
    rng = np.random.default_rng(seed)
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape(blocks), rng, max_dim=5)

    def rand_m():
        return Intertwiner(
            ModuleMap(E, E, random_complex(rng, E.dim, E.dim)),
            random_automorphism(A, int(rng.integers(1 << 30))),
        )

    path, ref = [rand_m() for _ in range(count)], rand_m()
    xs = random_vectors(E, rng, 3)
    elts = [random_element(A, rng) for _ in range(3)]
    got = hom_pseudometric(path, ref, xs, np.array([a.coeffs() for a in elts]))
    other = Intertwiner(ref.eta, random_automorphism(AlgebraShape((1, 1, 1, 1)), seed))
    with pytest.raises(ShapeMismatch):
        hom_pseudometric([other], ref, xs, np.array([a.coeffs() for a in elts]))
    want = [[hom_pseudometric_reference(m, ref, x, a) for x, a in zip(xs, elts)] for m in path]
    assert got.shape == (count, 3)
    assert np.array_equal(got, np.array(want).reshape(count, 3))


@pytest.mark.parametrize(
    "blocks", [(1,), (2,), (3,), (1, 2), (2, 2), (1, 3), (2, 3), (1, 1, 2)], ids=str
)
def test_left_multiplication_is_left_mult_correspondence_along_the_identity(blocks):
    # one builder for both: u_p u_q = u_T[p, q], bit for bit, sign bits included
    A = AlgebraShape(blocks)
    images = left_multiplication(A)
    along = left_mult_correspondence([identity_star_map(A)], BuildMemo())[0].images
    T = A.product_table
    p, q = np.nonzero(T >= 0)
    ref = np.zeros((A.dim, A.dim, A.dim), dtype=complex)
    ref[p, T[p, q], q] = 1.0
    assert images.shape == along.shape == ref.shape
    assert images.tobytes() == along.tobytes() == ref.tobytes()
