import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksgnslab.cstar import (
    AlgebraShape,
    AlgebraElement,
    basis_element,
    block_permutation_automorphism,
    check_star_map,
    compose_automorphisms,
    from_coeffs,
    identity_star_map,
    inner_automorphism,
    random_automorphism,
    random_element,
    StarMap,
    unit_element,
)
from ksgnslab.errors import ShapeMismatch
from ksgnslab.numkernel import DEFAULT_TOL, operator_norm

from conftest import left_mult_matrix, right_mult_matrix


def test_shape_validation():
    assert AlgebraShape((2, 3)).dim == 13
    with pytest.raises(ShapeMismatch):
        AlgebraShape(())
    with pytest.raises(ShapeMismatch):
        AlgebraShape((0,))


def test_unit_is_neutral():
    shape = AlgebraShape((2, 1))
    rng = np.random.default_rng(0)
    b = random_element(shape, rng)
    prod = unit_element(shape) * b
    assert max((prod - b).norm(), (b * unit_element(shape) - b).norm()) <= 1e-15


def test_matrix_unit_adjoint_and_norm():
    shape = AlgebraShape((2,))
    e12 = basis_element(shape, shape.basis_index(0, 0, 1))
    e21 = basis_element(shape, shape.basis_index(0, 1, 0))
    assert (e12.star() - e21).norm() == 0.0
    assert e12.norm() == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(1,), (2,), (3,), (1, 2)]))
def test_cstar_identity(seed, blocks):
    rng = np.random.default_rng(seed)
    a = random_element(AlgebraShape(blocks), rng)
    assert abs((a.star() * a).norm() - a.norm() ** 2) <= 1e-10 * (1.0 + a.norm() ** 2)


def test_star_involution_exact():
    rng = np.random.default_rng(3)
    a = random_element(AlgebraShape((2, 2)), rng)
    assert (a.star().star() - a).norm() == 0.0


def test_coeffs_round_trip():
    shape = AlgebraShape((2, 1))
    rng = np.random.default_rng(7)
    a = random_element(shape, rng)
    assert (from_coeffs(shape, a.coeffs()) - a).norm() == 0.0


def test_left_right_mult_matrices():
    shape = AlgebraShape((2, 2))
    rng = np.random.default_rng(9)
    a, b = random_element(shape, rng), random_element(shape, rng)
    assert np.allclose(left_mult_matrix(a) @ b.coeffs(), (a * b).coeffs())
    assert np.allclose(right_mult_matrix(a) @ b.coeffs(), (b * a).coeffs())


def test_trace_examples():
    assert unit_element(AlgebraShape((2, 3))).trace() == pytest.approx(5.0)
    shape = AlgebraShape((2,))
    e12 = basis_element(shape, shape.basis_index(0, 0, 1))
    assert e12.trace() == pytest.approx(0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_trace_cyclic_and_faithful(seed):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape((1, 2))
    a, b = random_element(shape, rng), random_element(shape, rng)
    gap = abs((a * b).trace() - (b * a).trace())
    assert gap <= 1e-10 * (1.0 + a.norm() * b.norm())
    assert (a.star() * a).trace().real > 0.0


def test_trace_nondegenerate():
    # tau(c b) = 0 for all basis b forces c = 0
    shape = AlgebraShape((2, 1))
    rng = np.random.default_rng(11)
    c = random_element(shape, rng)
    pairings = np.array(
        [(c * basis_element(shape, p)).trace() for p in range(shape.dim)]
    )
    # the pairing vector is a permutation of the coefficients of c
    assert np.linalg.norm(pairings) >= 1e-3 * c.norm()
    assert np.allclose(np.sort(np.abs(pairings)), np.sort(np.abs(c.coeffs())))


def test_check_star_map_identity():
    rep = check_star_map(identity_star_map(AlgebraShape((2, 1))))
    assert rep.passed
    assert rep.max_residual == 0.0


def test_check_star_map_transpose_fails():
    shape = AlgebraShape((2,))
    images = []
    for p, i, k, l in shape.basis_labels():
        images.append(basis_element(shape, shape.basis_index(i, l, k)))
    transpose = StarMap(shape, shape, images)
    rep = check_star_map(transpose)
    assert not rep.passed
    assert rep.residuals["multiplicativity"] >= 1.0
    assert rep.residuals["unitality"] <= 1e-15


@pytest.mark.parametrize("blocks", [(1,), (3,), (1, 2), (2, 3)])
def test_product_table_matches_element_products(blocks):
    shape = AlgebraShape(blocks)
    T = shape.product_table
    assert T.shape == (shape.dim, shape.dim)
    for p in range(shape.dim):
        for r in range(shape.dim):
            prod = basis_element(shape, p) * basis_element(shape, r)
            expected = np.zeros(shape.dim) if T[p, r] < 0 else basis_element(shape, T[p, r]).coeffs()
            assert np.array_equal(prod.coeffs(), expected), (p, r)


@pytest.mark.parametrize("blocks, cod", [((2,), (3,)), ((1, 2), (2, 1)), ((2, 2), (3,))])
def test_check_star_map_multiplicativity_matches_loop(blocks, cod, rng):
    dom = AlgebraShape(blocks)
    cod = AlgebraShape(cod)
    rho = StarMap(dom, cod, [random_element(cod, rng) for _ in range(dom.dim)])
    # reference: every same-block pair of matrix units, products from AlgebraElement
    ref = 0.0
    for p, i, k, l in dom.basis_labels():
        for r, j, k2, l2 in dom.basis_labels():
            if i == j:
                prod = basis_element(dom, p) * basis_element(dom, r)
                diff = rho(prod) - rho.images[p] * rho.images[r]
                ref = max(ref, diff.norm())
    got = check_star_map(rho).residuals["multiplicativity"]
    assert ref > 0.1
    assert got == pytest.approx(ref, rel=1e-12)


def test_check_star_map_block_embedding():
    B = AlgebraShape((2,))
    C = AlgebraShape((2, 2))
    images = []
    for p in range(B.dim):
        u = basis_element(B, p)
        images.append(AlgebraElement(C, [u.blocks[0], u.blocks[0]]))
    rho = StarMap(B, C, images)
    rep = check_star_map(rho)
    assert rep.passed
    assert rep.residuals["unitality"] == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(1,), (2,), (2, 2), (1, 2)]))
def test_random_automorphism_is_star_automorphism(seed, blocks):
    shape = AlgebraShape(blocks)
    alpha = random_automorphism(shape, seed)
    rep = check_star_map(alpha.forward)
    assert rep.passed, rep.residuals
    round_trip = operator_norm(alpha.inverse.matrix @ alpha.forward.matrix - np.eye(shape.dim))
    assert round_trip <= DEFAULT_TOL.ctol
    # unital
    assert (alpha(unit_element(shape)) - unit_element(shape)).norm() <= 1e-12


def test_automorphism_of_scalars_is_identity():
    alpha = random_automorphism(AlgebraShape((1,)), 5)
    assert operator_norm(alpha.matrix - np.eye(1)) <= 1e-12


def test_block_swap_is_involution():
    shape = AlgebraShape((2, 2))
    swap = block_permutation_automorphism(shape, [1, 0])
    square = compose_automorphisms(swap, swap)
    assert operator_norm(square.matrix - np.eye(shape.dim)) <= 1e-14
    rng = np.random.default_rng(2)
    a = random_element(shape, rng)
    assert np.allclose(swap(a).blocks[0], a.blocks[1])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_automorphisms_are_isometric(seed):
    shape = AlgebraShape((2, 2))
    alpha = random_automorphism(shape, seed)
    rng = np.random.default_rng(seed + 1)
    a = random_element(shape, rng)
    assert abs(alpha(a).norm() - a.norm()) <= 1e-10 * (1.0 + a.norm())


def test_inner_automorphism_multiplicativity_on_units():
    shape = AlgebraShape((2,))
    rng = np.random.default_rng(4)
    from ksgnslab.cstar import haar_unitary

    alpha = inner_automorphism(shape, [haar_unitary(2, rng)])
    worst = 0.0
    for p in range(shape.dim):
        for r in range(shape.dim):
            u, v = basis_element(shape, p), basis_element(shape, r)
            worst = max(worst, (alpha(u * v) - alpha(u) * alpha(v)).norm())
    assert worst <= 1e-12
