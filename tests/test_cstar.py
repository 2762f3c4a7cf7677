import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ksgnslab.cstar import (
    AlgebraShape,
    AlgebraElement,
    Automorphism,
    adjoints,
    block_permutation_automorphism,
    check_star_map,
    compose_automorphisms,
    element_norms,
    identity_star_map,
    inner_automorphism,
    products,
    random_automorphism,
    random_element,
    StarMap,
    star_map_distance,
    unit_coeffs,
)
from ksgnslab.generators import random_star_map
from ksgnslab.errors import ShapeMismatch
from ksgnslab.numkernel import DEFAULT_TOL, operator_norm, summarize

from conftest import (
    algebra_trace,
    apply_star_map,
    basis_element,
    check_star_map_reference,
    element_norm,
    from_coeffs,
    left_mult_matrix,
    mul,
    passed,
    residuals,
    right_mult_matrix,
    star,
    star_map_distance_reference,
    star_map_images,
    sub,
    thresholds,
    unit_element,
)


def test_shape_validation():
    assert AlgebraShape((2, 3)).dim == 13
    with pytest.raises(ShapeMismatch):
        AlgebraShape(())
    with pytest.raises(ShapeMismatch):
        AlgebraShape((0,))


def test_unit_is_neutral():
    shape = AlgebraShape((2, 1))
    rng = np.random.default_rng(0)
    b = random_element(shape, rng).coeffs()[None]
    one = unit_coeffs(shape)[None]
    assert np.array_equal(products(shape, one, b)[0, 0], b[0])
    assert np.array_equal(products(shape, b, one)[0, 0], b[0])
    assert np.array_equal(unit_coeffs(shape), unit_element(shape).coeffs())


def test_matrix_unit_adjoint_and_norm():
    shape = AlgebraShape((2,))
    e12 = np.eye(shape.dim)[shape.basis_index(0, 0, 1)]
    e21 = np.eye(shape.dim)[shape.basis_index(0, 1, 0)]
    assert np.array_equal(adjoints(shape, e12), e21)
    assert element_norms(shape, e12) == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(1,), (2,), (3,), (1, 2)]))
def test_cstar_identity(seed, blocks):
    shape = AlgebraShape(blocks)
    rng = np.random.default_rng(seed)
    a = np.array([random_element(shape, rng).coeffs() for _ in range(3)])
    squares = products(shape, adjoints(shape, a), a)[np.arange(3), np.arange(3)]
    norms = element_norms(shape, a)
    assert np.all(np.abs(element_norms(shape, squares) - norms**2) <= 1e-10 * (1.0 + norms**2))


def test_star_involution_exact():
    rng = np.random.default_rng(3)
    shape = AlgebraShape((2, 2))
    a = random_element(shape, rng).coeffs()
    assert np.array_equal(adjoints(shape, adjoints(shape, a)), a)


def test_coeffs_round_trip():
    shape = AlgebraShape((2, 1))
    rng = np.random.default_rng(7)
    a = random_element(shape, rng)
    assert element_norm(sub(from_coeffs(shape, a.coeffs()), a)) == 0.0


def test_left_right_mult_matrices():
    shape = AlgebraShape((2, 2))
    rng = np.random.default_rng(9)
    a, b = random_element(shape, rng), random_element(shape, rng)
    assert np.allclose(left_mult_matrix(a) @ b.coeffs(), mul(a, b).coeffs())
    assert np.allclose(right_mult_matrix(a) @ b.coeffs(), mul(b, a).coeffs())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(1,), (2,), (3,), (1, 2), (2, 1, 3)]))
def test_coefficient_stacks_match_element_formulas(seed, blocks):
    # one batched call per block gives each element's bits of the formulas
    # applied to it alone
    shape = AlgebraShape(blocks)
    rng = np.random.default_rng(seed)
    els = [random_element(shape, rng) for _ in range(int(rng.integers(1, 5)))]
    C = np.array([a.coeffs() for a in els])
    prods = products(shape, adjoints(shape, C), C)
    norms = element_norms(shape, C)
    for i, a in enumerate(els):
        assert norms[i] == element_norm(a)
        assert np.array_equal(adjoints(shape, C)[i], star(a).coeffs())
        for j, b in enumerate(els):
            assert np.array_equal(prods[i, j], mul(star(a), b).coeffs())


def test_trace_examples():
    assert algebra_trace(unit_element(AlgebraShape((2, 3)))) == pytest.approx(5.0)
    shape = AlgebraShape((2,))
    e12 = basis_element(shape, shape.basis_index(0, 0, 1))
    assert algebra_trace(e12) == pytest.approx(0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_trace_cyclic_and_faithful(seed):
    rng = np.random.default_rng(seed)
    shape = AlgebraShape((1, 2))
    a, b = random_element(shape, rng), random_element(shape, rng)
    gap = abs(algebra_trace(mul(a, b)) - algebra_trace(mul(b, a)))
    assert gap <= 1e-10 * (1.0 + element_norm(a) * element_norm(b))
    assert algebra_trace(mul(star(a), a)).real > 0.0


def test_trace_nondegenerate():
    # tau(c b) = 0 for all basis b forces c = 0
    shape = AlgebraShape((2, 1))
    rng = np.random.default_rng(11)
    c = random_element(shape, rng)
    pairings = np.array(
        [algebra_trace(mul(c, basis_element(shape, p))) for p in range(shape.dim)]
    )
    # the pairing vector is a permutation of the coefficients of c
    assert np.linalg.norm(pairings) >= 1e-3 * element_norm(c)
    assert np.allclose(np.sort(np.abs(pairings)), np.sort(np.abs(c.coeffs())))


def test_check_star_map_identity():
    rep = check_star_map([identity_star_map(AlgebraShape((2, 1)))], DEFAULT_TOL)[0]
    assert passed(rep)
    assert summarize(rep)[0] == 0.0


def test_check_star_map_transpose_fails():
    shape = AlgebraShape((2,))
    images = [np.eye(shape.dim)[shape.basis_index(i, l, k)] for p, i, k, l in shape.basis_labels()]
    transpose = StarMap(shape, shape, np.stack(images, axis=1))
    rep = check_star_map([transpose], DEFAULT_TOL)[0]
    assert not passed(rep)
    assert residuals(rep)["multiplicativity"] >= 1.0
    assert residuals(rep)["unitality"] <= 1e-15


@pytest.mark.parametrize("blocks", [(1,), (3,), (1, 2), (2, 3)])
def test_product_table_matches_element_products(blocks):
    shape = AlgebraShape(blocks)
    T = shape.product_table
    assert T.shape == (shape.dim, shape.dim)
    for p in range(shape.dim):
        for r in range(shape.dim):
            prod = mul(basis_element(shape, p), basis_element(shape, r))
            expected = np.zeros(shape.dim) if T[p, r] < 0 else basis_element(shape, T[p, r]).coeffs()
            assert np.array_equal(prod.coeffs(), expected), (p, r)


@pytest.mark.parametrize("blocks, cod", [((2,), (3,)), ((1, 2), (2, 1)), ((2, 2), (3,))])
def test_check_star_map_multiplicativity_matches_loop(blocks, cod, rng):
    dom = AlgebraShape(blocks)
    cod = AlgebraShape(cod)
    rho = StarMap(
        dom, cod, np.stack([random_element(cod, rng).coeffs() for _ in range(dom.dim)], axis=1)
    )
    # reference: every same-block pair of matrix units, products element by element
    images = star_map_images(rho)
    ref = 0.0
    for p, i, k, l in dom.basis_labels():
        for r, j, k2, l2 in dom.basis_labels():
            if i == j:
                prod = mul(basis_element(dom, p), basis_element(dom, r))
                diff = sub(apply_star_map(rho, prod), mul(images[p], images[r]))
                ref = max(ref, element_norm(diff))
    got = residuals(check_star_map([rho], DEFAULT_TOL)[0])["multiplicativity"]
    assert ref > 0.1
    assert got == pytest.approx(ref, rel=1e-12)


def test_check_star_map_block_embedding():
    B = AlgebraShape((2,))
    C = AlgebraShape((2, 2))
    images = []
    for p in range(B.dim):
        u = basis_element(B, p)
        images.append(AlgebraElement(C, [u.blocks[0], u.blocks[0]]).coeffs())
    rho = StarMap(B, C, np.stack(images, axis=1))
    rep = check_star_map([rho], DEFAULT_TOL)[0]
    assert passed(rep)
    assert residuals(rep)["unitality"] == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(1,), (2,), (2, 2), (1, 2)]))
def test_random_automorphism_is_star_automorphism(seed, blocks):
    shape = AlgebraShape(blocks)
    alpha = random_automorphism(shape, seed)
    rep = check_star_map([alpha.forward], DEFAULT_TOL)[0]
    assert passed(rep), rep
    round_trip = operator_norm(alpha.inverse.matrix @ alpha.forward.matrix - np.eye(shape.dim))
    assert round_trip <= DEFAULT_TOL.ctol
    # unital
    assert element_norms(shape, alpha(unit_coeffs(shape)) - unit_coeffs(shape)) <= 1e-12


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
    assert np.allclose(from_coeffs(shape, swap(a.coeffs())).blocks[0], a.blocks[1])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_automorphisms_are_isometric(seed):
    shape = AlgebraShape((2, 2))
    alpha = random_automorphism(shape, seed)
    rng = np.random.default_rng(seed + 1)
    a = random_element(shape, rng).coeffs()
    gap = abs(element_norms(shape, alpha(a)) - element_norms(shape, a))
    assert gap <= 1e-10 * (1.0 + element_norms(shape, a))


def test_inner_automorphism_multiplicativity_on_units():
    shape = AlgebraShape((2,))
    rng = np.random.default_rng(4)
    from ksgnslab.cstar import haar_unitary

    alpha = inner_automorphism(shape, [haar_unitary(2, rng)])
    worst = 0.0
    for p in range(shape.dim):
        for r in range(shape.dim):
            u, v = basis_element(shape, p), basis_element(shape, r)
            f = alpha.forward
            images = mul(apply_star_map(f, u), apply_star_map(f, v))
            defect = sub(apply_star_map(f, mul(u, v)), images)
            worst = max(worst, element_norm(defect))
    assert worst <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(
        [((1,), (2,)), ((2,), (3,)), ((1, 2), (2, 1)), ((2, 2), (3,)), ((3,), (1, 2))]
    ),
)
@example(seed=22968, shapes=((2,), (3,)))
def test_star_map_checks_match_per_image_reference(seed, shapes):
    # batched SVDs are per-matrix bit-identical, so the stacked checks equal
    # the image-by-image formulas exactly, on arbitrary linear maps and on
    # *-homomorphisms alike; the gate squares its scale as a product, since
    # scale ** 2 goes through C pow, one ulp off at the pinned example
    dom, cod = (AlgebraShape(b) for b in shapes)
    rng = np.random.default_rng(seed)

    def noise(rows: int) -> np.ndarray:
        return rng.standard_normal((rows, dom.dim)) + 1j * rng.standard_normal((rows, dom.dim))

    hom = random_star_map(dom, rng, max_block=3)
    near = StarMap(dom, hom.codomain, hom.matrix + 1e-9 * noise(hom.codomain.dim))
    pairs = [(StarMap(dom, cod, noise(cod.dim)), StarMap(dom, cod, noise(cod.dim))), (hom, near)]
    for r1, r2 in pairs:
        # each map alone, and as the second slice of a stack with its partner
        ref = check_star_map_reference(r1)
        gate = DEFAULT_TOL.ctol * (1.0 + ref["scale"] * ref["scale"])
        for rep in (check_star_map([r1], DEFAULT_TOL)[0], check_star_map([r2, r1], DEFAULT_TOL)[1]):
            for name in ("multiplicativity", "star_preservation", "unitality"):
                assert np.array_equal(residuals(rep)[name], ref[name]), name
                assert thresholds(rep)[name] == gate
        gaps = star_map_distance([r2, r1, r1], [r1, r2, r1])
        assert np.array_equal(gaps[1], star_map_distance_reference(r1, r2))
        assert gaps[2] == 0.0


def test_automorphism_shape_checks():
    M2, C4 = AlgebraShape((2,)), AlgebraShape((1, 1, 1, 1))
    ident, eye = identity_star_map(M2), np.eye(4, dtype=complex)
    with pytest.raises(ShapeMismatch, match="endomap"):
        Automorphism(StarMap(M2, C4, eye), ident)
    with pytest.raises(ShapeMismatch, match="inverse lives on a different algebra"):
        Automorphism(ident, identity_star_map(C4))
    # same dimension, other algebra: alpha inverse would be read in C4's basis
    with pytest.raises(ShapeMismatch, match="inverse maps into a different algebra"):
        Automorphism(ident, StarMap(M2, C4, eye))
    assert Automorphism(ident, ident).shape == M2
