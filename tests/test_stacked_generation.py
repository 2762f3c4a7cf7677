"""Generation and dumping work on whole stacks: each stacked form writes what
its item-by-item form wrote, bit for bit, and the groups of the generators'
menu are built once per process and shared read-only.

The item-by-item forms are kept here as the references."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ksgnslab import harness
from ksgnslab import serialize as ser
from ksgnslab.cp import adjointable_commutant_basis, random_cp
from ksgnslab.cstar import AlgebraShape, block_diag, block_stacks, haar_unitary, inner_automorphism
from ksgnslab.generators import multiplicity_embedding, random_module
from ksgnslab.numkernel import GENERATION_TOL, Tolerance, kron, svd_norm

from conftest import count_calls, random_complex

SHAPES = [(1,), (2,), (3,), (1, 2), (2, 2), (1, 1, 2)]
# finite doubles, signed zeros and subnormals drawn often
ENTRIES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, -1e-310])


def item_dump_cmatrix(M):
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def item_dump_element(shape, c):
    return [item_dump_cmatrix(b) for b in block_stacks(shape, c)]


def item_dump_module(E):
    d = E.dim
    blocks = zip(E.algebra.blocks, E.pairing)
    table = np.concatenate([P.reshape(d, d, n * n) for n, P in blocks], 2)
    return {
        "algebra": list(E.algebra.blocks),
        "dim": d,
        "action": [item_dump_cmatrix(E.action[p]) for p in range(E.algebra.dim)],
        "pairing": [[item_dump_element(E.algebra, table[i, j]) for j in range(d)]
                    for i in range(d)],
    }


def text(data) -> str:
    # json writes -0.0 as such, where list equality would take it for 0.0
    return json.dumps(data)


@st.composite
def complex_arrays(draw, shape):
    pairs = draw(arrays(np.float64, (*shape, 2), elements=ENTRIES))
    return np.ascontiguousarray(pairs).view(complex)[..., 0]


@st.composite
def matrix_stacks(draw):
    shape = draw(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
    return draw(complex_arrays(shape))


@settings(max_examples=60, deadline=None)
@given(matrix_stacks())
@example(np.zeros((2, 0, 3), dtype=complex))
@example(np.zeros((2, 3, 0), dtype=complex))
@example(np.full((1, 2, 2), complex(-0.0, 5e-324)))
def test_stacked_matrix_dump_writes_the_item_dumps(X):
    assert text(ser.dump_cmatrices(X)) == text([item_dump_cmatrix(M) for M in X])
    for M in X:
        assert text(ser.dump_cmatrix(M)) == text(item_dump_cmatrix(M))


@st.composite
def element_stacks(draw):
    shape = AlgebraShape(draw(st.sampled_from(SHAPES)))
    return shape, draw(complex_arrays((draw(st.integers(0, 4)), shape.dim)))


@settings(max_examples=60, deadline=None)
@given(element_stacks())
def test_stacked_element_dump_writes_the_item_dumps(case):
    shape, C = case
    assert text(ser.dump_elements(shape, C)) == text([item_dump_element(shape, c) for c in C])
    for c in C:
        assert text(ser.dump_element(shape, c)) == text(item_dump_element(shape, c))


@st.composite
def module_data(draw):
    """The fields dump_module reads, with any finite entries: a dump writes
    what it is given, valid module or not."""
    B = AlgebraShape(draw(st.sampled_from(SHAPES)))
    d = draw(st.integers(0, 3))
    action = draw(complex_arrays((B.dim, d, d)))
    pairing = [draw(complex_arrays((d, d, n, n))) for n in B.blocks]
    return SimpleNamespace(algebra=B, dim=d, action=action, pairing=pairing)


@settings(max_examples=40, deadline=None)
@given(module_data())
@example(SimpleNamespace(algebra=AlgebraShape((2, 1)), dim=0, action=np.zeros((5, 0, 0), complex),
                         pairing=[np.zeros((0, 0, 2, 2), complex), np.zeros((0, 0, 1, 1), complex)]))
def test_stacked_module_dump_writes_the_item_dumps(E):
    assert text(ser.dump_module(E)) == text(item_dump_module(E))


def test_generated_module_dumps_as_the_item_dumps(rng):
    for blocks in SHAPES:
        E = random_module(AlgebraShape(blocks), rng, max_dim=5)
        assert text(ser.dump_module(E)) == text(item_dump_module(E))


def item_inner_automorphism(shape, unitaries):
    """Blockwise conjugation, one matrix unit at a time."""
    fwd = np.zeros((shape.dim, shape.dim), dtype=complex)
    inv = np.zeros_like(fwd)
    offs = shape.offsets
    for p, i, k, l in shape.basis_labels():
        unit = np.zeros((shape.blocks[i], shape.blocks[i]), dtype=complex)
        unit[k, l] = 1.0
        u = unitaries[i]
        fwd[offs[i] : offs[i + 1], p] = (u @ unit @ u.conj().T).reshape(-1)
        inv[offs[i] : offs[i + 1], p] = (u.conj().T @ unit @ u).reshape(-1)
    return fwd, inv


@pytest.mark.parametrize("blocks", [(1,), (2,), (3,), (4,), (1, 3), (4, 2), (2, 2, 1)])
def test_stacked_inner_automorphism_keeps_the_bits_of_the_unit_loop(blocks, rng):
    shape = AlgebraShape(blocks)
    for _ in range(3):
        unitaries = [haar_unitary(n, rng) for n in blocks]
        fwd, inv = item_inner_automorphism(shape, unitaries)
        alpha = inner_automorphism(shape, unitaries)
        assert alpha.matrix.tobytes() == fwd.tobytes()
        assert alpha.inverse_matrix.tobytes() == inv.tobytes()


def test_block_diag_of_stacks_is_the_block_diag_of_each_slice(rng):
    mats = [random_complex(rng, 4, 2, 2), random_complex(rng, 4, 1, 1), random_complex(rng, 3, 3)]
    stacked = block_diag(mats)
    assert stacked.shape == (4, 6, 6)
    for s in range(4):
        assert np.array_equal(stacked[s], block_diag([mats[0][s], mats[1][s], mats[2]]))
    assert block_diag([np.zeros((0, 0)), mats[0]]).shape == (4, 2, 2)


@pytest.mark.parametrize("blocks", [(1,), (2,), (1, 2), (2, 2)])
def test_stacked_generator_products_keep_the_bits_of_each_slice(blocks, rng):
    # random_star_map and random_representation embed all the matrix units at
    # once; scramble_module and direct_sum_module move the whole action
    B = AlgebraShape(blocks)
    units = block_stacks(B, np.eye(B.dim, dtype=complex))
    counts = tuple(range(1, len(blocks) + 1))
    W = haar_unitary(sum(c * n for c, n in zip(counts, blocks)), rng)
    stacked = multiplicity_embedding(units, counts, W)
    for p in range(B.dim):
        one = multiplicity_embedding([S[p] for S in units], counts, W)
        assert stacked[p].tobytes() == one.tobytes()
    M = random_module(B, rng, max_dim=5)
    S = random_complex(rng, M.dim, M.dim) + 2.0 * np.eye(M.dim)
    S_inv = np.linalg.inv(S)
    moved = S_inv @ M.action @ S
    summed = kron(np.eye(2), M.action)
    for p in range(B.dim):
        assert moved[p].tobytes() == (S_inv @ M.action[p] @ S).tobytes()
        assert summed[p].tobytes() == kron(np.eye(2), M.action[p]).tobytes()


def item_random_cp_images(A, E, seed):
    """random_cp's images with each (k, l) block of a Choi matrix projected
    onto the commutant one at a time."""
    rng = np.random.default_rng(seed)
    d = E.dim
    basis = adjointable_commutant_basis(E, Tolerance())
    images = np.zeros((A.dim, d, d), dtype=complex)
    for i, n in enumerate(A.blocks):
        m = n * d
        Y = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
        C = Y @ Y.conj().T
        if m:
            C = C / max(svd_norm(C), 1.0)
        for k in range(n):
            for l in range(n):
                block = C[k * d : (k + 1) * d, l * d : (l + 1) * d]
                coeffs = np.einsum("kij,ij->k", basis.conj(), block)
                proj = np.einsum("k,kij->ij", coeffs, basis)
                images[A.basis_index(i, k, l)] = E.gram_isqrt @ proj @ E.gram_sqrt
    return images


@pytest.mark.parametrize("seed", range(12))
def test_stacked_random_cp_keeps_the_bits_of_the_block_loop(seed):
    rng = np.random.default_rng(seed)
    A = AlgebraShape(SHAPES[seed % len(SHAPES)])
    E = random_module(AlgebraShape(SHAPES[(seed + 2) % len(SHAPES)]), rng, max_dim=8)
    assert random_cp(A, E, seed).images.tobytes() == item_random_cp_images(A, E, seed).tobytes()


def test_generation_tolerance_is_the_default_policy():
    assert GENERATION_TOL == Tolerance()


def test_groups_are_built_once_per_process_and_read_only(monkeypatch):
    G = harness.make_group("S3")
    assert harness.make_group("S3") is G
    assert not G.table.flags.writeable and not G.inverse.flags.writeable
    with pytest.raises(ValueError):
        G.table[0, 0] = 1
    for name in harness.GROUP_MENU:  # the first of each name
        harness.make_group(name)
    builds = count_calls(monkeypatch, harness, "cyclic_group", "symmetric_group", "trivial_group")
    groups = {harness._gen_equivariant(harness.SizeCaps(), seed)["group"] for seed in range(12)}
    assert builds == []
    assert len(groups) > 1
