"""The shared random-construction builders reproduce, bit for bit, the loop
code they replaced; each reference below is that loop code."""

import numpy as np
import pytest

from ksgnslab import generators
from ksgnslab.cp import intertwiner_space, random_cp
from ksgnslab.cstar import AlgebraShape, haar_unitary
from ksgnslab.generators import multiplicity_embedding, random_intertwiner, transported_copy
from ksgnslab.hilbert import ModuleMap, canonical_module, module_operator_norm

from conftest import random_complex


def reference_canonical_module(B, rows):
    dims = [r * m for r, m in zip(rows, B.blocks)]
    d = sum(dims)
    offsets = np.concatenate([[0], np.cumsum(dims)])

    def flat(t, a, b):
        return int(offsets[t] + a * B.blocks[t] + b)

    action = np.zeros((B.dim, d, d), dtype=complex)
    for p, t, k, l in B.basis_labels():
        for a in range(rows[t]):
            action[p, flat(t, a, l), flat(t, a, k)] = 1.0
    pairing = []
    for t, m in enumerate(B.blocks):
        P = np.zeros((d, d, m, m), dtype=complex)
        for a in range(rows[t]):
            for b in range(m):
                for b2 in range(m):
                    P[flat(t, a, b), flat(t, a, b2), b, b2] = 1.0
        pairing.append(P)
    return action, pairing


@pytest.mark.parametrize(
    "blocks, rows", [((1,), (0,)), ((1, 2), (0, 0)), ((2, 3), (1, 2)), ((1, 1, 2), (2, 0, 1))]
)
def test_canonical_module_matches_loop_reference(blocks, rows):
    B = AlgebraShape(blocks)
    E = canonical_module(B, rows)
    action, pairing = reference_canonical_module(B, rows)
    assert np.array_equal(E.action, action)
    assert len(E.pairing) == len(pairing)
    assert all(np.array_equal(P, Q) for P, Q in zip(E.pairing, pairing))
    assert generators.canonical_module is canonical_module


def reference_embedding(blocks, counts, W):
    p = sum(b.shape[0] * count for b, count in zip(blocks, counts))
    D = np.zeros((p, p), dtype=complex)
    pos = 0
    for b, count in zip(blocks, counts):
        m = b.shape[0]
        for _ in range(count):
            D[pos : pos + m, pos : pos + m] = b
            pos += m
    return W @ D @ W.conj().T


@pytest.mark.parametrize(
    "sizes, counts", [((1,), (0,)), ((2,), (1,)), ((1, 2), (2, 1)), ((2, 1, 3), (0, 2, 1))]
)
def test_multiplicity_embedding_matches_loop_reference(rng, sizes, counts):
    blocks = [random_complex(rng, n, n) for n in sizes]
    W = haar_unitary(sum(n * c for n, c in zip(sizes, counts)), rng)
    assert np.array_equal(
        multiplicity_embedding(blocks, counts, W), reference_embedding(blocks, counts, W)
    )


def test_random_intertwiner_matches_loop_reference(rng, tol):
    # phi1 of C on C^3 has a three-dimensional commutant, hence intertwiner space
    E1 = generators.random_module(AlgebraShape((1,)), rng, 3, min_dim=3)
    phi1 = random_cp(AlgebraShape((1,)), E1, rng)
    E2, phi2, m = transported_copy(E1, phi1, rng)
    state = rng.bit_generator.state
    eta, norm = random_intertwiner(phi1, phi2, m.alpha, rng, tol)

    ref_rng = np.random.default_rng()
    ref_rng.bit_generator.state = state
    basis = intertwiner_space(phi1, phi2, m.alpha, tol)
    assert len(basis) == 3
    coeffs = ref_rng.standard_normal(len(basis)) + 1j * ref_rng.standard_normal(len(basis))
    mat = sum(
        (c * b.matrix for c, b in zip(coeffs, basis)),
        start=np.zeros((E2.dim, E1.dim), dtype=complex),
    )
    assert eta.source is E1 and eta.target is E2
    assert np.array_equal(eta.matrix, mat)
    assert norm == module_operator_norm(ModuleMap(E1, E2, mat))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
