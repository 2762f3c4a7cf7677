"""Tensors whose right factor is its coefficient algebra C over itself
quotient through one eigh per distinct Gram block.

Along a C-linear pi: B -> L(C), the Gram of E (x)_pi C is, up to a fixed
coordinate map, n_t equal copies of one block per block t of C
(cp.column_split).  Each such quotient must match conftest's generic path,
which decomposes each whole Gram matrix: the same rank, the same Gram
spectrum within rounding, and bases and modules that differ by a unitary.
tensor_quotients splits pre-spaces of width SPLIT_MIN_DIM and up; a pi
that fails C-linearity raises before any rank decision, and a right factor
of C's dimension that is not C over itself keeps the generic path.
"""

import numpy as np
import pytest

from ksgnslab.cp import (
    CPMap, column_split, left_mult_correspondence, random_cp, tensor_premodule,
    tensor_quotients,
)
from ksgnslab.cstar import AlgebraShape, StarMap, block_stacks, haar_unitary
from ksgnslab.equivariant import scramble_module
from ksgnslab.errors import NonLinearMap
from ksgnslab.generators import multiplicity_embedding, random_module
from ksgnslab.hilbert import algebra_module, canonical_module, quotient_by_null
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import DEFAULT_TOL, Split, rank_kernel

from conftest import (
    assert_one_module_up_to_a_unitary, recorded_rank_decisions, tensor_quotients_reference,
)

B = AlgebraShape((1, 1))
# per shape of C, the multiplicities of B's two blocks in each block of C
MULTIPLICITIES = {(1,): [(1, 0)], (2,): [(1, 1)], (1, 2): [(1, 0), (1, 1)], (3,): [(1, 2)]}


def embedding(C: AlgebraShape, rng, keep=None) -> StarMap:
    """The unital *-homomorphism B -> C that sends (x, y) to W diag(x.., y..) W*
    in each block of C, W Haar; with `keep`, compressed by the projection onto
    the first `keep` coordinates of C's first block: a CP map that is no
    longer unital, so its tensors have null vectors."""
    Ws = [haar_unitary(n, rng) for n in C.blocks]
    units = block_stacks(B, np.eye(B.dim, dtype=complex))
    P = np.diag(np.arange(C.blocks[0]) < (C.blocks[0] if keep is None else keep)).astype(complex)
    cols = []
    for p in range(B.dim):
        images = [multiplicity_embedding([S[p] for S in units], nu, W)
                  for nu, W in zip(MULTIPLICITIES[C.blocks], Ws)]
        images[0] = P @ images[0] @ P
        cols.append(np.concatenate([x.reshape(-1) for x in images]))
    return StarMap(B, C, np.stack(cols, axis=1))


def wide_module(rng):
    """A module over B wide enough that E (x) C splits for every C here."""
    return random_module(B, rng, max_dim=6, min_dim=4)


@pytest.mark.parametrize("blocks", sorted(MULTIPLICITIES))
@pytest.mark.parametrize("case", ["unital", "rank_deficient", "zero_dim", "cp"])
def test_split_quotients_match_the_generic_path(blocks, case):
    # the split path at every width, zero included: quotient_by_null on
    # column_split's blocks against one eigh of each whole Gram
    rng = np.random.default_rng(sum(blocks) + len(case))
    C, memo = AlgebraShape(blocks), BuildMemo()
    C_mod = algebra_module(C)
    E = canonical_module(B, (0, 0)) if case == "zero_dim" else random_module(B, rng, max_dim=4)
    if case == "cp":  # Choi-sampled, C-linear up to rounding
        pi = [random_cp(B, C_mod, rng) for _ in range(2)]
    else:
        keep = 1 if case == "rank_deficient" else None
        pi = left_mult_correspondence([embedding(C, rng, keep) for _ in range(2)], memo)
    pre = tensor_premodule([E, E], [C_mod, C_mod], pi)
    split = quotient_by_null(Split(pre, column_split(C, E.dim)), DEFAULT_TOL)
    reference = tensor_quotients_reference([E, E], [C_mod, C_mod], pi)
    for quot, ref in zip(split, reference, strict=True):
        assert_one_module_up_to_a_unitary(quot, ref)
    if case == "rank_deficient":
        assert 0 < split[0].module.dim < E.dim * C.dim


@pytest.mark.parametrize(
    "blocks, dim, splits",
    # width dim E * dim C: 16 and up split, 8 does not, and C = the complex numbers never does
    [((2,), 4, True), ((2,), 2, False), ((1, 2), 4, True), ((1,), 16, False)],
)
def test_tensor_quotients_split_wide_pre_spaces_over_c(monkeypatch, blocks, dim, splits):
    rng = np.random.default_rng(dim)
    C, memo = AlgebraShape(blocks), BuildMemo()
    C_mod = algebra_module(C)
    E = canonical_module(B, (dim // 2, dim - dim // 2))
    pi = left_mult_correspondence([embedding(C, rng)], memo)
    grams = recorded_rank_decisions(monkeypatch)
    tm = tensor_quotients([E], [C_mod], pi, DEFAULT_TOL, memo)[0]
    assert len(grams) == 1 and isinstance(grams[0], Split) == splits
    assert_one_module_up_to_a_unitary(tm, tensor_quotients_reference([E], [C_mod], pi)[0])


def right_multiplication(C_mod, d: np.ndarray) -> np.ndarray:
    """x -> x d on C over itself, for d given by its coefficients."""
    return np.einsum("r,rij->ij", d, C_mod.action)


@pytest.mark.parametrize(
    "d",
    # diag(1, 2) weighs the copies k of the Gram block by d_kk, so they
    # differ; the swap of the two columns moves mass off the blocks
    [np.array([1.0, 0.0, 0.0, 2.0]), np.array([0.0, 1.0, 1.0, 0.0])],
    ids=["unequal_copies", "mass_off_the_blocks"],
)
def test_a_pi_that_fails_c_linearity_raises_before_any_rank_decision(monkeypatch, d):
    C, memo = AlgebraShape((2,)), BuildMemo()
    C_mod = algebra_module(C)
    E = wide_module(np.random.default_rng(7))
    images = np.stack([right_multiplication(C_mod, d), np.eye(C.dim)]).astype(complex)
    pi = CPMap(B, C_mod, images)
    grams = recorded_rank_decisions(monkeypatch)
    with pytest.raises(NonLinearMap, match=r"^pi is not C-linear \(residual "):
        tensor_quotients([E], [C_mod], [pi], DEFAULT_TOL, memo)
    assert grams == []  # never quotiented on its blocks alone


def test_a_right_factor_of_c_dimension_that_is_not_c_takes_the_generic_path(monkeypatch):
    rng = np.random.default_rng(11)
    C = AlgebraShape((2,))
    F, _ = scramble_module(algebra_module(C), rng)  # C's dimension, another pairing
    E = wide_module(rng)
    pi = random_cp(B, F, rng)
    grams = recorded_rank_decisions(monkeypatch)
    tm = tensor_quotients([E], [F], [pi], DEFAULT_TOL, BuildMemo())[0]
    assert len(grams) == 1 and isinstance(grams[0], np.ndarray)
    ref = tensor_quotients_reference([E], [F], [pi])[0]
    for name in ("q", "s", "kernel"):
        assert np.array_equal(getattr(tm, name), getattr(ref, name))
    assert np.array_equal(tm.module.action, ref.module.action)


def test_split_bases_run_block_by_block_in_block_order():
    # C = C (+) M_2 with dim E = 4: block 0 has one copy of width 4, block 1
    # two copies of width 8; the quotient's columns are block 0's, then block
    # 1's copy by copy, whatever order the block sizes come in
    C = AlgebraShape((1, 2))
    copies = column_split(C, 4)
    [(rank, s, kernel)] = rank_kernel(Split(np.eye(4 * C.dim)[None], copies), DEFAULT_TOL)
    assert rank == 4 * C.dim and kernel.shape == (4 * C.dim, 0)
    places = [np.flatnonzero(s[rows].any(axis=0)) for c in copies for rows in c]
    assert np.array_equal(places[0], np.arange(4))  # column 0 of s lies on block 0
    assert np.array_equal(np.concatenate(places), np.arange(4 * C.dim))
