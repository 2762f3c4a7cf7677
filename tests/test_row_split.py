"""Tensors whose left factor is its algebra A over itself quotient as
(+)_t C^{n_t} (x) K_t, one eigh and one transported pairing block per block
of A.

For A = (+)_t M_{n_t} over itself, <e_ab (x) x, e_cd (x) y> = delta_ac
<x, phi(e_bd) y>: the pre-module A (x)_phi F is the orthogonal sum of n_t
equal copies of one B-submodule per block t (cp.row_split), and the KSGNS
space is F_phi = (+)_t C^{n_t} (x) K_t.  Each such quotient must match
conftest's generic path, which decomposes each whole Gram matrix; pi(e_ab)
must vanish exactly outside its (a, b) block; pre-spaces of every width split
when A, of dimension 2 or more, is over itself, a left factor of A's
dimension that is not A over itself keeps the generic path bit for bit, and
copies that differ beyond rounding raise before any rank decision.  Every
rank is decided against the largest eigenvalue of the whole Gram, as on the
generic path.  When both factors are algebras over themselves, the rows go
first.
"""

import numpy as np
import pytest

from ksgnslab import cp
from ksgnslab.cp import (
    CPMap, left_mult_correspondence, random_cp, realized_images, row_split, tensor_premodule,
    tensor_quotients,
)
from ksgnslab.cstar import AlgebraShape, StarMap
from ksgnslab.equivariant import scramble_module
from ksgnslab.errors import UnequalCopies
from ksgnslab.hilbert import algebra_module, canonical_module
from ksgnslab.ksgns import ksgns
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import DEFAULT_TOL, Split

from conftest import (
    assert_built_alone, assert_one_module_up_to_a_unitary, recorded_rank_decisions,
    tensor_quotients_reference,
)

B = AlgebraShape((1, 2))
SHAPES = [(2,), (1, 2), (3,)]


def compressed_cp(A: AlgebraShape, rng, zero_block: bool):
    """phi = P psi P on a scrambled (+)_t C^{r_t x m_t} over B, psi Choi-sampled
    and P the module projection that drops the second row of B's first block,
    so the tensor has null vectors; with zero_block, phi vanishes on A's first
    block, whose K_t is then zero-dimensional.  dim F is 10, or 6 when dim A
    is 9."""
    F0 = canonical_module(B, (2, 2) if A.dim > 8 else (4, 3))
    F, S = scramble_module(F0, rng)
    P = np.linalg.solve(S, np.diag([1.0, 0.0] + [1.0] * (F0.dim - 2)) @ S)
    images = P @ random_cp(A, F, rng).images @ P
    if zero_block:
        images[: A.blocks[0] ** 2] = 0.0
    return F, CPMap(A, F, images)


def decided_widths(grams: list) -> list[int]:
    """The widths of the blocks each recorded rank decision decomposes."""
    return [w for g in grams for w in
            ([b.shape[-1] for b in g.blocks] if isinstance(g, Split) else [g.shape[-1]])]


def canonical_places(s: np.ndarray, copies: list[np.ndarray]) -> list[list[np.ndarray]]:
    """Per block t and copy a, the quotient coordinates its columns of s fill,
    which must be O_t + a r_t + k, k < r_t: one run per copy, copy by copy."""
    places = [[np.flatnonzero(s[rows].any(axis=0)) for rows in c] for c in copies]
    for p in places:
        r, o = len(p[0]), p[0][:1].sum()
        assert all(np.array_equal(q, o + a * r + np.arange(r)) for a, q in enumerate(p))
    return places


@pytest.mark.parametrize("blocks", SHAPES)
@pytest.mark.parametrize("zero_block", [False, True])
def test_row_split_quotients_match_the_generic_path(monkeypatch, blocks, zero_block):
    rng = np.random.default_rng(sum(blocks) + 10 * zero_block)
    A = AlgebraShape(blocks)
    A_mod = algebra_module(A)
    F, phi = compressed_cp(A, rng, zero_block)
    grams = recorded_rank_decisions(monkeypatch)
    tm = tensor_quotients([A_mod, A_mod], [F, F], [phi, phi], DEFAULT_TOL)
    # one rank decision, on copy 0 of every block of A
    assert len(grams) == 1
    G = tensor_premodule([A_mod, A_mod], [F, F], [phi, phi]).gram()
    for block, c in zip(grams[0].blocks, row_split(A, F.dim), strict=True):
        assert np.array_equal(block, G[:, c[0][:, None], c[0]])
    ref = tensor_quotients_reference([A_mod, A_mod], [F, F], [phi, phi])
    for quot, r in zip(tm, ref, strict=True):
        assert_one_module_up_to_a_unitary(quot, r)
        assert quot.module.dim < A.dim * F.dim  # a non-empty kernel
    # q, s and kernel are the canonical copies I_{n_t} (x) V_t, bit for bit
    s, copies = tm[0].s, row_split(A, F.dim)
    ranks = [len(p[0]) for p in canonical_places(s, copies)]
    assert zero_block == (ranks[0] == 0) and all(ranks[1:])  # K_0 = 0 when phi kills block 0
    for c, places in zip(copies, canonical_places(s, copies)):
        for rows, cols in zip(c, places):
            assert np.array_equal(s[np.ix_(rows, cols)], s[np.ix_(c[0], places[0])])
            assert not np.delete(s[:, cols], rows, axis=0).any()
    assert np.array_equal(tm[0].q, s.conj().T)
    w = tm[0].module.gram_spectrum[0]
    assert np.all(np.diff(w) >= 0.0)  # the copies' spectra, sorted


@pytest.mark.parametrize("blocks", SHAPES)
def test_ksgns_pi_vanishes_exactly_outside_its_block(blocks):
    rng = np.random.default_rng(3 + sum(blocks))
    A = AlgebraShape(blocks)
    F, phi = compressed_cp(A, rng, zero_block=False)
    t = ksgns([F], [phi], DEFAULT_TOL, BuildMemo())[0]
    places = canonical_places(t.s, row_split(A, F.dim))
    realized = realized_images([t.pi.module], t.pi.images[None])[0]
    for p, i, a, b in A.basis_labels():
        outside = np.ones((t.dim, t.dim), bool)
        outside[np.ix_(places[i][a], places[i][b])] = False
        assert not t.pi.images[p][outside].any()
        assert not realized[p][outside].any()
        assert t.pi.images[p][~outside].any()


@pytest.mark.parametrize(
    "blocks, rows, splits",
    # the structure decides, at every width dim A * dim F (0, 1-15, 16-39, 40 and up):
    # A over itself splits, and A = C never does
    [((2,), (4, 3), True), ((2,), (2, 3), True), ((1, 2), (2, 3), True), ((1,), (20, 10), False),
     ((2,), (0, 0), True), ((2,), (1, 0), True), ((1, 2), (1, 1), True), ((2,), (2, 1), True),
     ((3,), (1, 1), True), ((1, 2), (1, 3), True), ((1,), (3, 1), False)],
)
def test_tensor_quotients_split_rows_by_width_and_algebra(monkeypatch, blocks, rows, splits):
    rng = np.random.default_rng(len(blocks) + sum(rows))
    A = AlgebraShape(blocks)
    A_mod = algebra_module(A)
    F = canonical_module(B, rows)
    phi = random_cp(A, F, rng) if A.dim > 1 else CPMap(A, F, np.eye(F.dim)[None])
    grams = recorded_rank_decisions(monkeypatch)
    tm = tensor_quotients([A_mod], [F], [phi], DEFAULT_TOL)[0]
    widths = [n * F.dim for n in A.blocks] if splits else [A.dim * F.dim]
    assert decided_widths(grams) == widths
    assert_one_module_up_to_a_unitary(tm, tensor_quotients_reference([A_mod], [F], [phi])[0])


def test_a_left_factor_of_a_dimension_that_is_not_a_takes_the_generic_path(monkeypatch):
    rng = np.random.default_rng(5)
    A = AlgebraShape((2,))
    E, _ = scramble_module(algebra_module(A), rng)  # A's dimension, another pairing
    F = canonical_module(B, (4, 3))
    pi = random_cp(E.algebra, F, rng)
    grams = recorded_rank_decisions(monkeypatch)
    tm = tensor_quotients([E], [F], [pi], DEFAULT_TOL)[0]
    assert len(grams) == 1 and grams[0].shape[-1] == E.dim * F.dim
    ref = tensor_quotients_reference([E], [F], [pi])[0]
    for name in ("q", "s", "kernel"):
        assert np.array_equal(getattr(tm, name), getattr(ref, name))
    assert np.array_equal(tm.module.action, ref.module.action)
    assert np.array_equal(tm.module.gram_spectrum[1], ref.module.gram_spectrum[1])


@pytest.mark.parametrize("n, rows", [(3, True), (2, True), (1, False)])
def test_both_factors_over_themselves_split_by_rows_from_their_width(monkeypatch, n, rows):
    # the KSGNS of a CP map from A = M_n into C = C (+) M_n over itself: A over
    # itself on the left, C over itself on the right; the rows go first at every
    # width (9 * 10 = 90, 4 * 5 = 20), and the columns when A = C is not split
    # (1 * 2 = 2)
    rng = np.random.default_rng(8)
    A, C, memo = AlgebraShape((n,)), AlgebraShape((1, n)), BuildMemo()
    A_mod, C_mod = algebra_module(A), algebra_module(C)
    widths = [n * C.dim] if rows else [A.dim * m for m in C.blocks]
    # a *-homomorphism rho into C, and the CP map L(c)* L(rho(a)) L(c) for a random c
    rho = StarMap(A, C, np.vstack([np.zeros((1, A.dim)), np.eye(A.dim)]))
    pi = left_mult_correspondence([rho], memo)[0]
    L = left_mult_correspondence([StarMap(C, C, np.eye(C.dim))], memo)[0].images
    Lc = np.tensordot(rng.standard_normal(C.dim) + 1j * rng.standard_normal(C.dim), L, 1)
    for phi in (pi, CPMap(A, C_mod, Lc.conj().T @ pi.images @ Lc)):
        grams = recorded_rank_decisions(monkeypatch)
        tm = tensor_quotients([A_mod], [C_mod], [phi], DEFAULT_TOL)[0]
        assert decided_widths(grams) == widths
        ref = tensor_quotients_reference([A_mod], [C_mod], [phi])[0]
        assert_one_module_up_to_a_unitary(tm, ref)


@pytest.mark.parametrize("factor, raises", [(1.0 + 1e-3, True), (1.0 + 4e-16, False)])
def test_unequal_copies_raise_before_any_rank_decision(monkeypatch, factor, raises):
    # copy 1 of A's block scaled: beyond rounding it is named, at rounding it passes
    rng = np.random.default_rng(13)
    A = AlgebraShape((2,))
    A_mod = algebra_module(A)
    F, phi = compressed_cp(A, rng, zero_block=False)
    c = row_split(A, F.dim)[0][1]
    real = cp.tensor_premodule

    def corrupting(E, F, pi):
        pre = real(E, F, pi)
        for P in pre.pairing:
            P[:, c[:, None], c] *= factor
        return pre

    monkeypatch.setattr(cp, "tensor_premodule", corrupting)
    grams = recorded_rank_decisions(monkeypatch)
    named = r"^copy 1 of block 0 differs from copy 0 in slice 0$"
    if raises:
        with pytest.raises(UnequalCopies, match=named):
            tensor_quotients([A_mod], [F], [phi], DEFAULT_TOL)
        assert grams == []
    else:
        tm = tensor_quotients([A_mod], [F], [phi], DEFAULT_TOL)[0]
        assert len(grams) == 1 and tm.module.dim > 0


def test_unequal_copies_name_copy_2_of_a_3x3_block_and_the_slice(monkeypatch):
    # A = C (+) M_3: copy 2 of block 1 scaled in slice 1 of two is named, before
    # any rank decision, by its copy, block and slice
    rng = np.random.default_rng(47)
    A = AlgebraShape((1, 3))
    A_mod = algebra_module(A)
    F, phi = compressed_cp(A, rng, zero_block=False)
    c = row_split(A, F.dim)[1][2]
    real = cp.tensor_premodule

    def corrupting(E, F, pi):
        pre = real(E, F, pi)
        for P in pre.pairing:
            P[1, c[:, None], c] *= 1.0 + 1e-3
        return pre

    monkeypatch.setattr(cp, "tensor_premodule", corrupting)
    grams = recorded_rank_decisions(monkeypatch)
    with pytest.raises(UnequalCopies, match=r"^copy 2 of block 1 differs from copy 0 in slice 1$"):
        tensor_quotients([A_mod, A_mod], [F, F], [phi, phi], DEFAULT_TOL)
    assert grams == []


@pytest.mark.parametrize("blocks", [(1, 2), (2, 2)])
@pytest.mark.parametrize("scale", [1e-12, 1e-17])
def test_a_block_negligible_against_the_whole_gram_joins_the_kernel(blocks, scale):
    # phi on A's first block far below rtol times the largest eigenvalue of the
    # whole Gram: every rank is decided against that eigenvalue, as on the
    # generic path, not against the largest of the block's own
    rng = np.random.default_rng(19 + sum(blocks))
    A = AlgebraShape(blocks)
    A_mod = algebra_module(A)
    F, phi = compressed_cp(A, rng, zero_block=False)
    images = phi.images.copy()
    images[: A.blocks[0] ** 2] *= scale
    phi = CPMap(A, F, images)
    tm = tensor_quotients([A_mod], [F], [phi], DEFAULT_TOL)[0]
    ref = tensor_quotients_reference([A_mod], [F], [phi])[0]
    assert_one_module_up_to_a_unitary(tm, ref)
    assert not tm.s[row_split(A, F.dim)[0].ravel()].any()  # K_0 = 0


@pytest.mark.parametrize("stack", [["phi", "swapped"], ["phi", "full", "swapped", "phi"]],
                         ids=["equal_totals", "other_totals"])
def test_a_stack_whose_blocks_differ_in_rank_keeps_each_slices_bits(monkeypatch, stack):
    # phi vanishes on A's first block and its block-swapped twin on the second:
    # the total ranks agree and the blocks' ranks do not; full vanishes on
    # neither, so its total rank differs too.  One rank decision on copy 0's
    # blocks decides the whole stack, and each group of equal ranks is built on
    # the row path, every slice with the bits of its own build
    rng = np.random.default_rng(17)
    A = AlgebraShape((2, 2))
    A_mod = algebra_module(A)
    F, phi = compressed_cp(A, rng, zero_block=True)
    maps = {"phi": phi, "swapped": CPMap(A, F, np.concatenate([phi.images[4:], phi.images[:4]])),
            "full": compressed_cp(A, np.random.default_rng(17), zero_block=False)[1]}
    pi, n = [maps[name] for name in stack], len(stack)
    grams = recorded_rank_decisions(monkeypatch)
    tm = tensor_quotients([A_mod] * n, [F] * n, pi, DEFAULT_TOL)
    assert decided_widths(grams) == [2 * F.dim, 2 * F.dim]
    dims = {name: quot.module.dim for name, quot in zip(stack, tm)}
    assert dims["phi"] == dims["swapped"] < dims.get("full", np.inf)
    monkeypatch.undo()
    assert_built_alone(tm, [tensor_quotients([A_mod], [F], [p], DEFAULT_TOL)[0] for p in pi])
