"""Tensors whose right factor is its coefficient algebra C over itself
quotient in closed form, from one Gram block per block of C.

Along a C-linear pi: B -> L(C), the Gram of E (x)_pi C is, up to a fixed
coordinate map, n_t equal copies of one block Gamma_t per block t of C
(cp.column_split), and E (x)_pi C = (+)_t K_t (x) C^{n_t}: the action of a
matrix unit is a 0/1 copy permutation and the pairing diag(w_t) (x) e_kl.
Each such quotient must match conftest's generic path, which decomposes
each whole Gram matrix: the same rank, the same Gram spectrum within
rounding, and bases and modules that differ by a unitary; its action and
pairing must be s* R s and s* P s of the pre-module, which the closed form
never builds.  tensor_quotients takes the closed form at every width, zero
included, whenever the right factor is C over itself and the left factor is
not an algebra over itself (whose rows go first), so a degenerate Gram
eigenspace gets the canonical basis I_{n_t} (x) V_t at any width; a pi that
fails C-linearity raises before any rank decision, an eigenvector basis that
leaks raises, a stack whose ranks differ between slices builds each rank in
closed form, and a right factor of C's dimension that is not C over itself
keeps the generic path.
"""

import numpy as np
import pytest

from ksgnslab import cp, numkernel
from ksgnslab.cp import (
    CPMap, column_quotients, column_split, left_mult_correspondence, random_cp,
    tensor_premodule, tensor_quotients,
)
from ksgnslab.cstar import AlgebraShape, StarMap, block_stacks, haar_unitary
from ksgnslab.equivariant import scramble_module
from ksgnslab.errors import NonFinite, NonLinearMap, ShapeMismatch, SubmoduleViolation
from ksgnslab.generators import multiplicity_embedding, random_module
from ksgnslab.hilbert import (
    algebra_module, canonical_module, quotient_by_columns, transport_pairing,
)
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import DEFAULT_TOL, Split, rank_kernel

from conftest import (
    assert_built_alone, assert_one_module_up_to_a_unitary, count_calls, lapack_calls, recorded_rank_decisions,
    tensor_quotients_reference,
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
    # the closed form at every width, zero included, against one eigh of
    # each whole Gram
    rng = np.random.default_rng(sum(blocks) + len(case))
    C, memo = AlgebraShape(blocks), BuildMemo()
    C_mod = algebra_module(C)
    E = canonical_module(B, (0, 0)) if case == "zero_dim" else random_module(B, rng, max_dim=4)
    if case == "cp":  # Choi-sampled, C-linear up to rounding
        pi = [random_cp(B, C_mod, rng) for _ in range(2)]
    else:
        keep = 1 if case == "rank_deficient" else None
        pi = left_mult_correspondence([embedding(C, rng, keep) for _ in range(2)], memo)
    split = column_quotients([E, E], [C_mod, C_mod], pi, DEFAULT_TOL)
    reference = tensor_quotients_reference([E, E], [C_mod, C_mod], pi)
    for quot, ref in zip(split, reference, strict=True):
        assert_one_module_up_to_a_unitary(quot, ref)
    if case == "rank_deficient":
        assert 0 < split[0].module.dim < E.dim * C.dim


@pytest.mark.parametrize(
    "blocks, dim, closed",
    # the structure decides, at every width dim E * dim C (0, 1-15, 16-39): C over
    # itself takes the closed form, but E of dim 2 is B over itself, whose rows go
    # first, and C = the complex numbers is never split
    [((2,), 4, True), ((2,), 2, False), ((1, 2), 4, True), ((1,), 16, False), ((2,), 0, True),
     ((1, 2), 1, True), ((2,), 3, True), ((3,), 1, True), ((3,), 3, True), ((1, 2), 7, True)],
)
def test_tensor_quotients_split_wide_pre_spaces_over_c(monkeypatch, blocks, dim, closed):
    rng = np.random.default_rng(dim)
    C, memo = AlgebraShape(blocks), BuildMemo()
    C_mod = algebra_module(C)
    E = canonical_module(B, (dim // 2, dim - dim // 2))
    pi = left_mult_correspondence([embedding(C, rng)], memo)
    grams = recorded_rank_decisions(monkeypatch)
    columns = count_calls(monkeypatch, cp, "column_quotients")
    tm = tensor_quotients([E], [C_mod], pi, DEFAULT_TOL)[0]
    assert len(grams) == 1 and isinstance(grams[0], Split) == (C.dim > 1)
    assert bool(columns) == closed
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
    C = AlgebraShape((2,))
    C_mod = algebra_module(C)
    E = wide_module(np.random.default_rng(7))
    images = np.stack([right_multiplication(C_mod, d), np.eye(C.dim)]).astype(complex)
    pi = CPMap(B, C_mod, images)
    grams = recorded_rank_decisions(monkeypatch)
    with pytest.raises(NonLinearMap, match=r"^pi is not C-linear \(residual "):
        tensor_quotients([E], [C_mod], [pi], DEFAULT_TOL)
    assert grams == []  # never quotiented on its blocks alone


@pytest.mark.parametrize("entry", [(0, 1), (1, 3)], ids=["off_the_copies", "copy_1_only"])
def test_the_c_linearity_gate_names_an_entry_off_the_copies_or_of_one_copy(monkeypatch, entry):
    # on C = M_2 over itself copy 0 holds coordinates 0 and 2, copy 1 coordinates
    # 1 and 3 (column_split(C, 1)): pi(u_p) of a C-linear pi is the copies of one
    # block.  An entry between the copies, or one of copy 1 whose copy-0 twin
    # stays, breaks that, and the gate names the residual before any rank decision
    rng = np.random.default_rng(41)
    C, memo = AlgebraShape((2,)), BuildMemo()
    C_mod = algebra_module(C)
    E = wide_module(rng)
    [pi] = left_mult_correspondence([embedding(C, rng)], memo)
    images = pi.images.copy()
    images[1][entry] += 1e-3
    grams = recorded_rank_decisions(monkeypatch)
    with pytest.raises(NonLinearMap, match=r"^pi is not C-linear \(residual 1\.000e-03\)$"):
        tensor_quotients([E, E], [C_mod, C_mod], [pi, CPMap(B, C_mod, images)], DEFAULT_TOL)
    assert grams == []


@pytest.mark.parametrize("bad, entry", [(np.nan, (0, 0)), (np.inf, (0, 1))])
def test_images_of_pi_that_are_not_finite_raise_before_any_rank_decision(monkeypatch, bad, entry):
    # a NaN on copy 0, an Inf between the copies: the images are checked finite
    # before the C-linearity gate takes a norm of them
    rng = np.random.default_rng(43)
    C, memo = AlgebraShape((2,)), BuildMemo()
    C_mod = algebra_module(C)
    E = wide_module(rng)
    [pi] = left_mult_correspondence([embedding(C, rng)], memo)
    images = pi.images.copy()
    images[1][entry] = bad
    grams = recorded_rank_decisions(monkeypatch)
    with pytest.raises(NonFinite, match=r"^matrix contains NaN or Inf entries$"):
        tensor_quotients([E], [C_mod], [CPMap(B, C_mod, images)], DEFAULT_TOL)
    assert grams == []


def test_a_right_factor_of_c_dimension_that_is_not_c_takes_the_generic_path(monkeypatch):
    rng = np.random.default_rng(11)
    C = AlgebraShape((2,))
    F, _ = scramble_module(algebra_module(C), rng)  # C's dimension, another pairing
    E = wide_module(rng)
    pi = random_cp(B, F, rng)
    grams = recorded_rank_decisions(monkeypatch)
    tm = tensor_quotients([E], [F], [pi], DEFAULT_TOL)[0]
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
    gram = Split([np.eye(c.shape[1], dtype=complex)[None] for c in copies])
    [quot] = quotient_by_columns(C, gram, copies, DEFAULT_TOL)
    s, kernel = quot.s, quot.kernel
    assert s.shape == (4 * C.dim, 4 * C.dim) and kernel.shape == (4 * C.dim, 0)
    places = [np.flatnonzero(s[rows].any(axis=0)) for c in copies for rows in c]
    assert np.array_equal(places[0], np.arange(4))  # column 0 of s lies on block 0
    assert np.array_equal(np.concatenate(places), np.arange(4 * C.dim))


def block_places(s: np.ndarray, copies: list[np.ndarray]) -> list[tuple[int, int]]:
    """Per block t, (O_t, r_t): copy k's columns of s must be O_t + k r_t + alpha."""
    out, o = [], 0
    for c in copies:
        places = [np.flatnonzero(s[rows].any(axis=0)) for rows in c]
        r = len(places[0])
        assert all(np.array_equal(p, o + k * r + np.arange(r)) for k, p in enumerate(places))
        out.append((o, r))
        o += len(c) * r
    return out


@pytest.mark.parametrize(
    "blocks, keep",
    # compressed to the first coordinate of C's first block (M_2, M_3), the
    # structural null vectors of C (+) M_2, and pi zero on its block C
    [((2,), 1), ((3,), 1), ((3,), 2), ((1, 2), None), ((1, 2), 0)],
)
def test_closed_form_is_the_pre_module_compressed(blocks, keep):
    rng = np.random.default_rng(3 * sum(blocks) + (keep or 0))
    C, memo = AlgebraShape(blocks), BuildMemo()
    C_mod = algebra_module(C)
    E = [wide_module(rng)] * 2
    pi = left_mult_correspondence([embedding(C, rng, keep) for _ in range(2)], memo)
    quots = column_quotients(E, [C_mod] * 2, pi, DEFAULT_TOL)
    pre = tensor_premodule(E, [C_mod] * 2, pi)  # built here only
    copies = column_split(C, E[0].dim)
    for i, quot in enumerate(quots):
        M, s = quot.module, quot.s
        assert 0 < M.dim < pre.dim  # null vectors
        lam = 1.0 + np.linalg.eigvalsh(pre.gram_matrix[i])[-1]
        assert np.abs(M.action - s.conj().T @ pre.action[i] @ s).max() <= 1e-12 * lam
        for P, P_pre in zip(M.pairing, pre.pairing, strict=True):
            assert np.abs(P - transport_pairing(s, P_pre[i])).max() <= 1e-12 * lam
        # the action is 0/1 exactly, the pairing exactly diag(w_t) (x) e_kl
        assert np.all((M.action == 0) | (M.action == 1))
        places = block_places(s, copies)
        assert keep != 0 or places[0][1] == 0  # K_0 = 0 where pi vanishes
        diag = []
        for n, (o, r), P in zip(C.blocks, places, M.pairing):
            w = P[o + np.arange(r), o + np.arange(r), 0, 0]
            expected = np.zeros_like(P)
            for k in range(n):
                for l in range(n):
                    rows, cols = o + k * r + np.arange(r), o + l * r + np.arange(r)
                    expected[rows, cols, k, l] = w
            assert np.array_equal(P, expected)
            diag.append(np.tile(w.real, n))
        assert np.array_equal(M.gram_spectrum[0], np.sort(np.concatenate(diag)))
        assert np.array_equal(M.gram_matrix, np.diag(np.concatenate(diag)).astype(complex))
    for quot, ref in zip(quots, tensor_quotients_reference(E, [C_mod] * 2, pi), strict=True):
        assert_one_module_up_to_a_unitary(quot, ref)


def test_eigenvectors_that_leak_raise_naming_the_slice(monkeypatch):
    # slice 1's top eigenvector turned by 1e-6 towards a dropped one: the
    # basis stays a rank decision's, and the kernel leaks out under the action
    rng = np.random.default_rng(23)
    C, memo = AlgebraShape((2,)), BuildMemo()
    C_mod = algebra_module(C)
    E = [wide_module(rng)] * 2
    pi = left_mult_correspondence([embedding(C, rng, keep=1)] * 2, memo)
    real = numkernel.herm_eig

    def rotating(M, tol):
        w, V = real(M, tol)
        V = V.copy()
        V[1, :, -1] = np.cos(1e-6) * V[1, :, -1] + np.sin(1e-6) * V[1, :, 0]
        return w, V

    assert column_quotients(E, [C_mod] * 2, pi, DEFAULT_TOL)[0].module.dim < E[0].dim * C.dim
    monkeypatch.setattr(numkernel, "herm_eig", rotating)
    with pytest.raises(SubmoduleViolation, match=r"^action of basis element 0 leaks out of "
                       r"the null space in slice 1 \(residual 1\.0"):
        column_quotients(E, [C_mod] * 2, pi, DEFAULT_TOL)


@pytest.mark.parametrize("stack", [["second", "first"], ["second", "both", "first", "second"]],
                         ids=["equal_totals", "other_totals"])
def test_a_stack_whose_blocks_differ_in_rank_keeps_each_slices_bits(monkeypatch, stack):
    # C = M_2 (+) M_2, pi onto the second block, onto the first or onto both:
    # the first two agree in total rank and not in their blocks' ranks, and the
    # third differs in both.  One rank decision on copy 0's blocks decides the
    # whole stack, and each group of equal ranks is written in closed form,
    # every slice with the bits of its own build
    rng = np.random.default_rng(29)
    C, memo = AlgebraShape((2, 2)), BuildMemo()
    C_mod = algebra_module(C)
    E = wide_module(rng)
    W = haar_unitary(2, rng)
    half = np.stack([np.outer(W[:, p], W[:, p].conj()).reshape(-1) for p in range(B.dim)], 1)
    zero = np.zeros_like(half)
    onto = {"second": [zero, half], "first": [half, zero], "both": [half, half]}
    pi = left_mult_correspondence([StarMap(B, C, np.vstack(onto[x])) for x in stack], memo)
    n = len(stack)
    grams = recorded_rank_decisions(monkeypatch)
    tm = tensor_quotients([E] * n, [C_mod] * n, pi, DEFAULT_TOL)
    assert len(grams) == 1 and isinstance(grams[0], Split)
    ranks = np.array([k for k, _, _ in rank_kernel(grams[0], DEFAULT_TOL)]).T  # (slice, block)
    assert ranks[0].tolist() == ranks[stack.index("first")].tolist()[::-1]
    assert ranks[0, 0] == 0 < ranks[0, 1]
    dims = {name: quot.module.dim for name, quot in zip(stack, tm)}
    assert dims["second"] == dims["first"] < dims.get("both", np.inf)
    monkeypatch.undo()
    assert_built_alone(tm, [tensor_quotients([E], [C_mod], [p], DEFAULT_TOL)[0] for p in pi])


@pytest.mark.parametrize(
    "blocks, dim",
    [((2,), 4), ((2,), 5), ((2,), 8), ((1, 2), 4), ((3,), 2), ((2,), 1), ((2,), 3), ((1, 2), 1)],
)
def test_the_closed_form_builds_no_pre_module_and_no_quotient_eigh(monkeypatch, blocks, dim):
    # at every width dim E dim C, below 16 as above it: one eigh per block size of
    # C, on copy 0's Gram blocks, and no other; E of dim 2 is B over itself, so
    # its rows go first, on the pre-module
    rng = np.random.default_rng(dim + len(blocks))
    C, memo = AlgebraShape(blocks), BuildMemo()
    C_mod = algebra_module(C)
    E = canonical_module(B, (dim // 2, dim - dim // 2))
    pi = left_mult_correspondence([embedding(C, rng, keep=1)] * 3, memo)
    built = count_calls(monkeypatch, cp, "tensor_premodule")
    calls = lapack_calls(monkeypatch)
    tm = tensor_quotients([E] * 3, [C_mod] * 3, pi, DEFAULT_TOL)
    sizes = [c.width for c in calls if c.routine == "eigh"]
    # (an order-1 eigh takes no LAPACK call)
    if dim == B.dim:  # the rows of B over itself: no Gram wider than one copy, dim C
        assert built == ["tensor_premodule"] and max(sizes, default=1) == C.dim
    else:
        assert built == [] and sorted(sizes) == sorted({dim * n for n in C.blocks} - {1})
    monkeypatch.undo()
    assert_one_module_up_to_a_unitary(tm[2], tensor_quotients_reference([E], [C_mod], pi[2:])[0])


def test_the_closed_form_keeps_the_tensor_shape_checks():
    # a pi on another module of C's dimension, or over another algebra than
    # E's coefficients, is refused before any Gram block is read
    rng = np.random.default_rng(31)
    C = AlgebraShape((2,))
    C_mod = algebra_module(C)
    E = canonical_module(B, (2, 2))
    F, _ = scramble_module(C_mod, rng)
    with pytest.raises(ShapeMismatch, match=r"^representation does not act on F$"):
        tensor_quotients([E], [C_mod], [random_cp(B, F, rng)], DEFAULT_TOL)
    with pytest.raises(ShapeMismatch, match=r"^representation domain differs from E's "):
        tensor_quotients([E], [C_mod], [random_cp(C, C_mod, rng)], DEFAULT_TOL)


def test_a_degenerate_gram_eigenspace_below_width_16_gets_the_canonical_basis():
    # E = C^1 (+) C^2 over B with the identity Gram, along a unital embedding into
    # C = M_2: the Gram of E (x)_pi C is two projections per vector of E, so its
    # eigenvalue 1 has multiplicity 2 dim E on a pre-space 12 wide.  The closed form
    # lays it out as I_2 (x) V on the copies, not in the basis an eigh of the whole
    # Gram returns, and it is the generic path's quotient up to a unitary
    rng = np.random.default_rng(37)
    C, memo = AlgebraShape((2,)), BuildMemo()
    C_mod = algebra_module(C)
    E = canonical_module(B, (1, 2))
    pi = left_mult_correspondence([embedding(C, rng)], memo)
    tm = tensor_quotients([E], [C_mod], pi, DEFAULT_TOL)[0]
    w = tm.module.gram_spectrum[0]
    assert E.dim * C.dim == 12 and np.allclose(w, 1.0) and len(w) == 2 * E.dim
    copies = column_split(C, E.dim)
    (o, r), = block_places(tm.s, copies)
    blocks = [tm.s[np.ix_(rows, o + k * r + np.arange(r))] for k, rows in enumerate(copies[0])]
    assert np.array_equal(blocks[0], blocks[1])
    assert_one_module_up_to_a_unitary(tm, tensor_quotients_reference([E], [C_mod], pi)[0])
