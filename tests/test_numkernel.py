import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.linalg import LinAlgError

from ksgnslab import numkernel
from ksgnslab.errors import NonFinite, NonHermitian, NotPSD
from ksgnslab.numkernel import (
    BOUND_MIN_SLICES,
    DEFAULT_TOL,
    GRAM_RANGE,
    LIVE_MIN_DIM,
    Split,
    Tolerance,
    eigh,
    eigvalsh,
    exceeds_gate,
    herm_eig,
    herm_expi,
    kron,
    live_cuts,
    live_products,
    matvecs,
    max_operator_norm,
    max_operator_norms,
    null_space,
    operator_norm,
    operator_norms,
    psd_verdict,
    pseudo_inverse,
    rank_kernel,
    svd,
)

from conftest import random_complex


def test_tolerance_validation():
    Tolerance(rtol=0.0, ctol=1e-8)
    with pytest.raises(ValueError):
        Tolerance(rtol=1.0)
    with pytest.raises(ValueError):
        Tolerance(ctol=0.0)
    with pytest.raises(ValueError):
        Tolerance(rtol=-1e-3)


def same_bits(got, want) -> bool:
    """Equal dtypes, shapes and bytes, array by array, of two results of one routine."""
    got, want = (x if isinstance(x, tuple) else (x,) for x in (got, want))
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want)
    )


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3), (0,)])
@pytest.mark.parametrize("n", [0, 1, 2, 4, 16, 99])
def test_the_lapack_seam_keeps_numpys_bits(n, lead, dtype):
    # the Hermitian inputs carry an imaginary diagonal, which LAPACK reads past,
    # and order 1 a -0.0, which it keeps; transposed stacks are read in place
    rng = np.random.default_rng(n + 10 * len(lead))
    X = random_complex(rng, *lead, n, n)
    H = X + X.conj().swapaxes(-1, -2) + 0.5j * np.eye(n)
    if n == 1 and H.size:
        H.flat[0] = complex(-0.0, 1.0)
    if dtype is float:
        H = H.real.copy()
    for A in (H, H.swapaxes(-1, -2)):
        assert same_bits(eigh(A), np.linalg.eigh(A))
        assert same_bits(eigvalsh(A), np.linalg.eigvalsh(A))
    for m in (n, n + 3):
        Y = random_complex(rng, *lead, m, n)
        for A in (Y, Y.swapaxes(-1, -2)):
            A = A if dtype is complex else A.real
            for kwargs in ({}, {"full_matrices": False}, {"compute_uv": False}):
                assert same_bits(svd(A, **kwargs), np.linalg.svd(A, **kwargs))


def test_the_lapack_seam_raises_where_lapack_does_not_converge():
    # LAPACK's SVD fails on a NaN entry; the error state is restored after
    X = np.eye(3, dtype=complex)
    X[0, 0] = np.nan
    state = np.geterr()
    for A in (X, np.stack([np.eye(3), X]), X.real):
        for kwargs in ({}, {"full_matrices": False}, {"compute_uv": False}):
            with pytest.raises(LinAlgError, match="did not converge"):
                np.linalg.svd(A, **kwargs)
            with pytest.raises(LinAlgError, match="did not converge"):
                svd(A, **kwargs)
    assert np.geterr() == state


def test_herm_eig_identity():
    w, V = herm_eig(np.eye(3, dtype=complex), DEFAULT_TOL)
    assert np.allclose(w, [1.0, 1.0, 1.0])
    assert np.allclose(V.conj().T @ V, np.eye(3))


def test_herm_eig_diagonal():
    w, _ = herm_eig(np.diag([2.0, 0.0]).astype(complex), DEFAULT_TOL)
    assert np.allclose(w, [0.0, 2.0])


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), DEFAULT_TOL)
    with pytest.raises(NonHermitian):
        herm_eig(np.zeros((2, 3)), DEFAULT_TOL)


def test_non_finite_rejected():
    with pytest.raises(NonFinite):
        operator_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NonFinite):
        herm_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]), DEFAULT_TOL)
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFinite):  # through the exact path, not the Frobenius one
        exceeds_gate(bad, np.eye(2), DEFAULT_TOL)
    with pytest.raises(NonFinite):  # also when X is empty
        exceeds_gate(np.zeros((2, 0)), bad, DEFAULT_TOL)


@pytest.mark.parametrize("factor", [0.999, 1.001])
def test_herm_eig_defect_gate_edges(factor):
    # M = diag(1, 2) + t E_01 has Hermitian defect ||M - M*|| = t and
    # ||M - M*||_F = t sqrt(2) > ctol, so the exact path decides
    tol = DEFAULT_TOL
    N = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    M = np.diag([1.0, 2.0]).astype(complex) + factor * tol.ctol * 3.0 * N
    gate = tol.ctol * (1.0 + operator_norm(M))
    defect = operator_norm(M - M.conj().T)
    assert defect * np.sqrt(2.0) > tol.ctol
    if defect <= gate:
        assert factor < 1.0
        w, _ = herm_eig(M, tol)
        assert np.allclose(w, [1.0, 2.0])
    else:
        assert factor > 1.0
        with pytest.raises(NonHermitian, match=f"Hermitian defect {defect:.3e} exceeds tolerance"):
            herm_eig(M, tol)


def exact_psd_verdict(M, tol):
    """psd_verdict's rule with both operator norms taken exactly."""
    w0 = float(np.linalg.eigvalsh((M + M.conj().T) / 2.0)[0]) if M.size else 0.0
    gate = tol.ctol * (1.0 + operator_norm(M))
    return bool(operator_norm(M - M.conj().T) <= gate and w0 >= -gate), w0


@pytest.mark.parametrize(
    "M",
    [
        np.zeros((0, 0)),
        np.diag([1.0, -0.5e-8]),  # w0 within ctol: no norm of M needed
        np.diag([1e3, -2e-8]),  # w0 below -ctol, within ctol * (1 + ||M||)
        np.diag([1.0, -3e-8]),  # w0 below the gate
        np.diag([1.0, 2.0]) + 5e-9 * np.array([[0.0, 1.0], [0.0, 0.0]]),  # defect within
        np.diag([1.0, 2.0]) + 4e-8 * np.array([[0.0, 1.0], [0.0, 0.0]]),  # defect over
    ],
)
def test_psd_verdict_matches_exact_gate(M):
    M = M.astype(complex)
    assert psd_verdict(M, DEFAULT_TOL) == exact_psd_verdict(M, DEFAULT_TOL)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8))
def test_herm_eig_reconstructs(seed, n):
    rng = np.random.default_rng(seed)
    M = random_complex(rng, n, n)
    H = M + M.conj().T
    w, V = herm_eig(H, DEFAULT_TOL)
    assert np.all(np.diff(w) >= 0)
    resid = operator_norm(H @ V - V @ np.diag(w))
    assert resid <= 1e-10 * (1.0 + operator_norm(H))
    assert operator_norm(V.conj().T @ V - np.eye(n)) <= 1e-10
    recon = operator_norm((V * w) @ V.conj().T - H)
    assert recon <= 1e-10 * (1.0 + operator_norm(H))


def test_rank_kernel_zero_matrix():
    ((rank,), _, (V,)), = rank_kernel(np.zeros((1, 3, 3), dtype=complex), DEFAULT_TOL)
    assert rank == 0
    ker = V[:, : 3 - rank]
    assert ker.shape == (3, 3)
    assert np.allclose(ker.conj().T @ ker, np.eye(3))


def test_rank_kernel_diag():
    ((rank,), _, (V,)), = rank_kernel(np.diag([1.0, 1.0, 0.0]).astype(complex)[None], DEFAULT_TOL)
    assert rank == 2
    rng_basis, ker = V[:, 3 - rank :], V[:, : 3 - rank]
    assert rng_basis.shape == (3, 2)
    # orthonormal range, range orthogonal to kernel
    assert np.allclose(rng_basis.conj().T @ rng_basis, np.eye(2), atol=1e-12)
    assert np.max(np.abs(rng_basis.conj().T @ ker)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 7))
def test_rank_kernel_rank_one(seed, n):
    rng = np.random.default_rng(seed)
    x = random_complex(rng, n)
    G = np.outer(x, x.conj())
    ((rank,), _, _), = rank_kernel(G[None], DEFAULT_TOL)
    assert rank == (1 if np.linalg.norm(x) > 0 else 0)


def test_rank_kernel_rejects_negative():
    with pytest.raises(NotPSD):
        rank_kernel(np.diag([1.0, -1.0]).astype(complex)[None], DEFAULT_TOL)


def test_split_rank_decisions_read_the_extremes_over_all_blocks():
    # C + C, one copy of each 1 x 1 block: lambda_max sits in the first block,
    # so the second block's 1e-12 falls below the cutoff, and its -1e-3 fails
    # the PSD gate, though each block alone is sorted and of full rank
    def blocks(second):
        return Split([np.ones((1, 1, 1), complex), np.full((1, 1, 1), second, complex)])

    (r0, w0, V0), (r1, _, _) = rank_kernel(blocks(1e-12), DEFAULT_TOL)
    assert r0.tolist() == [1] and r1.tolist() == [0] and np.allclose(np.abs(V0), 1.0)
    with pytest.raises(NotPSD):
        rank_kernel(blocks(-1e-3), DEFAULT_TOL)


def test_split_rank_decisions_keep_their_hermitian_and_psd_gates_by_name():
    # two block sizes, two slices: the defect or the negative eigenvalue sits in
    # slice 1 of the wider block, and the gates name it as on a whole Gram
    eye2, eye3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
    skew = eye3.copy()
    skew[0, 1] = 1e-3  # not Hermitian: M - M* has norm 1e-3
    with pytest.raises(NonHermitian, match=r"^Hermitian defect 1\.000e-03 exceeds tolerance$"):
        rank_kernel(Split([np.stack([eye2, eye2]), np.stack([eye3, skew])]), DEFAULT_TOL)
    negative = np.diag([1.0, -0.5, 1.0]).astype(complex)
    with pytest.raises(NotPSD, match=r"^minimum eigenvalue -5\.000e-01 below PSD gate in slice 1$"):
        rank_kernel(Split([np.stack([eye2, eye2]), np.stack([eye3, negative])]), DEFAULT_TOL)
    with pytest.raises(NotPSD, match=r"^minimum eigenvalue -5\.000e-01 below PSD gate$"):
        rank_kernel(Split([eye2[None], negative[None]]), DEFAULT_TOL)


def gram_norm_reference(X: np.ndarray) -> float:
    """The norm contract for one (m, n) matrix, written out: sqrt of the largest
    eigenvalue of its smaller Gram, X* X when m >= n, else X X*, unless that
    eigenvalue is not strictly inside GRAM_RANGE, then LAPACK's sigma_1 (as
    numpy.linalg.norm(X, 2) takes it); 0 for an empty matrix."""
    m, n = X.shape
    if not X.size:
        return 0.0
    G = X.conj().T @ X if m >= n else X @ X.conj().T
    lam = np.linalg.eigvalsh(G)[-1]
    return np.sqrt(lam) if GRAM_RANGE[0] < lam < GRAM_RANGE[1] else np.linalg.norm(X, 2)


def gram_norms_reference(stack: np.ndarray) -> np.ndarray:
    """gram_norm_reference of each matrix of a stack (..., m, n), one at a time."""
    flat = stack.reshape(math.prod(stack.shape[:-2]), *stack.shape[-2:])
    return np.array([gram_norm_reference(X) for X in flat], dtype=float).reshape(stack.shape[:-2])


def test_operator_norm_examples():
    assert operator_norm(np.eye(4)) == pytest.approx(1.0)
    assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    assert operator_norm(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize(
    "shape", [(4, 4), (3, 5), (2, 3, 4), (2, 2, 1, 5), (0, 0), (0, 3), (3, 0), (0, 3, 3), (2, 0, 3)]
)
def test_operator_norms_equal_numpy_norm_bitwise(shape, rng):
    # the bits of the Gram contract, one matrix at a time; numpy's 2-norm to rounding
    stack = random_complex(rng, *shape)
    expected = gram_norms_reference(stack)
    assert operator_norms(stack).tobytes() == expected.tobytes()
    assert operator_norms(stack).shape == expected.shape
    assert np.allclose(expected, np.linalg.norm(stack, 2, axis=(-2, -1)), rtol=1e-14, atol=0.0)
    if stack.ndim == 2:
        assert operator_norm(stack) == gram_norm_reference(stack)


def test_max_operator_norm_over_stacks(rng):
    assert max_operator_norm(np.zeros((0, 3, 3))) == 0.0
    assert max_operator_norm(np.zeros((4, 0, 0))) == 0.0
    stack = random_complex(rng, 2, 5, 4, 3)
    assert max_operator_norm(stack) == max(operator_norm(M) for M in stack.reshape(10, 4, 3))
    stack[1, 2, 0, 0] = np.nan
    with pytest.raises(NonFinite):
        max_operator_norm(stack)


def test_max_operator_norms_per_stack(rng):
    stacks = [
        random_complex(rng, 3, 4, 3),
        random_complex(rng, 4, 3),
        np.zeros((0, 4, 3)),
        random_complex(rng, 2, 2, 2, 2),
        random_complex(rng, 5, 2, 2),
    ]
    # stacks of one shape share an SVD; each keeps the bits of its own maximum
    assert np.array_equal(max_operator_norms(*stacks), [max_operator_norm(S) for S in stacks])
    assert max_operator_norms().shape == (0,)
    stacks[3][0, 1, 0, 0] = np.inf
    with pytest.raises(NonFinite):
        max_operator_norms(*stacks)


def test_max_operator_norms_per_leading_slice(rng):
    # each slice of a stack passed as a stack of its own: one maximum per
    # slice, each with the bits of max_operator_norm on that slice alone
    stacks = [
        random_complex(rng, 4, 3, 2, 2),
        random_complex(rng, 4, 2, 3),
        random_complex(rng, 4, 2, 2),
        np.zeros((4, 2, 0, 3)),
    ]
    got = max_operator_norms(*(S[s] for S in stacks for s in range(4)))
    assert got.shape == (16,)
    want = [max_operator_norm(S[s]) for S in stacks for s in range(4)]
    assert np.array_equal(got, want)


def block_sparse_stack(rng, d: int) -> np.ndarray:
    """An (8, d, d) stack whose slices need every kind of cut: live blocks of
    two shapes at scattered rows and columns, two slices of each, a slice
    with one live row, an all-zero slice, one with a zero column only, and a
    dense one."""
    X = np.zeros((8, d, d), dtype=complex)
    rows, cols = rng.permutation(d)[: d // 3], rng.permutation(d)[: d // 3]
    for k in (0, 6):
        X[k][np.ix_(rows, cols)] = random_complex(rng, d // 3, d // 3)
    X[1][np.ix_(rows[:5], cols[:7])] = random_complex(rng, 5, 7)
    X[7][np.ix_(rows[-5:], cols[-7:])] = random_complex(rng, 5, 7)
    X[2, rows[0]] = random_complex(rng, d)
    X[4] = random_complex(rng, d, d)
    X[4, :, cols[0]] = 0.0
    X[5] = random_complex(rng, d, d)
    return X


def test_live_cuts_group_the_slices_by_live_shape(rng):
    d = LIVE_MIN_DIM
    X = block_sparse_stack(rng, d)
    shapes = {(tuple(idx), r.shape[1], c.shape[1]) for idx, r, c in live_cuts(X)}
    third = d // 3
    # the all-zero slice 3 is in no cut
    assert shapes == {((0, 6), third, third), ((1, 7), 5, 7), ((2,), 1, d), ((4,), d, d - 1),
                      ((5,), d, d)}
    assert live_cuts(np.zeros((0, d, d))) is None
    assert live_cuts(X[:, :8, :8]) is None  # narrower than LIVE_MIN_DIM
    assert live_cuts(X[5:6]) is None  # no zero row or column


def test_live_products_and_norms_equal_the_dense_values(rng, monkeypatch):
    # every cut shape in one stack, an all-zero slice and a one-row slice:
    # the products and norms equal the dense ones to rounding, and each Gram
    # eigensolve sees the smaller Gram of the live blocks only
    d = LIVE_MIN_DIM + 3
    X = block_sparse_stack(rng, d).reshape(2, 4, d, d)
    L, R1, R2 = random_complex(rng, 2, 1, 4, d), random_complex(rng, d, 5), random_complex(rng, d, 0)
    scale = np.abs(X).max() * d * d
    for got, want in zip(live_products(L, X, R1, R2), (L @ X @ R1, L @ X @ R2), strict=True):
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= 1e-14 * scale
    [LX] = live_products(L[0, 0], X)
    assert np.abs(LX - L[0, 0] @ X).max() <= 1e-14 * scale
    grams, real = [], numkernel.eigvalsh
    monkeypatch.setattr(numkernel, "eigvalsh", lambda a: grams.append(a.shape) or real(a))
    norms = operator_norms(X)
    monkeypatch.undo()
    assert norms.shape == (2, 4)
    assert np.allclose(norms, np.linalg.norm(X, 2, axis=(-2, -1)), rtol=1e-14, atol=0.0)
    assert norms[0, 3] == 0.0  # the all-zero slice takes no eigensolve
    # live blocks (2, d/3, d/3), (2, 5, 7), (1, 1, d), (1, d, d - 1) and (1, d, d)
    assert sorted(grams) == sorted([(2, d // 3, d // 3), (2, 5, 5), (1, 1, 1), (1, d - 1, d - 1),
                                    (1, d, d)])
    for empty in (np.zeros((0, d, d)), np.zeros((3, d, 0))):
        assert operator_norms(empty).shape == empty.shape[:-2]
        assert live_products(L[0, 0], empty, R1[: empty.shape[-1]])[0].shape == (
            len(empty), 4, 5)


@pytest.mark.parametrize("d", [LIVE_MIN_DIM - 1, LIVE_MIN_DIM])
def test_live_cut_keeps_the_dense_bits_below_its_width_and_on_dense_slices(rng, d):
    # narrower than LIVE_MIN_DIM every slice keeps the dense expression; from
    # it, so does a stack with no zero row or column, and in a mixed stack
    # each dense slice keeps its bits
    X = block_sparse_stack(rng, d)
    L, R = random_complex(rng, 4, d), random_complex(rng, d, 3)
    got, want = live_products(L, X, R)[0], L @ X @ R
    norms, dense_norms = operator_norms(X), gram_norms_reference(X)
    if d < LIVE_MIN_DIM:
        assert got.tobytes() == want.tobytes()
        assert norms.tobytes() == dense_norms.tobytes()
    assert got[5].tobytes() == want[5].tobytes()
    assert norms[5] == dense_norms[5]
    dense = X[4:6] + (X[4:6] == 0)  # no zero entry left
    assert live_products(L, dense, R)[0].tobytes() == (L @ dense @ R).tobytes()
    assert live_products(L, dense)[0].tobytes() == (L @ dense).tobytes()
    assert operator_norms(dense).tobytes() == gram_norms_reference(dense).tobytes()


def slice_of(kind, rng, prev, m, n):
    """One (m, n) slice of a certified-maximum stack: random of norm below 1.2;
    rank one, where sigma_1^2 = tr G and every Gram-power bound is tight; rank
    one of norm 1 to within rounding; zero; a copy of the previous slice (an
    exact tie) or the previous slice times 1 + 2^-40 (a near tie, well inside
    CERTIFY_MARGIN); flat, 0.9 times a partial isometry, whose Frobenius norm
    tops every unit-norm slice's; unitary, a partial isometry, all singular
    values 1; or tiny, a random slice 1e-200 times smaller, whose Gram underflows
    at every scale of the stack."""
    if kind in ("random", "tiny"):
        X = random_complex(rng, m, n)
        return X * rng.uniform(0.5, 1.2) / np.linalg.norm(X) * (1e-200 if kind == "tiny" else 1.0)
    if kind in ("rank_one", "unit_rank_one"):
        u, v = random_complex(rng, m), random_complex(rng, n)
        X = np.outer(u / np.linalg.norm(u), v.conj() / np.linalg.norm(v))
        return X if kind == "unit_rank_one" else X * rng.uniform(0.1, 1.1)
    if kind in ("flat", "unitary"):
        Q = np.linalg.qr(random_complex(rng, max(m, n), max(m, n)))[0]
        return Q[:m, :n] * (0.9 if kind == "flat" else 1.0)
    if kind == "zero" or prev is None:
        return np.zeros((m, n), dtype=complex)
    return prev * (1.0 + 2.0**-40) if kind == "near_tie" else prev


SLICE_KINDS = ("random", "rank_one", "unit_rank_one", "zero", "tie", "near_tie", "flat",
               "unitary", "tiny")
CERTIFIED_SCALES = (1e-150, 1e-80, 1e-3, 1.0, 1e5, 1e80, 1e150)


@st.composite
def certified_stacks(draw):
    """One to four stacks of 2 to 60 slices, each (m, n) with m and n from 1 to
    LIVE_MIN_DIM - 1 (mostly narrow, m = n or not; a stack may take an earlier
    one's shape, so that they share a batch), mixed from the slice kinds and
    scaled by one of 1e-150, where the Gram underflows, through 1e-80 and 1e80,
    where its fourth power would leave the range unnormalised, to 1e150, where
    it overflows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = st.one_of(st.integers(1, 6), st.integers(7, LIVE_MIN_DIM - 1))
    stacks = []
    for _ in range(draw(st.integers(1, 4))):
        if stacks and draw(st.booleans()):
            m, n = stacks[draw(st.integers(0, len(stacks) - 1))].shape[1:]
        else:
            m, n = draw(width), draw(width)
        count = draw(st.integers(2, 60))
        mix = draw(st.sampled_from([np.ones(len(SLICE_KINDS)), (1, 0, 4, 1, 2, 4, 1, 1, 1),
                                    (4, 1, 0, 1, 1, 1, 1, 0, 2)]))
        kinds = rng.choice(SLICE_KINDS, size=count, p=np.array(mix) / sum(mix))
        slices = []
        for kind in kinds:
            slices.append(slice_of(kind, rng, slices[-1] if slices else None, m, n))
        stacks.append(np.stack(slices) * draw(st.sampled_from(CERTIFIED_SCALES)))
    return stacks


@settings(max_examples=150, deadline=None)
@given(certified_stacks())
def test_certified_maxima_keep_the_bits_of_the_full_maximum(stacks):
    # pyproject turns RuntimeWarnings into errors, so a Gram power that leaves
    # the range fails here as well
    want = np.array([operator_norms(S).max() for S in stacks])
    assert max_operator_norms(*stacks).tobytes() == want.tobytes()
    assert [max_operator_norm(S) for S in stacks] == want.tolist()


def test_certified_maxima_skip_slices_and_keep_the_gates(rng, monkeypatch):
    # small random slices fall to the trace, a flat slice (the largest trace) to
    # its Gram powers, under the rank-one slice's lower bound: one eigensolve, of
    # the rank-one slice alone; zero and empty stacks take none, and a slice too
    # small to normalise takes the exact path
    stack = 0.1 * random_complex(rng, 2 * BOUND_MIN_SLICES, 3, 3)
    stack[5] = 0.9 * np.linalg.qr(random_complex(rng, 3, 3))[0]
    stack[33] = np.outer(np.ones(3), np.ones(3)) / 3.0
    want, sizes = gram_norm_reference(stack[33]), []
    real = numkernel.eigvalsh
    monkeypatch.setattr(numkernel, "eigvalsh", lambda a: sizes.append(len(a)) or real(a))
    assert max_operator_norms(stack, np.zeros((0, 3, 3))).tolist() == [want, 0.0]
    assert sizes == [1]
    sizes.clear()
    assert max_operator_norms(np.zeros((0, 3, 3)), np.zeros((40, 2, 2))).tolist() == [0.0, 0.0]
    assert sizes == []
    stack[7] = 1e-200 * stack[33]
    assert max_operator_norm(stack) == want
    assert sizes == [2]
    for bad in (np.nan, np.inf):
        stack[38, 1, 2] = bad
        with pytest.raises(NonFinite):
            max_operator_norms(stack)


NORM_SCALES = (1e-160, 1e-3, 1.0, 1e5, 1e150)


@st.composite
def norm_stacks(draw):
    """A stack (N, m, n) with m < n, m = n, m > n, 0 x n or n x 0, N from one
    to past the certification cut, slices of the certified-maximum kinds at
    one scale: 1e-160, where the Gram underflows, up to 1e150, where
    lambda_max passes GRAM_RANGE."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.sampled_from([(1, 4), (2, 5), (1, 1), (3, 3), (4, 1), (5, 2), (0, 3), (3, 0)]))
    count = draw(st.integers(1, BOUND_MIN_SLICES + 8))
    if not m * n:
        return np.zeros((count, m, n), dtype=complex)
    slices = []
    for kind in rng.choice(SLICE_KINDS, size=count):
        slices.append(slice_of(kind, rng, slices[-1] if slices else None, m, n))
    return np.stack(slices) * draw(st.sampled_from(NORM_SCALES))


@settings(max_examples=200, deadline=None)
@given(norm_stacks(), st.data())
def test_operator_norms_keep_the_gram_contract(S, data):
    """operator_norms' contract on every slice of a stack S (N, m, n), k = min(m, n)
    and p = max(m, n), u = eps / 2 the unit roundoff:

    (a) |sigma - ||X||_2| <= 4 m n eps ||X||_2 against numpy.linalg.norm(X, 2).
    The smaller Gram is formed with |G^ - G| <= sqrt(2) gamma_{p+2} |X|* |X|
    entrywise (complex inner products of length p, Higham 2002, sec. 3.6), so
    ||G^ - G||_2 <= ||X||_F^2 sqrt(2) gamma_{p+2} <= sqrt(2) k (p + 2) u sigma_1^2
    / (1 - (p + 2) u); eigvalsh returns the exact lambda_max of G^ + F with
    ||F||_2 <= c_k u ||G^||_2, so by Weyl's inequality |lambda^ - sigma_1^2| <=
    (sqrt(2) k (p + 2) + c_k) u sigma_1^2 to first order.  The square root
    halves that relative error and adds u; LAPACK's SVD puts the reference
    within c'_k u sigma_1.  With k (p + 2) <= 3 k p = 3 m n and c_k, c'_k <= k
    <= m n, the gap is at most (2.2 + 0.5 + 1 + 1) m n u < 4 m n eps, first order.
    Out of GRAM_RANGE (the 1e-160 and 1e150 slices) the SVD's sigma_1 is the
    reference itself.
    (b) The bits of the contract one matrix at a time (gram_norm_reference),
    batched, per slice through operator_norm, on a wide zero-padded copy that
    live_cuts takes back to each slice, and as the stack's certified maximum.
    (c) A NaN or Inf anywhere raises NonFinite, batched, per slice, padded and
    through max_operator_norms.
    """
    N, m, n = S.shape
    norms, ref = operator_norms(S), np.linalg.norm(S, 2, axis=(-2, -1))
    assert np.all(np.abs(norms - ref) <= 4 * m * n * np.finfo(float).eps * ref)
    assert norms.tobytes() == gram_norms_reference(S).tobytes()
    assert norms.tobytes() == np.array([operator_norm(X) for X in S], dtype=float).tobytes()
    padded = np.zeros((N, LIVE_MIN_DIM, LIVE_MIN_DIM), dtype=complex)
    rows = np.sort(np.random.default_rng(N).permutation(LIVE_MIN_DIM)[:m])
    cols = np.sort(np.random.default_rng(m + n).permutation(LIVE_MIN_DIM)[:n])
    padded[:, rows[:, None], cols] = S  # its live block is the slice, in order
    assert operator_norms(padded).tobytes() == norms.tobytes()
    assert max_operator_norms(S, padded).tobytes() == np.repeat(norms.max(), 2).tobytes()
    if not S.size:
        return
    where = tuple(data.draw(st.integers(0, size - 1)) for size in S.shape)
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan)]))
    for X in (S, padded):
        X[where if X is S else (where[0], rows[where[1]], cols[where[2]])] = bad
        for norm in (operator_norms, max_operator_norms, lambda X: operator_norm(X[where[0]])):
            with pytest.raises(NonFinite):
                norm(X)


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [
        ((3,), (4,)),
        ((2, 3), (4, 5)),
        ((3, 1), (4, 4)),
        ((3, 3), (5, 2, 2)),
        ((4, 3, 3), (2, 2)),
        ((2, 2), (3, 4, 4)),
        ((0, 3), (2, 2)),
        ((3, 0), (2,)),
    ],
)
def test_kron_matches_numpy_bytes(a_shape, b_shape, rng):
    # complex by complex, and by the real identity the call sites pass
    a, b = random_complex(rng, *a_shape), random_complex(rng, *b_shape)
    for x, y in ((a, b), (a, b.real), (a.real, b), (np.eye(3), b)):
        got, want = kron(x, y), np.kron(x, y)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()


def test_matvecs_rows_match_single_products(rng):
    M, X = random_complex(rng, 5, 4), random_complex(rng, 3, 2, 4)
    stack = random_complex(rng, 2, 5, 4)
    got, stacked = matvecs(M, X), matvecs(stack, X)
    assert got.shape == (3, 2, 5) and stacked.shape == (3, 2, 5)
    for i, j in np.ndindex(3, 2):
        assert np.array_equal(got[i, j], M @ X[i, j])
        assert np.array_equal(stacked[i, j], stack[j] @ X[i, j])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_operator_norm_eigen_oracle(seed):
    rng = np.random.default_rng(seed)
    M = random_complex(rng, 5, 5)
    lam = np.linalg.eigvalsh(M.conj().T @ M)[-1]
    assert abs(operator_norm(M) ** 2 - lam) <= 1e-10 * (1.0 + operator_norm(M) ** 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_operator_norm_submultiplicative(seed):
    rng = np.random.default_rng(seed)
    A = random_complex(rng, 4, 4)
    B = random_complex(rng, 4, 4)
    assert operator_norm(A @ B) <= operator_norm(A) * operator_norm(B) + 1e-8


def test_pseudo_inverse_examples():
    assert np.allclose(pseudo_inverse(np.eye(3, dtype=complex), DEFAULT_TOL), np.eye(3))
    assert np.allclose(
        pseudo_inverse(np.diag([2.0, 0.0]).astype(complex), DEFAULT_TOL), np.diag([0.5, 0.0])
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_pseudo_inverse_full_rank(seed):
    rng = np.random.default_rng(seed)
    M = random_complex(rng, 4, 4) + 2.0 * np.eye(4)
    cond = np.linalg.cond(M)
    inv = pseudo_inverse(M, DEFAULT_TOL)
    assert operator_norm(inv - np.linalg.inv(M)) <= 1e-9 * cond


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_pseudo_inverse_moore_penrose(seed):
    rng = np.random.default_rng(seed)
    M = random_complex(rng, 4, 6)
    P = pseudo_inverse(M, DEFAULT_TOL)
    scale = 1.0 + operator_norm(M)
    assert operator_norm(M @ P @ M - M) <= 1e-8 * scale
    assert operator_norm(P @ M @ P - P) <= 1e-8 * scale


@pytest.mark.parametrize("shape, rank", [((5, 3), 3), ((3, 5), 2), ((6, 6), 4), ((4, 1), 1)])
def test_pseudo_inverse_keeps_the_bits_of_pinv_with_a_given_svd(shape, rank):
    # np.linalg.pinv's steps: the thin SVD of conj(M), then the rtol * sigma_max
    # cutoff; an SVD taken once and handed over gives the same bits
    rng = np.random.default_rng(sum(shape) + rank)
    M = random_complex(rng, shape[0], rank) @ random_complex(rng, rank, shape[1])
    expected = np.linalg.pinv(M, rcond=DEFAULT_TOL.rtol)
    assert np.array_equal(pseudo_inverse(M, DEFAULT_TOL), expected)
    svd = np.linalg.svd(M.conj(), full_matrices=False)
    assert np.array_equal(pseudo_inverse(M, DEFAULT_TOL, svd), expected)
    assert np.array_equal(pseudo_inverse(M, DEFAULT_TOL, svd), expected)  # svd left as it was


def test_herm_expi_unitary():
    rng = np.random.default_rng(1)
    M = random_complex(rng, 4, 4)
    H = M + M.conj().T
    U = herm_expi(H, DEFAULT_TOL)
    assert operator_norm(U.conj().T @ U - np.eye(4)) <= 1e-12 * (1 + operator_norm(H))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_null_space_rejects_non_finite(bad, rng):
    K = random_complex(rng, 6, 3)
    K[4, 1] = bad
    with pytest.raises(NonFinite):
        null_space(K, 1.0, DEFAULT_TOL)


def kernel_projector(N):
    """Orthogonal projector onto the span of the rows of N."""
    return N.T @ N.conj()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(1, 3),
    st.booleans(),
    st.data(),
)
def test_null_space_finds_a_planted_kernel(seed, m, n, exponent, via_scale, data):
    # K = U diag(s) V* with sigma_max = 1; rank r singular values at or above
    # 10x the cutoff, j more at a tenth of it, the rest exactly zero.  The
    # cutoff rtol * max(sigma_max, scale) is set through scale or through rtol.
    # Rounding moves either kernel by about eps / cutoff, so the cutoff stays
    # at 1e-3 or above for the 1e-12 comparison to hold
    rng = np.random.default_rng(seed)
    p = min(m, n)
    r = data.draw(st.integers(1, p))
    j = data.draw(st.integers(0, p - r))
    cutoff = 10.0**-exponent
    tol, scale = (Tolerance(), cutoff / 1e-10) if via_scale else (Tolerance(rtol=cutoff), 0.5)
    kept = np.concatenate([[1.0], 10.0 ** rng.uniform(np.log10(10.0 * cutoff), 0.0, r - 1)])
    kept[1:2] = 10.0 * cutoff  # the smallest kept value sits at 10x the cutoff
    s = np.concatenate([kept, np.full(j, cutoff / 10.0), np.zeros(p - r - j)])
    U = np.linalg.qr(random_complex(rng, m, m))[0][:, :p]
    V = np.linalg.qr(random_complex(rng, n, n))[0][:, :p]
    K = (U * s) @ V.conj().T
    N = null_space(K, scale, tol)
    assert N.shape == (n - r, n)
    assert operator_norm(N.conj() @ N.T - np.eye(n - r)) <= 1e-12
    _, svals, Vh = np.linalg.svd(K)  # the oracle: the full SVD of K itself
    keep = svals > tol.rtol * max(float(svals[0]), scale)
    oracle = Vh[np.concatenate([~keep, np.ones(n - p, bool)])].conj()
    assert operator_norm(kernel_projector(N) - kernel_projector(oracle)) <= 1e-12
