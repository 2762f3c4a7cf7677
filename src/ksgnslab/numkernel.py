"""Dense complex matrix kernel.

Everything downstream reduces to a few primitives on complex double matrices:
Hermitian eigendecomposition, tolerance-based rank/kernel splitting, operator
norms (one matrix or the largest over a stack), the PSD verdict, null spaces
of constraint systems, and pseudo-inverses.  Rank decisions for positive
semidefinite matrices always go through the Hermitian eigendecomposition, never
through LU, so that null spaces of Gram matrices stay numerically stable.
lapack, the package's one LAPACK call, runs numpy.linalg's gufuncs as np.linalg
does, so eigh, eigvalsh and svd keep its bits without its 5-9 us of Python a call
(more than LAPACK's work at orders 1 to 4); an order-1 eigensolve takes no call.

null_space takes the SVD of the R factor of K = QR, never of a tall K itself
(T. F. Chan, ACM TOMS 8, 1982): R has K's singular values and right singular
vectors, so the cutoff rule rtol * max(sigma_max, scale) is unchanged, and
K's m x m left factor is never formed.  Through `scale`, a system of pure
rounding noise (coefficients ~eps from operators of norm ~scale) reads as the
zero system.

Operator norms are sigma_1 = sqrt(lambda_max) of each matrix's smaller Gram,
X* X when m >= n, else X X* (||X||_2^2 = lambda_max(X* X), Higham, Accuracy
and Stability of Numerical Algorithms, 2002, sec. 6.2), from one batched
eigvalsh per stack.  The Gram's rounding is at most sqrt(2) gamma_{p+2}
|X|* |X| entrywise (p = max(m, n)), so by Weyl's inequality, with the
eigensolvers' backward errors, the norm is within 4 m n eps sigma_1 of
numpy.linalg.norm(., 2) to first order.  Squaring loses range near underflow
and overflow: a slice whose lambda_max is not strictly inside GRAM_RANGE
takes the first singular value of LAPACK's SVD (svd_norms) instead, and NaN
or Inf raises NonFinite.  A matrix gets the same bits batched or alone, on
its live block, and as a certified maximum.  svd_norm keeps the SVD's bits
for the three generation scales whose payloads hold them.

max_operator_norms is the one per-shape norm batcher, and max_operator_norm
is it on one stack: callers hand it gaps of several shapes as they are (each
slice's residuals, each pair's pullback and alpha gaps), and the same-shape
ones form one batch with certified maxima.  Let G be a slice's smaller Gram,
k its order and G^ = G / tr G, PSD with eigenvalues mu_i summing to 1, so that
sigma_1^2 = tr G mu_max.  Then tr G / k <= sigma_1^2 <= tr G and

    tr G (||G^^4||_F / ||G^^2||_F)^(1/2) <= sigma_1^2 <= tr G ||G^^4||_F^(1/4),

(G^^p the p-th power of G^), the upper bounds since ||G^^p||_F >= mu_max^p,
the lower one since ||G^^(p+1)||_F <= mu_max ||G^^p||_F for PSD G^ (Horn and
Johnson, Matrix Analysis, 2013, ch. 5).  A slice whose upper bound, times
1 + CERTIFY_MARGIN, is below the largest lower bound in its stack cannot hold
the maximum and reads 0: the trace rung runs on every slice, the power rung on
the slices it leaves, and the rest take exact norms in one gram_norms call, so
a computed maximum keeps its bits with one eigensolve per batch.  Normalising
by the trace keeps every entry of the powers at modulus at most 1 at any
scale; a slice whose trace is not finite or not strictly inside GRAM_RANGE
takes the exact path, and a zero slice reads 0 with no LAPACK call.  The
rounding stays far below CERTIFY_MARGIN = 1e-6: a product of two of these
matrices is off by at most gamma_k (about k u) times |A| |B| entrywise,
||G^||_F^2 <= mu_max and ||G^^p||_F >= mu_max^p, so ||G^^2||_F and ||G^^4||_F
carry relative errors of at most k gamma_k and about 3 k^(3/2) gamma_k, below
2e-11 at k < LIVE_MIN_DIM; the Gram's own rounding moves mu_max by at most
sqrt(2) k gamma_{max(m, n) + 2}, and the exact path is within 4 m n eps, both
below 1e-11 there.  A batch shorter than BOUND_MIN_SLICES (20 against 2, 8, 32:
-10.5%, -3.0%, +0.1% a pass), of order 1 or as wide as LIVE_MIN_DIM takes exact
norms, one with TIE_SHARE of its nonzero slices at their segment's top trace skips
the power rung (ms exact / bounded: 2 x 2 of 510 slices 18.0 / 3.2, 16 x 16 noise
17.0 / 11.3, 1 x 1 0.28 / 0.41, 27 tied 1.24 / 1.83).
Verdict-only gates ||X|| <= ctol * (1 + ||M||) (Hermitian defects, null-space
leaks) go through exceeds_gate: a slice with ||X||_F <= ctol passes without
an exact norm, and exact norms run only for slices near or over the gate.

The live cut (live_cuts) takes each slice of a stack, such as the row split's
pi_phi, to its nonzero rows and columns, which keeps every singular value
(Higham, sec. 6.2): operator_norms takes the Grams of live blocks, and
live_products forms L X R as L[:, rows] @ X[rows, cols] @ R[cols, :], one
batched call per cut shape.  Below LIVE_MIN_DIM, or with no zero row or
column, both keep dense bits.

Same-shape problems run as stacks: herm_eig and rank_kernel take a leading
slice axis (rank_kernel decides a whole stack at once, one block of decisions),
and a builder stacks slices of one shape, never padded: stackwise groups a
request by shape.  stack_slices forms a stack from arrays and raises
ShapeMismatch when a slice's shape differs, so shapes are checked once, where
the stack is formed.  Batched LAPACK gives every matrix the bits of a call of
its own, and stack_slices keeps each slice's memory layout, on which
matrix-vector products depend, so a stacked build reproduces the builds of its
slices bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import NonFinite, NonHermitian, NotPSD, ShapeMismatch


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy: `rtol` is the relative rank cutoff, `ctol` the
    residual pass threshold."""

    rtol: float = 1e-10
    ctol: float = 1e-8

    def __post_init__(self) -> None:
        if not (0.0 <= self.rtol < 1.0):
            raise ValueError(f"rtol must lie in [0, 1), got {self.rtol}")
        if not self.ctol > 0.0:
            raise ValueError(f"ctol must be positive, got {self.ctol}")
        object.__setattr__(self, "_hash", hash((self.rtol, self.ctol)))  # the dataclass hash, once

    def __hash__(self) -> int:
        return self._hash


def summarize(records: Sequence[tuple], empty_threshold: float = 0.0) -> tuple[float, float]:
    """One (residual, threshold) pair for a checker's records (check, residual,
    threshold).  A passing list gives its largest residual and largest
    threshold, a failing one its worst failing entry (largest residual /
    threshold ratio), so the pair fails too; an empty list gives (0,
    empty_threshold)."""
    failing = [(r, t) for _, r, t in records if r > t]
    if not failing:
        return (max((r for _, r, _ in records), default=0.0),
                max((t for *_, t in records), default=empty_threshold))
    return max(failing, key=lambda rt: rt[0] / rt[1] if rt[1] > 0 else math.inf)


DEFAULT_TOL = Tolerance()

# The one tolerance of instance generation, for its rank cutoffs and exp(iH)
# gates: --tol/--rtol never reach it, so a seed names one payload however checked.
GENERATION_TOL = Tolerance()

BOUND_MIN_SLICES, TIE_SHARE = 20, 0.9  # the bounds rule, with its measurements: module docstring
CERTIFY_MARGIN = 1e-6
# lambda_max = sigma_1^2 strictly inside this range keeps sigma_1 to rounding; out of it
# squaring underflows or overflows, and the slice takes the SVD's sigma_1
GRAM_RANGE = (1e-280, 1e280)
# Narrower stacks stay dense: on the workloads' row-split pi_phi (split_widths.py, Gram
# kernel) the cut took +80% to +85% at width 32, +5% to +9% at 45, -6% to +0% at 54 and +75% for
# the descent at 64, and -22% to -44% at 72-99
LIVE_MIN_DIM = 72
any_nonzero = partial(np.logical_or.reduce, axis=None)  # ndarray.any, no Python wrappers


def _not_converged(err: str, flag: int) -> None:
    raise LinAlgError("LAPACK did not converge")


_SIGNATURES = {"eigh_lo": ("D->dD", "d->dd"), "eigvalsh_lo": ("D->d", "d->d"),  # complex, real
               "svd": ("D->d", "d->d"), "svd_s": ("D->DdD", "d->ddd"),
               "svd_f": ("D->DdD", "d->ddd")}


@np.errstate(call=_not_converged, invalid="call", over="ignore", divide="ignore", under="ignore")
def lapack(kernel: str, a: np.ndarray):
    """numpy.linalg's gufunc `kernel` on a stack a (..., m, n) of (complex) doubles,
    as np.linalg calls it: its signature, its bits, and LinAlgError where LAPACK
    does not converge, from an error state the decorator sets 3x faster than `with`."""
    return getattr(_umath_linalg, kernel)(a, signature=_SIGNATURES[kernel][a.dtype.kind != "c"])


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(a) of a stack a (..., n, n), bit for bit; (real(a), 1) at n = 1."""
    return (eigvalsh(a), np.ones(a.shape, a.dtype)) if a.shape[-1] == 1 else lapack("eigh_lo", a)


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(a) of a stack a (..., n, n), bit for bit; real(a) at n = 1."""
    return a.real[..., 0].copy() if a.shape[-1] == 1 else lapack("eigvalsh_lo", a)


def svd(a: np.ndarray, full_matrices: bool = True, compute_uv: bool = True):
    """np.linalg.svd(a, full_matrices, compute_uv) of a stack a (..., m, n), bit for bit."""
    return lapack("svd" if not compute_uv else "svd_f" if full_matrices else "svd_s", a)


def require_finite(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if not np.logical_and.reduce(np.isfinite(M), axis=None):
        raise NonFinite(f"{what} contains NaN or Inf entries")
    return M


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b), bit for bit, as one broadcast multiply of the two
    operands with their axes interleaved (leading 1s pad the shorter shape)."""
    a, b = np.asarray(a), np.asarray(b)
    sa, sb = (1,) * (b.ndim - a.ndim) + a.shape, (1,) * (a.ndim - b.ndim) + b.shape
    prod = a.reshape([n for m in sa for n in (m, 1)]) * b.reshape([n for m in sb for n in (1, m)])
    return prod.reshape([m * n for m, n in zip(sa, sb)])


def matvecs(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M x for each row x of X (..., n), M one (m, n) matrix or a stack that
    broadcasts against X's leading axes; each row is bit-identical to M @ x."""
    return (M @ X[..., None])[..., 0]


def operator_norm(M: np.ndarray) -> float:
    """Largest singular value; 0 for empty matrices."""
    return float(operator_norms(M))


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack (..., m, n), shape (...),
    as sqrt(lambda_max) of its smaller Gram (gram_norms); 0 for empty matrices.
    A slice live_cuts cuts takes its live block's.  NaN or Inf raises NonFinite."""
    return live_block_norms(np.asarray(stack, dtype=complex), gram_norms)


def svd_norm(M: np.ndarray) -> float:
    """LAPACK's largest singular value of M (on its live block, as live_cuts
    cuts it), the bits that three generation scales were recorded with:
    random_cp's Choi scale, random_blinear_unitary's H scale and the norm
    random_intertwiner returns, whose payloads would move with operator_norm's
    rounding.  ROADMAP item 1's re-record step can move them onto operator_norm
    and delete this function."""
    return float(live_block_norms(require_finite(M), svd_norms))


def live_block_norms(stack: np.ndarray, norms: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """norms(X) of each slice of a stack (..., m, n), shape (...): of a slice
    live_cuts cuts, its live block's, one call per cut shape."""
    if (cuts := live_cuts(stack)) is None:
        return norms(stack)
    flat, out = stack.reshape(-1, *stack.shape[-2:]), np.zeros(stack.shape[:-2])
    for idx, rows, cols in cuts:  # all-zero slices are in no cut: norm 0
        out.flat[idx] = norms(flat[idx[:, None, None], rows[:, :, None], cols[:, None, :]])
    return out


def gram_norms(X: np.ndarray) -> np.ndarray:
    """sqrt(lambda_max) of the smaller Gram of each slice of a stack X (..., m, n)
    (X* X when m >= n, else X X*), from one batched eigvalsh; 0 for empty
    matrices.  A slice whose lambda_max is not strictly inside GRAM_RANGE, where
    squaring would lose range, takes svd_norms' sigma_1.  NaN or Inf in X raises
    NonFinite."""
    if not X.size:
        return np.zeros(X.shape[:-2])
    lo, hi = GRAM_RANGE
    with np.errstate(over="ignore", invalid="ignore"):
        G = smaller_gram(X)
        # the Gram's trace ||X||_F^2 bounds lambda_max from above; the traces' sum is
        # not finite when X is not, or when squaring overflowed
        if np.add.reduce(G.diagonal(0, -2, -1).real, axis=None) < hi / 2:
            lam = eigvalsh(G)[..., -1]
            if lo < min(lam.ravel().tolist()):
                return np.sqrt(lam)
        else:
            X = require_finite(X)
            # a diagonal entry below hi keeps every entry of the Gram finite, and one
            # at hi or above puts lambda_max there too
            fits = G.diagonal(0, -2, -1).real.max(axis=-1) < hi
            lam = np.full(X.shape[:-2], np.inf)
            lam[fits] = eigvalsh(G[fits])[..., -1]
        odd = ~((lam > lo) & (lam < hi))
        out = np.sqrt(lam, out=lam)
    out[odd] = svd_norms(X[odd])
    return out


def smaller_gram(X: np.ndarray) -> np.ndarray:
    """X* X of each slice of a stack X (..., m, n) when m >= n, else X X*."""
    Xh = X.conj().swapaxes(-1, -2)
    return Xh @ X if X.shape[-2] >= X.shape[-1] else X @ Xh


def svd_norms(X: np.ndarray) -> np.ndarray:
    """LAPACK's largest singular value of each slice of a finite stack X (..., m, n),
    from one batched SVD of its nonzero slices; 0 for zero or empty matrices."""
    out, live = np.zeros(X.shape[:-2]), X.any(axis=(-2, -1))
    if np.count_nonzero(live):
        out[live] = svd(X[live], compute_uv=False)[..., 0]
    return out


def live_cuts(X: np.ndarray) -> list[tuple] | None:
    """Per live shape (a, b) > 0: (slices (k,), their nonzero rows (k, a) and columns
    (k, b)) of a stack X (..., m, n), slices numbered in C order.  None, for the
    dense expression, when X is narrower than LIVE_MIN_DIM, empty or dense."""
    if max(X.shape[-2:]) < LIVE_MIN_DIM or not X.size:
        return None
    nz = X.reshape(-1, *X.shape[-2:]) != 0
    rows, cols = nz.any(axis=2), nz.any(axis=1)
    if rows.all() and cols.all():
        return None
    na, nb = rows.sum(axis=1), cols.sum(axis=1)
    return [(i, np.nonzero(rows[i])[1].reshape(-1, a), np.nonzero(cols[i])[1].reshape(-1, b))
            for a, b in sorted(set(zip(na.tolist(), nb.tolist())) - {(0, 0)})
            for i in [np.flatnonzero((na == a) & (nb == b))]]


def live_products(L: np.ndarray, X: np.ndarray, *R: np.ndarray) -> list[np.ndarray]:
    """[L @ X @ r for r in R], or [L @ X], L and R broadcast against X (..., m, n);
    a slice live_cuts cuts takes L[:, rows] @ X[rows, cols] (@ r[cols, :]), the
    terms with a zero factor of X dropped, so L and R must be finite."""
    if (cuts := live_cuts(X)) is None:
        LX = L @ X
        return [LX @ r for r in R] if R else [LX]
    lead, flat = X.shape[:-2] or (1,), X.reshape(-1, *X.shape[-2:])
    Lb, *Rb = (np.broadcast_to(M, (*lead, *np.shape(M)[-2:])) for M in (L, *R))
    outs = [np.zeros((len(flat), L.shape[-2], r.shape[-1]), complex) for r in R or [X]]
    for idx, rows, cols in cuts:
        at = [i[:, None] for i in np.unravel_index(idx, lead)]
        LX = Lb[(*at, slice(None), rows)].swapaxes(-1, -2) @ flat[
            idx[:, None, None], rows[:, :, None], cols[:, None, :]]
        if not R:
            outs[0][idx[:, None], :, cols] = LX.swapaxes(-1, -2)
        for out, r in zip(outs, Rb):
            out[idx] = LX @ r[(*at, cols)]
    return [out.reshape(*X.shape[:-2], *out.shape[1:]) for out in outs]


def exceeds_gate(X: np.ndarray, M: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Whether ||X[i]|| > ctol * (1 + ||M[i]||) for each slice of stacks X and M
    (..., m, n) with the same leading shape.  A slice with ||X[i]||_F <= ctol
    passes without an exact norm; the others take exact operator norms.  NaN or Inf
    in X or M raises NonFinite."""
    return exceeds_finite_gate(X, require_finite(M), tol)


def exceeds_finite_gate(X: np.ndarray, M: np.ndarray, tol: Tolerance) -> np.ndarray:
    """exceeds_gate for an M its caller has just checked finite, not checked again.
    An all-zero X, as most leaks and copy differences are, passes with no norm."""
    out = np.zeros(X.shape[:-2], dtype=bool)
    if not any_nonzero(X):
        return out
    near = ~(np.sqrt(np.add.reduce((X.conj() * X).real, axis=(-2, -1))) <= tol.ctol)
    if any_nonzero(near):
        out[near] = operator_norms(X[near]) > tol.ctol * (1.0 + operator_norms(M[near]))
    return out


def max_operator_norm(stack: np.ndarray) -> float:
    """Largest singular value over a stack of matrices (..., m, n), its
    certified_maxima as one segment; 0 when empty."""
    return float(max_operator_norms(stack)[0])


def max_operator_norms(*stacks: np.ndarray) -> np.ndarray:
    """max_operator_norm of each of several stacks (..., m, n), shape
    (len(stacks),), bit for bit.  This is the one per-shape norm batcher: the
    stacks whose matrices share a shape, narrower than LIVE_MIN_DIM (whose live
    cut would split them again), go through one certified_maxima together."""
    out, groups = np.zeros(len(stacks)), {}
    for i, S in enumerate(stacks):
        shape = np.shape(S)
        if count := math.prod(shape[:-2]):  # an empty stack keeps its 0
            groups.setdefault(shape[-2:], []).append((i, np.reshape(S, (count, *shape[-2:]))))
    for (m, n), members in groups.items():
        at, flat = zip(*members)
        if max(m, n) >= LIVE_MIN_DIM:
            out[list(at)] = [operator_norms(S).max() for S in flat]
        else:
            X = flat[0] if len(flat) == 1 else np.concatenate(flat)
            out[list(at)] = certified_maxima(X, [len(S) for S in flat])
    return out


def certified_maxima(X: np.ndarray, sizes: list[int]) -> np.ndarray:
    """The largest operator norm in each segment of X (N, m, n), the segments
    sizes[0], sizes[1], ... slices long in order, each maximum with the bits of
    its slice's operator_norms.  A batch of at least BOUND_MIN_SLICES slices of
    order min(m, n) > 1 narrower than LIVE_MIN_DIM takes exact norms only of the
    slices that bounded_norms cannot rule out."""
    N, m, n = X.shape
    if N < BOUND_MIN_SLICES or min(m, n) < 2 or max(m, n) >= LIVE_MIN_DIM or max(sizes) < 2:
        norms = operator_norms(X)
    else:
        norms = bounded_norms(np.asarray(X, dtype=complex), sizes)
    if len(sizes) == 1:
        return norms.max(keepdims=True)
    return np.maximum.reduceat(norms, list(itertools.accumulate(sizes[:-1], initial=0)))


def bounded_norms(X: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Exact norms, from one gram_norms call, of the slices of X (N, m, n) whose
    upper bound on sigma_1^2 reaches the largest lower bound in their segment;
    0 for the others and for zero slices.  The bounds (module docstring) come in
    two rungs: tr G and tr G / k (k = min(m, n)) for every slice, then tr G times
    powers of G^ = G / tr G for the slices left, unless TIE_SHARE of the nonzero
    ones tie their segment's top trace.  A slice whose tr G is not strictly inside
    GRAM_RANGE takes the exact path."""
    N, m, n = X.shape
    k, (lo, hi) = min(m, n), GRAM_RANGE
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    seg = np.repeat(np.arange(len(sizes)), sizes)
    flat = np.ascontiguousarray(X).reshape(N, -1).view(float)
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.square(flat) @ np.ones(flat.shape[1])  # tr G = ||X||_F^2
    exact = ~((t > lo) & (t < hi))  # NaN, Inf and traces out of range
    if np.count_nonzero(exact):
        t[exact] = 0.0  # no bound, and no place among the bounded slices
        exact[exact] = X[exact].any(axis=(-2, -1))  # a zero slice reads 0
    top, reach = np.maximum.reduceat(t, starts)[seg], t * (1.0 + CERTIFY_MARGIN)
    bound = top / k  # tr G / k <= sigma_1^2 of the segment's largest
    at = np.flatnonzero((t > 0.0) & (reach >= bound))
    ties = np.count_nonzero((t > 0.0) & (reach >= top))
    if len(at) > 1 and ties < TIE_SHARE * np.count_nonzero(t):
        tr = t[at]
        P = smaller_gram(X if len(at) == N else X[at])
        P *= (1.0 / tr)[:, None, None]  # G^
        Q = P @ P
        np.matmul(Q, Q, out=P)  # G^^4
        f2 = P.diagonal(0, -2, -1).real.sum(axis=-1)  # tr G^^4 = ||G^^2||_F^2
        flat = P.reshape(len(at), -1).view(float)
        f4 = np.sqrt(np.square(flat, out=flat) @ np.ones(2 * k * k))  # ||G^^4||_F
        lower = np.zeros(N)
        lower[at] = tr * np.sqrt(f4 / np.sqrt(f2))
        bound = np.maximum(bound, np.maximum.reduceat(lower, starts)[seg])
        at = at[tr * f4**0.25 * (1.0 + CERTIFY_MARGIN) >= bound[at]]
    keep = exact  # with the slices the bounds leave
    keep[at] = True
    norms = np.zeros(N)
    norms[keep] = gram_norms(X[keep])
    return norms


def dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.dot(A[s], B[s]) for each slice of two stacks (S, m, k) and (S, k, n),
    each with the bits of a call of its own: one stacked matmul, except at
    k = 1, where np.dot takes BLAS gemm and matmul a plain loop."""
    if A.shape[-1] == 1:
        return np.stack([np.dot(a, b) for a, b in zip(A, B)])
    return A @ B


def psd_verdict(M: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """(M is PSD, minimum eigenvalue of its Hermitian part) for each matrix of
    a stack (..., n, n), as arrays of shape (...): the Hermitian defect and the
    negative part of the spectrum must both stay within ctol * (1 + ||M||)."""
    M = require_finite(M)
    Ms = M.conj().swapaxes(-1, -2)
    w0 = eigvalsh((M + Ms) / 2.0)[..., 0] if M.size else np.zeros(M.shape[:-2])
    herm = ~exceeds_finite_gate(M - Ms, M, tol)
    ok = np.array(herm & (w0 >= -tol.ctol))
    near = herm & ~ok
    if np.count_nonzero(near):
        ok[near] = w0[near] >= -tol.ctol * (1.0 + operator_norms(M[near]))
    return ok, w0


def herm_eig(M: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of each Hermitian matrix of a stack (..., n, n), by
    one batched eigh that gives every matrix the bits of a call of its own.

    Returns (eigenvalues ascending, unitary eigenvector matrices).  Raises
    NonHermitian when a defect exceeds ctol * (1 + ||M||), naming the first.
    """
    M = require_finite(M)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise NonHermitian(f"expected square matrices, got shape {M.shape}")
    if M.size == 0:
        return np.zeros(M.shape[:-1]), np.zeros(M.shape, dtype=complex)
    Mh = M.conj().swapaxes(-1, -2)
    D = M - Mh
    bad = exceeds_finite_gate(D, M, tol)
    if any_nonzero(bad):
        defect = operator_norm(D.reshape(-1, *D.shape[-2:])[np.flatnonzero(bad)[0]])
        raise NonHermitian(f"Hermitian defect {defect:.3e} exceeds tolerance")
    return eigh((M + Mh) / 2.0)


class Split(NamedTuple):
    """Copy 0's Gram blocks of Grams whose builder knows them block diagonal in
    equal copies: blocks[t] (S, b_t, b_t), block t's for each of S slices."""

    blocks: Sequence[np.ndarray]


def rank_kernel(G: np.ndarray | Split, tol: Tolerance) -> list[tuple]:
    """Split each PSD Hermitian matrix of a stack (S, d, d) into numerical range
    and kernel, from batched herm_eig: a rank decision per slice.

    rank = #{eigenvalues > rtol * lambda_max}.  Returns per block, the stack
    itself being one, (ranks (S,), eigenvalues (S, b) ascending, eigenvectors
    (S, b, b)): the last ranks[s] columns of slice s are orthonormal
    eigenvectors of its kept eigenvalues and span its range, the others its
    kernel.  A Split takes one herm_eig per block size and decides its
    slices' blocks against the lambda_max and minimum over all of them.
    Raises NotPSD, naming the first such slice of a longer stack, when a
    minimum eigenvalue dips below -ctol * (1 + ||G||)."""
    blocks = G.blocks if type(G) is Split else [G]
    S, eig = blocks[0].shape[0], list(blocks)
    for b in {x.shape[-1]: None for x in blocks}:  # one herm_eig per block size
        ts = [t for t, x in enumerate(blocks) if x.shape[-1] == b]
        w, V = herm_eig(np.concatenate([blocks[t] for t in ts]) if ts[1:] else blocks[ts[0]], tol)
        for k, t in enumerate(ts):
            eig[t] = w[k * S : (k + 1) * S], V[k * S : (k + 1) * S]
    ends = [w for w, _ in eig if w.shape[-1]] or [np.zeros((S, 1))]  # 0 with no width
    lo, hi = ends[0][:, 0], ends[0][:, -1]  # over the blocks of each slice
    for w in ends[1:]:
        lo, hi = np.minimum(lo, w[:, 0]), np.maximum(hi, w[:, -1])
    for i, (l, h) in enumerate(zip(lo.tolist(), hi.tolist())):  # max(|l|, |h|), as l <= h
        if l < -tol.ctol * (1.0 + (h if h > -l else -l)):
            where = f" in slice {i}" if S > 1 else ""
            raise NotPSD(f"minimum eigenvalue {l:.3e} below PSD gate{where}")
    cut = tol.rtol * hi[:, None]
    cut[hi <= 0.0] = np.inf  # keep nothing at lambda_max <= 0
    return [(np.add.reduce(w > cut, axis=-1), w, V) for w, V in eig]


def stack_slices(items: Sequence) -> np.ndarray:
    """Same-shape arrays stacked along a new first axis, each slice with the
    memory layout of its array, on which the bits of a matrix-vector product
    depend: one array repeated is a broadcast view of it, and transposed
    (Fortran-ordered) matrices stay transposed.  Raises ShapeMismatch naming
    the first slice whose shape differs from the first's."""
    first = np.asarray(items[0])
    if len(items) == 1:
        return first[None]
    for i, a in enumerate(items):
        if (a.shape if type(a) is np.ndarray else np.shape(a)) != first.shape:
            raise ShapeMismatch(f"slice {i} has shape {np.shape(a)}, slice 0 {first.shape}")
    if len(set(map(id, items))) == 1:  # np.broadcast_to's read-only view, in one call
        return np.nditer((first,), ["multi_index", "refs_ok", "zerosize_ok"], ["readonly"],
                         itershape=(len(items), *first.shape), order="C").itviews[0]
    if first.ndim == 2 and not first.flags.c_contiguous:
        return np.array([np.asarray(a).T for a in items]).swapaxes(-1, -2)
    return np.array(items)  # np.stack's array, from one call


def stackwise(
    items: Sequence, shape: Callable[[Any], Any], build: Callable[[list], Sequence]
) -> list:
    """build(stack) for each stack of the items of one shape(item), in the order
    of their first items, each result put back at its item's position; one item,
    or items of one shape, are one stack (one item with no shape taken)."""
    if len(items) == 1 or (keys := list(map(shape, items))) and keys.count(keys[0]) == len(keys):
        return list(build(list(items)))
    out, stacks = [None] * len(items), {}
    for i, key in enumerate(keys):
        stacks.setdefault(key, []).append(i)
    for idx in stacks.values():
        for i, x in zip(idx, build([items[i] for i in idx])):
            out[i] = x
    return out


def null_space(K: np.ndarray, scale: float, tol: Tolerance) -> np.ndarray:
    """Orthonormal rows v with K v = 0 numerically: the right singular vectors
    of K (m, n) with singular values at most rtol * max(sigma_max, scale), and
    those beyond min(m, n).  NaN or Inf in K raises NonFinite."""
    R = np.linalg.qr(require_finite(K, "constraint system"), mode="r")
    _, svals, Vh = svd(R)
    cutoff = tol.rtol * max(float(svals.max(initial=0.0)), scale)
    mask = np.concatenate([svals <= cutoff, np.ones(Vh.shape[0] - svals.size, bool)])
    return Vh[mask].conj()


def pseudo_inverse(M: np.ndarray, tol: Tolerance, thin: tuple | None = None) -> np.ndarray:
    """Moore-Penrose inverse with singular values below rtol * sigma_max
    treated as zero, by np.linalg.pinv's steps and bits: the thin SVD
    (u, s, vh) of conj(M), or the one given as thin, then the cutoff."""
    M = require_finite(M)
    if M.size == 0:
        return np.zeros((M.shape[1], M.shape[0]), dtype=complex)
    u, s, vt = thin or svd(M.conj(), full_matrices=False)
    large = s > np.asarray(tol.rtol)[..., None] * np.amax(s, axis=-1, keepdims=True)
    s = np.divide(1, s, out=np.zeros_like(s), where=large)
    return np.matmul(np.transpose(vt), np.multiply(s[..., None], np.transpose(u)))


def herm_expi(H: np.ndarray, tol: Tolerance) -> np.ndarray:
    """exp(iH) for Hermitian H; the result is unitary."""
    w, V = herm_eig(H, tol)
    return (V * np.exp(1j * w)) @ V.conj().T
