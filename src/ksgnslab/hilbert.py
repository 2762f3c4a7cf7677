"""Finite-dimensional Hilbert modules over block C*-algebras.

A (pre-)module over B is a coordinate space C^d carrying

* a right action, stored as one d x d matrix R(u) per matrix-unit basis
  element u of B.  Right actions are anti-multiplicative as matrices:
  R(b1 b2) = R(b2) R(b1), and R(1) = I.
* a B-valued pairing, stored per B-block t as an array P_t of shape
  (d, d, n_t, n_t) holding the t-th block of <e_i, e_j>.  The pairing is
  conjugate-linear in the first slot and linear in the second.

Scalarizing the pairing through the faithful trace gives the Gram matrix
G_ij = tau(<e_i, e_j>).  Null-space detection, vector norms of the ambient
Hilbert-space realization, operator norms, and adjoints all run through G:
a module map T realizes as G_tgt^(1/2) T G_src^(-1/2) on the standard inner
product, and that realization is a faithful *-representation of L(E), so
module operator norms are exactly realized operator norms.

Quotients by the pairing's null space use the orthonormal eigenvector basis
of the Gram range, so the quotient map q and section s satisfy q s = I up to
eigensolver error, and conditioning is explicit in the kept eigenvalues.
Pairing identities contract all basis pairs at once through pairing_coeffs.
Zero-dimensional modules are legal everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cstar import AlgebraElement, AlgebraShape, Automorphism
from .errors import (
    InvalidConfig, ShapeMismatch, SingularGram, SubmoduleViolation, WellDefinednessViolation,
)
from .memo import content_key
from .numkernel import (
    DEFAULT_TOL,
    Tolerance,
    exceeds_gate,
    herm_power,
    max_operator_norm,
    operator_norm,
    operator_norms,
    psd_verdict,
    rank_kernel,
    require_finite,
)


@dataclass
class PreModule:
    """Right B-module with a possibly degenerate B-valued pairing."""

    algebra: AlgebraShape
    dim: int
    action: np.ndarray  # (dim_B, d, d); action[p] = R(u_p)
    pairing: list[np.ndarray]  # per B-block t: (d, d, n_t, n_t)

    def __post_init__(self) -> None:
        d = self.dim
        self.action = require_finite(self.action, "module action")
        if self.action.shape != (self.algebra.dim, d, d):
            raise ShapeMismatch(
                f"action tensor {self.action.shape} != {(self.algebra.dim, d, d)}"
            )
        mats = []
        for n, P in zip(self.algebra.blocks, self.pairing):
            P = require_finite(P, "module pairing")
            if P.shape != (d, d, n, n):
                raise ShapeMismatch(f"pairing block {P.shape} != {(d, d, n, n)}")
            mats.append(P)
        self.pairing = mats

    @cached_property
    def key(self) -> bytes:
        """Content digest of the algebra, action and pairing: modules with
        equal keys are one module."""
        return content_key(self.algebra.blocks, self.action, *self.pairing)

    def gram(self) -> np.ndarray:
        if self.dim == 0:
            return np.zeros((0, 0), dtype=complex)
        return sum(np.einsum("ijkk->ij", P) for P in self.pairing)

    def pair(self, x: np.ndarray, y: np.ndarray) -> AlgebraElement:
        x = np.asarray(x, dtype=complex).reshape(self.dim)
        y = np.asarray(y, dtype=complex).reshape(self.dim)
        return AlgebraElement(
            self.algebra,
            [np.einsum("i,j,ijkl->kl", x.conj(), y, P) for P in self.pairing],
        )


class HilbertModule(PreModule):
    """PreModule whose Gram matrix is positive definite."""

    def __post_init__(self) -> None:
        super().__post_init__()
        G = self.gram()
        G = (G + G.conj().T) / 2.0
        self.gram_matrix = G
        if self.dim:
            w = np.linalg.eigvalsh(G)
            if w[-1] <= 0.0 or w[0] <= DEFAULT_TOL.rtol * w[-1]:
                raise SingularGram(
                    f"Gram spectrum [{w[0]:.3e}, {w[-1]:.3e}] is not positive definite"
                )

    @cached_property
    def gram_sqrt(self) -> np.ndarray:
        return herm_power(self.gram_matrix, 0.5)

    @cached_property
    def gram_isqrt(self) -> np.ndarray:
        return herm_power(self.gram_matrix, -0.5)

    @cached_property
    def gram_inv(self) -> np.ndarray:
        return herm_power(self.gram_matrix, -1.0)

    def vector_norm(self, x: np.ndarray) -> float:
        """||x|| = sqrt(||<x, x>||_B)."""
        return float(np.sqrt(max(self.pair(x, x).norm(), 0.0)))


def pairing_coeffs(E: PreModule, Y: np.ndarray) -> np.ndarray:
    """Stacked pairings C[r, p, j] = coefficient p of <y_r, e_j> for the rows y_r
    of Y, shape (R, d); p runs over B's matrix-unit basis in cstar's order, so
    C[r, :, j] = E.pair(Y[r], e_j).coeffs() and C[r] @ x holds <y_r, x>."""
    d = E.dim
    P = np.concatenate([P.reshape(d, d, n * n) for n, P in zip(E.algebra.blocks, E.pairing)], 2)
    return np.tensordot(np.conj(Y), P, axes=(1, 0)).transpose(0, 2, 1)


def max_stacked_norm(shape: AlgebraShape, C: np.ndarray) -> float:
    """Largest C*-norm among the elements of B stacked as C[r, p, j]."""
    C = require_finite(C, "stacked algebra elements")
    return max(
        (
            max_operator_norm(C[:, o : o + n * n].transpose(0, 2, 1).reshape(-1, n, n))
            for n, o in zip(shape.blocks, shape.offsets)
        ),
        default=0.0,
    )


# -- quotient by the null space -------------------------------------------


@dataclass
class Quotient:
    module: HilbertModule
    q: np.ndarray  # (rank, d): quotient map onto eigen-coordinates
    s: np.ndarray  # (d, rank): section, q s = I
    kernel: np.ndarray  # (d, d - rank): kernel basis of the Gram matrix


def quotient_by_null(pre: PreModule, tol: Tolerance = DEFAULT_TOL) -> Quotient:
    """Quotient a pre-module by the null space of its pairing.

    The null space is detected as ker(G) for the scalarized Gram G; by
    faithfulness of the trace this agrees with {z : <z, z> = 0} whenever the
    pairing is PSD.  Raises SubmoduleViolation when the kernel is not
    invariant under the action, which signals an invalid pre-module.
    """
    G = pre.gram()
    rank, range_basis, kernel_basis = rank_kernel(G, tol)
    q = range_basis.conj().T
    s = range_basis
    leak = first_leak(q, pre.action, kernel_basis, tol)
    if leak is not None:
        raise SubmoduleViolation(
            f"action of basis element {leak[0]} leaks out of the null space "
            f"(residual {leak[1]:.3e})"
        )
    new_action = np.einsum("iu,puv,vj->pij", q, pre.action, s, optimize=True)
    new_pairing = [
        np.einsum("ui,vj,uvkl->ijkl", s.conj(), s, P, optimize=True) for P in pre.pairing
    ]
    module = HilbertModule(pre.algebra, rank, new_action, new_pairing)
    return Quotient(module, q, s, kernel_basis)


def null_leak(
    q: np.ndarray, K: np.ndarray, kernel: np.ndarray, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray]:
    """Per-slice leak ||q K[i] kernel|| of a stack K (..., m, n) of pre-space maps
    and its gate ctol * (1 + ||K[i]||); K[i] preserves the null spaces when
    its leak stays within its gate."""
    return operator_norms(q @ K @ kernel), tol.ctol * (1.0 + operator_norms(K))


def first_leak(
    q: np.ndarray, K: np.ndarray, kernel: np.ndarray, tol: Tolerance
) -> tuple[int, float] | None:
    """(flat index, leak) of the first slice of K whose null_leak exceeds its
    gate, or None when all pass; numkernel.exceeds_gate certifies most slices
    without an SVD.  NaN or Inf in K raises NonFinite before any product."""
    require_finite(K)
    X = q @ K @ kernel
    bad = np.flatnonzero(exceeds_gate(X, K, tol))
    if not bad.size:
        return None
    return int(bad[0]), operator_norm(X.reshape(-1, *X.shape[-2:])[bad[0]])


def descend(
    K: np.ndarray, src: Quotient, tgt: Quotient, what: str, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """q_tgt K s_src for each map of a stack K (..., m, n) between pre-spaces:
    what it induces on the quotients src and tgt.  Raises
    WellDefinednessViolation, naming `what` and the first leaking slice's
    leak, when K leaks ker G_src out of ker G_tgt."""
    leak = first_leak(tgt.q, K, src.kernel, tol)
    if leak is not None:
        raise WellDefinednessViolation(f"{what} leaks out of the null space ({leak[1]:.3e})")
    return tgt.q @ K @ src.s


# -- module maps -----------------------------------------------------------


@dataclass
class ModuleMap:
    """B-linear map between Hilbert modules over the same algebra.

    In finite dimension every B-linear map is adjointable, with adjoint
    G_src^(-1) T^dagger G_tgt; adjoint_map applies that formula.
    """

    source: HilbertModule
    target: HilbertModule
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.source.algebra != self.target.algebra:
            raise ShapeMismatch("module map across different coefficient algebras")
        self.matrix = require_finite(self.matrix, "module map matrix")
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ShapeMismatch(
                f"matrix {self.matrix.shape} != {(self.target.dim, self.source.dim)}"
            )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=complex).reshape(self.source.dim)

    def linearity_residual(self) -> float:
        return max_operator_norm(
            self.matrix @ self.source.action - self.target.action @ self.matrix
        )


def identity_map(E: HilbertModule) -> ModuleMap:
    return ModuleMap(E, E, np.eye(E.dim, dtype=complex))


def same_module(E: PreModule, F: PreModule) -> bool:
    """E and F are one module: equal content keys."""
    return E.key == F.key


def compose_maps(outer: ModuleMap, inner: ModuleMap) -> ModuleMap:
    if not same_module(outer.source, inner.target):
        raise ShapeMismatch("maps do not chain")
    return ModuleMap(inner.source, outer.target, outer.matrix @ inner.matrix)


def realize(m: ModuleMap) -> np.ndarray:
    """Hilbert-space realization G_tgt^(1/2) T G_src^(-1/2)."""
    return m.target.gram_sqrt @ m.matrix @ m.source.gram_isqrt


def adjoint_map(m: ModuleMap) -> ModuleMap:
    """Unique adjoint of a B-linear map: G_src^(-1) T^dagger G_tgt."""
    if m.source.dim and np.all(m.source.gram_matrix == 0):
        raise SingularGram("source Gram is zero")
    mat = m.source.gram_inv @ m.matrix.conj().T @ m.target.gram_matrix
    return ModuleMap(m.target, m.source, mat)


def unitarity_residual(U: ModuleMap) -> float:
    """max(||U* U - 1||, ||U U* - 1||) with the module adjoint."""
    Us = adjoint_map(U).matrix
    left = operator_norm(Us @ U.matrix - np.eye(U.source.dim))
    right = operator_norm(U.matrix @ Us - np.eye(U.target.dim))
    return max(left, right)


def module_operator_norm(m: ModuleMap) -> float:
    """Norm in L(E1, E2), computed through the faithful realization."""
    return operator_norm(realize(m))


def is_map_positive(m: ModuleMap, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Positivity of an element of L(E) through its realization."""
    return psd_verdict(realize(m), tol)


def rank_one_sum(E: HilbertModule, X: np.ndarray, Y: np.ndarray) -> ModuleMap:
    """sum_r theta_{x_r, y_r} over the rows of X and Y, as one product over (r, p):
    column j is sum_{r, p} R(u_p) x_r C[r, p, j] with C = pairing_coeffs(E, Y)."""
    X = np.asarray(X, dtype=complex)
    k = X.shape[0] * E.algebra.dim
    moved = (E.action @ X.T).transpose(2, 0, 1).reshape(k, E.dim)  # R(u_p) x_r at [r, p]
    return ModuleMap(E, E, moved.T @ pairing_coeffs(E, Y).reshape(k, E.dim))


# -- alpha-twisted maps ----------------------------------------------------


@dataclass
class AlphaLinearMap:
    """Map f with f(x b) = f(x) alpha(b): matrix R_tgt(alpha(b)) f = f R_src(b)."""

    source: HilbertModule
    target: HilbertModule
    twist: Automorphism
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.source.algebra != self.target.algebra:
            raise ShapeMismatch("twisted map across different coefficient algebras")
        if self.twist.shape != self.source.algebra:
            raise ShapeMismatch("twist automorphism lives on the wrong algebra")
        self.matrix = require_finite(self.matrix, "twisted map matrix")
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ShapeMismatch("twisted map matrix has wrong shape")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=complex).reshape(self.source.dim)

def canonical_module(B: AlgebraShape, rows: tuple[int, ...]) -> HilbertModule:
    """(+)_t C^{r_t x m_t} with x.b = x b and <x, y> = x* y blockwise; the row
    a, column k coordinate of block t sits at offset_t + a m_t + k."""
    if len(rows) != len(B.blocks):
        raise InvalidConfig("one row count per block required")
    offsets = np.cumsum([0] + [r * m for r, m in zip(rows, B.blocks)])
    d = int(offsets[-1])
    action = np.zeros((B.dim, d, d), dtype=complex)
    pairing = []
    for r, m, o, bo in zip(rows, B.blocks, offsets, B.offsets):
        a, k, l = np.indices((r, m, m)).reshape(3, -1)
        action[bo + k * m + l, o + a * m + l, o + a * m + k] = 1.0  # x E_kl: column k -> l
        P = np.zeros((d, d, m, m), dtype=complex)
        P[o + a * m + k, o + a * m + l, k, l] = 1.0  # <e_ak, e_al> = E_kl
        pairing.append(P)
    return HilbertModule(B, d, action, pairing)


def algebra_module(shape: AlgebraShape) -> HilbertModule:
    """B viewed as a Hilbert module over itself with <a, b> = a* b."""
    return canonical_module(shape, shape.blocks)
