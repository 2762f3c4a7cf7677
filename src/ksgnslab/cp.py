"""Completely positive maps into adjointable operators of a Hilbert module.

A CPMap phi: A -> L(E) is stored through its images on the matrix-unit basis
of A.  Complete positivity is certified blockwise by the Choi criterion,
evaluated through the faithful Hilbert-space realization of L(E): for each
block M_n of A the n*d x n*d matrix sum_{kl} E_kl (x) realize(phi(E_kl))
must be PSD.  Complete positivity on a direct sum decomposes summand-wise.

Every map here is strict for free: the algebras are unital, so approximate
units collapse to evaluation at 1.  Serialized maps state it as `"strict":
true`, and a map that claims otherwise is malformed input (serialize).

The interior tensor product along a CP map, and T (x) I on it, live here,
below ksgns (F_phi = A (x)_phi E) and poscor (tensoring along rho).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence
from functools import cached_property
from itertools import accumulate

import numpy as np

from .cstar import (
    AlgebraShape,
    Automorphism,
    StarMap,
    compose_automorphisms,
    element_norms,
    unit_coeffs,
    zero_padded,
)
from .errors import NonLinearMap, ShapeMismatch
from .hilbert import (
    Copies,
    HilbertModule,
    ModuleMap,
    PreModule,
    Quotient,
    QuotientSlice,
    algebra_module,
    compose_maps,
    descend,
    gather,
    identity_map,
    adjoint_matrices,
    module_operator_norm,
    module_operator_norms,
    quotient_by_columns,
    quotient_by_copies,
    quotient_by_null,
    rank_one_sum,
    read_only,
    same_module,
)
from .memo import BuildMemo, content_key, structure
from .numkernel import (
    CERTIFY_MARGIN,
    GENERATION_TOL,
    Split,
    Tolerance,
    any_nonzero,
    dots,
    exceeds_finite_gate,
    herm_expi,
    kron,
    live_products,
    matvecs,
    max_operator_norm,
    max_operator_norms,
    null_space,
    operator_norm,
    operator_norms,
    psd_verdict,
    require_finite,
    stack_slices,
    svd_norm,
)


@dataclass
class CPMap:
    """Linear map A -> L(E) given by images on the matrix-unit basis of A; a
    representation when check_correspondence passes."""

    algebra: AlgebraShape
    module: HilbertModule
    images: np.ndarray  # (dim_A, d, d)

    def __post_init__(self) -> None:
        d = self.module.dim
        self.images = np.asarray(self.images, dtype=complex)
        if self.images.shape != (self.algebra.dim, d, d):
            raise ShapeMismatch(
                f"images {self.images.shape} != {(self.algebra.dim, d, d)}"
            )

    def __call__(self, a: np.ndarray) -> ModuleMap:
        """phi(a) for the element with coefficients a (dim A,)."""
        if np.shape(a) != (self.algebra.dim,):
            raise ShapeMismatch("argument outside the map's domain algebra")
        mat = np.einsum("p,pij->ij", a, self.images)
        return ModuleMap(self.module, self.module, mat)

    @cached_property
    def key(self) -> bytes:
        """Content digest of the domain, module key and images."""
        return content_key(self.algebra.blocks, self.module.key, self.images)

    @cached_property
    def norm(self) -> float:
        """max over basis images of the L(E) norm, on live blocks; the scale of the map."""
        return max_operator_norm(realized_images([self.module], self.images[None]))

    def hermiticity_residual(self) -> float:
        """max over basis of ||phi(u*) - phi(u)*||."""
        E = self.module
        adj = E.gram_inv @ self.images.conj().transpose(0, 2, 1) @ E.gram_matrix
        diff = self.images[self.algebra.star_permutation()] - adj
        return max_operator_norm(E.gram_sqrt @ diff @ E.gram_isqrt)


def check_correspondence(pi: CPMap, tol: Tolerance) -> list[tuple]:
    """Multiplicativity and unitality records for a would-be representation.

    Multiplicativity is max over p, r of ||pi(u_p u_r) - pi(u_p) pi(u_r)||,
    formed one p at a time, only for the r whose product or target is nonzero
    (the others differ by exactly zero), on the rows live in some pi(u_p u_r)
    (pi(u_p)'s among them), by live_products, and normed in one
    max_operator_norms of all p's gaps.  The images are gated finite first, so
    a dropped term never hides a 0 * Inf.
    """
    A = pi.algebra
    X = require_finite(pi.images, "representation images")
    scale = 1.0 + pi.norm**2
    T, Xz, nz = A.product_table, zero_padded(X), X != 0
    rows, cols = zero_padded(nz.any(axis=2)), nz.any(axis=1)  # rows[p, i]: row i of pi(u_p) != 0
    formed = rows[T].any(axis=2) | (cols[:, None] & rows[None, :-1]).any(axis=2)
    gaps = []
    for p, r in enumerate(formed):
        R = rows[T[p]].any(axis=0)  # the rows live in some pi(u_p u_r)
        gaps.append(Xz[np.ix_(T[p, r], R)] - live_products(X[p][R], X[r])[0])
    mult = float(max_operator_norms(*gaps).max(initial=0.0))
    unital = operator_norm(pi(unit_coeffs(A)).matrix - np.eye(pi.module.dim))
    return [("multiplicative", mult, tol.ctol * scale), ("unital", unital, tol.ctol * scale)]


def realized_images(E: Sequence[HilbertModule], X: np.ndarray) -> np.ndarray:
    """G^(1/2) X[s, p] G^(-1/2) for a stack X (S, dim A, d, d) of images of
    maps on the modules E[s], from the Gram powers their stack caches."""
    S, Si = gather(E, "gram_sqrt"), gather(E, "gram_isqrt")
    return live_products(S[:, None], X, Si[:, None])[0]


def choi_blocks(X: np.ndarray, A: AlgebraShape) -> list[np.ndarray]:
    """Per A-block Choi matrices sum_{kl} E_kl (x) X[s, kl] of a stack X of
    realized images (S, dim A, d, d), each block a stack (S, n d, n d)."""
    d = X.shape[-1]
    return [
        X[:, o : o + n * n].reshape(len(X), n, n, d, d).transpose(0, 1, 3, 2, 4)
        .reshape(len(X), n * d, n * d)
        for n, o in zip(A.blocks, A.offsets)
    ]


def check_cp(phi: Sequence[CPMap], tol: Tolerance, memo: BuildMemo) -> list[tuple]:
    """Choi certificates of maps of one shape, run once per (phi content, tol)
    in the memo: (is_cp, minimum Choi eigenvalue per A-block) for each map,
    from one stacked linearity gate and one batched PSD verdict per A-block
    over the maps the memo lacks.  Each map's norm is cached from the stack.

    Raises NonLinearMap when the images of a map fail B-linearity, since the
    Choi criterion is only meaningful for maps into L(E).
    """

    def build(todo: list[int]) -> list[tuple]:
        maps = [phi[i] for i in todo]
        E, Y = [p.module for p in maps], stack_slices([p.images for p in maps])
        X = realized_images(E, Y)
        fresh = [i for i, p in enumerate(maps) if "norm" not in vars(p)]
        if fresh:  # no norm call for an empty stack
            for i, norm in zip(fresh, operator_norms(X[fresh]).max(axis=1, initial=0.0).tolist()):
                vars(maps[i])["norm"] = norm
        # ||phi(u_p) R(u_b) - R(u_b) phi(u_p)|| over all p, b, exact where Frobenius can't pass it
        Y, R = Y[:, :, None], gather(E, "action")[:, None]
        D = Y @ R - R @ Y
        gate = tol.ctol * (1.0 + np.array([p.norm for p in maps]))
        fro = np.sqrt(np.sum((D.conj() * D).real, axis=(-2, -1))).max(axis=(1, 2), initial=0.0)
        near = ~(fro * (1.0 + CERTIFY_MARGIN) <= gate)
        if np.count_nonzero(near):
            lin = operator_norms(D[near]).max(axis=(1, 2), initial=0.0)
            if np.count_nonzero(bad := lin > gate[near]):
                raise NonLinearMap(f"images fail B-linearity (residual {lin[bad][0]:.3e})")
        ok, w0 = zip(*(psd_verdict(C, tol) for C in choi_blocks(X, maps[0].algebra)))
        return [(bool(np.all(k)), w.tolist()) for k, w in zip(np.transpose(ok), np.transpose(w0))]

    return memo.get_all([("check_cp", p.key, tol) for p in phi], build)


# -- interior tensor product -------------------------------------------------


@dataclass
class TensorModule(QuotientSlice):
    """E (x)_pi F: a slice of the quotient of tensor_premodule, with the
    ingredients that built it."""

    left: HilbertModule
    right: HilbertModule
    pi: CPMap

    @property
    def factor_dims(self) -> tuple[int, int]:
        return self.left.dim, self.right.dim


def paired_images(
    E: Sequence[HilbertModule], F: Sequence[HilbertModule], pi: Sequence[CPMap],
    at: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """N[s, i, k] = pi_s(<e_i, e_k>_E) on F_s (on its block `at` if given, (k, k) flat
    indices into (dim F, dim F)), from one stacked product, and the stack of pi's
    images; ShapeMismatch unless each pi_s maps E_s's B into L(F_s)."""
    for e, f, p in zip(E, F, pi):
        if p.algebra.blocks != e.algebra.blocks:
            raise ShapeMismatch("representation domain differs from E's coefficients")
        if p.module is not f and not same_module(p.module, f):
            raise ShapeMismatch("representation does not act on F")
    n, dE, B = len(E), E[0].dim, E[0].algebra
    pairing = gather(E, "pairing")
    coeffs = np.concatenate(
        [P.reshape(n, dE * dE, m * m) for P, m in zip(pairing, B.blocks)], axis=2
    )
    images = X = stack_slices([p.images for p in pi])
    if at is not None:
        images = images.reshape(n, B.dim, -1).take(at, axis=2)
    m = images.shape[-1]
    return dots(coeffs, images.reshape(n, B.dim, m * m)).reshape(n, dE, dE, m, m), X


def tensor_premodule(
    E: Sequence[HilbertModule], F: Sequence[HilbertModule], pi: Sequence[CPMap]
) -> PreModule:
    """The stack of pre-modules on {e_i (x) f_j} along completely positive
    pi: B -> L(F), for matching slices of one shape, with pairing
    <e_i (x) f_j, e_k (x) f_l> = <f_j, pi(<e_i, e_k>_E) f_l>_F and C acting on
    the F slot: one stacked contraction for the whole stack."""
    N = paired_images(E, F, pi)[0]
    n, dE, dF = len(E), E[0].dim, F[0].dim
    action = kron(np.eye(dE, dtype=complex), gather(F, "action"))  # I (x) R(u_c)
    # pairing[s, i, j, k, l] = sum_m N[s, i, k, m, l] P[s, j, m]
    Nt = N.transpose(0, 1, 2, 4, 3).reshape(n, dE * dE * dF, dF)
    pairing = []
    for P, m in zip(gather(F, "pairing"), F[0].algebra.blocks):
        P = P.transpose(0, 2, 1, 3, 4).reshape(n, dF, dF * m * m)
        pairing.append(
            dots(Nt, P).reshape(n, dE, dE, dF, dF, m, m).transpose(0, 1, 4, 2, 3, 5, 6)
            .reshape(n, dE * dF, dE * dF, m, m)
        )
    return PreModule(F[0].algebra, dE * dF, action, pairing)


def tensor_key(E: HilbertModule, F: HilbertModule, pi: CPMap, tol: Tolerance) -> tuple:
    """The one memo key of the tensor module E (x)_pi F."""
    return ("tensor", E.key, F.key, pi.key, tol)


def column_split(C: AlgebraShape, dE: int) -> Copies:
    """The Gram copies of E (x)_pi C, C over itself and pi(x) left multiplication
    by c = pi(x) 1, so <e_i (x) e^t_ak, e_j (x) e^s_cl> is c_ij^t_ac if s = t and
    k = l, else 0: per block t of C, e_i (x) e^t_ak's coordinate at [k, i n_t + a].
    One per block sizes and dim E, shared by the process with its layouts."""

    def build() -> Copies:
        at = np.arange(dE * C.dim).reshape(dE, C.dim)  # e_i (x) u_p at [i, p]
        return Copies([at[:, o : o + n * n].reshape(dE, n, n).transpose(2, 0, 1)
                       .reshape(n, dE * n) for n, o in zip(C.blocks, C.offsets)])

    return structure(("column_split", C.blocks, dE), build)


def row_split(A: AlgebraShape, dF: int) -> Copies:
    """The copies of A (x)_phi F, A over itself: <e_ab (x) f_j, e_cd (x) f_l> = delta_ac
    <f_j, phi(e_bd) f_l>, so copy a of block t, e_ab (x) f_j at (o_t + a n_t + b) dim F + j.
    One per block sizes and dim F, shared by the process with its layouts."""
    return structure(("row_split", A.blocks, dF), lambda: Copies(
        [np.arange(o * dF, (o + n * n) * dF).reshape(n, n * dF)
         for n, o in zip(A.blocks, A.offsets)]))


def over_itself(M: Sequence[HilbertModule]) -> bool:
    """Whether every M[s] is C over itself, dim C > 1: of C's dimension, then the
    process's algebra module itself, then an identity Gram, and content keys only
    for other objects."""
    if (C := M[0].algebra).dim < 2 or M[0].dim != C.dim:
        return False
    if set(map(id, M)) == {id(C_mod := algebra_module(C))}:
        return True
    if any_nonzero(M[0].gram_matrix != C_mod.gram_matrix):  # the identity
        return False
    return {m.key for m in M} == {C_mod.key}


def column_quotients(
    E: Sequence[HilbertModule], F: Sequence[HilbertModule], pi: Sequence[CPMap], tol: Tolerance,
) -> Quotient | None:
    """E[s] (x)_pi[s] C, every F[s] C over itself, by quotient_by_columns on copy 0's
    Gram blocks read off paired_images after the C-linearity gate (NonLinearMap),
    with the process's copies of C and of E (x) C; None when a block's rank differs
    between slices.  The gate takes no norm when every pi(u_p) is exactly the copies
    of its block, and NaN or Inf in pi's images raises NonFinite."""
    C, S, dE = F[0].algebra, len(E), E[0].dim
    first, ref, on = column_split(C, 1).counterparts  # of the copies e^t_.k of C's blocks
    N, X = paired_images(E, F, pi, first)  # on copy 0 of each block
    X = require_finite(X)
    Xf = X.reshape(S, -1, C.dim * C.dim)
    D = (Xf - Xf.take(ref, axis=2) * on).reshape(X.shape)  # pi(u_p) less the copies
    if any_nonzero(D) and any_nonzero(bad := exceeds_finite_gate(D, X, tol)):
        raise NonLinearMap(f"pi is not C-linear (residual {operator_norm(D[bad][0]):.3e})")
    o = list(accumulate(C.blocks, initial=0))
    gram = Split([N[..., i:j, i:j].transpose(0, 1, 3, 2, 4).reshape(S, dE * n, dE * n)
                  for i, j, n in zip(o[:-1], o[1:], C.blocks)])  # [i n_t + a, k n_t + b]
    return quotient_by_columns(C, gram, column_split(C, dE), tol)


def tensor_quotients(
    E: Sequence[HilbertModule], F: Sequence[HilbertModule], pi: Sequence[CPMap], tol: Tolerance,
) -> list[TensorModule]:
    """The quotients of tensor_premodule(E, F, pi) by their null spaces, one
    quotient stack, handed on as its slices: the build step of
    interior_tensor, and of ksgns, which keeps A (x)_phi E inside its own memo
    entry.  The structure alone picks the quotient, at every width: when every
    E[s] is A over itself, quotient_by_copies takes row_split's copies to F_phi
    = (+)_t C^{n_t} (x) K_t; else, when every F[s] is C over itself,
    column_quotients writes E (x)_pi C with no pre-module; else, and for a stack
    whose blocks' ranks differ between slices, quotient_by_null takes the whole
    Grams.  Each structured quotient has the canonical basis I_{n_t} (x) V_t."""
    quots = None
    if over_itself(E):  # rows first, when both are
        copies = row_split(E[0].algebra, F[0].dim)
        quots = quotient_by_copies(tensor_premodule(E, F, pi), copies, tol)
    elif over_itself(F):
        quots = column_quotients(E, F, pi, tol)
    if quots is None:
        quots = quotient_by_null(tensor_premodule(E, F, pi), tol)
    return [TensorModule(quots, i, *slc) for i, slc in enumerate(zip(E, F, pi))]


def interior_tensor(
    E: Sequence[HilbertModule], F: Sequence[HilbertModule], pi: Sequence[CPMap],
    tol: Tolerance, memo: BuildMemo,
) -> list[TensorModule]:
    """Interior tensor products E[s] (x)_pi[s] F[s] of one shape, built once
    per (E[s], F[s], pi[s]) content in the memo: the quotients of
    tensor_premodule by their null spaces, the missing ones in one stacked
    build.  Along a representation pi this is the tensor product of
    correspondences; with E = A over itself and pi a CP map it is the KSGNS
    space F_pi = A (x)_pi F (Lance, Hilbert C*-Modules, ch. 4-5)."""

    def build(todo: list[int]) -> list[TensorModule]:
        return tensor_quotients(*([x[s] for s in todo] for x in (E, F, pi)), tol)

    return memo.get_all([tensor_key(*slc, tol) for slc in zip(E, F, pi)], build)


def tensor_extend(
    T: Sequence[np.ndarray], tm1: Sequence[TensorModule], tm2: Sequence[TensorModule],
    what: str, tol: Tolerance,
) -> np.ndarray:
    """T[s] (x) I on the quotients, a stack over s: T[s] a stack (..., d2, d1) of
    maps from tm1[s]'s left factor to tm2[s]'s, whose right factors must
    agree.  A leak raises WellDefinednessViolation naming `what`."""
    if any(b.right.dim != a.right.dim for a, b in zip(tm1, tm2)):
        raise ShapeMismatch("tensor modules with different right factors")
    K = kron(stack_slices(T), np.eye(tm1[0].right.dim, dtype=complex))
    return descend(K, tm1, tm2, what, tol)


def left_mult_correspondence(rho: Sequence[StarMap], memo: BuildMemo) -> list[CPMap]:
    """rho[s] followed by left multiplication: B -> L(C as a module over
    itself), for each star map, built once per rho content in the memo; maps
    into one C share the process's C over itself."""

    def build(todo: list[int]) -> list[CPMap]:
        return [
            CPMap(r.domain, algebra_module(r.codomain), left_images(r.matrix, r.codomain))
            for r in (rho[s] for s in todo)
        ]

    return memo.get_all([("left_mult", r.key) for r in rho], build)


def left_images(rho: np.ndarray, C: AlgebraShape) -> np.ndarray:
    """Images (dim B, dim C, dim C) on C over itself of left multiplication by
    rho(u_b), rho (dim C, dim B) the matrix of a map B -> C."""
    T = C.product_table
    p, q = np.nonzero(T >= 0)
    images = np.zeros((rho.shape[1], C.dim, C.dim), dtype=complex)
    images[:, T[p, q], q] = rho[p].T  # rho(u_b) u_q = sum_p rho_pb u_p u_q
    return images


def left_multiplication(A: AlgebraShape) -> np.ndarray:
    """Left multiplication x -> u_p x by each matrix unit of A on A over itself
    (algebra_module(A)), the images of left_mult_correspondence along A's
    identity: one read-only stack per block sizes, shared by the process."""

    return structure(("left_multiplication", A.blocks),
                     lambda: read_only(left_images(np.eye(A.dim), A))[0])


# -- generation ------------------------------------------------------------


def intertwining_rows(X2: np.ndarray, X1: np.ndarray) -> np.ndarray:
    """Rows of eta X1[p] - X2[p] eta = 0 over stacks X2 (P, d2, d2) and X1
    (P, d1, d1), eta (d2, d1) flattened row-major: per p the block
    kron(I, X1[p].T) - kron(X2[p], I), all built by one broadcast product."""
    P, d2, d1 = X2.shape[0], X2.shape[-1], X1.shape[-1]
    eye1, eye2 = np.eye(d1, dtype=complex), np.eye(d2, dtype=complex)
    right = eye2[None, :, None, :, None] * X1.transpose(0, 2, 1)[:, None, :, None, :]
    left = X2[:, :, None, :, None] * eye1[None, None, :, None, :]
    return (right - left).reshape(P * d2 * d1, d2 * d1)


def adjointable_commutant_basis(E: HilbertModule, tol: Tolerance) -> np.ndarray:
    """Hilbert-Schmidt-orthonormal basis of the realized commutant of the action.

    The commutant of the realized right action equals the realization of
    L(E); projecting onto it is the trace-preserving conditional expectation,
    which is completely positive and unital.
    """
    R = E.gram_sqrt @ E.action @ E.gram_isqrt
    null = null_space(intertwining_rows(R, R), max(1.0, max_operator_norm(R)), tol)
    return null.reshape(len(null), E.dim, E.dim)


def commutant_project(basis: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt orthogonal projections of the matrices X (..., d, d)
    onto span(basis)."""
    coeffs = np.einsum("kij,...ij->...k", basis.conj(), X)
    return np.einsum("...k,kij->...ij", coeffs, basis)


def random_cp(A: AlgebraShape, E: HilbertModule, seed) -> CPMap:
    """Choi-sampled CP map with B-linear images, deterministic per seed.

    A random PSD Choi block per summand of A defines a CP map into B(H);
    composing with the conditional expectation onto the realized commutant
    of the action (itself CP and unital) lands the images in L(E).
    """
    rng = np.random.default_rng(seed)
    d = E.dim
    basis = adjointable_commutant_basis(E, GENERATION_TOL)
    images = np.zeros((A.dim, d, d), dtype=complex)
    for i, n in enumerate(A.blocks):
        m = n * d
        Y = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
        C = Y @ Y.conj().T
        if m:
            C = C / max(svd_norm(C), 1.0)
        # the (k, l) blocks as views of C: einsum's summation order follows strides
        blocks = C.reshape(n, d, n, d).transpose(0, 2, 1, 3)
        o = A.offsets[i]
        images[o : o + n * n] = commutant_project(basis, blocks).reshape(n * n, d, d)
    return CPMap(A, E, E.gram_isqrt @ images @ E.gram_sqrt)


def random_blinear_unitary(E: HilbertModule, rng: np.random.Generator) -> ModuleMap:
    """Random unitary in L(E), generated as exp(i H) for H Hermitian in L(E).

    H is built from rank-one operators theta_{x,y}, which span L(E) in finite
    dimension, so the resulting unitaries genuinely explore the commutant.
    """
    d = E.dim
    if d == 0:
        return identity_map(E)
    # Z[k] = (Re x_k, Im x_k, Re y_k, Im y_k), the order of drawing x_k, y_k in turn
    Z = rng.standard_normal((max(2, d), 4, d))
    V = (Z[:, 0::2] + 1j * Z[:, 1::2]) / np.sqrt(2.0)
    X = rank_one_sum(E, V[:, 0], V[:, 1]).matrix
    Xr = E.gram_sqrt @ X @ E.gram_isqrt
    H = (Xr + Xr.conj().T) / 2.0
    H = H / max(svd_norm(H), 1.0)
    return ModuleMap(E, E, E.gram_isqrt @ herm_expi(H, GENERATION_TOL) @ E.gram_sqrt)


# -- intertwiners ----------------------------------------------------------


@dataclass(eq=False)
class Intertwiner:
    """Morphism data (eta, alpha) with phi_2(alpha(a)) eta = eta phi_1(a).
    Equality is identity, since the fields hold arrays."""

    eta: ModuleMap
    alpha: Automorphism

    @cached_property
    def norm(self) -> float:
        return module_operator_norm(self.eta)


def compose_intertwiners(outer: Intertwiner, inner: Intertwiner) -> Intertwiner:
    return Intertwiner(
        compose_maps(outer.eta, inner.eta),
        compose_automorphisms(outer.alpha, inner.alpha),
    )


def intertwiner_space(
    phi1: CPMap, phi2: CPMap, alpha: Automorphism, tol: Tolerance
) -> list[ModuleMap]:
    """Basis of {eta B-linear : phi2(alpha(a)) eta = eta phi1(a) for all a}.

    Solved as the numerical kernel of the stacked linear constraint system;
    an empty basis is legal (only eta = 0 intertwines).  An alpha on another
    algebra than phi1's raises ShapeMismatch.
    """
    if phi1.algebra != phi2.algebra:
        raise ShapeMismatch("maps over different algebras")
    if alpha.shape != phi1.algebra:
        raise ShapeMismatch("alpha acts on another algebra than phi1's")
    E1, E2 = phi1.module, phi2.module
    if E1.algebra != E2.algebra:
        raise ShapeMismatch("modules over different coefficient algebras")
    twisted = np.einsum("qp,qij->pij", alpha.matrix, phi2.images)
    systems = [(E2.action, E1.action), (twisted, phi1.images)]
    scale = max(1.0, *max_operator_norms(*(X for pair in systems for X in pair)))
    null = null_space(np.vstack([intertwining_rows(*pair) for pair in systems]), scale, tol)
    return [ModuleMap(E1, E2, v.reshape(E2.dim, E1.dim)) for v in null]


def check_morphism(
    ms: Sequence[Intertwiner], phi1: Sequence[CPMap], phi2: Sequence[CPMap], tol: Tolerance
) -> list[list[tuple]]:
    """The records of the intertwining condition and its consequences,
    one per intertwiner ms[s] from phi1[s] to phi2[s] of a stack of one shape:
    one stacked product and one batched norm per residual shape, and one for
    the norms of the etas not yet known.

    Records the defining residual, the adjoint-side residual
    eta* phi2(alpha(a)) - phi1(a) eta*, and the commutation [phi1(a), eta* eta].
    An eta whose source is not, in content, phi1's module or whose target is
    not phi2's, or an alpha on another algebra than phi1's, raises ShapeMismatch.
    """
    if any(m.alpha.shape != p.algebra for m, p in zip(ms, phi1)):
        raise ShapeMismatch("alpha acts on another algebra than phi1's")
    if any(not same_module(m.eta.source, p.module) for m, p in zip(ms, phi1)):
        raise ShapeMismatch("morphism source module mismatch")
    if any(not same_module(m.eta.target, p.module) for m, p in zip(ms, phi2)):
        raise ShapeMismatch("morphism target module mismatch")
    fresh = [m for m in ms if "norm" not in vars(m)]
    for m, norm in zip(fresh, module_operator_norms([m.eta for m in fresh]) if fresh else []):
        vars(m)["norm"] = float(norm)
    eta = stack_slices([m.eta.matrix for m in ms])[:, None]
    eta_star = adjoint_matrices([m.eta for m in ms])[:, None]
    gram = eta_star @ eta
    twisted = stack_slices(
        [np.einsum("qp,qij->pij", m.alpha.matrix, p.images) for m, p in zip(ms, phi2)]
    )
    X1 = stack_slices([p.images for p in phi1])
    gaps = (twisted @ eta - eta @ X1, eta_star @ twisted - X1 @ eta_star, X1 @ gram - gram @ X1)
    residuals = max_operator_norms(*(D for gap in gaps for D in gap)).reshape(3, len(ms))
    gates = [
        tol.ctol * (1.0 + m.norm**2) * (1.0 + p1.norm + p2.norm)
        for m, p1, p2 in zip(ms, phi1, phi2)
    ]
    return [
        [("morphism", a, gate), ("morphism_adjoint", b, gate), ("morphism_commutant", c, gate)]
        for (a, b, c), gate in zip(residuals.T.tolist(), gates)
    ]


def hom_pseudometric(
    ms: list[Intertwiner], ref: Intertwiner, X: np.ndarray, C: np.ndarray
) -> np.ndarray:
    """d_{x,a}(m, ref) = ||eta(x) - xi(x)|| + ||alpha(a) - alpha'(a)|| for each
    morphism m = (eta, alpha) of ms, with ref = (xi, alpha'), and each sample
    (x, a): the rows x of X (R, d) with the coefficient rows a of C (R, dim A).
    Shape (len(ms), R), from one batched norm per block of each algebra."""
    eta0, alpha0 = ref.eta.matrix, ref.alpha.matrix
    if any(m.eta.matrix.shape != eta0.shape or m.alpha.shape != ref.alpha.shape for m in ms):
        raise ShapeMismatch("morphisms between different objects")
    # (len(ms), 1, ...) stacks, broadcast against the samples
    etas = np.array([m.eta.matrix for m in ms], complex).reshape(len(ms), 1, *eta0.shape)
    alphas = np.array([m.alpha.matrix for m in ms], complex).reshape(len(ms), 1, *alpha0.shape)
    vec_part = ref.eta.target.vector_norm(matvecs(etas, X) - matvecs(eta0, X))
    return vec_part + element_norms(ref.alpha.shape, matvecs(alphas, C) - ref.alpha(C))
