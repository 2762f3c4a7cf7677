"""Completely positive maps into adjointable operators of a Hilbert module.

A CPMap phi: A -> L(E) is stored through its images on the matrix-unit basis
of A.  Complete positivity is certified blockwise by the Choi criterion,
evaluated through the faithful Hilbert-space realization of L(E): for each
block M_n of A the n*d x n*d matrix sum_{kl} E_kl (x) realize(phi(E_kl))
must be PSD.  Complete positivity on a direct sum decomposes summand-wise.

Every map here is strict for free: the algebras are unital, so approximate
units collapse to evaluation at 1.  The `strict` flag exists only so that
serialized instances stay honest about that hypothesis.

The interior tensor product along a CP map, and T (x) I on it, live here,
below ksgns (F_phi = A (x)_phi E) and poscor (tensoring along rho).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cstar import (
    AlgebraElement,
    AlgebraShape,
    Automorphism,
    StarMap,
    unit_element,
    zero_padded,
)
from .errors import NonLinearMap, ShapeMismatch
from .hilbert import (
    HilbertModule,
    ModuleMap,
    PreModule,
    Quotient,
    adjoint_map,
    algebra_module,
    compose_maps,
    descend,
    identity_map,
    module_operator_norm,
    quotient_by_null,
    rank_one_sum,
    same_module,
)
from .numkernel import (
    DEFAULT_TOL,
    Tolerance,
    herm_expi,
    max_operator_norm,
    operator_norm,
    psd_verdict,
)
from .reporting import CheckReport


@dataclass
class CPMap:
    """Linear map A -> L(E) given by images on the matrix-unit basis of A."""

    algebra: AlgebraShape
    module: HilbertModule
    images: np.ndarray  # (dim_A, d, d)
    strict: bool = True  # automatic in the unital model; kept for honesty

    def __post_init__(self) -> None:
        d = self.module.dim
        self.images = np.asarray(self.images, dtype=complex)
        if self.images.shape != (self.algebra.dim, d, d):
            raise ShapeMismatch(
                f"images {self.images.shape} != {(self.algebra.dim, d, d)}"
            )

    def __call__(self, a: AlgebraElement) -> ModuleMap:
        if a.shape != self.algebra:
            raise ShapeMismatch("argument outside the map's domain algebra")
        mat = np.einsum("p,pij->ij", a.coeffs(), self.images)
        return ModuleMap(self.module, self.module, mat)

    @cached_property
    def norm(self) -> float:
        """max over basis images of the L(E) norm; the scale of the map."""
        return max_operator_norm(self.module.gram_sqrt @ self.images @ self.module.gram_isqrt)

    def linearity_residual(self) -> float:
        """max over basis images X and B-basis elements b of ||X R(b) - R(b) X||."""
        X, R = self.images[:, None], self.module.action
        return max_operator_norm(X @ R - R @ X)

    def hermiticity_residual(self) -> float:
        """max over basis of ||phi(u*) - phi(u)*||."""
        E = self.module
        adj = E.gram_inv @ self.images.conj().transpose(0, 2, 1) @ E.gram_matrix
        diff = self.images[self.algebra.star_permutation()] - adj
        return max_operator_norm(E.gram_sqrt @ diff @ E.gram_isqrt)


class Correspondence(CPMap):
    """CPMap whose images are multiplicative and unital (a *-homomorphism)."""


def check_correspondence(pi: CPMap, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Multiplicativity and unitality residuals for a would-be representation."""
    rep = CheckReport()
    A = pi.algebra
    scale = 1.0 + pi.norm**2
    # pi(u_p u_r) - pi(u_p) pi(u_r), one p at a time over all r
    T, Xz = A.product_table, zero_padded(pi.images)
    mult = max(
        max_operator_norm(Xz[T[p]] - pi.images[p] @ pi.images) for p in range(A.dim)
    )
    unital = operator_norm(pi(unit_element(A)).matrix - np.eye(pi.module.dim))
    rep.add("multiplicativity", mult, tol.ctol * scale)
    rep.add("unitality", unital, tol.ctol * scale)
    return rep


def choi_blocks(phi: CPMap) -> list[np.ndarray]:
    """Per A-block Choi matrices sum_{kl} E_kl (x) realize(phi(E_kl))."""
    out = []
    d = phi.module.dim
    S, Si = phi.module.gram_sqrt, phi.module.gram_isqrt
    for i, n in enumerate(phi.algebra.blocks):
        C = np.zeros((n * d, n * d), dtype=complex)
        for k in range(n):
            for l in range(n):
                img = phi.images[phi.algebra.basis_index(i, k, l)]
                C[k * d : (k + 1) * d, l * d : (l + 1) * d] = S @ img @ Si
        out.append(C)
    return out


def check_cp(phi: CPMap, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, list[float]]:
    """Choi certificate: (is_cp, minimum Choi eigenvalue per A-block).

    Raises NonLinearMap when the images fail B-linearity, since the Choi
    criterion is only meaningful for maps into L(E).
    """
    lin = phi.linearity_residual()
    if lin > tol.ctol * (1.0 + phi.norm):
        raise NonLinearMap(f"images fail B-linearity (residual {lin:.3e})")
    verdicts = [psd_verdict(C, tol) for C in choi_blocks(phi)]
    return all(ok for ok, _ in verdicts), [w0 for _, w0 in verdicts]


# -- interior tensor product -------------------------------------------------


@dataclass
class TensorModule(Quotient):
    """E (x)_pi F: the quotient of tensor_premodule and the ingredients that built it."""

    left: HilbertModule
    right: HilbertModule
    pi: CPMap

    @property
    def factor_dims(self) -> tuple[int, int]:
        return self.left.dim, self.right.dim


def tensor_premodule(E: HilbertModule, F: HilbertModule, pi: CPMap) -> PreModule:
    """Pre-module on {e_i (x) f_j} along a completely positive pi: B -> L(F),
    with pairing <e_i (x) f_j, e_k (x) f_l> = <f_j, pi(<e_i, e_k>_E) f_l>_F and
    C acting on the F slot."""
    if pi.algebra != E.algebra:
        raise ShapeMismatch("representation domain differs from E's coefficients")
    if not same_module(pi.module, F):
        raise ShapeMismatch("representation does not act on F")
    dE, dF = E.dim, F.dim
    # N[i, k] = pi(<e_i, e_k>_E) as a matrix on F
    coeffs = (
        np.concatenate([P.reshape(dE, dE, -1) for P in E.pairing], axis=2)
        if dE
        else np.zeros((0, 0, E.algebra.dim))
    )
    N = np.einsum("ikp,pxy->ikxy", coeffs, pi.images, optimize=True)
    action = np.kron(np.eye(dE, dtype=complex), F.action)  # I (x) R(u_c) for each c
    pairing = [
        np.einsum("ikml,jmxy->ijklxy", N, P, optimize=True).reshape(dE * dF, dE * dF, *P.shape[2:])
        for P in F.pairing
    ]
    return PreModule(F.algebra, dE * dF, action, pairing)


def interior_tensor(
    E: HilbertModule, F: HilbertModule, pi: CPMap, tol: Tolerance = DEFAULT_TOL
) -> TensorModule:
    """Interior tensor product E (x)_pi F: the quotient of tensor_premodule by
    its null space.  Along a representation pi this is the tensor product of
    correspondences; with E = A over itself and pi a CP map it is the KSGNS
    space F_pi = A (x)_pi F (Lance, Hilbert C*-Modules, ch. 4-5)."""
    quot = quotient_by_null(tensor_premodule(E, F, pi), tol)
    return TensorModule(quot.module, quot.q, quot.s, quot.kernel, E, F, pi)


def tensor_extend(
    T: np.ndarray, tm1: TensorModule, tm2: TensorModule, what: str, tol: Tolerance
) -> np.ndarray:
    """T (x) I on the quotients for each map of a stack T (..., d2, d1) from
    tm1's left factor to tm2's; the right factors must agree.  A leak raises
    WellDefinednessViolation naming `what`."""
    dF = tm1.right.dim
    if tm2.right.dim != dF:
        raise ShapeMismatch("tensor modules with different right factors")
    return descend(np.kron(T, np.eye(dF, dtype=complex)), tm1, tm2, what, tol)


def left_mult_correspondence(rho: StarMap) -> Correspondence:
    """rho followed by left multiplication: B -> L(C as a module over itself)."""
    C_mod = algebra_module(rho.codomain)
    T = rho.codomain.product_table
    p, r = np.nonzero(T >= 0)
    images = np.zeros((rho.domain.dim, C_mod.dim, C_mod.dim), dtype=complex)
    images[:, T[p, r], r] = rho.matrix[p].T  # rho(u_b) u_r = sum_p rho_pb u_p u_r
    return Correspondence(rho.domain, C_mod, images)


# -- generation ------------------------------------------------------------


def _constraint_null_space(K: np.ndarray, scale: float, tol: Tolerance) -> np.ndarray:
    """Numerical kernel of a stacked constraint matrix.

    The cutoff is relative to max(sigma_max, scale) so that a constraint
    system that is pure rounding noise (all coefficients ~eps while the
    operators that built it are order `scale`) reads as the zero system.
    """
    _, svals, Vh = np.linalg.svd(K)
    top = float(svals[0]) if svals.size else 0.0
    cutoff = tol.rtol * max(top, scale)
    mask = np.concatenate([svals <= cutoff, np.ones(Vh.shape[0] - svals.size, bool)])
    return Vh[mask].conj()


def adjointable_commutant_basis(E: HilbertModule, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hilbert-Schmidt-orthonormal basis of the realized commutant of the action.

    The commutant of the realized right action equals the realization of
    L(E); projecting onto it is the trace-preserving conditional expectation,
    which is completely positive and unital.
    """
    d = E.dim
    if d == 0:
        return np.zeros((0, 0, 0), dtype=complex)
    eye = np.eye(d, dtype=complex)
    rows = []
    scale = 1.0
    for p in range(E.algebra.dim):
        R = E.gram_sqrt @ E.action[p] @ E.gram_isqrt
        scale = max(scale, operator_norm(R))
        rows.append(np.kron(eye, R.T) - np.kron(R, eye))
    null = _constraint_null_space(np.vstack(rows), scale, tol)
    return null.reshape(-1, d, d)


def commutant_project(basis: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt orthogonal projection onto span(basis)."""
    coeffs = np.einsum("kij,ij->k", basis.conj(), X)
    return np.einsum("k,kij->ij", coeffs, basis)


def random_cp(A: AlgebraShape, E: HilbertModule, seed) -> CPMap:
    """Choi-sampled CP map with B-linear images, deterministic per seed.

    A random PSD Choi block per summand of A defines a CP map into B(H);
    composing with the conditional expectation onto the realized commutant
    of the action (itself CP and unital) lands the images in L(E).
    """
    rng = np.random.default_rng(seed)
    d = E.dim
    basis = adjointable_commutant_basis(E)
    images = np.zeros((A.dim, d, d), dtype=complex)
    for i, n in enumerate(A.blocks):
        m = n * d
        Y = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
        C = Y @ Y.conj().T
        if m:
            C = C / max(operator_norm(C), 1.0)
        for k in range(n):
            for l in range(n):
                block = C[k * d : (k + 1) * d, l * d : (l + 1) * d]
                proj = commutant_project(basis, block)
                images[A.basis_index(i, k, l)] = E.gram_isqrt @ proj @ E.gram_sqrt
    return CPMap(A, E, images)


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
    H = H / max(operator_norm(H), 1.0)
    return ModuleMap(E, E, E.gram_isqrt @ herm_expi(H) @ E.gram_sqrt)


# -- intertwiners ----------------------------------------------------------


@dataclass
class Intertwiner:
    """Morphism data (eta, alpha) with phi_2(alpha(a)) eta = eta phi_1(a)."""

    eta: ModuleMap
    alpha: Automorphism

    @property
    def norm(self) -> float:
        return module_operator_norm(self.eta)


def compose_intertwiners(outer: Intertwiner, inner: Intertwiner) -> Intertwiner:
    from .cstar import compose_automorphisms

    return Intertwiner(
        compose_maps(outer.eta, inner.eta),
        compose_automorphisms(outer.alpha, inner.alpha),
    )


def intertwiner_space(
    phi1: CPMap, phi2: CPMap, alpha: Automorphism, tol: Tolerance = DEFAULT_TOL
) -> list[ModuleMap]:
    """Basis of {eta B-linear : phi2(alpha(a)) eta = eta phi1(a) for all a}.

    Solved as the numerical kernel of the stacked linear constraint system;
    an empty basis is legal (only eta = 0 intertwines).
    """
    if phi1.algebra != phi2.algebra:
        raise ShapeMismatch("maps over different algebras")
    E1, E2 = phi1.module, phi2.module
    if E1.algebra != E2.algebra:
        raise ShapeMismatch("modules over different coefficient algebras")
    d1, d2 = E1.dim, E2.dim
    if d1 == 0 or d2 == 0:
        return []
    amat = alpha.matrix
    eye1, eye2 = np.eye(d1, dtype=complex), np.eye(d2, dtype=complex)
    scale = 1.0
    rows = []
    for p in range(E1.algebra.dim):
        scale = max(scale, operator_norm(E1.action[p]), operator_norm(E2.action[p]))
        rows.append(np.kron(eye2, E1.action[p].T) - np.kron(E2.action[p], eye1))
    for p in range(phi1.algebra.dim):
        twisted = np.einsum("q,qij->ij", amat[:, p], phi2.images)
        scale = max(scale, operator_norm(twisted), operator_norm(phi1.images[p]))
        rows.append(np.kron(twisted, eye1) - np.kron(eye2, phi1.images[p].T))
    null = _constraint_null_space(np.vstack(rows), scale, tol)
    return [ModuleMap(E1, E2, v.reshape(d2, d1)) for v in null]


def check_morphism(
    m: Intertwiner, phi1: CPMap, phi2: CPMap, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """Residual report for the intertwining condition and its consequences.

    Reports the defining residual, the adjoint-side residual
    eta* phi2(alpha(a)) - phi1(a) eta*, and the commutation [phi1(a), eta* eta].
    """
    if not same_module(m.eta.source, phi1.module):
        raise ShapeMismatch("morphism source module mismatch")
    rep = CheckReport()
    eta = m.eta.matrix
    eta_star = adjoint_map(m.eta).matrix
    amat = m.alpha.matrix
    norm_eta = m.norm
    gate = tol.ctol * (1.0 + norm_eta**2) * (1.0 + phi1.norm + phi2.norm)
    gram = eta_star @ eta
    twisted = np.einsum("qp,qij->pij", amat, phi2.images)
    inter = max_operator_norm(twisted @ eta - eta @ phi1.images)
    adj_side = max_operator_norm(eta_star @ twisted - phi1.images @ eta_star)
    commute = max_operator_norm(phi1.images @ gram - gram @ phi1.images)
    rep.add("intertwining", inter, gate)
    rep.add("adjoint_intertwining", adj_side, gate)
    rep.add("gram_commutation", commute, gate)
    return rep


def hom_pseudometric(
    m1: Intertwiner, m2: Intertwiner, x: np.ndarray, a: AlgebraElement
) -> float:
    """d_{x,a} = ||eta(x) - xi(x)|| + ||alpha(a) - alpha'(a)||."""
    if m1.eta.source.dim != m2.eta.source.dim or m1.eta.target.dim != m2.eta.target.dim:
        raise ShapeMismatch("morphisms between different objects")
    target = m1.eta.target
    vec_part = target.vector_norm(m1.eta(x) - m2.eta(x))
    alg_part = (m1.alpha(a) - m2.alpha(a)).norm()
    return float(vec_part + alg_part)
