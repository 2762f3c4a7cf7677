"""Fixtures and test oracles: reference implementations the tests compare the
package against, and generators of planted cases the package never draws."""

import numpy as np
import pytest

from ksgnslab.cstar import (
    AlgebraElement,
    AlgebraShape,
    Automorphism,
    block_diag,
    unit_element,
    zero_padded,
)
from ksgnslab.errors import TwistMismatch
from ksgnslab.hilbert import (
    AlphaLinearMap,
    ModuleMap,
    PreModule,
    max_stacked_norm,
    pairing_coeffs,
)
from ksgnslab.numkernel import DEFAULT_TOL, Tolerance, max_operator_norm, operator_norm
from ksgnslab.poscor import TwistUnitary
from ksgnslab.reporting import CheckReport


@pytest.fixture
def tol():
    return Tolerance()


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


def random_complex(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


SMALL_SHAPES = [AlgebraShape((1,)), AlgebraShape((2,)), AlgebraShape((1, 2))]


# -- algebra ------------------------------------------------------------------


def left_mult_matrix(a: AlgebraElement) -> np.ndarray:
    """Matrix of x -> a x on matrix-unit coordinates (block diag of a_i kron I)."""
    return block_diag(
        [np.kron(b, np.eye(n, dtype=complex)) for b, n in zip(a.blocks, a.shape.blocks)]
    )


def right_mult_matrix(a: AlgebraElement) -> np.ndarray:
    """Matrix of x -> x a on matrix-unit coordinates (block diag of I kron a_i^T)."""
    return block_diag(
        [np.kron(np.eye(n, dtype=complex), b.T) for b, n in zip(a.blocks, a.shape.blocks)]
    )


# -- modules ------------------------------------------------------------------


def action_matrix(E: PreModule, b: AlgebraElement) -> np.ndarray:
    """R(b) = sum_p b_p R(u_p), the matrix of x -> x b on E."""
    return np.einsum("p,pij->ij", b.coeffs(), E.action)


def validate_premodule(pre: PreModule, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Residuals for the pre-module axioms.

    Checks pairing hermiticity <e_i,e_j> = <e_j,e_i>*, compatibility
    <x, y b> = <x, y> b on the basis, right-action anti-multiplicativity,
    unitality of the action, and PSD-ness of the scalarized Gram.
    """
    rep = CheckReport()
    B, d = pre.algebra, pre.dim
    scale = 1.0 + max((operator_norm(P.reshape(d * d, -1)) for P in pre.pairing), default=0.0)
    C = pairing_coeffs(pre, np.eye(d))
    # <e_i, e_j> - <e_j, e_i>*: coefficient p of a* is that of a at star(p), conjugated
    herm = np.abs(C - C.conj().transpose(2, 1, 0)[:, B.star_permutation()])
    rep.add("pairing_hermitian", float(np.max(herm, initial=0.0)), tol.ctol * scale)

    act_scale = max(1.0, max_operator_norm(pre.action))
    # <e_i, e_j u_p> - <e_i, e_j> u_p over all basis pairs (i, j); right
    # multiplication by u_p sends coefficient r to T[r, p]
    T = B.product_table
    r, p = np.nonzero(T >= 0)
    right_mult = np.zeros((B.dim, B.dim, B.dim), dtype=complex)
    right_mult[p, T[r, p], r] = 1.0
    compat = max(max_stacked_norm(B, C @ R - M @ C) for R, M in zip(pre.action, right_mult))
    rep.add("pairing_action_compat", compat, tol.ctol * scale * act_scale)

    # R(u_p u_r) = R(u_r) R(u_p), for each p over all r at once
    Az = zero_padded(pre.action)
    anti = max(max_operator_norm(Az[T[p]] - pre.action @ pre.action[p]) for p in range(B.dim))
    rep.add("action_antimultiplicative", anti, tol.ctol * (1.0 + act_scale**2))
    unital = operator_norm(action_matrix(pre, unit_element(B)) - np.eye(d))
    rep.add("action_unital", unital, tol.ctol * (1.0 + act_scale))

    G = pre.gram()
    if d:
        w = np.linalg.eigvalsh((G + G.conj().T) / 2.0)
        rep.add("gram_psd", max(0.0, -float(w[0])), tol.ctol * (1.0 + float(w[-1])))
    else:
        rep.add("gram_psd", 0.0, tol.ctol)
    return rep


def adjoint_identity_residual(m: ModuleMap, adj: ModuleMap) -> float:
    """Max over basis pairs of ||<T e_i, e_j>_tgt - <e_i, T* e_j>_src||."""
    lhs = pairing_coeffs(m.target, m.matrix.T)
    rhs = pairing_coeffs(m.source, np.eye(m.source.dim)) @ adj.matrix
    return max_stacked_norm(m.source.algebra, lhs - rhs)


# -- alpha-twisted maps -------------------------------------------------------


def twisted_linearity_residual(T: AlphaLinearMap) -> float:
    """max_p ||T R_src(u_p) - R_tgt(alpha(u_p)) T||: zero when T(x b) = T(x) alpha(b)."""
    twisted = np.einsum("qp,qij->pij", T.twist.matrix, T.target.action)
    return max_operator_norm(T.matrix @ T.source.action - twisted @ T.matrix)


def alpha_transport(
    T: AlphaLinearMap, twisted: TwistUnitary, tol: Tolerance = DEFAULT_TOL
) -> tuple[ModuleMap, TwistUnitary]:
    """Transport an alpha-adjointable map to a plain module map T . U on
    E_src (x)_alpha B, along the twist unitary of T's source and twist."""
    mismatch = operator_norm(twisted.alpha.matrix - T.twist.matrix)
    if mismatch > tol.ctol * (1.0 + operator_norm(T.twist.matrix)):
        raise TwistMismatch(f"twist automorphisms differ by {mismatch:.3e}")
    plain = ModuleMap(twisted.twisted.module, T.target, T.matrix @ twisted.unitary.matrix)
    return plain, twisted


def alpha_transport_inverse(
    S: ModuleMap, tw: TwistUnitary, alpha: Automorphism
) -> AlphaLinearMap:
    """Inverse transport: S -> S . U^{-1}, an alpha-linear map out of E."""
    U_inv = np.linalg.inv(tw.unitary.matrix)
    return AlphaLinearMap(tw.twisted.left, S.target, alpha, S.matrix @ U_inv)


# -- morphisms ----------------------------------------------------------------


def poscor_pseudometric(m1, m2, b: AlgebraElement, x: np.ndarray, a: AlgebraElement) -> float:
    """d_{b,x,a} = ||rho(b) - rho'(b)|| + ||(eta . V_rho)(x) - (xi . V_rho')(x)||
    + ||alpha(a) - alpha'(a)|| for parallel category morphisms m1, m2."""
    rho_part = (m1.rho(b) - m2.rho(b)).norm()
    vec_part = m1.cod.module.vector_norm(m1.pullback @ x - m2.pullback @ x)
    alpha_part = (m1.alpha(a) - m2.alpha(a)).norm()
    return float(rho_part + vec_part + alpha_part)
