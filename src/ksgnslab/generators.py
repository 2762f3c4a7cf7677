"""Seeded instance generators shared by the harness and the test suite.

Modules and representations are generated in a canonical form where every
right module over B = (+)_t M_{m_t} is a sum of row spaces C^{r_t x m_t}
and every unital representation is a multiplicity embedding conjugated by a
random unitary; a random well-conditioned coordinate change then hides the
canonical form so downstream code never sees identity Gram matrices.
"""

from __future__ import annotations

import numpy as np

from .cp import CPMap, Intertwiner, intertwiner_space, random_cp
from .cstar import (
    AlgebraShape,
    Automorphism,
    StarMap,
    block_diag,
    block_stacks,
    haar_unitary,
    identity_automorphism,
    identity_star_map,
    random_automorphism,
    random_element,
)
from .errors import InvalidConfig
from .hilbert import HilbertModule, ModuleMap, adjoint_map, canonical_module
from .memo import BuildMemo
from .numkernel import GENERATION_TOL, Tolerance, kron, svd_norm
from .poscor import (
    PosCorMorphism,
    PosCorObject,
    inclusion_unitary,
    interior_tensor_along,
    make_poscor_morphism,
    tensor_extend_cpmap,
)
from .equivariant import scramble_module


SHAPE_MENU: tuple[tuple[int, ...], ...] = ((1,), (2,), (3,), (2, 2), (1, 2))


def random_shape(rng: np.random.Generator, max_blocks: int = 2, max_block: int = 3) -> AlgebraShape:
    menu = [s for s in SHAPE_MENU if len(s) <= max_blocks and max(s) <= max_block]
    if not menu:
        raise InvalidConfig("size caps rule out every algebra shape")
    return AlgebraShape(menu[rng.integers(len(menu))])


def random_rows(
    B: AlgebraShape, rng: np.random.Generator, max_dim: int, min_dim: int = 1
) -> tuple[int, ...]:
    """Row counts with min_dim <= sum r_t m_t <= max_dim (not all zero)."""
    if min_dim > max_dim or max_dim < min(B.blocks):
        raise InvalidConfig(f"no module of dimension within [{min_dim}, {max_dim}]")
    for _ in range(256):
        rows = tuple(int(rng.integers(0, max_dim // m + 1)) for m in B.blocks)
        d = sum(r * m for r, m in zip(rows, B.blocks))
        if min_dim <= d <= max_dim and any(rows):
            return rows
    # fall back to a single row in the smallest block
    t = int(np.argmin(B.blocks))
    return tuple(1 if i == t else 0 for i in range(len(B.blocks)))


def random_module(
    B: AlgebraShape, rng: np.random.Generator, max_dim: int, min_dim: int = 1
) -> HilbertModule:
    rows = random_rows(B, rng, max_dim, min_dim)
    module, _ = scramble_module(canonical_module(B, rows), rng)
    return module


def multiplicity_embedding(
    blocks: list[np.ndarray], counts: tuple[int, ...], W: np.ndarray
) -> np.ndarray:
    """W diag(blocks[0] x counts[0], blocks[1] x counts[1], ...) W*: each block
    (or stack of blocks) repeated its count times along the diagonal, then conjugated by W."""
    D = block_diag([b for b, count in zip(blocks, counts) for _ in range(count)])
    return W @ D @ W.conj().T


def random_star_map(
    B: AlgebraShape, rng: np.random.Generator, max_block: int = 4, max_out_blocks: int = 2
) -> StarMap:
    """Random unital *-homomorphism out of B, into the algebra built from
    random multiplicities nu with block sizes p_u = sum_t nu[u][t] m_t."""
    n_out = int(rng.integers(1, max_out_blocks + 1))
    multiplicities = []
    for _ in range(n_out):
        for _ in range(64):
            nu = tuple(int(rng.integers(0, 3)) for _ in B.blocks)
            size = sum(n * m for n, m in zip(nu, B.blocks))
            if 1 <= size <= max_block:
                multiplicities.append(nu)
                break
        else:
            multiplicities.append(
                tuple(1 if i == int(np.argmin(B.blocks)) else 0 for i in range(len(B.blocks)))
            )
    C = AlgebraShape(tuple(sum(n * m for n, m in zip(nu, B.blocks)) for nu in multiplicities))
    conjugators = [haar_unitary(p, rng) for p in C.blocks]
    # the images of all the matrix units of B, one stack per block of C
    units = block_stacks(B, np.eye(B.dim, dtype=complex))
    images = [
        multiplicity_embedding(units, nu, W).reshape(B.dim, -1)
        for nu, W in zip(multiplicities, conjugators)
    ]
    return StarMap(B, C, np.concatenate(images, axis=1).T)


def random_representation(
    A: AlgebraShape, B: AlgebraShape, rng: np.random.Generator, max_dim: int
) -> tuple[HilbertModule, CPMap]:
    """A module F over B with a unital *-representation pi: A -> L(F).

    Row counts are r_t = sum_i mu[t][i] n_i, so a multiplicity embedding of A
    acts blockwise on the row spaces; everything is then scrambled.
    """
    for _ in range(256):
        mu = [
            tuple(int(rng.integers(0, 3)) for _ in A.blocks) for _ in B.blocks
        ]
        rows = tuple(sum(m * n for m, n in zip(mu_t, A.blocks)) for mu_t in mu)
        d = sum(r * m for r, m in zip(rows, B.blocks))
        if 0 < d <= max_dim:
            break
    else:
        # one copy of the smallest A-block inside the smallest B-block
        t = int(np.argmin(B.blocks))
        i = int(np.argmin(A.blocks))
        if A.blocks[i] * B.blocks[t] > max_dim:
            raise InvalidConfig(f"cannot fit a representation within dimension {max_dim}")
        mu = [
            tuple((1 if (t2 == t and i2 == i) else 0) for i2 in range(len(A.blocks)))
            for t2 in range(len(B.blocks))
        ]
        rows = tuple(sum(m * n for m, n in zip(mu_t, A.blocks)) for mu_t in mu)
    F0 = canonical_module(B, rows)
    conjugators = [haar_unitary(r, rng) for r in rows]
    # the multiplicity embedding acts on the row index of each C^{r_t x m_t},
    # for all the matrix units of A at once
    units = block_stacks(A, np.eye(A.dim, dtype=complex))
    images = block_diag(
        [
            kron(multiplicity_embedding(units, nu, W), np.eye(m, dtype=complex))
            for nu, W, m in zip(mu, conjugators, B.blocks)
        ]
    )
    F, S = scramble_module(F0, rng)
    return F, CPMap(A, F, np.linalg.inv(S) @ images @ S)


def conjugate_cp(
    phi: CPMap, W: ModuleMap, alpha: Automorphism
) -> CPMap:
    """psi(a) = W phi(alpha^{-1}(a)) W* on W's target module; (W, alpha) then
    intertwines phi and psi when W is unitary."""
    Ws = adjoint_map(W).matrix
    moved = np.einsum("qp,qij->pij", alpha.inverse_matrix, phi.images)
    return CPMap(phi.algebra, W.target, W.matrix @ moved @ Ws)


def random_intertwiner(
    phi1: CPMap, phi2: CPMap, alpha: Automorphism, rng: np.random.Generator, tol: Tolerance
) -> tuple[ModuleMap, float]:
    """A random element eta of the solved intertwiner space of (phi1, phi2, alpha),
    complex Gaussian in its basis, with its module norm."""
    basis = intertwiner_space(phi1, phi2, alpha, tol)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    mat = sum(
        (c * b.matrix for c, b in zip(coeffs, basis)),
        start=np.zeros((phi2.module.dim, phi1.module.dim), dtype=complex),
    )
    eta = ModuleMap(phi1.module, phi2.module, mat)
    return eta, svd_norm(eta.target.gram_sqrt @ mat @ eta.source.gram_isqrt)


def transported_copy(
    E: HilbertModule, phi: CPMap, rng: np.random.Generator
) -> tuple[HilbertModule, CPMap, Intertwiner]:
    """A transported copy (E', phi') of (E, phi) with the unitary morphism
    (W, alpha): (E, phi) -> (E', phi'), where W is the transport unitary and
    phi' = W phi(alpha^{-1}(-)) W* for a random automorphism alpha."""
    E2, S = scramble_module(E, rng)
    W = ModuleMap(E, E2, np.linalg.inv(S))
    alpha = random_automorphism(phi.algebra, rng)
    return E2, conjugate_cp(phi, W, alpha), Intertwiner(W, alpha)


def extend_morphism(
    E: HilbertModule, phi: CPMap, rng: np.random.Generator, tol: Tolerance
) -> tuple[HilbertModule, CPMap, Intertwiner]:
    """A transported copy (E', phi') of (E, phi) with a random element eta of
    the solved intertwiner space as the morphism, or the transport unitary
    when that space is zero."""
    E2, phi2, unitary = transported_copy(E, phi, rng)
    eta, norm = random_intertwiner(phi, phi2, unitary.alpha, rng, tol)
    if norm > 1e-9:
        eta = ModuleMap(E, E2, eta.matrix / norm * (0.5 + rng.uniform()))
    else:
        eta = unitary.eta
    return E2, phi2, Intertwiner(eta, unitary.alpha)


def random_morphism_pair(
    A: AlgebraShape, B: AlgebraShape, rng: np.random.Generator, max_dim: int
) -> tuple[HilbertModule, CPMap, HilbertModule, CPMap, Intertwiner]:
    """(E1, phi1) with E1 of dimension at most max_dim, (E2, phi2) and an
    intertwiner between them."""
    E1 = random_module(B, rng, max_dim)
    phi1 = random_cp(A, E1, rng)
    E2, phi2, m = extend_morphism(E1, phi1, rng, GENERATION_TOL)
    return E1, phi1, E2, phi2, m


def random_object(
    ident: str, A: AlgebraShape, B: AlgebraShape, rng: np.random.Generator, max_dim: int
) -> PosCorObject:
    E = random_module(B, rng, max_dim)
    return PosCorObject(ident, A, B, E, random_cp(A, E, rng))


def random_morphism_to_new_object(
    dom: PosCorObject,
    ident: str,
    rng: np.random.Generator,
    tol: Tolerance,
    memo: BuildMemo,
    max_block: int = 3,
    max_out_blocks: int = 2,
    max_dim: int = 12,
) -> tuple[PosCorObject, PosCorMorphism]:
    """Extend a diagram: pick rho out of dom's coefficients, tensor, and make
    the codomain a transported copy of the tensor so that the transport is a
    unitary morphism component."""
    rho = random_star_map(dom.coefficient, rng, max_block=max_block, max_out_blocks=max_out_blocks)
    for _ in range(32):
        if dom.module.dim * rho.codomain.dim <= max_dim:
            break
        rho = random_star_map(dom.coefficient, rng, max_block=max_block, max_out_blocks=max_out_blocks)
    tensor = interior_tensor_along([dom.module], [rho], tol, memo)[0]
    phi_ext = tensor_extend_cpmap([dom.phi], [tensor], tol, memo)[0]
    E2, psi, unitary = transported_copy(tensor.module, phi_ext, rng)
    cod = PosCorObject(ident, dom.input_algebra, rho.codomain, E2, psi)
    morphism = make_poscor_morphism(
        [dom], [cod], [rho], [unitary.eta], [unitary.alpha], tol, memo
    )[0]
    return cod, morphism


def random_endomorphism(
    obj: PosCorObject, rng: np.random.Generator, tol: Tolerance, memo: BuildMemo
) -> PosCorMorphism:
    """An endomorphism of obj: a random element of the commutant of phi,
    composed with the inclusion unitary."""
    inc = inclusion_unitary(obj.module, tol, memo)
    ident = identity_automorphism(obj.input_algebra)
    eta, norm = random_intertwiner(obj.phi, obj.phi, ident, rng, tol)
    mat = eta.matrix
    if norm <= 1e-9:
        mat, norm = np.eye(obj.module.dim, dtype=complex), 1.0
    eta = ModuleMap(inc.tensor.module, obj.module, (mat / norm) @ inc.iota.matrix)
    inc = identity_star_map(obj.coefficient)
    return make_poscor_morphism([obj], [obj], [inc], [eta], [ident], tol, memo)[0]


def random_vectors(E: HilbertModule, rng: np.random.Generator, count: int) -> np.ndarray:
    """count random vectors of E as the rows of one (count, dim E) array."""
    rows = [
        (rng.standard_normal(E.dim) + 1j * rng.standard_normal(E.dim)) / np.sqrt(2.0)
        for _ in range(count)
    ]
    return np.array(rows, dtype=complex).reshape(count, E.dim)


def random_elements(A: AlgebraShape, rng: np.random.Generator, count: int) -> np.ndarray:
    """count random elements of A as coefficient rows, shape (count, dim A)."""
    rows = [random_element(A, rng).coeffs() for _ in range(count)]
    return np.array(rows, dtype=complex).reshape(count, A.dim)
