"""Finite-dimensional C*-algebras: direct sums of full complex matrix blocks.

An algebra A = M_{n_1} (+) ... (+) M_{n_k} is presented by its block sizes.
The matrix-unit basis is ordered block by block, row-major inside each block.
Families of elements travel as coefficient stacks (..., dim A); block_stacks
views one as a (..., n, n) stack per block, so a family's norms, adjoints
and products take one batched call per block.  AlgebraElement holds a single
element's blocks where an API takes one.  A linear map between algebras is
its coefficient matrix, column p holding the image of the matrix unit u_p.
Products of basis elements are read from one read-only table per tuple of
block sizes, AlgebraShape.product_table, which every shape with those blocks
shares.

The faithful positive functional used everywhere for scalarization is the
unnormalized trace tau(a) = sum_i tr(a_i); tau(a* a) > 0
for a != 0, which is what lets Gram-matrix kernels detect genuine null
vectors downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ShapeMismatch
from .memo import content_key, structure
from .numkernel import (
    Tolerance,
    matvecs,
    operator_norms,
    require_finite,
    stack_slices,
    stackwise,
)

@dataclass(frozen=True)
class AlgebraShape:
    """Block sizes (n_1, ..., n_k) of a finite direct sum of matrix algebras."""

    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) < 1 or any(n < 1 for n in self.blocks):
            raise ShapeMismatch(f"invalid block sizes {self.blocks}")
        object.__setattr__(self, "blocks", tuple(int(n) for n in self.blocks))
        object.__setattr__(self, "_hash", hash((self.blocks,)))  # the dataclass hash, once

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        """Equal block sizes, the dataclass comparison, first trying identity:
        loaded shapes are one object per block sizes (serialize.load_shape)."""
        if self is other:
            return True
        return self.blocks == other.blocks if other.__class__ is self.__class__ else NotImplemented

    @cached_property
    def dim(self) -> int:
        """Vector-space dimension sum n_i**2 (= size of the matrix-unit basis)."""
        return sum(n * n for n in self.blocks)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        offs = [0]
        for n in self.blocks:
            offs.append(offs[-1] + n * n)
        return tuple(offs)

    def basis_index(self, block: int, row: int, col: int) -> int:
        return self.offsets[block] + row * self.blocks[block] + col

    def basis_labels(self):
        """Yield (flat_index, block, row, col) over the matrix-unit basis."""
        p = 0
        for i, n in enumerate(self.blocks):
            for k in range(n):
                for l in range(n):
                    yield p, i, k, l
                    p += 1

    @cached_property
    def product_table(self) -> np.ndarray:
        """T[p, r] = index of u_p u_r, or -1 where the product is 0:
        E^i_kl E^j_k'l' = delta_ij delta_lk' E^i_kl'.  Built once per process and
        block sizes (memo.structure) and read-only, since every shape with these
        blocks shares it."""

        def build() -> np.ndarray:
            _, i, k, l = np.array(list(self.basis_labels())).reshape(-1, 4).T
            target = np.array(self.offsets)[i] + k * np.array(self.blocks)[i]
            chain = (i[:, None] == i) & (l[:, None] == k)
            T = np.where(chain, target[:, None] + l, -1)
            T.flags.writeable = False
            return T

        return structure(("product_table", self.blocks), build)

    def star_permutation(self) -> np.ndarray:
        """Permutation sending each matrix unit to its adjoint's index."""
        perm = np.zeros(self.dim, dtype=int)
        for p, i, k, l in self.basis_labels():
            perm[p] = self.basis_index(i, l, k)
        return perm


@dataclass
class AlgebraElement:
    """One element of A as its per-block matrices, where an API takes a
    single element; families of elements travel as coefficient stacks."""

    shape: AlgebraShape
    blocks: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.shape.blocks):
            raise ShapeMismatch("block count does not match shape")
        mats = []
        for n, b in zip(self.shape.blocks, self.blocks):
            b = require_finite(b, "algebra element block")
            if b.shape != (n, n):
                raise ShapeMismatch(f"block of shape {b.shape}, expected {(n, n)}")
            mats.append(b)
        self.blocks = mats

    def coeffs(self) -> np.ndarray:
        """Coordinates in the matrix-unit basis (row-major per block)."""
        return np.concatenate([b.reshape(-1) for b in self.blocks])


def unit_coeffs(shape: AlgebraShape) -> np.ndarray:
    """Coefficients of the unit of A."""
    return np.concatenate([np.eye(n, dtype=complex).reshape(-1) for n in shape.blocks])


def zero_padded(stack: np.ndarray) -> np.ndarray:
    """stack with one zero slice appended, so that indexing it by a product
    table reads the zero product (index -1) as 0."""
    return np.concatenate([stack, np.zeros_like(stack[:1])])


def block_stacks(shape: AlgebraShape, C: np.ndarray) -> list[np.ndarray]:
    """The elements stacked as coefficient rows C (..., dim A), block by
    block: one (..., n, n) stack of matrices per block of A."""
    C = np.asarray(C)
    return [
        C[..., o : o + n * n].reshape(*C.shape[:-1], n, n)
        for n, o in zip(shape.blocks, shape.offsets)
    ]


def element_norms(shape: AlgebraShape, C: np.ndarray) -> np.ndarray:
    """C*-norms of the elements stacked as coefficient rows C (..., dim A),
    shape (...): the largest operator norm over the blocks, with one batched
    norm per block.  NaN or Inf in C raises NonFinite."""
    return np.maximum.reduce([operator_norms(S) for S in block_stacks(shape, C)])


def adjoints(shape: AlgebraShape, C: np.ndarray) -> np.ndarray:
    """Coefficient rows of a* for the rows a of C (..., dim A)."""
    return np.conj(np.asarray(C)[..., shape.star_permutation()])


def products(shape: AlgebraShape, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Coefficient rows of x y for every row x of X (R, dim A) and every row
    y of Y (S, dim A), shape (R, S, dim A): one stacked product per block."""
    out = np.empty((len(X), len(Y), shape.dim), dtype=complex)
    for o, Xb, Yb in zip(shape.offsets, block_stacks(shape, X), block_stacks(shape, Y)):
        prod = Xb[:, None] @ Yb[None, :]
        out[..., o : o + prod[0, 0].size] = prod.reshape(len(X), len(Y), -1)
    return out


def random_element(
    shape: AlgebraShape, rng: np.random.Generator, hermitian: bool = False
) -> AlgebraElement:
    blocks = []
    for n in shape.blocks:
        b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        if hermitian:
            b = (b + b.conj().T) / 2.0
        blocks.append(b)
    return AlgebraElement(shape, blocks)


def block_diag(mats: list[np.ndarray]) -> np.ndarray:
    """The square matrices mats along the diagonal of one complex matrix; of
    stacks (..., n, n), whose leading shapes broadcast, a stack of them."""
    total = sum(m.shape[-1] for m in mats)
    lead = np.broadcast_shapes(*(m.shape[:-2] for m in mats))
    out = np.zeros((*lead, total, total), dtype=complex)
    pos = 0
    for m in mats:
        d = m.shape[-1]
        out[..., pos : pos + d, pos : pos + d] = m
        pos += d
    return out


# -- linear *-maps between algebras ---------------------------------------


@dataclass
class StarMap:
    """Complex-linear map stored as its coefficient matrix
    (codomain.dim x domain.dim): column p holds the coefficients of the image
    of the matrix unit u_p.  The images of u_p in codomain block c form the
    stack block_stacks(codomain, matrix.T)[c], a view of the matrix.

    Being a *-homomorphism or unital is a checked property, not structural;
    see check_star_map.
    """

    domain: AlgebraShape
    codomain: AlgebraShape
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.ascontiguousarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.codomain.dim, self.domain.dim):
            raise ShapeMismatch(
                f"star map matrix {self.matrix.shape} != {(self.codomain.dim, self.domain.dim)}"
            )

    @cached_property
    def key(self) -> bytes:
        """Content digest of the two algebras and the coefficient matrix."""
        return content_key(self.domain.blocks, self.codomain.blocks, self.matrix)

    def __call__(self, C: np.ndarray) -> np.ndarray:
        """Images of the elements stacked as coefficient rows C (..., domain.dim)."""
        return matvecs(self.matrix, np.asarray(C, dtype=complex))


def identity_star_map(shape: AlgebraShape) -> StarMap:
    return StarMap(shape, shape, np.eye(shape.dim, dtype=complex))


def compose_star_maps(outer: StarMap, inner: StarMap) -> StarMap:
    if inner.codomain != outer.domain:
        raise ShapeMismatch("star maps do not chain")
    return StarMap(inner.domain, outer.codomain, outer.matrix @ inner.matrix)


def star_map_distance(r1: Sequence[StarMap], r2: Sequence[StarMap]) -> np.ndarray:
    """Max over basis of ||r1[s](u) - r2[s](u)|| in the codomain norm, for each
    pair of a stack: one element_norms over the image gaps of all the pairs
    into one codomain."""
    if any(a.domain != b.domain or a.codomain != b.codomain for a, b in zip(r1, r2)):
        raise ShapeMismatch("star maps between different algebras")

    def distances(pairs: list) -> np.ndarray:  # pairs into one codomain
        gaps = [(a.matrix - b.matrix).T for a, b in pairs]
        starts = np.cumsum([0] + [len(g) for g in gaps[:-1]])
        norms = element_norms(pairs[0][0].codomain, np.concatenate(gaps))
        return np.maximum.reduceat(norms, starts)

    return np.array(stackwise(list(zip(r1, r2)), lambda pair: pair[0].codomain, distances), float)


def check_star_map(rho: Sequence[StarMap], tol: Tolerance) -> list[list[tuple]]:
    """Records of multiplicativity, *-preservation, and unitality of each
    star map of a stack between one pair of algebras, from one batched norm
    per codomain block.

    Unitality realizes nondegeneracy in the unital finite-dimensional model.
    """
    dom, cod = rho[0].domain, rho[0].codomain
    M = stack_slices([r.matrix for r in rho])
    # same-block pairs only: cross-block products then vanish by the star and unit checks
    block = np.repeat(np.arange(len(dom.blocks)), [n * n for n in dom.blocks])
    P, R = np.nonzero(block[:, None] == block)
    T = dom.product_table[P, R]
    # rows: the images rho(u_p) (the scale), rho(u_p*) - rho(u_p)* (u_p* is
    # u at star(p)) and rho(1) - 1; the images get a zero row for T's -1
    X = M.swapaxes(1, 2)
    star_gaps = M[:, :, dom.star_permutation()].swapaxes(1, 2) - adjoints(cod, X)
    rows = np.concatenate([X, star_gaps, (M @ unit_coeffs(dom) - unit_coeffs(cod))[:, None]], 1)
    Xz = np.concatenate([X, np.zeros_like(X[:, :1])], axis=1)
    # one batched norm per codomain block: the multiplicativity defects
    # rho(u_p u_r) - rho(u_p) rho(u_r), then the block of every row
    norms = np.maximum.reduce(
        [
            operator_norms(np.concatenate([Y[:, T] - Y[:, P] @ Y[:, R], S], axis=1))
            for Y, S in zip(block_stacks(cod, Xz), block_stacks(cod, rows))
        ]
    )
    mult, scale, star, unital = (
        part.max(axis=1).tolist()
        for part in np.split(norms, np.cumsum([len(P), dom.dim, dom.dim]), axis=1)
    )
    return [
        [("multiplicativity", m, gate), ("star_preservation", s, gate), ("unitality", u, gate)]
        for m, s, u, gate in zip(mult, star, unital, (tol.ctol * (1.0 + x * x) for x in scale))
    ]


@dataclass
class Automorphism:
    """A *-automorphism stored with its inverse."""

    forward: StarMap
    inverse: StarMap

    def __post_init__(self) -> None:
        if self.forward.domain != self.forward.codomain:
            raise ShapeMismatch("automorphism must be an endomap")
        if self.inverse.domain != self.forward.domain:
            raise ShapeMismatch("inverse lives on a different algebra")
        if self.inverse.codomain != self.forward.domain:
            raise ShapeMismatch("inverse maps into a different algebra")

    @property
    def shape(self) -> AlgebraShape:
        return self.forward.domain

    @property
    def matrix(self) -> np.ndarray:
        return self.forward.matrix

    @property
    def inverse_matrix(self) -> np.ndarray:
        return self.inverse.matrix

    def __call__(self, C: np.ndarray) -> np.ndarray:
        return self.forward(C)


def identity_automorphism(shape: AlgebraShape) -> Automorphism:
    ident = identity_star_map(shape)
    return Automorphism(ident, identity_star_map(shape))


def compose_automorphisms(outer: Automorphism, inner: Automorphism) -> Automorphism:
    return Automorphism(
        compose_star_maps(outer.forward, inner.forward),
        compose_star_maps(inner.inverse, outer.inverse),
    )


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def inner_automorphism(shape: AlgebraShape, unitaries: list[np.ndarray]) -> Automorphism:
    """Blockwise conjugation a_i -> u_i a_i u_i*: per block, one stacked
    product over all its matrix units in each direction."""
    fwd = np.zeros((shape.dim, shape.dim), dtype=complex)
    inv = np.zeros_like(fwd)
    for n, o, u in zip(shape.blocks, shape.offsets, unitaries):
        units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
        span = slice(o, o + n * n)
        fwd[span, span] = (u @ units @ u.conj().T).reshape(n * n, n * n).T
        inv[span, span] = (u.conj().T @ units @ u).reshape(n * n, n * n).T
    return Automorphism(StarMap(shape, shape, fwd), StarMap(shape, shape, inv))


def block_permutation_automorphism(shape: AlgebraShape, perm: list[int]) -> Automorphism:
    """Permute equal-size blocks: block i of alpha(a) is a_{perm[i]}."""
    if sorted(perm) != list(range(len(shape.blocks))):
        raise ShapeMismatch("not a permutation of the blocks")
    for i, j in enumerate(perm):
        if shape.blocks[i] != shape.blocks[j]:
            raise ShapeMismatch("permutation mixes blocks of different sizes")
    inv_perm = [0] * len(perm)
    for i, j in enumerate(perm):
        inv_perm[j] = i

    def moving_units(p_of: list[int]) -> StarMap:
        # the matrix unit (k, l) of block i goes to (k, l) of block p_of[i]
        M = np.zeros((shape.dim, shape.dim), dtype=complex)
        for p, i, k, l in shape.basis_labels():
            M[shape.basis_index(p_of[i], k, l), p] = 1.0
        return StarMap(shape, shape, M)

    # alpha(a)_i = a_{perm[i]}  <=>  matrix unit in block i maps to block inv_perm[i]
    return Automorphism(moving_units(inv_perm), moving_units(perm))


def random_automorphism(shape: AlgebraShape, seed) -> Automorphism:
    """Random block permutation composed with blockwise unitary conjugation.

    This family is exhaustive for finite direct sums of matrix blocks.
    """
    rng = np.random.default_rng(seed)
    # permute only inside classes of equal block size
    by_size: dict[int, list[int]] = {}
    for i, n in enumerate(shape.blocks):
        by_size.setdefault(n, []).append(i)
    perm = list(range(len(shape.blocks)))
    for members in by_size.values():
        shuffled = [members[j] for j in rng.permutation(len(members))]
        for src, dst in zip(members, shuffled):
            perm[src] = dst
    swap = block_permutation_automorphism(shape, perm)
    conj = inner_automorphism(
        shape, [haar_unitary(n, rng) for n in shape.blocks]
    )
    return compose_automorphisms(conj, swap)
