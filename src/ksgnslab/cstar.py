"""Finite-dimensional C*-algebras: direct sums of full complex matrix blocks.

An algebra A = M_{n_1} (+) ... (+) M_{n_k} is presented by its block sizes.
Elements are lists of per-block matrices.  The matrix-unit basis is ordered
block by block, row-major inside each block, and every linear map between
algebras is stored through its images on that basis.  Products of basis
elements are read from one cached table, AlgebraShape.product_table.

The faithful positive functional used everywhere for scalarization is the
unnormalized trace tau(a) = sum_i tr(a_i); tau(a* a) > 0
for a != 0, which is what lets Gram-matrix kernels detect genuine null
vectors downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeMismatch
from .memo import content_key
from .numkernel import (
    DEFAULT_TOL,
    Tolerance,
    max_operator_norm,
    operator_norm,
    require_finite,
)
from .reporting import CheckReport


@dataclass(frozen=True)
class AlgebraShape:
    """Block sizes (n_1, ..., n_k) of a finite direct sum of matrix algebras."""

    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.blocks) < 1 or any(n < 1 for n in self.blocks):
            raise ShapeMismatch(f"invalid block sizes {self.blocks}")
        object.__setattr__(self, "blocks", tuple(int(n) for n in self.blocks))

    @property
    def dim(self) -> int:
        """Vector-space dimension sum n_i**2 (= size of the matrix-unit basis)."""
        return sum(n * n for n in self.blocks)

    @property
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
        E^i_kl E^j_k'l' = delta_ij delta_lk' E^i_kl'."""
        _, i, k, l = np.array(list(self.basis_labels())).reshape(-1, 4).T
        target = np.array(self.offsets)[i] + k * np.array(self.blocks)[i]
        chain = (i[:, None] == i) & (l[:, None] == k)
        return np.where(chain, target[:, None] + l, -1)

    def star_permutation(self) -> np.ndarray:
        """Permutation sending each matrix unit to its adjoint's index."""
        perm = np.zeros(self.dim, dtype=int)
        for p, i, k, l in self.basis_labels():
            perm[p] = self.basis_index(i, l, k)
        return perm


@dataclass
class AlgebraElement:
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

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "AlgebraElement") -> None:
        if self.shape != other.shape:
            raise ShapeMismatch("elements live in different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.shape, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.shape, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.shape, [a @ b for a, b in zip(self.blocks, other.blocks)])

    def star(self) -> "AlgebraElement":
        return AlgebraElement(self.shape, [b.conj().T for b in self.blocks])

    def norm(self) -> float:
        return max(operator_norm(b) for b in self.blocks)

    def coeffs(self) -> np.ndarray:
        """Coordinates in the matrix-unit basis (row-major per block)."""
        return np.concatenate([b.reshape(-1) for b in self.blocks])


def unit_element(shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement(shape, [np.eye(n, dtype=complex) for n in shape.blocks])


def basis_element(shape: AlgebraShape, p: int) -> AlgebraElement:
    return from_coeffs(shape, np.eye(shape.dim, dtype=complex)[:, p])


def zero_padded(stack: np.ndarray) -> np.ndarray:
    """stack with one zero slice appended, so that indexing it by a product
    table reads the zero product (index -1) as 0."""
    return np.concatenate([stack, np.zeros_like(stack[:1])])


def from_coeffs(shape: AlgebraShape, vec: np.ndarray) -> AlgebraElement:
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if vec.size != shape.dim:
        raise ShapeMismatch(f"coefficient vector of length {vec.size}, expected {shape.dim}")
    offs = shape.offsets
    return AlgebraElement(
        shape,
        [vec[offs[i] : offs[i + 1]].reshape(n, n) for i, n in enumerate(shape.blocks)],
    )


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
    """The square matrices mats along the diagonal of one complex matrix."""
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=complex)
    pos = 0
    for m in mats:
        d = m.shape[0]
        out[pos : pos + d, pos : pos + d] = m
        pos += d
    return out


# -- linear *-maps between algebras ---------------------------------------


@dataclass
class StarMap:
    """Complex-linear map determined by its images on the matrix-unit basis.

    Being a *-homomorphism or unital is a checked property, not structural;
    see check_star_map.
    """

    domain: AlgebraShape
    codomain: AlgebraShape
    images: list[AlgebraElement]

    def __post_init__(self) -> None:
        if len(self.images) != self.domain.dim:
            raise ShapeMismatch("one image per domain basis element required")
        for img in self.images:
            if img.shape != self.codomain:
                raise ShapeMismatch("image outside the stated codomain")

    @cached_property
    def matrix(self) -> np.ndarray:
        """Coefficient matrix (codomain.dim x domain.dim)."""
        if not self.images:
            return np.zeros((self.codomain.dim, 0), dtype=complex)
        return np.stack([img.coeffs() for img in self.images], axis=1)

    @cached_property
    def key(self) -> bytes:
        """Content digest of the two algebras and the coefficient matrix."""
        return content_key(self.domain.blocks, self.codomain.blocks, self.matrix)

    def __call__(self, a: AlgebraElement) -> AlgebraElement:
        if a.shape != self.domain:
            raise ShapeMismatch("argument outside the stated domain")
        return from_coeffs(self.codomain, self.matrix @ a.coeffs())


def identity_star_map(shape: AlgebraShape) -> StarMap:
    return StarMap(shape, shape, [basis_element(shape, p) for p in range(shape.dim)])


def compose_star_maps(outer: StarMap, inner: StarMap) -> StarMap:
    if inner.codomain != outer.domain:
        raise ShapeMismatch("star maps do not chain")
    composite = outer.matrix @ inner.matrix
    return StarMap(
        inner.domain, outer.codomain, [from_coeffs(outer.codomain, c) for c in composite.T]
    )


def star_map_distance(r1: StarMap, r2: StarMap) -> float:
    """Max over basis of ||r1(u) - r2(u)|| in the codomain norm."""
    if r1.domain != r2.domain or r1.codomain != r2.codomain:
        raise ShapeMismatch("star maps between different algebras")
    return max(
        (a - b).norm() for a, b in zip(r1.images, r2.images)
    ) if r1.images else 0.0


def check_star_map(rho: StarMap, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Residuals for multiplicativity, *-preservation, and unitality.

    Unitality realizes nondegeneracy in the unital finite-dimensional model.
    """
    rep = CheckReport()
    dom = rho.domain
    scale = max((img.norm() for img in rho.images), default=1.0)
    # same-block pairs only: cross-block products then vanish by the star and unit checks
    block = np.repeat(np.arange(len(dom.blocks)), [n * n for n in dom.blocks])
    P, R = np.nonzero(block[:, None] == block)
    mult = 0.0
    for c in range(len(rho.codomain.blocks)):
        X = np.stack([img.blocks[c] for img in rho.images])
        mult = max(mult, max_operator_norm(zero_padded(X)[dom.product_table[P, R]] - X[P] @ X[R]))
    star_perm = dom.star_permutation()
    star = max(
        (rho.images[star_perm[p]] - rho.images[p].star()).norm() for p in range(dom.dim)
    )
    unital = (rho(unit_element(dom)) - unit_element(rho.codomain)).norm()
    gate = tol.ctol * (1.0 + scale * scale)
    rep.add("multiplicativity", mult, gate)
    rep.add("star_preservation", star, gate)
    rep.add("unitality", unital, gate)
    return rep


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

    @property
    def shape(self) -> AlgebraShape:
        return self.forward.domain

    @property
    def matrix(self) -> np.ndarray:
        return self.forward.matrix

    @property
    def inverse_matrix(self) -> np.ndarray:
        return self.inverse.matrix

    def __call__(self, a: AlgebraElement) -> AlgebraElement:
        return self.forward(a)

    def inv(self, a: AlgebraElement) -> AlgebraElement:
        return self.inverse(a)

    def inverted(self) -> "Automorphism":
        return Automorphism(self.inverse, self.forward)


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
    """Blockwise conjugation a_i -> u_i a_i u_i*."""
    fwd = []
    inv = []
    for p, i, k, l in shape.basis_labels():
        unit = np.zeros((shape.blocks[i], shape.blocks[i]), dtype=complex)
        unit[k, l] = 1.0
        f_blocks = [np.zeros((n, n), dtype=complex) for n in shape.blocks]
        g_blocks = [np.zeros((n, n), dtype=complex) for n in shape.blocks]
        u = unitaries[i]
        f_blocks[i] = u @ unit @ u.conj().T
        g_blocks[i] = u.conj().T @ unit @ u
        fwd.append(AlgebraElement(shape, f_blocks))
        inv.append(AlgebraElement(shape, g_blocks))
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

    def images_for(p_of: list[int]) -> list[AlgebraElement]:
        images = []
        for p, i, k, l in shape.basis_labels():
            blocks = [np.zeros((n, n), dtype=complex) for n in shape.blocks]
            tgt = p_of[i]
            blocks[tgt][k, l] = 1.0
            images.append(AlgebraElement(shape, blocks))
        return images

    # alpha(a)_i = a_{perm[i]}  <=>  matrix unit in block i maps to block inv_perm[i]
    return Automorphism(
        StarMap(shape, shape, images_for(inv_perm)),
        StarMap(shape, shape, images_for(perm)),
    )


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
