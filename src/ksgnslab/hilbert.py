"""Finite-dimensional Hilbert modules over block C*-algebras.

A (pre-)module over B is a coordinate space C^d carrying

* a right action, stored as one d x d matrix R(u) per matrix-unit basis
  element u of B.  Right actions are anti-multiplicative as matrices:
  R(b1 b2) = R(b2) R(b1), and R(1) = I.
* a B-valued pairing, stored per B-block t as an array P_t of shape
  (d, d, n_t, n_t) holding the t-th block of <e_i, e_j>.  The pairing is
  conjugate-linear in the first slot and linear in the second.

A module may be a stack of modules of one shape, its arrays with a leading
axis: builders produce and consume stacks.  A stack is checked once, where its
data enters (load, generation, the quotients' eigenvectors): one pairing block
per block of B and the shapes in PreModule, finite entries and the
SingularGram gate on the batched Gram spectrum in HilbertModule.  ModuleView
reads a slice of a checked stack, which no check runs on again; gather turns a
list of modules or slices back into the stack they came from.

Scalarizing the pairing through the faithful trace gives the Gram matrix
G_ij = tau(<e_i, e_j>).  Null-space detection, vector norms of the ambient
Hilbert-space realization, operator norms, and adjoints all run through G:
a module map T realizes as G_tgt^(1/2) T G_src^(-1/2) on the standard inner
product, and that realization is a faithful *-representation of L(E), so
module operator norms are exactly realized operator norms.

Quotients by the pairing's null space use the orthonormal eigenvector basis
of the Gram range, so the quotient map q and section s satisfy q s = I up to
eigensolver error, and conditioning is explicit in the kept eigenvalues.
A tensor with an algebra over itself on either side has a Gram in equal
copies (Lance, Hilbert C*-Modules, ch. 4-5), which quotients at every width
on the canonical bases I_{n_t} (x) V_t of copy 0's blocks, however degenerate
their spectra: row copies transport copy 0 alone, F_phi = (+)_t C^{n_t} (x)
K_t, and column copies write E (x)_pi C = (+)_t K_t (x) C^{n_t} in closed
form.  The CopyLayout of each ranks, which the process-wide Copies of each
block sizes and dimension build once, puts copy 0's pieces on every copy with
index arrays.
Pairing identities contract all basis pairs at once through pairing_coeffs.
Zero-dimensional modules are legal everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence
from functools import cached_property

import numpy as np

from .cstar import AlgebraShape, element_norms
from .errors import (
    InvalidConfig, ShapeMismatch, SingularGram, SubmoduleViolation, UnequalCopies,
    WellDefinednessViolation,
)
from .memo import content_key, structure
from .numkernel import (
    DEFAULT_TOL,
    Split,
    Tolerance,
    any_nonzero,
    eigh,
    exceeds_finite_gate,
    live_products,
    matvecs,
    max_operator_norms,
    operator_norm,
    operator_norms,
    psd_verdict,
    rank_kernel,
    require_finite,
    stack_slices,
    stackwise,
)


@dataclass
class PreModule:
    """Right B-module with a possibly degenerate B-valued pairing, or a stack
    of such modules of one shape when its arrays carry a leading axis.  One
    pairing block per block of B and the shapes are checked here, once for a
    whole stack; finite entries where it becomes a HilbertModule, or in the
    rank decisions on its Gram."""

    algebra: AlgebraShape
    dim: int
    action: np.ndarray  # (..., dim_B, d, d); action[p] = R(u_p)
    pairing: list[np.ndarray]  # per B-block t: (..., d, d, n_t, n_t)

    def __post_init__(self) -> None:
        d, blocks = self.dim, self.algebra.blocks
        if len(self.pairing) != len(blocks):
            raise ShapeMismatch(f"{len(self.pairing)} pairing blocks for {len(blocks)} blocks of B")
        self.action = np.asarray(self.action, dtype=complex)
        lead = self.action.shape[:-3]
        if self.action.shape != (*lead, self.algebra.dim, d, d):
            raise ShapeMismatch(
                f"action tensor {self.action.shape} != {(*lead, self.algebra.dim, d, d)}"
            )
        self.pairing = [np.asarray(P, dtype=complex) for P in self.pairing]
        for n, P in zip(blocks, self.pairing):
            if P.shape != (*lead, d, d, n, n):
                raise ShapeMismatch(f"pairing block {P.shape} != {(*lead, d, d, n, n)}")

    @cached_property
    def key(self) -> bytes:
        """Content digest of the algebra, action and pairing: modules with
        equal keys are one module."""
        return content_key(self.algebra.blocks, self.action, *self.pairing)

    def gram(self) -> np.ndarray:
        return _scalarized(self.algebra, self.pairing)

    @cached_property
    def gram_matrix(self) -> np.ndarray:
        """The Hermitized Gram matrix (G + G*) / 2 (of each slice of a stack)."""
        G = self.gram()
        return (G + G.conj().swapaxes(-1, -2)) / 2.0

    def pair(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """<x, y> for the matching rows x of X and y of Y (..., d), as
        coefficient rows (..., dim B).  Block t is sum_ij conj(x_i) y_j P_t[i, j]
        contracted over y first, a couple's own order, so each row is
        bit-identical to pairing its couple alone."""
        X = np.asarray(X, dtype=complex)
        lead = X.shape[:-1]
        rows = int(np.prod(lead))
        X = X.reshape(rows, 1, self.dim).conj()
        Y = np.asarray(Y, dtype=complex).reshape(rows, 1, 1, self.dim)
        blocks = [
            matvecs(matvecs(P.transpose(2, 3, 0, 1), Y), X).reshape(rows, n * n)
            for n, P in zip(self.algebra.blocks, self.pairing)
        ]
        return np.concatenate(blocks, axis=1).reshape(*lead, self.algebra.dim)


@dataclass
class HilbertModule(PreModule):
    """PreModule whose Gram matrix is positive definite, or a stack of them.

    The Gram spectrum (w ascending, V) of the Hermitized Gram matrix G is one
    batched eigh at construction, or a quotient's: quotient_by_null's batched
    eigh of the quotient Grams, quotient_by_copies' sorted copies of one eigh
    per block, or quotient_by_columns' sorted diagonal G and a permutation.  It
    is checked here with the action and pairing, once for a whole stack: finite
    entries, shapes and the SingularGram gate, which names the first singular
    slice of a longer stack.  It gives G^(1/2), G^(-1/2) and G^(-1), each
    cached for the whole stack on first use, with eigenvalues clipped at
    max(rtol * lambda_max, tiny), so that inverse powers of a well-conditioned
    G never blow up on rounding noise.

    gram_spectrum must decompose gram_matrix itself; the quotients are its only
    intended setters.  A supplied spectrum is checked for shape only, so one
    taken from another module would pass the gate unseen."""

    gram_spectrum: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    stack = None  # a module of its own; a ModuleView's module stack, which gather reads

    def __post_init__(self) -> None:
        super().__post_init__()
        require_finite(self.action, "module action")
        for P in self.pairing:
            require_finite(P, "module pairing")
        if self.gram_spectrum is None:
            self.gram_spectrum = eigh(self.gram_matrix)
        w, V = self.gram_spectrum
        lead, d = self.action.shape[:-3], self.dim
        if w.shape != (*lead, d) or V.shape != (*lead, d, d):
            raise ShapeMismatch(
                f"Gram spectrum of shapes {w.shape}, {V.shape} for a module of dim {d}"
            )
        bad = (w[..., -1:] <= 0.0) | (w[..., :1] <= DEFAULT_TOL.rtol * w[..., -1:])
        if any_nonzero(bad):
            i = int(np.flatnonzero(bad)[0])
            lo, hi = w.reshape(-1, d)[i, [0, -1]]
            where = f" in slice {i}" if w.size > d else ""
            spectrum = f"Gram spectrum [{lo:.3e}, {hi:.3e}]"
            raise SingularGram(f"{spectrum}{where} is not positive definite")

    def _gram_power(self, p: float) -> np.ndarray:
        w, V = self.gram_spectrum
        w = np.maximum(w, np.maximum(DEFAULT_TOL.rtol * w[..., -1:], np.finfo(float).tiny))
        return (V * w[..., None, :] ** p) @ V.conj().swapaxes(-1, -2)

    @cached_property
    def gram_sqrt(self) -> np.ndarray:
        return self._gram_power(0.5)

    @cached_property
    def gram_isqrt(self) -> np.ndarray:
        return self._gram_power(-0.5)

    @cached_property
    def gram_inv(self) -> np.ndarray:
        return self._gram_power(-1.0)

    def __getitem__(self, index) -> ModuleView:
        return ModuleView(self, index)

    def vector_norm(self, X: np.ndarray) -> np.ndarray:
        """||x|| = sqrt(||<x, x>||_B) for each row x of X (..., d), shape (...)."""
        return np.sqrt(element_norms(self.algebra, self.pair(X, X)))


def _at(value, idx):
    """value[idx], entry by entry for a list of arrays (pairing blocks, Gram spectrum)."""
    return [x[idx] for x in value] if isinstance(value, (list, tuple)) else value[idx]


def gather(items: Sequence, name: str):
    """Field `name` of items (modules, or quotient slices and module views, each
    slice `index` of its `stack`) as one stack, slice s items[s]'s: the field of
    the stack they are all slices of, whole when they are all of it in order,
    else at their indices; one item's own, as a stack of one.  Items of no one
    stack, as modules of their own (whose stack is None), have theirs stacked by
    stack_slices, which names a slice of another shape."""
    if len(items) == 1:
        return _at(getattr(items[0], name), np.newaxis)
    if (stack := items[0].stack) is None or not all([x.stack is stack for x in items]):
        parts = [getattr(x, name) for x in items]
        if isinstance(parts[0], (list, tuple)):
            return [stack_slices(p) for p in zip(*parts)]
        return stack_slices(parts)
    idx = [x.index for x in items]
    value = getattr(stack, name)
    n = len(value[0] if isinstance(value, (list, tuple)) else value)
    return value if idx == list(range(n)) else _at(value, np.array(idx))


class _Field:
    """A slice's field, read on first use and kept: its stack's at its index (a
    plain descriptor: cached_property locks on every first read, a cost views
    pay by the thousand per check pass)."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, view, owner: type | None = None):
        value = _at(getattr(view.stack, self.name), view.index)
        view.__dict__[self.name] = value
        return value


class ModuleView(HilbertModule):
    """Slice `index` of the checked module stack `stack` (an int gives one
    module, a slice a stack).  Its action, pairing, Gram spectrum and Gram
    powers are read on first use and covered by the stack's checks and gate, so
    none runs again."""

    def __init__(self, stack: HilbertModule, index) -> None:
        self.stack, self.index = stack, index
        self.algebra, self.dim = stack.algebra, stack.dim

    action, pairing, gram_spectrum, gram_matrix, gram_sqrt, gram_isqrt, gram_inv = (
        _Field() for _ in range(7))


def _scalarized(B: AlgebraShape, pairing: Sequence[np.ndarray]) -> np.ndarray:
    """G_ij = tau(<e_i, e_j>): each pairing block's trace, summed along its diagonal in
    trace's order (add.reduce's plain loop at n_t <= 8) without its strided reduction,
    and the blocks' traces summed from 0 in block order."""
    G = 0
    for n, P in zip(B.blocks, pairing):
        trace = P[..., 0, 0]
        for i in range(1, n):
            trace = trace + P[..., i, i]
        G = G + trace
    return G


def pairing_coeffs(E: PreModule, Y: np.ndarray) -> np.ndarray:
    """Stacked pairings C[r, p, j] = coefficient p of <y_r, e_j> for the rows y_r
    of Y, shape (R, d); p runs over B's matrix-unit basis in cstar's order, so
    C[r, :, j] = E.pair(Y[r], e_j) and C[r] @ x holds <y_r, x>."""
    d = E.dim
    P = np.concatenate([P.reshape(d, d, n * n) for n, P in zip(E.algebra.blocks, E.pairing)], 2)
    return np.tensordot(np.conj(Y), P, axes=(1, 0)).transpose(0, 2, 1)


def transport_pairing(s: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Pairing blocks P (..., d, d, n, n) pulled back along s (..., d, r):
    R[i, j] = sum_uv conj(s[u, i]) s[v, j] P[u, v], the block of
    <s e_i, s e_j> on the new coordinates, C-contiguous so that reshaping a
    stored block makes no copy."""
    lead = tuple(range(P.ndim - 4))
    sh = s.conj().swapaxes(-1, -2)[..., None, None, :, :]
    moved = sh @ P.transpose(*lead, -2, -1, -4, -3) @ s[..., None, None, :, :]
    return np.ascontiguousarray(moved.transpose(*lead, -2, -1, -4, -3))


# -- quotient by the null space -------------------------------------------


@dataclass
class Quotient:
    """The quotients of a stack of S pre-modules by their null spaces: module,
    the stack of quotient modules; q (S, rank, d), the quotient maps onto
    eigen-coordinates; s (S, d, rank), the sections, q s = I; kernel (S, d,
    d - rank), bases of the Gram kernels."""

    module: HilbertModule
    q: np.ndarray
    s: np.ndarray
    kernel: np.ndarray


@dataclass
class QuotientSlice:
    """Slice `index` of a quotient stack: its module (a ModuleView), q, s and
    kernel are views of the stack's, read on first use, which gather reads back
    whole."""

    stack: Quotient
    index: int

    q, s, kernel, module = _Field(), _Field(), _Field(), _Field()


def quotient_by_null(pre: PreModule, tol: Tolerance) -> list[QuotientSlice]:
    """Quotient each pre-module of a stack (a PreModule with a leading axis) by
    the null space of its pairing: one batched rank_kernel over the Gram matrices,
    and per rank (by_ranks) one stacked leak gate and transport of the action and
    pairing, and one batched eigh of the quotient Grams for the modules' spectra.
    Each slice gets the bits of a quotient of its own.

    The null space is detected as ker(G) for the scalarized Gram G; by
    faithfulness of the trace this agrees with {z : <z, z> = 0} whenever the
    pairing is PSD.  Raises SubmoduleViolation when a kernel is not invariant
    under the action, which signals an invalid pre-module, naming the first
    leaking slice of the first rank that leaks in a longer stack."""

    def build(at, decided: list[tuple], names) -> Quotient:
        (ranks, _, V), = decided
        V = require_finite(V, "Gram eigenvectors")
        z = V.shape[-1] - int(ranks[0])  # the kernel's width
        # copies with Fortran-ordered slices, a column selection's layout, on which the bits depend
        s, kernel = (np.ascontiguousarray(x.swapaxes(-1, -2)).swapaxes(-1, -2)
                     for x in (V[..., z:], V[..., :z]))
        moved, blocks, w, U = _quotient_stack(
            pre.algebra, s, kernel, pre.action[at], [P[at] for P in pre.pairing], tol, names)
        return _quotients(pre.algebra, s, kernel, moved, blocks, w, U)

    return by_ranks(rank_kernel(pre.gram(), tol), build)


def by_ranks(decided: list[tuple], build: Callable) -> list[QuotientSlice]:
    """The slices, in input order, of the quotient stacks build(at, decisions at at,
    names), one per group `at` of the slices whose ranks agree in every block of
    rank_kernel's decisions, in the order of their first slices; at is the whole
    stack, slice(None), when all agree.  names, which errors name, holds the input
    numbers of at's slices; None for a stack of one."""
    rows = list(zip(*[k.tolist() for k, _, _ in decided]))  # each slice's ranks
    S = len(rows)

    def group(numbers: list[int]) -> list[QuotientSlice]:
        at = np.array(numbers) if len(numbers) < S else slice(None)
        quot = build(at, [(k[at], w[at], V[at]) for k, w, V in decided], numbers if S > 1 else None)
        return [QuotientSlice(quot, i) for i in range(len(numbers))]

    return stackwise(range(S), rows.__getitem__, group)


def _quotients(B: AlgebraShape, s, kernel, action, pairing, w, V) -> Quotient:
    """The quotient stack on the bases s and kernel, its module stack (checked
    there) from the stacks of its action, pairing and Gram spectrum."""
    module = HilbertModule(B, s.shape[-1], action, pairing, (w, V))
    return Quotient(module, s.conj().swapaxes(-1, -2), s, kernel)


def _leak_error(names, i: int, b: int, leak: float) -> SubmoduleViolation:
    """The leak of basis element b's action out of the null space in slice names[i]."""
    where = f" in slice {names[i]}" if names is not None else ""
    return SubmoduleViolation(
        f"action of basis element {b} leaks out of the null space{where} (residual {leak:.3e})"
    )


def _quotient_stack(B: AlgebraShape, s, kernel, action, pairing, tol: Tolerance, names) -> tuple:
    """quotient_by_null's leak gate, moved action and pairing, and Gram spectra."""
    qK = s.conj().swapaxes(-1, -2)[:, None] @ action  # shared by the leak gate and the moved action
    if (leak := first_leak(qK @ kernel[:, None], action, tol)) is not None:
        raise _leak_error(names, *divmod(leak[0], B.dim), leak[1])
    blocks = [transport_pairing(s, P) for P in pairing]
    G = _scalarized(B, blocks)
    return (qK @ s[:, None], blocks, *eigh((G + G.conj().swapaxes(-1, -2)) / 2.0))


class Copies(list):
    """The coordinates of a pre-space whose Gram is, per block t of an algebra, n_t
    equal copies of one block: entry t (n_t, b_t), row a copy a's (cp.row_split,
    cp.column_split), read-only.  It keeps the CopyLayout of each ranks it is
    decided at, so the Copies the process shares per block sizes and dimension
    build each layout once per process."""

    def __init__(self, at: Sequence[np.ndarray]) -> None:
        super().__init__(read_only(*at))
        self.layouts: dict[tuple[int, ...], CopyLayout] = {}
        self.dim = sum(c.size for c in self)

    @cached_property
    def counterparts(self) -> list[np.ndarray]:
        """As flat indices into a (d, d) matrix, read-only: the block on copy 0's
        coordinates of every block, and per entry its copy-0 counterpart, with 1 on the
        copies' blocks and 0 off them."""
        d, ref, on = self.dim, np.arange(self.dim**2), np.zeros(self.dim**2)
        for X in (c[:, :, None] * d + c[:, None, :] for c in self):  # X[a, i, j]
            ref[X], on[X] = X[0], 1.0
        first = np.concatenate([c[0] for c in self])
        return read_only(first[:, None] * d + first, ref, on)

    def layout(self, decided: list[tuple]) -> CopyLayout:
        """The layout at the ranks of rank_kernel's decisions, slice 0's (by_ranks')."""
        if (ranks := tuple([int(k[0]) for k, _, _ in decided])) not in self.layouts:
            self.layouts[ranks] = CopyLayout(self, ranks)
        return self.layouts[ranks]


class CopyLayout:
    """Index arrays of a quotient of Copies at ranks k_t: copy a of block t takes range
    coordinates O_t + a k_t + j and kernel coordinates Z_t + a z_t + j (z_t = b_t - k_t).
    An entry indexes the pieces of all blocks as _pieces lays them out, -1 the zero
    after them: s (d, r) and kernel (d, d - r) hold copy 0's kept and dropped
    eigenvector columns on every copy, diagonal (r, r) block t's k_t x k_t pieces on
    the diagonal block of every copy, and spread (r,) its k_t values on every copy;
    index (r, 1) is 0, ..., r - 1; after, diagonal and spread for pieces that follow
    the eigenvectors', the k_t x k_t ones first (one _pieces call for both)."""

    def __init__(self, copies: Copies, ranks: tuple[int, ...]) -> None:
        self.blocks, self.ranks, self.stacked = [len(c) for c in copies], ranks, {}
        d, r = copies.dim, sum(n * k for n, k in zip(self.blocks, ranks))
        self.s, self.kernel, self.diagonal = (np.full(x, -1) for x in [(d, r), (d, d - r), (r, r)])
        self.spread, self.index = np.zeros(r, int), np.arange(r)[:, None]
        O = Z = vo = po = wo = 0  # where block t's coordinates and pieces start
        for c, n, k in zip(copies, self.blocks, ranks):
            b = c.shape[1]
            z, V, a = b - k, vo + np.arange(b * b).reshape(b, b), np.arange(n)[:, None]
            Q, K = O + a * k + np.arange(k), Z + a * z + np.arange(z)  # copy a's coordinates
            self.s[c[:, :, None], Q[:, None]] = V[:, z:]
            self.kernel[c[:, :, None], K[:, None]] = V[:, :z]
            self.diagonal[Q[:, :, None], Q[:, None]] = po + np.arange(k * k).reshape(k, k)
            self.spread[Q] = wo + np.arange(k)
            O, Z, vo, po, wo = O + n * k, Z + n * z, vo + b * b, po + k * k, wo + k
        self.eigenvectors = vo  # their pieces' length
        self.after = np.where(self.diagonal < 0, -1, self.diagonal + vo), self.spread + vo + po
        read_only(self.s, self.kernel, self.diagonal, self.spread, self.index, *self.after)

    @cached_property
    def closed_form(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """For column copies, of B = (+)_t M_{n_t} over itself, read-only: the 0/1 action
        (dim B, r, r), R(e^t_kl) moving copy k to l, and per block t the index array (r,
        r, n_t, n_t) of its pairing into the values, <v_a (x) e_k, v_a (x) e_l> = w_a e^t_kl,
        and spread, for the values laid out after the eigenvectors' pieces."""
        r, pairing = len(self.spread), []
        action = np.zeros((sum(n * n for n in self.blocks), r, r), complex)
        O, o, wo = 0, 0, self.eigenvectors
        for n, k in zip(self.blocks, self.ranks):
            kk, l, a = np.arange(n)[:, None, None], np.arange(n)[:, None], np.arange(k)
            action[o + kk * n + l, O + l * k + a, O + kk * k + a] = 1.0  # copy kk to copy l
            pairing.append(np.full((r, r, n, n), -1))
            pairing[-1][O + kk * k + a, O + l * k + a, kk, l] = wo + a
            O, o, wo = O + n * k, o + n * n, wo + k
        spread = self.spread + self.eigenvectors
        return read_only(action)[0], read_only(*pairing), read_only(spread)[0]


def read_only(*arrays: np.ndarray) -> list[np.ndarray]:
    """arrays, each made read-only: structure shared by the whole process."""
    for X in arrays:
        X.flags.writeable = False
    return list(arrays)


def _pieces(pieces: Sequence[np.ndarray], axis: int, width: int = 2) -> np.ndarray:
    """What a CopyLayout's index arrays take at `axis`: the pieces of all blocks, their
    `width` axes from `axis` on flattened into one, concatenated there, then a zero."""
    flat = [X.reshape(*X.shape[:axis], -1, *X.shape[axis + width :]) for X in pieces]
    zero = np.zeros((*flat[0].shape[:axis], 1, *flat[0].shape[axis + 1 :]), complex)
    return np.concatenate([*flat, zero], axis=axis)


def quotient_by_copies(pre: PreModule, copies: Copies, tol: Tolerance) -> list[QuotientSlice]:
    """quotient_by_null of orthogonal sums of equal submodules, copies[t] placing block
    t's (cp.row_split), as (+)_t C^{n_t} (x) K_t: the rank decision on copy 0's Gram
    blocks, and per group of slices of one rank in every block (by_ranks) one
    _quotient_stack per block what its copies share, which the layout puts on every
    copy.  Copies that are not copy 0's bit for bit take the gate, and beyond it raise
    UnequalCopies."""
    G, B, G0 = _scalarized(pre.algebra, pre.pairing), pre.algebra, []
    for t, c in enumerate(copies):
        G0.append(G[:, c[:1, :, None], c[:1, None, :]])
        D = G[:, c[1:, :, None], c[1:, None, :]] - G0[-1]
        if any_nonzero(D) and any_nonzero(
                bad := exceeds_finite_gate(D, np.broadcast_to(G0[-1], D.shape), tol)):
            i, a = np.argwhere(bad)[0]
            raise UnequalCopies(f"copy {a + 1} of block {t} differs from copy 0 in slice {i}")

    def build(at, decided: list[tuple], names) -> Quotient:
        lay, parts = copies.layout(decided), []
        bases = [require_finite(V, "Gram eigenvectors") for _, _, V in decided]
        for c, X, k in zip(copies, bases, lay.ranks):  # copy 0: its rows, kept columns
            z, i, j = X.shape[-1] - k, c[0][:, None], c[0]
            st, kt = np.ascontiguousarray(X[..., z:]), np.ascontiguousarray(X[..., :z])
            pairing = [P[at][:, i, j] for P in pre.pairing]
            parts.append(_quotient_stack(B, st, kt, pre.action[at][..., i, j], pairing, tol, names))
        (moved, pairing, w, V), (diagonal, spread) = zip(*parts), lay.after
        pieces = _pieces([*bases, *V, *w], 1)  # copy 0's eigenvectors, then its spectra
        w = pieces.real.take(spread, axis=1)  # the copies' spectra, sorted with V
        order, rows = w.argsort(axis=-1, kind="stable"), np.arange(len(w))[:, None]
        V = pieces.take(diagonal, axis=1)[rows[..., None], lay.index, order[:, None]]
        return _quotients(B, pieces.take(lay.s, axis=1), pieces.take(lay.kernel, axis=1),
                          _pieces(moved, 2).take(lay.diagonal, axis=2),
                          [_pieces(P, 1).take(lay.diagonal, axis=1) for P in zip(*pairing)],
                          w[rows, order], V)

    return by_ranks(rank_kernel(Split([g[:, 0] for g in G0]), tol), build)


def quotient_by_columns(
    B: AlgebraShape, gram: Split, copies: Copies, tol: Tolerance
) -> list[QuotientSlice]:
    """E (x)_pi B, B = (+)_t M_{n_t} over itself, from the rank decision on copy 0's Gram
    blocks (copies = cp.column_split), in the layout's closed form, per group of slices
    of one rank in every block (by_ranks): with v_a, w_a block t's kept eigenpairs,
    O_t + k r_t + a is v_a (x) e^t_.k, R(e^t_kl) moves copy k to l, and
    <v_a (x) e_k, v_b (x) e_l> = w_a delta_ab e^t_kl; sorted, the Gram spectrum's
    eigenvectors are the identity's columns in the order of the sort.  The kernel leaks
    under R(e^t_kl), of norm 1, by V_t,keep* V_t,drop."""

    def build(at, decided: list[tuple], names) -> Quotient:
        lay, kept, leaks = copies.layout(decided), [], []
        bases = [require_finite(V, "Gram eigenvectors") for _, _, V in decided]
        unit = np.ones((S := bases[0].shape[0], 1, 1))
        for t, ((_, w, _), V, r) in enumerate(zip(decided, bases, lay.ranks)):
            z = V.shape[-1] - r
            if leak := first_leak(V[..., z:].conj().swapaxes(-1, -2) @ V[..., :z], unit, tol):
                leaks.append((*leak, t))
            kept.append(w[:, z:])
        if leaks:
            i, leak, t = min(leaks)  # the first leaking slice
            raise _leak_error(names, i, B.offsets[t], leak)
        pieces, (action, pairing, spread) = _pieces([*bases, *kept], 1), lay.closed_form
        if (stacked := lay.stacked.get(S)) is None:  # the action of S slices, kept per S
            stacked = lay.stacked[S] = np.broadcast_to(action, (S, *action.shape))
        spectrum = pieces.real.take(spread, axis=1)
        order = spectrum.argsort(axis=-1, kind="stable")
        return _quotients(
            B, pieces.take(lay.s, axis=1), pieces.take(lay.kernel, axis=1),
            stacked, [pieces.take(P, axis=1) for P in pairing],
            spectrum[np.arange(S)[:, None], order], (lay.index == order[:, None]).astype(complex),
        )

    return by_ranks(rank_kernel(gram, tol), build)


def null_leak(
    q: np.ndarray, K: np.ndarray, kernel: np.ndarray, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray]:
    """Per-slice leak ||q K[i] kernel|| of a stack K (..., m, n) of pre-space maps
    and its gate ctol * (1 + ||K[i]||); K[i] preserves the null spaces when
    its leak stays within its gate."""
    return operator_norms(q @ K @ kernel), tol.ctol * (1.0 + operator_norms(K))


def first_leak(X: np.ndarray, K: np.ndarray, tol: Tolerance) -> tuple[int, float] | None:
    """(flat index, leak) of the first slice of K whose null_leak X = q K kernel
    exceeds its gate, or None when all pass; exceeds_gate certifies most
    slices without an exact norm.  K must be finite: descend and PreModule check it."""
    bad = exceeds_finite_gate(X, K, tol)
    if not any_nonzero(bad):
        return None
    first = int(np.flatnonzero(bad)[0])
    return first, operator_norm(X.reshape(-1, *X.shape[-2:])[first])


def descend(
    K: np.ndarray, src: Sequence[QuotientSlice], tgt: Sequence[QuotientSlice], what: str,
    tol: Tolerance,
) -> np.ndarray:
    """q_tgt K[i] s_src for each slice i, a stack: K (S, ..., m, n) a stack of
    maps between the pre-spaces of src[i] and tgt[i], compressed to what it
    induces on the quotients, with one stacked gate and product: q K [s |
    kernel] by live_products, on a block-sparse K's live block.  Raises
    WellDefinednessViolation, naming `what`, the first leaking slice of a
    longer stack and its leak, when K[i] leaks ker G_src out of ker G_tgt."""
    q, s, kernel = gather(tgt, "q"), gather(src, "s"), gather(src, "kernel")
    K = require_finite(K)
    ex = (slice(None),) + (None,) * (K.ndim - 3)
    qKs, qKk = live_products(q[ex], K, s[ex], kernel[ex])
    leak = first_leak(qKk, K, tol)
    if leak is not None:
        where = f" in slice {leak[0] // int(np.prod(K.shape[1:-2]))}" if len(K) > 1 else ""
        raise WellDefinednessViolation(f"{what} leaks out of the null space{where} ({leak[1]:.3e})")
    return qKs


# -- module maps -----------------------------------------------------------


@dataclass
class ModuleMap:
    """B-linear map between Hilbert modules over the same algebra.

    In finite dimension every B-linear map is adjointable, with adjoint
    G_src^(-1) T^dagger G_tgt; adjoint_map applies that formula.  Its matrix
    is checked finite where it enters (load, generation), not here.
    """

    source: HilbertModule
    target: HilbertModule
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.source.algebra != self.target.algebra:
            raise ShapeMismatch("module map across different coefficient algebras")
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ShapeMismatch(
                f"matrix {self.matrix.shape} != {(self.target.dim, self.source.dim)}"
            )



def identity_map(E: HilbertModule) -> ModuleMap:
    return ModuleMap(E, E, np.eye(E.dim, dtype=complex))


def same_module(E: PreModule, F: PreModule) -> bool:
    """E and F are one module: the same object, or equal content keys."""
    return E is F or E.key == F.key


def compose_maps(outer: ModuleMap, inner: ModuleMap) -> ModuleMap:
    if not same_module(outer.source, inner.target):
        raise ShapeMismatch("maps do not chain")
    return ModuleMap(inner.source, outer.target, outer.matrix @ inner.matrix)


def realize(m: ModuleMap) -> np.ndarray:
    """Hilbert-space realization G_tgt^(1/2) T G_src^(-1/2)."""
    return m.target.gram_sqrt @ m.matrix @ m.source.gram_isqrt


def adjoint_matrices(maps: Sequence[ModuleMap]) -> np.ndarray:
    """Matrices of the unique adjoints G_src^(-1) T^dagger G_tgt of B-linear
    maps of one shape, a stack from one stacked product."""
    Gi = gather([m.source for m in maps], "gram_inv")
    Th = stack_slices([m.matrix.conj().T for m in maps])
    return Gi @ Th @ gather([m.target for m in maps], "gram_matrix")


def adjoint_map(m: ModuleMap) -> ModuleMap:
    """Unique adjoint of a B-linear map: G_src^(-1) T^dagger G_tgt."""
    return ModuleMap(m.target, m.source, adjoint_matrices([m])[0])


def unitarity_residual(U: Sequence[ModuleMap]) -> float:
    """max(||U* U - 1||, ||U U* - 1||) with the module adjoint, the largest
    over a family of maps of one shape, from one batched norm per shape."""
    Us, X = adjoint_matrices(U), stack_slices([u.matrix for u in U])
    defects = Us @ X - np.eye(X.shape[-1]), X @ Us - np.eye(X.shape[-2])
    return float(max_operator_norms(*defects).max())


def module_operator_norm(m: ModuleMap) -> float:
    """Norm in L(E1, E2), computed through the faithful realization."""
    return float(module_operator_norms([m])[0])


def module_operator_norms(maps: Sequence[ModuleMap]) -> np.ndarray:
    """module_operator_norm of each map of one shape, from one stacked
    realization and one batched norm."""
    S = gather([m.target for m in maps], "gram_sqrt")
    Si = gather([m.source for m in maps], "gram_isqrt")
    return operator_norms(S @ stack_slices([m.matrix for m in maps]) @ Si)


def is_map_positive(m: ModuleMap, tol: Tolerance) -> tuple[bool, float]:
    """Positivity of an element of L(E) through its realization."""
    ok, w0 = psd_verdict(realize(m), tol)
    return bool(ok), float(w0)


def rank_one_sum(E: HilbertModule, X: np.ndarray, Y: np.ndarray) -> ModuleMap:
    """sum_r theta_{x_r, y_r} over the rows of X and Y, as one product over (r, p):
    column j is sum_{r, p} R(u_p) x_r C[r, p, j] with C = pairing_coeffs(E, Y)."""
    X = np.asarray(X, dtype=complex)
    k = X.shape[0] * E.algebra.dim
    moved = (E.action @ X.T).transpose(2, 0, 1).reshape(k, E.dim)  # R(u_p) x_r at [r, p]
    return ModuleMap(E, E, moved.T @ pairing_coeffs(E, Y).reshape(k, E.dim))


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
    """B viewed as a Hilbert module over itself with <a, b> = a* b: one read-only
    module per block sizes, shared by the process (memo.structure), its Gram
    powers (the identity) with it."""

    def build() -> HilbertModule:
        E = canonical_module(shape, shape.blocks)
        read_only(E.action, *E.pairing, *E.gram_spectrum, E.gram_matrix, E.gram_sqrt,
                   E.gram_isqrt, E.gram_inv)
        return E

    return structure(("algebra_module", shape.blocks), build)
