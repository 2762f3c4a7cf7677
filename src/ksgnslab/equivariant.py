"""Finite-group dynamical systems, equivariant correspondences, and their
dilation through the KSGNS construction.

Groups are finite and presented by multiplication tables (with an optional
permutation presentation used to build honest unitary representations), so
strong continuity of the unitary families is vacuous and recorded as such
rather than tested.

The dilated unitary family is built twice: directly on representatives as
the compression of alpha_g (x) U_g, and as the KSGNS endofunctor applied to
the functor g -> F(g), built by poscor.ksgns_functor: the pullback
eta~_g . V_g^{-1} . V'_{beta_g} of each dilated F(g).  Agreement of the two
is itself a check.  The functor is the list of category morphisms F(g) from
(E, phi) to itself, in the order of G.

The group is a stack axis throughout: the twist tensors E (x)_{beta_g} B,
the F(g), their images under the KSGNS functor and the functor laws' Cayley
table are each one stacked build, never one group element at a time.  Every
E (x)_{beta_g} B is the twist E_{beta_g} (Lance, Hilbert C*-Modules, ch. 4),
so its slices share one shape, which numkernel.stack_slices checks where
each stack is formed, and batched LAPACK gives each slice the bits of a
build of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cstar import (
    AlgebraShape,
    Automorphism,
    block_diag,
    block_stacks,
    haar_unitary,
    identity_automorphism,
    inner_automorphism,
)
from .cp import CPMap, random_cp, tensor_key
from .errors import ShapeMismatch, SpanningFailure, TwistMismatch, ValidationError
from .hilbert import (
    HilbertModule,
    ModuleMap,
    adjoint_map,
    algebra_module,
    descend,
    pairing_coeffs,
    transport_pairing,
    unitarity_residual,
)
from .ksgns import (
    KsgnsTriple,
    conjugated_triple,
    ksgns,
    reconstruction_gaps,
    spanning_rank,
    triple_uniqueness_unitary,
)
from .memo import BuildMemo
from .numkernel import (
    Tolerance, exceeds_gate, kron, max_operator_norm, max_operator_norms, operator_norm,
    stack_slices,
)
from .poscor import (
    PosCorMorphism,
    PosCorObject,
    ksgns_functor,
    make_poscor_morphism,
    morphism_distance,
    poscor_compose,
    poscor_identity,
    twist_unitary,
)


# -- finite groups -----------------------------------------------------------


@dataclass
class FiniteGroup:
    """Multiplication table presentation; table[g][h] = g h.

    `perms`, when present, realizes each element as a permutation of a finite
    set and is what representation builders use.
    """

    order: int
    table: np.ndarray
    identity: int
    inverse: np.ndarray
    perms: tuple[tuple[int, ...], ...] | None = None
    name: str = "G"

    def __post_init__(self) -> None:
        self.table = np.asarray(self.table, dtype=int)
        self.inverse = np.asarray(self.inverse, dtype=int)
        n, T, e = self.order, self.table, self.identity
        if T.shape != (n, n):
            raise ValidationError("group table has wrong shape")
        if not np.array_equal(T[T], T[:, T]):  # (g h) k = g (h k) for all g, h, k
            raise ValidationError("group table is not associative")
        # the two laws checked element by element, in the order of g
        g, inv = np.arange(n), self.inverse
        identity_fails = (T[e] != g) | (T[:, e] != g)
        fails = np.flatnonzero(identity_fails | (T[g, inv] != e) | (T[inv, g] != e))
        if fails.size:
            raise ValidationError(
                "identity law fails" if identity_fails[fails[0]] else "inverse law fails"
            )

    def mul(self, g: int, h: int) -> int:
        return int(self.table[g, h])

    def inv(self, g: int) -> int:
        return int(self.inverse[g])

    def representation_gaps(self, M: np.ndarray) -> np.ndarray:
        """M_e - 1, then M_g M_h - M_gh over all (g, h), as one stack (1 + |G|^2, n, n),
        for a stack M (|G|, n, n) indexed by the group."""
        unit = M[self.identity] - np.eye(len(M[0]))
        law = (M[:, None] @ M - M[self.table]).reshape(-1, *unit.shape)
        return np.concatenate([unit[None], law])

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = self.mul(x, g)
            k += 1
        return k

    def cyclic_generator(self) -> int | None:
        for g in range(self.order):
            if self.element_order(g) == self.order:
                return g
        return None


def cyclic_group(n: int) -> FiniteGroup:
    table = np.fromfunction(lambda i, j: (i + j) % n, (n, n), dtype=int)
    inverse = np.array([(-i) % n for i in range(n)])
    perms = tuple(tuple((i + s) % n for i in range(n)) for s in range(n))
    return FiniteGroup(n, table, 0, inverse, perms, name=f"Z{n}")


def symmetric_group(n: int) -> FiniteGroup:
    elems = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    order = len(elems)
    table = np.zeros((order, order), dtype=int)
    inverse = np.zeros(order, dtype=int)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            comp = tuple(p[q[k]] for k in range(n))  # (p . q)(k) = p(q(k))
            table[i, j] = index[comp]
        inv = tuple(sorted(range(n), key=lambda k: p[k]))
        inverse[i] = index[inv]
    return FiniteGroup(order, table, index[tuple(range(n))], inverse, tuple(elems), name=f"S{n}")


def trivial_group() -> FiniteGroup:
    return FiniteGroup(1, np.zeros((1, 1), dtype=int), 0, np.zeros(1, dtype=int), ((0,),), name="E")


def perm_parity(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def unitary_representation(
    G: FiniteGroup, n: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """A genuine n-dimensional unitary representation of G, randomized by a
    fixed conjugation.  Cyclic groups use root-of-unity diagonals; permutation
    groups draw from the trivial/sign/standard irreducibles."""
    if n < 1:
        raise ShapeMismatch("representation dimension must be positive")
    if G.order == 1:
        return [np.eye(n, dtype=complex)]
    gen = G.cyclic_generator()
    if gen is not None:
        exps = np.zeros(G.order, dtype=int)
        x, k = G.identity, 0
        while True:
            exps[x] = k
            x = G.mul(x, gen)
            k += 1
            if x == G.identity:
                break
        omega = np.exp(2j * np.pi / G.order)
        chars = rng.integers(0, G.order, size=n)
        V = haar_unitary(n, rng)
        mats = []
        for g in range(G.order):
            D = np.diag(omega ** (chars * exps[g]))
            mats.append(V @ D @ V.conj().T)
        return mats
    if G.perms is None:
        raise ShapeMismatch("non-cyclic group without a permutation presentation")
    m = len(G.perms[0])
    # irreducible menu from the permutation presentation
    ones = np.ones((m, 1)) / np.sqrt(m)
    Q = np.linalg.qr(np.eye(m) - ones @ ones.T)[0][:, : m - 1]

    def perm_matrix(p: tuple[int, ...]) -> np.ndarray:
        P = np.zeros((m, m))
        for i, j in enumerate(p):
            P[j, i] = 1.0
        return P

    def irrep(kind: str, g: int) -> np.ndarray:
        p = G.perms[g]
        if kind == "trivial":
            return np.eye(1, dtype=complex)
        if kind == "sign":
            return np.array([[(-1.0) ** perm_parity(p)]], dtype=complex)
        if kind == "standard":
            return (Q.T @ perm_matrix(p) @ Q).astype(complex)
        raise ShapeMismatch(kind)

    dims = {"trivial": 1, "sign": 1, "standard": m - 1}
    pieces: list[str] = []
    left = n
    while left > 0:
        options = [k for k, dk in dims.items() if dk <= left]
        pick = options[rng.integers(len(options))]
        pieces.append(pick)
        left -= dims[pick]
    V = haar_unitary(n, rng)
    mats = []
    for g in range(G.order):
        D = block_diag([irrep(kind, g) for kind in pieces])
        mats.append(V @ D @ V.conj().T)
    return mats


def sign_homomorphism(G: FiniteGroup) -> list[int]:
    """A homomorphism G -> {0, 1} (the copy-swapping character), trivial when
    no nontrivial one exists."""
    if G.perms is not None:
        signs = [perm_parity(p) for p in G.perms]
        for g, h in itertools.product(range(G.order), repeat=2):
            if signs[G.mul(g, h)] != signs[g] ^ signs[h]:
                return [0] * G.order
        return signs
    return [0] * G.order


# -- dynamical systems ---------------------------------------------------------


@dataclass
class DynamicalSystem:
    """(A, G, alpha) with alpha a homomorphism into the automorphisms of A."""

    algebra: AlgebraShape
    group: FiniteGroup
    action: list[Automorphism]

    def __post_init__(self) -> None:
        if len(self.action) != self.group.order:
            raise ShapeMismatch("one automorphism per group element required")

    def homomorphism_residual(self) -> float:
        """max(||alpha_e - 1||, ||alpha_g alpha_h - alpha_gh|| over all (g, h))."""
        alpha = np.stack([a.matrix for a in self.action])
        return max_operator_norm(self.group.representation_gaps(alpha))


def trivial_system(shape: AlgebraShape, G: FiniteGroup) -> DynamicalSystem:
    return DynamicalSystem(shape, G, [identity_automorphism(shape) for _ in range(G.order)])


def inner_system(
    shape: AlgebraShape, G: FiniteGroup, rng: np.random.Generator
) -> DynamicalSystem:
    """alpha_g = Ad(w_g) for a blockwise unitary representation w."""
    if G.order == 1:
        return trivial_system(shape, G)
    reps = [unitary_representation(G, n, rng) for n in shape.blocks]
    action = [
        inner_automorphism(shape, [reps[i][g] for i in range(len(shape.blocks))])
        for g in range(G.order)
    ]
    return DynamicalSystem(shape, G, action)


# -- equivariant correspondences ----------------------------------------------


@dataclass
class EquivariantCorrespondence:
    """((E, phi), U) with U_g a beta_g-adjointable unitary covariant for the
    two actions."""

    system_in: DynamicalSystem  # (A, G, alpha)
    system_out: DynamicalSystem  # (B, G, beta)
    module: HilbertModule  # E over B
    phi: CPMap
    unitaries: list[np.ndarray]  # one (d, d) matrix per group element

    def __post_init__(self) -> None:
        G, H = self.system_in.group, self.system_out.group
        if H is not G and not (
            (G.order, G.identity, G.perms, G.name) == (H.order, H.identity, H.perms, H.name)
            and np.array_equal(G.table, H.table) and np.array_equal(G.inverse, H.inverse)
        ):
            raise ShapeMismatch("the two systems carry different groups")
        if len(self.unitaries) != G.order:
            raise ShapeMismatch("one unitary per group element required")
        if self.phi.algebra != self.system_in.algebra:
            raise ShapeMismatch("phi domain differs from the acting algebra")
        if self.module.algebra != self.system_out.algebra:
            raise ShapeMismatch("module coefficients differ from the target system")

    @property
    def group(self) -> FiniteGroup:
        return self.system_in.group


def check_equivariant(c: EquivariantCorrespondence, tol: Tolerance) -> list[tuple]:
    """Records: representation law, twisted linearity and pairing, covariance,
    each over the whole group at once."""
    G, E, d = c.group, c.module, c.module.dim
    U = np.stack(c.unitaries)
    beta = np.stack([b.matrix for b in c.system_out.action])
    alpha = np.stack([a.matrix for a in c.system_in.action])
    twisted = np.einsum("gqp,qij->gpij", beta, E.action)
    covariant = np.einsum("gqp,qij->gpij", alpha, c.phi.images)
    # <U_g e_i, U_g e_j> - beta_g(<e_i, e_j>) over all g and basis pairs (i, j)
    C = pairing_coeffs(E, np.eye(d))
    moved = U.conj().transpose(0, 2, 1) @ (C @ U[:, None]).reshape(G.order, d, -1)
    gap = moved.reshape(G.order, *C.shape) - beta[:, None] @ C
    # the U scale, the representation law, twisted linearity, covariance and the
    # Gram scale, all (d, d), and the pairing gap's blocks, in one batched norm
    u_norm, law, lin, cov, gram, *pair_twist = max_operator_norms(
        U, G.representation_gaps(U), U[:, None] @ E.action - twisted @ U[:, None],
        U[:, None] @ c.phi.images - covariant @ U[:, None], E.gram_matrix,
        *block_stacks(E.algebra, gap.transpose(0, 1, 3, 2)),
    ).tolist()
    u_scale = 1.0 + u_norm
    return [
        ("representation", law, tol.ctol * u_scale**2),
        ("twisted_linearity", lin, tol.ctol * u_scale),
        ("pairing_twist", max(pair_twist), tol.ctol * u_scale**2 * (1.0 + gram)),
        ("covariance", cov, tol.ctol * u_scale * (1.0 + c.phi.norm)),
    ]


def average_covariant(
    c_phi: CPMap,
    system_in: DynamicalSystem,
    unitaries: list[np.ndarray],
    group: FiniteGroup,
) -> CPMap:
    """Group-average a CP map into a covariant one:
    phi(a) = (1/|G|) sum_h U_h phi0(alpha_h^{-1}(a)) U_h^{-1}."""
    if group.order == 1:
        return c_phi
    A = c_phi.algebra
    images = np.zeros_like(c_phi.images)
    for h in range(group.order):
        inv_mat = system_in.action[group.inv(h)].matrix
        Uh = unitaries[h]
        Uh_inv = unitaries[group.inv(h)]
        moved = np.einsum("qp,qij->pij", inv_mat, c_phi.images)
        images += Uh @ moved @ Uh_inv
    images /= group.order
    return CPMap(A, c_phi.module, images)


# -- functorial face -----------------------------------------------------------


def correspondence_to_functor(
    c: EquivariantCorrespondence, tol: Tolerance, memo: BuildMemo
) -> list[PosCorMorphism]:
    """F(g) = (beta_g, (U_g . twist, alpha_g)) from (E, phi) to itself for
    every g, in the order of G, over one stacked build of the |G| twist
    tensors E (x)_{beta_g} B, which the F(g) live on."""
    obj = PosCorObject("E", c.phi.algebra, c.module.algebra, c.module, c.phi)
    beta = c.system_out.action
    tms, twists = twist_unitary(c.module, beta, tol, memo)
    etas = [
        ModuleMap(tm.module, c.module, U @ twist) for tm, U, twist in zip(tms, c.unitaries, twists)
    ]
    n = c.group.order
    return make_poscor_morphism(
        [obj] * n, [obj] * n, [b.forward for b in beta], etas, c.system_in.action, tol, memo
    )


def check_functor_laws(
    c: EquivariantCorrespondence, F: list[PosCorMorphism], tol: Tolerance, memo: BuildMemo
) -> list[tuple]:
    """F(g) F(h) = F(gh) through pullbacks, unit law, and U_g recovery.

    F(g) F(h) is composed along beta_gh (poscor_compose(..., rho=)), so it
    lives on the tensor of F(gh), E (x)_{beta_gh} B, not on a fresh tensor
    along the composed coefficients beta_g beta_h: the group law makes the
    two star maps equal up to rounding.  Before any composite is built,
    every ||beta_g beta_h - beta_gh|| is gated at the functor_composition
    threshold; a violation raises TwistMismatch naming (g, h).

    The whole Cayley table goes to one poscor_compose call, one stacked
    product of all |G|^2 composites; a failing composite is named by its
    slice g |G| + h.  Builds go through
    the caller's BuildMemo, which lives for one checked instance.  The
    tensors of the F(g) enter it under their content keys, so a memo other
    than the one that built F also finds the tensors of F(gh).
    """
    G = c.group
    scale = 1.0 + max(1.0, operator_norm(c.module.gram_matrix))
    _require_group_law(c.system_out, tol.ctol * scale, tol)
    tms = [m.dom_tensor for m in F]
    keys = [tensor_key(tm.left, tm.right, tm.pi, tol) for tm in tms]
    memo.get_all(keys, lambda todo: [tms[s] for s in todo])
    unit_gap = morphism_distance([F[G.identity]], [poscor_identity(F[0].dom, tol, memo)])[0]
    g, h = np.divmod(np.arange(G.order**2), G.order)
    gh = G.table[g, h]
    composed = poscor_compose(
        [F[x] for x in g], [F[x] for x in h], tol, memo, rho=[F[x].rho for x in gh]
    )
    U = np.stack(c.unitaries)
    recover, law = max_operator_norms(
        np.stack([m.pullback for m in F]) - U, np.stack([m.pullback for m in composed]) - U[gh]
    )
    return [
        ("functor_recovery", float(recover), tol.ctol * scale),
        ("functor_unit", unit_gap, tol.ctol * scale),
        ("functor_composition", float(law), tol.ctol * scale),
        ("unitary_valued", unitarity_residual([m.eta for m in F]), tol.ctol * scale),
    ]


def _require_group_law(system: DynamicalSystem, threshold: float, tol: Tolerance) -> None:
    """Raise TwistMismatch at the first (g, h) whose ||beta_g beta_h - beta_gh||
    exceeds `threshold`; one stacked gate over all pairs, slice g |G| + h."""
    G = system.group
    defect = G.representation_gaps(np.stack([a.matrix for a in system.action]))[1:]
    bad = exceeds_gate(defect, np.zeros_like(defect), Tolerance(tol.rtol, threshold))
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        g, h = divmod(first, G.order)
        raise TwistMismatch(
            f"beta_{g} beta_{h} and beta_{G.mul(g, h)} differ by "
            f"{operator_norm(defect[first]):.3e}"
        )


# -- dilation -------------------------------------------------------------------


@dataclass
class DilationQuadruple:
    """(F_phi, pi_phi, V_phi, U~) dilating an equivariant correspondence."""

    source: EquivariantCorrespondence
    triple: KsgnsTriple
    unitaries: list[np.ndarray]  # U~_g on F_phi

    @property
    def module(self) -> HilbertModule:
        return self.triple.module


def dilate(c: EquivariantCorrespondence, tol: Tolerance, memo: BuildMemo) -> DilationQuadruple:
    """Dilate to (F_phi, pi_phi, V_phi, U~) with U~_g the compression of
    alpha_g (x) U_g to the quotient, one stacked descent over the group."""
    t = ksgns([c.module], [c.phi], tol, memo)[0]
    K = stack_slices([kron(a.matrix, U) for a, U in zip(c.system_in.action, c.unitaries)])
    n = c.group.order
    return DilationQuadruple(c, t, list(descend(K, [t] * n, [t] * n, "alpha_g (x) U_g", tol)))


def dilated_correspondence(quad: DilationQuadruple) -> EquivariantCorrespondence:
    """((F_phi, pi_phi), U~) as an equivariant correspondence."""
    c = quad.source
    return EquivariantCorrespondence(
        c.system_in, c.system_out, quad.triple.module, quad.triple.pi, quad.unitaries
    )


def categorical_dilation_unitary(
    c: EquivariantCorrespondence, tol: Tolerance, memo: BuildMemo
) -> np.ndarray:
    """The stack (|G|, d, d) of U~_g rebuilt by the KSGNS endofunctor: the
    pullbacks eta~_g . V_g^{-1} . V'_{beta_g} of ksgns_functor applied to the
    F(g) as one stack, the composite that the functorial proof produces,
    used to cross-check the direct compression.  The lifts land on the
    triple of (E, phi) in the memo, which dilate builds."""
    F = correspondence_to_functor(c, tol, memo)
    return stack_slices([k.pullback for k in ksgns_functor(F, tol, memo)])


def check_dilation(quad: DilationQuadruple, tol: Tolerance) -> list[tuple]:
    """The four quadruple conditions: the dilated family's equivariance laws,
    the two dilation conditions of the triple, and V_phi's equivariance."""
    c = quad.source
    t = quad.triple
    law, lin, pair, cov = check_equivariant(dilated_correspondence(quad), tol)
    V, U = t.embedding.matrix, np.stack(c.unitaries)
    compat, u_norm, recon = max_operator_norms(
        t.module.gram_sqrt @ (V @ U - quad.unitaries @ V) @ c.module.gram_isqrt, U,
        reconstruction_gaps(t),
    ).tolist()
    return [
        ("dilated_representation", *law[1:]),
        ("dilated_twisted_linearity", *lin[1:]),
        ("dilated_pairing_twist", *pair[1:]),
        ("dilated_covariance", *cov[1:]),
        ("reconstruction", recon, tol.ctol * (1.0 + t.phi.norm)),
        ("spanning", float(t.module.dim - spanning_rank(t, tol)), 0.0),
        ("embedding_equivariance", compat, tol.ctol * (1.0 + u_norm)),
    ]


def uniqueness_unitary(
    q1: DilationQuadruple, q2: DilationQuadruple, tol: Tolerance
) -> tuple[ModuleMap, list[tuple]]:
    """Solve the B-linear unitary W: F' -> F_phi matching the two quadruples:
    the KSGNS matching unitary of the two triples, which must also carry the
    dilated unitary family of q2 to that of q1; with the matching unitary's
    records and the family's."""
    for t in (q1.triple, q2.triple):
        rank = spanning_rank(t, tol)
        if rank < t.module.dim:
            raise SpanningFailure(f"spanning rank {rank} < dim {t.module.dim}")
    W, records = triple_uniqueness_unitary(q2.triple, q1.triple, tol)
    Ws = adjoint_map(W).matrix
    return W, [
        *records,
        (
            "unitary_family_match",
            max_operator_norm(W.matrix @ np.stack(q2.unitaries) @ Ws - np.stack(q1.unitaries)),
            tol.ctol * (1.0 + q1.triple.phi.norm),
        ),
    ]


def conjugated_quadruple(quad: DilationQuadruple, Z: ModuleMap) -> DilationQuadruple:
    """Transport a quadruple along a planted B-linear unitary Z on F_phi."""
    Zi = adjoint_map(Z).matrix
    return DilationQuadruple(
        quad.source,
        conjugated_triple(quad.triple, Z),
        [Z.matrix @ U @ Zi for U in quad.unitaries],
    )


# -- generation -----------------------------------------------------------------


def direct_sum_module(M: HilbertModule, copies: int) -> HilbertModule:
    """M^n with the summand-wise action and pairing."""
    n, d = copies, M.dim
    eye = np.eye(n)
    action = kron(eye, M.action)
    pairing = [
        np.einsum("cd,ijkl->cidjkl", eye, P).reshape(n * d, n * d, *P.shape[2:])
        for P in M.pairing
    ]
    return HilbertModule(M.algebra, n * d, action, pairing)


def scramble_module(M: HilbertModule, rng: np.random.Generator) -> tuple[HilbertModule, np.ndarray]:
    """Transport M along a random well-conditioned coordinate change S, whose
    singular values lie in [e^-0.3, e^0.3].

    Returns (module, S) where S maps new coordinates to old ones; the new
    Gram is S* G S, so the identity-Gram canonical form disappears.
    """
    d = M.dim
    if d == 0:
        return M, np.zeros((0, 0), dtype=complex)
    W1, W2 = haar_unitary(d, rng), haar_unitary(d, rng)
    sing = np.exp(rng.uniform(-0.3, 0.3, size=d))
    S = W1 @ np.diag(sing).astype(complex) @ W2
    S_inv = W2.conj().T @ np.diag(1.0 / sing).astype(complex) @ W1.conj().T
    action = S_inv @ M.action @ S
    pairing = [transport_pairing(S, P) for P in M.pairing]
    return HilbertModule(M.algebra, d, action, pairing), S


def random_equivariant(
    A: AlgebraShape,
    B: AlgebraShape,
    G: FiniteGroup,
    seed,
    copies: int | None = None,
    trivial_beta: bool = False,
) -> EquivariantCorrespondence:
    """Seeded equivariant correspondence: the module is a scrambled B^n, the
    unitary family is a copy permutation times the blockwise beta action, and
    phi is a Choi-sampled CP map made covariant by group averaging."""
    rng = np.random.default_rng(seed)
    system_in = inner_system(A, G, rng)
    system_out = (
        trivial_system(B, G) if trivial_beta or G.order == 1 else inner_system(B, G, rng)
    )
    n_copies = copies if copies is not None else int(rng.integers(1, 3))
    base = algebra_module(B)
    stacked = direct_sum_module(base, n_copies)
    signs = sign_homomorphism(G)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    unitaries0 = []
    for g in range(G.order):
        if n_copies == 2 and signs[g]:
            P = swap
        else:
            P = np.eye(n_copies)
        unitaries0.append(kron(P, system_out.action[g].matrix))
    E, S = scramble_module(stacked, rng)
    S_inv = np.linalg.inv(S)
    unitaries = [S_inv @ U @ S for U in unitaries0]
    phi0 = random_cp(A, E, rng)
    phi = average_covariant(phi0, system_in, unitaries, G)
    return EquivariantCorrespondence(system_in, system_out, E, phi, unitaries)
