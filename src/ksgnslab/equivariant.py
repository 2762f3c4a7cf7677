"""Finite-group dynamical systems, equivariant correspondences, and their
dilation through the KSGNS construction.

Groups are finite and presented by multiplication tables (with an optional
permutation presentation used to build honest unitary representations), so
strong continuity of the unitary families is vacuous and recorded as such
rather than tested.

The dilated unitary family is built twice: directly on representatives as
the compression of alpha_g (x) U_g, and as the categorical composite
eta~_g . V_g^{-1} . V'_{beta_g}.  Agreement of the two is itself a check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cstar import (
    AlgebraShape,
    Automorphism,
    block_diag,
    haar_unitary,
    identity_automorphism,
    inner_automorphism,
)
from .cp import CPMap, Intertwiner, random_cp
from .errors import ShapeMismatch, SpanningFailure, TwistMismatch, ValidationError
from .hilbert import (
    HilbertModule,
    ModuleMap,
    adjoint_map,
    algebra_module,
    descend,
    max_stacked_norm,
    pairing_coeffs,
    unitarity_residual,
)
from .ksgns import (
    KsgnsTriple,
    check_triple,
    conjugated_triple,
    ksgns_lift,
    ksgns_once,
    spanning_rank,
    triple_uniqueness_unitary,
)
from .memo import BuildMemo
from .numkernel import DEFAULT_TOL, Tolerance, exceeds_gate, max_operator_norm, operator_norm
from .poscor import (
    PosCorMorphism,
    PosCorObject,
    commuting_unitary,
    make_poscor_morphism,
    morphism_distance,
    poscor_compose,
    poscor_identity,
    tensor_key,
    twist_unitary,
    v_rho,
)
from .reporting import CheckReport


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
        n = self.order
        if self.table.shape != (n, n):
            raise ValidationError("group table has wrong shape")
        for g, h, k in itertools.product(range(n), repeat=3):
            if self.table[self.table[g, h], k] != self.table[g, self.table[h, k]]:
                raise ValidationError("group table is not associative")
        for g in range(n):
            if self.table[self.identity, g] != g or self.table[g, self.identity] != g:
                raise ValidationError("identity law fails")
            if (
                self.table[g, self.inverse[g]] != self.identity
                or self.table[self.inverse[g], g] != self.identity
            ):
                raise ValidationError("inverse law fails")

    def mul(self, g: int, h: int) -> int:
        return int(self.table[g, h])

    def inv(self, g: int) -> int:
        return int(self.inverse[g])

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
        worst = operator_norm(
            self.action[self.group.identity].matrix - np.eye(self.algebra.dim)
        )
        for g, h in itertools.product(range(self.group.order), repeat=2):
            gh = self.group.mul(g, h)
            worst = max(
                worst,
                operator_norm(
                    self.action[g].matrix @ self.action[h].matrix
                    - self.action[gh].matrix
                ),
            )
        return worst


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
        G = self.system_in.group
        if self.system_out.group.order != G.order:
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


def check_equivariant(
    c: EquivariantCorrespondence, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """Residuals: representation law, twisted linearity and pairing, covariance."""
    rep = CheckReport()
    G = c.group
    E = c.module
    d = E.dim
    U = np.stack(c.unitaries)
    beta = c.system_out.action
    alpha = c.system_in.action
    u_scale = 1.0 + max_operator_norm(U)

    hom = max(
        operator_norm(U[G.identity] - np.eye(d)),
        max_operator_norm(U[:, None] @ U - U[G.table]),
    )
    rep.add("representation", hom, tol.ctol * u_scale**2)

    lin = 0.0
    for g in range(G.order):
        twisted = np.einsum("qp,qij->pij", beta[g].matrix, E.action)
        lin = max(lin, max_operator_norm(U[g] @ E.action - twisted @ U[g]))
    rep.add("twisted_linearity", lin, tol.ctol * u_scale)

    pair_twist = 0.0
    C = pairing_coeffs(E, np.eye(d))
    for g in range(G.order):
        # <U_g e_i, U_g e_j> - beta_g(<e_i, e_j>) over all basis pairs (i, j)
        lhs = np.tensordot(U[g].conj(), C @ U[g], axes=(0, 0))
        pair_twist = max(pair_twist, max_stacked_norm(E.algebra, lhs - beta[g].matrix @ C))
    rep.add("pairing_twist", pair_twist, tol.ctol * u_scale**2 * (1.0 + _gram_scale(E)))

    cov = 0.0
    for g in range(G.order):
        moved = np.einsum("qp,qij->pij", alpha[g].matrix, c.phi.images)
        cov = max(cov, max_operator_norm(U[g] @ c.phi.images - moved @ U[g]))
    rep.add("covariance", cov, tol.ctol * u_scale * (1.0 + c.phi.norm))
    return rep


def _gram_scale(E: HilbertModule) -> float:
    return operator_norm(E.gram_matrix)


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
        images += np.einsum("ij,pjk,kl->pil", Uh, moved, Uh_inv, optimize=True)
    images /= group.order
    return CPMap(A, c_phi.module, images)


# -- functorial face -----------------------------------------------------------


@dataclass
class EquivariantFunctor:
    """The per-element morphism family F(g) = (beta_g, (U_g . twist, alpha_g))."""

    obj: PosCorObject
    morphisms: list[PosCorMorphism]


def correspondence_to_functor(
    c: EquivariantCorrespondence, tol: Tolerance, memo: BuildMemo
) -> EquivariantFunctor:
    """F(g) = (beta_g, (U_g . twist, alpha_g)) for each g; eta_g is defined
    on the twist tensor E (x)_{beta_g} B, which F(g) lives on."""
    obj = PosCorObject(
        ident="E",
        input_algebra=c.phi.algebra,
        coefficient=c.module.algebra,
        module=c.module,
        phi=c.phi,
    )
    morphisms = []
    for g in range(c.group.order):
        beta_g = c.system_out.action[g]
        tw = twist_unitary(c.module, beta_g, tol, memo)
        eta_g = ModuleMap(tw.twisted.module, c.module, c.unitaries[g] @ tw.unitary.matrix)
        morphisms.append(
            make_poscor_morphism(
                obj, obj, beta_g.forward, eta_g, c.system_in.action[g], tol, memo
            )
        )
    return EquivariantFunctor(obj, morphisms)


def check_functor_laws(
    c: EquivariantCorrespondence,
    functor: EquivariantFunctor,
    tol: Tolerance,
    memo: BuildMemo,
) -> CheckReport:
    """F(g) F(h) = F(gh) through pullbacks, unit law, and U_g recovery.

    F(g) F(h) is composed along beta_gh (poscor_compose(..., rho=)), so it
    lives on the tensor of F(gh), E (x)_{beta_gh} B, not on a fresh tensor
    along the composed coefficients beta_g beta_h: the group law makes the
    two star maps equal up to rounding.  Before any composite is built,
    every ||beta_g beta_h - beta_gh|| is gated at the composition_law
    threshold; a violation raises TwistMismatch naming (g, h).

    Builds go through the caller's BuildMemo, which lives for one checked
    instance.  The tensors of the F(g) enter it under their content keys,
    so a memo other than the one that built `functor` also finds the
    tensors of F(gh).  Across the |G|^2 composites it builds each tensor
    module and extended CP map once per content.
    """
    rep = CheckReport()
    G = c.group
    E = c.module
    scale = 1.0 + max(1.0, _gram_scale(E))
    _require_group_law(c.system_out, tol.ctol * scale, tol)
    for tm in (m.dom_tensor for m in functor.morphisms):
        memo.get(tensor_key(tm.left, tm.right, tm.pi, tol), lambda: tm)
    recover = max(
        operator_norm(functor.morphisms[g].pullback - c.unitaries[g])
        for g in range(G.order)
    )
    rep.add("unitary_recovery", recover, tol.ctol * scale)
    unit_gap = morphism_distance(
        functor.morphisms[G.identity], poscor_identity(functor.obj, tol, memo)
    )
    rep.add("unit_law", unit_gap, tol.ctol * scale)
    law = 0.0
    unitary = 0.0
    for g in range(G.order):
        unitary = max(unitary, unitarity_residual(functor.morphisms[g].eta))
        for h in range(G.order):
            gh = G.mul(g, h)
            composed = poscor_compose(
                functor.morphisms[g],
                functor.morphisms[h],
                tol,
                memo,
                rho=functor.morphisms[gh].rho,
            )
            law = max(law, operator_norm(composed.pullback - c.unitaries[gh]))
    rep.add("composition_law", law, tol.ctol * scale)
    rep.add("unitary_valued", unitary, tol.ctol * scale)
    return rep


def _require_group_law(system: DynamicalSystem, threshold: float, tol: Tolerance) -> None:
    """Raise TwistMismatch at the first (g, h) whose ||beta_g beta_h - beta_gh||
    exceeds `threshold`; one stacked gate over all pairs."""
    G = system.group
    beta = np.stack([a.matrix for a in system.action])
    defect = beta[:, None] @ beta - beta[G.table]
    bad = exceeds_gate(defect, np.zeros_like(defect), Tolerance(tol.rtol, threshold))
    if bad.any():
        g, h = (int(i) for i in np.argwhere(bad)[0])
        raise TwistMismatch(
            f"beta_{g} beta_{h} and beta_{G.mul(g, h)} differ by "
            f"{operator_norm(defect[g, h]):.3e}"
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
    alpha_g (x) U_g to the quotient."""
    t = ksgns_once(c.module, c.phi, tol, memo)
    K = np.stack(
        [np.kron(c.system_in.action[g].matrix, c.unitaries[g]) for g in range(c.group.order)]
    )
    return DilationQuadruple(c, t, list(descend(K, t, t, "alpha_g (x) U_g", tol)))


def dilated_correspondence(quad: DilationQuadruple) -> EquivariantCorrespondence:
    """((F_phi, pi_phi), U~) as an equivariant correspondence."""
    c = quad.source
    return EquivariantCorrespondence(
        c.system_in, c.system_out, quad.triple.module, quad.triple.pi, quad.unitaries
    )


def categorical_dilation_unitary(
    c: EquivariantCorrespondence,
    quad: DilationQuadruple,
    g: int,
    tol: Tolerance,
    memo: BuildMemo,
) -> np.ndarray:
    """U~_g rebuilt as eta~_g . V_g^{-1} . V'_{beta_g}: the composite that the
    functorial proof produces, used to cross-check the direct compression.
    The lift lands on quad.triple; the commuting unitary's triple of
    (E, phi) comes from the memo and is content-equal to it."""
    E = c.module
    beta_g = c.system_out.action[g]
    tw = twist_unitary(E, beta_g, tol, memo)
    eta_g = ModuleMap(tw.twisted.module, E, c.unitaries[g] @ tw.unitary.matrix)
    cu = commuting_unitary(c.phi, tw.twisted, tol, memo)
    lifted = ksgns_lift(
        Intertwiner(eta_g, c.system_in.action[g]), cu.left, quad.triple, tol
    )
    V_inv = adjoint_map(cu.unitary).matrix
    return lifted.eta.matrix @ V_inv @ v_rho(cu.right)


def check_dilation(
    quad: DilationQuadruple, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """The four quadruple conditions."""
    c = quad.source
    t = quad.triple
    rep = CheckReport()
    rep.merge(check_equivariant(dilated_correspondence(quad), tol), prefix="dilated_")
    rep.merge(check_triple(t, tol), prefix="triple_")
    V, U = t.embedding.matrix, np.stack(c.unitaries)
    compat = max_operator_norm(
        t.module.gram_sqrt @ (V @ U - quad.unitaries @ V) @ c.module.gram_isqrt
    )
    scale = 1.0 + max_operator_norm(U)
    rep.add("embedding_equivariance", compat, tol.ctol * scale)
    return rep


def uniqueness_unitary(
    q1: DilationQuadruple, q2: DilationQuadruple, tol: Tolerance = DEFAULT_TOL
) -> tuple[ModuleMap, CheckReport]:
    """Solve the B-linear unitary W: F' -> F_phi matching the two quadruples:
    the KSGNS matching unitary of the two triples, which must also carry the
    dilated unitary family of q2 to that of q1."""
    for t in (q1.triple, q2.triple):
        rank = spanning_rank(t, tol)
        if rank < t.module.dim:
            raise SpanningFailure(f"spanning rank {rank} < dim {t.module.dim}")
    W, rep = triple_uniqueness_unitary(q2.triple, q1.triple, tol)
    Ws = adjoint_map(W).matrix
    rep.add(
        "unitary_family_match",
        max_operator_norm(W.matrix @ np.stack(q2.unitaries) @ Ws - np.stack(q1.unitaries)),
        tol.ctol * (1.0 + q1.triple.phi.norm),
    )
    return W, rep


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
    action = np.stack([np.kron(eye, M.action[p]) for p in range(M.algebra.dim)])
    pairing = [
        np.einsum("cd,ijkl->cidjkl", eye, P).reshape(n * d, n * d, *P.shape[2:])
        for P in M.pairing
    ]
    return HilbertModule(M.algebra, n * d, action, pairing)


def scramble_module(
    M: HilbertModule, rng: np.random.Generator, spread: float = 0.3
) -> tuple[HilbertModule, np.ndarray]:
    """Transport M along a random well-conditioned coordinate change S.

    Returns (module, S) where S maps new coordinates to old ones; the new
    Gram is S* G S, so the identity-Gram canonical form disappears.
    """
    d = M.dim
    if d == 0:
        return M, np.zeros((0, 0), dtype=complex)
    W1, W2 = haar_unitary(d, rng), haar_unitary(d, rng)
    sing = np.exp(rng.uniform(-spread, spread, size=d))
    S = W1 @ np.diag(sing).astype(complex) @ W2
    S_inv = W2.conj().T @ np.diag(1.0 / sing).astype(complex) @ W1.conj().T
    action = np.stack([S_inv @ M.action[p] @ S for p in range(M.algebra.dim)])
    pairing = [
        np.einsum("ui,vj,uvkl->ijkl", S.conj(), S, P, optimize=True) for P in M.pairing
    ]
    return HilbertModule(M.algebra, d, action, pairing), S


def random_equivariant(
    A: AlgebraShape,
    B: AlgebraShape,
    G: FiniteGroup,
    seed,
    max_group_order: int = 12,
    copies: int | None = None,
    trivial_beta: bool = False,
) -> EquivariantCorrespondence:
    """Seeded equivariant correspondence: the module is a scrambled B^n, the
    unitary family is a copy permutation times the blockwise beta action, and
    phi is a Choi-sampled CP map made covariant by group averaging."""
    if G.order > max_group_order:
        raise ValidationError(f"group order {G.order} exceeds cap {max_group_order}")
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
        unitaries0.append(np.kron(P, system_out.action[g].matrix))
    E, S = scramble_module(stacked, rng)
    S_inv = np.linalg.inv(S)
    unitaries = [S_inv @ U @ S for U in unitaries0]
    phi0 = random_cp(A, E, rng)
    phi = average_covariant(phi0, system_in, unitaries, G)
    return EquivariantCorrespondence(system_in, system_out, E, phi, unitaries)
