"""The tensor functor and the correspondence category layer.

The interior tensor E (x)_pi F is built below KSGNS, in cp.interior_tensor,
and imported here.  Tensoring along a unital *-homomorphism rho: B -> C
means tensoring with C viewed as a module over itself, with B acting by
left multiplication through rho.

Category objects are pairs (E over B, phi: A -> L(E)) for the fixed input
algebra A; a morphism to (E' over C, psi) is (rho, (eta, alpha)) with eta
defined on E (x)_rho C.  Because quotient coordinates of independently
built tensor modules are only defined up to their eigenbasis, morphisms are
compared through their pullbacks eta . V_rho : E -> E', which are
coordinate-free; rho and alpha are compared directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cstar import (
    AlgebraShape,
    Automorphism,
    StarMap,
    compose_automorphisms,
    compose_star_maps,
    check_star_map,
    identity_automorphism,
    star_map_distance,
    unit_coeffs,
)
from .cp import (
    CPMap,
    Intertwiner,
    TensorModule,
    check_morphism,
    interior_tensor,
    left_mult_correspondence,
    tensor_extend,
    tensor_key,
)
from .errors import KsgnslabError, ObjectMismatch, ShapeMismatch
from .hilbert import (
    HilbertModule,
    ModuleMap,
    adjoint_matrices,
    gather,
    unitarity_residual,
)
from .ksgns import KsgnsTriple, ksgns, ksgns_lift
from .memo import BuildMemo
from .numkernel import (
    Tolerance, dots, kron, max_operator_norm, max_operator_norms, stack_slices, stackwise,
    summarize,
)


# -- T (x) I and the tensor functor -------------------------------------------


def tensor_extend_between(
    T: Sequence[ModuleMap], tm1: Sequence[TensorModule], tm2: Sequence[TensorModule],
    tol: Tolerance,
) -> list[ModuleMap]:
    """T[s] (x) I between two tensor modules with the same right factor, for
    each slice."""
    mats = tensor_extend([t.matrix for t in T], tm1, tm2, "T (x) I", tol)
    return [ModuleMap(a.module, b.module, X) for a, b, X in zip(tm1, tm2, mats)]


def tensor_extend_cpmap(
    phi: Sequence[CPMap], tm: Sequence[TensorModule], tol: Tolerance, memo: BuildMemo
) -> list[CPMap]:
    """phi~ = phi[s](-) (x) I, the tensor-extended CP map on each E (x)_pi F
    of tm, built once per (phi[s], tensor) content in the memo, one stacked
    build per shape."""

    def build(todo: list[int]) -> list[CPMap]:
        maps, tms = [phi[s] for s in todo], [tm[s] for s in todo]
        images = tensor_extend([p.images for p in maps], tms, tms, "T (x) I", tol)
        return [CPMap(p.algebra, t.module, X) for p, t, X in zip(maps, tms, images)]

    keys = [("extend", p.key, tensor_key(t.left, t.right, t.pi, tol)) for p, t in zip(phi, tm)]
    return memo.get_all(keys, lambda todo: stackwise(todo, lambda s: (
        phi[s].algebra.dim, tm[s].left.dim, tm[s].right.dim, tm[s].module.dim), build))


def balanced_relation_residual(tm: TensorModule, rng: np.random.Generator) -> float:
    """Norm of [x b (x) y] - [x (x) pi(b) y] in the quotient, the largest over
    8 random draws of x, b and y."""
    dE, dF = tm.factor_dims
    if dE == 0 or dF == 0:
        return 0.0
    worst = 0.0
    B = tm.left.algebra
    for _ in range(8):
        x = (rng.standard_normal(dE) + 1j * rng.standard_normal(dE)) / np.sqrt(2.0)
        y = (rng.standard_normal(dF) + 1j * rng.standard_normal(dF)) / np.sqrt(2.0)
        b = rng.integers(B.dim)
        xb = tm.left.action[b] @ x
        by = tm.pi.images[b] @ y
        diff = kron(xb, y) - kron(x, by)
        worst = max(worst, float(np.linalg.norm(tm.q @ diff)))
    return worst


# -- tensoring along a *-homomorphism ---------------------------------------


def interior_tensor_along(
    E: Sequence[HilbertModule], rho: Sequence[StarMap], tol: Tolerance, memo: BuildMemo
) -> list[TensorModule]:
    """E[s] (x)_rho[s] C for matching sequences E and rho, built through
    interior_tensor on the left-multiplication correspondences of the rho,
    which the memo holds once per rho content."""
    if any(r.domain != e.algebra for e, r in zip(E, rho)):
        raise ShapeMismatch("star map domain differs from E's coefficients")
    pi = left_mult_correspondence(rho, memo)
    return interior_tensor(E, [p.module for p in pi], pi, tol, memo)


def v_rho(tm: Sequence[TensorModule]) -> np.ndarray:
    """Matrices of V_rho: x -> class of x (x) 1_C, a complex-linear contraction
    from E to each tm[s] = E (x)_rho C (E is its left factor, C its right),
    one stacked product."""
    V_pre = {(t.left.dim, t.right.algebra): None for t in tm}
    for dE, C in V_pre:
        V_pre[dE, C] = kron(np.eye(dE, dtype=complex), unit_coeffs(C).reshape(-1, 1))
    pre = [V_pre[t.left.dim, t.right.algebra] for t in tm]
    return gather(tm, "q") @ stack_slices(pre)


@dataclass
class CompositionUnitary:
    """(E (x)_rho1 C) (x)_rho2 D -> E (x)_{rho2 rho1} D on class representatives."""

    unitary: ModuleMap
    inner: TensorModule  # E (x)_rho1 C
    double: TensorModule  # (E (x)_rho1 C) (x)_rho2 D
    target: TensorModule  # E (x)_{rho2 rho1} D
    rho: StarMap  # rho2 . rho1, or the star map the caller gave


def composition_unitary(
    tm12: Sequence[TensorModule], rho1: Sequence[StarMap], rho2: Sequence[StarMap],
    tol: Tolerance, memo: BuildMemo, rho: Sequence[StarMap] | None = None,
) -> list[CompositionUnitary]:
    """The unitaries (x (x) c) (x) d -> x (x) rho2(c) d on tm12[s] = E (x)_rho1[s] C,
    the tensors a caller's matrices live on (poscor_compose passes m1's own),
    one stacked product; the double and target tensors come from
    the memo.

    `rho`, when given, holds the star maps the targets E (x)_rho D are taken
    along in place of rho2 rho1, for a caller that knows the two agree up
    to rounding; they are then the results' `.rho`.
    """
    if any(r1.codomain != r2.domain for r1, r2 in zip(rho1, rho2)):
        raise ShapeMismatch("star maps do not chain")
    tm123 = interior_tensor_along([t.module for t in tm12], rho2, tol, memo)
    rho = rho if rho is not None else [compose_star_maps(r2, r1) for r1, r2 in zip(rho1, rho2)]
    tm13 = interior_tensor_along([t.left for t in tm12], rho, tol, memo)
    # q M_pre s with M_pre[(i, x), (u, w)] = sum_v S3[i, v, u] T[v, w, x], where
    # T[v, w, :] = coefficients of rho2(u_v) u_w in D, read off the
    # left-multiplication correspondence each tm123 was built along
    S = gather(tm12, "s")
    S3 = S.reshape(len(S), tm12[0].left.dim, rho2[0].domain.dim, S.shape[-1])
    T = stack_slices([t.pi.images.transpose(0, 2, 1) for t in tm123])
    q, s = gather(tm13, "q"), gather(tm123, "s")
    n, dE, dC, m = S3.shape
    dD = T.shape[-1]
    M = dots(S3.transpose(0, 1, 3, 2).reshape(n, dE * m, dC), T.reshape(n, dC, dD * dD))
    M = M.reshape(n, dE, m, dD, dD).transpose(0, 1, 4, 2, 3).reshape(n, dE * dD, m * dD)
    return [
        CompositionUnitary(ModuleMap(b.module, c.module, u), a, b, c, r)
        for a, b, c, r, u in zip(tm12, tm123, tm13, rho, q @ M @ s)
    ]


def twist_unitary(
    E: Sequence[HilbertModule], alpha: Sequence[Automorphism], tol: Tolerance, memo: BuildMemo
) -> list[tuple[TensorModule, np.ndarray]]:
    """(E[g] (x)_alpha[g] B, U_g) for each g, from one stacked build and product:
    the twisted tensors and the twist unitaries U_g: x (x) b -> x alpha[g]^{-1}(b),
    which identify them with E[g]; at alpha[g] = id, U_g is the inclusion x (x) b
    -> x b.  U_g is alpha[g]^{-1}-linear: as matrices R_E(alpha[g]^{-1}(b)) U_g =
    U_g R(b), R the twisted module's action."""
    tms = interior_tensor_along(E, [a.forward for a in alpha], tol, memo)
    dE, dB = E[0].dim, E[0].algebra.dim
    action = gather(E, "action")  # ShapeMismatch unless E is of one shape
    N_pre = np.einsum("gpw,gpxy->gwxy", np.stack([a.inverse_matrix for a in alpha]), action)
    N_pre = N_pre.transpose(0, 2, 3, 1).reshape(len(E), dE, dE * dB)
    return list(zip(tms, N_pre @ gather(tms, "s")))


# -- KSGNS commutes with tensoring -------------------------------------------


@dataclass
class CommutingUnitary:
    """A (x)_{phi~} (E (x)_pi F)  ->  (A (x)_phi E) (x)_pi F."""

    unitary: ModuleMap
    triple: KsgnsTriple  # KSGNS of (E, phi)
    tensor: TensorModule  # E (x)_pi F
    phi_ext: CPMap  # phi~ on the tensor
    left: KsgnsTriple  # KSGNS of (E (x)_pi F, phi~)
    right: TensorModule  # F_phi (x)_pi F


def commuting_unitary(
    phi: Sequence[CPMap], tm: Sequence[TensorModule], tol: Tolerance, memo: BuildMemo
) -> list[CommutingUnitary]:
    """The unitary for each tm[s] = E (x)_pi F with phi[s] on E: one stacked
    build per shape of the extended maps, of their KSGNS (the left sides, Choi
    certificates included), of the right tensors F_phi (x)_pi F and of the
    unitaries; the KSGNS triples of (E, phi[s]) come from the memo."""
    phi_ext = tensor_extend_cpmap(phi, tm, tol, memo)
    left = ksgns([t.module for t in tm], phi_ext, tol, memo)
    ts = ksgns([p.module for p in phi], phi, tol, memo)
    right = interior_tensor(
        [t.module for t in ts], [x.right for x in tm], [x.pi for x in tm], tol, memo
    )

    def unitaries(items: list[tuple]) -> list[CommutingUnitary]:
        ts, tm, phi_ext, left, right = zip(*items)
        dA, dE, k = phi_ext[0].algebra.dim, tm[0].left.dim, ts[0].module.dim
        # M_pre[(k, j), (p, u)] = sum_i Q3[k, p, i] S3[i, j, u]
        S = gather(tm, "s")
        S3 = S.reshape(len(S), dE, tm[0].right.dim, S.shape[-1])
        q, s = gather(right, "q"), gather(left, "s")
        n, _, dF, m = S3.shape
        Q = gather(ts, "q").reshape(n, k * dA, dE)
        M = dots(Q, S3.reshape(n, dE, dF * m))
        M = M.reshape(n, k, dA, dF, m).transpose(0, 1, 3, 2, 4).reshape(n, k * dF, dA * m)
        return [
            CommutingUnitary(ModuleMap(a.module, b.module, v), t, x, p, a, b)
            for t, x, p, a, b, v in zip(ts, tm, phi_ext, left, right, q @ M @ s)
        ]

    return stackwise(list(zip(ts, tm, phi_ext, left, right)), lambda x: (
        x[2].algebra.dim, x[1].left.dim, x[1].right.dim, *[y.module.dim for y in x]), unitaries)


def check_commuting_unitary(
    cu: CommutingUnitary, tol: Tolerance, memo: BuildMemo
) -> list[tuple]:
    """Unitarity, intertwining of pi_phi~ with pi_phi (-) (x) I, built here
    through the memo, and dimensions."""
    scale = 1.0 + cu.phi_ext.norm
    unitary = unitarity_residual([cu.unitary])
    U = cu.unitary.matrix
    pi_right = tensor_extend_cpmap([cu.triple.pi], [cu.right], tol, memo)[0]
    inter = max_operator_norm(U @ cu.left.pi.images - pi_right.images @ U)
    return [
        ("unitary", unitary, tol.ctol * scale),
        ("intertwines", inter, tol.ctol * scale),
        ("dim_match", float(cu.left.module.dim - cu.right.module.dim), 0.0),
    ]


# -- the category layer -------------------------------------------------------


@dataclass(eq=False)
class PosCorObject:
    """(E over B, phi: A -> L(E)) with an identity label for composition."""

    ident: str
    input_algebra: AlgebraShape  # A, fixed per category instance
    coefficient: AlgebraShape  # B
    module: HilbertModule
    phi: CPMap


@dataclass(eq=False)
class PosCorMorphism(Intertwiner):
    """(rho, (eta, alpha)): the intertwiner (eta, alpha) from phi~ = dom.phi
    (x) I on E_dom (x)_rho C to cod.phi.  phi~ is built where the morphism
    is checked (check_poscor_morphism), not stored.  The pullback
    eta . V_rho : E_dom -> E_cod determines eta (rho is unital) and is the
    coordinate-free face of the morphism.  Equality is identity.
    """

    dom: PosCorObject
    cod: PosCorObject
    rho: StarMap
    dom_tensor: TensorModule
    vrho: np.ndarray  # V_rho on dom_tensor

    @property
    def pullback(self) -> np.ndarray:
        return self.eta.matrix @ self.vrho


def make_poscor_morphism(
    dom: Sequence[PosCorObject], cod: Sequence[PosCorObject], rho: Sequence[StarMap],
    eta: Sequence[np.ndarray], alpha: Sequence[Automorphism], tol: Tolerance, memo: BuildMemo,
) -> list[PosCorMorphism]:
    """(rho[s], (eta[s], alpha[s])) from dom[s] to cod[s], each eta[s] the matrix
    of a map from the tensor of dom[s] along rho[s] (interior_tensor_along),
    which this resolves, to cod[s].module.  An eta of another shape raises
    ShapeMismatch; an alpha that is not an automorphism of dom.input_algebra
    ObjectMismatch."""
    ends = zip(dom, cod, rho)
    if any((r.domain, r.codomain) != (d.coefficient, c.coefficient) for d, c, r in ends):
        raise ObjectMismatch("rho does not match the endpoint coefficients")
    if any(a.shape != d.input_algebra for a, d in zip(alpha, dom)):
        raise ObjectMismatch("alpha is not an automorphism of the input algebra")
    tms = interior_tensor_along([d.module for d in dom], rho, tol, memo)
    maps = [ModuleMap(tm.module, c.module, e) for tm, c, e in zip(tms, cod, eta)]
    return [
        PosCorMorphism(e, a, d, c, r, tm, vrho)
        for e, a, d, c, r, tm, vrho in zip(maps, alpha, dom, cod, rho, tms, v_rho(tms))
    ]


def poscor_identity(obj: PosCorObject, tol: Tolerance, memo: BuildMemo) -> PosCorMorphism:
    """(inc, (iota, 1_A)) for the inclusion tensor, iota the twist at the
    identity of B."""
    inc = identity_automorphism(obj.coefficient)
    ((_, iota),) = twist_unitary([obj.module], [inc], tol, memo)
    ident = identity_automorphism(obj.input_algebra)
    return make_poscor_morphism([obj], [obj], [inc.forward], [iota], [ident], tol, memo)[0]


def poscor_compose(
    m2: Sequence[PosCorMorphism], m1: Sequence[PosCorMorphism], tol: Tolerance,
    memo: BuildMemo, rho: Sequence[StarMap] | None = None,
) -> list[PosCorMorphism]:
    """(rho2 rho1, (eta2 . (eta1 (x) I) . U^{-1}, alpha2 alpha1)) for each pair
    (m2[s], m1[s]), one stacked build, which builds a pair that repeats
    another's content again.  Each is composed on m1's tensor, on which eta1
    is a matrix; every other tensor module and extended CP map comes from
    the memo.

    `rho`, when given, holds the star maps the composites live along in
    place of rho2 rho1, and their `.rho`: a caller that knows rho2 rho1 up to
    rounding (the group law beta_g beta_h = beta_gh) passes the star maps
    whose tensors the memo already holds.
    """
    for a, b in zip(m1, m2):
        if a.cod.ident != b.dom.ident:
            raise ObjectMismatch(
                f"cannot compose across objects {a.cod.ident!r} != {b.dom.ident!r}"
            )
    comp = composition_unitary(
        [m.dom_tensor for m in m1], [m.rho for m in m1], [m.rho for m in m2], tol, memo, rho
    )
    e1 = tensor_extend(
        [m.eta.matrix for m in m1], [c.double for c in comp], [m.dom_tensor for m in m2],
        "T (x) I", tol,
    )
    e2 = stack_slices([m.eta.matrix for m in m2])
    etas = e2 @ e1 @ adjoint_matrices([c.unitary for c in comp])
    alphas = [compose_automorphisms(b.alpha, a.alpha) for a, b in zip(m1, m2)]
    return make_poscor_morphism(
        [m.dom for m in m1], [m.cod for m in m2], [c.rho for c in comp], etas, alphas, tol, memo
    )


def morphism_shape(m: PosCorMorphism) -> tuple:
    """The shapes that morphisms stacked together share: rho's two algebras,
    alpha's, eta's matrix and the domain module's dimension."""
    return m.rho.domain, m.rho.codomain, m.alpha.shape, m.eta.matrix.shape, m.dom.module.dim


def check_poscor_morphism(
    ms: Sequence[PosCorMorphism], tol: Tolerance, memo: BuildMemo
) -> list[list[tuple]]:
    """The star-map records of each rho, then the intertwiner records of each
    morphism from phi~, built here through the memo, to the codomain's phi:
    one stacked check_star_map, tensor_extend_cpmap and
    check_morphism per group of morphisms of one shape.  check_morphism
    caches each morphism's norm on it."""

    def reports(group: list[PosCorMorphism]) -> list[list[tuple]]:
        star = check_star_map([m.rho for m in group], tol)
        phi_ext = tensor_extend_cpmap(
            [m.dom.phi for m in group], [m.dom_tensor for m in group], tol, memo
        )
        return [a + b for a, b in zip(star, check_morphism(group, phi_ext,
                                                           [m.cod.phi for m in group], tol))]

    return stackwise(ms, morphism_shape, reports)


def morphism_distance(m1: Sequence[PosCorMorphism], m2: Sequence[PosCorMorphism]) -> np.ndarray:
    """Coordinate-free distance rho gap + pullback gap + alpha gap of each
    pair (m1[s], m2[s]): one element_norms per rho codomain, and the pullback
    and alpha gaps of every pair through one max_operator_norms."""
    if any(a.dom.ident != b.dom.ident or a.cod.ident != b.cod.ident for a, b in zip(m1, m2)):
        raise ObjectMismatch("morphisms between different objects")
    pull = [a.pullback - b.pullback for a, b in zip(m1, m2)]
    alpha = [a.alpha.matrix - b.alpha.matrix for a, b in zip(m1, m2)]
    gap = max_operator_norms(*pull, *alpha).reshape(2, len(pull))
    return star_map_distance([a.rho for a in m1], [b.rho for b in m2]) + gap[0] + gap[1]


# -- KSGNS as an endofunctor on the category ---------------------------------


def dilate_object(
    objs: Sequence[PosCorObject], tol: Tolerance, memo: BuildMemo
) -> tuple[list[PosCorObject], list[KsgnsTriple]]:
    """(F_phi, pi_phi) and the KSGNS triple of each object of a same-shape
    stack, from one ksgns call."""
    ts = ksgns([o.module for o in objs], [o.phi for o in objs], tol, memo)
    dilated = [
        PosCorObject(f"{o.ident}~", o.input_algebra, o.coefficient, t.module, t.pi)
        for o, t in zip(objs, ts)
    ]
    return dilated, ts


def ksgns_functor(
    ms: Sequence[PosCorMorphism], tol: Tolerance, memo: BuildMemo
) -> list[PosCorMorphism]:
    """(rho, (eta~ . V^{-1}, alpha)) between the dilated objects, for each
    morphism: eta~ lifts the morphism from the KSGNS of its tensor
    (E_dom (x)_rho C, phi~) to its codomain's, and V is the commuting unitary
    on that tensor, so the new eta is defined on F_phi (x)_rho C, V's right
    side.  The dilated objects, the commuting unitaries and the lifts are one
    call each, and eta~ . V^{-1} one stacked build per morphism_shape."""
    doms, _ = dilate_object([m.dom for m in ms], tol, memo)
    cods, t_cod = dilate_object([m.cod for m in ms], tol, memo)
    cus = commuting_unitary([m.dom.phi for m in ms], [m.dom_tensor for m in ms], tol, memo)
    lifted = ksgns_lift(ms, [cu.left for cu in cus], t_cod, tol)

    def images(items: list[tuple]) -> list[PosCorMorphism]:
        ms, doms, cods, cus, t_cod, lifted = zip(*items)
        L = stack_slices([x.eta.matrix for x in lifted])
        Vi = adjoint_matrices([cu.unitary for cu in cus])
        return make_poscor_morphism(doms, cods, [m.rho for m in ms], L @ Vi,
                                    [m.alpha for m in ms], tol, memo)

    items = list(zip(ms, doms, cods, cus, t_cod, lifted))
    return stackwise(items, lambda x: morphism_shape(x[0]), images)


def idempotency_iso_poscor(obj: PosCorObject, tol: Tolerance, memo: BuildMemo) -> PosCorMorphism:
    """The canonical (inc, (V_{pi_phi} . iota, 1_A)) from (F_phi, pi_phi) to
    (F_{pi_phi}, pi_{pi_phi})."""
    (dilated,), _ = dilate_object([obj], tol, memo)
    (double_dilated,), (second,) = dilate_object([dilated], tol, memo)
    inc = identity_automorphism(dilated.coefficient)
    ((_, iota),) = twist_unitary([dilated.module], [inc], tol, memo)
    eta, ident = second.embedding.matrix @ iota, identity_automorphism(obj.input_algebra)
    return make_poscor_morphism(
        [dilated], [double_dilated], [inc.forward], [eta], [ident], tol, memo
    )[0]


# -- category law audit -------------------------------------------------------


def compose_pairs(
    pairs: Sequence[tuple[PosCorMorphism | None, PosCorMorphism | None]], tol: Tolerance,
    memo: BuildMemo,
) -> list[PosCorMorphism | None]:
    """m2 . m1 for each pair (m2, m1), one poscor_compose call per group of
    pairs whose factors have the same morphism_shape.  A group whose stacked
    build raises is built again one pair at a time; a pair that fails on its
    own, or lacks a factor (None), gives None."""

    def composites(stack: list[tuple]) -> list[PosCorMorphism | None]:
        if None in stack[0]:
            return [None] * len(stack)
        try:
            return poscor_compose(*zip(*stack), tol, memo)
        except KsgnslabError:  # built again alone: only the failing pairs give None
            return [None] if len(stack) == 1 else [compose_pairs([p], tol, memo)[0] for p in stack]

    def shape(pair: tuple) -> tuple | None:
        return None if None in pair else (morphism_shape(pair[0]), morphism_shape(pair[1]))

    return stackwise(pairs, shape, composites)


def check_category_laws(
    objects: list[PosCorObject],
    morphisms: list[PosCorMorphism],
    tol: Tolerance,
    memo: BuildMemo,
) -> list[tuple]:
    """Left/right identity, associativity, and invariant preservation, over
    every composable pair and triple in the given diagram.

    The composites are built in two rounds, each one compose_pairs call, so
    one stacked poscor_compose build per group of pairs of one shape: first
    everything made of the given morphisms alone, the left and right identity
    composites, the pair composites m2 . m1 of two positions and the
    self-composite m . m of each endomorphism that is a pair's m2; then
    associativity's sides m3 . (m2 . m1) and (m3 . m2) . m1 from those, each
    tail m3 . m2 read by morphism index from the first round.
    Each law's distances are one stacked morphism_distance, and closure one
    stacked check_poscor_morphism.  A stacked build that raises is built again
    one pair at a time; a pair that fails on its own is broken (closure reads
    inf), and the laws take their maxima over the composites that were built.
    Builds go through the caller's BuildMemo, which lives for one checked
    instance, so each tensor module and extended CP map is built once per
    content.
    """
    identities = {o.ident: poscor_identity(o, tol, memo) for o in objects}
    n = len(morphisms)
    ends = [(m.dom.ident, m.cod.ident) for m in morphisms]
    # (i2, i1) for each composable pair m1 -> m2 of two positions
    pairs = [
        (i2, i1) for i1, i2 in itertools.product(range(n), repeat=2)
        if i1 != i2 and ends[i1][1] == ends[i2][0]
    ]
    # (pair index, i3) for each composable triple m1 -> m2 -> m3
    triples = [
        (k, i3)
        for k, (i2, _) in enumerate(pairs)
        for i3 in range(n)
        if ends[i3][0] == ends[i2][1]
    ]
    # each endomorphism that is a pair's m2 is also its triples' m3 once
    loops = list(dict.fromkeys(i2 for i2, _ in pairs if ends[i2][0] == ends[i2][1]))
    # the first round's index of each composite m_i . m_j
    at = {ij: k for k, ij in enumerate(pairs + [(i, i) for i in loops])}
    first = compose_pairs(
        [(identities[m.cod.ident], m) for m in morphisms]
        + [(m, identities[m.dom.ident]) for m in morphisms]
        + [(morphisms[i], morphisms[j]) for i, j in at],
        tol,
        memo,
    )
    ident, composites = first[: 2 * n], first[2 * n :]
    composed = composites[: len(pairs)]
    tails = [composites[at[i3, pairs[k][0]]] for k, i3 in triples]
    sides = compose_pairs(
        [(morphisms[i3], composed[k]) for k, i3 in triples]
        + [(t, morphisms[pairs[k][1]]) for (k, _), t in zip(triples, tails)],
        tol,
        memo,
    )
    lhs, rhs = sides[: len(triples)], sides[len(triples) :]

    def distances(ms1: list, ms2: list) -> np.ndarray:
        """morphism_distance of each pair whose sides were both built, 0 for the others."""
        out = np.zeros(len(ms1))
        built = [s for s, (a, b) in enumerate(zip(ms1, ms2)) if a is not None and b is not None]
        out[built] = morphism_distance([ms1[s] for s in built], [ms2[s] for s in built])
        return out

    scale = max([1.0] + [1.0 + m.norm for m in morphisms])
    id_gaps = distances(ident, morphisms * 2)
    assoc = distances(lhs, rhs).max(initial=0.0)
    done = [c for c in composed if c is not None]
    closure = [r for rep in check_poscor_morphism(done, tol, memo) for r in rep]
    residual, threshold = summarize(closure, empty_threshold=tol.ctol)
    broken = any(c is None for c in (*ident, *composed, *lhs, *rhs))
    return [
        ("left_identity", id_gaps[:n].max(initial=0.0), tol.ctol * scale),
        ("right_identity", id_gaps[n:].max(initial=0.0), tol.ctol * scale),
        ("associativity", assoc, tol.ctol * scale**3),
        ("closure", float("inf") if broken else residual, threshold),
    ]
