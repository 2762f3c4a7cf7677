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
from functools import cached_property
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
    identity_star_map,
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
    AlphaLinearMap,
    HilbertModule,
    ModuleMap,
    adjoint_map,
    adjoint_matrices,
    module_operator_norm,
    same_module,
    unitarity_residual,
)
from .ksgns import KsgnsTriple, idempotency_unitary, ksgns, ksgns_lift
from .memo import BuildMemo, content_key
from .numkernel import (
    DEFAULT_TOL, Tolerance, dots, kron, max_operator_norm, max_operator_norms, stack_slices,
)
from .reporting import CheckReport


# -- T (x) I and the tensor functor -------------------------------------------


def tensor_extend_between(
    T: Sequence[ModuleMap], tm1: Sequence[TensorModule], tm2: Sequence[TensorModule],
    tol: Tolerance = DEFAULT_TOL,
) -> list[ModuleMap]:
    """T[s] (x) I between two tensor modules with the same right factor, for
    each slice."""
    mats = tensor_extend([t.matrix for t in T], tm1, tm2, "T (x) I", tol)
    return [ModuleMap(a.module, b.module, X) for a, b, X in zip(tm1, tm2, mats)]


def tensor_extend_cpmap(
    phi: Sequence[CPMap], tm: Sequence[TensorModule], tol: Tolerance, memo: BuildMemo
) -> list[CPMap]:
    """phi~ = phi[s](-) (x) I, the tensor-extended CP map on each E (x)_pi F
    of tm, built once per (phi[s], tensor) content in the memo."""

    def build(todo: list[int]) -> list[CPMap]:
        maps, tms = [phi[s] for s in todo], [tm[s] for s in todo]
        images = tensor_extend([p.images for p in maps], tms, tms, "T (x) I", tol)
        return [CPMap(p.algebra, t.module, X) for p, t, X in zip(maps, tms, images)]

    keys = [("extend", p.key, tensor_key(t.left, t.right, t.pi, tol)) for p, t in zip(phi, tm)]
    return memo.get_all(keys, build)


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
    keys = [("left_mult", r.key) for r in rho]
    pi = memo.get_all(keys, lambda todo: left_mult_correspondence([rho[s] for s in todo]))
    return interior_tensor(E, [p.module for p in pi], pi, tol, memo)


def v_rho(tm: Sequence[TensorModule]) -> list[np.ndarray]:
    """Matrices of V_rho: x -> class of x (x) 1_C, a complex-linear contraction
    from E to each tm[s] = E (x)_rho C (E is its left factor, C its right),
    one stacked product."""
    V_pre = {(t.left.dim, t.right.algebra): None for t in tm}
    for dE, C in V_pre:
        V_pre[dE, C] = kron(np.eye(dE, dtype=complex), unit_coeffs(C).reshape(-1, 1))
    pre = [V_pre[t.left.dim, t.right.algebra] for t in tm]
    return list(stack_slices([t.q for t in tm]) @ stack_slices(pre))


@dataclass
class InclusionUnitary:
    """iota: E (x)_inc B -> E, x (x) b -> x b, with its tensor module."""

    tensor: TensorModule
    iota: ModuleMap


def inclusion_unitary(E: HilbertModule, tol: Tolerance, memo: BuildMemo) -> InclusionUnitary:
    inc = identity_star_map(E.algebra)
    tm = interior_tensor_along([E], [inc], tol, memo)[0]
    N_pre = np.transpose(E.action, (1, 2, 0)).reshape(E.dim, E.dim * E.algebra.dim)
    return InclusionUnitary(tm, ModuleMap(tm.module, E, N_pre @ tm.s))


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
    S3 = stack_slices(
        [t.s.reshape(t.left.dim, r.domain.dim, t.module.dim) for t, r in zip(tm12, rho2)]
    )
    T = stack_slices([t.pi.images.transpose(0, 2, 1) for t in tm123])
    q, s = stack_slices([t.q for t in tm13]), stack_slices([t.s for t in tm123])
    n, dE, dC, m = S3.shape
    dD = T.shape[-1]
    M = dots(S3.transpose(0, 1, 3, 2).reshape(n, dE * m, dC), T.reshape(n, dC, dD * dD))
    M = M.reshape(n, dE, m, dD, dD).transpose(0, 1, 4, 2, 3).reshape(n, dE * dD, m * dD)
    return [
        CompositionUnitary(ModuleMap(b.module, c.module, u), a, b, c, r)
        for a, b, c, r, u in zip(tm12, tm123, tm13, rho, q @ M @ s)
    ]


@dataclass
class TwistUnitary:
    """E (x)_alpha B -> E, x (x) b -> x alpha^{-1}(b): an alpha^{-1}-adjointable
    unitary identifying the twisted module with E."""

    alpha: Automorphism
    twisted: TensorModule
    unitary: AlphaLinearMap  # twist alpha^{-1}


def twist_unitary(
    E: HilbertModule, alpha: Sequence[Automorphism], tol: Tolerance, memo: BuildMemo
) -> list[TwistUnitary]:
    """The twist unitaries of E along each automorphism of a stack, over one
    stacked build of the twisted tensors E (x)_alpha B."""
    tms = interior_tensor_along([E] * len(alpha), [a.forward for a in alpha], tol, memo)
    dE, dB = E.dim, E.algebra.dim
    inv = np.stack([a.inverse_matrix for a in alpha])
    N_pre = np.einsum("gpw,pxy->gwxy", inv, E.action).transpose(0, 2, 3, 1).reshape(-1, dE, dE * dB)
    U = stack_slices(N_pre) @ stack_slices([tm.s for tm in tms])
    return [
        TwistUnitary(a, tm, AlphaLinearMap(tm.module, E, a.inverted(), u))
        for a, tm, u in zip(alpha, tms, U)
    ]


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
    phi: CPMap, tm: Sequence[TensorModule], tol: Tolerance, memo: BuildMemo
) -> list[CommutingUnitary]:
    """The unitary for each tm[s] = E (x)_pi F with phi on E: one stacked build
    of the extended maps, of their KSGNS (the left sides, Choi certificates
    included) and of the right tensors F_phi (x)_pi F; the KSGNS triple of
    (E, phi) comes from the memo."""
    phi_ext = tensor_extend_cpmap([phi] * len(tm), tm, tol, memo)
    left = ksgns([t.module for t in tm], phi_ext, tol, memo)
    t = ksgns([phi.module], [phi], tol, memo)[0]
    right = interior_tensor(
        [t.module] * len(tm), [x.right for x in tm], [x.pi for x in tm], tol, memo
    )
    dA, dE, k = phi.algebra.dim, phi.module.dim, t.module.dim
    # M_pre[(k, j), (p, u)] = sum_i Q3[k, p, i] S3[i, j, u]
    Q = t.q.reshape(k, dA, dE).reshape(k * dA, dE)
    S3 = stack_slices([x.s.reshape(dE, x.right.dim, x.module.dim) for x in tm])
    q, s = stack_slices([r.q for r in right]), stack_slices([x.s for x in left])
    n, _, dF, m = S3.shape
    M = dots(np.broadcast_to(Q, (n, *Q.shape)), S3.reshape(n, dE, dF * m))
    M = M.reshape(n, k, dA, dF, m).transpose(0, 1, 3, 2, 4).reshape(n, k * dF, dA * m)
    return [
        CommutingUnitary(ModuleMap(a.module, b.module, v), t, x, p, a, b)
        for x, p, a, b, v in zip(tm, phi_ext, left, right, q @ M @ s)
    ]


def check_commuting_unitary(
    cu: CommutingUnitary, tol: Tolerance, memo: BuildMemo
) -> CheckReport:
    """Unitarity, intertwining of pi_phi~ with pi_phi (-) (x) I, built here
    through the memo, and dimensions."""
    rep = CheckReport()
    scale = 1.0 + cu.phi_ext.norm
    rep.add("unitary", unitarity_residual([cu.unitary]), tol.ctol * scale)
    U = cu.unitary.matrix
    pi_right = tensor_extend_cpmap([cu.triple.pi], [cu.right], tol, memo)[0]
    inter = max_operator_norm(U @ cu.left.pi.images - pi_right.images @ U)
    rep.add("intertwines", inter, tol.ctol * scale)
    rep.add(
        "dim_match", float(cu.left.module.dim - cu.right.module.dim), 0.0
    )
    return rep


# -- the category layer -------------------------------------------------------


@dataclass
class PosCorObject:
    """(E over B, phi: A -> L(E)) with an identity label for composition."""

    ident: str
    input_algebra: AlgebraShape  # A, fixed per category instance
    coefficient: AlgebraShape  # B
    module: HilbertModule
    phi: CPMap

    @cached_property
    def key(self) -> bytes:
        """Content digest of the label, input algebra, module and phi."""
        return content_key(self.ident, self.input_algebra.blocks, self.module.key, self.phi.key)


@dataclass
class PosCorMorphism:
    """(rho, (eta, alpha)): eta lives on E_dom (x)_rho C.

    The pullback eta . V_rho : E_dom -> E_cod is cached; it determines eta
    (rho is unital) and is the coordinate-free face of the morphism.
    """

    dom: PosCorObject
    cod: PosCorObject
    rho: StarMap
    dom_tensor: TensorModule
    eta: ModuleMap
    alpha: Automorphism
    vrho: np.ndarray  # V_rho on dom_tensor
    phi_ext: CPMap

    @cached_property
    def key(self) -> bytes:
        """Content digest of the endpoints, rho, eta with its modules, and alpha."""
        return content_key(
            self.dom.key,
            self.cod.key,
            self.rho.key,
            self.eta.source.key,
            self.eta.target.key,
            self.eta.matrix,
            self.alpha.matrix,
            self.alpha.inverse_matrix,
        )

    @property
    def pullback(self) -> np.ndarray:
        return self.eta.matrix @ self.vrho

    @cached_property
    def norm(self) -> float:
        return module_operator_norm(self.eta)


def make_poscor_morphism(
    dom: Sequence[PosCorObject], cod: Sequence[PosCorObject], rho: Sequence[StarMap],
    eta: Sequence[ModuleMap], alpha: Sequence[Automorphism], tol: Tolerance, memo: BuildMemo,
) -> list[PosCorMorphism]:
    """(rho[s], (eta[s], alpha[s])) from dom[s] to cod[s].  Each eta must be
    defined on the tensor of its dom along its rho: a source that differs in
    content from interior_tensor_along(dom.module, rho, tol, memo) raises
    ShapeMismatch."""
    ends = zip(dom, cod, rho)
    if any((r.domain, r.codomain) != (d.coefficient, c.coefficient) for d, c, r in ends):
        raise ObjectMismatch("rho does not match the endpoint coefficients")
    tms = interior_tensor_along([d.module for d in dom], rho, tol, memo)
    if any(not same_module(e.source, tm.module) for e, tm in zip(eta, tms)):
        raise ShapeMismatch("eta is not defined on the tensor of dom along rho")
    phi_ext = tensor_extend_cpmap([d.phi for d in dom], tms, tol, memo)
    return [
        PosCorMorphism(*parts, vrho, p)
        for *parts, vrho, p in zip(dom, cod, rho, tms, eta, alpha, v_rho(tms), phi_ext)
    ]


def poscor_identity(obj: PosCorObject, tol: Tolerance, memo: BuildMemo) -> PosCorMorphism:
    """(inc, (iota, 1_A)) for the inclusion tensor."""
    iota = inclusion_unitary(obj.module, tol, memo).iota
    ident = identity_automorphism(obj.input_algebra)
    return make_poscor_morphism(
        [obj], [obj], [identity_star_map(obj.coefficient)], [iota], [ident], tol, memo
    )[0]


def poscor_compose(
    m2: Sequence[PosCorMorphism], m1: Sequence[PosCorMorphism], tol: Tolerance,
    memo: BuildMemo, rho: Sequence[StarMap] | None = None,
) -> list[PosCorMorphism]:
    """(rho2 rho1, (eta2 . (eta1 (x) I) . U^{-1}, alpha2 alpha1)) for each pair
    (m2[s], m1[s]), built once per (m2, m1, rho) content in the memo; the
    missing ones in one stacked build.  Each is composed on m1's tensor, on
    which eta1 is a matrix; every other tensor module and extended CP map
    comes from the memo.

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

    def build(todo: list[int]) -> list[PosCorMorphism]:
        M1, M2 = [m1[s] for s in todo], [m2[s] for s in todo]
        via = None if rho is None else [rho[s] for s in todo]
        comp = composition_unitary(
            [m.dom_tensor for m in M1], [m.rho for m in M1], [m.rho for m in M2], tol, memo, via
        )
        eta1_hat = tensor_extend_between(
            [m.eta for m in M1], [c.double for c in comp], [m.dom_tensor for m in M2], tol
        )
        e2 = stack_slices([m.eta.matrix for m in M2])
        e1 = stack_slices([e.matrix for e in eta1_hat])
        u = stack_slices(adjoint_matrices([c.unitary for c in comp]))
        etas = [
            ModuleMap(c.target.module, m.cod.module, e) for c, m, e in zip(comp, M2, e2 @ e1 @ u)
        ]
        alphas = [compose_automorphisms(b.alpha, a.alpha) for a, b in zip(M1, M2)]
        return make_poscor_morphism(
            [m.dom for m in M1], [m.cod for m in M2], [c.rho for c in comp], etas, alphas, tol, memo
        )

    along = [None] * len(m1) if rho is None else [r.key for r in rho]
    keys = [("compose", b.key, a.key, k, tol) for a, b, k in zip(m1, m2, along)]
    return memo.get_all(keys, build)


def check_poscor_morphism(m: PosCorMorphism, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    rep = check_star_map(m.rho, tol)
    inner = check_morphism(
        Intertwiner(m.eta, m.alpha), m.phi_ext, m.cod.phi, tol
    )
    rep.merge(inner, prefix="eta_")
    return rep


def morphism_distance(m1: PosCorMorphism, m2: PosCorMorphism) -> float:
    """Coordinate-free distance: rho gap + pullback gap + alpha gap."""
    if m1.dom.ident != m2.dom.ident or m1.cod.ident != m2.cod.ident:
        raise ObjectMismatch("morphisms between different objects")
    rho_gap = star_map_distance(m1.rho, m2.rho)
    pull_gap, alpha_gap = max_operator_norms(
        m1.pullback - m2.pullback, m1.alpha.matrix - m2.alpha.matrix
    )
    return float(rho_gap + pull_gap + alpha_gap)


# -- KSGNS as an endofunctor on the category ---------------------------------


def dilate_object(
    obj: PosCorObject, tol: Tolerance, memo: BuildMemo
) -> tuple[PosCorObject, KsgnsTriple]:
    t = ksgns([obj.module], [obj.phi], tol, memo)[0]
    dilated = PosCorObject(
        ident=f"{obj.ident}~",
        input_algebra=obj.input_algebra,
        coefficient=obj.coefficient,
        module=t.module,
        phi=t.pi,
    )
    return dilated, t


def ksgns_functor_poscor(m: PosCorMorphism, tol: Tolerance, memo: BuildMemo) -> PosCorMorphism:
    """(rho, (eta~ . V^{-1}, alpha)) between the dilated objects.  The new
    eta is defined on F_phi (x)_rho C, the right side of the commuting
    unitary on m's tensor."""
    dom_dilated, _ = dilate_object(m.dom, tol, memo)
    cod_dilated, t_cod = dilate_object(m.cod, tol, memo)
    cu = commuting_unitary(m.dom.phi, [m.dom_tensor], tol, memo)[0]
    lifted = ksgns_lift([Intertwiner(m.eta, m.alpha)], [cu.left], [t_cod], tol)[0]
    eta = ModuleMap(
        cu.right.module, t_cod.module, lifted.eta.matrix @ adjoint_map(cu.unitary).matrix
    )
    return make_poscor_morphism(
        [dom_dilated], [cod_dilated], [m.rho], [eta], [m.alpha], tol, memo
    )[0]


def idempotency_iso_poscor(obj: PosCorObject, tol: Tolerance, memo: BuildMemo) -> PosCorMorphism:
    """The canonical (inc, (V_{pi_phi} . iota, 1_A)) from (F_phi, pi_phi) to
    (F_{pi_phi}, pi_{pi_phi})."""
    dilated, t = dilate_object(obj, tol, memo)
    double_dilated, _ = dilate_object(dilated, tol, memo)
    inc = inclusion_unitary(dilated.module, tol, memo)
    eta = ModuleMap(
        inc.tensor.module,
        double_dilated.module,
        idempotency_unitary(t, tol, memo).unitary.matrix @ inc.iota.matrix,
    )
    return make_poscor_morphism(
        [dilated],
        [double_dilated],
        [identity_star_map(dilated.coefficient)],
        [eta],
        [identity_automorphism(obj.input_algebra)],
        tol,
        memo,
    )[0]


# -- category law audit -------------------------------------------------------


def check_category_laws(
    objects: list[PosCorObject],
    morphisms: list[PosCorMorphism],
    tol: Tolerance,
    memo: BuildMemo,
) -> CheckReport:
    """Left/right identity, associativity, and invariant preservation, over
    every composable pair and triple in the given diagram.

    Builds go through the caller's BuildMemo, which lives for one checked
    instance, so each tensor module, extended CP map and composite is built
    once per content; associativity's right side reuses the composite
    m3 . m2.  Failed builds are not stored.
    """
    rep = CheckReport()
    identities = {o.ident: poscor_identity(o, tol, memo) for o in objects}

    left_id = right_id = 0.0
    scale = 1.0
    closure = CheckReport()
    broken = 0
    for m in morphisms:
        scale = max(scale, 1.0 + m.norm)
        try:
            left_id = max(
                left_id,
                morphism_distance(poscor_compose([identities[m.cod.ident]], [m], tol, memo)[0], m),
            )
            right_id = max(
                right_id,
                morphism_distance(poscor_compose([m], [identities[m.dom.ident]], tol, memo)[0], m),
            )
        except KsgnslabError:
            broken += 1
    rep.add("left_identity", left_id, tol.ctol * scale)
    rep.add("right_identity", right_id, tol.ctol * scale)

    assoc = 0.0
    pair_count = 0
    for m1, m2 in itertools.product(morphisms, repeat=2):
        if m1 is m2 or m1.cod.ident != m2.dom.ident:
            continue
        pair_count += 1
        try:
            composed = poscor_compose([m2], [m1], tol, memo)[0]
            closure.merge(
                check_poscor_morphism(composed, tol), prefix=f"pair{pair_count}_"
            )
            for m3 in morphisms:
                if m3.dom.ident != m2.cod.ident:
                    continue
                lhs = poscor_compose([m3], [composed], tol, memo)[0]
                rhs = poscor_compose([poscor_compose([m3], [m2], tol, memo)[0]], [m1], tol, memo)[0]
                assoc = max(assoc, morphism_distance(lhs, rhs))
        except KsgnslabError:
            broken += 1
    rep.add("associativity", assoc, tol.ctol * scale**3)
    residual, threshold = closure.summary(empty_threshold=tol.ctol)
    rep.add("composition_closure", float("inf") if broken else residual, threshold)
    return rep
