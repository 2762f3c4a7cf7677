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
    unit_element,
)
from .cp import (
    CPMap,
    Intertwiner,
    TensorModule,
    check_morphism,
    interior_tensor,
    left_mult_correspondence,
    tensor_extend,
)
from .errors import KsgnslabError, ObjectMismatch, ShapeMismatch
from .hilbert import (
    AlphaLinearMap,
    HilbertModule,
    ModuleMap,
    adjoint_map,
    module_operator_norm,
    same_module,
    unitarity_residual,
)
from .ksgns import KsgnsTriple, idempotency_unitary, ksgns_lift, ksgns_once
from .memo import BuildMemo, content_key
from .numkernel import DEFAULT_TOL, Tolerance, max_operator_norm, operator_norm
from .reporting import CheckReport


# -- memoized builds ------------------------------------------------------------


def tensor_key(E: HilbertModule, F: HilbertModule, pi: CPMap, tol: Tolerance) -> tuple:
    """The one memo key of the tensor module E (x)_pi F."""
    return ("tensor", E.key, F.key, pi.key, tol)


def tensor_once(
    E: HilbertModule, F: HilbertModule, pi: CPMap, tol: Tolerance, memo: BuildMemo
) -> TensorModule:
    """interior_tensor(E, F, pi), built once per (E, F, pi) content in the memo."""
    return memo.get(tensor_key(E, F, pi, tol), lambda: interior_tensor(E, F, pi, tol))


# -- T (x) I and the tensor functor -------------------------------------------


def tensor_extend_between(
    T: ModuleMap,
    tm1: TensorModule,
    tm2: TensorModule,
    tol: Tolerance = DEFAULT_TOL,
) -> ModuleMap:
    """T (x) I between two tensor modules with the same right factor."""
    return ModuleMap(tm1.module, tm2.module, tensor_extend(T.matrix, tm1, tm2, "T (x) I", tol))


def tensor_extend_cpmap(phi: CPMap, tm: TensorModule, tol: Tolerance, memo: BuildMemo) -> CPMap:
    """phi~ = phi(-) (x) I, the tensor-extended CP map on E (x)_pi F, built
    once per (phi, tensor) content in the memo."""

    def build() -> CPMap:
        return CPMap(phi.algebra, tm.module, tensor_extend(phi.images, tm, tm, "T (x) I", tol))

    return memo.get(("extend", phi.key, tensor_key(tm.left, tm.right, tm.pi, tol)), build)


def tensor_functor_morphism(
    m: Intertwiner,
    tm1: TensorModule,
    tm2: TensorModule,
    tol: Tolerance = DEFAULT_TOL,
) -> Intertwiner:
    """(eta, alpha) -> (eta (x) I, alpha) between tensored objects."""
    return Intertwiner(tensor_extend_between(m.eta, tm1, tm2, tol), m.alpha)


def balanced_relation_residual(
    tm: TensorModule, rng: np.random.Generator, samples: int = 8
) -> float:
    """Norm of [x b (x) y] - [x (x) pi(b) y] in the quotient, sampled."""
    dE, dF = tm.factor_dims
    if dE == 0 or dF == 0:
        return 0.0
    worst = 0.0
    B = tm.left.algebra
    for _ in range(samples):
        x = (rng.standard_normal(dE) + 1j * rng.standard_normal(dE)) / np.sqrt(2.0)
        y = (rng.standard_normal(dF) + 1j * rng.standard_normal(dF)) / np.sqrt(2.0)
        b = rng.integers(B.dim)
        xb = tm.left.action[b] @ x
        by = tm.pi.images[b] @ y
        diff = np.kron(xb, y) - np.kron(x, by)
        worst = max(worst, float(np.linalg.norm(tm.q @ diff)))
    return worst


# -- tensoring along a *-homomorphism ---------------------------------------


def interior_tensor_along(
    E: HilbertModule, rho: StarMap, tol: Tolerance, memo: BuildMemo
) -> TensorModule:
    """E (x)_rho C, built through tensor_once on rho's left-multiplication
    correspondence, which the memo holds once per rho content."""
    if rho.domain != E.algebra:
        raise ShapeMismatch("star map domain differs from E's coefficients")
    pi = memo.get(("left_mult", rho.key), lambda: left_mult_correspondence(rho))
    return tensor_once(E, pi.module, pi, tol, memo)


def v_rho(tm: TensorModule) -> np.ndarray:
    """Matrix of V_rho: x -> class of x (x) 1_C, a complex-linear contraction
    from E to tm = E (x)_rho C (E is tm's left factor, C its right)."""
    E = tm.left
    unit_coeffs = unit_element(tm.right.algebra).coeffs()
    V_pre = np.kron(np.eye(E.dim, dtype=complex), unit_coeffs.reshape(-1, 1))
    return tm.q @ V_pre


@dataclass
class InclusionUnitary:
    """iota: E (x)_inc B -> E, x (x) b -> x b, with its tensor module."""

    tensor: TensorModule
    iota: ModuleMap


def inclusion_unitary(E: HilbertModule, tol: Tolerance, memo: BuildMemo) -> InclusionUnitary:
    inc = identity_star_map(E.algebra)
    tm = interior_tensor_along(E, inc, tol, memo)
    dE, dB = E.dim, E.algebra.dim
    N_pre = (
        np.transpose(E.action, (1, 2, 0)).reshape(dE, dE * dB)
        if dE
        else np.zeros((0, 0))
    )
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
    tm12: TensorModule,
    rho1: StarMap,
    rho2: StarMap,
    tol: Tolerance,
    memo: BuildMemo,
    rho: StarMap | None = None,
) -> CompositionUnitary:
    """The unitary (x (x) c) (x) d -> x (x) rho2(c) d on tm12 = E (x)_rho1 C,
    the tensor a caller's matrices live on (poscor_compose passes m1's own);
    the double and target tensors come from the memo.

    `rho`, when given, is the star map the target E (x)_rho D is taken along
    in place of rho2 rho1, for a caller that knows the two agree up to
    rounding; it is then the result's `.rho`.
    """
    if rho1.codomain != rho2.domain:
        raise ShapeMismatch("star maps do not chain")
    E = tm12.left
    tm123 = interior_tensor_along(tm12.module, rho2, tol, memo)
    rho = rho if rho is not None else compose_star_maps(rho2, rho1)
    tm13 = interior_tensor_along(E, rho, tol, memo)
    dE = E.dim
    dC, dD = rho2.domain.dim, rho2.codomain.dim
    # T[v, w, :] = coefficients of rho2(u_v) u_w in D: u_q u_w = u_prod[q, w]
    prod = rho2.codomain.product_table
    q, w = np.nonzero(prod >= 0)
    T = np.zeros((dC, dD, dD), dtype=complex)
    T[:, w, prod[q, w]] = rho2.matrix[q].T
    S3 = tm12.s.reshape(dE, dC, tm12.module.dim)
    M_pre = np.einsum("ivu,vwx->ixuw", S3, T, optimize=True).reshape(
        dE * dD, tm12.module.dim * dD
    )
    U = ModuleMap(tm123.module, tm13.module, tm13.q @ M_pre @ tm123.s)
    return CompositionUnitary(U, tm12, tm123, tm13, rho)


@dataclass
class TwistUnitary:
    """E (x)_alpha B -> E, x (x) b -> x alpha^{-1}(b): an alpha^{-1}-adjointable
    unitary identifying the twisted module with E."""

    alpha: Automorphism
    twisted: TensorModule
    unitary: AlphaLinearMap  # twist alpha^{-1}


def twist_unitary(
    E: HilbertModule, alpha: Automorphism, tol: Tolerance, memo: BuildMemo
) -> TwistUnitary:
    tm = interior_tensor_along(E, alpha.forward, tol, memo)
    dE, dB = E.dim, E.algebra.dim
    inv_actions = np.einsum("pw,pxy->wxy", alpha.inverse_matrix, E.action)
    N_pre = (
        np.transpose(inv_actions, (1, 2, 0)).reshape(dE, dE * dB)
        if dE
        else np.zeros((0, 0))
    )
    U = AlphaLinearMap(tm.module, E, alpha.inverted(), N_pre @ tm.s)
    return TwistUnitary(alpha, tm, U)


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
    pi_right: CPMap  # pi_phi (-) (x) I on the right side


def commuting_unitary(
    phi: CPMap, tm: TensorModule, tol: Tolerance, memo: BuildMemo
) -> CommutingUnitary:
    """The unitary for tm = E (x)_pi F and phi on E; the KSGNS triple of
    (E, phi) comes from the memo."""
    E, F, pi = tm.left, tm.right, tm.pi
    phi_ext = tensor_extend_cpmap(phi, tm, tol, memo)
    left = ksgns_once(tm.module, phi_ext, tol, memo)
    t = ksgns_once(E, phi, tol, memo)
    right = tensor_once(t.module, F, pi, tol, memo)
    dA, dE, dF = phi.algebra.dim, E.dim, F.dim
    Q3 = t.q.reshape(t.module.dim, dA, dE)
    S3 = tm.s.reshape(dE, dF, tm.module.dim)
    M_pre = np.einsum("kpi,iju->kjpu", Q3, S3, optimize=True).reshape(
        t.module.dim * dF, dA * tm.module.dim
    )
    V = ModuleMap(left.module, right.module, right.q @ M_pre @ left.s)
    pi_right = tensor_extend_cpmap(t.pi, right, tol, memo)
    return CommutingUnitary(V, t, tm, phi_ext, left, right, pi_right)


def check_commuting_unitary(cu: CommutingUnitary, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    rep = CheckReport()
    scale = 1.0 + cu.phi_ext.norm
    rep.add("unitary", unitarity_residual(cu.unitary), tol.ctol * scale)
    U = cu.unitary.matrix
    inter = max_operator_norm(U @ cu.left.pi.images - cu.pi_right.images @ U)
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

    @property
    def norm(self) -> float:
        return module_operator_norm(self.eta)


def make_poscor_morphism(
    dom: PosCorObject,
    cod: PosCorObject,
    rho: StarMap,
    eta: ModuleMap,
    alpha: Automorphism,
    tol: Tolerance,
    memo: BuildMemo,
) -> PosCorMorphism:
    """(rho, (eta, alpha)) from dom to cod.  eta must be defined on the
    tensor of dom along rho: a source that differs in content from
    interior_tensor_along(dom.module, rho, tol, memo) raises ShapeMismatch."""
    if rho.domain != dom.coefficient or rho.codomain != cod.coefficient:
        raise ObjectMismatch("rho does not match the endpoint coefficients")
    tm = interior_tensor_along(dom.module, rho, tol, memo)
    if not same_module(eta.source, tm.module):
        raise ShapeMismatch("eta is not defined on the tensor of dom along rho")
    phi_ext = tensor_extend_cpmap(dom.phi, tm, tol, memo)
    return PosCorMorphism(dom, cod, rho, tm, eta, alpha, v_rho(tm), phi_ext)


def poscor_identity(obj: PosCorObject, tol: Tolerance, memo: BuildMemo) -> PosCorMorphism:
    """(inc, (iota, 1_A)) for the inclusion tensor."""
    return make_poscor_morphism(
        obj,
        obj,
        identity_star_map(obj.coefficient),
        inclusion_unitary(obj.module, tol, memo).iota,
        identity_automorphism(obj.input_algebra),
        tol,
        memo,
    )


def poscor_compose(
    m2: PosCorMorphism,
    m1: PosCorMorphism,
    tol: Tolerance,
    memo: BuildMemo,
    rho: StarMap | None = None,
) -> PosCorMorphism:
    """(rho2 rho1, (eta2 . (eta1 (x) I) . U^{-1}, alpha2 alpha1)), built
    once per (m2, m1, rho) content in the memo.  It is composed on m1's
    tensor, on which eta1 is a matrix; every other tensor module and
    extended CP map comes from the memo.

    `rho`, when given, is the star map the composite lives along in place of
    rho2 rho1, and its `.rho`: a caller that knows rho2 rho1 up to rounding
    (the group law beta_g beta_h = beta_gh) passes the star map whose tensor
    the memo already holds.
    """
    if m1.cod.ident != m2.dom.ident:
        raise ObjectMismatch(
            f"cannot compose across objects {m1.cod.ident!r} != {m2.dom.ident!r}"
        )

    def build() -> PosCorMorphism:
        comp = composition_unitary(m1.dom_tensor, m1.rho, m2.rho, tol, memo, rho)
        eta1_hat = tensor_extend_between(m1.eta, comp.double, m2.dom_tensor, tol)
        U_inv = adjoint_map(comp.unitary)
        eta = ModuleMap(
            comp.target.module, m2.cod.module, m2.eta.matrix @ eta1_hat.matrix @ U_inv.matrix
        )
        return make_poscor_morphism(
            m1.dom,
            m2.cod,
            comp.rho,
            eta,
            compose_automorphisms(m2.alpha, m1.alpha),
            tol,
            memo,
        )

    along = rho.key if rho is not None else None
    return memo.get(("compose", m2.key, m1.key, along, tol), build)


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
    pull_gap = operator_norm(m1.pullback - m2.pullback)
    alpha_gap = operator_norm(m1.alpha.matrix - m2.alpha.matrix)
    return float(rho_gap + pull_gap + alpha_gap)


# -- KSGNS as an endofunctor on the category ---------------------------------


def dilate_object(
    obj: PosCorObject, tol: Tolerance, memo: BuildMemo
) -> tuple[PosCorObject, KsgnsTriple]:
    t = ksgns_once(obj.module, obj.phi, tol, memo)
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
    cu = commuting_unitary(m.dom.phi, m.dom_tensor, tol, memo)
    lifted = ksgns_lift(Intertwiner(m.eta, m.alpha), cu.left, t_cod, tol)
    eta = ModuleMap(
        cu.right.module, t_cod.module, lifted.eta.matrix @ adjoint_map(cu.unitary).matrix
    )
    return make_poscor_morphism(dom_dilated, cod_dilated, m.rho, eta, m.alpha, tol, memo)


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
        dilated,
        double_dilated,
        identity_star_map(dilated.coefficient),
        eta,
        identity_automorphism(obj.input_algebra),
        tol,
        memo,
    )


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
                morphism_distance(poscor_compose(identities[m.cod.ident], m, tol, memo), m),
            )
            right_id = max(
                right_id,
                morphism_distance(poscor_compose(m, identities[m.dom.ident], tol, memo), m),
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
            composed = poscor_compose(m2, m1, tol, memo)
            closure.merge(
                check_poscor_morphism(composed, tol), prefix=f"pair{pair_count}_"
            )
            for m3 in morphisms:
                if m3.dom.ident != m2.cod.ident:
                    continue
                lhs = poscor_compose(m3, composed, tol, memo)
                rhs = poscor_compose(poscor_compose(m3, m2, tol, memo), m1, tol, memo)
                assoc = max(assoc, morphism_distance(lhs, rhs))
        except KsgnslabError:
            broken += 1
    rep.add("associativity", assoc, tol.ctol * scale**3)
    residual, threshold = closure.summary(empty_threshold=tol.ctol)
    rep.add("composition_closure", float("inf") if broken else residual, threshold)
    return rep
