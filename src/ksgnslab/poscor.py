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
from typing import Any, Callable

import numpy as np

from .cstar import (
    AlgebraElement,
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
from .errors import ObjectMismatch, ShapeMismatch, TwistMismatch
from .hilbert import (
    AlphaLinearMap,
    HilbertModule,
    ModuleMap,
    adjoint_map,
    module_operator_norm,
    unitarity_residual,
)
from .ksgns import KsgnsTriple, ksgns_lift, ksgns_once
from .numkernel import DEFAULT_TOL, Tolerance, max_operator_norm, operator_norm
from .reporting import CheckReport


# -- instance-scoped memo ------------------------------------------------------


class BuildMemo:
    """Finished builds for the length of one checked instance.

    harness.check_instance makes one and drops it on return; the law audits
    make their own only when called without one.  Keys name objects by id();
    each entry also holds the objects its key names, so no id can be reused
    while the memo lives.  A build that raises stores nothing: the next
    request repeats it and raises again.
    """

    def __init__(self) -> None:
        self._done: dict[tuple, tuple] = {}

    def get(self, key: tuple, keep: tuple, build: Callable[[], Any]) -> Any:
        if key not in self._done:
            self._done[key] = (keep, build())
        return self._done[key][1]


def tensor_once(
    E: HilbertModule,
    F: HilbertModule,
    pi: CPMap,
    tol: Tolerance = DEFAULT_TOL,
    memo: BuildMemo | None = None,
) -> TensorModule:
    """interior_tensor(E, F, pi); with a memo, built once per (E, F, pi)
    object triple."""
    if memo is None:
        return interior_tensor(E, F, pi, tol)
    return memo.get(
        ("tensor", id(E), id(F), id(pi), tol), (E, F, pi), lambda: interior_tensor(E, F, pi, tol)
    )


# -- T (x) I and the tensor functor -------------------------------------------


def tensor_extend_between(
    T: ModuleMap,
    tm1: TensorModule,
    tm2: TensorModule,
    tol: Tolerance = DEFAULT_TOL,
) -> ModuleMap:
    """T (x) I between two tensor modules with the same right factor."""
    return ModuleMap(tm1.module, tm2.module, tensor_extend(T.matrix, tm1, tm2, "T (x) I", tol))


def tensor_extend_cpmap(
    phi: CPMap,
    tm: TensorModule,
    tol: Tolerance = DEFAULT_TOL,
    memo: BuildMemo | None = None,
) -> CPMap:
    """phi~ = phi(-) (x) I, the tensor-extended CP map on E (x)_pi F; with a
    memo, built once per (phi, tm) object pair."""

    def build() -> CPMap:
        return CPMap(phi.algebra, tm.module, tensor_extend(phi.images, tm, tm, "T (x) I", tol))

    if memo is None:
        return build()
    return memo.get(("extend", id(phi), id(tm), tol), (phi, tm), build)


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
    E: HilbertModule,
    rho: StarMap,
    tol: Tolerance = DEFAULT_TOL,
    memo: BuildMemo | None = None,
) -> TensorModule:
    """E (x)_rho C; with a memo, built once per module object and rho's
    coefficients (codomain and coefficient matrix)."""
    if rho.domain != E.algebra:
        raise ShapeMismatch("star map domain differs from E's coefficients")

    def build() -> TensorModule:
        pi = left_mult_correspondence(rho)
        return interior_tensor(E, pi.module, pi, tol)

    if memo is None:
        return build()
    key = ("along", id(E), rho.codomain, rho.matrix.tobytes(), tol)
    return memo.get(key, (E,), build)


@dataclass
class CLinearMap:
    """Plain complex-linear map between modules (no linearity invariant)."""

    source: HilbertModule
    target: HilbertModule
    matrix: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=complex).reshape(self.source.dim)


@dataclass
class VRho:
    """x -> class of x (x) 1_C in E (x)_rho C, a complex-linear contraction."""

    tensor: TensorModule
    map: CLinearMap


def v_rho(
    E: HilbertModule,
    rho: StarMap,
    tensor: TensorModule | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> VRho:
    tm = tensor if tensor is not None else interior_tensor_along(E, rho, tol)
    unit_coeffs = unit_element(rho.codomain).coeffs()
    V_pre = np.kron(np.eye(E.dim, dtype=complex), unit_coeffs.reshape(-1, 1))
    return VRho(tm, CLinearMap(E, tm.module, tm.q @ V_pre))


@dataclass
class InclusionUnitary:
    """iota: E (x)_inc B -> E, x (x) b -> x b, with its tensor module."""

    tensor: TensorModule
    iota: ModuleMap


def inclusion_unitary(
    E: HilbertModule, tol: Tolerance = DEFAULT_TOL, memo: BuildMemo | None = None
) -> InclusionUnitary:
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
    rho: StarMap  # rho2 . rho1


def composition_unitary(
    E: HilbertModule,
    rho1: StarMap,
    rho2: StarMap,
    inner: TensorModule | None = None,
    target: TensorModule | None = None,
    tol: Tolerance = DEFAULT_TOL,
    memo: BuildMemo | None = None,
) -> CompositionUnitary:
    """The unitary (x (x) c) (x) d -> x (x) rho2(c) d."""
    if rho1.codomain != rho2.domain:
        raise ShapeMismatch("star maps do not chain")
    tm12 = inner if inner is not None else interior_tensor_along(E, rho1, tol, memo)
    tm123 = interior_tensor_along(tm12.module, rho2, tol, memo)
    rho = compose_star_maps(rho2, rho1)
    tm13 = target if target is not None else interior_tensor_along(E, rho, tol, memo)
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
    E: HilbertModule,
    alpha: Automorphism,
    tol: Tolerance = DEFAULT_TOL,
    memo: BuildMemo | None = None,
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


def alpha_transport(
    T: AlphaLinearMap,
    twisted: TwistUnitary | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[ModuleMap, TwistUnitary]:
    """Transport an alpha-adjointable map to a plain module map T . U on
    E_src (x)_alpha B."""
    tw = twisted if twisted is not None else twist_unitary(T.source, T.twist, tol)
    mismatch = operator_norm(tw.alpha.matrix - T.twist.matrix)
    if mismatch > tol.ctol * (1.0 + operator_norm(T.twist.matrix)):
        raise TwistMismatch(f"twist automorphisms differ by {mismatch:.3e}")
    return ModuleMap(tw.twisted.module, T.target, T.matrix @ tw.unitary.matrix), tw


def alpha_transport_inverse(
    S: ModuleMap, tw: TwistUnitary, alpha: Automorphism
) -> AlphaLinearMap:
    """Inverse transport: S -> S . U^{-1}, an alpha-linear map out of E."""
    U_inv = np.linalg.inv(tw.unitary.matrix)
    return AlphaLinearMap(tw.twisted.left, S.target, alpha, S.matrix @ U_inv)


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
    E: HilbertModule,
    phi: CPMap,
    F: HilbertModule,
    pi: CPMap,
    triple: KsgnsTriple | None = None,
    tensor: TensorModule | None = None,
    tol: Tolerance = DEFAULT_TOL,
    memo: BuildMemo | None = None,
) -> CommutingUnitary:
    tm = tensor if tensor is not None else tensor_once(E, F, pi, tol, memo)
    phi_ext = tensor_extend_cpmap(phi, tm, tol, memo)
    left = ksgns_once(tm.module, phi_ext, tol, memo)
    t = triple if triple is not None else ksgns_once(E, phi, tol, memo)
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
    vrho: VRho
    phi_ext: CPMap

    @property
    def pullback(self) -> np.ndarray:
        return self.eta.matrix @ self.vrho.map.matrix

    @property
    def norm(self) -> float:
        return module_operator_norm(self.eta)


def make_poscor_morphism(
    dom: PosCorObject,
    cod: PosCorObject,
    rho: StarMap,
    eta_matrix: np.ndarray,
    alpha: Automorphism,
    dom_tensor: TensorModule | None = None,
    tol: Tolerance = DEFAULT_TOL,
    memo: BuildMemo | None = None,
) -> PosCorMorphism:
    if rho.domain != dom.coefficient or rho.codomain != cod.coefficient:
        raise ObjectMismatch("rho does not match the endpoint coefficients")
    tm = (
        dom_tensor
        if dom_tensor is not None
        else interior_tensor_along(dom.module, rho, tol, memo)
    )
    eta = ModuleMap(tm.module, cod.module, eta_matrix)
    vr = v_rho(dom.module, rho, tensor=tm, tol=tol)
    phi_ext = tensor_extend_cpmap(dom.phi, tm, tol, memo)
    return PosCorMorphism(dom, cod, rho, tm, eta, alpha, vr, phi_ext)


def poscor_identity(
    obj: PosCorObject, tol: Tolerance = DEFAULT_TOL, memo: BuildMemo | None = None
) -> PosCorMorphism:
    """(inc, (iota, 1_A)) for the inclusion tensor."""
    inc = inclusion_unitary(obj.module, tol, memo)
    return make_poscor_morphism(
        obj,
        obj,
        identity_star_map(obj.coefficient),
        inc.iota.matrix,
        identity_automorphism(obj.input_algebra),
        dom_tensor=inc.tensor,
        tol=tol,
        memo=memo,
    )


def poscor_compose(
    m2: PosCorMorphism,
    m1: PosCorMorphism,
    tol: Tolerance = DEFAULT_TOL,
    memo: BuildMemo | None = None,
) -> PosCorMorphism:
    """(rho2 rho1, (eta2 . (eta1 (x) I) . U^{-1}, alpha2 alpha1)); with a
    memo, built once per (m2, m1) object pair, from the tensor modules and
    extended CP maps the memo already holds."""
    if m1.cod.ident != m2.dom.ident:
        raise ObjectMismatch(
            f"cannot compose across objects {m1.cod.ident!r} != {m2.dom.ident!r}"
        )

    def build() -> PosCorMorphism:
        comp = composition_unitary(
            m1.dom.module, m1.rho, m2.rho, inner=m1.dom_tensor, tol=tol, memo=memo
        )
        eta1_hat = tensor_extend_between(m1.eta, comp.double, m2.dom_tensor, tol)
        U_inv = adjoint_map(comp.unitary)
        eta = m2.eta.matrix @ eta1_hat.matrix @ U_inv.matrix
        return make_poscor_morphism(
            m1.dom,
            m2.cod,
            comp.rho,
            eta,
            compose_automorphisms(m2.alpha, m1.alpha),
            dom_tensor=comp.target,
            tol=tol,
            memo=memo,
        )

    if memo is None:
        return build()
    return memo.get(("compose", id(m2), id(m1), tol), (m2, m1), build)


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


def poscor_pseudometric(
    m1: PosCorMorphism,
    m2: PosCorMorphism,
    b: AlgebraElement,
    x: np.ndarray,
    a: AlgebraElement,
) -> float:
    """d_{b,x,a} = ||rho(b) - rho'(b)|| + ||(eta . V_rho)(x) - (xi . V_rho')(x)||
    + ||alpha(a) - alpha'(a)||."""
    rho_part = (m1.rho(b) - m2.rho(b)).norm()
    vec_part = m1.cod.module.vector_norm(m1.pullback @ x - m2.pullback @ x)
    alpha_part = (m1.alpha(a) - m2.alpha(a)).norm()
    return float(rho_part + vec_part + alpha_part)


# -- KSGNS as an endofunctor on the category ---------------------------------


def dilate_object(
    obj: PosCorObject, tol: Tolerance = DEFAULT_TOL, memo: BuildMemo | None = None
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


def ksgns_functor_poscor(
    m: PosCorMorphism,
    t_dom: KsgnsTriple,
    t_cod: KsgnsTriple,
    dom_dilated: PosCorObject,
    cod_dilated: PosCorObject,
    tol: Tolerance = DEFAULT_TOL,
    memo: BuildMemo | None = None,
) -> PosCorMorphism:
    """(rho, (eta~ . V^{-1}, alpha)) between the dilated objects."""
    cu = commuting_unitary(
        m.dom.module,
        m.dom.phi,
        m.dom_tensor.right,
        m.dom_tensor.pi,
        triple=t_dom,
        tensor=m.dom_tensor,
        tol=tol,
        memo=memo,
    )
    lifted = ksgns_lift(Intertwiner(m.eta, m.alpha), cu.left, t_cod, tol)
    V_inv = adjoint_map(cu.unitary)
    eta = lifted.eta.matrix @ V_inv.matrix
    return make_poscor_morphism(
        dom_dilated,
        cod_dilated,
        m.rho,
        eta,
        m.alpha,
        dom_tensor=cu.right,
        tol=tol,
        memo=memo,
    )


def idempotency_iso_poscor(
    obj: PosCorObject,
    t: KsgnsTriple,
    dilated: PosCorObject,
    double_dilated: PosCorObject,
    idem_unitary: ModuleMap,
    tol: Tolerance = DEFAULT_TOL,
    memo: BuildMemo | None = None,
) -> PosCorMorphism:
    """The canonical (inc, (V_{pi_phi} . iota, 1_A)) from (F_phi, pi_phi) to
    (F_{pi_phi}, pi_{pi_phi})."""
    inc = inclusion_unitary(dilated.module, tol, memo)
    eta = idem_unitary.matrix @ inc.iota.matrix
    return make_poscor_morphism(
        dilated,
        double_dilated,
        identity_star_map(dilated.coefficient),
        eta,
        identity_automorphism(obj.input_algebra),
        dom_tensor=inc.tensor,
        tol=tol,
        memo=memo,
    )


# -- category law audit -------------------------------------------------------


def check_category_laws(
    objects: list[PosCorObject],
    morphisms: list[PosCorMorphism],
    tol: Tolerance = DEFAULT_TOL,
    memo: BuildMemo | None = None,
) -> CheckReport:
    """Left/right identity, associativity, and invariant preservation, over
    every composable pair and triple in the given diagram.

    Builds go through the caller's BuildMemo, which lives for one checked
    instance, or through a fresh one for this call when none is given.  It
    builds each tensor module once per (module object, rho's codomain and
    coefficient bytes), each extended CP map once per (phi, tensor module)
    object pair, and each composite once per (m2, m1) object pair;
    associativity's right side reuses the composite m3 . m2.  Failed builds
    are not stored.
    """
    from .errors import KsgnslabError

    memo = memo if memo is not None else BuildMemo()

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
