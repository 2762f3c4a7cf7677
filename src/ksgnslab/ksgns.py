"""The KSGNS dilation of a completely positive map and its functorial layer.

Given phi: A -> L(E) completely positive, the dilation space is the interior
tensor product F_phi = A (x)_phi E of A, as a module over itself, with E
along phi (Lance, Hilbert C*-Modules, ch. 5): cp.interior_tensor, which sits
below this module, quotients the pre-module on {a_p (x) e_q} with pairing
<a (x) x, a' (x) x'> = <x, phi(a* a') x'>_E and B acting on the E slot.
Left multiplication L(a) (x) I descends to the quotient and gives the dilated
representation pi_phi; the embedding V_phi sends x to the class of 1 (x) x,
which is the unital collapse of the approximate-unit limit.

Descent of pi_phi is verified numerically rather than assumed: invariance of
the Gram kernel under left multiplication is a theorem, but floating point
demands an explicit residual gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .cstar import AlgebraElement, identity_star_map, unit_element
from .cp import (
    CPMap,
    Intertwiner,
    check_cp,
    check_correspondence,
    interior_tensor,
    left_mult_correspondence,
    tensor_extend,
)
from .errors import NonConvergentInput, NotCP
from .hilbert import (
    HilbertModule,
    ModuleMap,
    Quotient,
    adjoint_map,
    descend,
    module_operator_norm,
    unitarity_residual,
)
from .numkernel import DEFAULT_TOL, Tolerance, max_operator_norm, operator_norm, pseudo_inverse
from .reporting import CheckReport

if TYPE_CHECKING:
    from .poscor import BuildMemo


@dataclass
class KsgnsTriple(Quotient):
    """(F_phi, pi_phi, V_phi): the quotient F_phi = A (x)_phi E with its data."""

    source: HilbertModule  # E
    phi: CPMap
    pi: CPMap  # the dilated representation, a correspondence
    embedding: ModuleMap  # V_phi: E -> F_phi

    @property
    def dim(self) -> int:
        return self.module.dim


def ksgns(E: HilbertModule, phi: CPMap, tol: Tolerance = DEFAULT_TOL) -> KsgnsTriple:
    """Dilate a completely positive map to a representation on F_phi.

    Raises NotCP when the Choi certificate fails, ShapeMismatch when phi acts
    on another module, and SubmoduleViolation (via the quotient) or
    WellDefinednessViolation when numerics break down.
    """
    ok, mins = check_cp(phi, tol)
    if not ok:
        raise NotCP(f"Choi certificate failed (min eigenvalues {mins})")
    A = phi.algebra
    L = left_mult_correspondence(identity_star_map(A))
    tm = interior_tensor(L.module, E, phi, tol)
    pi = CPMap(A, tm.module, tensor_extend(L.images, tm, tm, "left multiplication", tol))
    # V_phi x = class of 1_A (x) x
    V_pre = np.kron(unit_element(A).coeffs().reshape(A.dim, 1), np.eye(E.dim, dtype=complex))
    embedding = ModuleMap(E, tm.module, tm.q @ V_pre)
    return KsgnsTriple(tm.module, tm.q, tm.s, tm.kernel, E, phi, pi, embedding)


def ksgns_once(
    E: HilbertModule,
    phi: CPMap,
    tol: Tolerance = DEFAULT_TOL,
    memo: BuildMemo | None = None,
) -> KsgnsTriple:
    """ksgns(E, phi); with a poscor.BuildMemo, built once per (E, phi) object
    pair."""
    if memo is None:
        return ksgns(E, phi, tol)
    return memo.get(("ksgns", id(E), id(phi), tol), (E, phi), lambda: ksgns(E, phi, tol))


def spanning_columns(t: KsgnsTriple) -> np.ndarray:
    """The family {pi(a_p) V e_q} as the columns of one (dim F) x (dim A * dim E) matrix."""
    return np.hstack(t.pi.images @ t.embedding.matrix)


def spanning_rank(t: KsgnsTriple, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of the column family {pi(a_p) V e_q} at the rank cutoff."""
    if t.module.dim == 0:
        return 0
    svals = np.linalg.svd(spanning_columns(t), compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > tol.rtol * svals[0]))


def check_triple(t: KsgnsTriple, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Residuals for the two dilation conditions and the adjoint formula."""
    rep = CheckReport()
    scale = 1.0 + t.phi.norm
    E = t.source
    Vs = adjoint_map(t.embedding).matrix
    V = t.embedding.matrix
    recon = max_operator_norm(E.gram_sqrt @ (Vs @ t.pi.images @ V - t.phi.images) @ E.gram_isqrt)
    rep.add("reconstruction", recon, tol.ctol * scale)
    rep.add(
        "spanning_defect", float(t.module.dim - spanning_rank(t, tol)), 0.0
    )
    # V*(class of a (x) y) = phi(a) y, checked on all pre-basis columns
    dA, dE = t.phi.algebra.dim, E.dim
    W = (Vs @ t.q).reshape(dE, dA, dE).transpose(1, 0, 2)  # W[p] = V* q on a_p (x) E
    rep.add("embedding_adjoint_formula", max_operator_norm(W - t.phi.images), tol.ctol * scale)
    rep.merge(check_correspondence(t.pi, tol), prefix="pi_")
    return rep


def triple_uniqueness_unitary(
    t1: KsgnsTriple, t2: KsgnsTriple, tol: Tolerance = DEFAULT_TOL
) -> tuple[ModuleMap, CheckReport]:
    """Solve the B-linear unitary U with U V_1 = V_2 and U pi_1 U* = pi_2.

    Both triples must dilate the same (E, phi); U is solved on the spanning
    columns by pseudo-inverse.
    """
    U = ModuleMap(
        t1.module, t2.module, spanning_columns(t2) @ pseudo_inverse(spanning_columns(t1), tol)
    )
    rep = CheckReport()
    scale = 1.0 + t1.phi.norm
    Ustar = adjoint_map(U).matrix
    rep.add("unitary", unitarity_residual(U), tol.ctol * scale)
    rep.add(
        "embedding_match",
        module_operator_norm(
            ModuleMap(t1.source, t2.module, U.matrix @ t1.embedding.matrix - t2.embedding.matrix)
        ),
        tol.ctol * scale,
    )
    rep.add(
        "representation_match",
        max_operator_norm(U.matrix @ t1.pi.images @ Ustar - t2.pi.images),
        tol.ctol * scale,
    )
    return U, rep


def conjugated_triple(t: KsgnsTriple, Z: ModuleMap) -> KsgnsTriple:
    """Transport a triple along a B-linear unitary Z in L(F_phi): the quotient
    map and section move with it (q <- Z q, s <- s Z^-1); the kernel stays."""
    Zi = adjoint_map(Z).matrix
    return replace(
        t,
        q=Z.matrix @ t.q,
        s=t.s @ Zi,
        pi=CPMap(t.phi.algebra, t.module, Z.matrix @ t.pi.images @ Zi),
        embedding=ModuleMap(t.source, t.module, Z.matrix @ t.embedding.matrix),
    )


# -- the endofunctor on intertwiners ----------------------------------------


def ksgns_lift(
    m: Intertwiner,
    t1: KsgnsTriple,
    t2: KsgnsTriple,
    tol: Tolerance = DEFAULT_TOL,
) -> Intertwiner:
    """Lift an intertwiner (eta, alpha) to (eta~, alpha) on the dilations.

    eta~ is the compression of alpha (x) eta to the quotients; the well-
    definedness gate checks that alpha (x) eta maps ker G_1 into ker G_2.
    """
    K = np.kron(m.alpha.matrix, m.eta.matrix)
    lifted = ModuleMap(t1.module, t2.module, descend(K, t1, t2, "alpha (x) eta", tol))
    return Intertwiner(lifted, m.alpha)


def check_lift(
    m: Intertwiner,
    lifted: Intertwiner,
    t1: KsgnsTriple,
    t2: KsgnsTriple,
    tol: Tolerance = DEFAULT_TOL,
) -> CheckReport:
    """Contraction, adjoint formula, intertwining, and embedding compatibility."""
    from .cp import check_morphism

    rep = CheckReport()
    norm_eta = m.norm
    scale = 1.0 + norm_eta
    rep.add(
        "contraction",
        max(0.0, lifted.norm - norm_eta),
        tol.ctol * scale,
    )
    # adjoint sends the class of a (x) y to alpha^{-1}(a) (x) eta*(y)
    K_adj = np.kron(m.alpha.inverse_matrix, adjoint_map(m.eta).matrix)
    rep.add(
        "adjoint_formula",
        operator_norm(adjoint_map(lifted.eta).matrix @ t2.q - t1.q @ K_adj),
        tol.ctol * scale * (1.0 + t1.phi.norm + t2.phi.norm),
    )
    rep.merge(check_morphism(lifted, t1.pi, t2.pi, tol), prefix="pi_")
    rep.add(
        "embedding_compat",
        module_operator_norm(
            ModuleMap(
                t1.source,
                t2.module,
                lifted.eta.matrix @ t1.embedding.matrix
                - t2.embedding.matrix @ m.eta.matrix,
            )
        ),
        tol.ctol * scale,
    )
    return rep


@dataclass
class IdempotencyUnitary:
    """V_{pi_phi}: F_phi -> F_{pi_phi} together with the second-level triple."""

    unitary: ModuleMap
    second: KsgnsTriple


def idempotency_unitary(
    t: KsgnsTriple, tol: Tolerance = DEFAULT_TOL, memo: BuildMemo | None = None
) -> IdempotencyUnitary:
    """Dilate the dilated representation; its embedding is already unitary."""
    second = ksgns_once(t.module, t.pi, tol, memo)
    return IdempotencyUnitary(second.embedding, second)


def check_idempotency(
    idem: IdempotencyUnitary, t: KsgnsTriple, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    rep = CheckReport()
    V = idem.unitary
    scale = 1.0 + t.phi.norm
    rep.add("unitary", unitarity_residual(V), tol.ctol * scale)
    rep.add("dim_match", float(idem.second.module.dim - t.module.dim), 0.0)
    inter = max_operator_norm(V.matrix @ t.pi.images - idem.second.pi.images @ V.matrix)
    rep.add("intertwines", inter, tol.ctol * scale)
    return rep


# -- continuity probe --------------------------------------------------------


@dataclass
class ProbeReport:
    input_distances: list[float]
    lifted_distances: list[float]
    constant: float
    final_gate: float

    @property
    def passed(self) -> bool:
        if not self.lifted_distances:
            return True
        bounded = all(
            lift <= self.constant * max(inp, 1e-300) + self.final_gate
            for inp, lift in zip(self.input_distances, self.lifted_distances)
        )
        return bounded and self.lifted_distances[-1] <= self.final_gate


def continuity_probe(
    path: list[Intertwiner],
    target: Intertwiner,
    t1: KsgnsTriple,
    t2: KsgnsTriple,
    samples: list[tuple[np.ndarray, AlgebraElement]],
    tol: Tolerance = DEFAULT_TOL,
) -> ProbeReport:
    """Push a convergent morphism path through the lift and watch the
    pseudo-metric distances decay on the given (x, a) samples.

    The input path must itself converge: if its distances do not fall to
    10 * ctol the probe raises NonConvergentInput.  The pass constant is a
    pragmatic bound, not a sharp one.
    """
    from .cp import hom_pseudometric

    def max_dist(m: Intertwiner) -> float:
        return max(
            (hom_pseudometric(m, target, x, a) for x, a in samples), default=0.0
        )

    input_distances = [max_dist(m) for m in path]
    gate = 10.0 * tol.ctol
    if input_distances and input_distances[-1] > gate:
        raise NonConvergentInput(
            f"input path distance ends at {input_distances[-1]:.3e} > {gate:.1e}"
        )
    lifted_target = ksgns_lift(target, t1, t2, tol)
    V = t1.embedding.matrix
    pushed = [(V @ np.asarray(x, dtype=complex).reshape(-1), a) for x, a in samples]
    lifted_distances = []
    for m in path:
        lifted = ksgns_lift(m, t1, t2, tol)
        lifted_distances.append(
            max(
                (hom_pseudometric(lifted, lifted_target, x, a) for x, a in pushed),
                default=0.0,
            )
        )
    constant = max(1.0, target.norm * (1.0 + t2.phi.norm)) * 10.0
    return ProbeReport(input_distances, lifted_distances, constant, gate)
