"""The KSGNS dilation of a completely positive map and its functorial layer.

Given phi: A -> L(E) completely positive, the dilation space is the interior
tensor product F_phi = A (x)_phi E of A, as a module over itself, with E
along phi (Lance, Hilbert C*-Modules, ch. 5): cp.tensor_quotients, the
build step of cp.interior_tensor, which sits below this module, quotients
the pre-module on {a_p (x) e_q} with pairing
<a (x) x, a' (x) x'> = <x, phi(a* a') x'>_E and B acting on the E slot.
Left multiplication L(a) (x) I descends to the quotient and gives the dilated
representation pi_phi; the embedding V_phi sends x to the class of 1 (x) x,
which is the unital collapse of the approximate-unit limit.  Dilating pi_phi
once more gives the idempotency unitary V_{pi_phi}: F_phi -> F_{pi_phi}, the
embedding of that second dilation, which is already unitary.

Descent of pi_phi is verified numerically rather than assumed: invariance of
the Gram kernel under left multiplication is a theorem, but floating point
demands an explicit residual gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .cstar import unit_coeffs
from .cp import (
    CPMap,
    Intertwiner,
    check_cp,
    check_correspondence,
    check_morphism,
    hom_pseudometric,
    left_multiplication,
    tensor_extend,
    tensor_quotients,
)
from .errors import NonConvergentInput, NotCP
from .hilbert import (
    HilbertModule,
    ModuleMap,
    ModuleView,
    Quotient,
    QuotientSlice,
    adjoint_map,
    algebra_module,
    descend,
    module_operator_norm,
    unitarity_residual,
)
from .memo import BuildMemo
from .numkernel import (
    Tolerance, kron, live_products, matvecs, max_operator_norm, max_operator_norms, operator_norm,
    pseudo_inverse, stack_slices, svd,
)


@dataclass
class KsgnsTriple(QuotientSlice):
    """(F_phi, pi_phi, V_phi): a slice of the quotient stack of the F_phi =
    A (x)_phi E built together, with its data."""

    source: HilbertModule  # E
    phi: CPMap
    pi: CPMap  # the dilated representation, a correspondence
    embedding: ModuleMap  # V_phi: E -> F_phi

    @property
    def dim(self) -> int:
        return self.module.dim

    @cached_property
    def spanning_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The thin SVD of conj(spanning_columns), pinv's: for the rank and the inverse."""
        return svd(spanning_columns(self).conj(), full_matrices=False)


def ksgns(
    E: Sequence[HilbertModule], phi: Sequence[CPMap], tol: Tolerance, memo: BuildMemo
) -> list[KsgnsTriple]:
    """Dilate completely positive maps phi[s] of one shape on E[s] to
    representations on their F_phi, built once per (E[s], phi[s]) content in
    the memo: one stacked Choi certificate, tensor build and descent of left
    multiplication for the ones the memo lacks.  The tensor A (x)_phi E lives
    in the triple's memo entry only, not under a tensor key of its own.

    Raises NotCP when a Choi certificate fails, ShapeMismatch when a phi acts
    on another module, and SubmoduleViolation (via the quotient) or
    WellDefinednessViolation when numerics break down.
    """

    def build(todo: list[int]) -> list[KsgnsTriple]:
        mods, maps = [E[s] for s in todo], [phi[s] for s in todo]
        for ok, mins in check_cp(maps, tol, memo):
            if not ok:
                raise NotCP(f"Choi certificate failed (min eigenvalues {mins})")
        A = maps[0].algebra
        tms = tensor_quotients([algebra_module(A)] * len(mods), mods, maps, tol)
        L = [left_multiplication(A)] * len(mods)
        pis = tensor_extend(L, tms, tms, "left multiplication", tol)
        # V_phi x = class of 1_A (x) x
        unit = unit_coeffs(A).reshape(A.dim, 1)
        return [
            KsgnsTriple(
                tm.stack, tm.index, e, p, CPMap(A, tm.module, pi),
                ModuleMap(e, tm.module, tm.q @ kron(unit, np.eye(e.dim, dtype=complex))),
            )
            for e, p, tm, pi in zip(mods, maps, tms, pis)
        ]

    return memo.get_all([("ksgns", e.key, p.key, tol) for e, p in zip(E, phi)], build)


def spanning_columns(t: KsgnsTriple) -> np.ndarray:
    """The family {pi(a_p) V e_q} as the columns of one (dim F) x (dim A * dim E) matrix."""
    return np.hstack(t.pi.images @ t.embedding.matrix)


def spanning_rank(t: KsgnsTriple, tol: Tolerance) -> int:
    """Rank of the column family {pi(a_p) V e_q} at the rank cutoff."""
    if t.module.dim == 0:
        return 0
    svals = t.spanning_svd[1]
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > tol.rtol * svals[0]))


def reconstruction_gaps(t: KsgnsTriple) -> np.ndarray:
    """G^(1/2) (V* pi(u_p) V - phi(u_p)) G^(-1/2) for each basis element u_p of
    A, whose largest norm is the residual of the dilation identity."""
    E = t.source
    V, Vs = t.embedding.matrix, adjoint_map(t.embedding).matrix
    return E.gram_sqrt @ (Vs @ t.pi.images @ V - t.phi.images) @ E.gram_isqrt


def check_triple(t: KsgnsTriple, tol: Tolerance) -> list[tuple]:
    """Records of the two dilation conditions, the adjoint formula and pi's
    correspondence laws."""
    scale = 1.0 + t.phi.norm
    E = t.source
    Vs = adjoint_map(t.embedding).matrix
    # V*(class of a (x) y) = phi(a) y, checked on all pre-basis columns
    dA, dE = t.phi.algebra.dim, E.dim
    W = (Vs @ t.q).reshape(dE, dA, dE).transpose(1, 0, 2)  # W[p] = V* q on a_p (x) E
    recon, adjoint = max_operator_norms(reconstruction_gaps(t), W - t.phi.images).tolist()
    (_, mult, mult_gate), (_, unital, unital_gate) = check_correspondence(t.pi, tol)
    return [
        ("reconstruction", recon, tol.ctol * scale),
        ("spanning", float(t.module.dim - spanning_rank(t, tol)), 0.0),
        ("embedding_adjoint", adjoint, tol.ctol * scale),
        ("pi_multiplicative", mult, mult_gate),
        ("pi_unital", unital, unital_gate),
    ]


def triple_uniqueness_unitary(
    t1: KsgnsTriple, t2: KsgnsTriple, tol: Tolerance
) -> tuple[ModuleMap, list[tuple]]:
    """Solve the B-linear unitary U with U V_1 = V_2 and U pi_1 U* = pi_2,
    with its records: unitarity, then the representation and embedding matches.

    Both triples must dilate the same (E, phi); U is solved on the spanning
    columns by pseudo-inverse.
    """
    pinv = pseudo_inverse(spanning_columns(t1), tol, t1.spanning_svd)
    U = ModuleMap(t1.module, t2.module, spanning_columns(t2) @ pinv)
    scale = 1.0 + t1.phi.norm
    Ustar = adjoint_map(U).matrix
    return U, [
        ("unitary", unitarity_residual([U]), tol.ctol * scale),
        (
            "representation_match",
            max_operator_norm(live_products(U.matrix, t1.pi.images, Ustar)[0] - t2.pi.images),
            tol.ctol * scale,
        ),
        (
            "embedding_match",
            module_operator_norm(ModuleMap(
                t1.source, t2.module, U.matrix @ t1.embedding.matrix - t2.embedding.matrix
            )),
            tol.ctol * scale,
        ),
    ]


def conjugated_triple(t: KsgnsTriple, Z: ModuleMap) -> KsgnsTriple:
    """Transport a triple along a B-linear unitary Z in L(F_phi): the quotient
    map and section move with it (q <- Z q, s <- s Z^-1), a stack of one; the
    module and kernel stay, views of t's."""
    Zi, one = adjoint_map(Z).matrix, slice(t.index, t.index + 1)
    return replace(
        t,
        stack=Quotient(ModuleView(t.stack.module, one), (Z.matrix @ t.q)[None], (t.s @ Zi)[None],
                       t.stack.kernel[one]),
        index=0,
        pi=CPMap(t.phi.algebra, t.module, live_products(Z.matrix, t.pi.images, Zi)[0]),
        embedding=ModuleMap(t.source, t.module, Z.matrix @ t.embedding.matrix),
    )


# -- the endofunctor on intertwiners ----------------------------------------


def ksgns_lift(
    m: Sequence[Intertwiner],
    t1: Sequence[KsgnsTriple],
    t2: Sequence[KsgnsTriple],
    tol: Tolerance,
) -> list[Intertwiner]:
    """Lift intertwiners m[s] = (eta, alpha) to (eta~, alpha) from the
    dilation t1[s] to t2[s], all through one stacked descent.

    eta~ is the compression of alpha (x) eta to the quotients; the well-
    definedness gate checks that alpha (x) eta maps ker G_1 into ker G_2.
    """
    K = stack_slices([kron(x.alpha.matrix, x.eta.matrix) for x in m])
    lifted = descend(K, t1, t2, "alpha (x) eta", tol)
    return [
        Intertwiner(ModuleMap(a.module, b.module, eta), x.alpha)
        for x, a, b, eta in zip(m, t1, t2, lifted)
    ]


def check_lift(
    m: Intertwiner,
    lifted: Intertwiner,
    t1: KsgnsTriple,
    t2: KsgnsTriple,
    tol: Tolerance,
) -> list[tuple]:
    """Contraction, adjoint formula, intertwining (check_morphism's defining
    residual of the lifted pair), and embedding compatibility."""
    norm_eta = m.norm
    scale = 1.0 + norm_eta
    contraction = max(0.0, lifted.norm - norm_eta)
    # adjoint sends the class of a (x) y to alpha^{-1}(a) (x) eta*(y)
    K_adj = kron(m.alpha.inverse_matrix, adjoint_map(m.eta).matrix)
    adjoint = operator_norm(adjoint_map(lifted.eta).matrix @ t2.q - t1.q @ K_adj)
    # the defining residual from check_morphism's batch of all three: together
    # their stacks reach BOUND_MIN_SLICES, where the defining one alone would not,
    # so a 32-wide lift of the default run takes 4 exact eigensolves, not 8
    (_, morphism, morphism_gate), *_ = check_morphism([lifted], [t1.pi], [t2.pi], tol)[0]
    return [
        ("lift_contraction", contraction, tol.ctol * scale),
        ("lift_adjoint", adjoint, tol.ctol * scale * (1.0 + t1.phi.norm + t2.phi.norm)),
        ("lift_morphism", morphism, morphism_gate),
        (
            "lift_embedding",
            module_operator_norm(ModuleMap(
                t1.source,
                t2.module,
                lifted.eta.matrix @ t1.embedding.matrix - t2.embedding.matrix @ m.eta.matrix,
            )),
            tol.ctol * scale,
        ),
    ]


def check_idempotency(second: KsgnsTriple, t: KsgnsTriple, tol: Tolerance) -> list[tuple]:
    """Unitarity, dimension match and intertwining of V_{pi_phi}, the
    embedding of second = ksgns([t.module], [t.pi], ...)[0]."""
    V = second.embedding
    scale = 1.0 + t.phi.norm
    inter = max_operator_norm(V.matrix @ t.pi.images - second.pi.images @ V.matrix)
    return [
        ("unitary", unitarity_residual([V]), tol.ctol * scale),
        ("dim_stable", float(second.module.dim - t.module.dim), 0.0),
        ("intertwines", inter, tol.ctol * scale),
    ]


# -- continuity probe --------------------------------------------------------


@dataclass
class ProbeReport:
    input_distances: list[float]
    lifted_distances: list[float]
    constant: float
    final_gate: float


def continuity_probe(
    path: list[Intertwiner],
    target: Intertwiner,
    t1: KsgnsTriple,
    t2: KsgnsTriple,
    X: np.ndarray,
    C: np.ndarray,
    tol: Tolerance,
) -> ProbeReport:
    """Push a convergent morphism path through the lift and watch the
    pseudo-metric distances decay on the samples (x, a): the rows x of X
    (R, dim E) with the coefficient rows a of C (R, dim A).  Each path, the
    input and the lifted one, takes one hom_pseudometric call.

    The input path must itself converge: if its distances do not fall to
    10 * ctol the probe raises NonConvergentInput.  The pass constant is a
    pragmatic bound, not a sharp one.
    """
    input_distances = hom_pseudometric(path, target, X, C).max(axis=1, initial=0.0).tolist()
    gate = 10.0 * tol.ctol
    if input_distances and input_distances[-1] > gate:
        raise NonConvergentInput(
            f"input path distance ends at {input_distances[-1]:.3e} > {gate:.1e}"
        )
    n = len(path) + 1
    lifted_target, *lifted = ksgns_lift([target, *path], [t1] * n, [t2] * n, tol)
    pushed = matvecs(t1.embedding.matrix, X)
    lifted_distances = (
        hom_pseudometric(lifted, lifted_target, pushed, C).max(axis=1, initial=0.0).tolist()
    )
    constant = max(1.0, target.norm * (1.0 + t2.phi.norm)) * 10.0
    return ProbeReport(input_distances, lifted_distances, constant, gate)
