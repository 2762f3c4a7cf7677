"""Suite runner: deterministic instance generation, check execution, reports.

Per-instance seeds derive from the master seed through a counter-based
SeedSequence split, so suites reproduce under reordering and a regenerated
instance is bit-identical to its serialized form.  A failing instance never
aborts a suite: any exception its checker raises ends it as one failing
`construction` record (check_instance), and every remaining instance still
runs.  Thresholds scale as ctol * (1 + instance scale) where the scale
is a product of the participating operator norms.  A record's and a config's
JSON are their dataclass fields; nothing reads a report back.

Each suite declares its records once, as an ordered theorem table {check
name: theorem} beside its checker; `_SUITES` holds (generator, checker,
table) per suite.  A checker yields named residuals, (check, residual,
threshold), its own and those a library checker returns as a list; the harness
records them (check_instance), and a name the table does not declare, or
declares before the previous record's, fails the instance.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import time
from dataclasses import dataclass, field, asdict
from typing import Iterator

import numpy as np

from . import serialize as ser
from .cp import (
    CPMap,
    Intertwiner,
    check_cp,
    check_morphism,
    compose_intertwiners,
    intertwiner_space,
    random_blinear_unitary,
    random_cp,
    tensor_extend,
)
from .cstar import (
    AlgebraElement,
    Automorphism,
    adjoints,
    element_norms,
    identity_automorphism,
    inner_automorphism,
    products,
    random_element,
)
from .equivariant import (
    average_covariant,
    categorical_dilation_unitary,
    check_dilation,
    check_equivariant,
    check_functor_laws,
    conjugated_quadruple,
    correspondence_to_functor,
    cyclic_group,
    dilate,
    random_equivariant,
    scramble_module,
    symmetric_group,
    trivial_group,
    uniqueness_unitary,
)
from .errors import InvalidConfig, ParseError, ValidationError
from .generators import (
    extend_morphism,
    random_elements,
    random_endomorphism,
    random_intertwiner,
    random_module,
    random_morphism_pair,
    random_morphism_to_new_object,
    random_object,
    random_representation,
    random_shape,
    random_star_map,
    random_vectors,
)
from .hilbert import (
    ModuleMap,
    adjoint_map,
    identity_map,
    is_map_positive,
    module_operator_norm,
    null_leak,
    unitarity_residual,
)
from .ksgns import (
    check_idempotency,
    check_lift,
    check_triple,
    conjugated_triple,
    continuity_probe,
    ksgns,
    ksgns_lift,
    triple_uniqueness_unitary,
)
from .memo import BuildMemo, structure
from .numkernel import (
    GENERATION_TOL, Tolerance, herm_expi, kron, matvecs, max_operator_norm, operator_norm,
    stackwise, summarize,
)
from .poscor import (
    PosCorObject,
    balanced_relation_residual,
    check_category_laws,
    check_commuting_unitary,
    check_poscor_morphism,
    commuting_unitary,
    composition_unitary,
    idempotency_iso_poscor,
    interior_tensor,
    interior_tensor_along,
    ksgns_functor,
    make_poscor_morphism,
    morphism_distance,
    poscor_compose,
    poscor_identity,
    tensor_extend_between,
    tensor_extend_cpmap,
    twist_unitary,
    v_rho,
)


SUITE_NAMES = (
    "ksgns",
    "lift",
    "idempotency",
    "tensor",
    "category",
    "equivariant",
    "dilation",
    "continuity",
    "uniqueness",
)

GROUP_MENU = ("Z2", "Z3", "Z4", "S3")


def make_group(name: str):
    """The named group, built once per process (memo.structure), read-only:
    the group serialize.load_group gives for its dumped content."""

    def build():
        if name == "S3":
            G = symmetric_group(3)
        elif name == "E":
            G = trivial_group()
        elif name.startswith("Z"):
            G = cyclic_group(int(name[1:]))
        else:
            raise InvalidConfig(f"unknown group {name!r}")
        G.table.flags.writeable = G.inverse.flags.writeable = False
        return ser.load_group(ser.dump_group(G), G)

    return structure(("make_group", name), build)


@dataclass(frozen=True)
class SizeCaps:
    max_block: int = 3
    max_blocks: int = 2
    max_module_dim: int = 6
    max_group_order: int = 12
    instances_per_suite: int = 10

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if value < 1:
                raise InvalidConfig(f"cap {name} must be positive, got {value}")


@dataclass
class SuiteConfig:
    seed: int = 20250809
    tolerance: Tolerance = field(default_factory=Tolerance)
    caps: SizeCaps = field(default_factory=SizeCaps)
    suites: tuple[str, ...] = SUITE_NAMES
    jobs: int = 1

    def __post_init__(self) -> None:
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise InvalidConfig(f"unknown suites {unknown}")
        if self.jobs < 1:
            raise InvalidConfig("jobs must be positive")
        # hard cap on the dilation pre-space keeps eigensolves fast
        if self.caps.max_module_dim * max_input_dim(self.caps) > 200:
            raise InvalidConfig("caps allow dilation pre-spaces beyond 200 dimensions")


def max_input_dim(caps: SizeCaps) -> int:
    """Largest vector-space dimension the input algebra may take."""
    return caps.max_blocks * caps.max_block**2


def instance_seed(master: int, suite: str, index: int) -> int:
    ss = np.random.SeedSequence([int(master), SUITE_NAMES.index(suite), int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class CheckRecord:
    suite: str
    instance_seed: int
    check: str
    theorem: str
    residual: float
    threshold: float
    passed: bool
    wall_time: float
    error: str = ""


@dataclass
class Report:
    config: dict
    records: list[CheckRecord]

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total

    @property
    def max_residual(self) -> float:
        finite = [r.residual for r in self.records if np.isfinite(r.residual)]
        return max(finite, default=0.0)

    def to_json(self) -> dict:
        """The fields as JSON, a non-finite residual as null, and the summary."""
        data = asdict(self)
        for r in data["records"]:
            if not np.isfinite(r["residual"]):
                r["residual"] = None
        data["summary"] = {
            "total": self.total,
            "passed": self.passed,
            "failed": self.total - self.passed,
            "max_residual": self.max_residual,
        }
        return data


def _cp_certificate(phi: CPMap, tol: Tolerance, memo: BuildMemo) -> tuple[bool, tuple]:
    """The Choi verdict of phi (check_cp) with its (residual, threshold): the
    most negative Choi eigenvalue when it passes, inf whenever it fails."""
    ok, mins = check_cp([phi], tol, memo)[0]
    return ok, (max(0.0, -min(mins)) if ok else float("inf"), tol.ctol * (1.0 + phi.norm))


def _sub_rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _drawn_on_input_algebra(payload: dict, *phis: CPMap) -> None:
    """Raise ValidationError unless each CP map is on the payload's input_algebra."""
    A = ser.load_shape(payload["input_algebra"])
    if any(phi.algebra != A for phi in phis):
        raise ValidationError(f"a CP map drawn on input_algebra {A.blocks} is on another algebra")


# ---------------------------------------------------------------------------
# ksgns suite
# ---------------------------------------------------------------------------


def _gen_ksgns(caps: SizeCaps, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    A = random_shape(rng, caps.max_blocks, caps.max_block)
    B = random_shape(rng, caps.max_blocks, caps.max_block)
    max_dim = min(caps.max_module_dim, max(1, 200 // A.dim))
    E = random_module(B, rng, max_dim)
    phi = random_cp(A, E, rng)
    return {
        "seed": seed,
        "input_algebra": ser.dump_shape(A),
        "module": ser.dump_module(E),
        "phi": ser.dump_cpmap(phi, "module"),
    }


_KSGNS_THEOREMS = {
    "input_hermitian": "positive maps preserve adjoints",
    "input_cp": "complete positivity via blockwise Choi matrices",
    "reconstruction": "KSGNS dilation identity phi(a) = V* pi(a) V",
    "spanning": "density of pi(A) V E in the dilation space",
    "embedding_adjoint": "embedding adjoint formula V*[a (x) y] = phi(a) y",
    "pi_multiplicative": "dilated representation is a *-homomorphism",
    "pi_unital": "dilated representation is unital (nondegenerate)",
    "uniqueness_unitary": "KSGNS triple unique up to a module unitary",
    "uniqueness_embedding": "matching unitary carries V to V'",
    "uniqueness_representation": "matching unitary conjugates pi to pi'",
    "uniqueness_planted": "solved unitary recovers the planted conjugation",
}


def _check_ksgns(payload: dict, tol: Tolerance, memo: BuildMemo):
    E = ser.load_module(payload["module"])
    phi = ser.load_cpmap(payload["phi"], {"module": E})
    _drawn_on_input_algebra(payload, phi)
    yield "input_hermitian", phi.hermiticity_residual(), tol.ctol * (1.0 + phi.norm)
    ok, certificate = _cp_certificate(phi, tol, memo)
    yield "input_cp", *certificate
    if not ok:
        return
    t = ksgns([E], [phi], tol, memo)[0]
    yield from check_triple(t, tol)
    rng = _sub_rng(payload["seed"], 1)
    Z = random_blinear_unitary(t.module, rng)
    t2 = conjugated_triple(t, Z)
    U, (unitary, representation, embedding) = triple_uniqueness_unitary(t, t2, tol)
    # the uniqueness suite's records, under this suite's names and in its table's order
    yield "uniqueness_unitary", *unitary[1:]
    yield "uniqueness_embedding", *embedding[1:]
    yield "uniqueness_representation", *representation[1:]
    yield (
        "uniqueness_planted", operator_norm(U.matrix - Z.matrix), tol.ctol * (1.0 + phi.norm)
    )


# ---------------------------------------------------------------------------
# lift suite
# ---------------------------------------------------------------------------


def _gen_lift(caps: SizeCaps, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    A = random_shape(rng, caps.max_blocks, min(2, caps.max_block))
    B = random_shape(rng, caps.max_blocks, min(2, caps.max_block))
    max_dim = min(caps.max_module_dim, 4)
    E1, phi1, E2, phi2, m1 = random_morphism_pair(A, B, rng, max_dim)
    E3, phi3, m2 = extend_morphism(E2, phi2, rng, GENERATION_TOL)
    phis = {"phi1": phi1, "phi2": phi2, "phi3": phi3}
    return _bundle(seed, A, {"E1": E1, "E2": E2, "E3": E3}, phis, {"m1": m1, "m2": m2})


def _bundle(seed: int, A, modules: dict, phis: dict, morphisms: dict) -> dict:
    """The payload of the lift, idempotency and tensor suites: named modules,
    CP maps and intertwiners; a map names its modules by looking up the
    module objects it holds in `modules`."""
    name = {id(E): k for k, E in modules.items()}
    return {
        "seed": seed,
        "input_algebra": ser.dump_shape(A),
        "modules": {k: ser.dump_module(E) for k, E in modules.items()},
        "phis": {k: ser.dump_cpmap(phi, name[id(phi.module)]) for k, phi in phis.items()},
        "morphisms": {
            k: {
                "eta": ser.dump_module_map(m.eta, name[id(m.eta.source)], name[id(m.eta.target)]),
                "alpha": ser.dump_automorphism(m.alpha),
            }
            for k, m in morphisms.items()
        },
    }


def _load_bundle(payload: dict):
    """Modules, CP maps and intertwiners of a _bundle payload, each by name;
    the intertwiners' maps and automorphisms each load as one stack."""
    mods = {k: ser.load_module(v) for k, v in payload["modules"].items()}
    phis = {k: ser.load_cpmap(v, mods) for k, v in payload["phis"].items()}
    data = payload["morphisms"]
    etas = ser.load_module_maps([v["eta"] for v in data.values()], mods)
    alphas = ser.load_automorphisms([v["alpha"] for v in data.values()])
    return mods, phis, dict(zip(data, map(Intertwiner, etas, alphas)))


def _family_bound_residual(
    phi: CPMap, m: Intertwiner, rng: np.random.Generator
) -> tuple[float, float]:
    """Worst slack in the quadratic-family inequality over two random
    families, with its scale: the couples (i, j) of both families paired in
    one call, then summed in order."""
    E, A = phi.module, phi.algebra
    eta = m.eta
    gram = adjoint_map(eta).matrix @ eta.matrix
    norm2 = m.norm**2
    draws = []
    for _ in range(2):
        n = int(rng.integers(1, 5))
        draws.append((random_vectors(E, rng, n), random_elements(A, rng, n)))
    # row (i, j) of family f, row-major inside each family
    X = np.concatenate([np.repeat(xs, len(xs), axis=0) for xs, _ in draws])
    Y = np.concatenate([np.tile(xs, (len(xs), 1)) for xs, _ in draws])
    squares = np.concatenate([products(A, adjoints(A, c), c).reshape(-1, A.dim) for _, c in draws])
    imgs = np.einsum("kp,pij->kij", squares, phi.images)  # phi(a_i* a_j)
    pushed = matvecs(imgs, np.stack([matvecs(gram, Y), Y]))
    terms = E.pair(np.broadcast_to(X, pushed.shape), pushed)  # (lhs / rhs, couple, dim B)
    # each family's terms added in couple order; np.sum would regroup them
    cuts = np.cumsum([len(xs) ** 2 for xs, _ in draws])[:-1]
    sums = [np.add.accumulate(t, axis=1)[:, -1] for t in np.split(terms, cuts, axis=1)]
    lhs, rhs = element_norms(E.algebra, np.stack(sums, axis=1))
    worst = max(0.0, float((lhs - norm2 * rhs).max()))
    return worst, max(1.0, float((norm2 * (1.0 + rhs)).max()))


_LIFT_THEOREMS = {
    "morphism": "intertwiner condition with automorphism twist",
    "morphism_adjoint": "adjoint side: eta* phi2(alpha(a)) = phi1(a) eta*",
    "morphism_commutant": "phi1(a) commutes with eta* eta",
    "family_bound": "quadratic-family norm bound for intertwiners",
    "positivity_lower": "0 <= phi(a* a) eta* eta",
    "positivity_upper": "phi(a* a) eta* eta <= ||eta||^2 phi(a* a)",
    "lift_well_defined": "alpha (x) eta maps null vectors to null vectors",
    "lift_contraction": "lift norm bound ||eta~|| <= ||eta||",
    "lift_adjoint": "lift adjoint acts through alpha inverse",
    "lift_morphism": "lifted pair intertwines the dilated representations",
    "lift_embedding": "lift intertwines the embeddings: eta~ V1 = V2 eta",
    "functor_identity": "KSGNS endofunctor preserves identities",
    "functor_composition": "KSGNS endofunctor preserves composition",
}


def _check_lift(payload: dict, tol: Tolerance, memo: BuildMemo):
    mods, phis, morphs = _load_bundle(payload)
    E1, E2, E3 = mods["E1"], mods["E2"], mods["E3"]
    phi1, phi2, phi3 = phis["phi1"], phis["phi2"], phis["phi3"]
    _drawn_on_input_algebra(payload, phi1, phi2, phi3)
    m1, m2 = morphs["m1"], morphs["m2"]
    rng = _sub_rng(payload["seed"], 2)

    yield from check_morphism([m1], [phi1], [phi2], tol)[0]
    worst, scale = _family_bound_residual(phi1, m1, rng)
    yield "family_bound", worst, tol.ctol * scale
    # positivity sandwich on a sampled a* a
    a = random_elements(phi1.algebra, rng, 1)
    pos = phi1(products(phi1.algebra, adjoints(phi1.algebra, a), a)[0, 0]).matrix
    gram = adjoint_map(m1.eta).matrix @ m1.eta.matrix
    lower_ok, lower_eig = is_map_positive(ModuleMap(E1, E1, pos @ gram), tol)
    upper_ok, upper_eig = is_map_positive(
        ModuleMap(E1, E1, m1.norm**2 * pos - pos @ gram), tol
    )
    a_norm = float(element_norms(phi1.algebra, a)[0])
    sandwich_scale = tol.ctol * (1.0 + phi1.norm * (1.0 + a_norm**2) * (1.0 + m1.norm**2))
    yield "positivity_lower", max(0.0, -lower_eig), sandwich_scale
    yield "positivity_upper", max(0.0, -upper_eig), sandwich_scale

    t1, t2, t3 = _alone_on_failure(ksgns, [(E1, phi1), (E2, phi2), (E3, phi3)], tol, memo)
    leak, gate = null_leak(t2.q, kron(m1.alpha.matrix, m1.eta.matrix), t1.kernel, tol)
    yield "lift_well_defined", leak, gate
    # taken at their places: a lift that fails alone raises after the records before it
    ident = Intertwiner(identity_map(E1), identity_automorphism(phi1.algebra))
    lifts = _alone_on_failure(ksgns_lift, [(m1, t1, t2), (ident, t1, t1), (m2, t2, t3)], tol)
    lifted1 = next(lifts)
    yield from check_lift(m1, lifted1, t1, t2, tol)
    lift_id = next(lifts)
    yield "functor_identity", operator_norm(lift_id.eta.matrix - np.eye(t1.module.dim)), tol.ctol
    lifted2 = next(lifts)
    lifted21 = ksgns_lift([compose_intertwiners(m2, m1)], [t1], [t3], tol)[0]
    yield (
        "functor_composition",
        operator_norm(lifted21.eta.matrix - lifted2.eta.matrix @ lifted1.eta.matrix),
        tol.ctol * (1.0 + m1.norm * m2.norm),
    )


# ---------------------------------------------------------------------------
# idempotency suite
# ---------------------------------------------------------------------------


def _gen_idempotency(caps: SizeCaps, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    A = random_shape(rng, 1, min(2, caps.max_block))
    B = random_shape(rng, caps.max_blocks, min(2, caps.max_block))
    max_dim = min(caps.max_module_dim, 4)
    E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, max_dim)
    return _bundle(seed, A, {"E1": E1, "E2": E2}, {"phi1": phi1, "phi2": phi2}, {"m": m})


_IDEMPOTENCY_THEOREMS = {
    "unitary": "second embedding V_pi is unitary",
    "dim_stable": "second dilation has the same dimension",
    "intertwines": "V_pi intertwines pi and its dilation",
    "naturality": "idempotency naturality square V_pi eta~ = eta~~ V_pi",
}


def _check_idempotency(payload: dict, tol: Tolerance, memo: BuildMemo):
    mods, phis, morphs = _load_bundle(payload)
    _drawn_on_input_algebra(payload, phis["phi1"], phis["phi2"])
    m = morphs["m"]
    t1, t2 = _alone_on_failure(
        ksgns, [(mods["E1"], phis["phi1"]), (mods["E2"], phis["phi2"])], tol, memo)
    second1, second2 = _alone_on_failure(ksgns, [(t1.module, t1.pi), (t2.module, t2.pi)], tol, memo)
    yield from check_idempotency(second1, t1, tol)
    lifted = ksgns_lift([m], [t1], [t2], tol)[0]
    double = ksgns_lift([lifted], [second1], [second2], tol)[0]
    yield (
        "naturality",
        operator_norm(
            second2.embedding.matrix @ lifted.eta.matrix
            - double.eta.matrix @ second1.embedding.matrix
        ),
        tol.ctol * (1.0 + m.norm),
    )


# ---------------------------------------------------------------------------
# tensor suite
# ---------------------------------------------------------------------------


def _gen_tensor(caps: SizeCaps, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    A = random_shape(rng, 1, min(2, caps.max_block))
    B = random_shape(rng, caps.max_blocks, min(2, caps.max_block))
    C = random_shape(rng, caps.max_blocks, min(2, caps.max_block))
    E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, min(caps.max_module_dim, 3))
    F, pi = random_representation(B, C, rng, max_dim=4)
    for _ in range(16):  # a vacuous tensor would make every check trivial
        if interior_tensor([E1], [F], [pi], GENERATION_TOL, BuildMemo())[0].module.dim > 0:
            break
        F, pi = random_representation(B, C, rng, max_dim=4)
    rho1 = random_star_map(B, rng, max_block=2, max_out_blocks=1)
    rho2 = random_star_map(rho1.codomain, rng, max_block=3, max_out_blocks=1)
    rho3 = random_star_map(rho2.codomain, rng, max_block=4, max_out_blocks=1)
    modules = {"E1": E1, "E2": E2, "F": F}
    payload = _bundle(seed, A, modules, {"phi1": phi1, "phi2": phi2, "pi": pi}, {"m": m})
    rhos = {"rho1": rho1, "rho2": rho2, "rho3": rho3}
    payload["star_maps"] = {k: ser.dump_star_map(rho) for k, rho in rhos.items()}
    return payload


_TENSOR_THEOREMS = {
    "balanced": "balanced relation x b (x) y = x (x) pi(b) y",
    "extend_unitary": "tensor extension preserves unitaries",
    "extend_adjoint": "(T (x) I)* = T* (x) I",
    "extend_multiplicative": "(S T) (x) I = (S (x) I)(T (x) I)",
    "extend_norm": "||T (x) I|| <= ||T||",
    "functor_morphism": "tensored pair intertwines the extended maps",
    "functor_norm": "||eta (x) I|| <= ||eta||",
    "inclusion_unitary": "inclusion x (x) b -> x b is unitary",
    "inclusion_naturality": "tensoring with B along the inclusion is naturally trivial",
    "inclusion_vrho": "V_inc is the adjoint of the inclusion unitary",
    "composition_unitary": "iterated tensoring composes: (x (x) c) (x) d -> x (x) rho(c) d",
    "pentagon": "coherence pentagon U1 U2 = V1 (V2 (x) I)",
    "composition_dims": "iterated and composed tensors have equal dimension",
    "vrho_contraction": "V_rho is a contraction",
    "vrho_twisted": "V_rho(x b) = V_rho(x) . rho(b)",
    "vrho_chain": "U . V_chi . V_rho = V_{chi rho}",
    "vrho_square": "(eta (x) I) . V'_chi = V_chi . eta",
    "commuting_unitary": "KSGNS commutes with tensoring: coordinate unitary",
    "commuting_naturality": "KSGNS/tensor commuting square is natural",
}


def _check_tensor(payload: dict, tol: Tolerance, memo: BuildMemo):
    mods, phis, morphs = _load_bundle(payload)
    E1, E2, F = mods["E1"], mods["E2"], mods["F"]
    phi1, phi2, pi = phis["phi1"], phis["phi2"], phis["pi"]
    _drawn_on_input_algebra(payload, phi1, phi2)
    m = morphs["m"]
    star_maps = payload["star_maps"]
    rho1, rho2, rho3 = ser.load_star_maps([star_maps[k] for k in ("rho1", "rho2", "rho3")])
    rng = _sub_rng(payload["seed"], 3)
    tm1, tm2 = _alone_on_failure(interior_tensor, [(E1, F, pi), (E2, F, pi)], tol, memo)
    yield (
        "balanced",
        balanced_relation_residual(tm1, rng),
        tol.ctol * (1.0 + operator_norm(tm1.module.gram_matrix)),
    )
    T = random_blinear_unitary(E1, rng)
    S = random_blinear_unitary(E1, rng)
    # T (x) I, S (x) I, T* (x) I and (S T) (x) I as one stack
    stack = np.stack([T.matrix, S.matrix, adjoint_map(T).matrix, S.matrix @ T.matrix])
    TI, SI, TsI, STI = tensor_extend([stack], [tm1], [tm1], "T (x) I", tol)[0]
    TI = ModuleMap(tm1.module, tm1.module, TI)
    yield "extend_unitary", unitarity_residual([TI]), tol.ctol
    yield "extend_adjoint", operator_norm(adjoint_map(TI).matrix - TsI), tol.ctol
    yield "extend_multiplicative", operator_norm(STI - SI @ TI.matrix), tol.ctol
    yield (
        "extend_norm", max(0.0, module_operator_norm(TI) - module_operator_norm(T)), tol.ctol
    )
    m_hat = Intertwiner(tensor_extend_between([m.eta], [tm1], [tm2], tol)[0], m.alpha)
    phi1_ext, phi2_ext = _alone_on_failure(
        tensor_extend_cpmap, [(phi1, tm1), (phi2, tm2)], tol, memo)
    yield "functor_morphism", *summarize(check_morphism([m_hat], [phi1_ext], [phi2_ext], tol)[0])
    yield "functor_norm", max(0.0, m_hat.norm - m.norm), tol.ctol
    # inclusion: the twist at the identity automorphism
    (inc1, iota1), (inc2, iota2) = _alone_on_failure(
        twist_unitary, [(E, identity_automorphism(E.algebra)) for E in (E1, E2)], tol, memo)
    iota = ModuleMap(inc1.module, E1, iota1)
    yield "inclusion_unitary", unitarity_residual([iota]), tol.ctol
    eta_inc = tensor_extend_between([m.eta], [inc1], [inc2], tol)[0]
    yield (
        "inclusion_naturality",
        operator_norm(iota2 @ eta_inc.matrix - m.eta.matrix @ iota1),
        tol.ctol * (1.0 + m.norm),
    )
    v_inc = v_rho([inc1])[0]
    yield "inclusion_vrho", operator_norm(v_inc - adjoint_map(iota).matrix), tol.ctol
    # composition of tensorings
    tm12 = interior_tensor_along([E1], [rho1], tol, memo)[0]
    comp = composition_unitary([tm12], [rho1], [rho2], tol, memo)[0]
    yield "composition_unitary", unitarity_residual([comp.unitary]), tol.ctol
    # pentagon over three star maps, all into one shared final module: V1
    # lives along U1's sigma = (rho3 rho2) rho1, not along rho3 (rho2 rho1)
    U2 = composition_unitary([comp.double], [rho2], [rho3], tol, memo)[0]
    U1 = composition_unitary([comp.inner], [rho1], [U2.rho], tol, memo)[0]
    V1 = composition_unitary([comp.target], [comp.rho], [rho3], tol, memo, [U1.rho])[0]
    V2_hat = tensor_extend_between([comp.unitary], [U2.double], [V1.double], tol)[0]
    yield (
        "pentagon",
        operator_norm(
            U1.unitary.matrix @ U2.unitary.matrix
            - V1.unitary.matrix @ V2_hat.matrix
        ),
        tol.ctol,
    )
    yield "composition_dims", float(comp.double.module.dim - comp.target.module.dim), 0.0
    # vrho behavior
    vr1 = v_rho([comp.inner])[0]
    X = random_vectors(E1, rng, 4)
    contraction = max(
        0.0, float((comp.inner.module.vector_norm(matvecs(vr1, X)) - E1.vector_norm(X)).max())
    )
    yield "vrho_contraction", contraction, tol.ctol
    rho_actions = np.einsum("qp,qij->pij", rho1.matrix, comp.inner.module.action)
    yield "vrho_twisted", max_operator_norm(vr1 @ E1.action - rho_actions @ vr1), tol.ctol
    vr2 = v_rho([comp.double])[0]
    vr12 = v_rho([comp.target])[0]
    yield "vrho_chain", operator_norm(comp.unitary.matrix @ vr2 @ vr1 - vr12), tol.ctol
    # square: (eta (x) I) . V'_chi = V_chi . eta for eta out of a tensor module
    E2p, Sp = scramble_module(comp.inner.module, rng)
    eta_sq = ModuleMap(comp.inner.module, E2p, np.linalg.inv(Sp))
    tm_sq = interior_tensor_along([E2p], [rho2], tol, memo)[0]
    eta_sq_hat = tensor_extend_between([eta_sq], [comp.double], [tm_sq], tol)[0]
    vr_sq = v_rho([tm_sq])[0]
    yield (
        "vrho_square",
        operator_norm(eta_sq_hat.matrix @ vr2 - vr_sq @ eta_sq.matrix),
        tol.ctol * (1.0 + module_operator_norm(eta_sq)),
    )
    # KSGNS commutes with tensoring
    cu1, cu2 = _alone_on_failure(commuting_unitary, [(phi1, tm1), (phi2, tm2)], tol, memo)
    yield "commuting_unitary", *summarize(check_commuting_unitary(cu1, tol, memo))
    lifted = ksgns_lift([m], [cu1.triple], [cu2.triple], tol)[0]
    lifted_hat = tensor_extend_between([lifted.eta], [cu1.right], [cu2.right], tol)[0]
    hat_lifted = ksgns_lift([m_hat], [cu1.left], [cu2.left], tol)[0]
    yield (
        "commuting_naturality",
        operator_norm(
            lifted_hat.matrix @ cu1.unitary.matrix
            - cu2.unitary.matrix @ hat_lifted.eta.matrix
        ),
        tol.ctol * (1.0 + m.norm),
    )


# ---------------------------------------------------------------------------
# category suite
# ---------------------------------------------------------------------------


def _gen_category(caps: SizeCaps, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    tol, memo = GENERATION_TOL, BuildMemo()
    A = random_shape(rng, 1, min(2, caps.max_block))
    B1 = random_shape(rng, 1, 2)
    o1 = random_object("O1", A, B1, rng, max_dim=2)
    o2, a1 = random_morphism_to_new_object(
        o1, "O2", rng, tol, memo, max_block=2, max_out_blocks=1, max_dim=8
    )
    o3, b1 = random_morphism_to_new_object(
        o2, "O3", rng, tol, memo, max_block=3, max_out_blocks=1, max_dim=12
    )
    a2 = _sibling_morphism(a1, rng, tol, memo)
    b2 = _sibling_morphism(b1, rng, tol, memo)
    c1 = random_endomorphism(o3, rng, tol, memo)
    c2 = random_endomorphism(o1, rng, tol, memo)
    objects = [o1, o2, o3]
    morphisms = [("O1", "O2", a1), ("O1", "O2", a2), ("O2", "O3", b1),
                 ("O2", "O3", b2), ("O3", "O3", c1), ("O1", "O1", c2)]
    deep = seed % 2 == 0
    return {
        "seed": seed,
        "input_algebra": ser.dump_shape(A),
        "objects": [
            {
                "ident": o.ident,
                "coefficient": ser.dump_shape(o.coefficient),
                "module": ser.dump_module(o.module),
                "phi": ser.dump_cpmap(o.phi, o.ident),
            }
            for o in objects
        ],
        "morphisms": [
            {
                "dom": dom,
                "cod": cod,
                "rho": ser.dump_star_map(m.rho),
                **_dump_eta_alpha(m.eta.matrix, m.alpha),
            }
            for dom, cod, m in morphisms
        ],
        "checks": ["laws", "ksgns_functor"] if deep else ["laws"],
    }


def _dump_eta_alpha(eta: np.ndarray, alpha: Automorphism) -> dict:
    """A morphism's matrix and automorphism, as the category and continuity
    payloads write them."""
    return {"eta": ser.dump_cmatrix(eta), "alpha": ser.dump_automorphism(alpha)}


def _sibling_morphism(m, rng: np.random.Generator, tol: Tolerance, memo: BuildMemo):
    """Second morphism parallel to m: same rho and alpha, eta drawn from the
    solved intertwiner space."""
    phi_ext = tensor_extend_cpmap([m.dom.phi], [m.dom_tensor], tol, memo)[0]
    eta, norm = random_intertwiner(phi_ext, m.cod.phi, m.alpha, rng, tol)
    mat = eta.matrix
    if norm <= 1e-9:
        mat, norm = m.eta.matrix, 1.0
    return make_poscor_morphism([m.dom], [m.cod], [m.rho], [mat / norm], [m.alpha], tol, memo)[0]


def _alone_on_failure(build, items: list[tuple], *args) -> Iterator:
    """The builds of items (each a tuple of one slice of build's stacked arguments),
    in order, from one stacked call.  When that raises, whatever it raises, each item
    is built again alone, in order and only as the caller takes it, so that a faulty
    item raises as its own call does and where: a caller that takes each item at its
    one-at-a-time build's place yields every record that build would follow."""
    try:
        return iter(build(*map(list, zip(*items)), *args))
    except Exception:
        return (build(*[[x] for x in item], *args)[0] for item in items)


def _tensor_shape(morphism: tuple) -> tuple:
    """The shape of the tensor of a morphism (dom, cod, rho, ...) along its rho."""
    dom, rho = morphism[0], morphism[2]
    return dom.module.algebra, dom.module.dim, rho.codomain


def _load_category(payload: dict, tol: Tolerance, memo: BuildMemo):
    """The objects and morphisms of a category payload.  The morphisms' star
    maps, automorphisms and matrices each load as one stack; their tensors
    and the morphisms build as one stack per tensor shape."""
    A = ser.load_shape(payload["input_algebra"])
    objects, by_ident = [], {}
    for i, odata in enumerate(payload["objects"]):
        ident, module = odata["ident"], ser.load_module(odata["module"])
        if (first := by_ident.setdefault(ident, i)) != i:
            raise ValidationError(f"object {i}: ident {ident!r} repeats object {first}'s")
        phi = ser.load_cpmap(odata["phi"], {ident: module})
        if ser.load_shape(odata["coefficient"]) != module.algebra:
            raise ValidationError(f"object {ident}'s coefficient is not its module's algebra")
        objects.append(PosCorObject(ident, A, module.algebra, module, phi))
    data = payload["morphisms"]
    for k, d in enumerate(data):
        if unknown := [d[end] for end in ("dom", "cod") if d[end] not in by_ident]:
            raise ValidationError(f"morphism {k}: unknown object {unknown[0]!r}")
    doms, cods = ([objects[by_ident[d[end]]] for d in data] for end in ("dom", "cod"))
    rhos = ser.load_star_maps([d["rho"] for d in data])
    alphas = ser.load_automorphisms([d["alpha"] for d in data])
    tms = stackwise(list(zip(doms, cods, rhos)), _tensor_shape, lambda stack: list(
        _alone_on_failure(interior_tensor_along, [(d.module, r) for d, _, r in stack], tol, memo)))
    shapes = [(cod.module.dim, tm.module.dim) for cod, tm in zip(cods, tms)]
    etas = ser.load_cmatrix_list([d["eta"] for d in data], shapes)
    return objects, stackwise(list(zip(doms, cods, rhos, etas, alphas)), _tensor_shape, lambda
                              ms: list(_alone_on_failure(make_poscor_morphism, ms, tol, memo)))


_CATEGORY_THEOREMS = {
    "morphism_invariants": "category morphisms: unital rho and twisted intertwining",
    "left_identity": "the inclusion pair is a left identity",
    "right_identity": "the inclusion pair is a right identity",
    "associativity": "composition is associative",
    "closure": "composites satisfy the morphism invariants",
    "ksgns_morphism": "the dilated pair is again a category morphism",
    "ksgns_identity": "KSGNS functor preserves category identities",
    "ksgns_composition": "KSGNS functor preserves category composition",
    "ksgns_idempotent": "KSGNS squared is naturally isomorphic to KSGNS",
}


def _check_category(payload: dict, tol: Tolerance, memo: BuildMemo):
    checks = payload.get("checks", [])
    if unknown := set(checks) - {"laws", "ksgns_functor"}:
        raise ValidationError(f"unknown category checks {sorted(unknown)}")
    objects, morphisms = _load_category(payload, tol, memo)
    # the first failing morphism's worst record, (0, ctol) when every one passes
    summaries = map(summarize, check_poscor_morphism(morphisms, tol, memo))
    yield "morphism_invariants", *next((s for s in summaries if s[0] > s[1]), (0.0, tol.ctol))
    yield from check_category_laws(objects, morphisms, tol, memo)
    if "ksgns_functor" not in checks:
        return
    # KSGNS endofunctor laws on the category, on one composable pair
    m1 = next(m for m in morphisms if m.dom.ident == "O1" and m.cod.ident == "O2")
    m2 = next(m for m in morphisms if m.dom.ident == "O2" and m.cod.ident == "O3")
    # objects[0]'s identity built once already (check_category_laws): it cannot raise here
    functor = _alone_on_failure(
        ksgns_functor, [(m1,), (m2,), (poscor_identity(objects[0], tol, memo),)], tol, memo)
    k1, k2 = next(functor), next(functor)
    yield "ksgns_morphism", *summarize(check_poscor_morphism([k1], tol, memo)[0])
    k_id = next(functor)
    yield (
        "ksgns_identity",
        morphism_distance([k_id], [poscor_identity(k_id.dom, tol, memo)])[0],
        tol.ctol,
    )
    k21 = ksgns_functor(poscor_compose([m2], [m1], tol, memo), tol, memo)[0]
    yield (
        "ksgns_composition",
        morphism_distance([k21], poscor_compose([k2], [k1], tol, memo))[0],
        tol.ctol * (1.0 + m1.norm * m2.norm),
    )
    # idempotency as a natural isomorphism on the category
    kk1 = ksgns_functor([k1], tol, memo)[0]
    iso1 = idempotency_iso_poscor(objects[0], tol, memo)
    iso2 = idempotency_iso_poscor(objects[1], tol, memo)
    yield (
        "ksgns_idempotent",
        morphism_distance(
            poscor_compose([iso2], [k1], tol, memo), poscor_compose([kk1], [iso1], tol, memo)
        )[0],
        tol.ctol * (1.0 + m1.norm),
    )


# ---------------------------------------------------------------------------
# equivariant / dilation suites
# ---------------------------------------------------------------------------


def _group_for(caps: SizeCaps, rng: np.random.Generator) -> str:
    menu = [g for g in GROUP_MENU if make_group(g).order <= caps.max_group_order]
    if not menu:
        return "E"
    return menu[rng.integers(len(menu))]


def _gen_equivariant(caps: SizeCaps, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    A = random_shape(rng, 1, min(2, caps.max_block))
    B = random_shape(rng, 1, min(2, caps.max_block))
    gname = _group_for(caps, rng)
    G = make_group(gname)
    copies = 1 if B.dim >= 4 else 2
    c = random_equivariant(
        A, B, G, seed=np.random.SeedSequence([seed, 17]), copies=copies,
        trivial_beta=bool(rng.integers(4) == 0),
    )
    return {"seed": seed, "group": gname, "correspondence": ser.dump_equivariant(c)}


def _load_correspondence(payload: dict):
    """The payload's correspondence, whose group must be named as the payload's group."""
    c = ser.load_equivariant(payload["correspondence"])
    if (name := c.group.name) != payload["group"]:
        raise ValidationError(f"a correspondence over {name!r} in a {payload['group']!r} payload")
    return c


_EQUIVARIANT_THEOREMS = {
    "system_in": "the input action is a group homomorphism into automorphisms",
    "system_out": "the output action is a group homomorphism into automorphisms",
    "representation": "U is a unitary group homomorphism",
    "twisted_linearity": "U_g is beta_g-linear",
    "pairing_twist": "<U_g x, U_g y> = beta_g(<x, y>)",
    "covariance": "U_g phi(a) = phi(alpha_g(a)) U_g",
    "phi_cp": "averaged map stays completely positive",
    "functor_recovery": "round trip recovers U_g = eta_g V_{beta_g}",
    "functor_unit": "the identity element maps to the identity morphism",
    "functor_composition": "the morphism family composes along the group law",
    "unitary_valued": "the functor is unitary valued",
    "averaging_fixed_point": "covariant averaging is idempotent",
}


def _check_equivariant_suite(payload: dict, tol: Tolerance, memo: BuildMemo):
    c = _load_correspondence(payload)
    yield "system_in", c.system_in.homomorphism_residual(), tol.ctol
    yield "system_out", c.system_out.homomorphism_residual(), tol.ctol
    yield from check_equivariant(c, tol)
    yield "phi_cp", *_cp_certificate(c.phi, tol, memo)[1]
    yield from check_functor_laws(c, correspondence_to_functor(c, tol, memo), tol, memo)
    averaged = average_covariant(c.phi, c.system_in, c.unitaries, c.group)
    yield (
        "averaging_fixed_point",
        max_operator_norm(averaged.images - c.phi.images),
        tol.ctol * (1.0 + c.phi.norm),
    )


_DILATION_THEOREMS = {
    "dilated_representation": "the dilated family is a unitary group homomorphism",
    "dilated_twisted_linearity": "dilated unitaries are beta_g-linear",
    "dilated_pairing_twist": "dilated unitaries twist the pairing by beta_g",
    "dilated_covariance": "pi(alpha_g(a)) U~_g = U~_g pi(a)",
    "reconstruction": "KSGNS dilation identity phi(a) = V* pi(a) V",
    "spanning": "density of pi(A) V E in the dilation space",
    "embedding_equivariance": "V_phi U_g = U~_g V_phi",
    "direct_vs_categorical": "compressed and functorial dilation unitaries agree",
}


def _check_dilation(payload: dict, tol: Tolerance, memo: BuildMemo):
    c = _load_correspondence(payload)
    quad = dilate(c, tol=tol, memo=memo)
    yield from check_dilation(quad, tol)
    yield (
        "direct_vs_categorical",
        max_operator_norm(
            categorical_dilation_unitary(c, tol, memo) - np.stack(quad.unitaries)
        ),
        tol.ctol * (1.0 + c.phi.norm),
    )


# ---------------------------------------------------------------------------
# continuity suite
# ---------------------------------------------------------------------------


CONTINUITY_STEPS = 20  # morphisms on each continuity path


def _gen_continuity(caps: SizeCaps, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    A = random_shape(rng, 1, min(2, caps.max_block))
    B = random_shape(rng, 1, min(2, caps.max_block))
    kind = "linear" if seed % 2 == 0 else "inner"
    if kind == "linear":
        E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, min(caps.max_module_dim, 4))
        basis = intertwiner_space(phi1, phi2, m.alpha, GENERATION_TOL)
        direction = basis[int(rng.integers(len(basis)))]
        path = [
            (m.eta.matrix + 0.1 * 4.0 ** (-k) * direction.matrix, m.alpha)
            for k in range(1, CONTINUITY_STEPS + 1)
        ]
        target = (m.eta.matrix, m.alpha)
    else:
        E1, pi = random_representation(A, B, rng, max_dim=min(caps.max_module_dim, 6))
        E2, phi1, phi2 = E1, pi, pi
        H = random_element(A, rng, hermitian=True)
        path = []
        for k in range(1, CONTINUITY_STEPS + 1):
            eps = 1e-2 * 4.0 ** (-k)
            u_blocks = [herm_expi(eps * blk, GENERATION_TOL) for blk in H.blocks]
            u = AlgebraElement(A, u_blocks)
            path.append((pi(u.coeffs()).matrix, inner_automorphism(A, u_blocks)))
        target = (np.eye(E1.dim, dtype=complex), identity_automorphism(A))
    samples = [
        {
            "x": ser.dump_cmatrix(x.reshape(-1, 1)),
            "a": ser.dump_element(A, a),
        }
        for x, a in zip(
            [
                (rng.standard_normal(E1.dim) + 1j * rng.standard_normal(E1.dim))
                for _ in range(3)
            ],
            random_elements(A, rng, 3),
        )
    ]
    return {
        "seed": seed,
        "kind": kind,
        "input_algebra": ser.dump_shape(A),
        "modules": {"E1": ser.dump_module(E1), "E2": ser.dump_module(E2)},
        "phis": {"phi1": ser.dump_cpmap(phi1, "E1"), "phi2": ser.dump_cpmap(phi2, "E2")},
        "target": _dump_eta_alpha(*target),
        "path": [_dump_eta_alpha(eta, alpha) for eta, alpha in path],
        "samples": samples,
    }


_CONTINUITY_THEOREMS = {
    "input_converges": "morphism path converges in the pseudo-metrics",
    "lifted_final": "lifted path converges in the pseudo-metrics",
    "lifted_monotone": "lifted distances decay monotonically",
    "lifted_bound": "lift is continuous on norm-bounded sets",
}


def _check_continuity(payload: dict, tol: Tolerance, memo: BuildMemo):
    mods = {k: ser.load_module(v) for k, v in payload["modules"].items()}
    E1, E2 = mods["E1"], mods["E2"]
    phi1 = ser.load_cpmap(payload["phis"]["phi1"], mods)
    phi2 = ser.load_cpmap(payload["phis"]["phi2"], mods)
    _drawn_on_input_algebra(payload, phi1, phi2)
    # an inner path runs from one map to itself, a linear one between two maps
    kind = "inner" if phi1.key == phi2.key else "linear"
    if payload["kind"] != kind:
        raise ValidationError(f"a {payload['kind']!r} path between the CP maps of a {kind} one")
    A = phi1.algebra
    # the path's steps, then the target, each section as one stack
    steps = [*payload["path"], payload["target"]]
    etas = ser.load_cmatrices([p["eta"] for p in steps], E2.dim, E1.dim)
    alphas = ser.load_automorphisms([p["alpha"] for p in steps])
    *path, target = (Intertwiner(ModuleMap(E1, E2, eta), a) for eta, a in zip(etas, alphas))
    samples = payload["samples"]
    X = ser.load_cmatrices([s["x"] for s in samples], E1.dim, 1)[..., 0]
    C = ser.load_elements(A, [s["a"] for s in samples])
    t1, t2 = _alone_on_failure(ksgns, [(E1, phi1), (E2, phi2)], tol, memo)
    probe = continuity_probe(
        path, target, t1, t2, X.reshape(-1, E1.dim), C.reshape(-1, A.dim), tol
    )
    yield "input_converges", probe.input_distances[-1], 10.0 * tol.ctol
    yield "lifted_final", probe.lifted_distances[-1], probe.final_gate
    lifted, given = np.array(probe.lifted_distances), np.array(probe.input_distances)
    yield "lifted_monotone", np.diff(lifted).max(initial=0.0), 1e-9
    yield (
        "lifted_bound",
        (lifted - probe.constant * given - probe.final_gate).max(initial=0.0),
        tol.ctol,
    )


# ---------------------------------------------------------------------------
# uniqueness suite
# ---------------------------------------------------------------------------


def _gen_uniqueness(caps: SizeCaps, seed: int) -> dict:
    payload = _gen_equivariant(caps, seed)
    c = ser.load_equivariant(payload["correspondence"])
    tol = GENERATION_TOL
    t = ksgns([c.module], [c.phi], tol, BuildMemo())[0]
    rng = _sub_rng(seed, 23)
    Z = random_blinear_unitary(t.module, rng)
    payload["planted"] = ser.dump_cmatrix(Z.matrix)
    return payload


_UNIQUENESS_THEOREMS = {
    "unitary": "the matching map W is a module unitary",
    "representation_match": "W conjugates pi' to pi",
    "embedding_match": "W V' = V",
    "unitary_family_match": "W conjugates the dilated family U'~ to U~",
    "planted_recovery": "W recovers the inverse of the planted unitary",
}


def _check_uniqueness(payload: dict, tol: Tolerance, memo: BuildMemo):
    c = _load_correspondence(payload)
    quad = dilate(c, tol=tol, memo=memo)
    F = quad.triple.module
    Z = ModuleMap(F, F, ser.load_cmatrix(payload["planted"], F.dim, F.dim))
    quad2 = conjugated_quadruple(quad, Z)
    W, records = uniqueness_unitary(quad, quad2, tol)
    yield from records
    Z_inv = adjoint_map(Z).matrix
    yield "planted_recovery", operator_norm(W.matrix - Z_inv), 10.0 * tol.ctol


# ---------------------------------------------------------------------------
# suite registry and runner
# ---------------------------------------------------------------------------


_SUITES = {  # name: (generator, checker, theorem table), in SUITE_NAMES order
    "ksgns": (_gen_ksgns, _check_ksgns, _KSGNS_THEOREMS),
    "lift": (_gen_lift, _check_lift, _LIFT_THEOREMS),
    "idempotency": (_gen_idempotency, _check_idempotency, _IDEMPOTENCY_THEOREMS),
    "tensor": (_gen_tensor, _check_tensor, _TENSOR_THEOREMS),
    "category": (_gen_category, _check_category, _CATEGORY_THEOREMS),
    "equivariant": (_gen_equivariant, _check_equivariant_suite, _EQUIVARIANT_THEOREMS),
    "dilation": (_gen_equivariant, _check_dilation, _DILATION_THEOREMS),
    "continuity": (_gen_continuity, _check_continuity, _CONTINUITY_THEOREMS),
    "uniqueness": (_gen_uniqueness, _check_uniqueness, _UNIQUENESS_THEOREMS),
}


def generate_instance(suite: str, caps: SizeCaps, seed: int) -> dict:
    return _SUITES[suite][0](caps, seed)


_CONSTRUCTION_THEOREMS = {
    "NotCP": "complete positivity via blockwise Choi matrices",
    "NonLinearMap": "operator images land in the adjointable operators",
    "NotPSD": "pairings have positive semidefinite Gram matrices",
    "SubmoduleViolation": "the null space is invariant under the action",
    "WellDefinednessViolation": "quotient-level maps preserve null spaces",
    "SingularGram": "Hilbert modules have positive definite Gram matrices",
    "NonConvergentInput": "morphism path converges in the pseudo-metrics",
    "SpanningFailure": "density of pi(A) V E in the dilation space",
}


def check_instance(suite: str, payload: dict, tol: Tolerance) -> list[CheckRecord]:
    """Run one instance's checks and record the named residuals its checker
    yields, each timed since the previous record, under the theorems of the
    suite's table.  Each check must be declared there after the previous
    record's (declared checks may be skipped); one that is not raises
    ValueError naming it.  Any exception ends the instance as one failing
    `construction` record after the records made before it.  Every build goes
    through one BuildMemo, so each tensor module, KSGNS triple and composite
    is built once per instance; the memo is dropped on return."""
    _, checker, theorems = _SUITES[suite]
    seed, records = payload.get("seed", 0), []
    pending = iter(theorems.items())  # the table after the last record's check
    mark = time.perf_counter()
    try:
        for check, residual, threshold in checker(payload, tol, BuildMemo()):
            theorem = next((t for name, t in pending if name == check), None)
            if theorem is None:
                fault = "out of order in" if check in theorems else "not declared by"
                raise ValueError(f"check {check!r} is {fault} the {suite} suite's table")
            residual, threshold, now = float(residual), float(threshold), time.perf_counter()
            records.append(CheckRecord(
                suite, seed, check, theorem, residual, threshold, residual <= threshold, now - mark
            ))
            mark = now
    except Exception as exc:  # never abort the suite
        theorem = _CONSTRUCTION_THEOREMS.get(
            type(exc).__name__, "instance construction and validation"
        )
        records.append(CheckRecord(
            suite, seed, "construction", theorem, float("inf"), 0.0, False,
            time.perf_counter() - mark, f"{type(exc).__name__}: {exc}",
        ))
    return records


# Payloads store planted unitaries and morphism matrices in the quotient
# coordinates of the tensors their generator built, so a file checks clean only
# under the quotient bases it was generated with.  Version 2: the canonical bases
# I_{n_t} (x) V_t of every tensor along an algebra over itself; files written
# before carry no version.
BASIS_VERSION = 2


def _instances(config: SuiteConfig, suite: str) -> list[dict]:
    """The suite's payloads for the config's master seed and caps, in index order."""
    return [
        generate_instance(suite, config.caps, instance_seed(config.seed, suite, idx))
        for idx in range(config.caps.instances_per_suite)
    ]


def generate(config: SuiteConfig, out_dir: str) -> list[str]:
    """Write one instance file per enabled suite, stamped with BASIS_VERSION;
    deterministic per seed."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for suite in config.suites:
        doc = {
            "suite": suite,
            "master_seed": config.seed,
            "basis_version": BASIS_VERSION,
            "caps": asdict(config.caps),
            "instances": _instances(config, suite),
        }
        path = os.path.join(out_dir, f"{suite}.json")
        with open(path, "w") as fh:
            fh.write(ser.dumps(doc))
            fh.write("\n")
        paths.append(path)
    return paths


def _load_suite_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict) or "suite" not in doc or "instances" not in doc:
        raise ParseError(f"{path} is not a suite instance file")
    if not isinstance(doc["instances"], list) or not all(
        isinstance(payload, dict) for payload in doc["instances"]
    ):
        raise ParseError(f"{path}: instances must be a list of instance objects")
    if doc.get("basis_version") != BASIS_VERSION:
        raise ParseError(
            f"{path} has basis version {doc.get('basis_version')!r}, not {BASIS_VERSION}: "
            "generate it again with `verify gen`"
        )
    return doc


def _run_one(args: tuple[str, dict, Tolerance]) -> list[CheckRecord]:
    suite, payload, tol = args
    return check_instance(suite, payload, tol)


# residuals can differ in their last bits between BLAS thread counts
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run(config: SuiteConfig, instance_dir: str | None = None) -> Report:
    """Execute every enabled suite from files or regenerated instances.  The
    report's config is the suite config plus the BLAS thread settings of the
    environment (None where unset)."""
    tasks: list[tuple[str, dict, Tolerance]] = []
    for suite in config.suites:
        if instance_dir is not None:
            path = os.path.join(instance_dir, f"{suite}.json")
            if not os.path.exists(path):
                continue
            doc = _load_suite_file(path)
            if doc["suite"] != suite:
                raise ParseError(f"{path} holds {doc['suite']!r} instances, not {suite!r}")
            payloads = doc["instances"]
        else:
            payloads = _instances(config, suite)
        for payload in payloads:
            tasks.append((suite, payload, config.tolerance))
    if instance_dir is not None and not tasks:  # a report of nothing would pass vacuously
        raise ParseError(f"{instance_dir} holds no instances of the suites {list(config.suites)}")
    if config.jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(task) for task in tasks]
    records = [r for chunk in results for r in chunk]
    blas_threads = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    return Report({**asdict(config), "blas_threads": blas_threads}, records)


def report_emit(report: Report, fmt: str = "text") -> str:
    """Serialize a report; text is a sorted human-readable table."""
    if fmt == "json":
        return ser.dumps(report.to_json()) + "\n"
    if fmt != "text":
        raise InvalidConfig(f"unknown report format {fmt!r}")
    lines = []
    header = f"{'status':6}  {'suite':12} {'check':28} {'residual':>12} {'threshold':>12}  theorem"
    lines.append(header)
    lines.append("-" * len(header))
    for r in sorted(report.records, key=lambda r: (r.suite, r.check, r.instance_seed)):
        status = "PASS" if r.passed else "FAIL"
        resid = f"{r.residual:.3e}" if np.isfinite(r.residual) else "inf"
        lines.append(
            f"{status:6}  {r.suite:12} {r.check:28} {resid:>12} {r.threshold:>12.3e}  {r.theorem}"
            + (f"  [{r.error}]" if r.error else "")
        )
    lines.append("-" * len(header))
    lines.append(
        f"total {report.total}  passed {report.passed}  failed {report.total - report.passed}"
        f"  max residual {report.max_residual:.3e}"
    )
    return "\n".join(lines) + "\n"


