"""Suite runner: deterministic instance generation, check execution, reports.

Per-instance seeds derive from the master seed through a counter-based
SeedSequence split, so suites reproduce under reordering and a regenerated
instance is bit-identical to its serialized form.  A failing instance never
aborts a suite: exceptions become failing records and every remaining check
still runs.  Thresholds scale as ctol * (1 + instance scale) where the scale
is a product of the participating operator norms.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

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
    identity_automorphism,
    inner_automorphism,
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
from .errors import (
    InvalidConfig,
    KsgnslabError,
    NonConvergentInput,
    ParseError,
)
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
    idempotency_unitary,
    ksgns,
    ksgns_lift,
    ksgns_once,
    triple_uniqueness_unitary,
)
from .memo import BuildMemo
from .numkernel import DEFAULT_TOL, Tolerance, herm_expi, max_operator_norm, operator_norm
from .poscor import (
    PosCorObject,
    balanced_relation_residual,
    check_category_laws,
    check_commuting_unitary,
    check_poscor_morphism,
    commuting_unitary,
    composition_unitary,
    idempotency_iso_poscor,
    inclusion_unitary,
    interior_tensor,
    interior_tensor_along,
    ksgns_functor_poscor,
    make_poscor_morphism,
    morphism_distance,
    poscor_compose,
    poscor_identity,
    tensor_extend_between,
    tensor_extend_cpmap,
    tensor_functor_morphism,
    tensor_once,
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
    if name == "S3":
        return symmetric_group(3)
    if name == "E":
        return trivial_group()
    if name.startswith("Z"):
        return cyclic_group(int(name[1:]))
    raise InvalidConfig(f"unknown group {name!r}")


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

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "tolerance": {"rtol": self.tolerance.rtol, "ctol": self.tolerance.ctol},
            "caps": asdict(self.caps),
            "suites": list(self.suites),
            "jobs": self.jobs,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SuiteConfig":
        return cls(
            seed=int(data["seed"]),
            tolerance=Tolerance(**data["tolerance"]),
            caps=SizeCaps(**data["caps"]),
            suites=tuple(data["suites"]),
            jobs=int(data.get("jobs", 1)),
        )


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

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "instance_seed": self.instance_seed,
            "check": self.check,
            "theorem": self.theorem,
            "residual": None if not np.isfinite(self.residual) else float(self.residual),
            "threshold": float(self.threshold),
            "passed": bool(self.passed),
            "wall_time": float(self.wall_time),
            "error": self.error,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CheckRecord":
        residual = data["residual"]
        return cls(
            suite=data["suite"],
            instance_seed=int(data["instance_seed"]),
            check=data["check"],
            theorem=data["theorem"],
            residual=float("inf") if residual is None else float(residual),
            threshold=float(data["threshold"]),
            passed=bool(data["passed"]),
            wall_time=float(data["wall_time"]),
            error=data.get("error", ""),
        )


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
        return {
            "config": self.config,
            "records": [r.to_json() for r in self.records],
            "summary": {
                "total": self.total,
                "passed": self.passed,
                "failed": self.total - self.passed,
                "max_residual": self.max_residual,
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "Report":
        return cls(
            config=data["config"],
            records=[CheckRecord.from_json(r) for r in data["records"]],
        )


class _Recorder:
    """Collects timed check records for one instance."""

    def __init__(self, suite: str, seed: int, tol: Tolerance):
        self.suite = suite
        self.seed = seed
        self.tol = tol
        self.records: list[CheckRecord] = []
        self._mark = time.perf_counter()

    def _elapsed(self) -> float:
        now = time.perf_counter()
        dt, self._mark = now - self._mark, now
        return dt

    def add(self, check: str, theorem: str, residual: float, threshold: float) -> None:
        residual = float(residual)
        self.records.append(
            CheckRecord(
                self.suite,
                self.seed,
                check,
                theorem,
                residual,
                float(threshold),
                bool(residual <= threshold),
                self._elapsed(),
            )
        )

    def merge(self, report, names: dict[str, tuple[str, str]]) -> None:
        """Pull named residuals out of a CheckReport with anchor labels.  A
        name the report lacks raises KeyError, so the instance fails."""
        for key, (check, theorem) in names.items():
            self.add(check, theorem, report.residuals[key], report.thresholds[key])

    def fail(self, check: str, theorem: str, error: Exception) -> None:
        self.records.append(
            CheckRecord(
                self.suite,
                self.seed,
                check,
                theorem,
                float("inf"),
                0.0,
                False,
                self._elapsed(),
                error=f"{type(error).__name__}: {error}",
            )
        )


def _record_cp(rec: _Recorder, check: str, theorem: str, phi: CPMap, tol: Tolerance) -> bool:
    """Record the Choi certificate of phi: the most negative Choi eigenvalue when
    check_cp passes, inf whenever it fails.  Returns the verdict."""
    ok, mins = check_cp(phi, tol)
    resid = max(0.0, -min(mins)) if ok else float("inf")
    rec.add(check, theorem, resid, tol.ctol * (1.0 + phi.norm))
    return ok


def _sub_rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


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


def _check_ksgns(payload: dict, tol: Tolerance, rec: _Recorder, memo: BuildMemo) -> None:
    E = ser.load_module(payload["module"])
    phi = ser.load_cpmap(payload["phi"], {"module": E})
    rec.add(
        "input_hermitian",
        "positive maps preserve adjoints",
        phi.hermiticity_residual(),
        tol.ctol * (1.0 + phi.norm),
    )
    cp_theorem = "complete positivity via blockwise Choi matrices"
    try:
        ok = _record_cp(rec, "input_cp", cp_theorem, phi, tol)
    except KsgnslabError as exc:
        rec.fail("input_cp", cp_theorem, exc)
        return
    if not ok:
        return
    t = ksgns_once(E, phi, tol, memo)
    rep = check_triple(t, tol)
    rec.merge(
        rep,
        {
            "reconstruction": (
                "reconstruction",
                "KSGNS dilation identity phi(a) = V* pi(a) V",
            ),
            "spanning_defect": (
                "spanning",
                "density of pi(A) V E in the dilation space",
            ),
            "embedding_adjoint_formula": (
                "embedding_adjoint",
                "embedding adjoint formula V*[a (x) y] = phi(a) y",
            ),
            "pi_multiplicativity": (
                "pi_multiplicative",
                "dilated representation is a *-homomorphism",
            ),
            "pi_unitality": (
                "pi_unital",
                "dilated representation is unital (nondegenerate)",
            ),
        },
    )
    rng = _sub_rng(payload["seed"], 1)
    Z = random_blinear_unitary(t.module, rng)
    t2 = conjugated_triple(t, Z)
    U, repu = triple_uniqueness_unitary(t, t2, tol)
    rec.merge(
        repu,
        {
            "unitary": ("uniqueness_unitary", "KSGNS triple unique up to a module unitary"),
            "embedding_match": ("uniqueness_embedding", "matching unitary carries V to V'"),
            "representation_match": (
                "uniqueness_representation",
                "matching unitary conjugates pi to pi'",
            ),
        },
    )
    rec.add(
        "uniqueness_planted",
        "solved unitary recovers the planted conjugation",
        operator_norm(U.matrix - Z.matrix),
        tol.ctol * (1.0 + phi.norm),
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
    E3, phi3, m2 = extend_morphism(E2, phi2, rng)
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
    """Modules, CP maps and intertwiners of a _bundle payload, each by name."""
    mods = {k: ser.load_module(v) for k, v in payload["modules"].items()}
    phis = {k: ser.load_cpmap(v, mods) for k, v in payload["phis"].items()}
    morphs = {
        k: Intertwiner(ser.load_module_map(v["eta"], mods), ser.load_automorphism(v["alpha"]))
        for k, v in payload["morphisms"].items()
    }
    return mods, phis, morphs


def _family_bound_residual(
    phi: CPMap, m: Intertwiner, rng: np.random.Generator, families: int = 2
) -> tuple[float, float]:
    """Worst slack in the quadratic-family inequality, with its scale."""
    E = phi.module
    eta = m.eta
    gram = adjoint_map(eta).matrix @ eta.matrix
    norm2 = m.norm**2
    worst, scale = 0.0, 1.0
    for _ in range(families):
        n = int(rng.integers(1, 5))
        xs = random_vectors(E, rng, n)
        elts = random_elements(phi.algebra, rng, n)
        lhs = rhs = None
        for i in range(n):
            for j in range(n):
                a = elts[i].star() * elts[j]
                img = phi(a).matrix
                term_r = E.pair(xs[i], img @ xs[j])
                term_l = E.pair(xs[i], img @ (gram @ xs[j]))
                lhs = term_l if lhs is None else lhs + term_l
                rhs = term_r if rhs is None else rhs + term_r
        slack = lhs.norm() - norm2 * rhs.norm()
        worst = max(worst, slack)
        scale = max(scale, norm2 * (1.0 + rhs.norm()))
    return worst, scale


def _check_lift(payload: dict, tol: Tolerance, rec: _Recorder, memo: BuildMemo) -> None:
    mods, phis, morphs = _load_bundle(payload)
    E1, E2, E3 = mods["E1"], mods["E2"], mods["E3"]
    phi1, phi2, phi3 = phis["phi1"], phis["phi2"], phis["phi3"]
    m1, m2 = morphs["m1"], morphs["m2"]
    rng = _sub_rng(payload["seed"], 2)

    rep = check_morphism(m1, phi1, phi2, tol)
    rec.merge(
        rep,
        {
            "intertwining": ("morphism", "intertwiner condition with automorphism twist"),
            "adjoint_intertwining": (
                "morphism_adjoint",
                "adjoint side: eta* phi2(alpha(a)) = phi1(a) eta*",
            ),
            "gram_commutation": (
                "morphism_commutant",
                "phi1(a) commutes with eta* eta",
            ),
        },
    )
    worst, scale = _family_bound_residual(phi1, m1, rng)
    rec.add(
        "family_bound",
        "quadratic-family norm bound for intertwiners",
        worst,
        tol.ctol * scale,
    )
    # positivity sandwich on a sampled a* a
    a = random_element(phi1.algebra, rng)
    pos = phi1(a.star() * a).matrix
    gram = adjoint_map(m1.eta).matrix @ m1.eta.matrix
    lower_ok, lower_eig = is_map_positive(ModuleMap(E1, E1, pos @ gram), tol)
    upper_ok, upper_eig = is_map_positive(
        ModuleMap(E1, E1, m1.norm**2 * pos - pos @ gram), tol
    )
    sandwich_scale = tol.ctol * (1.0 + phi1.norm * (1.0 + a.norm() ** 2) * (1.0 + m1.norm**2))
    rec.add(
        "positivity_lower",
        "0 <= phi(a* a) eta* eta",
        max(0.0, -lower_eig),
        sandwich_scale,
    )
    rec.add(
        "positivity_upper",
        "phi(a* a) eta* eta <= ||eta||^2 phi(a* a)",
        max(0.0, -upper_eig),
        sandwich_scale,
    )

    t1 = ksgns_once(E1, phi1, tol, memo)
    t2 = ksgns_once(E2, phi2, tol, memo)
    t3 = ksgns_once(E3, phi3, tol, memo)
    leak, gate = null_leak(t2.q, np.kron(m1.alpha.matrix, m1.eta.matrix), t1.kernel, tol)
    rec.add(
        "lift_well_defined",
        "alpha (x) eta maps null vectors to null vectors",
        leak,
        gate,
    )
    lifted1 = ksgns_lift(m1, t1, t2, tol)
    rep = check_lift(m1, lifted1, t1, t2, tol)
    rec.merge(
        rep,
        {
            "contraction": ("lift_contraction", "lift norm bound ||eta~|| <= ||eta||"),
            "adjoint_formula": (
                "lift_adjoint",
                "lift adjoint acts through alpha inverse",
            ),
            "pi_intertwining": (
                "lift_morphism",
                "lifted pair intertwines the dilated representations",
            ),
            "embedding_compat": (
                "lift_embedding",
                "lift intertwines the embeddings: eta~ V1 = V2 eta",
            ),
        },
    )
    ident = Intertwiner(identity_map(E1), identity_automorphism(phi1.algebra))
    lift_id = ksgns_lift(ident, t1, t1, tol)
    rec.add(
        "functor_identity",
        "KSGNS endofunctor preserves identities",
        operator_norm(lift_id.eta.matrix - np.eye(t1.module.dim)),
        tol.ctol,
    )
    lifted2 = ksgns_lift(m2, t2, t3, tol)
    lifted21 = ksgns_lift(compose_intertwiners(m2, m1), t1, t3, tol)
    rec.add(
        "functor_composition",
        "KSGNS endofunctor preserves composition",
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


def _check_idempotency(payload: dict, tol: Tolerance, rec: _Recorder, memo: BuildMemo) -> None:
    mods, phis, morphs = _load_bundle(payload)
    m = morphs["m"]
    t1 = ksgns_once(mods["E1"], phis["phi1"], tol, memo)
    t2 = ksgns_once(mods["E2"], phis["phi2"], tol, memo)
    idem1 = idempotency_unitary(t1, tol, memo)
    idem2 = idempotency_unitary(t2, tol, memo)
    rep = check_idempotency(idem1, t1, tol)
    rec.merge(
        rep,
        {
            "unitary": ("unitary", "second embedding V_pi is unitary"),
            "dim_match": ("dim_stable", "second dilation has the same dimension"),
            "intertwines": ("intertwines", "V_pi intertwines pi and its dilation"),
        },
    )
    lifted = ksgns_lift(m, t1, t2, tol)
    double = ksgns_lift(lifted, idem1.second, idem2.second, tol)
    rec.add(
        "naturality",
        "idempotency naturality square V_pi eta~ = eta~~ V_pi",
        operator_norm(
            idem2.unitary.matrix @ lifted.eta.matrix
            - double.eta.matrix @ idem1.unitary.matrix
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
        if interior_tensor(E1, F, pi).module.dim > 0:
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


def _check_tensor(payload: dict, tol: Tolerance, rec: _Recorder, memo: BuildMemo) -> None:
    mods, phis, morphs = _load_bundle(payload)
    E1, E2, F = mods["E1"], mods["E2"], mods["F"]
    phi1, phi2, pi = phis["phi1"], phis["phi2"], phis["pi"]
    m = morphs["m"]
    rho1 = ser.load_star_map(payload["star_maps"]["rho1"])
    rho2 = ser.load_star_map(payload["star_maps"]["rho2"])
    rho3 = ser.load_star_map(payload["star_maps"]["rho3"])
    rng = _sub_rng(payload["seed"], 3)
    tm1 = tensor_once(E1, F, pi, tol, memo)
    tm2 = tensor_once(E2, F, pi, tol, memo)
    rec.add(
        "balanced",
        "balanced relation x b (x) y = x (x) pi(b) y",
        balanced_relation_residual(tm1, rng),
        tol.ctol * (1.0 + operator_norm(tm1.module.gram_matrix)),
    )
    T = random_blinear_unitary(E1, rng)
    S = random_blinear_unitary(E1, rng)
    # T (x) I, S (x) I, T* (x) I and (S T) (x) I as one stack
    stack = np.stack([T.matrix, S.matrix, adjoint_map(T).matrix, S.matrix @ T.matrix])
    TI, SI, TsI, STI = tensor_extend(stack, tm1, tm1, "T (x) I", tol)
    TI = ModuleMap(tm1.module, tm1.module, TI)
    rec.add(
        "extend_unitary",
        "tensor extension preserves unitaries",
        unitarity_residual(TI),
        tol.ctol,
    )
    rec.add(
        "extend_adjoint",
        "(T (x) I)* = T* (x) I",
        operator_norm(adjoint_map(TI).matrix - TsI),
        tol.ctol,
    )
    rec.add(
        "extend_multiplicative",
        "(S T) (x) I = (S (x) I)(T (x) I)",
        operator_norm(STI - SI @ TI.matrix),
        tol.ctol,
    )
    rec.add(
        "extend_norm",
        "||T (x) I|| <= ||T||",
        max(
            0.0,
            module_operator_norm(TI) - module_operator_norm(T),
        ),
        tol.ctol,
    )
    m_hat = tensor_functor_morphism(m, tm1, tm2, tol)
    phi1_ext = tensor_extend_cpmap(phi1, tm1, tol, memo)
    phi2_ext = tensor_extend_cpmap(phi2, tm2, tol, memo)
    rep = check_morphism(m_hat, phi1_ext, phi2_ext, tol)
    rec.add(
        "functor_morphism",
        "tensored pair intertwines the extended maps",
        *rep.summary(),
    )
    rec.add(
        "functor_norm",
        "||eta (x) I|| <= ||eta||",
        max(0.0, m_hat.norm - m.norm),
        tol.ctol,
    )
    # inclusion
    inc1 = inclusion_unitary(E1, tol, memo)
    inc2 = inclusion_unitary(E2, tol, memo)
    rec.add(
        "inclusion_unitary",
        "inclusion x (x) b -> x b is unitary",
        unitarity_residual(inc1.iota),
        tol.ctol,
    )
    eta_inc = tensor_extend_between(m.eta, inc1.tensor, inc2.tensor, tol)
    rec.add(
        "inclusion_naturality",
        "tensoring with B along the inclusion is naturally trivial",
        operator_norm(
            inc2.iota.matrix @ eta_inc.matrix - m.eta.matrix @ inc1.iota.matrix
        ),
        tol.ctol * (1.0 + m.norm),
    )
    v_inc = v_rho(inc1.tensor)
    rec.add(
        "inclusion_vrho",
        "V_inc is the adjoint of the inclusion unitary",
        operator_norm(v_inc - adjoint_map(inc1.iota).matrix),
        tol.ctol,
    )
    # composition of tensorings
    tm12 = interior_tensor_along(E1, rho1, tol, memo)
    comp = composition_unitary(tm12, rho1, rho2, tol, memo)
    rec.add(
        "composition_unitary",
        "iterated tensoring composes: (x (x) c) (x) d -> x (x) rho(c) d",
        unitarity_residual(comp.unitary),
        tol.ctol,
    )
    # pentagon over three star maps, all into one shared final module: V1
    # lives along U1's sigma = (rho3 rho2) rho1, not along rho3 (rho2 rho1)
    U2 = composition_unitary(comp.double, rho2, rho3, tol, memo)
    U1 = composition_unitary(comp.inner, rho1, U2.rho, tol, memo)
    V1 = composition_unitary(comp.target, comp.rho, rho3, tol, memo, U1.rho)
    V2_hat = tensor_extend_between(comp.unitary, U2.double, V1.double, tol)
    rec.add(
        "pentagon",
        "coherence pentagon U1 U2 = V1 (V2 (x) I)",
        operator_norm(
            U1.unitary.matrix @ U2.unitary.matrix
            - V1.unitary.matrix @ V2_hat.matrix
        ),
        tol.ctol,
    )
    rec.add(
        "composition_dims",
        "iterated and composed tensors have equal dimension",
        float(comp.double.module.dim - comp.target.module.dim),
        0.0,
    )
    # vrho behavior
    vr1 = v_rho(comp.inner)
    x_samples = random_vectors(E1, rng, 4)
    contraction = max(
        max(0.0, comp.inner.module.vector_norm(vr1 @ x) - E1.vector_norm(x))
        for x in x_samples
    )
    rec.add("vrho_contraction", "V_rho is a contraction", contraction, tol.ctol)
    rho_actions = np.einsum("qp,qij->pij", rho1.matrix, comp.inner.module.action)
    rec.add(
        "vrho_twisted",
        "V_rho(x b) = V_rho(x) . rho(b)",
        max_operator_norm(vr1 @ E1.action - rho_actions @ vr1),
        tol.ctol,
    )
    vr2 = v_rho(comp.double)
    vr12 = v_rho(comp.target)
    rec.add(
        "vrho_chain",
        "U . V_chi . V_rho = V_{chi rho}",
        operator_norm(comp.unitary.matrix @ vr2 @ vr1 - vr12),
        tol.ctol,
    )
    # square: (eta (x) I) . V'_chi = V_chi . eta for eta out of a tensor module
    E2p, Sp = scramble_module(comp.inner.module, rng)
    eta_sq = ModuleMap(comp.inner.module, E2p, np.linalg.inv(Sp))
    tm_sq = interior_tensor_along(E2p, rho2, tol, memo)
    eta_sq_hat = tensor_extend_between(eta_sq, comp.double, tm_sq, tol)
    vr_sq = v_rho(tm_sq)
    rec.add(
        "vrho_square",
        "(eta (x) I) . V'_chi = V_chi . eta",
        operator_norm(eta_sq_hat.matrix @ vr2 - vr_sq @ eta_sq.matrix),
        tol.ctol * (1.0 + module_operator_norm(eta_sq)),
    )
    # KSGNS commutes with tensoring
    cu1 = commuting_unitary(phi1, tm1, tol, memo)
    cu2 = commuting_unitary(phi2, tm2, tol, memo)
    rep = check_commuting_unitary(cu1, tol)
    rec.add(
        "commuting_unitary",
        "KSGNS commutes with tensoring: coordinate unitary",
        *rep.summary(),
    )
    lifted = ksgns_lift(m, cu1.triple, cu2.triple, tol)
    lifted_hat = tensor_extend_between(lifted.eta, cu1.right, cu2.right, tol)
    hat_lifted = ksgns_lift(m_hat, cu1.left, cu2.left, tol)
    rec.add(
        "commuting_naturality",
        "KSGNS/tensor commuting square is natural",
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
    tol, memo = DEFAULT_TOL, BuildMemo()
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
                "eta": ser.dump_cmatrix(m.eta.matrix),
                "alpha": ser.dump_automorphism(m.alpha),
            }
            for dom, cod, m in morphisms
        ],
        "checks": ["laws", "ksgns_functor"] if deep else ["laws"],
    }


def _sibling_morphism(m, rng: np.random.Generator, tol: Tolerance, memo: BuildMemo):
    """Second morphism parallel to m: same rho and alpha, eta drawn from the
    solved intertwiner space."""
    eta, norm = random_intertwiner(m.phi_ext, m.cod.phi, m.alpha, rng, tol)
    mat = eta.matrix
    if norm <= 1e-9:
        mat, norm = m.eta.matrix, 1.0
    eta = ModuleMap(m.eta.source, m.cod.module, mat / norm)
    return make_poscor_morphism(m.dom, m.cod, m.rho, eta, m.alpha, tol, memo)


def _load_category(payload: dict, tol: Tolerance, memo: BuildMemo):
    A = ser.load_shape(payload["input_algebra"])
    objects = []
    by_ident = {}
    for odata in payload["objects"]:
        module = ser.load_module(odata["module"])
        phi = ser.load_cpmap(odata["phi"], {odata["ident"]: module})
        obj = PosCorObject(odata["ident"], A, module.algebra, module, phi)
        objects.append(obj)
        by_ident[obj.ident] = obj
    morphisms = []
    for mdata in payload["morphisms"]:
        dom, cod = by_ident[mdata["dom"]], by_ident[mdata["cod"]]
        rho = ser.load_star_map(mdata["rho"])
        tensor = interior_tensor_along(dom.module, rho, tol, memo)
        eta = ser.load_cmatrix(mdata["eta"], cod.module.dim, tensor.module.dim)
        alpha = ser.load_automorphism(mdata["alpha"])
        eta_map = ModuleMap(tensor.module, cod.module, eta)
        morphisms.append(make_poscor_morphism(dom, cod, rho, eta_map, alpha, tol, memo))
    return objects, morphisms


def _check_category(payload: dict, tol: Tolerance, rec: _Recorder, memo: BuildMemo) -> None:
    objects, morphisms = _load_category(payload, tol, memo)
    reports = (check_poscor_morphism(m, tol) for m in morphisms)
    failing = next((rep for rep in reports if not rep.passed), None)
    rec.add(
        "morphism_invariants",
        "category morphisms: unital rho and twisted intertwining",
        *(failing.summary() if failing is not None else (0.0, tol.ctol)),
    )
    rep = check_category_laws(objects, morphisms, tol, memo)
    rec.merge(
        rep,
        {
            "left_identity": (
                "left_identity",
                "the inclusion pair is a left identity",
            ),
            "right_identity": (
                "right_identity",
                "the inclusion pair is a right identity",
            ),
            "associativity": ("associativity", "composition is associative"),
            "composition_closure": (
                "closure",
                "composites satisfy the morphism invariants",
            ),
        },
    )
    if "ksgns_functor" not in payload.get("checks", []):
        return
    # KSGNS endofunctor laws on the category, on one composable pair
    m1 = next(m for m in morphisms if m.dom.ident == "O1" and m.cod.ident == "O2")
    m2 = next(m for m in morphisms if m.dom.ident == "O2" and m.cod.ident == "O3")
    k1 = ksgns_functor_poscor(m1, tol, memo)
    k2 = ksgns_functor_poscor(m2, tol, memo)
    rep = check_poscor_morphism(k1, tol)
    rec.add(
        "ksgns_morphism",
        "the dilated pair is again a category morphism",
        *rep.summary(),
    )
    k_id = ksgns_functor_poscor(poscor_identity(objects[0], tol, memo), tol, memo)
    rec.add(
        "ksgns_identity",
        "KSGNS functor preserves category identities",
        morphism_distance(k_id, poscor_identity(k_id.dom, tol, memo)),
        tol.ctol,
    )
    k21 = ksgns_functor_poscor(poscor_compose(m2, m1, tol, memo), tol, memo)
    rec.add(
        "ksgns_composition",
        "KSGNS functor preserves category composition",
        morphism_distance(k21, poscor_compose(k2, k1, tol, memo)),
        tol.ctol * (1.0 + m1.norm * m2.norm),
    )
    # idempotency as a natural isomorphism on the category
    kk1 = ksgns_functor_poscor(k1, tol, memo)
    iso1 = idempotency_iso_poscor(objects[0], tol, memo)
    iso2 = idempotency_iso_poscor(objects[1], tol, memo)
    rec.add(
        "ksgns_idempotent",
        "KSGNS squared is naturally isomorphic to KSGNS",
        morphism_distance(
            poscor_compose(iso2, k1, tol, memo), poscor_compose(kk1, iso1, tol, memo)
        ),
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
        A, B, G, seed=np.random.SeedSequence([seed, 17]),
        max_group_order=caps.max_group_order, copies=copies,
        trivial_beta=bool(rng.integers(4) == 0),
    )
    return {"seed": seed, "group": gname, "correspondence": ser.dump_equivariant(c)}


def _check_equivariant_suite(
    payload: dict, tol: Tolerance, rec: _Recorder, memo: BuildMemo
) -> None:
    c = ser.load_equivariant(payload["correspondence"])
    rec.add(
        "system_in",
        "the input action is a group homomorphism into automorphisms",
        c.system_in.homomorphism_residual(),
        tol.ctol,
    )
    rec.add(
        "system_out",
        "the output action is a group homomorphism into automorphisms",
        c.system_out.homomorphism_residual(),
        tol.ctol,
    )
    rep = check_equivariant(c, tol)
    rec.merge(
        rep,
        {
            "representation": ("representation", "U is a unitary group homomorphism"),
            "twisted_linearity": ("twisted_linearity", "U_g is beta_g-linear"),
            "pairing_twist": ("pairing_twist", "<U_g x, U_g y> = beta_g(<x, y>)"),
            "covariance": ("covariance", "U_g phi(a) = phi(alpha_g(a)) U_g"),
        },
    )
    _record_cp(rec, "phi_cp", "averaged map stays completely positive", c.phi, tol)
    functor = correspondence_to_functor(c, tol, memo)
    frep = check_functor_laws(c, functor, tol, memo)
    rec.merge(
        frep,
        {
            "unitary_recovery": (
                "functor_recovery",
                "round trip recovers U_g = eta_g V_{beta_g}",
            ),
            "unit_law": ("functor_unit", "the identity element maps to the identity morphism"),
            "composition_law": (
                "functor_composition",
                "the morphism family composes along the group law",
            ),
            "unitary_valued": ("unitary_valued", "the functor is unitary valued"),
        },
    )
    averaged = average_covariant(c.phi, c.system_in, c.unitaries, c.group)
    rec.add(
        "averaging_fixed_point",
        "covariant averaging is idempotent",
        max_operator_norm(averaged.images - c.phi.images),
        tol.ctol * (1.0 + c.phi.norm),
    )


def _check_dilation(payload: dict, tol: Tolerance, rec: _Recorder, memo: BuildMemo) -> None:
    c = ser.load_equivariant(payload["correspondence"])
    quad = dilate(c, tol=tol, memo=memo)
    rep = check_dilation(quad, tol)
    rec.merge(
        rep,
        {
            "dilated_representation": (
                "dilated_representation",
                "the dilated family is a unitary group homomorphism",
            ),
            "dilated_twisted_linearity": (
                "dilated_twisted_linearity",
                "dilated unitaries are beta_g-linear",
            ),
            "dilated_pairing_twist": (
                "dilated_pairing_twist",
                "dilated unitaries twist the pairing by beta_g",
            ),
            "dilated_covariance": (
                "dilated_covariance",
                "pi(alpha_g(a)) U~_g = U~_g pi(a)",
            ),
            "triple_reconstruction": (
                "reconstruction",
                "KSGNS dilation identity phi(a) = V* pi(a) V",
            ),
            "triple_spanning_defect": (
                "spanning",
                "density of pi(A) V E in the dilation space",
            ),
            "embedding_equivariance": (
                "embedding_equivariance",
                "V_phi U_g = U~_g V_phi",
            ),
        },
    )
    worst = 0.0
    for g in range(c.group.order):
        cat = categorical_dilation_unitary(c, quad, g, tol, memo)
        worst = max(worst, operator_norm(cat - quad.unitaries[g]))
    rec.add(
        "direct_vs_categorical",
        "compressed and functorial dilation unitaries agree",
        worst,
        tol.ctol * (1.0 + c.phi.norm),
    )


# ---------------------------------------------------------------------------
# continuity suite
# ---------------------------------------------------------------------------


def _gen_continuity(caps: SizeCaps, seed: int, steps: int = 20) -> dict:
    rng = np.random.default_rng(seed)
    A = random_shape(rng, 1, min(2, caps.max_block))
    B = random_shape(rng, 1, min(2, caps.max_block))
    kind = "linear" if seed % 2 == 0 else "inner"
    if kind == "linear":
        E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, min(caps.max_module_dim, 4))
        basis = intertwiner_space(phi1, phi2, m.alpha)
        direction = basis[int(rng.integers(len(basis)))]
        path = []
        for k in range(1, steps + 1):
            eps = 0.1 * 4.0 ** (-k)
            path.append(
                {
                    "eta": ser.dump_cmatrix(m.eta.matrix + eps * direction.matrix),
                    "alpha": ser.dump_automorphism(m.alpha),
                }
            )
        target = {
            "eta": ser.dump_cmatrix(m.eta.matrix),
            "alpha": ser.dump_automorphism(m.alpha),
        }
        mod_payload = {
            "E1": ser.dump_module(E1),
            "E2": ser.dump_module(E2),
        }
        phi_payload = {
            "phi1": ser.dump_cpmap(phi1, "E1"),
            "phi2": ser.dump_cpmap(phi2, "E2"),
        }
    else:
        F, pi = random_representation(A, B, rng, max_dim=min(caps.max_module_dim, 6))
        H = random_element(A, rng, hermitian=True)
        path = []
        for k in range(1, steps + 1):
            eps = 1e-2 * 4.0 ** (-k)
            u_blocks = [herm_expi(eps * blk) for blk in H.blocks]
            u = AlgebraElement(A, u_blocks)
            alpha_k = inner_automorphism(A, u_blocks)
            path.append(
                {
                    "eta": ser.dump_cmatrix(pi(u).matrix),
                    "alpha": ser.dump_automorphism(alpha_k),
                }
            )
        target = {
            "eta": ser.dump_cmatrix(np.eye(F.dim, dtype=complex)),
            "alpha": ser.dump_automorphism(identity_automorphism(A)),
        }
        mod_payload = {"E1": ser.dump_module(F), "E2": ser.dump_module(F)}
        phi_payload = {
            "phi1": ser.dump_cpmap(pi, "E1"),
            "phi2": ser.dump_cpmap(pi, "E2"),
        }
    E1_dim = len(mod_payload["E1"]["pairing"])
    samples = [
        {
            "x": ser.dump_cmatrix(x.reshape(-1, 1)),
            "a": ser.dump_element(a),
        }
        for x, a in zip(
            [
                (rng.standard_normal(E1_dim) + 1j * rng.standard_normal(E1_dim))
                for _ in range(3)
            ],
            random_elements(A, rng, 3),
        )
    ]
    return {
        "seed": seed,
        "kind": kind,
        "input_algebra": ser.dump_shape(A),
        "modules": mod_payload,
        "phis": phi_payload,
        "target": target,
        "path": path,
        "samples": samples,
    }


def _check_continuity(payload: dict, tol: Tolerance, rec: _Recorder, memo: BuildMemo) -> None:
    mods = {k: ser.load_module(v) for k, v in payload["modules"].items()}
    E1, E2 = mods["E1"], mods["E2"]
    phi1 = ser.load_cpmap(payload["phis"]["phi1"], mods)
    phi2 = ser.load_cpmap(payload["phis"]["phi2"], mods)
    A = phi1.algebra

    def load_morphism(data) -> Intertwiner:
        return Intertwiner(
            ModuleMap(E1, E2, ser.load_cmatrix(data["eta"], E2.dim, E1.dim)),
            ser.load_automorphism(data["alpha"]),
        )

    target = load_morphism(payload["target"])
    path = [load_morphism(p) for p in payload["path"]]
    samples = [
        (
            ser.load_cmatrix(s["x"], E1.dim, 1).reshape(-1),
            ser.load_element(A, s["a"]),
        )
        for s in payload["samples"]
    ]
    t1 = ksgns_once(E1, phi1, tol, memo)
    t2 = ksgns_once(E2, phi2, tol, memo)
    try:
        probe = continuity_probe(path, target, t1, t2, samples, tol)
    except NonConvergentInput as exc:
        rec.fail("input_converges", "morphism path converges in the pseudo-metrics", exc)
        return
    rec.add(
        "input_converges",
        "morphism path converges in the pseudo-metrics",
        probe.input_distances[-1],
        10.0 * tol.ctol,
    )
    rec.add(
        "lifted_final",
        "lifted path converges in the pseudo-metrics",
        probe.lifted_distances[-1],
        probe.final_gate,
    )
    jitter = 1e-9
    monotone = max(
        (
            max(0.0, probe.lifted_distances[i + 1] - probe.lifted_distances[i])
            for i in range(len(probe.lifted_distances) - 1)
        ),
        default=0.0,
    )
    rec.add(
        "lifted_monotone",
        "lifted distances decay monotonically",
        monotone,
        jitter,
    )
    bound = max(
        (
            max(0.0, l - probe.constant * i - probe.final_gate)
            for i, l in zip(probe.input_distances, probe.lifted_distances)
        ),
        default=0.0,
    )
    rec.add(
        "lifted_bound",
        "lift is continuous on norm-bounded sets",
        bound,
        tol.ctol,
    )


# ---------------------------------------------------------------------------
# uniqueness suite
# ---------------------------------------------------------------------------


def _gen_uniqueness(caps: SizeCaps, seed: int) -> dict:
    payload = _gen_equivariant(caps, seed)
    c = ser.load_equivariant(payload["correspondence"])
    tol = DEFAULT_TOL
    t = ksgns(c.module, c.phi, tol)
    rng = _sub_rng(seed, 23)
    Z = random_blinear_unitary(t.module, rng)
    payload["planted"] = ser.dump_cmatrix(Z.matrix)
    return payload


def _check_uniqueness(payload: dict, tol: Tolerance, rec: _Recorder, memo: BuildMemo) -> None:
    c = ser.load_equivariant(payload["correspondence"])
    quad = dilate(c, tol=tol, memo=memo)
    F = quad.triple.module
    Z = ModuleMap(F, F, ser.load_cmatrix(payload["planted"], F.dim, F.dim))
    quad2 = conjugated_quadruple(quad, Z)
    W, rep = uniqueness_unitary(quad, quad2, tol)
    rec.merge(
        rep,
        {
            "unitary": ("unitary", "the matching map W is a module unitary"),
            "representation_match": (
                "representation_match",
                "W conjugates pi' to pi",
            ),
            "embedding_match": ("embedding_match", "W V' = V"),
            "unitary_family_match": (
                "unitary_family_match",
                "W conjugates the dilated family U'~ to U~",
            ),
        },
    )
    Z_inv = adjoint_map(Z).matrix
    rec.add(
        "planted_recovery",
        "W recovers the inverse of the planted unitary",
        operator_norm(W.matrix - Z_inv),
        10.0 * tol.ctol,
    )


# ---------------------------------------------------------------------------
# suite registry and runner
# ---------------------------------------------------------------------------


_SUITES = {  # name: (generator, checker), in SUITE_NAMES order
    "ksgns": (_gen_ksgns, _check_ksgns),
    "lift": (_gen_lift, _check_lift),
    "idempotency": (_gen_idempotency, _check_idempotency),
    "tensor": (_gen_tensor, _check_tensor),
    "category": (_gen_category, _check_category),
    "equivariant": (_gen_equivariant, _check_equivariant_suite),
    "dilation": (_gen_equivariant, _check_dilation),
    "continuity": (_gen_continuity, _check_continuity),
    "uniqueness": (_gen_uniqueness, _check_uniqueness),
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
    """Run one instance's checks.  Every build goes through one BuildMemo,
    so each tensor module, KSGNS triple and composite is built once per
    instance; the memo is dropped on return."""
    rec = _Recorder(suite, payload.get("seed", 0), tol)
    try:
        _SUITES[suite][1](payload, tol, rec, BuildMemo())
    except Exception as exc:  # never abort the suite
        theorem = _CONSTRUCTION_THEOREMS.get(
            type(exc).__name__, "instance construction and validation"
        )
        rec.fail("construction", theorem, exc)
    return rec.records


def generate(config: SuiteConfig, out_dir: str) -> list[str]:
    """Write one instance file per enabled suite; deterministic per seed."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for suite in config.suites:
        instances = []
        for idx in range(config.caps.instances_per_suite):
            seed = instance_seed(config.seed, suite, idx)
            instances.append(generate_instance(suite, config.caps, seed))
        doc = {
            "suite": suite,
            "master_seed": config.seed,
            "caps": asdict(config.caps),
            "instances": instances,
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
            payloads = [
                generate_instance(suite, config.caps, instance_seed(config.seed, suite, idx))
                for idx in range(config.caps.instances_per_suite)
            ]
        for payload in payloads:
            tasks.append((suite, payload, config.tolerance))
    if instance_dir is not None and not tasks:  # a report of nothing would pass vacuously
        raise ParseError(f"{instance_dir} holds no instances of the suites {list(config.suites)}")
    if config.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(task) for task in tasks]
    records = [r for chunk in results for r in chunk]
    blas_threads = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    return Report({**config.to_json(), "blas_threads": blas_threads}, records)


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


