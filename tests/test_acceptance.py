"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from ksgnslab.cp import (
    CPMap,
    Intertwiner,
    compose_intertwiners,
    intertwiner_space,
    random_blinear_unitary,
    random_cp,
)
from ksgnslab.cstar import (
    AlgebraShape,
    identity_automorphism,
    random_element,
)
from conftest import (
    add, apply_star_map, element_norm, failing, inclusion, mul, pair_reference, passed, residuals,
    star, tensored_intertwiner,
)
from ksgnslab.equivariant import (
    check_dilation,
    conjugated_quadruple,
    categorical_dilation_unitary,
    cyclic_group,
    dilate,
    random_equivariant,
    symmetric_group,
    trivial_group,
    uniqueness_unitary,
)
from ksgnslab.generators import (
    canonical_module,
    extend_morphism,
    random_endomorphism,
    random_module,
    random_morphism_to_new_object,
    random_object,
    random_representation,
    random_star_map,
    random_vectors,
)
from ksgnslab.harness import (
    SUITE_NAMES,
    SizeCaps,
    check_instance,
    generate_instance,
    instance_seed,
    _sibling_morphism,
)
from ksgnslab.hilbert import ModuleMap, adjoint_map, identity_map, module_operator_norm
from ksgnslab.ksgns import (
    check_triple,
    continuity_probe,
    ksgns,
    ksgns_lift,
    spanning_rank,
)
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import Tolerance, operator_norm, summarize
from ksgnslab.poscor import (
    check_category_laws,
    commuting_unitary,
    composition_unitary,
    interior_tensor,
    interior_tensor_along,
    tensor_extend_between,
    unitarity_residual,
)

TOL = Tolerance()
SHAPE_MENU = [(1,), (2,), (3,), (2, 2), (1, 2)]


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{name}]: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_ksgns_reconstruction():
    start = time.perf_counter()
    worst_rel = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        A = AlgebraShape(SHAPE_MENU[seed % 5])
        B = AlgebraShape(SHAPE_MENU[(seed // 5) % 5])
        E = random_module(B, rng, max_dim=6)
        phi = random_cp(A, E, rng)
        t = ksgns([E], [phi], TOL, BuildMemo())[0]
        Vs = adjoint_map(t.embedding).matrix
        V = t.embedding.matrix
        recon = max(
            module_operator_norm(
                ModuleMap(E, E, Vs @ t.pi.images[p] @ V - phi.images[p])
            )
            for p in range(A.dim)
        )
        worst_rel = max(worst_rel, recon / (1.0 + phi.norm))
        assert spanning_rank(t, TOL) == t.module.dim, seed
    elapsed = time.perf_counter() - start
    _report(
        1,
        "KSGNS reconstruction",
        worst_rel <= 1e-8 and elapsed < 60.0,
        f"200 instances, worst residual {worst_rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_gns_dimensions():
    # brute-force Gram-rank oracle, assembled independently of the machinery
    def oracle_rank(weights):
        G = np.zeros((4, 4), dtype=complex)
        labels = [(k, l) for k in range(2) for l in range(2)]
        for p, (k, l) in enumerate(labels):
            for q, (k2, l2) in enumerate(labels):
                if k == k2 and l == l2:
                    G[p, q] = weights[l]
        svals = np.linalg.svd(G, compute_uv=False)
        return int(np.sum(svals > 1e-10 * max(svals[0], 1e-300)))

    A = AlgebraShape((2,))
    E = canonical_module(AlgebraShape((1,)), (1,))

    def state(weights):
        images = np.zeros((4, 1, 1), dtype=complex)
        for p, i, k, l in A.basis_labels():
            if k == l:
                images[p, 0, 0] = weights[k]
        return CPMap(A, E, images)

    trace_rank = oracle_rank([0.5, 0.5])
    pure_rank = oracle_rank([1.0, 0.0])
    dim_trace = ksgns([E], [state([0.5, 0.5])], TOL, BuildMemo())[0].module.dim
    dim_pure = ksgns([E], [state([1.0, 0.0])], TOL, BuildMemo())[0].module.dim
    ok = (trace_rank, pure_rank) == (4, 2) and (dim_trace, dim_pure) == (4, 2)
    _report(2, "GNS dimensions", ok, f"trace {dim_trace} (oracle {trace_rank}), "
            f"pure {dim_pure} (oracle {pure_rank})")


def test_criterion_03_endofunctor_laws():
    worst_comp = worst_id = worst_contract = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        A = AlgebraShape((2,) if seed % 2 == 0 else (1, 2))
        B = AlgebraShape(SHAPE_MENU[seed % 3])
        E1 = random_module(B, rng, max_dim=4)
        phi1 = random_cp(A, E1, rng)
        E2, phi2, m1 = extend_morphism(E1, phi1, rng, TOL)
        E3, phi3, m2 = extend_morphism(E2, phi2, rng, TOL)
        t1, t2, t3 = ksgns([E1, E2, E3], [phi1, phi2, phi3], TOL, BuildMemo())
        l1 = ksgns_lift([m1], [t1], [t2], TOL)[0]
        l2 = ksgns_lift([m2], [t2], [t3], TOL)[0]
        l21 = ksgns_lift([compose_intertwiners(m2, m1)], [t1], [t3], TOL)[0]
        worst_comp = max(
            worst_comp,
            operator_norm(l21.eta.matrix - l2.eta.matrix @ l1.eta.matrix),
        )
        ident = Intertwiner(identity_map(E1), identity_automorphism(A))
        lid = ksgns_lift([ident], [t1], [t1], TOL)[0]
        worst_id = max(
            worst_id, operator_norm(lid.eta.matrix - np.eye(t1.module.dim))
        )
        worst_contract = max(worst_contract, l1.norm - m1.norm, l2.norm - m2.norm)
    ok = worst_comp <= 1e-8 and worst_id <= 1e-8 and worst_contract <= 1e-8
    _report(3, "KSGNS endofunctor laws", ok,
            f"composition {worst_comp:.2e}, identity {worst_id:.2e}, "
            f"contraction slack {worst_contract:.2e}")


def test_criterion_04_idempotency():
    worst_unit = worst_nat = 0.0
    dims_ok = True
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        A = AlgebraShape((2,) if seed % 2 else (1,))
        B = AlgebraShape(SHAPE_MENU[seed % 3])
        E1 = random_module(B, rng, max_dim=4)
        phi1 = random_cp(A, E1, rng)
        E2, phi2, m = extend_morphism(E1, phi1, rng, TOL)
        t1, t2 = ksgns([E1], [phi1], TOL, BuildMemo())[0], ksgns([E2], [phi2], TOL, BuildMemo())[0]
        memo = BuildMemo()
        # the idempotency unitary V_pi is the embedding of the second dilation
        s1, s2 = (ksgns([t.module], [t.pi], TOL, memo)[0] for t in (t1, t2))
        dims_ok = dims_ok and s1.module.dim == t1.module.dim
        worst_unit = max(worst_unit, unitarity_residual([s1.embedding]))
        lifted = ksgns_lift([m], [t1], [t2], TOL)[0]
        double = ksgns_lift([lifted], [s1], [s2], TOL)[0]
        worst_nat = max(
            worst_nat,
            operator_norm(
                s2.embedding.matrix @ lifted.eta.matrix - double.eta.matrix @ s1.embedding.matrix
            ),
        )
    ok = worst_unit <= 1e-8 and worst_nat <= 1e-8 and dims_ok
    _report(4, "KSGNS idempotency", ok,
            f"unitarity {worst_unit:.2e}, naturality {worst_nat:.2e}, dims stable {dims_ok}")


def test_criterion_05_tensor_functor():
    worst = {"commuting": 0.0, "commuting_nat": 0.0, "inclusion": 0.0,
             "inclusion_nat": 0.0, "composition": 0.0, "composition_nat": 0.0}
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        A = AlgebraShape((2,))
        B = AlgebraShape((2,) if seed % 2 else (1,))
        C = AlgebraShape((2,))
        E1 = random_module(B, rng, max_dim=3)
        phi1 = random_cp(A, E1, rng)
        E2, phi2, m = extend_morphism(E1, phi1, rng, TOL)
        F, pi = random_representation(B, C, rng, max_dim=4)
        memo = BuildMemo()
        tm1 = interior_tensor([E1], [F], [pi], TOL, memo)[0]
        tm2 = interior_tensor([E2], [F], [pi], TOL, memo)[0]
        # commuting unitary and its naturality square
        cu1 = commuting_unitary([phi1], [tm1], TOL, memo)[0]
        cu2 = commuting_unitary([phi2], [tm2], TOL, memo)[0]
        worst["commuting"] = max(worst["commuting"], unitarity_residual([cu1.unitary]))
        lifted = ksgns_lift([m], [cu1.triple], [cu2.triple], TOL)[0]
        lifted_hat = tensor_extend_between([lifted.eta], [cu1.right], [cu2.right], TOL)[0]
        m_hat = tensored_intertwiner(m, tm1, tm2, TOL)
        hat_lifted = ksgns_lift([m_hat], [cu1.left], [cu2.left], TOL)[0]
        worst["commuting_nat"] = max(
            worst["commuting_nat"],
            operator_norm(
                lifted_hat.matrix @ cu1.unitary.matrix
                - cu2.unitary.matrix @ hat_lifted.eta.matrix
            ),
        )
        # inclusion unitary and naturality
        (tm1_inc, iota1), (tm2_inc, iota2) = (inclusion(E, TOL, memo) for E in (E1, E2))
        worst["inclusion"] = max(worst["inclusion"], unitarity_residual([iota1]))
        eta_inc = tensor_extend_between([m.eta], [tm1_inc], [tm2_inc], TOL)[0]
        worst["inclusion_nat"] = max(
            worst["inclusion_nat"],
            operator_norm(
                iota2.matrix @ eta_inc.matrix - m.eta.matrix @ iota1.matrix
            ),
        )
        # composition unitary and naturality
        rho1 = random_star_map(B, rng, max_block=2, max_out_blocks=1)
        rho2 = random_star_map(rho1.codomain, rng, max_block=3, max_out_blocks=1)
        along1, along2 = (interior_tensor_along([E], [rho1], TOL, memo)[0] for E in (E1, E2))
        comp1 = composition_unitary([along1], [rho1], [rho2], TOL, memo)[0]
        comp2 = composition_unitary([along2], [rho1], [rho2], TOL, memo)[0]
        worst["composition"] = max(
            worst["composition"], unitarity_residual([comp1.unitary])
        )
        eta1 = tensor_extend_between([m.eta], [comp1.inner], [comp2.inner], TOL)[0]
        eta11 = tensor_extend_between([eta1], [comp1.double], [comp2.double], TOL)[0]
        eta_direct = tensor_extend_between([m.eta], [comp1.target], [comp2.target], TOL)[0]
        worst["composition_nat"] = max(
            worst["composition_nat"],
            operator_norm(
                comp2.unitary.matrix @ eta11.matrix
                - eta_direct.matrix @ comp1.unitary.matrix
            ),
        )
    ok = all(v <= 1e-8 for v in worst.values())
    _report(5, "tensor functor", ok,
            ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def test_criterion_06_category_laws():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        A = AlgebraShape((2,))
        o1 = random_object("O1", A, AlgebraShape((2,) if seed % 2 else (1,)), rng, max_dim=2)
        memo = BuildMemo()
        o2, a1 = random_morphism_to_new_object(
            o1, "O2", rng, TOL, memo, max_block=2, max_out_blocks=1
        )
        o3, b1 = random_morphism_to_new_object(
            o2, "O3", rng, TOL, memo, max_block=3, max_out_blocks=1
        )
        a2 = _sibling_morphism(a1, rng, TOL, memo)
        b2 = _sibling_morphism(b1, rng, TOL, memo)
        c1 = random_endomorphism(o3, rng, TOL, memo)
        c2 = random_endomorphism(o1, rng, TOL, memo)
        rep = check_category_laws([o1, o2, o3], [a1, a2, b1, b2, c1, c2], TOL, memo)
        assert passed(rep), (seed, rep)
        worst = max(
            worst,
            residuals(rep)["left_identity"],
            residuals(rep)["right_identity"],
            residuals(rep)["associativity"],
        )
    _report(6, "category laws", worst <= 1e-8,
            f"50 diagrams of 3 objects / 6 morphisms, worst law residual {worst:.2e}")


def test_criterion_07_lemma_inequalities():
    samples = 0
    worst = 0.0
    min_eig_floor = 0.0
    seed = 0
    while samples < 200:
        rng = np.random.default_rng(5000 + seed)
        seed += 1
        A = AlgebraShape((2,))
        B = AlgebraShape((2,) if seed % 2 else (1, 2))
        C = AlgebraShape((2,))
        E1 = random_module(B, rng, max_dim=4)
        phi1 = random_cp(A, E1, rng)
        E2, phi2, m = extend_morphism(E1, phi1, rng, TOL)
        F, pi = random_representation(B, C, rng, max_dim=4)
        eta = m.eta.matrix
        eta_star = adjoint_map(m.eta).matrix
        gram = eta_star @ eta
        cogram = eta @ eta_star
        norm2 = m.norm**2
        for _ in range(8):
            n = int(rng.integers(1, 5))
            xs = random_vectors(E1, rng, n)
            ys = random_vectors(E2, rng, n)
            fs = random_vectors(F, rng, n)
            elts = [random_element(A, rng) for _ in range(n)]
            s_l = s_r = t_l = t_r = u_l = u_r = None
            for i in range(n):
                for j in range(n):
                    aa = mul(star(elts[i]), elts[j])
                    img1 = phi1(aa.coeffs()).matrix
                    v = pair_reference(E1, xs[i], img1 @ (gram @ xs[j]))
                    w = pair_reference(E1, xs[i], img1 @ xs[j])
                    s_l = v if s_l is None else add(s_l, v)
                    s_r = w if s_r is None else add(s_r, w)
                    ai, aj = (apply_star_map(m.alpha.forward, e) for e in (elts[i], elts[j]))
                    img2 = phi2(mul(star(ai), aj).coeffs()).matrix
                    v2 = pair_reference(E2, ys[i], img2 @ (cogram @ ys[j]))
                    w2 = pair_reference(E2, ys[i], img2 @ ys[j])
                    t_l = v2 if t_l is None else add(t_l, v2)
                    t_r = w2 if t_r is None else add(t_r, w2)
                    # interior-tensor families for the second bound
                    inner = pair_reference(E1, xs[i], xs[j])
                    pi_in = pi(inner.coeffs()).matrix
                    eta_xi = eta @ xs[i]
                    eta_xj = eta @ xs[j]
                    pi_out = pi(pair_reference(E2, eta_xi, eta_xj).coeffs()).matrix
                    v3 = pair_reference(F, fs[i], pi_out @ fs[j])
                    w3 = pair_reference(F, fs[i], pi_in @ fs[j])
                    u_l = v3 if u_l is None else add(u_l, v3)
                    u_r = w3 if u_r is None else add(u_r, w3)
            worst = max(
                worst,
                *(
                    element_norm(lhs) - norm2 * element_norm(rhs)
                    for lhs, rhs in ((s_l, s_r), (t_l, t_r), (u_l, u_r))
                ),
            )
            samples += 1
        # Properties Lemma part 3 on a sampled square
        a = random_element(A, rng)
        pos = phi1(mul(star(a), a).coeffs()).matrix
        from ksgnslab.hilbert import is_map_positive

        _, lo = is_map_positive(ModuleMap(E1, E1, pos @ gram), TOL)
        _, hi = is_map_positive(ModuleMap(E1, E1, norm2 * pos - pos @ gram), TOL)
        min_eig_floor = min(min_eig_floor, lo, hi)
    ok = worst <= 1e-8 and min_eig_floor >= -1e-8
    _report(7, "lemma inequalities", ok,
            f"{samples} families (n <= 4), worst slack {worst:.2e}, "
            f"positivity floor {min_eig_floor:.2e}")


def test_criterion_08_equivariant_dilation():
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3)]
    worst_cond = worst_cross = 0.0
    for G in groups:
        for seed in range(50):
            c = random_equivariant(
                AlgebraShape((2,)), AlgebraShape((2,)), G,
                seed=6000 + 100 * G.order + seed, copies=1,
            )
            memo = BuildMemo()
            quad = dilate(c, TOL, memo)
            # with the triple's own records, which the dilation suite does not record
            rep = check_dilation(quad, TOL) + check_triple(quad.triple, TOL)
            assert passed(rep), (G.name, seed, failing(rep))
            worst_cond = max(worst_cond, summarize(rep)[0])
            cats = categorical_dilation_unitary(c, TOL, memo)
            for g in range(G.order):
                worst_cross = max(worst_cross, operator_norm(cats[g] - quad.unitaries[g]))
    # the trivial group reproduces the plain construction bit for bit
    bit_ok = True
    for seed in range(20):
        c = random_equivariant(
            AlgebraShape((2,)), AlgebraShape((2,)), trivial_group(), seed=6400 + seed
        )
        quad = dilate(c, TOL, BuildMemo())
        t = ksgns([c.module], [c.phi], TOL, BuildMemo())[0]
        bit_ok = bit_ok and (
            np.array_equal(quad.triple.q, t.q)
            and np.array_equal(quad.triple.s, t.s)
            and np.array_equal(quad.triple.pi.images, t.pi.images)
            and np.array_equal(quad.triple.embedding.matrix, t.embedding.matrix)
        )
    ok = worst_cond <= 1e-8 and worst_cross <= 1e-8 and bit_ok
    _report(8, "equivariant dilation", ok,
            f"4 groups x 50, conditions {worst_cond:.2e}, "
            f"direct vs categorical {worst_cross:.2e}, trivial-group bitwise {bit_ok}")


def test_criterion_09_uniqueness():
    worst_rec = worst_prop = 0.0
    for seed in range(50):
        rng = np.random.default_rng(7000 + seed)
        G = cyclic_group(2 + seed % 3)
        c = random_equivariant(
            AlgebraShape((2,)), AlgebraShape((2,) if seed % 2 else (1, 2)), G,
            seed=7000 + seed, copies=1,
        )
        quad = dilate(c, TOL, BuildMemo())
        Z = random_blinear_unitary(quad.triple.module, rng)
        quad2 = conjugated_quadruple(quad, Z)
        W, rep = uniqueness_unitary(quad, quad2, TOL)
        assert passed(rep), (seed, failing(rep))
        worst_prop = max(worst_prop, summarize(rep)[0])
        worst_rec = max(
            worst_rec, operator_norm(W.matrix - adjoint_map(Z).matrix)
        )
    ok = worst_rec <= 1e-7 and worst_prop <= 1e-8
    _report(9, "dilation uniqueness", ok,
            f"50 planted instances, recovery {worst_rec:.2e}, properties {worst_prop:.2e}")


def test_criterion_10_continuity():
    worst_final = worst_jump = 0.0
    for seed in range(10):
        rng = np.random.default_rng(8000 + seed)
        A = AlgebraShape((2,))
        B = AlgebraShape((2,))
        E1 = random_module(B, rng, max_dim=4)
        phi1 = random_cp(A, E1, rng)
        E2, phi2, m = extend_morphism(E1, phi1, rng, TOL)
        basis = intertwiner_space(phi1, phi2, m.alpha, TOL)
        direction = basis[int(rng.integers(len(basis)))]
        path = [
            Intertwiner(
                ModuleMap(E1, E2, m.eta.matrix + 0.1 * 4.0 ** (-k) * direction.matrix),
                m.alpha,
            )
            for k in range(1, 21)
        ]
        xs = random_vectors(E1, rng, 3)
        elts = np.array([random_element(A, rng).coeffs() for _ in range(3)])
        t1, t2 = ksgns([E1], [phi1], TOL, BuildMemo())[0], ksgns([E2], [phi2], TOL, BuildMemo())[0]
        probe = continuity_probe(path, m, t1, t2, xs, elts, TOL)
        worst_final = max(worst_final, probe.lifted_distances[-1])
        worst_jump = max(
            worst_jump,
            max(
                (
                    probe.lifted_distances[i + 1] - probe.lifted_distances[i]
                    for i in range(19)
                ),
                default=0.0,
            ),
        )
    ok = worst_final <= 1e-7 and worst_jump <= 1e-9
    _report(10, "continuity probes", ok,
            f"20-step paths, final {worst_final:.2e}, worst upward jump {worst_jump:.2e}")


def _corrupt_matrix(data, rng, scale=0.1):
    """Perturb a serialized complex matrix in place by scale * random."""
    for row in data:
        for entry in row:
            entry[0] += scale * rng.standard_normal()
            entry[1] += scale * rng.standard_normal()


def _corrupt_automorphism(data, rng, scale=0.1):
    """Perturb the forward images of a serialized automorphism: the pair then
    stops being a *-homomorphism, which every morphism check depends on."""
    for element in data["forward"]["images"]:
        for block in element:
            _corrupt_matrix(block, rng, scale)


def _inject(suite, payload, rng):
    """Suite-specific 0.1-perturbations that genuinely violate an invariant,
    whatever the instance (hermiticity, group laws, and automorphism laws
    break for any nonzero perturbation; operator intertwining alone can be
    vacuous on degenerate instances)."""
    if suite == "ksgns":
        _corrupt_matrix(payload["phi"]["images"][0], rng)
    elif suite in ("lift", "idempotency", "tensor"):
        key = "m1" if suite == "lift" else "m"
        _corrupt_automorphism(payload["morphisms"][key]["alpha"], rng)
    elif suite == "category":
        _corrupt_automorphism(payload["morphisms"][0]["alpha"], rng)
    elif suite in ("equivariant", "dilation"):
        _corrupt_matrix(payload["correspondence"]["unitaries"][-1], rng)
    elif suite == "continuity":
        _corrupt_matrix(payload["target"]["eta"], rng)
    elif suite == "uniqueness":
        _corrupt_matrix(payload["planted"], rng)
    else:
        raise AssertionError(suite)


def test_criterion_11_fault_injection():
    injections = 0
    flagged = 0
    named = 0
    unflagged = []
    for round_idx in range(6):
        for suite in SUITE_NAMES:
            seed = instance_seed(9000 + round_idx, suite, round_idx)
            payload = generate_instance(suite, SizeCaps(instances_per_suite=1), seed)
            rng = np.random.default_rng(777 + injections)
            _inject(suite, payload, rng)
            records = check_instance(suite, payload, TOL)
            failures = [r for r in records if not r.passed]
            injections += 1
            if failures:
                flagged += 1
                if any(r.theorem != "instance construction and validation" for r in failures):
                    named += 1
            else:
                unflagged.append((suite, round_idx))
    ok = injections >= 50 and flagged == injections and named == injections
    _report(11, "fault injection", ok,
            f"{injections} injections, {flagged} flagged, {named} named a violated "
            f"theorem{', missed: ' + str(unflagged) if unflagged else ''}")
