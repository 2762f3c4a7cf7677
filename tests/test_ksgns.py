import numpy as np
import pytest

from ksgnslab.cp import CPMap, Intertwiner, check_morphism, random_blinear_unitary
from ksgnslab.cstar import (
    AlgebraShape,
    basis_element,
    identity_automorphism,
    inner_automorphism,
    random_element,
)
from ksgnslab.equivariant import scramble_module
from ksgnslab.errors import NonConvergentInput, NotCP, ShapeMismatch
from ksgnslab.generators import (
    canonical_module,
    extend_morphism,
    random_module,
    random_morphism_pair,
    random_representation,
    random_vectors,
    transported_copy,
)
from ksgnslab.hilbert import ModuleMap, adjoint_map, identity_map, module_operator_norm
from ksgnslab.ksgns import (
    check_idempotency,
    check_lift,
    check_triple,
    conjugated_triple,
    continuity_probe,
    idempotency_unitary,
    ksgns,
    ksgns_lift,
    spanning_rank,
    triple_uniqueness_unitary,
)
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import DEFAULT_TOL, herm_expi, operator_norm
from ksgnslab.poscor import unitarity_residual
from ksgnslab.cp import intertwiner_space, random_cp
from ksgnslab.cstar import AlgebraElement

from conftest import random_complex


def state_on_m2(weights):
    """phi(a) = sum_k weights[k] a_kk as a CP map into L(C)."""
    A = AlgebraShape((2,))
    E = canonical_module(AlgebraShape((1,)), (1,))
    images = np.zeros((4, 1, 1), dtype=complex)
    for p, i, k, l in A.basis_labels():
        if k == l:
            images[p, 0, 0] = weights[k]
    return A, E, CPMap(A, E, images)


def brute_force_state_gram(weights):
    """Gram of the dilation pre-space of a state, assembled from scratch.

    G[(k,l),(k2,l2)] = phi(E_kl* E_k2l2) = delta_{k k2} phi(E_{l l2}).
    """
    G = np.zeros((4, 4), dtype=complex)
    labels = [(k, l) for k in range(2) for l in range(2)]
    for p, (k, l) in enumerate(labels):
        for q, (k2, l2) in enumerate(labels):
            if k == k2:
                G[p, q] = weights[l] if l == l2 else 0.0
    return G


def test_gns_dimension_trace_state():
    # oracle first: brute-force Gram rank
    G = brute_force_state_gram([0.5, 0.5])
    svals = np.linalg.svd(G, compute_uv=False)
    oracle_rank = int(np.sum(svals > 1e-10 * svals[0]))
    assert oracle_rank == 4

    A, E, phi = state_on_m2([0.5, 0.5])
    t = ksgns(E, phi)
    assert t.module.dim == oracle_rank == 4
    assert check_triple(t).passed


def test_gns_dimension_pure_state():
    G = brute_force_state_gram([1.0, 0.0])
    svals = np.linalg.svd(G, compute_uv=False)
    oracle_rank = int(np.sum(svals > 1e-10 * svals[0]))
    assert oracle_rank == 2

    A, E, phi = state_on_m2([1.0, 0.0])
    t = ksgns(E, phi)
    assert t.module.dim == oracle_rank == 2
    assert check_triple(t).passed


def test_ksgns_rejects_non_cp():
    A = AlgebraShape((2,))
    E = canonical_module(AlgebraShape((1,)), (2,))
    images = np.zeros((4, 2, 2), dtype=complex)
    for p, i, k, l in A.basis_labels():
        unit = np.zeros((2, 2), dtype=complex)
        unit[l, k] = 1.0
        images[p] = unit  # the transpose map is not CP
    with pytest.raises(NotCP):
        ksgns(E, CPMap(A, E, images))


def test_ksgns_rejects_map_on_another_module_of_same_dim(rng):
    # phi acts on E; E2 has E's dimension but another action and pairing
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=4)
    phi = random_cp(AlgebraShape((2,)), E, rng)
    E2, _ = scramble_module(E, rng)
    assert E2.dim == E.dim
    with pytest.raises(ShapeMismatch):
        ksgns(E2, phi)


def test_homomorphism_dilates_trivially(rng):
    # when phi is already a unital *-homomorphism, V is unitary and
    # conjugates pi back to phi
    A = AlgebraShape((2,))
    B = AlgebraShape((1, 2))
    F, pi = random_representation(A, B, rng, max_dim=6)
    t = ksgns(F, pi)
    assert t.module.dim == F.dim
    assert unitarity_residual(t.embedding) <= 1e-8
    V = t.embedding.matrix
    Vs = adjoint_map(t.embedding).matrix
    worst = max(
        operator_norm(Vs @ t.pi.images[p] @ V - pi.images[p]) for p in range(A.dim)
    )
    assert worst <= 1e-8


def test_reconstruction_and_spanning_over_seeds():
    shapes = [(1,), (2,), (1, 2)]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        A = AlgebraShape(shapes[seed % len(shapes)])
        B = AlgebraShape(shapes[(seed + 1) % len(shapes)])
        E = random_module(B, rng, max_dim=5)
        phi = random_cp(A, E, rng)
        t = ksgns(E, phi)
        rep = check_triple(t)
        assert rep.passed, (seed, rep.residuals)
        assert spanning_rank(t) == t.module.dim


def test_embedding_adjoint_formula(rng):
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    phi = random_cp(A, E, rng)
    t = ksgns(E, phi)
    Vs = adjoint_map(t.embedding).matrix
    # V*(class of a (x) y) = phi(a) y on random representatives
    for _ in range(20):
        a = random_element(A, rng)
        y = random_complex(rng, E.dim)
        pre = np.kron(a.coeffs(), y)
        lhs = Vs @ (t.q @ pre)
        rhs = phi(a).matrix @ y
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1 + a.norm())


def test_triple_uniqueness_identity_and_planted(rng):
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=4)
    phi = random_cp(A, E, rng)
    t = ksgns(E, phi)
    U, rep = triple_uniqueness_unitary(t, t)
    assert rep.passed
    assert operator_norm(U.matrix - np.eye(t.module.dim)) <= 1e-8
    Z = random_blinear_unitary(t.module, rng)
    t2 = conjugated_triple(t, Z)
    U, rep = triple_uniqueness_unitary(t, t2)
    assert rep.passed, rep.residuals
    assert operator_norm(U.matrix - Z.matrix) <= 1e-8


def test_conjugated_triple_is_a_dilation():
    # the transported triple carries its own quotient data: q <- Z q, s <- s Z^-1
    rng = np.random.default_rng(3)
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=4)
    t = ksgns(E, random_cp(AlgebraShape((2,)), E, rng))
    Z = random_blinear_unitary(t.module, rng)
    t2 = conjugated_triple(t, Z)
    rep = check_triple(t2)
    assert rep.passed, rep.residuals
    assert np.allclose(t2.q @ t2.s, np.eye(t.module.dim))
    assert t2.kernel is t.kernel


# -- lifting -------------------------------------------------------------------


def test_lift_identity_is_identity(rng):
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    phi = random_cp(A, E, rng)
    t = ksgns(E, phi)
    ident = Intertwiner(identity_map(E), identity_automorphism(A))
    lifted = ksgns_lift(ident, t, t)
    assert operator_norm(lifted.eta.matrix - np.eye(t.module.dim)) <= 1e-10


def test_lift_of_unitary_is_unitary(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    E1 = random_module(B, rng, max_dim=4)
    phi1 = random_cp(A, E1, rng)
    E2, phi2, m = transported_copy(E1, phi1, rng)
    t1, t2 = ksgns(E1, phi1), ksgns(E2, phi2)
    lifted = ksgns_lift(m, t1, t2)
    assert unitarity_residual(lifted.eta) <= 1e-8
    rep = check_lift(m, lifted, t1, t2)
    assert rep.passed, rep.residuals


def test_lift_properties_and_contraction(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((1, 2))
    E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, max_dim=4)
    t1, t2 = ksgns(E1, phi1), ksgns(E2, phi2)
    lifted = ksgns_lift(m, t1, t2)
    rep = check_lift(m, lifted, t1, t2)
    assert rep.passed, rep.residuals
    assert lifted.norm <= m.norm + 1e-8
    rep = check_morphism(lifted, t1.pi, t2.pi)
    assert rep.passed


def test_lift_functoriality(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    E1 = random_module(B, rng, max_dim=3)
    phi1 = random_cp(A, E1, rng)
    E2, phi2, m1 = extend_morphism(E1, phi1, rng)
    E3, phi3, m2 = extend_morphism(E2, phi2, rng)
    t1, t2, t3 = ksgns(E1, phi1), ksgns(E2, phi2), ksgns(E3, phi3)
    from ksgnslab.cp import compose_intertwiners

    lifted12 = ksgns_lift(m1, t1, t2)
    lifted23 = ksgns_lift(m2, t2, t3)
    lifted13 = ksgns_lift(compose_intertwiners(m2, m1), t1, t3)
    resid = operator_norm(
        lifted13.eta.matrix - lifted23.eta.matrix @ lifted12.eta.matrix
    )
    assert resid <= 1e-8 * (1.0 + m1.norm * m2.norm)


# -- idempotency ---------------------------------------------------------------


def test_idempotency_dims_and_unitarity(rng):
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((2,)), rng, max_dim=3)
    phi = random_cp(A, E, rng)
    t = ksgns(E, phi)
    idem = idempotency_unitary(t, DEFAULT_TOL, BuildMemo())
    assert idem.second.module.dim == t.module.dim
    rep = check_idempotency(idem, t)
    assert rep.passed, rep.residuals


def test_idempotency_naturality(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, max_dim=3)
    t1, t2 = ksgns(E1, phi1), ksgns(E2, phi2)
    memo = BuildMemo()
    idem1, idem2 = (idempotency_unitary(t, DEFAULT_TOL, memo) for t in (t1, t2))
    lifted = ksgns_lift(m, t1, t2)
    double = ksgns_lift(lifted, idem1.second, idem2.second)
    resid = operator_norm(
        idem2.unitary.matrix @ lifted.eta.matrix
        - double.eta.matrix @ idem1.unitary.matrix
    )
    assert resid <= 1e-8 * (1.0 + m.norm)


# -- continuity ----------------------------------------------------------------


def make_linear_path(rng, steps=20):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, max_dim=4)
    basis = intertwiner_space(phi1, phi2, m.alpha)
    direction = basis[0]
    path = [
        Intertwiner(
            ModuleMap(E1, E2, m.eta.matrix + 0.1 * 4.0 ** (-k) * direction.matrix),
            m.alpha,
        )
        for k in range(1, steps + 1)
    ]
    samples = list(
        zip(random_vectors(E1, rng, 3), [random_element(A, rng) for _ in range(3)])
    )
    return E1, phi1, E2, phi2, m, path, samples


def test_probe_constant_path_is_zero(rng):
    E1, phi1, E2, phi2, m, _, samples = make_linear_path(rng)
    t1, t2 = ksgns(E1, phi1), ksgns(E2, phi2)
    probe = continuity_probe([m] * 5, m, t1, t2, samples)
    assert max(probe.input_distances) == 0.0
    assert max(probe.lifted_distances) == 0.0
    assert probe.passed


def test_probe_linear_path_decays(rng):
    E1, phi1, E2, phi2, m, path, samples = make_linear_path(rng)
    t1, t2 = ksgns(E1, phi1), ksgns(E2, phi2)
    probe = continuity_probe(path, m, t1, t2, samples)
    assert probe.passed
    assert probe.lifted_distances[-1] <= 1e-7
    drops = [
        probe.lifted_distances[i + 1] <= probe.lifted_distances[i] + 1e-9
        for i in range(len(path) - 1)
    ]
    assert all(drops)


def test_probe_automorphism_path_decays(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    F, pi = random_representation(A, B, rng, max_dim=4)
    t = ksgns(F, pi)
    H = random_element(A, rng, hermitian=True)
    path = []
    for k in range(1, 21):
        eps = 1e-2 * 4.0 ** (-k)
        u_blocks = [herm_expi(eps * blk) for blk in H.blocks]
        path.append(
            Intertwiner(
                pi(AlgebraElement(A, u_blocks)), inner_automorphism(A, u_blocks)
            )
        )
    target = Intertwiner(identity_map(F), identity_automorphism(A))
    samples = list(
        zip(random_vectors(F, rng, 3), [random_element(A, rng) for _ in range(3)])
    )
    probe = continuity_probe(path, target, t, t, samples)
    assert probe.passed
    assert probe.lifted_distances[-1] <= 1e-7


def test_probe_rejects_non_convergent_path(rng):
    E1, phi1, E2, phi2, m, path, samples = make_linear_path(rng)
    t1, t2 = ksgns(E1, phi1), ksgns(E2, phi2)
    off_target = Intertwiner(
        ModuleMap(E1, E2, m.eta.matrix + 0.5 * np.eye(E2.dim, E1.dim)), m.alpha
    )
    with pytest.raises(NonConvergentInput):
        continuity_probe(path, off_target, t1, t2, samples)
