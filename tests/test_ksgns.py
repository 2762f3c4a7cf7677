import dataclasses

import numpy as np
import pytest

from ksgnslab import serialize as ser
from ksgnslab.cp import CPMap, Intertwiner, check_morphism, random_blinear_unitary
from ksgnslab.cstar import (
    AlgebraShape,
    identity_automorphism,
    inner_automorphism,
    random_element,
)
from ksgnslab.equivariant import scramble_module
from ksgnslab.errors import NonConvergentInput, NotCP, ShapeMismatch
from ksgnslab.generators import (
    extend_morphism,
    random_module,
    random_morphism_pair,
    random_representation,
    random_vectors,
    transported_copy,
)
from ksgnslab.harness import SizeCaps, generate_instance, instance_seed
from ksgnslab.hilbert import ModuleMap, adjoint_map, canonical_module, identity_map
from ksgnslab.ksgns import (
    check_idempotency,
    check_lift,
    check_triple,
    conjugated_triple,
    continuity_probe,
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

from conftest import (
    element_norm, failing, passed, probe_passed, random_complex, stinespring_triple,
)


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
    t = ksgns([E], [phi], DEFAULT_TOL, BuildMemo())[0]
    assert t.module.dim == oracle_rank == 4
    assert passed(check_triple(t, DEFAULT_TOL))


def test_gns_dimension_pure_state():
    G = brute_force_state_gram([1.0, 0.0])
    svals = np.linalg.svd(G, compute_uv=False)
    oracle_rank = int(np.sum(svals > 1e-10 * svals[0]))
    assert oracle_rank == 2

    A, E, phi = state_on_m2([1.0, 0.0])
    t = ksgns([E], [phi], DEFAULT_TOL, BuildMemo())[0]
    assert t.module.dim == oracle_rank == 2
    assert passed(check_triple(t, DEFAULT_TOL))


def rank_limited_cp(n: int, d: int, rank: int, rng) -> CPMap:
    """A CP map from M_n into L(C^d) whose Choi matrix has rank `rank`."""
    A = AlgebraShape((n,))
    E = canonical_module(AlgebraShape((1,)), (d,))
    Y = random_complex(rng, n * d, rank)
    choi = Y @ Y.conj().T
    choi /= np.linalg.norm(choi, 2)
    images = np.zeros((A.dim, d, d), dtype=complex)
    for p, i, k, l in A.basis_labels():
        images[p] = choi[k * d : (k + 1) * d, l * d : (l + 1) * d]
    return CPMap(A, E, images)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "n, d, rank",
    [(n, d, r) for n in range(1, 4) for d in range(1, 4) for r in range(1, n * d + 1)],
)
def test_dilation_dimension_is_block_size_times_choi_rank(n, d, rank, seed):
    # the quotient keeps n copies of the Choi matrix's range: dim F_phi = n r
    rng = np.random.default_rng(1000 * n + 100 * d + 10 * rank + seed)
    phi = rank_limited_cp(n, d, rank, rng)
    t = ksgns([phi.module], [phi], DEFAULT_TOL, BuildMemo())[0]
    assert t.module.dim == n * rank
    assert passed(check_triple(t, DEFAULT_TOL))


def test_ksgns_rejects_non_cp():
    A = AlgebraShape((2,))
    E = canonical_module(AlgebraShape((1,)), (2,))
    images = np.zeros((4, 2, 2), dtype=complex)
    for p, i, k, l in A.basis_labels():
        unit = np.zeros((2, 2), dtype=complex)
        unit[l, k] = 1.0
        images[p] = unit  # the transpose map is not CP
    with pytest.raises(NotCP):
        ksgns([E], [CPMap(A, E, images)], DEFAULT_TOL, BuildMemo())[0]


def test_ksgns_rejects_map_on_another_module_of_same_dim(rng):
    # phi acts on E; E2 has E's dimension but another action and pairing
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=4)
    phi = random_cp(AlgebraShape((2,)), E, rng)
    E2, _ = scramble_module(E, rng)
    assert E2.dim == E.dim
    with pytest.raises(ShapeMismatch):
        ksgns([E2], [phi], DEFAULT_TOL, BuildMemo())[0]


def test_homomorphism_dilates_trivially(rng):
    # when phi is already a unital *-homomorphism, V is unitary and
    # conjugates pi back to phi
    A = AlgebraShape((2,))
    B = AlgebraShape((1, 2))
    F, pi = random_representation(A, B, rng, max_dim=6)
    t = ksgns([F], [pi], DEFAULT_TOL, BuildMemo())[0]
    assert t.module.dim == F.dim
    assert unitarity_residual([t.embedding]) <= 1e-8
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
        t = ksgns([E], [phi], DEFAULT_TOL, BuildMemo())[0]
        rep = check_triple(t, DEFAULT_TOL)
        assert passed(rep), (seed, rep)
        assert spanning_rank(t, DEFAULT_TOL) == t.module.dim


def test_embedding_adjoint_formula(rng):
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    phi = random_cp(A, E, rng)
    t = ksgns([E], [phi], DEFAULT_TOL, BuildMemo())[0]
    Vs = adjoint_map(t.embedding).matrix
    # V*(class of a (x) y) = phi(a) y on random representatives
    for _ in range(20):
        a = random_element(A, rng)
        y = random_complex(rng, E.dim)
        pre = np.kron(a.coeffs(), y)
        lhs = Vs @ (t.q @ pre)
        rhs = phi(a.coeffs()).matrix @ y
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1 + element_norm(a))


def test_triple_uniqueness_identity_and_planted(rng):
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=4)
    phi = random_cp(A, E, rng)
    t = ksgns([E], [phi], DEFAULT_TOL, BuildMemo())[0]
    U, rep = triple_uniqueness_unitary(t, t, DEFAULT_TOL)
    assert passed(rep)
    assert operator_norm(U.matrix - np.eye(t.module.dim)) <= 1e-8
    Z = random_blinear_unitary(t.module, rng)
    t2 = conjugated_triple(t, Z)
    U, rep = triple_uniqueness_unitary(t, t2, DEFAULT_TOL)
    assert passed(rep), rep
    assert operator_norm(U.matrix - Z.matrix) <= 1e-8


def test_conjugated_triple_is_a_dilation():
    # the transported triple carries its own quotient data: q <- Z q, s <- s Z^-1
    rng = np.random.default_rng(3)
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=4)
    t = ksgns([E], [random_cp(AlgebraShape((2,)), E, rng)], DEFAULT_TOL, BuildMemo())[0]
    Z = random_blinear_unitary(t.module, rng)
    t2 = conjugated_triple(t, Z)
    rep = check_triple(t2, DEFAULT_TOL)
    assert passed(rep), rep
    assert np.allclose(t2.q @ t2.s, np.eye(t.module.dim))
    # the kernel and module are not copied: views of t's very bytes (pointer, shape and
    # strides, which also holds for an empty kernel, where np.shares_memory reads False)
    for a, b in [(t2.kernel, t.kernel), (t2.module.action, t.module.action),
                 (t2.module.gram_inv, t.module.gram_inv)]:
        assert a.__array_interface__ == b.__array_interface__
    assert np.shares_memory(t2.module.action, t.module.action)


# -- lifting -------------------------------------------------------------------


def test_lift_identity_is_identity(rng):
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    phi = random_cp(A, E, rng)
    t = ksgns([E], [phi], DEFAULT_TOL, BuildMemo())[0]
    ident = Intertwiner(identity_map(E), identity_automorphism(A))
    lifted = ksgns_lift([ident], [t], [t], DEFAULT_TOL)[0]
    assert operator_norm(lifted.eta.matrix - np.eye(t.module.dim)) <= 1e-10


def test_lift_of_unitary_is_unitary(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    E1 = random_module(B, rng, max_dim=4)
    phi1 = random_cp(A, E1, rng)
    E2, phi2, m = transported_copy(E1, phi1, rng)
    t1, t2 = ksgns([E1, E2], [phi1, phi2], DEFAULT_TOL, BuildMemo())
    lifted = ksgns_lift([m], [t1], [t2], DEFAULT_TOL)[0]
    assert unitarity_residual([lifted.eta]) <= 1e-8
    # with the lifted pair's whole morphism check, of which the lift suite records one
    rep = check_lift(m, lifted, t1, t2, DEFAULT_TOL)
    rep += check_morphism([lifted], [t1.pi], [t2.pi], DEFAULT_TOL)[0]
    assert passed(rep), rep


def test_lift_properties_and_contraction(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((1, 2))
    E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, max_dim=4)
    t1, t2 = ksgns([E1, E2], [phi1, phi2], DEFAULT_TOL, BuildMemo())
    lifted = ksgns_lift([m], [t1], [t2], DEFAULT_TOL)[0]
    rep = check_lift(m, lifted, t1, t2, DEFAULT_TOL)
    assert passed(rep), rep
    assert lifted.norm <= m.norm + 1e-8
    rep = check_morphism([lifted], [t1.pi], [t2.pi], DEFAULT_TOL)[0]
    assert passed(rep)


def test_lift_functoriality(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    E1 = random_module(B, rng, max_dim=3)
    phi1 = random_cp(A, E1, rng)
    E2, phi2, m1 = extend_morphism(E1, phi1, rng, DEFAULT_TOL)
    E3, phi3, m2 = extend_morphism(E2, phi2, rng, DEFAULT_TOL)
    t1, t2, t3 = ksgns([E1, E2, E3], [phi1, phi2, phi3], DEFAULT_TOL, BuildMemo())
    from ksgnslab.cp import compose_intertwiners

    lifted12 = ksgns_lift([m1], [t1], [t2], DEFAULT_TOL)[0]
    lifted23 = ksgns_lift([m2], [t2], [t3], DEFAULT_TOL)[0]
    lifted13 = ksgns_lift([compose_intertwiners(m2, m1)], [t1], [t3], DEFAULT_TOL)[0]
    resid = operator_norm(
        lifted13.eta.matrix - lifted23.eta.matrix @ lifted12.eta.matrix
    )
    assert resid <= 1e-8 * (1.0 + m1.norm * m2.norm)


# -- idempotency ---------------------------------------------------------------


def test_idempotency_dims_and_unitarity(rng):
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((2,)), rng, max_dim=3)
    phi = random_cp(A, E, rng)
    t = ksgns([E], [phi], DEFAULT_TOL, BuildMemo())[0]
    second = ksgns([t.module], [t.pi], DEFAULT_TOL, BuildMemo())[0]
    assert second.module.dim == t.module.dim
    rep = check_idempotency(second, t, DEFAULT_TOL)
    assert passed(rep), rep


def test_idempotency_naturality(rng):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, max_dim=3)
    t1, t2 = ksgns([E1, E2], [phi1, phi2], DEFAULT_TOL, BuildMemo())
    memo = BuildMemo()
    s1, s2 = (ksgns([t.module], [t.pi], DEFAULT_TOL, memo)[0] for t in (t1, t2))
    lifted = ksgns_lift([m], [t1], [t2], DEFAULT_TOL)[0]
    double = ksgns_lift([lifted], [s1], [s2], DEFAULT_TOL)[0]
    resid = operator_norm(
        s2.embedding.matrix @ lifted.eta.matrix - double.eta.matrix @ s1.embedding.matrix
    )
    assert resid <= 1e-8 * (1.0 + m.norm)


# -- continuity ----------------------------------------------------------------


def make_linear_path(rng, steps=20):
    A = AlgebraShape((2,))
    B = AlgebraShape((2,))
    E1, phi1, E2, phi2, m = random_morphism_pair(A, B, rng, max_dim=4)
    basis = intertwiner_space(phi1, phi2, m.alpha, DEFAULT_TOL)
    direction = basis[0]
    path = [
        Intertwiner(
            ModuleMap(E1, E2, m.eta.matrix + 0.1 * 4.0 ** (-k) * direction.matrix),
            m.alpha,
        )
        for k in range(1, steps + 1)
    ]
    samples = (
        random_vectors(E1, rng, 3),
        np.array([random_element(A, rng).coeffs() for _ in range(3)]),
    )
    return E1, phi1, E2, phi2, m, path, samples


def test_probe_constant_path_is_zero(rng):
    E1, phi1, E2, phi2, m, _, samples = make_linear_path(rng)
    t1, t2 = ksgns([E1, E2], [phi1, phi2], DEFAULT_TOL, BuildMemo())
    probe = continuity_probe([m] * 5, m, t1, t2, *samples, DEFAULT_TOL)
    assert max(probe.input_distances) == 0.0
    assert max(probe.lifted_distances) == 0.0
    assert probe_passed(probe)


def test_probe_linear_path_decays(rng):
    E1, phi1, E2, phi2, m, path, samples = make_linear_path(rng)
    t1, t2 = ksgns([E1, E2], [phi1, phi2], DEFAULT_TOL, BuildMemo())
    probe = continuity_probe(path, m, t1, t2, *samples, DEFAULT_TOL)
    assert probe_passed(probe)
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
    t = ksgns([F], [pi], DEFAULT_TOL, BuildMemo())[0]
    H = random_element(A, rng, hermitian=True)
    path = []
    for k in range(1, 21):
        eps = 1e-2 * 4.0 ** (-k)
        u_blocks = [herm_expi(eps * blk, DEFAULT_TOL) for blk in H.blocks]
        path.append(
            Intertwiner(
                pi(AlgebraElement(A, u_blocks).coeffs()), inner_automorphism(A, u_blocks)
            )
        )
    target = Intertwiner(identity_map(F), identity_automorphism(A))
    samples = (
        random_vectors(F, rng, 3),
        np.array([random_element(A, rng).coeffs() for _ in range(3)]),
    )
    probe = continuity_probe(path, target, t, t, *samples, DEFAULT_TOL)
    assert probe_passed(probe)
    assert probe.lifted_distances[-1] <= 1e-7


def test_probe_rejects_non_convergent_path(rng):
    E1, phi1, E2, phi2, m, path, samples = make_linear_path(rng)
    t1, t2 = ksgns([E1, E2], [phi1, phi2], DEFAULT_TOL, BuildMemo())
    off_target = Intertwiner(
        ModuleMap(E1, E2, m.eta.matrix + 0.5 * np.eye(E2.dim, E1.dim)), m.alpha
    )
    with pytest.raises(NonConvergentInput):
        continuity_probe(path, off_target, t1, t2, *samples, DEFAULT_TOL)


# -- uniqueness against an independently built dilation ------------------------


def default_cp_map(suite: str, idx: int) -> tuple:
    """(E, phi) of default instance idx of the ksgns or uniqueness suite."""
    payload = generate_instance(suite, SizeCaps(), instance_seed(20250809, suite, idx))
    if suite == "ksgns":
        E = ser.load_module(payload["module"])
        return E, ser.load_cpmap(payload["phi"], {"module": E})
    c = ser.load_equivariant(payload["correspondence"])
    return c.module, c.phi


def pulled_back(t2, E, phi, W: ModuleMap, alpha: np.ndarray):
    """A dilation t2 of a transported copy (E', phi') of (E, phi), (W, alpha) the
    transport, pulled back to (E, phi): pi(a) = pi'(alpha(a)) and V = V' W, with
    alpha the matrix of the automorphism."""
    images = np.einsum("qp,qij->pij", alpha, t2.pi.images)
    return dataclasses.replace(
        t2, source=E, phi=phi, pi=CPMap(phi.algebra, t2.module, images),
        embedding=ModuleMap(E, t2.module, t2.embedding.matrix @ W.matrix),
    )


@pytest.mark.parametrize("suite", ["ksgns", "uniqueness"])
@pytest.mark.parametrize("idx", range(10))
def test_uniqueness_against_a_dilation_of_a_transported_copy(suite, idx):
    # the transported copy is dilated afresh, on its own memo, so its Gram, null
    # space and quotient basis are its own; the matching unitary still exists
    # and is the lift of the transport.  Pulled back along the identity in
    # place of alpha, the match fails wherever alpha moves A
    E, phi = default_cp_map(suite, idx)
    A = phi.algebra
    t = ksgns([E], [phi], DEFAULT_TOL, BuildMemo())[0]
    E2, phi2, m = transported_copy(E, phi, np.random.default_rng(idx))
    t2 = ksgns([E2], [phi2], DEFAULT_TOL, BuildMemo())[0]
    U, records = triple_uniqueness_unitary(t, pulled_back(t2, E, phi, m.eta, m.alpha.matrix),
                                           DEFAULT_TOL)
    assert failing(records) == []
    lifted = ksgns_lift([m], [t], [t2], DEFAULT_TOL)[0]
    assert operator_norm(U.matrix - lifted.eta.matrix) <= 10 * DEFAULT_TOL.ctol
    _, control = triple_uniqueness_unitary(t, pulled_back(t2, E, phi, m.eta, np.eye(A.dim)),
                                           DEFAULT_TOL)
    moved = operator_norm(m.alpha.matrix - np.eye(A.dim)) > 10 * DEFAULT_TOL.ctol
    assert failing(control) == (["unitary", "representation_match"] if moved else [])
    # C has no other automorphism, and every other default A has a block M_n, n > 1
    assert moved == (A.dim > 1)


def test_ksgns_spaces_over_c_match_the_stinespring_dilation_of_their_kraus_operators():
    # every default ksgns and uniqueness instance with B = C: the KSGNS triple of
    # (E, phi) and the Stinespring triple built from the Kraus operators of phi's
    # Choi blocks, with no quotient code, are one dilation: the same dimension and
    # a unitary U with U V = V', U pi U* = pi' (Lance, Hilbert C*-Modules, ch. 5)
    pairs = []
    for suite in ("ksgns", "uniqueness"):
        for idx in range(10):
            payload = generate_instance(suite, SizeCaps(), instance_seed(20250809, suite, idx))
            if suite == "ksgns":
                E = ser.load_module(payload["module"])
                pairs.append((suite, E, ser.load_cpmap(payload["phi"], {"module": E})))
            else:
                c = ser.load_equivariant(payload["correspondence"])
                pairs.append((suite, c.module, c.phi))
    over_c = [(suite, E, phi) for suite, E, phi in pairs if E.algebra.blocks == (1,)]
    found = [suite for suite, _, _ in over_c]
    assert (found.count("ksgns"), found.count("uniqueness")) == (1, 4)
    for _, E, phi in over_c:
        t = ksgns([E], [phi], DEFAULT_TOL, BuildMemo())[0]
        oracle = stinespring_triple(E, phi)
        assert t.module.dim == oracle.module.dim
        _, records = triple_uniqueness_unitary(t, oracle, DEFAULT_TOL)
        assert [check for check, _, _ in records] == [
            "unitary", "representation_match", "embedding_match"]
        assert failing(records) == []
