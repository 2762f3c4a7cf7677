import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ksgnslab.cstar import (
    AlgebraShape,
    element_norms,
    identity_star_map,
    random_automorphism,
    random_element,
)
from ksgnslab.errors import (
    NonFinite, ShapeMismatch, SingularGram, SubmoduleViolation, TwistMismatch,
    WellDefinednessViolation,
)
from ksgnslab.generators import canonical_module, random_module, random_vectors
from ksgnslab.hilbert import (
    HilbertModule,
    ModuleMap,
    PreModule,
    adjoint_map,
    algebra_module,
    compose_maps,
    descend,
    identity_map,
    module_operator_norm,
    null_leak,
    pairing_coeffs,
    quotient_by_null,
    rank_one_sum,
)
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import DEFAULT_TOL, herm_eig, operator_norm
from ksgnslab.poscor import (
    composition_unitary,
    interior_tensor_along,
    twist_unitary,
    unitarity_residual,
    v_rho,
)
from ksgnslab.generators import random_star_map

from conftest import (
    action_matrix,
    adjoint_identity_residual,
    algebra_trace,
    alpha_transport,
    alpha_transport_inverse,
    basis_element,
    element_norm,
    from_coeffs,
    inclusion,
    inclusion_reference,
    lapack_calls,
    linearity_residual,
    mul,
    pair_reference,
    passed,
    quotient_one,
    random_complex,
    residuals,
    right_mult_matrix,
    scalar_module,
    star,
    star_map_images,
    sub,
    twisted_linearity_residual,
    validate_premodule,
    watch_lapack,
)


def standard_complex_module(d):
    """C^d over the scalars with the usual inner product."""
    return canonical_module(AlgebraShape((1,)), (d,))


def test_algebra_module_axioms():
    for blocks in [(1,), (2,), (1, 2)]:
        E = algebra_module(AlgebraShape(blocks))
        rep = validate_premodule(E)
        assert passed(rep), rep
        assert np.allclose(E.gram_matrix, np.eye(E.dim))


ALL_SHAPES = [(1,), (2,), (3,), (1, 2), (2, 3), (1, 1, 2)]


@pytest.mark.parametrize("blocks", ALL_SHAPES)
def test_algebra_module_action_matches_per_basis_build(blocks):
    B = AlgebraShape(blocks)
    reference = np.stack(
        [right_mult_matrix(basis_element(B, p)) for p in range(B.dim)]
    )
    assert np.array_equal(algebra_module(B).action, reference)


def test_random_module_axioms(rng):
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=6)
    rep = validate_premodule(E)
    assert passed(rep), rep


def test_pairing_matches_action_on_algebra_module():
    B = AlgebraShape((2,))
    E = algebra_module(B)
    rng = np.random.default_rng(0)
    a, b = random_element(B, rng), random_element(B, rng)
    pairing = from_coeffs(B, E.pair(a.coeffs(), b.coeffs()))
    assert element_norm(sub(pairing, mul(star(a), b))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(1,), (2,), (1, 2), (2, 1, 3)]))
def test_family_pairing_matches_per_couple_reference(seed, blocks):
    # one stacked call over a family gives each couple the bits of pairing it alone
    rng = np.random.default_rng(seed)
    E = random_module(AlgebraShape(blocks), rng, max_dim=7)
    X, Y = random_complex(rng, 2, 3, E.dim), random_complex(rng, 2, 3, E.dim)
    got = E.pair(X, Y)
    assert got.shape == (2, 3, E.algebra.dim)
    for idx in np.ndindex(2, 3):
        ref = pair_reference(E, X[idx], Y[idx]).coeffs()
        assert np.allclose(got[idx], ref, rtol=1e-13, atol=0.0)
        assert np.array_equal(got[idx], ref)
    norms = E.vector_norm(X)
    for idx in np.ndindex(2, 3):
        assert norms[idx] == np.sqrt(element_norm(pair_reference(E, X[idx], X[idx])))


def test_quotient_nondegenerate_input(rng):
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    quot = quotient_one(E)
    assert quot.module.dim == E.dim
    assert operator_norm(quot.q @ quot.s - np.eye(E.dim)) <= 1e-12


def test_quotient_zero_pairing():
    B = AlgebraShape((1,))
    d = 3
    pre = PreModule(
        B,
        d,
        np.stack([np.eye(d, dtype=complex)]),
        [np.zeros((d, d, 1, 1), dtype=complex)],
    )
    quot = quotient_one(pre)
    assert quot.module.dim == 0
    assert quot.kernel.shape == (3, 3)


def test_quotient_rank_one_gram():
    # scalars, two generators with <e_i, e_j> = 1 for all i, j
    B = AlgebraShape((1,))
    pre = PreModule(
        B,
        2,
        np.stack([np.eye(2, dtype=complex)]),
        [np.ones((2, 2, 1, 1), dtype=complex)],
    )
    # independent oracle: the scalar Gram is [[1,1],[1,1]], rank 1
    G = pre.gram()
    assert np.linalg.matrix_rank(G) == 1
    quot = quotient_one(pre)
    assert quot.module.dim == 1


def test_quotient_detects_non_invariant_kernel():
    # action moves the null direction out of the kernel
    B = AlgebraShape((1,))
    action = np.stack([np.eye(2, dtype=complex)])
    pairing = [np.zeros((2, 2, 1, 1), dtype=complex)]
    pairing[0][0, 0, 0, 0] = 1.0  # only e_0 has norm, e_1 is null
    bad = np.stack([np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)])
    pre = PreModule(B, 2, bad, pairing)
    with pytest.raises(SubmoduleViolation):
        quotient_one(pre)


def rank_two_quotient(rng):
    """Scalars on C^4 with a rank-2 Gram (two null directions): the quotient
    and the projectors onto the Gram range and kernel."""
    Y = random_complex(rng, 2, 4)
    G = Y.conj().T @ Y
    pre = PreModule(AlgebraShape((1,)), 4, np.eye(4, dtype=complex)[None], [G.reshape(4, 4, 1, 1)])
    quot = quotient_one(pre)
    ker = quot.kernel @ quot.kernel.conj().T
    return quot, np.eye(4) - ker, ker


def test_descend_on_rank_deficient_quotient(rng):
    quot, on_range, ker = rank_two_quotient(rng)
    assert quot.module.dim == 2 and quot.kernel.shape == (4, 2)
    # kernel-preserving: blockwise on range (+) kernel
    K = on_range @ random_complex(rng, 4, 4) @ on_range + ker @ random_complex(rng, 4, 4) @ ker
    got = descend([K], [quot], [quot], "probe map", DEFAULT_TOL)[0]
    assert np.array_equal(got, quot.q @ K @ quot.s)
    leaky = K + on_range @ random_complex(rng, 4, 4) @ ker
    with pytest.raises(WellDefinednessViolation, match="probe map leaks out of the null space") as alone:
        descend([leaky], [quot], [quot], "probe map", DEFAULT_TOL)[0]
    # a stack descends slice by slice; a leak in its second slice raises what it raises alone
    stack = np.stack([K, 2.0 * K])
    got = descend([stack], [quot], [quot], "probe map", DEFAULT_TOL)[0]
    assert np.array_equal(got, quot.q @ stack @ quot.s)
    with pytest.raises(WellDefinednessViolation) as stacked:
        descend([np.stack([K, leaky])], [quot], [quot], "probe map", DEFAULT_TOL)[0]
    assert str(stacked.value) == str(alone.value)


def test_descend_passes_frobenius_leak_within_spectral_gate(rng, monkeypatch):
    # leak q K kernel = 1e-7 W with W unitary: ||.||_F = 1.4e-7 > ctol, but
    # ||.||_2 = 1e-7 <= ctol * (1 + ||K||) with ||K|| >= 100
    quot, on_range, ker = rank_two_quotient(rng)
    K = 100.0 * (on_range @ random_complex(rng, 4, 4) @ on_range + ker)
    W, _ = np.linalg.qr(random_complex(rng, 2, 2))
    K = K + quot.s @ (1e-7 * W) @ quot.kernel.conj().T
    leak, gate = null_leak(quot.q, K, quot.kernel, DEFAULT_TOL)
    assert np.linalg.norm(quot.q @ K @ quot.kernel) > DEFAULT_TOL.ctol and leak <= gate
    calls = lapack_calls(monkeypatch)
    stack = np.stack([on_range, K])
    got = descend([stack], [quot], [quot], "probe map", DEFAULT_TOL)[0]
    assert np.array_equal(got, quot.q @ stack @ quot.s)
    assert any(c.routine == "eigvalsh" for c in calls)  # the exact path decided the second slice


def test_leak_messages_name_first_failing_slice(rng):
    # the same type and text as gating every slice with exact norms
    quot, on_range, ker = rank_two_quotient(rng)
    K = on_range + ker
    leaky = K + on_range @ random_complex(rng, 4, 4) @ ker
    stack = np.stack([K, leaky, 3.0 * leaky])
    leak, _ = null_leak(quot.q, stack, quot.kernel, DEFAULT_TOL)
    expected = f"probe map leaks out of the null space ({leak[1]:.3e})"
    with pytest.raises(WellDefinednessViolation) as err:
        descend([stack], [quot], [quot], "probe map", DEFAULT_TOL)[0]
    assert str(err.value) == expected
    # two basis elements of C + C; e_1 is null and u_1's action moves it onto e_0
    B = AlgebraShape((1, 1))
    pairing = [np.zeros((2, 2, 1, 1), dtype=complex), np.zeros((2, 2, 1, 1), dtype=complex)]
    pairing[0][0, 0, 0, 0] = 1.0
    action = np.stack([np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]])]).astype(complex)
    pre = PreModule(B, 2, action, pairing)
    q, kernel = np.array([[1.0, 0.0]]), np.array([[0.0], [1.0]])
    leak, _ = null_leak(q, action, kernel, DEFAULT_TOL)
    with pytest.raises(SubmoduleViolation) as err:
        quotient_one(pre)
    assert str(err.value) == (
        f"action of basis element 1 leaks out of the null space (residual {leak[1]:.3e})"
    )


def test_descend_rejects_non_finite_maps(rng):
    quot, _, _ = rank_two_quotient(rng)
    full = quotient_one(random_module(AlgebraShape((2,)), rng, max_dim=4))
    assert full.kernel.shape[1] == 0  # nullity 0: the leak stack is empty
    for q, d in ((quot, 4), (full, full.q.shape[1])):
        K = np.eye(d, dtype=complex)
        K[0, -1] = np.inf
        with pytest.raises(NonFinite):
            descend([K], [q], [q], "probe map", DEFAULT_TOL)[0]
        K[0, -1] = np.nan
        with pytest.raises(NonFinite):
            descend([np.stack([np.eye(d), K])], [q], [q], "probe map", DEFAULT_TOL)[0]


def test_gates_certify_valid_inputs_without_svd(rng, monkeypatch):
    quot, on_range, ker = rank_two_quotient(rng)
    K = on_range @ random_complex(rng, 4, 4) @ on_range + ker @ random_complex(rng, 4, 4) @ ker
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=4)
    M = random_complex(rng, 5, 5)

    def no_svd(routine, a):
        if routine in ("svd", "eigvalsh"):
            raise AssertionError(f"{routine} called")

    watch_lapack(monkeypatch, no_svd)
    descend([np.stack([K, 2.0 * K])], [quot], [quot], "probe map", DEFAULT_TOL)[0]
    quotient_one(E)
    herm_eig(M + M.conj().T, DEFAULT_TOL)


def test_constructions_descend_once_per_stack(rng, monkeypatch):
    # ksgns, tensor_extend_cpmap and dilate gate and compress their whole
    # stack (basis or group elements) in one descend call
    import importlib

    from ksgnslab import cp, equivariant, hilbert, poscor
    from ksgnslab.cp import random_cp
    from ksgnslab.equivariant import cyclic_group, dilate, random_equivariant
    from ksgnslab.generators import random_representation
    from ksgnslab.ksgns import ksgns
    from ksgnslab.poscor import interior_tensor

    ksgns_module = importlib.import_module("ksgnslab.ksgns")  # the package exports ksgns()

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[3])
        return descend(*args, **kwargs)

    for mod in (hilbert, cp, ksgns_module, poscor, equivariant):
        if hasattr(mod, "descend"):
            monkeypatch.setattr(mod, "descend", counting)
    A = AlgebraShape((2,))
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=4)
    phi = random_cp(A, E, rng)
    ksgns([E], [phi], DEFAULT_TOL, BuildMemo())[0]
    assert len(calls) == 1
    F, pi = random_representation(E.algebra, AlgebraShape((2,)), rng, max_dim=4)
    tm = interior_tensor([E], [F], [pi], DEFAULT_TOL, BuildMemo())[0]
    calls.clear()
    poscor.tensor_extend_cpmap([phi], [tm], DEFAULT_TOL, BuildMemo())[0]
    assert len(calls) == 1
    c = random_equivariant(A, A, cyclic_group(3), seed=5, copies=1)
    memo = BuildMemo()
    ksgns_module.ksgns([c.module], [c.phi], DEFAULT_TOL, memo)[0]
    calls.clear()
    dilate(c, DEFAULT_TOL, memo)
    assert calls == ["alpha_g (x) U_g"]


@pytest.mark.parametrize("blocks", [(2,), (1, 2)])
def test_antimultiplicativity_residual_matches_loop(blocks, rng):
    B = AlgebraShape(blocks)
    E = random_module(B, rng, max_dim=4)
    pre = PreModule(B, E.dim, random_complex(rng, B.dim, E.dim, E.dim), E.pairing)
    # reference: R(u_p u_r) - R(u_r) R(u_p) over every pair of matrix units
    ref = 0.0
    for p in range(B.dim):
        for r in range(B.dim):
            prod = mul(basis_element(B, p), basis_element(B, r))
            ref = max(ref, operator_norm(action_matrix(pre, prod) - pre.action[r] @ pre.action[p]))
    got = residuals(validate_premodule(pre))["action_antimultiplicative"]
    assert ref > 0.1
    assert got == pytest.approx(ref, rel=1e-12)


def test_adjoint_identity_and_involution(rng):
    B = AlgebraShape((1, 2))
    E1 = random_module(B, rng, max_dim=5)
    E2 = random_module(B, rng, max_dim=5)
    T = ModuleMap(E1, E1, random_complex(rng, E1.dim, E1.dim))
    # make it B-linear by averaging against the commutant basis
    from ksgnslab.cp import adjointable_commutant_basis, commutant_project

    basis = adjointable_commutant_basis(E1, DEFAULT_TOL)
    Tr = E1.gram_sqrt @ T.matrix @ E1.gram_isqrt
    T = ModuleMap(E1, E1, E1.gram_isqrt @ commutant_project(basis, Tr) @ E1.gram_sqrt)
    assert linearity_residual(T) <= 1e-10
    adj = adjoint_map(T)
    assert adjoint_identity_residual(T, adj) <= 1e-8 * (1.0 + module_operator_norm(T))
    again = adjoint_map(adj)
    assert operator_norm(again.matrix - T.matrix) <= 1e-10 * (1 + operator_norm(T.matrix))


def test_adjoint_is_conjugate_transpose_for_scalars():
    E = standard_complex_module(3)
    rng = np.random.default_rng(1)
    T = ModuleMap(E, E, random_complex(rng, 3, 3))
    assert np.allclose(adjoint_map(T).matrix, T.matrix.conj().T)


def test_adjoint_unique_under_perturbation(rng):
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    x, y, u, v = random_vectors(E, rng, 4)
    T = rank_one_sum(E, x[None], y[None])
    adj = adjoint_map(T)
    good = adjoint_identity_residual(T, adj)
    K = rank_one_sum(E, u[None], v[None])
    perturbed = ModuleMap(E, E, adj.matrix + 0.1 * K.matrix)
    assert adjoint_identity_residual(T, perturbed) >= 0.01 * module_operator_norm(K)
    assert good <= 1e-10


def test_module_operator_norm_examples(rng):
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    assert module_operator_norm(identity_map(E)) == pytest.approx(1.0)
    zero = ModuleMap(E, E, np.zeros((E.dim, E.dim)))
    assert module_operator_norm(zero) == 0.0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_module_norm_cstar_identity(seed):
    rng = np.random.default_rng(seed)
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=5)
    x, y = random_vectors(E, rng, 2)
    T = rank_one_sum(E, x[None], y[None])
    n = module_operator_norm(T)
    prod = compose_maps(adjoint_map(T), T)
    assert abs(n**2 - module_operator_norm(prod)) <= 1e-8 * (1.0 + n**2)


def test_rank_one_zero_and_scalar_case(rng):
    E = standard_complex_module(3)
    x, y = random_complex(rng, 3), random_complex(rng, 3)
    theta = rank_one_sum(E, x[None], y[None])
    assert np.allclose(theta.matrix, np.outer(x, y.conj()))
    zero = rank_one_sum(E, x[None], np.zeros((1, 3)))
    assert operator_norm(zero.matrix) == 0.0


def test_rank_one_definition_unfolds(rng):
    E = random_module(AlgebraShape((2,)), rng, max_dim=4)
    x, y, z = random_vectors(E, rng, 3)
    theta = rank_one_sum(E, x[None], y[None])
    explicit = action_matrix(E, from_coeffs(E.algebra, E.pair(y, z))) @ x
    assert np.linalg.norm(theta.matrix @ z - explicit) <= 1e-12


def test_rank_one_adjoint_swaps(rng):
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=5)
    x, y = random_vectors(E, rng, 2)
    theta = rank_one_sum(E, x[None], y[None])
    swapped = rank_one_sum(E, y[None], x[None])
    resid = operator_norm(adjoint_map(theta).matrix - swapped.matrix)
    assert resid <= 1e-10 * (1.0 + operator_norm(theta.matrix))


def _rank_one_loop(E, X, Y):
    """Reference: sum_r theta_{x_r, y_r} built column by column through E.pair."""
    cols = np.zeros((E.dim, E.dim), dtype=complex)
    eye = np.eye(E.dim)
    for x, y in zip(X, Y):
        for j in range(E.dim):
            cols[:, j] += action_matrix(E, from_coeffs(E.algebra, E.pair(y, eye[:, j]))) @ x
    return cols


@pytest.mark.parametrize("blocks", [(1,), (2,), (1, 2)])
def test_rank_one_sum_matches_pair_loop(blocks, rng):
    E = random_module(AlgebraShape(blocks), rng, max_dim=5)
    X, Y = random_complex(rng, 4, E.dim), random_complex(rng, 4, E.dim)
    C = pairing_coeffs(E, Y)
    assert C.shape == (4, E.algebra.dim, E.dim)
    for r in range(4):
        for j in range(E.dim):
            ref = E.pair(Y[r], np.eye(E.dim)[:, j])
            assert np.abs(C[r, :, j] - ref).max() <= 1e-13 * np.abs(ref).max()
    ref = _rank_one_loop(E, X, Y)
    assert np.abs(rank_one_sum(E, X, Y).matrix - ref).max() <= 1e-13 * np.abs(ref).max()
    one = _rank_one_loop(E, X[:1], Y[:1])
    theta = rank_one_sum(E, X[:1], Y[:1]).matrix
    assert np.abs(theta - one).max() <= 1e-13 * np.abs(one).max()
    assert not np.any(rank_one_sum(E, X, np.zeros_like(Y)).matrix)


def test_rank_one_sum_on_zero_module():
    E = canonical_module(AlgebraShape((1, 2)), (0, 0))
    assert E.dim == 0
    assert pairing_coeffs(E, np.zeros((3, 0))).shape == (3, E.algebra.dim, 0)
    assert rank_one_sum(E, np.zeros((3, 0)), np.zeros((3, 0))).matrix.shape == (0, 0)
    assert rank_one_sum(E, np.zeros((1, 0)), np.zeros((1, 0))).matrix.shape == (0, 0)


def test_cauchy_schwarz_scalarized(rng):
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=5)
    for _ in range(25):
        x, y = random_vectors(E, rng, 2)
        tr = [
            algebra_trace(from_coeffs(E.algebra, E.pair(u, v))) for u, v in ((x, y), (x, x), (y, y))
        ]
        lhs = abs(tr[0]) ** 2
        rhs = tr[1].real * tr[2].real
        assert lhs <= rhs + 1e-8


# -- twisting ----------------------------------------------------------------


def payload_modules(payload) -> list:
    """The dumped modules of a payload, wherever it nests them."""
    if isinstance(payload, dict):
        if {"algebra", "dim", "action", "pairing"} <= payload.keys():
            return [payload]
        payload = list(payload.values())
    if isinstance(payload, list):
        return [m for item in payload for m in payload_modules(item)]
    return []


def test_twist_identity_gives_inclusion():
    # the twist at the identity automorphism is the inclusion x (x) b -> x b,
    # bit for bit, on every module of the default suites' payloads
    from ksgnslab import serialize as ser
    from ksgnslab.harness import SUITE_NAMES, SizeCaps, generate_instance, instance_seed

    caps = SizeCaps()
    dumped = payload_modules([
        generate_instance(suite, caps, instance_seed(20250809, suite, idx))
        for suite in SUITE_NAMES for idx in range(caps.instances_per_suite)
    ])
    assert len(dumped) == 170
    for data in dumped:
        E = ser.load_module(data)
        tm, iota = inclusion(E)
        assert np.array_equal(iota.matrix, inclusion_reference(E, tm))


def test_twist_preserves_dimension_and_norm(rng):
    B = AlgebraShape((1, 2))
    E = algebra_module(B)
    alpha = random_automorphism(B, 17)
    ((tm, U),) = twist_unitary([E], [alpha], DEFAULT_TOL, BuildMemo())
    assert tm.module.dim == E.dim
    # U is alpha^-1-linear: U(z b) = U(z) alpha^-1(b)
    assert twisted_linearity_residual(U, tm.module, E, alpha.inverse_matrix) <= 1e-10
    for x in random_vectors(tm.module, rng, 50):
        assert abs(E.vector_norm(U @ x) - tm.module.vector_norm(x)) <= 1e-8


def test_twist_adjoint_identity(rng):
    B = AlgebraShape((2,))
    E = random_module(B, rng, max_dim=4)
    alpha = random_automorphism(B, 3)
    ((tm, U),) = twist_unitary([E], [alpha], DEFAULT_TOL, BuildMemo())
    U_inv = np.linalg.inv(U)
    for _ in range(10):
        x = random_complex(rng, E.dim)
        y = random_complex(rng, E.dim)
        lhs = E.pair(U @ x, y)
        rhs = alpha.inverse(tm.module.pair(x, U_inv @ y))
        assert element_norms(B, lhs - rhs) <= 1e-8


def test_alpha_transport_round_trip(rng):
    B = AlgebraShape((2,))
    E = algebra_module(B)
    alpha = random_automorphism(B, 5)
    # beta_g-style alpha-linear unitary on B: the automorphism itself
    T = alpha.matrix
    assert twisted_linearity_residual(T, E, E, alpha.matrix) <= 1e-12
    ((tm, U),) = twist_unitary([E], [alpha], DEFAULT_TOL, BuildMemo())
    plain = alpha_transport(T, E, alpha, alpha, tm, U)
    assert linearity_residual(plain) <= 1e-10
    assert unitarity_residual([plain]) <= 1e-10
    back = alpha_transport_inverse(plain, U)
    assert operator_norm(back - T) <= 1e-10


def test_alpha_transport_of_permutation_twist_unitary(rng):
    # a twisted unitary assembled as copy permutation times blockwise twist
    from ksgnslab.equivariant import direct_sum_module

    B = AlgebraShape((2,))
    alpha = random_automorphism(B, 21)
    E = direct_sum_module(algebra_module(B), 2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    T = np.kron(swap, alpha.matrix)
    assert twisted_linearity_residual(T, E, E, alpha.matrix) <= 1e-10
    ((tm, U),) = twist_unitary([E], [alpha], DEFAULT_TOL, BuildMemo())
    plain = alpha_transport(T, E, alpha, alpha, tm, U)
    assert unitarity_residual([plain]) <= 1e-8
    assert linearity_residual(plain) <= 1e-8
    back = alpha_transport_inverse(plain, U)
    assert operator_norm(back - T) <= 1e-8


def test_alpha_transport_twist_mismatch(rng):
    B = AlgebraShape((2,))
    E = algebra_module(B)
    alpha = random_automorphism(B, 6)
    beta = random_automorphism(B, 7)
    ((tm, U),) = twist_unitary([E], [beta], DEFAULT_TOL, BuildMemo())
    with pytest.raises(TwistMismatch):
        alpha_transport(alpha.matrix, E, alpha, beta, tm, U)


# -- inclusion, composition, v_rho --------------------------------------------


def test_inclusion_on_algebra_module():
    B = AlgebraShape((2,))
    E = algebra_module(B)
    tm, iota = inclusion(E)
    assert tm.module.dim == E.dim
    assert unitarity_residual([iota]) <= 1e-10
    # iota sends the class of 1 (x) b to b
    vr = v_rho([tm])[0]
    rng = np.random.default_rng(0)
    b = random_element(B, rng)
    assert np.linalg.norm(iota.matrix @ (vr @ b.coeffs()) - b.coeffs()) <= 1e-10


def test_inclusion_round_trip_on_vectors(rng):
    E = random_module(AlgebraShape((1, 2)), rng, max_dim=5)
    _, iota = inclusion(E)
    iota_star = adjoint_map(iota)
    for x in random_vectors(E, rng, 50):
        assert np.linalg.norm(iota.matrix @ (iota_star.matrix @ x) - x) <= 1e-8


def test_composition_unitary_identity_maps(rng):
    B = AlgebraShape((2,))
    E = random_module(B, rng, max_dim=4)
    ident = identity_star_map(B)
    memo = BuildMemo()
    tm = interior_tensor_along([E], [ident], DEFAULT_TOL, memo)[0]
    comp = composition_unitary([tm], [ident], [ident], DEFAULT_TOL, memo)[0]
    assert unitarity_residual([comp.unitary]) <= 1e-10
    assert comp.target.module.dim == comp.double.module.dim


def test_composition_unitary_random_chain(rng):
    B = AlgebraShape((2,))
    E = random_module(B, rng, max_dim=4)
    rho1 = random_star_map(B, rng, max_block=3, max_out_blocks=2)
    rho2 = random_star_map(rho1.codomain, rng, max_block=4, max_out_blocks=1)
    memo = BuildMemo()
    tm = interior_tensor_along([E], [rho1], DEFAULT_TOL, memo)[0]
    comp = composition_unitary([tm], [rho1], [rho2], DEFAULT_TOL, memo)[0]
    assert unitarity_residual([comp.unitary]) <= 1e-8
    assert comp.double.module.dim == comp.target.module.dim


def test_v_rho_is_contraction_and_twisted_linear(rng):
    B = AlgebraShape((2,))
    E = random_module(B, rng, max_dim=4)
    rho = random_star_map(B, rng, max_block=3)
    tm = interior_tensor_along([E], [rho], DEFAULT_TOL, BuildMemo())[0]
    vr = v_rho([tm])[0]
    for x in random_vectors(E, rng, 20):
        assert tm.module.vector_norm(vr @ x) <= E.vector_norm(x) + 1e-10
    for p in range(B.dim):
        lhs = vr @ E.action[p]
        rhs = action_matrix(tm.module, star_map_images(rho)[p]) @ vr
        assert operator_norm(lhs - rhs) <= 1e-10
    assert np.linalg.norm(vr @ np.zeros(E.dim)) == 0.0


def test_v_rho_chain_diagram(rng):
    B = AlgebraShape((1, 2))
    E = random_module(B, rng, max_dim=4)
    rho = random_star_map(B, rng, max_block=3, max_out_blocks=1)
    chi = random_star_map(rho.codomain, rng, max_block=4, max_out_blocks=1)
    memo = BuildMemo()
    comp = composition_unitary(
        [interior_tensor_along([E], [rho], DEFAULT_TOL, memo)[0]], [rho], [chi], DEFAULT_TOL, memo
    )[0]
    vr1 = v_rho([comp.inner])[0]
    vr2 = v_rho([comp.double])[0]
    vr12 = v_rho([comp.target])[0]
    resid = operator_norm(
        comp.unitary.matrix @ vr2 @ vr1 - vr12
    )
    assert resid <= 1e-8


def test_v_rho_square_diagram(rng):
    # (eta (x) I) . V'_chi = V_chi . eta for eta out of a tensored module
    from ksgnslab.equivariant import scramble_module
    from ksgnslab.poscor import tensor_extend_between

    B = AlgebraShape((2,))
    E = random_module(B, rng, max_dim=3)
    rho = random_star_map(B, rng, max_block=2, max_out_blocks=1)
    chi = random_star_map(rho.codomain, rng, max_block=3, max_out_blocks=1)
    memo = BuildMemo()
    comp = composition_unitary(
        [interior_tensor_along([E], [rho], DEFAULT_TOL, memo)[0]], [rho], [chi], DEFAULT_TOL, memo
    )[0]
    E2, S = scramble_module(comp.inner.module, rng)
    eta = ModuleMap(comp.inner.module, E2, np.linalg.inv(S))
    tm2 = interior_tensor_along([E2], [chi], DEFAULT_TOL, memo)[0]
    eta_hat = tensor_extend_between([eta], [comp.double], [tm2], DEFAULT_TOL)[0]
    vr_chi_prime = v_rho([comp.double])[0]
    vr_chi = v_rho([tm2])[0]
    resid = operator_norm(
        eta_hat.matrix @ vr_chi_prime - vr_chi @ eta.matrix
    )
    assert resid <= 1e-8


def test_quotient_kernel_vectors_are_null(rng):
    # every kernel vector z of the scalarized Gram has tau(<z, z>) ~ 0 and
    # the quotient Gram is positive definite
    from ksgnslab.cp import random_cp, tensor_premodule

    B = AlgebraShape((2,))
    E = random_module(B, rng, max_dim=3)
    A = AlgebraShape((2,))
    phi = random_cp(A, E, rng)
    stack = tensor_premodule([algebra_module(A)], [E], [phi])
    pre = PreModule(stack.algebra, stack.dim, stack.action[0], [P[0] for P in stack.pairing])
    quot = quotient_by_null(stack, DEFAULT_TOL)[0]
    G = pre.gram()
    lam_max = max(np.linalg.eigvalsh((G + G.conj().T) / 2).max(), 1.0)
    for k in range(quot.kernel.shape[1]):
        z = quot.kernel[:, k]
        assert abs(algebra_trace(from_coeffs(pre.algebra, pre.pair(z, z)))) <= 1e-8 * lam_max
    if quot.module.dim:
        w = np.linalg.eigvalsh(quot.module.gram_matrix)
        assert w[0] > 1e-10 * w[-1]


def test_dim_zero_module_everywhere():
    B = AlgebraShape((2,))
    E0 = canonical_module(B, (0,))
    assert E0.dim == 0
    tm, iota = inclusion(E0)
    assert tm.module.dim == 0
    assert module_operator_norm(iota) == 0.0
    vr = v_rho([tm])[0]
    assert vr.shape == (0, 0)


# -- the Gram spectrum ----------------------------------------------------------


def test_gram_power_inverse_square_root():
    M = random_complex(np.random.default_rng(0), 5, 5)
    G = M @ M.conj().T + np.eye(5)
    E = scalar_module(G)
    S, Si = E.gram_sqrt, E.gram_isqrt
    assert operator_norm(S @ S - G) <= 1e-10 * operator_norm(G)
    assert operator_norm(S @ Si - np.eye(5)) <= 1e-10
    assert operator_norm(E.gram_inv @ G - np.eye(5)) <= 1e-10


def test_module_takes_one_gram_eigendecomposition(monkeypatch):
    # the SingularGram gate and the three Gram powers read one spectrum
    M = random_complex(np.random.default_rng(1), 4, 4)
    G = M @ M.conj().T + np.eye(4)
    calls = lapack_calls(monkeypatch)
    E = scalar_module(G)
    E.gram_sqrt, E.gram_isqrt, E.gram_inv
    assert [c.routine for c in calls] == ["eigh"]


RTOL = DEFAULT_TOL.rtol


@pytest.mark.parametrize(
    "spectrum, shown",
    [
        ((1.0, 0.0), r"\[0\.000e\+00, 1\.000e\+00\]"),
        ((0.0, 0.0), r"\[0\.000e\+00, 0\.000e\+00\]"),
        ((-1.0, -2.0), r"\[-2\.000e\+00, -1\.000e\+00\]"),
    ],
)
def test_singular_gram_names_the_spectrum(spectrum, shown):
    with pytest.raises(SingularGram, match=r"Gram spectrum " + shown + " is not positive definite"):
        scalar_module(np.diag(spectrum))


def test_singular_gram_gate_sits_at_rtol():
    scalar_module(np.diag([1.0, 1.01 * RTOL]))
    with pytest.raises(SingularGram):
        scalar_module(np.diag([1.0, 0.99 * RTOL]))


@pytest.mark.parametrize("count", [1, 3])
def test_a_pairing_list_of_the_wrong_length_raises(count):
    # one pairing block per block of B = C (+) M_2: a zip over the blocks took
    # a short list as a module whose Gram and key read block 0 alone, here the
    # identity, and dropped a long list's extra block; a stack is gated too
    B = AlgebraShape((1, 2))
    action = np.zeros((B.dim, 2, 2), complex)
    blocks = [np.eye(2, dtype=complex).reshape(2, 2, 1, 1), np.zeros((2, 2, 2, 2), complex)]
    pairing = (blocks * 2)[:count]
    with pytest.raises(ShapeMismatch, match=rf"^{count} pairing blocks for 2 blocks of B$"):
        HilbertModule(B, 2, action, pairing)
    with pytest.raises(ShapeMismatch, match=rf"^{count} pairing blocks for 2 blocks of B$"):
        PreModule(B, 2, action[None], [P[None] for P in pairing])
