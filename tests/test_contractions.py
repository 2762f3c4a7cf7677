"""The explicit contractions of the construction layer against plain np.einsum,
and a whole checked pass that plans no einsum path."""

import numpy as np
import numpy._core.einsumfunc as einsumfunc
import pytest
from hypothesis import example, given, settings, strategies as st

from ksgnslab import equivariant
from ksgnslab import serialize as ser
from ksgnslab.cp import CPMap, random_cp, tensor_premodule
from ksgnslab import cstar
from ksgnslab.cstar import AlgebraShape
from ksgnslab.generators import random_module, random_representation, random_star_map
from ksgnslab.harness import (
    SUITE_NAMES,
    SizeCaps,
    check_instance,
    generate_instance,
    instance_seed,
    make_group,
)
from ksgnslab.hilbert import canonical_module, transport_pairing
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import DEFAULT_TOL
from ksgnslab.poscor import (
    commuting_unitary,
    composition_unitary,
    interior_tensor,
    interior_tensor_along,
)

from conftest import (
    commuting_pre_reference,
    composition_pre_reference,
    lapack_calls,
    random_complex,
    tensor_pairing_reference,
    transport_pairing_reference,
)


def assert_rounding_close(actual, desired, *operands):
    """Equal up to rounding: rtol 1e-13, and an atol of 1e-13 times the
    product of the operands' Frobenius norms, the scale of any sum of
    products of their entries."""
    scale = np.prod([np.linalg.norm(X) for X in operands])
    assert actual.shape == desired.shape
    np.testing.assert_allclose(actual, desired, rtol=1e-13, atol=1e-13 * scale)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 9), st.integers(0, 9), st.integers(1, 3), st.integers(0, 10**6))
@example(3, 0, 2, 0)  # r = 0: the section of a rank-0 quotient
@example(0, 0, 1, 0)
def test_transport_pairing_matches_einsum(d, r, n, seed):
    rng = np.random.default_rng(seed)
    s, P = random_complex(rng, d, min(r, d)), random_complex(rng, d, d, n, n)
    assert_rounding_close(transport_pairing(s, P), transport_pairing_reference(s, P), s, s, P)


@pytest.mark.parametrize("blocks", [(1,), (2,), (1, 2), (2, 1, 1)])
@pytest.mark.parametrize("case", ["random", "zero_left", "zero_pi"])
def test_tensor_premodule_pairing_matches_einsum(blocks, case, rng):
    B, C = AlgebraShape(blocks), AlgebraShape((1, 2))
    F, pi = random_representation(B, C, rng, max_dim=5)
    E = left_module(B, rng, empty=case == "zero_left")  # dE = 0 when empty
    if case == "zero_pi":  # the zero pairing: its quotient has rank 0
        pi = CPMap(B, F, np.zeros_like(pi.images))
    pre = tensor_premodule([E], [F], [pi])  # a stack of one
    reference = tensor_pairing_reference(E, F, pi)
    assert len(pre.pairing) == len(reference) == len(C.blocks)
    for P, R, PF in zip(pre.pairing, reference, F.pairing):
        assert_rounding_close(P[0], R, *E.pairing, pi.images, PF)


def left_module(B, rng, empty):
    """A random module over B of dimension 1 to 4, or the zero module."""
    return canonical_module(B, (0,) * len(B.blocks)) if empty else random_module(B, rng, 4)


@pytest.mark.parametrize("empty", [False, True])
@pytest.mark.parametrize("blocks", [(1,), (2,), (1, 2)])
def test_composition_unitary_pre_map_matches_einsum(blocks, empty, rng):
    B = AlgebraShape(blocks)
    E = left_module(B, rng, empty)
    rho1 = random_star_map(B, rng, max_block=3, max_out_blocks=2)
    rho2 = random_star_map(rho1.codomain, rng, max_block=4, max_out_blocks=2)
    memo = BuildMemo()
    tm12 = interior_tensor_along([E], [rho1], DEFAULT_TOL, memo)[0]
    comp = composition_unitary([tm12], [rho1], [rho2], DEFAULT_TOL, memo)[0]
    M = composition_pre_reference(comp, rho2)
    q, s = comp.target.q, comp.double.s
    assert_rounding_close(comp.unitary.matrix, q @ M @ s, q, tm12.s, rho2.matrix, s)


@pytest.mark.parametrize("empty", [False, True])
@pytest.mark.parametrize("blocks", [(1,), (2,), (1, 2)])
def test_commuting_unitary_pre_map_matches_einsum(blocks, empty, rng):
    A, B, C = AlgebraShape((2,)), AlgebraShape(blocks), AlgebraShape((1, 2))
    E = left_module(B, rng, empty)
    phi = random_cp(A, E, rng)
    F, pi = random_representation(B, C, rng, max_dim=4)
    tm = interior_tensor([E], [F], [pi], DEFAULT_TOL, BuildMemo())[0]
    cu = commuting_unitary([phi], [tm], DEFAULT_TOL, BuildMemo())[0]
    M = commuting_pre_reference(cu)
    q, s = cu.right.q, cu.left.s
    assert_rounding_close(cu.unitary.matrix, q @ M @ s, q, cu.triple.q, cu.tensor.s, s)


def test_checked_instances_plan_no_einsum_path(monkeypatch):
    # one default-caps instance of every suite, and one task of the
    # equivariant-dilation benchmark shape (M_2, one copy), built and checked
    calls = []
    real = einsumfunc.einsum_path

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(einsumfunc, "einsum_path", counting)
    monkeypatch.setattr(np, "einsum_path", counting)
    master = 20250809
    tasks = [
        (suite, generate_instance(suite, SizeCaps(), instance_seed(master, suite, 0)))
        for suite in SUITE_NAMES
    ]
    M2, seed = AlgebraShape((2,)), instance_seed(master, "equivariant", 0)
    c = equivariant.random_equivariant(M2, M2, make_group("Z3"), seed=seed, copies=1)
    payload = {"seed": seed, "group": "Z3", "correspondence": ser.dump_equivariant(c)}
    tasks += [("equivariant", payload), ("dilation", payload)]
    records = [r for suite, p in tasks for r in check_instance(suite, p, DEFAULT_TOL)]
    assert all(r.passed for r in records)
    # the patch sees the path einsum plans for itself: one call, after the pass
    np.einsum("ij,jk,kl->il", np.eye(2), np.eye(2), np.eye(2), optimize=True)
    assert calls == ["ij,jk,kl->il"]


def test_default_check_pass_stacks_algebra_data(monkeypatch):
    # one check pass over the 90 default-caps instances: algebra data travels
    # as coefficient stacks and norms as batched eigensolves, not one element or
    # one matrix at a time (the per-element design built 18,012 AlgebraElements
    # and made 7,227 SVD calls on this pass; norms now take eigvalsh of a
    # Gram where they took an SVD, so both routines count)
    master = 20250809
    tasks = [
        (suite, generate_instance(suite, SizeCaps(), instance_seed(master, suite, idx)))
        for suite in SUITE_NAMES
        for idx in range(SizeCaps().instances_per_suite)
    ]
    counts = {"elements": 0}
    real_init = cstar.AlgebraElement.__post_init__

    def counting_init(self):
        counts["elements"] += 1
        real_init(self)

    monkeypatch.setattr(cstar.AlgebraElement, "__post_init__", counting_init)
    routines = [c.routine for c in lapack_calls(monkeypatch)]
    records = [r for suite, p in tasks for r in check_instance(suite, p, DEFAULT_TOL)]
    assert len(tasks) == 90 and len(records) == 826
    assert all(r.passed for r in records)
    assert counts["elements"] <= 2000, counts
    svd_eigvalsh = routines.count("svd") + routines.count("eigvalsh")
    assert svd_eigvalsh <= 4000, svd_eigvalsh
