"""The equivariant pipeline stacked over the group equals its group loops.

Twist tensors, commuting and categorical dilation unitaries, the KSGNS
functor and the functor laws are built as stacks over G (or over the Cayley
table); conftest keeps the loops they replaced, one group element or pair at
a time.  Batched eigh and stacked products give every slice the bits of a
call of its own, so the comparisons are exact.  A corrupted slice must still fail its gate,
named by its slice, and a check pass must keep its LAPACK call count.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksgnslab import cp, hilbert
from ksgnslab.cp import interior_tensor
from ksgnslab.cstar import AlgebraShape
from ksgnslab.equivariant import (
    DynamicalSystem,
    categorical_dilation_unitary,
    check_functor_laws,
    correspondence_to_functor,
    cyclic_group,
    dilate,
    dilated_correspondence,
    random_equivariant,
    symmetric_group,
    trivial_group,
)
from ksgnslab.errors import (
    NonFinite, ShapeMismatch, SingularGram, SubmoduleViolation, TwistMismatch, ValidationError,
    WellDefinednessViolation,
)
from ksgnslab.generators import random_module, random_representation
from ksgnslab.harness import (
    SizeCaps, _load_category, check_instance, generate_instance, instance_seed, make_group,
)
from ksgnslab.hilbert import HilbertModule, PreModule, descend, quotient_by_null
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import DEFAULT_TOL, Split
from ksgnslab.poscor import ksgns_functor, morphism_shape, twist_unitary
from ksgnslab.serialize import dump_equivariant, load_equivariant

from conftest import (
    assert_built_alone,
    categorical_unitaries_reference,
    functor_laws_reference,
    lapack_calls,
    passed,
    poscor_key,
    quotient_one,
    residuals,
    thresholds,
    twist_unitaries_reference,
)

M2 = AlgebraShape((2,))
GROUPS = {
    "E": trivial_group(), "Z2": cyclic_group(2), "Z3": cyclic_group(3),
    "Z4": cyclic_group(4), "S3": symmetric_group(3),
}


def quotient_parts(tm):
    return [tm.q, tm.s, tm.kernel, tm.module.action, *tm.module.pairing]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(GROUPS)), st.integers(0, 10**6), st.booleans())
@example("S3", 11, False)  # a genuine S3 representation: six distinct beta_g
@example("S3", 11, True)  # trivial beta: one twist tensor content for all g
@example("E", 3, False)
def test_stacks_equal_the_group_loops(gname, seed, trivial_beta):
    c = random_equivariant(M2, M2, GROUPS[gname], seed=seed, copies=1, trivial_beta=trivial_beta)
    memo = BuildMemo()
    tms, stacked = zip(*twist_unitary(
        [c.module] * c.group.order, c.system_out.action, DEFAULT_TOL, memo))
    stacked = np.array(stacked)
    assert stacked.shape == (c.group.order, c.module.dim, c.module.dim)
    for tm, U, (ref_tm, ref_U) in zip(tms, stacked, twist_unitaries_reference(c), strict=True):
        assert tm.module.dim == c.module.dim  # E (x)_beta B is the twist E_beta
        for a, b in zip(quotient_parts(tm), quotient_parts(ref_tm), strict=True):
            assert np.array_equal(a, b)
        assert np.array_equal(U, ref_U)
    quad = dilate(c, DEFAULT_TOL, memo)
    cats = categorical_dilation_unitary(c, DEFAULT_TOL, memo)
    assert cats.shape == (c.group.order, quad.module.dim, quad.module.dim)
    assert all(map(np.array_equal, cats, categorical_unitaries_reference(c, quad)))
    functor = correspondence_to_functor(c, DEFAULT_TOL, memo)
    rep = check_functor_laws(c, functor, DEFAULT_TOL, memo)
    ref = functor_laws_reference(c, functor)
    assert passed(rep), rep
    assert residuals(rep) == residuals(ref)
    assert thresholds(rep) == thresholds(ref)


def assert_functor_slices_stand_alone(ms):
    """ksgns_functor over a same-shape stack gives each slice the bits of
    ksgns_functor on a stack of one, on a fresh memo."""
    stacked = ksgns_functor(ms, DEFAULT_TOL, BuildMemo())
    for k, m in zip(stacked, ms, strict=True):
        alone = ksgns_functor([m], DEFAULT_TOL, BuildMemo())[0]
        assert poscor_key(k) == poscor_key(alone)
        assert np.array_equal(k.eta.matrix, alone.eta.matrix)
        assert np.array_equal(k.vrho, alone.vrho)


def test_ksgns_functor_slices_equal_stacks_of_one():
    # the genuine-S3 functor stack: six F(g) along six distinct beta_g
    c = random_equivariant(M2, M2, symmetric_group(3), seed=11, copies=1)
    functor = correspondence_to_functor(c, DEFAULT_TOL, BuildMemo())
    assert_functor_slices_stand_alone(functor)
    # category instance 0's loaded morphisms, one stack per morphism shape
    payload = generate_instance("category", SizeCaps(), instance_seed(20250809, "category", 0))
    _, morphisms = _load_category(payload, DEFAULT_TOL, BuildMemo())
    stacks = {}
    for m in morphisms:
        stacks.setdefault(morphism_shape(m), []).append(m)
    assert max(map(len, stacks.values())) > 1
    for ms in stacks.values():
        assert_functor_slices_stand_alone(ms)


@pytest.mark.parametrize(
    "trivial_beta, builds",
    # genuine S3: the six twist tensors, the inclusion tensor of the unit
    # law and the double tensors of the Cayley table, each one stacked
    # build: 30, since two twist tensors written in closed form are one
    # content (5 x 6); trivial beta: one twist tensor content, which the
    # unit law reuses, and one double tensor content
    [(False, [6, 1, 30]), (True, [1, 1])],
)
def test_one_stacked_build_per_shape(monkeypatch, trivial_beta, builds):
    c = random_equivariant(M2, M2, symmetric_group(3), seed=11, copies=1, trivial_beta=trivial_beta)
    slices = []
    real = cp.tensor_quotients

    def counting(E, F, pi, tol):  # one call per build, on the memo's misses
        slices.append(len(E))
        return real(E, F, pi, tol)

    monkeypatch.setattr(cp, "tensor_quotients", counting)
    memo = BuildMemo()
    functor = correspondence_to_functor(c, DEFAULT_TOL, memo)
    assert passed(check_functor_laws(c, functor, DEFAULT_TOL, memo))
    assert slices == builds


# -- one stack, one shape ----------------------------------------------------------


def test_mixed_shape_stacks_name_the_slice(rng):
    # a builder that checkers stack, such as interior_tensor, groups a request
    # of mixed shapes into one stack per shape, each slice with the bits of its
    # own build; below it a stack's slices share a shape, and a slice of another
    # shape raises where the stack is formed, named by its position
    B = AlgebraShape((2,))
    E = [random_module(B, rng, max_dim=d) for d in (2, 4)]
    assert E[0].dim != E[1].dim
    F, pi = random_representation(B, M2, rng, max_dim=4)
    tms = interior_tensor(E, [F, F], [pi, pi], DEFAULT_TOL, BuildMemo())
    assert_built_alone(tms, [interior_tensor([e], [F], [pi], DEFAULT_TOL, BuildMemo())[0]
                             for e in E])
    quots = [quotient_one(e) for e in E]
    with pytest.raises(ShapeMismatch, match=r"^slice 1 has shape "):
        descend([np.eye(e.dim) for e in E], quots, quots, "probe map", DEFAULT_TOL)


@pytest.mark.parametrize("ranks", [[1, 2], [2, 1, 1, 2]], ids=["two", "four"])
def test_a_stack_of_two_ranks_keeps_each_slices_bits(ranks):
    # scalars on C^2: a slice of rank 1 pairs every couple to 1, one of rank 2
    # is the standard pairing; the whole Grams' one rank decision splits the
    # stack by rank, each slice with the bits of its own quotient
    gram = {1: np.ones((2, 2)), 2: np.eye(2)}
    pairing = np.stack([gram[r] for r in ranks]).reshape(-1, 2, 2, 1, 1).astype(complex)
    action = np.broadcast_to(np.eye(2, dtype=complex), (len(ranks), 1, 2, 2))
    pre = PreModule(AlgebraShape((1,)), 2, action, [pairing])
    quots = quotient_by_null(pre, DEFAULT_TOL)
    assert [quot.module.dim for quot in quots] == ranks
    assert_built_alone(quots, [quotient_one(PreModule(pre.algebra, 2, action[k], [pairing[k]]))
                               for k in range(len(ranks))])


def test_a_leak_in_a_stack_of_two_ranks_names_its_input_slice():
    # over C (+) C: slice 0 the standard pairing on block 0 (rank 2), slice 1
    # Gram diag(1, 0) with R(e_0) swapping the coordinates, so the kernel leaks;
    # slice 1 is the first of its rank, and the message names it by its input place
    action = np.zeros((2, 2, 2, 2), dtype=complex)
    action[0, 0], action[1, 0] = np.eye(2), [[0, 1], [1, 0]]
    pairing = np.zeros((2, 2, 2, 1, 1), dtype=complex)
    pairing[0, :, :, 0, 0], pairing[1, 0, 0] = np.eye(2), 1.0
    pre = PreModule(AlgebraShape((1, 1)), 2, action, [pairing, np.zeros_like(pairing)])
    with pytest.raises(SubmoduleViolation, match=r"^action of basis element 0 leaks out of the "
                       r"null space in slice 1 \(residual 1\.0"):
        quotient_by_null(pre, DEFAULT_TOL)


def test_stacked_quotient_spectra_equal_modules_built_alone(monkeypatch):
    # quotient_by_null takes one batched eigh over a stack's quotient Grams,
    # and column_quotients writes their spectra in closed form: every
    # quotient the genuine-S3 functor and its laws build in a stack (the six
    # twist tensors E (x)_beta_g B, the 30 double tensor contents of the
    # Cayley table) has the Gram matrix, spectrum and powers of a
    # HilbertModule built alone from its action and pairing, and each slice,
    # a view of its stack, has the bits of the tensor built alone from its
    # own E, F and pi: quotient maps, action, pairing, spectrum and powers
    stacks, builds = [], []
    for name in ("quotient_by_null", "column_quotients"):
        def recording(*args, _real=getattr(cp, name), _name=name):
            stacks.append((_name, _real(*args)))
            return stacks[-1][1]

        monkeypatch.setattr(cp, name, recording)

    def building(E, F, pi, tol, _real=cp.tensor_quotients):
        builds.append((E, F, pi, _real(E, F, pi, tol)))
        return builds[-1][-1]

    monkeypatch.setattr(cp, "tensor_quotients", building)
    c, memo = s3_instance(), BuildMemo()
    functor = correspondence_to_functor(c, DEFAULT_TOL, memo)
    assert passed(check_functor_laws(c, functor, DEFAULT_TOL, memo))
    stacks = [quots for _, quots in stacks]
    assert [len(quots) for quots in stacks if len(quots) > 1] == [6, 30]
    stacked = [q.module for quots in stacks for q in quots]
    for E in stacked:
        alone = HilbertModule(E.algebra, E.dim, E.action, E.pairing)
        for name in ("gram_matrix", "gram_sqrt", "gram_isqrt", "gram_inv"):
            assert np.array_equal(getattr(E, name), getattr(alone, name)), name
        for a, b in zip(E.gram_spectrum, alone.gram_spectrum, strict=True):
            assert np.array_equal(a, b)
    monkeypatch.undo()
    sliced = [slc for *ins, tms in builds if len(tms) > 1 for slc in zip(*ins, tms)]
    assert len(sliced) == 36
    for E, F, pi, tm in sliced:
        alone = cp.tensor_quotients([E], [F], [pi], DEFAULT_TOL)[0]
        for a, b in zip(quotient_parts(tm), quotient_parts(alone), strict=True):
            assert np.array_equal(a, b)
        for name in ("gram_matrix", "gram_sqrt", "gram_isqrt", "gram_inv"):
            assert np.array_equal(getattr(tm.module, name), getattr(alone.module, name)), name
        for a, b in zip(tm.module.gram_spectrum, alone.module.gram_spectrum, strict=True):
            assert np.array_equal(a, b)


def test_singular_quotient_gram_in_a_stack_raises(monkeypatch):
    # scalars on C^2, slice i pairing every couple to 1 (Gram rank 1), the
    # others the standard pairing; a rank decision that keeps slice i's null
    # vector leaves its quotient Gram singular, which the gate on the stack's
    # batched spectrum rejects, naming slice i
    def keeping_everything(G, tol):
        return [(np.full(len(G), 2), *np.linalg.eigh(G))]

    monkeypatch.setattr(hilbert, "rank_kernel", keeping_everything)
    action = np.broadcast_to(np.eye(2, dtype=complex), (3, 1, 2, 2))
    for i in (1, 2):
        pairing = np.stack([np.eye(2)] * 3).astype(complex)
        pairing[i] = 1.0
        pairing = pairing.reshape(3, 2, 2, 1, 1)
        pre = PreModule(AlgebraShape((1,)), 2, action, [pairing])
        head = PreModule(pre.algebra, 2, action[:1], [pairing[:1]])
        assert quotient_by_null(head, DEFAULT_TOL)[0].module.dim == 2
        with pytest.raises(SingularGram, match=rf"\] in slice {i} is not positive definite$"):
            quotient_by_null(pre, DEFAULT_TOL)


@pytest.mark.parametrize("i", [0, 2])
@pytest.mark.parametrize("where", ["action", "pairing"])
def test_a_nan_in_any_slice_of_a_stack_raises(monkeypatch, where, i):
    # a stack is checked once, where it is built: a NaN in slice i of a
    # module stack, of a pre-module stack on its way to a quotient, or of the
    # eigenvectors a quotient stack is built on raises NonFinite
    c = s3_instance()
    (tm, _), *_ = twist_unitary([c.module] * 3, c.system_out.action[:3], DEFAULT_TOL, BuildMemo())
    E = tm.stack.module
    action, pairing = E.action.copy(), [P.copy() for P in E.pairing]
    (action if where == "action" else pairing[0])[i, 0, 0, 0] = np.nan
    with pytest.raises(NonFinite, match=f"^module {where} contains NaN"):
        HilbertModule(E.algebra, E.dim, action, pairing, E.gram_spectrum)
    with pytest.raises(NonFinite):
        quotient_by_null(PreModule(E.algebra, E.dim, action, pairing), DEFAULT_TOL)
    real = hilbert.rank_kernel

    def planting(G, tol):
        (ranks, w, V), = real(G, tol)
        V = V.copy()
        V[i, 0, -1] = np.nan  # in slice i's range basis
        return [(ranks, w, V)]

    monkeypatch.setattr(hilbert, "rank_kernel", planting)
    with pytest.raises(NonFinite):
        quotient_by_null(PreModule(E.algebra, E.dim, E.action, E.pairing), DEFAULT_TOL)


@pytest.mark.parametrize("field", ["module", "phi", "unitaries"])
def test_a_nan_in_a_loaded_payload_is_rejected_on_load(field):
    # payloads enter through serialize, which checks every matrix finite
    data = dump_equivariant(s3_instance())
    target = {"module": data["module"]["action"][0], "phi": data["phi"]["images"][1],
              "unitaries": data["unitaries"][2]}[field]
    target[0][0][0] = float("nan")
    with pytest.raises(ValidationError, match="non-finite"):
        load_equivariant(data)


def test_supplied_gram_spectrum_of_another_dimension_raises():
    # a spectrum handed to HilbertModule must have the module's dimension
    E = random_module(AlgebraShape((2,)), np.random.default_rng(3), max_dim=3)
    w, V = np.linalg.eigh(np.eye(E.dim + 1))
    with pytest.raises(ShapeMismatch, match=r"^Gram spectrum of shapes"):
        replace(E, gram_spectrum=(w, V))
    assert np.array_equal(replace(E).gram_spectrum[0], E.gram_spectrum[0])


# -- a corrupted slice fails its stacked gate, by name ---------------------------


def s3_instance():
    return random_equivariant(M2, M2, symmetric_group(3), seed=11, copies=1)


def test_corrupted_beta_names_its_pair():
    c = s3_instance()
    functor = correspondence_to_functor(c, DEFAULT_TOL, BuildMemo())
    G, action = c.group, list(c.system_out.action)
    action[4] = action[3]
    bad = replace(c, system_out=DynamicalSystem(M2, G, action))
    defect = [
        (g, h) for g in range(G.order) for h in range(G.order)
        if np.abs(action[g].matrix @ action[h].matrix - action[G.mul(g, h)].matrix).max() > 1e-6
    ]
    g, h = defect[0]
    with pytest.raises(TwistMismatch, match=rf"^beta_{g} beta_{h} and beta_{G.mul(g, h)} "):
        check_functor_laws(bad, functor, DEFAULT_TOL, BuildMemo())


def corrupt_unitary(c, g):
    unitaries = list(c.unitaries)
    d = len(unitaries[g])
    unitaries[g] = unitaries[g] + 1e-3 * np.arange(d * d).reshape(d, d)
    return replace(c, unitaries=unitaries)


@pytest.mark.parametrize("g", [1, 4])
def test_corrupted_unitary_names_its_slice(g):
    c = s3_instance()
    # the composites stack the Cayley table row by row, slice g' |G| + h:
    # F(0) F(g) is the first composite that reads eta_g
    bad = corrupt_unitary(c, g)
    functor = correspondence_to_functor(bad, DEFAULT_TOL, BuildMemo())
    with pytest.raises(WellDefinednessViolation, match=rf"^T \(x\) I .* in slice {g} "):
        check_functor_laws(bad, functor, DEFAULT_TOL, BuildMemo())
    # the dilated correspondence has a representation for phi, whose KSGNS
    # space has null vectors for a corrupted unitary to leak
    dilated = dilated_correspondence(dilate(c, DEFAULT_TOL, BuildMemo()))
    bad = corrupt_unitary(dilated, g)
    # the dilation descends alpha_g (x) U_g as one stack over the group
    with pytest.raises(WellDefinednessViolation, match=rf"^alpha_g \(x\) U_g .* in slice {g} "):
        dilate(bad, DEFAULT_TOL, BuildMemo())
    # the categorical lift stacks alpha_g (x) eta_g over the group
    with pytest.raises(WellDefinednessViolation, match=rf"^alpha \(x\) eta .* in slice {g} "):
        categorical_dilation_unitary(bad, DEFAULT_TOL, BuildMemo())


@pytest.mark.parametrize("g", [2, 5])
def test_corrupted_null_vector_names_its_slice(monkeypatch, g):
    # a range vector planted among the kernel vectors of slice g of the
    # twist stack: the action carries it out of the kernel
    real = hilbert.rank_kernel

    def corrupting(G, tol=DEFAULT_TOL):
        splits = real(G, tol)
        if isinstance(G, Split) and len(G.blocks[0]) == 6:  # the twist tensors' blocks
            ranks, w, V = splits[0]
            V = V.copy()
            V[g, :, 0] = V[g, :, -1]  # the top range vector as kernel vector 0
            splits[0] = ranks, w, V
        return splits

    monkeypatch.setattr(hilbert, "rank_kernel", corrupting)
    c = s3_instance()
    with pytest.raises(SubmoduleViolation, match=rf"leaks out of the null space in slice {g} "):
        correspondence_to_functor(c, DEFAULT_TOL, BuildMemo())


# -- LAPACK call count of a check pass ----------------------------------------------


def test_check_pass_eigh_count(monkeypatch):
    # the criterion-08 task shape (M_2, one copy, Z2/Z3/Z4/S3 five times
    # each, every correspondence through the equivariant and the dilation
    # suites), counting both Hermitian eigen drivers: 1,260 eigh calls per
    # check pass with one build per group element or pair; 280 eigh and 780
    # eigvalsh stacked, with each module's Gram decomposed twice; 860 eigh
    # and 60 eigvalsh with one Gram spectrum per module; 360 eigh with one
    # batched eigh per stack of quotients and C over itself built once per
    # instance; 260 with the tensors along C over itself written in closed
    # form, with no eigh of their quotient Grams.  The eigh matrices' sum of
    # n^3: 20.06M with every rank decision on its whole Gram, 3.39M with one
    # eigh per distinct block of the tensors along C over itself; 2.77M with
    # the 16-wide KSGNS quotients split by the blocks of A over itself as
    # well, which then took more time than it saved below a width of 40;
    # 3.09M with no quotient-Gram eigh after a column split; 2.47M with the
    # structure alone choosing the quotient, at every width.  SVD matrices: 26,885 with every
    # slice's norm taken, 6,445 with certified maxima, 4,447 with check_cp's
    # linearity gate certified and the group law a certified maximum, 20 (the
    # spanning SVDs) with operator norms from the smaller Gram's eigvalsh, which
    # adds 624 eigvalsh calls to the 60 PSD verdicts; 500 with the Gram-power
    # bounds' one eigensolve per batch in place of the Frobenius certificate's
    # two, and one norm batch each per check_equivariant (its representation
    # law and Gram scale included), check_triple and check_correspondence
    tasks = []
    for idx in range(20):
        gname = ("Z2", "Z3", "Z4", "S3")[idx % 4]
        seed = instance_seed(20250809, "equivariant", idx)
        c = random_equivariant(M2, M2, make_group(gname), seed=seed, copies=1)
        payload = {"seed": seed, "group": gname, "correspondence": dump_equivariant(c)}
        tasks += [("equivariant", payload), ("dilation", payload)]
    calls = lapack_calls(monkeypatch)
    for suite, payload in tasks:
        assert all(r.passed for r in check_instance(suite, payload, DEFAULT_TOL))
    routines = [c.routine for c in calls]
    assert routines.count("eigh") <= 270, routines.count("eigh")
    assert routines.count("eigvalsh") <= 500, routines.count("eigvalsh")
    cubes = sum(c.matrices * c.width**3 for c in calls if c.routine == "eigh")
    assert cubes <= 2_500_000, cubes
    svd_matrices = sum(c.matrices for c in calls if c.routine == "svd")
    assert svd_matrices <= 20, svd_matrices
