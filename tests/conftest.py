"""Fixtures and test oracles: reference implementations the tests compare the
package against, and generators of planted cases the package never draws."""

import itertools
import sys
from typing import NamedTuple

import numpy as np
import pytest

from ksgnslab import hilbert, numkernel
from ksgnslab.cp import CPMap, Intertwiner, tensor_premodule
from ksgnslab.cstar import (
    AlgebraElement,
    AlgebraShape,
    Automorphism,
    StarMap,
    block_diag,
    element_norms,
    zero_padded,
)
from ksgnslab.errors import KsgnslabError, TwistMismatch
from ksgnslab.hilbert import (
    HilbertModule,
    ModuleMap,
    ModuleView,
    PreModule,
    Quotient,
    adjoint_map,
    pairing_coeffs,
    quotient_by_null,
    unitarity_residual,
)
from ksgnslab.ksgns import KsgnsTriple, ProbeReport, ksgns_lift
from ksgnslab.memo import BuildMemo, content_key
from ksgnslab.numkernel import (
    DEFAULT_TOL, Tolerance, max_operator_norm, operator_norm, summarize,
)
from ksgnslab.poscor import (
    PosCorObject,
    check_poscor_morphism,
    commuting_unitary,
    morphism_distance,
    poscor_compose,
    poscor_identity,
    tensor_extend_between,
    twist_unitary,
    v_rho,
)


def passed(records) -> bool:
    """A checker's verdict: the summary of its records (check, residual,
    threshold) passes."""
    residual, threshold = summarize(records)
    return residual <= threshold


def residuals(records) -> dict:
    """{check: residual} of a checker's records."""
    return {check: residual for check, residual, _ in records}


def thresholds(records) -> dict:
    """{check: threshold} of a checker's records."""
    return {check: threshold for check, _, threshold in records}


def failing(records) -> list:
    """The checks whose residual exceeds their threshold, in record order."""
    return [check for check, residual, threshold in records if residual > threshold]


def poscor_key(x) -> bytes:
    """Content digest of a category object (its label, input algebra, module
    and phi) or morphism (its endpoints', rho, eta with its modules, and
    alpha): two builds of equal content have equal digests."""
    if isinstance(x, PosCorObject):
        return content_key(x.ident, x.input_algebra.blocks, x.module.key, x.phi.key)
    return content_key(
        poscor_key(x.dom),
        poscor_key(x.cod),
        x.rho.key,
        x.eta.source.key,
        x.eta.target.key,
        x.eta.matrix,
        x.alpha.matrix,
        x.alpha.inverse_matrix,
    )


@pytest.fixture
def tol():
    return Tolerance()


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


def random_complex(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def count_calls(monkeypatch, module, *names: str) -> list[str]:
    """Wrap each named function of module so that every call appends its
    name to the returned list, in call order."""
    calls = []
    for name in names:
        def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


class LapackCall(NamedTuple):
    """One LAPACK call, as lapack_calls records it."""

    routine: str
    site: str
    entry: str
    kind: str
    matrices: int
    width: int


def watch_lapack(monkeypatch, observe) -> None:
    """From here on, call observe(routine, a) before each LAPACK call numkernel's
    seam makes: routine "eigh", "eigvalsh" or "svd", and a the stack it takes.
    An observe that raises stops the call."""
    real = numkernel.lapack

    def watching(kernel, a):
        observe(kernel.split("_")[0], a)
        return real(kernel, a)

    monkeypatch.setattr(numkernel, "lapack", watching)


def lapack_calls(monkeypatch) -> list[LapackCall]:
    """Record every svd, eigh and eigvalsh call that reaches LAPACK from here on
    (order-1 eigensolves do not): the routine; the site, "module.function" of
    the innermost ksgnslab function outside numkernel that led to it (a
    comprehension counts as the function around it); the entry,
    the numkernel function that site called; the kind, "gated" when an
    exceeds_gate decided it was needed, "certified" when it ran under
    certified_maxima, else "full"; the number of matrices; and their last
    dimension."""
    calls = []

    def recording(routine, a):
        frame, chain = sys._getframe(1), []
        while frame is not None:
            mod = frame.f_globals.get("__name__", "")
            if mod == "ksgnslab.numkernel":
                chain.append(frame.f_code.co_name)
            elif mod.startswith("ksgnslab.") and not frame.f_code.co_name.startswith("<"):
                break  # the function itself, not a comprehension inside it
            frame = frame.f_back
        site = f"{mod.rsplit('.', 1)[-1]}.{frame.f_code.co_name}" if frame else "?"
        kind = ("gated" if any(c.startswith("exceeds") for c in chain)
                else "certified" if "certified_maxima" in chain else "full")
        calls.append(LapackCall(routine, site, chain[-1], kind, int(np.prod(a.shape[:-2])),
                                a.shape[-1]))

    watch_lapack(monkeypatch, recording)
    return calls


SMALL_SHAPES = [AlgebraShape((1,)), AlgebraShape((2,)), AlgebraShape((1, 2))]


# -- algebra ------------------------------------------------------------------
# Single elements, one block at a time: the references for cstar's coefficient
# stacks (block_stacks, element_norms, adjoints, products).


def from_coeffs(shape: AlgebraShape, c: np.ndarray) -> AlgebraElement:
    """The element with coefficients c, split into its blocks."""
    c = np.asarray(c, dtype=complex).reshape(shape.dim)
    offs = shape.offsets
    return AlgebraElement(
        shape, [c[offs[i] : offs[i + 1]].reshape(n, n) for i, n in enumerate(shape.blocks)]
    )


def basis_element(shape: AlgebraShape, p: int) -> AlgebraElement:
    return from_coeffs(shape, np.eye(shape.dim, dtype=complex)[p])


def unit_element(shape: AlgebraShape) -> AlgebraElement:
    return AlgebraElement(shape, [np.eye(n, dtype=complex) for n in shape.blocks])


def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.shape, [x + y for x, y in zip(a.blocks, b.blocks)])


def sub(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.shape, [x - y for x, y in zip(a.blocks, b.blocks)])


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.shape, [x @ y for x, y in zip(a.blocks, b.blocks)])


def star(a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.shape, [x.conj().T for x in a.blocks])


def element_norm(a: AlgebraElement) -> float:
    """The C*-norm: the largest operator norm over the blocks."""
    return max(operator_norm(x) for x in a.blocks)


def apply_star_map(rho: StarMap, a: AlgebraElement) -> AlgebraElement:
    return from_coeffs(rho.codomain, rho.matrix @ a.coeffs())


def star_map_images(rho: StarMap) -> list[AlgebraElement]:
    """The image of each matrix unit, as its own element."""
    return [from_coeffs(rho.codomain, c) for c in rho.matrix.T]


def check_star_map_reference(rho: StarMap) -> dict[str, float]:
    """cstar.check_star_map's residuals image by image: multiplicativity on
    every same-block pair of matrix units (one stack per codomain block),
    ||rho(u*) - rho(u)*|| per matrix unit and ||rho(1) - 1||, with the largest
    image norm as the scale."""
    dom, images = rho.domain, star_map_images(rho)
    block = np.repeat(np.arange(len(dom.blocks)), [n * n for n in dom.blocks])
    P, R = np.nonzero(block[:, None] == block)
    mult = 0.0
    for c in range(len(rho.codomain.blocks)):
        X = np.stack([img.blocks[c] for img in images])
        mult = max(mult, max_operator_norm(zero_padded(X)[dom.product_table[P, R]] - X[P] @ X[R]))
    perm = dom.star_permutation()
    star_gap = max(element_norm(sub(images[perm[p]], star(images[p]))) for p in range(dom.dim))
    unital = element_norm(sub(apply_star_map(rho, unit_element(dom)), unit_element(rho.codomain)))
    return {
        "multiplicativity": mult,
        "star_preservation": star_gap,
        "unitality": unital,
        "scale": max(element_norm(img) for img in images),
    }


def star_map_distance_reference(r1: StarMap, r2: StarMap) -> float:
    """Max over matrix units u of ||r1(u) - r2(u)||, image by image."""
    return max(
        element_norm(sub(a, b)) for a, b in zip(star_map_images(r1), star_map_images(r2))
    )


def algebra_trace(a: AlgebraElement) -> complex:
    """The unnormalized trace tau(a) = sum_i tr(a_i), faithful on A."""
    return complex(sum(np.trace(b) for b in a.blocks))


def left_mult_matrix(a: AlgebraElement) -> np.ndarray:
    """Matrix of x -> a x on matrix-unit coordinates (block diag of a_i kron I)."""
    return block_diag(
        [np.kron(b, np.eye(n, dtype=complex)) for b, n in zip(a.blocks, a.shape.blocks)]
    )


def right_mult_matrix(a: AlgebraElement) -> np.ndarray:
    """Matrix of x -> x a on matrix-unit coordinates (block diag of I kron a_i^T)."""
    return block_diag(
        [np.kron(np.eye(n, dtype=complex), b.T) for b, n in zip(a.blocks, a.shape.blocks)]
    )


# -- modules ------------------------------------------------------------------


def scalar_module(G: np.ndarray) -> HilbertModule:
    """C^d over B = C with Gram matrix G: R(1) = I and <e_i, e_j> = G_ij."""
    d = len(G)
    pairing = np.asarray(G, dtype=complex)[:, :, None, None]
    return HilbertModule(AlgebraShape((1,)), d, np.eye(d, dtype=complex)[None], [pairing])


def quotient_one(pre: PreModule, tol: Tolerance = DEFAULT_TOL) -> Quotient:
    """hilbert.quotient_by_null on the stack of one that holds pre."""
    stack = PreModule(pre.algebra, pre.dim, pre.action[None], [P[None] for P in pre.pairing])
    return quotient_by_null(stack, tol)[0]


def tensor_quotients_reference(E, F, pi, tol: Tolerance = DEFAULT_TOL) -> list[Quotient]:
    """cp.tensor_quotients on the generic path, whatever the right factors:
    the pre-modules of tensor_premodule quotiented through one eigh of each
    whole Gram matrix."""
    return quotient_by_null(tensor_premodule(E, F, pi), tol)


def stinespring_triple(E: HilbertModule, phi, tol: Tolerance = DEFAULT_TOL):
    """The minimal Stinespring dilation (H, pi, V) of phi: A -> L(E), E a Hilbert
    space (B = C), from the Kraus operators of each A-block's Choi matrix of the
    realized phi, with np.linalg.eigh alone and no quotient code, wrapped as a
    one-slice KSGNS triple.  With G^(1/2) phi(e_kl) G^(-1/2) = sum_j X_j[k]* X_j[l]
    (X_j the n x d Kraus rows of block M_n, from the Choi eigenvectors kept above
    rtol times the largest eigenvalue of all blocks), H = (+)_t C^{n_t} (x) C^{r_t},
    pi(e_kl) = e_kl (x) I, and V maps x to sum_{k, j} (conj(X_j[k]) . x) e_k (x) f_j on the
    realized coordinates, V G^(1/2) on E's; H's Gram is the identity."""
    A, G = phi.algebra, E.pairing[0][:, :, 0, 0]
    w, U = np.linalg.eigh((G + G.conj().T) / 2.0)
    root, iroot = (U * w**0.5) @ U.conj().T, (U * w**-0.5) @ U.conj().T
    realized, d = root @ phi.images @ iroot, E.dim
    spectra = []
    for n, o in zip(A.blocks, A.offsets):
        choi = realized[o : o + n * n].reshape(n, n, d, d).transpose(0, 2, 1, 3)
        choi = choi.reshape(n * d, n * d)  # [k i, l j] = realized(e_kl)[i, j]
        spectra.append(np.linalg.eigh((choi + choi.conj().T) / 2.0))
    cut = tol.rtol * max(lam[-1] for lam, _ in spectra)
    rows, images = [], []
    for n, (lam, W) in zip(A.blocks, spectra):
        kraus = (W[:, lam > cut] * lam[lam > cut] ** 0.5).T.reshape(-1, n, d)  # X_j, (r, n, d)
        rows.append(kraus.conj().transpose(1, 0, 2).reshape(-1, d))  # V's rows (k, j)
        units = np.eye(n * n).reshape(n * n, n, n)
        images.append(np.stack([np.kron(u, np.eye(len(kraus))) for u in units]))
    V, h = np.vstack(rows), sum(len(x) for x in rows)
    pi_images = np.zeros((A.dim, h, h), dtype=complex)
    p = o = 0
    for X in images:
        pi_images[p : p + len(X), o : o + X.shape[1], o : o + X.shape[1]] = X
        p, o = p + len(X), o + X.shape[1]
    H = scalar_module(np.eye(h))
    stack = Quotient(HilbertModule(H.algebra, h, H.action[None], [P[None] for P in H.pairing]),
                     np.eye(h, dtype=complex)[None], np.eye(h, dtype=complex)[None],
                     np.zeros((1, h, 0), dtype=complex))
    module = ModuleView(stack.module, 0)
    pi, embedding = CPMap(A, module, pi_images), ModuleMap(E, module, V @ root)
    return KsgnsTriple(stack, 0, E, phi, pi, embedding)


def recorded_rank_decisions(monkeypatch) -> list:
    """The Gram argument of every hilbert.rank_kernel call from here on."""
    grams = []
    real = hilbert.rank_kernel

    def recording(G, tol):
        grams.append(G)
        return real(G, tol)

    monkeypatch.setattr(hilbert, "rank_kernel", recording)
    return grams


def assert_one_module_up_to_a_unitary(tm, ref):
    """tm and the reference quotient ref agree: the same rank and Gram spectrum
    within rounding, and bases, action and pairing that differ by a unitary."""
    r = ref.module.dim
    assert tm.module.dim == r
    scale = 1.0 + max(abs(ref.module.gram_spectrum[0]), default=0.0)
    assert np.allclose(tm.module.gram_spectrum[0], ref.module.gram_spectrum[0], atol=1e-12 * scale)
    U = ref.q @ tm.s  # the change of basis between the two quotients
    assert np.allclose(U.conj().T @ U, np.eye(r), atol=1e-10)
    assert np.allclose(ref.s @ U, tm.s, atol=1e-10)
    assert np.allclose(ref.q @ tm.kernel, 0.0, atol=1e-10)  # one null space
    assert np.allclose(tm.module.action, U.conj().T @ ref.module.action @ U, atol=1e-10 * scale)
    for P, P_ref in zip(tm.module.pairing, ref.module.pairing, strict=True):
        assert np.allclose(P, transport_pairing_reference(U, P_ref), atol=1e-10 * scale)


def action_matrix(E: PreModule, b: AlgebraElement) -> np.ndarray:
    """R(b) = sum_p b_p R(u_p), the matrix of x -> x b on E."""
    return np.einsum("p,pij->ij", b.coeffs(), E.action)


def pair_reference(E: PreModule, x: np.ndarray, y: np.ndarray) -> AlgebraElement:
    """<x, y> for one couple, block by block: sum_ij conj(x_i) y_j P_t[i, j]."""
    return AlgebraElement(E.algebra, [P.transpose(2, 3, 0, 1) @ y @ x.conj() for P in E.pairing])


def hom_pseudometric_reference(m1, m2, x: np.ndarray, a: AlgebraElement) -> float:
    """d_{x,a}(m1, m2) = ||eta(x) - xi(x)|| + ||alpha(a) - alpha'(a)|| for one
    sample, element by element."""
    v = m1.eta.matrix @ x - m2.eta.matrix @ x
    vec_part = np.sqrt(element_norm(pair_reference(m1.eta.target, v, v)))
    images = (apply_star_map(m.alpha.forward, a) for m in (m1, m2))
    return float(vec_part + element_norm(sub(*images)))


def max_stacked_norm(shape: AlgebraShape, C: np.ndarray) -> float:
    """Largest C*-norm among the elements of B stacked as C[r, p, j]."""
    return float(element_norms(shape, C.transpose(0, 2, 1)).max(initial=0.0))


def validate_premodule(pre: PreModule, tol: Tolerance = DEFAULT_TOL) -> list[tuple]:
    """Records of the pre-module axioms.

    Checks pairing hermiticity <e_i,e_j> = <e_j,e_i>*, compatibility
    <x, y b> = <x, y> b on the basis, right-action anti-multiplicativity,
    unitality of the action, and PSD-ness of the scalarized Gram.
    """
    rep = []
    B, d = pre.algebra, pre.dim
    scale = 1.0 + max((operator_norm(P.reshape(d * d, -1)) for P in pre.pairing), default=0.0)
    C = pairing_coeffs(pre, np.eye(d))
    # <e_i, e_j> - <e_j, e_i>*: coefficient p of a* is that of a at star(p), conjugated
    herm = np.abs(C - C.conj().transpose(2, 1, 0)[:, B.star_permutation()])
    rep.append(("pairing_hermitian", float(np.max(herm, initial=0.0)), tol.ctol * scale))

    act_scale = max(1.0, max_operator_norm(pre.action))
    # <e_i, e_j u_p> - <e_i, e_j> u_p over all basis pairs (i, j); right
    # multiplication by u_p sends coefficient r to T[r, p]
    T = B.product_table
    r, p = np.nonzero(T >= 0)
    right_mult = np.zeros((B.dim, B.dim, B.dim), dtype=complex)
    right_mult[p, T[r, p], r] = 1.0
    compat = max(max_stacked_norm(B, C @ R - M @ C) for R, M in zip(pre.action, right_mult))
    rep.append(("pairing_action_compat", compat, tol.ctol * scale * act_scale))

    # R(u_p u_r) = R(u_r) R(u_p), for each p over all r at once
    Az = zero_padded(pre.action)
    anti = max(max_operator_norm(Az[T[p]] - pre.action @ pre.action[p]) for p in range(B.dim))
    rep.append(("action_antimultiplicative", anti, tol.ctol * (1.0 + act_scale**2)))
    unital = operator_norm(action_matrix(pre, unit_element(B)) - np.eye(d))
    rep.append(("action_unital", unital, tol.ctol * (1.0 + act_scale)))

    G = pre.gram()
    if d:
        w = np.linalg.eigvalsh((G + G.conj().T) / 2.0)
        rep.append(("gram_psd", max(0.0, -float(w[0])), tol.ctol * (1.0 + float(w[-1]))))
    else:
        rep.append(("gram_psd", 0.0, tol.ctol))
    return rep


def linearity_residual(m) -> float:
    """max_p ||T R_src(u_p) - R_tgt(u_p) T|| for a module map T, or max over
    basis images X of ||X R(u_p) - R(u_p) X|| for a CP map: zero when the
    matrices are B-linear."""
    if hasattr(m, "images"):
        X, R = m.images[:, None], m.module.action
        return max_operator_norm(X @ R - R @ X)
    return max_operator_norm(m.matrix @ m.source.action - m.target.action @ m.matrix)


def adjoint_identity_residual(m: ModuleMap, adj: ModuleMap) -> float:
    """Max over basis pairs of ||<T e_i, e_j>_tgt - <e_i, T* e_j>_src||."""
    lhs = pairing_coeffs(m.target, m.matrix.T)
    rhs = pairing_coeffs(m.source, np.eye(m.source.dim)) @ adj.matrix
    return max_stacked_norm(m.source.algebra, lhs - rhs)


# -- contractions -------------------------------------------------------------
# The package writes these contractions as matrix products; plain np.einsum,
# with no planned path, spells out each one index by index.


def transport_pairing_reference(s: np.ndarray, P: np.ndarray) -> np.ndarray:
    """hilbert.transport_pairing: R[i, j] = sum_uv conj(s[u, i]) s[v, j] P[u, v]."""
    return np.einsum("ui,vj,uvkl->ijkl", s.conj(), s, P)


def tensor_pairing_reference(E: PreModule, F: PreModule, pi) -> list[np.ndarray]:
    """Pairing blocks of cp.tensor_premodule(E, F, pi):
    <e_i (x) f_j, e_k (x) f_l> = <f_j, pi(<e_i, e_k>_E) f_l>_F."""
    coeffs = pairing_coeffs(E, np.eye(E.dim)).transpose(0, 2, 1)  # [i, k, p]
    N = np.einsum("ikp,pxy->ikxy", coeffs, pi.images)
    n = E.dim * F.dim
    return [np.einsum("ikml,jmxy->ijklxy", N, P).reshape(n, n, *P.shape[2:]) for P in F.pairing]


def composition_pre_reference(comp, rho2) -> np.ndarray:
    """Pre-space map (x (x) c) (x) d -> x (x) rho2(c) d of
    poscor.composition_unitary: M[(i, x), (u, w)] = sum_v s[(i, v), u] T[v, w, x]
    with s the section of comp.inner and T[v, w] the coefficients of
    rho2(u_v) u_w."""
    T = np.stack([left_mult_matrix(img) for img in star_map_images(rho2)]).transpose(0, 2, 1)
    dE, dD, m = comp.inner.left.dim, rho2.codomain.dim, comp.inner.module.dim
    S3 = comp.inner.s.reshape(dE, rho2.domain.dim, m)
    return np.einsum("ivu,vwx->ixuw", S3, T).reshape(dE * dD, m * dD)


def commuting_pre_reference(cu) -> np.ndarray:
    """Pre-space map of poscor.commuting_unitary:
    M[(k, j), (p, u)] = sum_i q[k, (p, i)] s[(i, j), u] with q the quotient map
    of the KSGNS triple of (E, phi) and s the section of E (x)_pi F."""
    t, tm = cu.triple, cu.tensor
    dA, dE, dF = t.phi.algebra.dim, tm.left.dim, tm.right.dim
    Q3 = t.q.reshape(t.module.dim, dA, dE)
    S3 = tm.s.reshape(dE, dF, tm.module.dim)
    return np.einsum("kpi,iju->kjpu", Q3, S3).reshape(t.module.dim * dF, dA * tm.module.dim)


# -- representations ----------------------------------------------------------


def multiplicativity_reference(pi) -> float:
    """cp.check_correspondence's multiplicativity on every row: max over p, r of
    ||pi(u_p u_r) - pi(u_p) pi(u_r)||, one full (dim A, d, d) stack per p."""
    T, X = pi.algebra.product_table, pi.images
    Xz = zero_padded(X)
    return max(max_operator_norm(Xz[T[p]] - X[p] @ X) for p in range(pi.algebra.dim))


# -- constraint systems -------------------------------------------------------


def kron_intertwining_rows(X2: np.ndarray, X1: np.ndarray) -> np.ndarray:
    """cp.intertwining_rows by one np.kron pair per stack element: the rows of
    eta X1[p] - X2[p] eta = 0 for eta flattened row-major."""
    eye1, eye2 = np.eye(X1.shape[-1], dtype=complex), np.eye(X2.shape[-1], dtype=complex)
    return np.vstack([np.kron(eye2, b.T) - np.kron(a, eye1) for a, b in zip(X2, X1)])


# -- alpha-twisted maps -------------------------------------------------------


def twisted_linearity_residual(
    T: np.ndarray, source: HilbertModule, target: HilbertModule, twist: np.ndarray
) -> float:
    """max_p ||T R_src(u_p) - R_tgt(alpha(u_p)) T|| for the matrix T of a map from
    source to target and the matrix twist of an automorphism alpha of their
    algebra: zero when T(x b) = T(x) alpha(b)."""
    twisted = np.einsum("qp,qij->pij", twist, target.action)
    return max_operator_norm(T @ source.action - twisted @ T)


def alpha_transport(
    T: np.ndarray, target: HilbertModule, alpha: Automorphism, beta: Automorphism, tm,
    U: np.ndarray, tol: Tolerance = DEFAULT_TOL,
) -> ModuleMap:
    """Transport an alpha-linear map T, a matrix from E into target, to the
    plain module map T . U on tm = E (x)_beta B, along the twist unitary U of E
    along beta (poscor.twist_unitary); TwistMismatch unless beta = alpha."""
    mismatch = operator_norm(beta.matrix - alpha.matrix)
    if mismatch > tol.ctol * (1.0 + operator_norm(alpha.matrix)):
        raise TwistMismatch(f"twist automorphisms differ by {mismatch:.3e}")
    return ModuleMap(tm.module, target, T @ U)


def alpha_transport_inverse(S: ModuleMap, U: np.ndarray) -> np.ndarray:
    """Inverse transport: S -> S . U^{-1}, the matrix of an alpha-linear map out of E."""
    return S.matrix @ np.linalg.inv(U)


# -- morphisms ----------------------------------------------------------------


def tensored_intertwiner(m: Intertwiner, tm1, tm2, tol: Tolerance = DEFAULT_TOL) -> Intertwiner:
    """(eta, alpha) -> (eta (x) I, alpha) between the tensored objects tm1, tm2."""
    return Intertwiner(tensor_extend_between([m.eta], [tm1], [tm2], tol)[0], m.alpha)


def poscor_pseudometric(m1, m2, b: AlgebraElement, x: np.ndarray, a: AlgebraElement) -> float:
    """d_{b,x,a} = ||rho(b) - rho'(b)|| + ||(eta . V_rho)(x) - (xi . V_rho')(x)||
    + ||alpha(a) - alpha'(a)|| for parallel category morphisms m1, m2."""
    rho_part = element_norm(sub(apply_star_map(m1.rho, b), apply_star_map(m2.rho, b)))
    vec_part = m1.cod.module.vector_norm(m1.pullback @ x - m2.pullback @ x)
    alpha_part = element_norm(
        sub(apply_star_map(m1.alpha.forward, a), apply_star_map(m2.alpha.forward, a))
    )
    return float(rho_part + vec_part + alpha_part)


# -- continuity probe ---------------------------------------------------------


def probe_passed(probe: ProbeReport) -> bool:
    """A continuity probe's verdict: each lifted distance within the probe's
    constant times its input distance plus the final gate, and the last one
    within the final gate; an empty path passes."""
    if not probe.lifted_distances:
        return True
    bounded = all(
        lift <= probe.constant * max(inp, 1e-300) + probe.final_gate
        for inp, lift in zip(probe.input_distances, probe.lifted_distances)
    )
    return bounded and probe.lifted_distances[-1] <= probe.final_gate


# -- the group loops ----------------------------------------------------------
# The equivariant pipeline as it ran before it stacked over the group: each
# builder called for one group element g, or one pair (g, h), at a time, on a
# memo of its own.  The stacked builds must give every slice these bits.


def twist_unitaries_reference(c, tol=DEFAULT_TOL) -> list[tuple]:
    """The twisted tensor and twist unitary (tm, U) of E along each beta_g, one g
    at a time."""
    out = []
    for b in c.system_out.action:
        (tm,), (U,) = twist_unitary(c.module, [b], tol, BuildMemo())
        out.append((tm, U))
    return out


def categorical_unitaries_reference(c, quad, tol=DEFAULT_TOL) -> list[np.ndarray]:
    """U~_g = eta~_g V_g^{-1} V'_{beta_g}, one g at a time."""
    out = []
    for beta, alpha, U in zip(c.system_out.action, c.system_in.action, c.unitaries):
        memo = BuildMemo()
        (tm,), (twist,) = twist_unitary(c.module, [beta], tol, memo)
        eta = ModuleMap(tm.module, c.module, U @ twist)
        cu = commuting_unitary([c.phi], [tm], tol, memo)[0]
        lifted = ksgns_lift([Intertwiner(eta, alpha)], [cu.left], [quad.triple], tol)[0]
        out.append(lifted.eta.matrix @ adjoint_map(cu.unitary).matrix @ v_rho([cu.right])[0])
    return out


def functor_laws_reference(c, F, tol=DEFAULT_TOL, along_group_law=True) -> list[tuple]:
    """equivariant.check_functor_laws as the per-(g, h) loop it replaced: the
    identity and each composite F(g) F(h) built alone on a fresh memo, along
    beta_gh (along_group_law) or along beta_g beta_h."""
    rep = []
    G = c.group
    scale = 1.0 + max(1.0, operator_norm(c.module.gram_matrix))
    recover = max(operator_norm(F[g].pullback - c.unitaries[g]) for g in range(G.order))
    rep.append(("functor_recovery", recover, tol.ctol * scale))
    unit = poscor_identity(F[0].dom, tol, BuildMemo())
    rep.append(("functor_unit", morphism_distance([F[G.identity]], [unit])[0], tol.ctol * scale))
    law = unitary = 0.0
    for g in range(G.order):
        unitary = max(unitary, unitarity_residual([F[g].eta]))
        for h in range(G.order):
            gh = G.mul(g, h)
            rho = [F[gh].rho] if along_group_law else None
            composed = poscor_compose([F[g]], [F[h]], tol, BuildMemo(), rho)[0]
            law = max(law, operator_norm(composed.pullback - c.unitaries[gh]))
    rep.append(("functor_composition", law, tol.ctol * scale))
    rep.append(("unitary_valued", unitary, tol.ctol * scale))
    return rep


def category_laws_reference(objects, morphisms, tol=DEFAULT_TOL) -> list[tuple]:
    """poscor.check_category_laws as the per-pair loops it replaced, before
    the build memo and the stacked levels: every identity and composite
    built alone on a fresh memo, every distance and closure check on a stack
    of one.  A pair whose build raises is broken and skips the rest of its
    triples."""
    rep = []
    identities = {o.ident: poscor_identity(o, tol, BuildMemo()) for o in objects}

    def compose(m2, m1):
        return poscor_compose([m2], [m1], tol, BuildMemo())[0]

    left_id = right_id = 0.0
    scale = 1.0
    closure = []
    broken = 0
    for m in morphisms:
        scale = max(scale, 1.0 + m.norm)
        try:
            left_id = max(
                left_id, morphism_distance([compose(identities[m.cod.ident], m)], [m])[0]
            )
            right_id = max(
                right_id, morphism_distance([compose(m, identities[m.dom.ident])], [m])[0]
            )
        except KsgnslabError:
            broken += 1
    rep.append(("left_identity", left_id, tol.ctol * scale))
    rep.append(("right_identity", right_id, tol.ctol * scale))
    assoc = 0.0
    for m1, m2 in itertools.product(morphisms, repeat=2):
        if m1 is m2 or m1.cod.ident != m2.dom.ident:
            continue
        try:
            composed = compose(m2, m1)
            closure += check_poscor_morphism([composed], tol, BuildMemo())[0]
            for m3 in morphisms:
                if m3.dom.ident != m2.cod.ident:
                    continue
                lhs = compose(m3, composed)
                rhs = compose(compose(m3, m2), m1)
                assoc = max(assoc, morphism_distance([lhs], [rhs])[0])
        except KsgnslabError:
            broken += 1
    rep.append(("associativity", assoc, tol.ctol * scale**3))
    rep.append((
        "closure",
        float("inf") if broken else max((r for _, r, _ in closure), default=0.0),
        max((t for *_, t in closure), default=tol.ctol),
    ))
    return rep
