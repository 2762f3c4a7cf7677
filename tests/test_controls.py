"""Negative controls: a fault planted in one slice of a stacked build must fail
the record that reads it, by name, while every other record of the instance,
its input gates included, still passes.

Each fault is a monkeypatched mutation of one construction the harness
calls; the table below maps a record to the fault that must fail it.  The
live cut gets controls of its own: an entry planted outside the live block
of a row-split pi_phi wide enough to be cut must reach pi's norm and its
multiplicativity record, and a NaN planted there must still raise.
"""

from dataclasses import replace

import numpy as np
import pytest

from ksgnslab import equivariant, harness, serialize
from ksgnslab.cp import CPMap, check_correspondence
from ksgnslab.errors import NonFinite
from ksgnslab.harness import SizeCaps, check_instance, generate_instance, instance_seed
from ksgnslab.hilbert import ModuleMap
from ksgnslab.ksgns import ksgns
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import DEFAULT_TOL, LIVE_MIN_DIM

from conftest import passed, residuals

SCALE = 1.0 + 1e-3


def categorical_slice_fault(monkeypatch):
    """V'_{beta_g} of the last group element, in the stack of dilated F(g)
    whose pullbacks the categorical dilation unitaries are."""
    real = equivariant.ksgns_functor

    def ksgns_functor(ms, tol, memo):
        *head, last = real(ms, tol, memo)
        return [*head, replace(last, vrho=SCALE * last.vrho)]

    monkeypatch.setattr(equivariant, "ksgns_functor", ksgns_functor)


def composition_unitary_fault(monkeypatch):
    """U2, the second composition unitary the tensor check builds (along
    rho3 on the double tensor), and only the pentagon reads."""
    real, calls = harness.composition_unitary, []

    def composition_unitary(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(out)
        if len(calls) == 2:
            U = out[0].unitary
            out = [replace(out[0], unitary=ModuleMap(U.source, U.target, SCALE * U.matrix))]
        return out

    monkeypatch.setattr(harness, "composition_unitary", composition_unitary)


def vrho_target_fault(monkeypatch):
    """V_{rho2 rho1} on E (x)_{rho2 rho1} D, the target tensor of the first
    composition unitary the tensor check builds."""
    real_comp, real_vrho, targets = harness.composition_unitary, harness.v_rho, []

    def composition_unitary(*args, **kwargs):
        out = real_comp(*args, **kwargs)
        targets.append(out[0].target)
        return out

    def v_rho(tm):
        return [SCALE * v if targets and t is targets[0] else v for t, v in zip(tm, real_vrho(tm))]

    monkeypatch.setattr(harness, "composition_unitary", composition_unitary)
    monkeypatch.setattr(harness, "v_rho", v_rho)


CONTROLS = {
    "direct_vs_categorical": ("dilation", categorical_slice_fault),
    "pentagon": ("tensor", composition_unitary_fault),
    "vrho_chain": ("tensor", vrho_target_fault),
}


@pytest.mark.parametrize("check", sorted(CONTROLS))
# tensor instances 0 and 7 run their composition chain on zero-dimensional
# tensors, where no fault can show; 1 and 2 do not
@pytest.mark.parametrize("idx", [1, 2])
def test_fault_in_one_slice_fails_its_record_by_name(monkeypatch, check, idx):
    suite, fault = CONTROLS[check]
    data = generate_instance(suite, SizeCaps(), instance_seed(20250809, suite, idx))
    clean = check_instance(suite, data, DEFAULT_TOL)
    assert check in {r.check for r in clean}
    assert all(r.passed for r in clean)
    fault(monkeypatch)
    records = check_instance(suite, data, DEFAULT_TOL)
    assert [r.check for r in records] == [r.check for r in clean]
    failed = [r for r in records if not r.passed]
    assert [r.check for r in failed] == [check]
    assert failed[0].error == ""  # measured, not raised


# ksgns instance 3 at prespace-cap's caps: A = M_3 and dim E = 8, so pi_phi
# is 72 wide, on the row split's copies, and cut to its live blocks
WIDE_KSGNS = ("ksgns", SizeCaps(max_module_dim=11, instances_per_suite=12), 3)


def planted(pi: CPMap, value: complex) -> CPMap:
    """pi with `value` at one entry of pi(u_1) = pi(e_01) outside its live
    block: in its first live row, in the first column it leaves zero."""
    X = pi.images.copy()
    live = X[1] != 0
    X[1, np.flatnonzero(live.any(axis=1))[0], np.flatnonzero(~live.any(axis=0))[0]] = value
    return CPMap(pi.algebra, pi.module, X)


@pytest.fixture(scope="module")
def wide_ksgns():
    suite, caps, idx = WIDE_KSGNS
    data = generate_instance(suite, caps, instance_seed(20250809, suite, idx))
    E = serialize.load_module(data["module"])
    t = ksgns([E], [serialize.load_cpmap(data["phi"], {"module": E})], DEFAULT_TOL, BuildMemo())[0]
    assert t.dim >= LIVE_MIN_DIM and (t.pi.images[1] == 0).any(axis=0).any()
    return data, t


def test_an_entry_outside_the_live_block_reaches_the_norm_and_multiplicativity(wide_ksgns):
    _, t = wide_ksgns
    bad = planted(t.pi, 1e-6)
    S, Si = t.module.gram_sqrt, t.module.gram_isqrt
    dense = max(np.linalg.norm(S @ X @ Si, 2) for X in bad.images)
    assert bad.norm == pytest.approx(dense, rel=1e-15, abs=0.0)
    assert bad.norm - t.pi.norm > 1e-13  # (1 + 1e-12)^(1/2): the planted entry moved it
    rep = check_correspondence(bad, DEFAULT_TOL)
    assert residuals(rep)["multiplicative"] == pytest.approx(1e-6, rel=1e-6)
    assert not passed(rep)
    with pytest.raises(NonFinite):
        check_correspondence(planted(t.pi, np.nan), DEFAULT_TOL)
    with pytest.raises(NonFinite):
        planted(t.pi, np.nan).norm


def test_an_entry_outside_the_live_block_fails_the_multiplicativity_record(monkeypatch, wide_ksgns):
    data, _ = wide_ksgns
    clean = check_instance("ksgns", data, DEFAULT_TOL)
    assert all(r.passed for r in clean)
    real = harness.ksgns

    def faulty(E, phi, tol, memo):
        return [replace(t, pi=planted(t.pi, 1e-6)) for t in real(E, phi, tol, memo)]

    monkeypatch.setattr(harness, "ksgns", faulty)
    records = {r.check: r for r in check_instance("ksgns", data, DEFAULT_TOL)}
    assert not records["pi_multiplicative"].passed
    assert records["pi_multiplicative"].error == ""  # measured, not raised
    assert records["pi_multiplicative"].residual == pytest.approx(1e-6, rel=1e-6)
