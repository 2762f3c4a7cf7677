"""Negative controls: a fault planted in one slice of a stacked build must fail
the record that reads it, by name, while every other record of the instance,
its input gates included, still passes.

Each fault is a monkeypatched mutation of one construction the harness
calls; the table below maps a record to the fault that must fail it.
"""

from dataclasses import replace

import pytest

from ksgnslab import equivariant, harness
from ksgnslab.harness import SizeCaps, check_instance, generate_instance, instance_seed
from ksgnslab.hilbert import ModuleMap
from ksgnslab.numkernel import DEFAULT_TOL

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
