"""Faulty twins keep their records.

The lift, idempotency, tensor, category and continuity checkers build
independent constructions of one shape (twins) side by side: (E1, phi1),
(E2, phi2), (E3, phi3) and their lifts, tensors, extensions, inclusions,
commuting unitaries and functor images.  However a checker batches those builds, a
faulty twin must end its instance exactly as a build of its own would, after
the same records.  Each case plants one fault in default instance 1 of its
suite, in the second twin or a later one, and compares every record with a
digest frozen from one-call-per-twin checkers: check, theorem, the bits of
residual and threshold, verdict and error text.  Payloads and residual bits
follow the BLAS thread count, so the cases run in a child process with BLAS on
one thread, as perfbench runs and as the digests were frozen.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ksgnslab
from ksgnslab import cp, poscor
from ksgnslab import serialize as ser
from ksgnslab.errors import NotCP, SubmoduleViolation, WellDefinednessViolation
from ksgnslab.harness import (
    BLAS_THREAD_VARS, SizeCaps, check_instance, generate_instance, instance_seed,
)
from ksgnslab.memo import BuildMemo
from ksgnslab.numkernel import Tolerance

MASTER_SEED = 20250809  # `verify run`'s default --seed
ksgns = importlib.import_module("ksgnslab.ksgns")  # the package's `ksgns` is the function


def default_payload(suite: str) -> dict:
    """Instance 1 of the suite at the default seed and caps, read back through json."""
    payload = generate_instance(suite, SizeCaps(), instance_seed(MASTER_SEED, suite, 1))
    return json.loads(json.dumps(payload))


def loaded(payload: dict, name: str):
    """The module `name` and, for a phi, its CP map, as the bundle payload holds them."""
    modules = {k: ser.load_module(v) for k, v in payload["modules"].items()}
    if name in modules:
        return modules[name]
    return ser.load_cpmap(payload["phis"][name], modules)


def non_cp(payload: dict, name: str) -> None:
    """phi `name` times i: still B-linear, its Choi matrices anti-Hermitian."""
    phi = loaded(payload, name)
    phi.images = 1j * phi.images
    payload["phis"][name] = ser.dump_cpmap(phi, payload["phis"][name]["module_id"])


def raising_on(monkeypatch, module, name: str, hit, error: Exception) -> None:
    """module.<name> raising `error` on a call whose arguments `hit` accepts."""
    real = getattr(module, name)

    def planted(*args):
        if hit(*args):
            raise error
        return real(*args)

    monkeypatch.setattr(module, name, planted)


def keys(items) -> set:
    return {x.key for x in items}


def lift_into_e3_leaks(monkeypatch, payload):
    # the lift of m2 into E3's dilation, the third of the lifts, fails its descent
    E3 = loaded(payload, "E3").key
    raising_on(monkeypatch, ksgns, "descend",
               lambda K, src, tgt, what, tol: E3 in keys(t.source for t in tgt),
               WellDefinednessViolation("planted leak into E3's dilation"))


def second_dilation_not_cp(monkeypatch, payload):
    # the dilation of t2's pi, the second of the second dilations, fails its certificate
    E2, phi2 = loaded(payload, "E2"), loaded(payload, "phi2")
    pi2 = ksgns.ksgns([E2], [phi2], Tolerance(), BuildMemo())[0].pi.key
    raising_on(monkeypatch, ksgns, "check_cp",
               lambda maps, tol, memo: pi2 in keys(maps), NotCP("planted: t2.pi is not CP"))


def identity_image_raises(monkeypatch, payload):
    # the identity of O1 is the third functor image, the only one lifted into O1's dilation
    payload["checks"] = ["laws", "ksgns_functor"]
    O1 = ser.load_module(payload["objects"][0]["module"]).key
    raising_on(monkeypatch, poscor, "ksgns_lift",
               lambda m, t1, t2, tol: O1 in keys(t.source for t in t2),
               WellDefinednessViolation("planted: the lift into O1's dilation"))


def phi2_fails_its_certificate(monkeypatch, payload):
    # continuity's phi2 may be phi1 (an inner path), so its fault is planted
    phi2 = loaded(payload, "phi2").key
    raising_on(monkeypatch, ksgns, "check_cp",
               lambda maps, tol, memo: phi2 in keys(maps), NotCP("planted: phi2 is not CP"))


def tensor_of_e2_raises(monkeypatch, payload):
    E2 = loaded(payload, "E2").key
    raising_on(monkeypatch, cp, "tensor_quotients",
               lambda E, F, pi, tol: E2 in keys(E), SubmoduleViolation("planted: E2 (x) F"))


def extension_of_phi2_raises(monkeypatch, payload):
    images = loaded(payload, "phi2").images
    raising_on(monkeypatch, poscor, "tensor_extend",
               lambda T, tm1, tm2, what, tol: any(np.array_equal(t, images) for t in T),
               WellDefinednessViolation("planted: phi2 (x) I"))


def inclusion_of_e2_raises(monkeypatch, payload):
    E2 = loaded(payload, "E2").key
    raising_on(monkeypatch, poscor, "interior_tensor_along",
               lambda E, rho, tol, memo: E2 in keys(E), SubmoduleViolation("planted: E2 (x) B"))


def functor_image_of_m2_raises(monkeypatch, payload):
    # m2 runs O2 -> O3: dilating O3 fails, first inside m2's functor image
    payload["checks"] = ["laws", "ksgns_functor"]
    raising_on(monkeypatch, poscor, "dilate_object",
               lambda objs, tol, memo: "O3" in {o.ident for o in objs},
               NotCP("planted: O3 is not CP"))


# (suite, fault) -> (planter, the start of the failing record's error)
CASES = {
    ("lift", "phi2 not CP"): (lambda mp, p: non_cp(p, "phi2"), "NotCP: Choi certificate failed"),
    ("lift", "lift into E3 leaks"): (lift_into_e3_leaks, "WellDefinednessViolation: planted"),
    ("idempotency", "phi2 not CP"): (lambda mp, p: non_cp(p, "phi2"),
                                     "NotCP: Choi certificate failed"),
    ("idempotency", "second dilation not CP"): (second_dilation_not_cp, "NotCP: planted"),
    ("tensor", "phi2 not CP"): (lambda mp, p: non_cp(p, "phi2"), "NotCP: Choi certificate failed"),
    ("tensor", "E2 (x) F raises"): (tensor_of_e2_raises, "SubmoduleViolation: planted"),
    ("tensor", "phi2 (x) I raises"): (extension_of_phi2_raises,
                                      "WellDefinednessViolation: planted"),
    ("tensor", "E2 (x) B raises"): (inclusion_of_e2_raises, "SubmoduleViolation: planted"),
    ("category", "m2's image raises"): (functor_image_of_m2_raises, "NotCP: planted"),
    ("category", "the identity's image raises"): (identity_image_raises,
                                                  "WellDefinednessViolation: planted"),
    ("continuity", "phi2 not CP"): (phi2_fails_its_certificate, "NotCP: planted"),
}

FROZEN = {
    ("category", "m2's image raises"):
        "5380512755afefb7c87e7177f7d2373c8e8c1532e4974b3a02bca56c721a1918",  # 6 records
    ("category", "the identity's image raises"):
        "b6ee97c4b1099cadfb83eec4eb6016168d6adb3859fa35821d0ffc7b157689a2",  # 7 records
    ("continuity", "phi2 not CP"):
        "77990a66e767c5a42799be267928be787896187ccb3091d8295001bde790b734",  # 1 record
    ("idempotency", "phi2 not CP"):
        "cceda55add0f0be06b5bde1f63a0154e3ab7840946778dd475bfa0f96ce3e0de",  # 1 record
    ("idempotency", "second dilation not CP"):
        "37cbb26107d55a53bc746e6a3273bff069a0260b18e6319b87960bf6994f34d0",  # 1 record
    ("lift", "lift into E3 leaks"):
        "55a69798cd0c05848745ff6f0aa9a052b12d0abf5f28403b6ede5202f18876a4",  # 13 records
    ("lift", "phi2 not CP"):
        "17ae62cab81ac7f605bb508f00a1dbf58537903f39ea56a71f2d8ed24970db20",  # 7 records
    ("tensor", "E2 (x) B raises"):
        "3d48ee9c90c23ccbba23e8468cb4e66deb68d1eb42a67ee874700eb8020259b4",  # 8 records
    ("tensor", "E2 (x) F raises"):
        "c9aad7e219306ee754b77b4112cc3504ee2889a8e3fea59da0922656a943b96f",  # 1 record
    ("tensor", "phi2 (x) I raises"):
        "baa988164410c7b3c32a749bde91fdfc4b0625be61144b639af0bcafa4ed8320",  # 6 records
    ("tensor", "phi2 not CP"):
        "7b0af7c52c36ac9cf6d5f606badba2004f2380a76ce25b43528c5ac599aa2903",  # 18 records
}


def digest(records) -> str:
    rows = [(r.check, r.theorem, r.residual.hex(), r.threshold.hex(), r.passed, r.error)
            for r in records]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def planted_records(suite: str, fault: str) -> list:
    """The records of the suite's default instance 1 with the case's fault planted."""
    plant, _ = CASES[suite, fault]
    payload = default_payload(suite)
    with pytest.MonkeyPatch.context() as monkeypatch:
        plant(monkeypatch, payload)
        return check_instance(suite, payload, Tolerance())


@pytest.fixture(scope="module")
def at_one_thread():
    """Per case, (digest, last record's check, its error) from a child process
    whose BLAS runs on one thread."""
    path = os.pathsep.join([str(Path(ksgnslab.__file__).parent.parent),
                            os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, **{var: "1" for var in BLAS_THREAD_VARS})
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          check=True)
    return dict(zip(sorted(CASES), json.loads(proc.stdout)))


@pytest.mark.parametrize("suite, fault", sorted(CASES))
def test_a_faulty_twin_keeps_its_records(at_one_thread, suite, fault):
    found, check, error = at_one_thread[suite, fault]
    assert check == "construction" and error.startswith(CASES[suite, fault][1]), error
    # every record as one call per twin made it (digests of the checkers before batching)
    assert found == FROZEN[suite, fault]


if __name__ == "__main__":
    print(json.dumps([[digest(records := planted_records(*case)), records[-1].check,
                       records[-1].error] for case in sorted(CASES)]))
