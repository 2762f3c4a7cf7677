"""The bytes of every benchmark workload's generated payloads, pinned.

The pin is the sha256 of `ser.dumps(workloads.build(workload, master))` at
the two master seeds the lab's records are read at.  A payload that moves
moves the records checked on it, so nothing may change these bytes unseen:
stacked generation and dumping must write what item-by-item generation
wrote, bit for bit.

The pin holds for numpy 2.4.6 with scipy-openblas 0.3.31, the platform the
benchmark runs on, with BLAS on one thread as perfbench runs it: another BLAS,
or OpenBLAS on more threads, may round a product differently, so the payloads
are built in a child process with perfbench's BLAS thread settings.  A change
that moves payloads on purpose updates the pin and lists the new values in
CHANGES.md.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ksgnslab
from ksgnslab import serialize as ser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = perfbench_module("run")
WORKLOADS = perfbench_module("workloads")

FINGERPRINTS = {
    ("suites-default", 20250809):
        "7fd09acd195bc18d11a8077685323109c202b53695dcb3610764c5ab53aa3b01",
    ("suites-default", 42):
        "54bb2a8ed0dbb3be67e55447ab6fe8c2c6322b69c72277bae276a6f05bd5cf67",
    ("prespace-cap", 20250809):
        "5b8a62ac225c617d11e8a30dc543c43ed99a58decd7ec5b83547ec4cfb824a85",
    ("prespace-cap", 42):
        "9f533c9c152e177cca26f549de74a0021feb20010944e658b64d47d4c3bf96cf",
    ("equivariant-dilation", 20250809):
        "63c701ec577333617735a8a692bd285e00abedfbda6c00a1b8125822db6bc835",
    ("equivariant-dilation", 42):
        "15014d4c9946d72695390dafcf7589159095c72030a06c89ee535b7e7c4f1316",
}


def fingerprints() -> list[str]:
    """The sha256 of each pinned workload's dumped payloads, in pin order."""
    return [hashlib.sha256(ser.dumps(WORKLOADS.build(w, m)).encode()).hexdigest()
            for w, m in FINGERPRINTS]


@pytest.fixture(scope="module")
def built():
    """FINGERPRINTS' keys to the fingerprints of a child process whose BLAS
    runs on one thread."""
    path = os.pathsep.join([str(Path(ksgnslab.__file__).parent.parent),
                            os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, **{var: "1" for var in RUN.BLAS_THREAD_VARS})
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          check=True)
    return dict(zip(FINGERPRINTS, json.loads(proc.stdout)))


@pytest.mark.parametrize(("workload", "master"), list(FINGERPRINTS))
def test_generated_payloads_keep_their_bytes(built, workload, master):
    assert built[workload, master] == FINGERPRINTS[workload, master]


if __name__ == "__main__":
    print(json.dumps(fingerprints()))
