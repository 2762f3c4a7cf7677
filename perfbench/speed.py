"""Speed probe: puts timings taken on a machine of varying speed on one scale.

On the shared 2-core machine where the baseline was recorded, the same code
ran at two speeds, switching every few seconds: a slow state up to 1.7 times
slower than the fast one, sometimes for a minute or more.  Thread CPU time
slows the same way, so it does not help.  Minima over a run's few samples
cannot absorb a slow state that outlasts the run.

The probe times a fixed calibration kernel (a Python loop, small numpy calls
and a small LAPACK call, the mix ksgnslab's checks are made of) before and
after each timed call and, from a SIGALRM handler, every `INTERVAL_S` during
it.  `Probe.time(fn)` returns the call's wall time without the probe's own
time, and that time scaled by `REF_S / mean(kernel times)`: the seconds the
call would take with the kernel at `REF_S`, about its fast-state time on the
baseline machine.  The kernel is part of the benchmark and does not change
with the code under test.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.1
# The kernel's min-of-three time in the fast state of the baseline machine
# (Intel Xeon, Sapphire Rapids, 2 vCPUs); the scale of every normalised time.
REF_S = 3.2e-4

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_MID = _rng.standard_normal((24, 24))
_MID = _MID + _MID.T


def kernel_s() -> float:
    """Fastest of three runs of the calibration kernel, in seconds."""
    best = math.inf
    clock = time.perf_counter
    for _ in range(3):
        t0 = clock()
        x = 0
        for i in range(1000):
            x += i * i
        for _ in range(10):
            np.linalg.svd(_SMALL, compute_uv=False)
            np.einsum("ij,jk->ik", _SMALL, _SMALL)
            np.vdot(_SMALL, _SMALL)
        np.linalg.eigh(_MID)
        best = min(best, clock() - t0)
    return best


class Probe:
    """Samples the kernel around and, on a timer, during timed calls."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(kernel_s())
        self._spent += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args):
        """Call fn(*args); returns (result, wall seconds, normalised seconds).
        The timer is blocked while the bracketing samples run."""
        mask, alarm = signal.pthread_sigmask, {signal.SIGALRM}
        clock = time.perf_counter
        mask(signal.SIG_BLOCK, alarm)
        before = kernel_s()
        self._samples = []
        self._spent = 0.0
        t0 = clock()
        mask(signal.SIG_UNBLOCK, alarm)
        try:
            result = fn(*args)
        finally:
            mask(signal.SIG_BLOCK, alarm)
        wall = clock() - t0 - self._spent
        inside = self._samples
        after = kernel_s()
        mask(signal.SIG_UNBLOCK, alarm)
        speed = (before + sum(inside) + after) / (len(inside) + 2)
        return result, wall, wall * REF_S / speed
