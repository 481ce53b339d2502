"""Reference kernels that gauge the host's speed next to each piece of timed work.

On a shared host the same code can run up to twice as fast or as slow from
one ten-second stretch to the next. Interpreter-bound code moves the most.
The harness runs a fixed kernel right before and after each batch and each
set-up. Each kernel is plain numpy and independent of qsatwalk. The harness
then rescales the batch's time to what it would have been had the kernel
taken its nominal duration:

    calibrated_time = measured_time * NOMINAL_S / mean(kernel time before, after)

A change to qsatwalk moves calibrated figures exactly as it moves raw ones.
A host slowdown that also slows the kernel cancels out. Each workload uses
the kernel whose bottleneck matches its own. Raw figures are printed and
recorded too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_SMALL = np.linspace(0.0, 1.0, 16) + 0.5j
_ORDER = np.arange(16)[::-1].copy()


def interpreter_kernel() -> None:
    """Python loop over tiny numpy calls, like one trajectory step or walk flip."""
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(4000):
        block = _SMALL[_ORDER].reshape(4, -1)
        overlap = np.conj(_SMALL[:4]) @ block
        acc += float(np.real(np.vdot(overlap, overlap))) + rng.random()


def blas_kernel() -> None:
    """Dense 256x256 complex products, like one channel step at n=8."""
    matrix = np.exp(1j * np.arange(256 * 256).reshape(256, 256) / 257.0)
    for _ in range(16):
        matrix @ matrix


def memory_kernel() -> None:
    """Scattered gathers over 32 MB, beyond what the shared L3 holds for one process."""
    size = 2**21
    x = np.ones(size, dtype=complex)
    order = (np.arange(size, dtype=np.int64) * 2654435761) % size
    x[order]


@dataclass(frozen=True)
class Reference:
    """A kernel and its nominal duration in seconds.

    The nominal durations are rounded medians on the 2-core host the
    benchmark was tuned on (numpy 2.4, one BLAS thread). They only set the
    scale of the calibrated figures. They must never change between the runs
    being compared.
    """

    kernel: Callable[[], None]
    nominal_s: float

    def time(self) -> float:
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start


INTERPRETER = Reference(interpreter_kernel, 0.035)
BLAS = Reference(blas_kernel, 0.055)
MEMORY = Reference(memory_kernel, 0.085)
