"""Host-speed probe: two fixed kernels that use no holopath code.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent over minutes, as other tenants' load comes and goes.  A drift that
long outlasts any run, so no statistic over one run's repetitions removes
it.  The harness therefore times one of these kernels, in its own process,
before the first repetition and after every repetition, and scales the
repetition's times by the host speed measured around it:

    speed = REFERENCE_S[kernel] / measured seconds of the kernel
    reported time = measured time * speed

A time is thus in seconds of the reference host, the one REFERENCE_S was
measured on (an Intel Xeon at 2.1 GHz, 2 vCPUs, Python 3.11, numpy 2.4,
one BLAS thread).  The kernels stand for the two kinds of work holopath
does, and other tenants slow them by different amounts: ``array`` is
batched 3x3 complex products over 65536 matrices, the shape of
``oracle.propagate``; ``interp`` is a Python loop of scalar math and 3x3
numpy products, the shape of ``schemes`` and ``analytic``.  Neither
touches the program, so a change to the program moves the reported times
in full, and the probe's own cost lies outside every repetition's times.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: median seconds of each kernel on the reference host
REFERENCE_S = {"array": 0.460, "interp": 0.380}

_BATCH = 1 << 16
#: the 3x3 discrete Fourier matrix: unitary, so every product stays bounded
_DFT = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / math.sqrt(3)
_PHASES = np.linspace(0.0, 3.0, 3 * _BATCH).reshape(_BATCH, 3)
_ARRAY_PASSES = 6
_INTERP_STEPS = 48_000


def _array_kernel() -> complex:
    trace = 0j
    for _ in range(_ARRAY_PASSES):
        mats = np.matmul(_DFT[None] * np.exp(-1j * _PHASES)[:, None, :], _DFT.conj().T)
        while mats.shape[0] > 1:
            mats = np.matmul(mats[1::2], mats[0::2])
        trace += np.trace(mats[0])
    return trace


def _interp_kernel() -> complex:
    acc, mat, ramp = 0.0, _DFT.copy(), np.arange(3)
    for i in range(_INTERP_STEPS):
        acc += math.sin(i * 1e-3) * math.cos(i * 2e-3)
        mat = (_DFT * np.exp(-1j * acc * ramp)) @ mat
    return complex(np.trace(mat))


KERNELS = {"array": _array_kernel, "interp": _interp_kernel}


def measure(kernel: str) -> float:
    """Seconds the kernel takes now."""
    started = time.perf_counter()
    KERNELS[kernel]()
    return time.perf_counter() - started


def speed(kernel: str) -> float:
    """Host speed now, relative to the reference host: above 1 when faster."""
    return REFERENCE_S[kernel] / measure(kernel)
