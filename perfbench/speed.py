"""Machine-speed reference for normalizing op times.

The shared machines this benchmark runs on change speed by 1.3x to 2.7x for
seconds to minutes at a time, and a process's CPU time slows as much as its
wall time, so no in-run statistic removes the swing.  A fixed reference
kernel (a Python loop and small Hermitian eigensolves, like the library's
own mix) is timed right before each op; the op's time is scaled by
``REF_MS / reference``.  Over one minute on a 2-vCPU Intel Xeon at 2.1 GHz,
the d = 12 round trip's raw median moved between 42 and 56 ms in 10 s
windows while its ratio to this kernel stayed within 3.6 to 3.8.

The kernel uses numpy only, never ``qinstr``, so a change to the library
moves the scaled times and a change of machine speed does not.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Fastest time of one kernel call on a 2-vCPU Intel Xeon at 2.1 GHz with one
# BLAS thread; it only sets the unit, so scaled times read as ms there.
REF_MS = 1.5
_REPEATS = 3

_M = np.random.default_rng(0).standard_normal((48, 48))
_M = _M @ _M.T


def _kernel() -> int:
    s = 0
    for i in range(3000):
        s += (i * i) % 7
    for _ in range(6):
        np.linalg.eigh(_M)
    return s


def factor() -> float:
    """``REF_MS`` over the kernel's time now (fastest of three calls)."""
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return REF_MS / (best * 1e3)
