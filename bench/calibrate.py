"""A fixed reference kernel that measures the host's current speed.

The host these figures come from shares its cores with other tenants
and runs through phases, seconds to minutes long, in which all code
runs up to 1.7x slower (CPU time grows with wall time; the process is
not waiting, it is slowed).  No estimator inside one run removes a
phase that outlasts it.  So the benchmark times this kernel right
before and after every CLI command and scales the command's time by
NOMINAL_S / (kernel time): a command time in seconds at the speed the
host had when NOMINAL_S was measured.

The kernel uses neither qumem nor anything a change to the program can
touch, so a faster or slower program still moves the scaled figures
by the same factor as the raw ones.  Its four parts stand for the kinds
of work the workloads do, each about a quarter of its time: complex
165x165 matrix products (BLAS), complex matrix-vector products, many
small numpy operations (interpreter overhead around numpy), and a pure
Python loop.  On the tuning host, scaling by all four together tracked
the phases better than any one of them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time on the tuning host in a calm phase (2 shared
# cores, OpenBLAS 0.3.31 pinned to one thread, Python 3.11)
NOMINAL_S = 0.040

_DIM = 165
_rng = np.random.default_rng(2105)
_A = (_rng.standard_normal((_DIM, _DIM))
      + 1j * _rng.standard_normal((_DIM, _DIM))) / _DIM
_V = _rng.standard_normal(_DIM) + 0j


def _matmul():
    for _ in range(14):
        b = _A @ _A
    return b


def _matvec():
    for _ in range(800):
        x = _A @ _V
    return x


def _small_numpy():
    x = _V
    for _ in range(1000):
        x = np.exp(1j * np.abs(x)[:16]).sum() * _V * 1e-3 + _V
    return x


def _python():
    total = 0
    table = {}
    for i in range(60000):
        total += i * i % 7
        table[i & 1023] = total
    return total


def kernel_seconds():
    """Wall time of one pass of the reference kernel."""
    t0 = time.perf_counter()
    _matmul()
    _matvec()
    _small_numpy()
    _python()
    return time.perf_counter() - t0


class Clock:
    """Times calls between reference-kernel passes.

    `timed(f)` runs `f` and returns (its raw wall time, its scaled
    time).  The scale uses the mean of the kernel pass just before
    the call and the one just after, and that later pass is reused as
    the "before" of the next call, so a run of n calls costs n + 1
    kernel passes."""

    def __init__(self):
        kernel_seconds()  # warm up caches and numpy's dispatch
        self.kernel_s = [kernel_seconds()]

    def timed(self, func):
        before = self.kernel_s[-1]
        t0 = time.perf_counter()
        result = func()
        raw = time.perf_counter() - t0
        after = kernel_seconds()
        self.kernel_s.append(after)
        return result, raw, raw * NOMINAL_S / (0.5 * (before + after))

    def speed(self):
        """Median host speed over the run, relative to the speed at
        which NOMINAL_S was measured (1.0 = as fast, 0.6 = slower)."""
        return NOMINAL_S / statistics.median(self.kernel_s)
