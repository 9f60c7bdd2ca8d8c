"""Row-by-row reference implementations of the device path, for tests.

These are the straightforward forms the library's fast paths replace:
the MLE tomography that evaluates its likelihood one parameter point
and one analysis setting at a time, the windowed memristor law that
re-sums (t, n_in, dt) window triples on every step, the discrete
window of the reservoir's memristor bank kept as a list, the trace CSV
written through `csv.writer`, and the feature CSV written in place row
by row.  The fast paths perform the same floating-point operations in
the same order, so tests compare the two for exact equality; the
windowed law's running sum is compared to 1e-12, and exactly on the
steps `ResumCountdown` names.
"""

from __future__ import annotations

import csv
import math
import sys
from collections import deque

import numpy as np

from qumem.fock import purity
from qumem.memristor import R_MIN
from qumem.tomography import (
    _EPS,
    ReconstructionReport,
    _cholesky_params,
    _linear_inversion,
    default_settings,
)


# ---------------------------------------------------------------------------
# tomography

def _cholesky_block(params):
    t00, t10r, t10i, t11 = params
    t = np.array([[t00, 0.0], [t10r + 1j * t10i, t11]], dtype=complex)
    sigma = t @ t.conj().T
    tr = np.trace(sigma).real
    if tr <= 0:
        raise FloatingPointError("degenerate Cholesky factor")
    return sigma / tr


def _setting_conditionals(block, setting):
    v = setting.unitary()
    rotated = v @ block @ v.conj().T
    p = np.clip(np.real(np.diag(rotated)), 0.0, None)
    total = p.sum()
    if total <= _EPS:
        return None
    return p / total


def log_likelihood(params, counts, settings):
    sigma = _cholesky_block(params)
    ll = 0.0
    for row, setting in zip(counts, settings):
        cond = _setting_conditionals(sigma, setting)
        for n, q in zip(row, cond):
            if n > 0:
                ll += n * math.log(max(q, _EPS))
    return ll


def mle_reconstruct(counts, p00_estimate, settings=None,
                    rel_tol=1e-9, max_iter=2000):
    """Finite-difference gradient ascent, one likelihood call per point."""
    counts = np.asarray(counts, dtype=float)
    settings = default_settings() if settings is None else tuple(settings)
    params = _cholesky_params(_linear_inversion(counts, settings))
    ll = log_likelihood(params, counts, settings)
    step = 0.1
    h = 1e-6
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = np.zeros(4)
        for i in range(4):
            up = params.copy()
            dn = params.copy()
            up[i] += h
            dn[i] -= h
            grad[i] = (
                log_likelihood(up, counts, settings)
                - log_likelihood(dn, counts, settings)
            ) / (2 * h)
        gnorm = np.linalg.norm(grad)
        if gnorm == 0:
            break
        improved = False
        while step > 1e-14:
            cand = params + step * grad / gnorm
            cand_ll = log_likelihood(cand, counts, settings)
            if cand_ll > ll:
                improved = True
                break
            step *= 0.5
        if not improved:
            break
        rel_change = abs(cand_ll - ll) / max(abs(ll), 1.0)
        params, ll = cand, cand_ll
        step *= 1.5
        if rel_change < rel_tol:
            break

    block = _cholesky_block(params)
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = p00_estimate
    rho[1:, 1:] = (1.0 - p00_estimate) * block
    rho /= np.trace(rho).real
    return ReconstructionReport(
        rho=rho,
        purity=purity(rho),
        meta={"log_likelihood": ll, "iterations": iterations},
    )


# ---------------------------------------------------------------------------
# memristor laws

class TripleWindowMemristor:
    """Windowed law of `MemristorState` that keeps (t, n_in, dt)
    triples and sums the whole window with a generator on every step."""

    def __init__(self, reflectivity=0.5, window_seconds=1.0, r_min=R_MIN,
                 t0=0.0):
        self.T = float(window_seconds)
        self.r_min = r_min
        self.R = self._clamp(reflectivity)
        self.window = deque()
        self.last_t = float(t0)

    def _clamp(self, r):
        return min(max(r, self.r_min), 1.0)

    def advance(self, t, n_in):
        if t < self.last_t:
            raise ValueError("timestamps must be nondecreasing")
        dt = t - self.last_t
        self.last_t = t
        self.window.append((t, n_in, dt))
        while self.window and self.window[0][0] <= t - self.T:
            self.window.popleft()
        integral = sum((n - 0.5) * w for _, n, w in self.window)
        self.R = self._clamp(0.5 + integral / self.T)
        return self


# builtin sum adds floats in order before Python 3.12 (which compensates),
# so only there does a running total equal it before the first eviction
IN_ORDER_SUM = sys.version_info < (3, 12)


class ResumCountdown:
    """The windowed law's re-sum cadence, followed from the window length:
    the first eviction re-sums, and so does the step that brings the
    evictions since the last re-sum to the window length at that re-sum."""

    def __init__(self):
        self.left = 1
        self.evicted = False

    def exact_after(self, len_before, len_after):
        """Whether R must equal the per-sample re-sum after a step that
        took the window from `len_before` to `len_after` samples."""
        gone = len_before + 1 - len_after
        self.evicted = self.evicted or gone > 0
        self.left -= gone
        if self.left <= 0:
            self.left = len_after
            return True
        return IN_ORDER_SUM and not self.evicted


class ListDiscreteMemristor:
    """Discrete-time window kept as a list of samples, re-summed per step."""

    def __init__(self, window, r_init=0.5, frozen=False, r_min=R_MIN):
        self.window = int(window)
        self.r_init = float(r_init)
        self.frozen = frozen
        self.r_min = r_min
        self.samples = []
        self.R = self._clamp(r_init)

    def _clamp(self, r):
        return min(max(r, self.r_min), 1.0)

    def update(self, n_est):
        if self.frozen:
            return self.R
        self.samples.append(float(n_est))
        if len(self.samples) > self.window:
            del self.samples[0]
        acc = sum(s - 0.5 for s in self.samples)
        self.R = self._clamp(0.5 + acc / self.window)
        return self.R

    def reset(self):
        self.samples = []
        self.R = self._clamp(self.r_init)


# ---------------------------------------------------------------------------
# trace CSV

def write_trace_csv(trace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "n_in", "n_out", "R"])
        for row in zip(trace.t, trace.n_in, trace.n_out, trace.R):
            writer.writerow([f"{v:.12g}" for v in row])


# ---------------------------------------------------------------------------
# feature CSV

def write_features_csv(path, probs, labels):
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    with open(path, "w") as fh:
        fh.write("label," + ",".join(f"p{i}" for i in range(probs.shape[1]))
                 + "\n")
        for row, lab in zip(probs, labels):
            fh.write(str(int(lab)) + "," +
                     ",".join(f"{v:.12g}" for v in row) + "\n")
