"""Row-by-row reference implementations of the device path, for tests.

These are the straightforward forms the library's fast paths replace:
the MLE tomography that evaluates its likelihood one parameter point
and one analysis setting at a time, from an initial estimate that
recognises each setting by its coupler (the library fixes its four
couplers and reads their rows, and ascends a batch of count tables in
lock step), the windowed memristor law that folds (t, n_in, dt) window
triples in order on every step, and the closed hysteresis loop that
recomputes its drive on every step and keeps every pulse count in a
list.  The fast paths perform the same floating-point operations in the
same order, so tests compare the two for exact equality; the windowed
law's running sum is compared to 1e-12, and exactly before the first
eviction and on the steps `ResumCountdown` names.
"""

from __future__ import annotations

import math
from collections import deque
from functools import reduce
from operator import add

import numpy as np

from qumem.fock import coupler, purity
from qumem.hysteresis import EXACT, Trace
from qumem.memristor import R_MIN, WINDOWED, estimate_n_in
from qumem.tomography import _EPS, ReconstructionReport, _cholesky_params


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


# the analysis settings as (reflectivity, relative phase) of the coupler:
# bare detection, then balanced interference at phases 0, pi/2, -pi/2
SETTINGS = ((0.0, 0.0), (0.5, 0.0), (0.5, math.pi / 2), (0.5, -math.pi / 2))


def _linear_inversion(counts, settings):
    """Moment-based initial block estimate, each setting recognised by
    its coupler: R = 0 measures the populations, and R = 1/2 at relative
    phase 0 and -pi/2 the imaginary and the real part of the coherence.
    A moment no setting measures is taken at its maximally mixed value."""
    freqs = {}
    for row, (reflectivity, phase) in zip(counts, settings):
        total = row.sum()
        freq = row[0] / total if total > 0 else 0.5
        phase = math.remainder(phase, 2.0 * math.pi)
        if reflectivity == 0.0:
            freqs["identity"] = freq
        elif reflectivity == 0.5 and abs(phase) < 1e-12:
            freqs["balanced"] = freq
        elif reflectivity == 0.5 and abs(phase + math.pi / 2) < 1e-12:
            freqs["phase-"] = freq
    a = freqs.get("identity", 0.5)
    im = freqs.get("balanced", 0.5) - 0.5
    re = freqs.get("phase-", 0.5) - 0.5
    block = np.array([[a, re + 1j * im], [re - 1j * im, 1.0 - a]],
                     dtype=complex)
    evals, evecs = np.linalg.eigh(block)
    evals = np.clip(evals, 1e-6, None)
    block = (evecs * evals) @ evecs.conj().T
    return block / np.trace(block).real


def _setting_conditionals(block, setting):
    v = coupler(*setting)
    rotated = v @ block @ v.conj().T
    p = np.clip(np.real(np.diag(rotated)), 0.0, None)
    total = p.sum()
    if total <= _EPS:
        return None
    return p / total


def log_likelihood(params, counts, settings=SETTINGS):
    sigma = _cholesky_block(params)
    ll = 0.0
    for row, setting in zip(counts, settings):
        cond = _setting_conditionals(sigma, setting)
        for n, q in zip(row, cond):
            if n > 0:
                ll += n * math.log(max(q, _EPS))
    return ll


def mle_ascent(counts, settings=SETTINGS, rel_tol=1e-9, max_iter=2000):
    """Finite-difference gradient ascent, one likelihood call per point:
    (unit-trace block, final log-likelihood, iterations)."""
    counts = np.asarray(counts, dtype=float)
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
    return _cholesky_block(params), ll, iterations


def mle_reconstruct(counts, p00_estimate, settings=SETTINGS):
    """The ascent's block with p00 in the vacuum corner, rescaled to unit
    trace."""
    block, ll, iterations = mle_ascent(counts, settings)
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
    triples and folds the whole window in order on every step."""

    def __init__(self, reflectivity=0.5, window_seconds=1.0):
        self.T = float(window_seconds)
        self.R = self._clamp(reflectivity)
        self.window = deque()
        self.last_t = 0.0

    def _clamp(self, r):
        return min(max(r, R_MIN), 1.0)

    def advance(self, t, n_in):
        if t < self.last_t:
            raise ValueError("timestamps must be nondecreasing")
        dt = t - self.last_t
        self.last_t = t
        self.window.append((t, n_in, dt))
        while self.window and self.window[0][0] <= t - self.T:
            self.window.popleft()
        integral = reduce(add, ((n - 0.5) * w for _, n, w in self.window),
                          0.0)
        self.R = self._clamp(0.5 + integral / self.T)
        return self


class ResumCountdown:
    """The windowed law's re-sum cadence, followed from the window length:
    the running total is exact before the first eviction, the first
    eviction re-sums, and so does the step that brings the evictions
    since the last re-sum to the window length at that re-sum."""

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
        return not self.evicted


# ---------------------------------------------------------------------------
# hysteresis loop

class ListDetectorModel:
    """The feedback detector keeping every Poisson pulse count in a list,
    its filter constants recomputed on every step."""

    def __init__(self, config):
        self.config = config
        self.filtered = 0.0
        self.rng = np.random.default_rng(config.seed)
        self.counts = []

    def estimate(self, true_rate, dt):
        cfg = self.config
        if true_rate > cfg.max_rate * (1 + 1e-9):
            raise ValueError("true_rate exceeds the detector's max_rate")
        if cfg.noise == EXACT:
            return true_rate / cfg.max_rate
        pulses = self.rng.poisson(true_rate * dt)
        self.counts.append(pulses)
        instantaneous = pulses / (cfg.max_rate * dt)
        alpha = 1.0 - math.exp(-dt / cfg.rc)
        self.filtered += alpha * (instantaneous - self.filtered)
        return self.filtered


def run_loop(drive, mem, det):
    """The closed loop stepped into preallocated arrays, the drive
    evaluated at each step."""
    detector = ListDetectorModel(det)
    n_steps = drive.n_periods * drive.steps_per_period
    t_arr = np.empty(n_steps)
    nin_arr = np.empty(n_steps)
    nout_arr = np.empty(n_steps)
    r_arr = np.empty(n_steps)
    for k in range(n_steps):
        t = (k + 1) * drive.dt
        n_in = drive.n_in(t)
        r_prev = mem.R
        rate = det.max_rate * r_prev * n_in
        n_meas = detector.estimate(rate, drive.dt)
        n_est = estimate_n_in(n_meas, r_prev)
        mem.advance(t, n_est)
        t_arr[k] = t
        nin_arr[k] = n_in
        nout_arr[k] = (1.0 - mem.R) * n_in
        r_arr[k] = mem.R
    meta = {
        "T_osc": drive.T_osc,
        "dt": drive.dt,
        "n_periods": drive.n_periods,
        "steps_per_period": drive.steps_per_period,
        "law": mem.law,
        "T": mem.T if mem.law == WINDOWED else None,
        "f_cut": mem.f_cut,
        "noise": det.noise,
        "seed": det.seed,
        "max_rate": det.max_rate,
        "rc": det.rc,
        "mean_counts_per_rc_window": (
            float(np.mean(detector.counts)) * det.rc / drive.dt
            if detector.counts
            else None
        ),
    }
    return Trace(t_arr, nin_arr, nout_arr, r_arr, meta)
