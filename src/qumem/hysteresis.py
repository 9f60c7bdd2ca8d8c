"""Closed-loop time-domain simulation of the memristor hysteresis.

The drive is the sinusoidal mean photon number
<n_in(t)> = sin^2(pi t / T_osc).  At every step the feedback port rate
is (optionally Poisson-sampled and RC-filtered), inverted through the
previous reflectivity to estimate <n_in>, fed to the memristor update
law, and the through-port output <n_out> = (1 - R) <n_in> is recorded.

Limiting behaviour: for window T << T_osc the orbit collapses onto the
nonlinear resistor line n_in - n_in^2; for T = T_osc (and beyond) the
window integral vanishes and the orbit is the straight line 0.5 n_in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._atomic import write_atomic
from .memristor import (
    FROZEN,
    LOWPASS,
    WINDOWED,
    MemristorState,
    estimate_n_in,
)

EXACT = "exact"
POISSON = "poisson"

LOW_FREQ = "LowFreq"
INTERMEDIATE = "Intermediate"
HIGH_FREQ = "HighFreq"


@dataclass(frozen=True)
class DriveConfig:
    """Sinusoidal drive: <n_in(t)> = sin^2(pi t / T_osc)."""

    T_osc: float
    n_periods: int = 2
    dt: float = None

    def __post_init__(self):
        if self.T_osc <= 0:
            raise ValueError("T_osc must be positive")
        if self.n_periods < 1:
            raise ValueError("n_periods must be >= 1")
        if self.dt is None:
            object.__setattr__(self, "dt", self.T_osc / 1000.0)
        if self.dt > self.T_osc / 200.0:
            raise ValueError("dt must resolve the drive (dt <= T_osc/200)")

    def n_in(self, t):
        return math.sin(math.pi * t / self.T_osc) ** 2

    @property
    def steps_per_period(self):
        return round(self.T_osc / self.dt)


@dataclass(frozen=True)
class DetectionConfig:
    """Photon-counting model for the feedback signal.

    'exact' returns the true normalized rate.  'poisson' draws pulse
    counts per step and low-pass filters them with time constant rc,
    mimicking coincidence pulses averaged by an RC filter.  For a
    meaningful feedback estimate rc should sit well below the
    integration window (rc <= T/10); pulse-counting runs with rc >= T
    are rejected outright (exact readout has no filter memory).
    """

    max_rate: float = 3.0e4
    rc: float = 0.1
    noise: str = EXACT
    seed: int = None

    def __post_init__(self):
        if self.max_rate <= 0:
            raise ValueError("max_rate must be positive")
        if self.rc <= 0:
            raise ValueError("rc must be positive")
        if self.noise not in (EXACT, POISSON):
            raise ValueError("noise must be 'exact' or 'poisson'")


class DetectorModel:
    """Stateful rate estimator built from a DetectionConfig.

    Exact mode is memoryless; Poisson mode carries the RC filter state
    and its RNG, so one model instance must be used per run.
    """

    def __init__(self, config):
        self.config = config
        self.filtered = 0.0
        self.rng = np.random.default_rng(config.seed)
        self.counts = []  # raw pulse counts per step (diagnostics)

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


@dataclass
class Trace:
    """Closed-loop run record: columns (t, n_in, n_out, R)."""

    t: np.ndarray
    n_in: np.ndarray
    n_out: np.ndarray
    R: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.t)

    def steady(self, warmup_periods=1):
        """Drop the first `warmup_periods` drive periods."""
        spp = self.meta["steps_per_period"]
        lo = warmup_periods * spp
        return Trace(self.t[lo:], self.n_in[lo:], self.n_out[lo:],
                     self.R[lo:], dict(self.meta))

    def orbit_area(self):
        """Shoelace area of the (n_in, n_out) orbit polygon."""
        x, y = self.n_in, self.n_out
        return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def write_csv(self, path):
        """Columns t, n_in, n_out, R as "%.12g", in the excel CSV dialect
        (comma-separated, "\r\n" line ends), written atomically."""
        values = np.column_stack((self.t, self.n_in, self.n_out, self.R))
        lines = ["t,n_in,n_out,R"] + ["%.12g,%.12g,%.12g,%.12g"] * len(values)
        text = ("\r\n".join(lines) + "\r\n") % tuple(values.ravel().tolist())
        write_atomic(path, text, newline="")

    def write_meta(self, path):
        write_atomic(path, json.dumps(self.meta, indent=2, sort_keys=True)
                     + "\n")


def _validate_loop(drive, det, window_equivalent):
    # the RC filter only participates in the loop when pulses are
    # actually being averaged; exact readout has no filter memory
    if det.noise == POISSON and det.rc >= window_equivalent:
        raise ValueError(
            f"rc = {det.rc} must be smaller than the feedback window "
            f"{window_equivalent}"
        )


def _run(drive, mem, det):
    detector = DetectorModel(det)
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


def run_closed_loop(drive, mem, det=DetectionConfig()):
    """Windowed-integration (or frozen) feedback loop."""
    if mem.law == LOWPASS:
        raise ValueError("use run_lpf_loop for the low-pass law")
    if mem.law == WINDOWED:
        _validate_loop(drive, det, mem.T)
    return _run(drive, mem, det)


def run_lpf_loop(drive, f_cut, det=DetectionConfig()):
    """Feedback loop where R relaxes toward the instantaneous estimate
    through a first-order low-pass filter with cutoff f_cut."""
    if f_cut <= 0:
        raise ValueError("f_cut must be positive")
    _validate_loop(drive, det, 1.0 / f_cut)
    mem = MemristorState(reflectivity=0.0, law=LOWPASS, f_cut=f_cut)
    return _run(drive, mem, det)


def classify_regime(T, T_osc):
    """Window-to-period ratio regimes: LowFreq for T <= T_osc/20,
    HighFreq for T >= T_osc, Intermediate between."""
    if T <= 0 or T_osc <= 0:
        raise ValueError("T and T_osc must be positive")
    if T <= T_osc / 20.0:
        return LOW_FREQ
    if T >= T_osc:
        return HIGH_FREQ
    return INTERMEDIATE


def lf_reference(n_in):
    """Low-frequency orbit limit: n_in - n_in^2."""
    n_in = np.asarray(n_in)
    return n_in - n_in**2


def hf_reference(n_in):
    """High-frequency orbit limit: 0.5 n_in."""
    return 0.5 * np.asarray(n_in)


def rms(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sqrt(np.mean((a - b) ** 2)))
