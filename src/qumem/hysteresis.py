"""Closed-loop time-domain simulation of the memristor hysteresis.

The drive is the sinusoidal mean photon number
<n_in(t)> = sin^2(pi t / T_osc).  At every step the feedback port rate
is (optionally Poisson-sampled and RC-filtered), inverted through the
previous reflectivity to estimate <n_in>, fed to the memristor update
law, and the through-port output <n_out> = (1 - R) <n_in> is recorded.

Limiting behaviour: for window T << T_osc the orbit collapses onto the
nonlinear resistor line n_in - n_in^2; for T = T_osc (and beyond) the
window integral vanishes and the orbit is the straight line 0.5 n_in.

The sample times and drive values of a `DriveConfig`, their CSV text
and their arrays are built once per drive value and kept for the last
two drives, so the panels of one command, and the commands of one
process, that share a drive share them: each run steps only the
detector and the memristor, and each trace writes only its own n_out
and R columns.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._atomic import write_atomic
from .fock import _is_int
from .memristor import MemristorState, estimate_n_in

EXACT = "exact"
POISSON = "poisson"

LOW_FREQ = "LowFreq"
INTERMEDIATE = "Intermediate"
HIGH_FREQ = "HighFreq"

# numpy's Generator.poisson draws means up to int64 max - 10 sqrt(it)
_POISSON_MEAN_MAX = 2**63 - 1 - math.sqrt(2**63 - 1) * 10


@dataclass(frozen=True)
class DriveConfig:
    """Sinusoidal drive: <n_in(t)> = sin^2(pi t / T_osc).

    The run's samples (`samples`) and the "t,n_in" text of its trace
    CSV rows (`csv_lead`) are built once per drive value: equal drives
    (T_osc 10 and 10.0, dt None and T_osc / 1000) share them, and the
    last two drives' stay kept."""

    T_osc: float
    n_periods: int = 2
    dt: float = None

    def __post_init__(self):
        if not 0 < self.T_osc < math.inf:
            raise ValueError("T_osc must be positive and finite")
        if not (_is_int(self.n_periods) and self.n_periods >= 1):
            raise ValueError("n_periods must be an integer >= 1")
        if self.dt is None:
            object.__setattr__(self, "dt", self.T_osc / 1000.0)
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.dt > self.T_osc / 200.0:
            raise ValueError("dt must resolve the drive (dt <= T_osc/200)")
        try:  # the time of the last sample, as `samples` forms it
            last = self.n_periods * self.steps_per_period * self.dt
        except OverflowError:  # T_osc / dt or the step count overflows
            last = math.inf
        if not math.isfinite(math.pi * last / self.T_osc):
            raise ValueError(f"T_osc, dt and n_periods put the last sample "
                             f"at t = {last!r}: t and pi * t / T_osc must "
                             f"be finite")

    def n_in(self, t):
        return math.sin(math.pi * t / self.T_osc) ** 2

    @property
    def steps_per_period(self):
        return round(self.T_osc / self.dt)

    @property
    def samples(self):
        """(t, n_in) of every step of a run, as shared tuples of floats:
        t = (k + 1) dt for k < n_periods * steps_per_period."""
        return _drive_tables(self)[0]

    @property
    def csv_lead(self):
        """The "t,n_in" start of each trace CSV row, as "%.12g"."""
        return _drive_tables(self)[1]


@functools.lru_cache(maxsize=2)
def _drive_tables(drive):
    """A drive's (t, n_in) sample tuples, their "t,n_in" CSV text and
    read-only t and n_in arrays, keyed by the drive's value."""
    t = tuple((k + 1) * drive.dt
              for k in range(drive.n_periods * drive.steps_per_period))
    n_in = tuple(map(drive.n_in, t))
    t_arr, n_in_arr = np.array(t), np.array(n_in)
    t_arr.flags.writeable = n_in_arr.flags.writeable = False
    lead = tuple("%.12g,%.12g" % row for row in zip(t, n_in))
    return (t, n_in), lead, t_arr, n_in_arr


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
        if not 0 < self.max_rate < math.inf:
            raise ValueError("max_rate must be positive and finite")
        if not 0 < self.rc < math.inf:
            raise ValueError("rc must be positive and finite")
        if self.noise not in (EXACT, POISSON):
            raise ValueError("noise must be 'exact' or 'poisson'")


class DetectorModel:
    """Stateful rate estimator built from a DetectionConfig, for a run
    of fixed step length dt.

    Exact mode is memoryless; Poisson mode carries the RC filter state
    and its RNG, so one model instance must be used per run.  It also
    keeps the raw pulse counts summed (`pulse_total`) over its Poisson
    steps (`pulse_steps`).  All but the filter state is fixed at
    construction, so `estimate` does only the step's own arithmetic.
    A Poisson model whose means (max_rate * dt) numpy cannot draw raises.
    """

    def __init__(self, config, dt):
        self.config = config
        self.dt = dt
        self.filtered = 0.0
        self.rng = np.random.default_rng(config.seed)
        self.pulse_total = 0
        self.pulse_steps = 0
        self._limit = config.max_rate * (1 + 1e-9)
        self._exact = config.noise == EXACT
        if not self._exact and self._limit * dt > _POISSON_MEAN_MAX:
            raise ValueError(f"max_rate * dt = {config.max_rate * dt!r} is "
                             f"above numpy's largest Poisson mean, 9.22e18")
        self._poisson = self.rng.poisson
        self._alpha = 1.0 - math.exp(-dt / config.rc)
        self._scale = config.max_rate * dt

    def estimate(self, true_rate):
        if true_rate > self._limit:
            raise ValueError("true_rate exceeds the detector's max_rate")
        if self._exact:
            return true_rate / self.config.max_rate
        pulses = self._poisson(true_rate * self.dt)
        self.pulse_total += pulses
        self.pulse_steps += 1
        filtered = self.filtered
        filtered += self._alpha * (pulses / self._scale - filtered)
        self.filtered = filtered
        return filtered


@dataclass
class Trace:
    """Closed-loop run record: columns (t, n_in, n_out, R).

    A run's t and n_in are its drive's read-only arrays, shared with
    the runs of equal drives.  A run's trace, and its `steady()`
    slices, keep the "t,n_in" text of their CSV rows from the drive's
    `DriveConfig.csv_lead`; any other trace has `write_csv` format it
    from t and n_in."""

    t: np.ndarray
    n_in: np.ndarray
    n_out: np.ndarray
    R: np.ndarray
    meta: dict = field(default_factory=dict)
    _csv_lead: tuple = field(init=False, default=None, repr=False,
                             compare=False)

    def __len__(self):
        return len(self.t)

    def steady(self, warmup_periods=1):
        """Drop the first `warmup_periods` drive periods, an integer in
        [0, whole periods in the trace)."""
        spp = self.meta["steps_per_period"]
        periods = len(self.t) // spp
        if not (_is_int(warmup_periods) and 0 <= warmup_periods < periods):
            raise ValueError(f"warmup_periods must be an integer in "
                             f"[0, {periods}), got {warmup_periods!r}")
        lo = warmup_periods * spp
        out = Trace(self.t[lo:], self.n_in[lo:], self.n_out[lo:],
                    self.R[lo:], dict(self.meta))
        if self._csv_lead is not None:
            out._csv_lead = self._csv_lead[lo:]
        return out

    def orbit_area(self):
        """Shoelace area of the (n_in, n_out) orbit polygon."""
        x, y = self.n_in, self.n_out
        return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def write_csv(self, path):
        """Columns t, n_in, n_out, R as "%.12g", in the excel CSV dialect
        (comma-separated, "\r\n" line ends), written atomically."""
        lead = self._csv_lead
        if lead is None:
            lead = ["%.12g,%.12g" % row
                    for row in zip(self.t.tolist(), self.n_in.tolist())]
        # "%.12g" text holds no "%", so the lead can sit in the template
        template = "t,n_in,n_out,R\r\n" + ",%.12g,%.12g\r\n".join([*lead, ""])
        values = np.column_stack((self.n_out, self.R)).ravel().tolist()
        write_atomic(path, template % tuple(values), newline="")

    def write_meta(self, path):
        write_atomic(path, json.dumps(self.meta, indent=2, sort_keys=True)
                     + "\n")


def _validate_loop(det, mem):
    """The loop check: a pulse-counting detector's RC filter must be
    shorter than the memristor's feedback window, if it has one."""
    window = mem.feedback_window
    if det.noise == POISSON and window is not None and det.rc >= window:
        raise ValueError(
            f"rc = {det.rc} must be smaller than the feedback window "
            f"{window}"
        )


def run_closed_loop(drive, mem, det=DetectionConfig()):
    """The feedback loop under mem's law: one `estimate` and one
    `advance` per step, with R carried from each step to the next;
    n_out = (1 - R) n_in is formed for the whole run at the end
    (elementwise, the same bits)."""
    _validate_loop(det, mem)
    detector = DetectorModel(det, drive.dt)
    estimate, advance = detector.estimate, mem.advance
    max_rate = det.max_rate
    times, n_ins = drive.samples
    rs = []
    keep = rs.append
    r = mem.R
    for t, n_in in zip(times, n_ins):
        r = advance(t, estimate_n_in(estimate(max_rate * r * n_in), r)).R
        keep(r)
    meta = {
        "T_osc": drive.T_osc,
        "dt": drive.dt,
        "n_periods": drive.n_periods,
        "steps_per_period": drive.steps_per_period,
        "law": mem.law,
        "T": mem.T,
        "f_cut": mem.f_cut,
        "noise": det.noise,
        "seed": det.seed,
        "max_rate": det.max_rate,
        "rc": det.rc,
        "mean_counts_per_rc_window": (
            detector.pulse_total / detector.pulse_steps * det.rc / drive.dt
            if detector.pulse_steps
            else None
        ),
    }
    R = np.array(rs)
    *_, t_arr, n_in_arr = _drive_tables(drive)
    trace = Trace(t_arr, n_in_arr, (1.0 - R) * n_in_arr, R, meta)
    trace._csv_lead = drive.csv_lead
    return trace


def _lowpass_memristor(f_cut):
    """The low-pass loop's memristor: R starts at 0, clamped to R_MIN."""
    return MemristorState(reflectivity=0.0, f_cut=f_cut)


def run_lpf_loop(drive, f_cut, det=DetectionConfig()):
    """Feedback loop where R relaxes toward the instantaneous estimate
    through a first-order low-pass filter with cutoff f_cut."""
    return run_closed_loop(drive, _lowpass_memristor(f_cut), det)


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
