"""Quantum memristor device model.

A tunable beam splitter whose reflectivity R is driven by feedback from
single-photon detection at one output port.  The model covers:

* the mean-field output relation  <n_out> = (1 - R) <n_in>
* the output quantum states in single-rail (vacuum/one-photon) and
  dual-rail (path) encoding, and their purities
* the feedback update laws: sliding-window integration
  R(t) = 0.5 + (1/T) integral_{t-T}^{t} (<n_in> - 0.5) dtau,
  as an O(1) running sum re-summed once per window (R within 1e-12),
  a first-order low-pass variant, and a frozen (open-loop) variant
* the imperfect-splitter leakage model and the classical
  doped-junction memristor the device is formally analogous to.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import reduce
from operator import add

import numpy as np

R_MIN = 1e-3  # feedback floor: the controller never lets R reach zero

WINDOWED = "windowed"
LOWPASS = "lowpass"
FROZEN = "frozen"


@dataclass(frozen=True)
class QubitInput:
    """Input qubit amplitudes: alpha on vacuum, beta on the one-photon
    component, |alpha|^2 + |beta|^2 = 1.  <n_in> = |beta|^2."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {norm}, expected 1")

    @classmethod
    def from_beta2(cls, beta2):
        """Real-amplitude qubit with <n_in> = beta2."""
        if not 0.0 <= beta2 <= 1.0:
            raise ValueError("beta2 must lie in [0, 1]")
        return cls(math.sqrt(1.0 - beta2), math.sqrt(beta2))

    @property
    def beta2(self):
        return abs(self.beta) ** 2


def mz_reflectivity(theta):
    """Reflectivity of a balanced Mach-Zehnder vs its internal phase:
    R(theta) = (1 + cos theta) / 2."""
    return 0.5 * (1.0 + np.cos(theta))


def output_expectation(n_in, reflectivity):
    """Mean photon number at the through port: (1 - R) <n_in>."""
    if not 0.0 <= n_in <= 1.0:
        raise ValueError("n_in must lie in [0, 1]")
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError("reflectivity must lie in [0, 1]")
    return (1.0 - reflectivity) * n_in


@dataclass(frozen=True)
class LeakyCoupler:
    """Imperfect splitter: a fraction eta of the light always reaches
    the undesired output, regardless of the control."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta < 0.5:
            raise ValueError("leakage factor eta must lie in [0, 0.5)")


def leaky_output_expectation(n_in, reflectivity, coupler):
    """Through-port mean with leakage: [eta R + (1-eta)(1-R)] <n_in>."""
    if not 0.0 <= n_in <= 1.0:
        raise ValueError("n_in must lie in [0, 1]")
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError("reflectivity must lie in [0, 1]")
    eta = coupler.eta
    return (eta * reflectivity + (1.0 - eta) * (1.0 - reflectivity)) * n_in


def output_state_single_rail(qubit, reflectivity):
    """2x2 output density matrix in the vacuum/one-photon basis.

    Mixture of the heralded-loss branch and the coherent survival
    branch: diag entries |alpha|^2 + |beta|^2 R and |beta|^2 (1-R),
    coherence alpha beta^* sqrt(1-R).
    """
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError("reflectivity must lie in [0, 1]")
    a, b = qubit.alpha, qubit.beta
    t = math.sqrt(1.0 - reflectivity)
    rho = np.array(
        [
            [abs(a) ** 2 + abs(b) ** 2 * reflectivity, a * np.conj(b) * t],
            [np.conj(a) * b * t, abs(b) ** 2 * (1.0 - reflectivity)],
        ],
        dtype=complex,
    )
    return rho


def output_state_dual_rail(qubit, reflectivity):
    """3x3 output density matrix over the path-encoded kept rails.

    Basis order: no photon kept (it crossed to the feedback port),
    photon in the bypass rail, photon in the through rail.  Diagonal
    (|beta|^2 R, |alpha|^2, |beta|^2 (1-R)); the lower 2x2 block is the
    coherent qubit that survived.
    """
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError("reflectivity must lie in [0, 1]")
    a, b = qubit.alpha, qubit.beta
    t = math.sqrt(1.0 - reflectivity)
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = abs(b) ** 2 * reflectivity
    rho[1, 1] = abs(a) ** 2
    rho[2, 2] = abs(b) ** 2 * (1.0 - reflectivity)
    rho[1, 2] = a * np.conj(b) * t
    rho[2, 1] = np.conj(a) * b * t
    return rho


def purity_closed_form(beta2, reflectivity):
    """Single-rail output purity: 1 - 2 |beta|^4 R (1 - R)."""
    if not 0.0 <= beta2 <= 1.0 or not 0.0 <= reflectivity <= 1.0:
        raise ValueError("beta2 and reflectivity must lie in [0, 1]")
    return 1.0 - 2.0 * beta2**2 * reflectivity * (1.0 - reflectivity)


def dual_rail_purity(beta2, reflectivity):
    """Dual-rail output purity.

    The extra heralded population splits off an additional incoherent
    branch, so the dual-rail value is lower than the single-rail one:
    1 - 2 |beta|^4 R (1-R) - 2 |alpha|^2 |beta|^2 R.
    """
    alpha2 = 1.0 - beta2
    return (
        purity_closed_form(beta2, reflectivity)
        - 2.0 * alpha2 * beta2 * reflectivity
    )


def estimate_n_in(n_meas_d, r_prev):
    """Invert the feedback-port measurement: <n_in> = <n_meas,D> / R.

    The controller keeps R >= R_MIN so this division is always safe;
    the estimate is clamped to the physical range [0, 1] by
    comparisons that keep a NaN and a -0.0 as min/max would."""
    if r_prev < R_MIN:
        raise ValueError(f"reflectivity {r_prev} is below the floor {R_MIN}")
    n_in = n_meas_d / r_prev
    return 0.0 if n_in < 0.0 else 1.0 if n_in > 1.0 else n_in


class MemristorState:
    """Reflectivity R plus the sample window that drives it.

    window_seconds gives the 'windowed' law (sliding-window integration
    over the last T seconds), f_cut 'lowpass' (first-order filter toward
    the instantaneous target), neither 'frozen' (open loop, R fixed).
    `law` names it, T is None unless windowed, and `feedback_window`,
    the span of past input R follows, is T, 1 / f_cut or None.  R starts
    clamped to [R_MIN, 1] at time 0; advance() mutates this object.
    """

    def __init__(self, reflectivity=0.5, window_seconds=None, f_cut=None):
        if not math.isfinite(reflectivity):
            raise ValueError("reflectivity must be finite")
        self.law, self.T, self.f_cut, self.feedback_window = (
            FROZEN, None, f_cut, None)
        if window_seconds is not None:
            if f_cut is not None:
                raise ValueError("give window_seconds or f_cut, not both")
            if not 0 < window_seconds < math.inf:
                raise ValueError("window_seconds must be finite and positive")
            self.law = WINDOWED
            self.T = self.feedback_window = float(window_seconds)
        elif f_cut is not None:
            if not 0 < f_cut < math.inf:
                raise ValueError("f_cut must be finite and positive")
            self.law, self.feedback_window = LOWPASS, 1.0 / f_cut
        self.R = min(max(reflectivity, R_MIN), 1.0)
        self.window = deque()  # sample timestamps spanning <= T
        self._terms = deque()  # (n_in - 0.5) dt of each window sample
        self._total = 0.0      # running sum of _terms
        self._countdown = 1    # evictions left before _total is re-summed
        self.last_t = 0.0

    def advance(self, t, n_in):
        """Feed one (timestamp, <n_in>) sample and update R; returns self.

        Windowed law: a running total of the window terms, replaced by
        their in-order sum at the first eviction and again after as many
        evictions as the window held at the last re-sum.  R is bit-equal
        to a per-sample re-sum until the first eviction and on re-sum
        steps, and within 1e-12 of it between.
        The window is scanned only on a step that evicts, and R is
        clamped to [R_MIN, 1] by comparisons that keep a NaN and a -0.0
        as min/max would."""
        last_t = self.last_t
        if t < last_t:
            raise ValueError("timestamps must be nondecreasing")
        self.last_t = t
        law = self.law
        if law == WINDOWED:
            window, terms = self.window, self._terms
            term = (n_in - 0.5) * (t - last_t)
            window.append(t)
            terms.append(term)
            total = self._total + term
            cutoff = t - self.T
            if window[0] <= cutoff:
                countdown = self._countdown
                while window and window[0] <= cutoff:
                    window.popleft()
                    total -= terms.popleft()
                    countdown -= 1
                if countdown <= 0:
                    total = reduce(add, terms, 0.0)
                    countdown = len(terms)
                self._countdown = countdown
            self._total = total
            r = 0.5 + total / self.T
        elif law == LOWPASS:  # exact exponential step, stable at any dt
            decay = math.exp(-2.0 * math.pi * self.f_cut * (t - last_t))
            r = n_in + (self.R - n_in) * decay
        else:  # frozen: R never moves
            return self
        r = R_MIN if r < R_MIN else r
        self.R = 1.0 if r > 1.0 else r
        return self


@dataclass(frozen=True)
class ClassicalMemristorState:
    """Doped/intrinsic junction memristor: doped thickness w inside a
    junction of thickness D, resistances R_low < R_high, ion mobility
    constant mu."""

    w: float
    D: float
    R_low: float
    R_high: float
    mu: float

    def __post_init__(self):
        if not 0.0 <= self.w <= self.D:
            raise ValueError("doped thickness must satisfy 0 <= w <= D")
        if self.R_low >= self.R_high:
            raise ValueError("R_low must be smaller than R_high")

    @property
    def memristance(self):
        frac = self.w / self.D
        return self.R_low * frac + self.R_high * (1.0 - frac)


def classical_memristor_step(state, current, dt):
    """One explicit step of the junction memristor.

    v = [R_low w/D + R_high (1 - w/D)] i, then the ion drift
    w <- clamp(w + mu (R_high / D) i dt, [0, D]).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    voltage = state.memristance * current
    w_new = state.w + state.mu * (state.R_high / state.D) * current * dt
    w_new = min(max(w_new, 0.0), state.D)
    return voltage, replace(state, w=w_new)
