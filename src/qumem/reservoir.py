"""Memristor-based quantum reservoir computer.

Input vectors are amplitude-encoded (or mixed into coherent kets for
the classical baseline) on an m-mode, p-photon Fock space, scrambled by
a fixed random coupler mesh, passed through a bank of floor(m/3)
memristors, scrambled again, and measured in the Fock basis.  Memory
lives only in the memristor reflectivities: each step consumes a fresh
encoded input, and the feedback-port statistics of that step drive
every memristor, a `MemristorState` running the sliding-window law at
unit time steps (one step is one second of its window).  One input
sequence is one example: each run starts its own bank at R = 0.5 and
time 0, and only the sampling generator runs on from run to run.

Each memristor owns a triple of rails (bypass, through, feedback); its
coupler acts on (through, feedback).  A photon found on the feedback
rail is reinjected: the feedback occupation is measured (which dephases
across feedback outcomes) and moved back onto the through rail, so the
map is trace preserving and photon-number conserving.

The engine works on a ket factor K of shape (dim, rank), rho = K K^+:
a pure input is its amplitude column and a coherent mixture its
weighted kets.  The input mesh is applied once per distinct input
object of a sequence.  A coherent input is its mixture weights over
one table of meshed coherent kets, built once per reservoir and input
length, so meshing it only scales the table's kept columns.  Each
coupler acts only on groups of basis states that differ in how the
photons of its pair are split, so the bank is applied group by group
with small (q+1) x (q+1) lifts evaluated from precomputed polynomial
coefficients; the lifted bank matrix is never built.  Reinjection and
the output mesh run only where an output is measured, one feedback
outcome (incoherent branch) at a time.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fock import (
    DimensionError,
    ModeUnitary,
    QuantumState,
    _check_shots,
    _is_int,
    _lift_sectors,
    enumerate_basis,
    lift_unitary,
)
from .memristor import FROZEN, WINDOWED, MemristorState, estimate_n_in

QUANTUM = "quantum"
COHERENT = "coherent"


@dataclass(frozen=True)
class ReservoirConfig:
    """Geometry, seeds and measurement mode of the reservoir."""

    modes: int = 9
    photons: int = 3
    mesh_seed: int = 2021
    shots: int = None        # None: exact Fock distribution
    window: int = 12         # MemristorState window, in unit steps
    feedback: bool = True    # False freezes every reflectivity at 0.5
    sample_seed: int = None

    def __post_init__(self):
        if not _is_int(self.modes) or not _is_int(self.photons):
            raise ValueError("modes and photons must be integers")
        if self.modes < 3:
            raise ValueError("need at least three modes for one memristor")
        if self.photons < 1:
            raise ValueError("need at least one photon")
        if not (_is_int(self.window) and self.window >= 1):
            raise ValueError(f"window must be an integer >= 1, "
                             f"got {self.window!r}")
        _check_shots(self.shots)


@dataclass
class EncodedInput:
    """A reservoir input state, flagged when an all-zero vector fell
    back to the first basis state.  A coherent mixture also carries
    its normalised weights (read-only, one per coherent ket); amplitude
    inputs carry None."""

    state: QuantumState
    zero_fallback: bool = False
    weights: np.ndarray = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# encodings

def amplitude_encode(v, basis):
    """Classical vector as amplitudes on the first len(v) basis states.

    An all-zero vector cannot be normalised; it falls back to the first
    basis state and the fallback is flagged on the returned input.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size > basis.size:
        raise DimensionError(
            f"vector of length {v.size} exceeds basis size {basis.size}"
        )
    amps = np.zeros(basis.size, dtype=complex)
    norm = np.linalg.norm(v)
    if not math.isfinite(norm):
        raise ValueError("vector norm must be finite")
    if norm == 0.0:
        amps[0] = 1.0
        state = QuantumState.pure(basis, amps, validate=False)
        return EncodedInput(state, zero_fallback=True)
    amps[: v.size] = v / norm
    return EncodedInput(QuantumState.pure(basis, amps, validate=False))


@functools.lru_cache(maxsize=8)
def _coherent_kets(n, dim):
    """(dim, n) read-only table: column k is the truncated coherent ket
    of amplitude k over a dim-level ladder, renormalised after
    truncation.  Computed in log space: the raw coefficients
    k^n / sqrt(n!) overflow long before n ~ 165."""
    levels = np.arange(dim, dtype=float)
    log_fact = 0.5 * np.array([math.lgamma(i + 1.0) for i in range(dim)])
    kets = np.zeros((dim, n))
    kets[0, 0] = 1.0
    for k in range(1, n):
        logs = levels * math.log(k) - log_fact
        ket = np.exp(logs - logs.max())
        kets[:, k] = ket / np.linalg.norm(ket)
    kets.flags.writeable = False
    return kets


def coherent_encode(v, basis):
    """Classical baseline: statistical mixture of fixed coherent kets.

    Component j of v weights the truncated coherent ket of amplitude j,
    so the data enters only through the mixture weights, which the
    returned input carries.  The state is held as its ket factor, the
    kets scaled by sqrt(weight) (zero weights dropped), which is exact.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if np.any(v < 0):
        raise ValueError("mixture weights must be non-negative")
    total = v.sum()
    if not math.isfinite(total):
        raise ValueError("mixture weights must have a finite sum")
    if total == 0.0:
        raise ValueError("all-zero vector cannot form a mixture")
    if v.size > basis.size:
        raise DimensionError(
            f"vector of length {v.size} exceeds basis size {basis.size}"
        )
    weights = _read_only(v / total)
    keep = np.flatnonzero(weights)
    factor = (_coherent_kets(v.size, basis.size)[:, keep]
              * np.sqrt(weights[keep]))
    return EncodedInput(QuantumState(basis, factor, validate=False),
                        weights=weights)


# ---------------------------------------------------------------------------
# random meshes and random states

def build_mesh(modes, rng):
    """Rectangular nearest-neighbour coupler mesh of depth `modes`.

    Every coupler draws reflectivity ~ U[0,1] and phase ~ U[0, 2 pi)
    from the generator rng, in that order, coupler by coupler.  All
    draws are one call, and each 2x2 block is `coupler(r, phase)`
    written out entry by entry.
    """
    if modes < 2:
        raise ValueError("a mesh needs at least two modes")
    sites = [j for layer in range(modes)
             for j in range(layer % 2, modes - 1, 2)]
    draws = iter(rng.uniform(size=2 * len(sites)).tolist())
    u = np.eye(modes, dtype=complex)
    for j in sites:
        r = next(draws)
        ph = 2.0 * math.pi * next(draws)
        t, ir, e = math.sqrt(1.0 - r), 1j * math.sqrt(r), cmath.exp(1j * ph)
        block = np.array([[t, ir * e], [ir, t * e]])
        u[j : j + 2, :] = block @ u[j : j + 2, :]
    return ModeUnitary(u)


def haar_vector(dim, rng):
    """Haar-random pure state on a dim-dimensional space."""
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def _embed(amps, basis):
    vec = np.zeros(basis.size, dtype=complex)
    vec[: amps.size] = amps
    return QuantumState.pure(basis, vec, validate=False)


def sample_entangled(d_loc, seed, basis=None):
    """Haar-random pure state on the d_loc x d_loc bipartite subspace
    (almost surely entangled), embedded on the first d_loc^2 basis
    states."""
    basis = enumerate_basis(9, 3) if basis is None else basis
    if d_loc * d_loc > basis.size:
        raise DimensionError("d_loc^2 exceeds the reservoir dimension")
    rng = np.random.default_rng(seed)
    return _embed(haar_vector(d_loc * d_loc, rng), basis)


def sample_separable(d_loc, seed, basis=None):
    """Tensor product of two Haar-random d_loc states (Schmidt rank 1),
    embedded on the first d_loc^2 basis states."""
    basis = enumerate_basis(9, 3) if basis is None else basis
    if d_loc * d_loc > basis.size:
        raise DimensionError("d_loc^2 exceeds the reservoir dimension")
    rng = np.random.default_rng(seed)
    product = np.outer(haar_vector(d_loc, rng), haar_vector(d_loc, rng))
    return _embed(product.reshape(-1), basis)


# ---------------------------------------------------------------------------
# the reservoir

class Reservoir:
    """Fixed input/output meshes around a bank of memristor couplers.

    Each run_sequence() builds its own bank, so no run depends on an
    earlier one; between runs the instance keeps only the sampling
    generator and `reflectivities`, the read-only R each memristor
    ended the last run with (0.5 before the first).
    """

    def __init__(self, config):
        self.config = cfg = config
        geometry = _geometry(cfg.modes, cfg.photons)
        self.basis = geometry.basis
        rng = np.random.default_rng(cfg.mesh_seed)
        self.u_in = build_mesh(cfg.modes, rng=rng)
        self.u_out = build_mesh(cfg.modes, rng=rng)
        self.u_in_f = lift_unitary(self.u_in, self.basis)
        self.u_out_f = lift_unitary(self.u_out, self.basis)
        # input length -> u_in_f @ _coherent_kets(length, dim)
        self._coherent_tables = {}
        self.rails = list(geometry.rails)
        self.reflectivities = _read_only(np.full(len(self.rails), 0.5))
        self._rng = np.random.default_rng(cfg.sample_seed)
        self._pair_layout = geometry.pair_layout
        self._lift_coeffs = geometry.lift_coeffs
        self._powers = geometry.powers
        self._fb_occ = geometry.fb_occ
        # each feedback-rail outcome with the output mesh columns of its
        # reinjection targets
        self._reinjection_groups = [
            (idx, self.u_out_f[:, targets])
            for idx, targets in geometry.reinjection
        ]

    # -- per-step pieces -------------------------------------------------------

    def apply_layer(self, factor, reflectivities):
        """Memristor bank at reflectivities R (one per memristor) on a
        ket factor: the lift of the bank's mode matrix (coupler(R) on
        each (through, feedback) pair) applied to the (dim, rank) K, one
        pair and one pair-photon sector at a time.  Returns a new array."""
        out = np.array(factor, dtype=complex)
        for (index, runs), r in zip(self._pair_layout, reflectivities):
            # the entries t and i r of coupler(R)
            t_pow = complex(math.sqrt(1.0 - r)) ** self._powers
            s_pow = complex(0.0, math.sqrt(r)) ** self._powers
            rows = out[index]
            for q, start, stop in runs:
                lift = self._lift_coeffs[q] @ (t_pow[q::-1] * s_pow[: q + 1])
                run = rows[start:stop]
                run[...] = (lift @ run.reshape(q + 1, -1)).reshape(run.shape)
            out[index] = rows
        return out

    def feedback_probabilities(self, factor):
        """Per-memristor feedback-rail photon expectation of rho = K K^+."""
        diag = (factor.real ** 2 + factor.imag ** 2).sum(axis=1)
        return diag @ self._fb_occ

    def output_probabilities(self, factor):
        """Fock distribution after reinjection and the output mesh: each
        feedback-rail outcome is an incoherent branch."""
        probs = np.zeros(self.basis.size)
        for idx, u_cols in self._reinjection_groups:
            amps = u_cols @ factor[idx]
            probs += (amps.real ** 2 + amps.imag ** 2).sum(axis=1)
        return probs

    def _measured_probs(self, probs):
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum()
        if self.config.shots is None:
            return probs
        counts = self._rng.multinomial(self.config.shots, probs)
        return counts / float(self.config.shots)

    def _mesh_input(self, x):
        """Input mesh applied to the ket factor of an input.  A coherent
        input scales the kept columns of its length's meshed ket table
        by sqrt(weight): the same factor, meshed before it is weighted."""
        if x.state.dim != self.basis.size:
            raise DimensionError("input state does not match the reservoir")
        weights = x.weights
        if weights is None:
            return self.u_in_f @ x.state.ket_factor()
        table = self._coherent_tables.get(weights.size)
        if table is None:
            table = _read_only(
                self.u_in_f @ _coherent_kets(weights.size, self.basis.size))
            self._coherent_tables[weights.size] = table
        keep = np.flatnonzero(weights)
        return table[:, keep] * np.sqrt(weights[keep])

    def _bank(self):
        """Fresh memristors at R = 0.5 and time 0, one per rail."""
        cfg = self.config
        law = WINDOWED if cfg.feedback else FROZEN
        return [MemristorState(0.5, window_seconds=cfg.window, law=law)
                for _ in self.rails]

    # -- public API -------------------------------------------------------------

    def run_sequence(self, inputs):
        """Run a fresh memristor bank over a sequence of `EncodedInput`s
        at t = 1..n and return the measured distribution of the final
        step.  Earlier optical states are discarded by construction
        (memory lives in the reflectivities), so only the last output is
        computed, and an input object repeated in the sequence passes
        the input mesh once."""
        inputs = list(inputs)
        if not inputs:
            raise ValueError("input sequence must be non-empty")
        meshed = {}
        for x in inputs:
            if id(x) not in meshed:
                meshed[id(x)] = self._mesh_input(x)
        bank = self._bank()
        for t, x in enumerate(inputs, 1):
            factor = self.apply_layer(meshed[id(x)], [m.R for m in bank])
            _advance(bank, float(t), self.feedback_probabilities(factor))
        self.reflectivities = _read_only(np.array([m.R for m in bank]))
        return self._measured_probs(self.output_probabilities(factor))


def _advance(bank, t, fb_probs):
    """One unit time step, to time t, of every memristor of a bank, each
    fed the input estimated from its feedback-rail expectation."""
    # Python floats: numpy scalars make each advance about 10% slower
    for mem, fb in zip(bank, fb_probs.tolist()):
        mem.advance(t, estimate_n_in(fb, mem.R))


# ---------------------------------------------------------------------------
# structure shared by every reservoir of one geometry

def _read_only(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class _Geometry:
    """Read-only structure of a (modes, photons) reservoir: it depends
    on no seed, mesh or memristor state."""

    basis: object
    rails: tuple
    pair_layout: tuple   # per pair: (index, ((q, start, stop), ...))
    lift_coeffs: tuple   # per q: _coupler_lift_coeffs(q)
    powers: np.ndarray
    reinjection: tuple   # per feedback pattern: (indices, target indices)
    fb_occ: np.ndarray   # (dim, memristors) feedback-rail occupations


def _pair_layout(occ, photons, thru, fb):
    """Coupler (thru, fb) mixes only the basis states that differ in how
    the q photons of its pair are split.  For q >= 1 these states form
    groups of q+1, each ordered by feedback occupation (the local index
    of the two-mode sector).  All groups are stored as one index array,
    slot-major per q, so applying the coupler is one gather, one small
    matmul per q and one scatter; q = 0 states are left alone."""
    others = [m for m in range(occ.shape[1]) if m not in (thru, fb)]
    q = occ[:, thru] + occ[:, fb]
    parts, runs, start = [], [], 0
    for qq in range(1, photons + 1):
        groups = {}
        for i in np.flatnonzero(q == qq):
            slots = groups.setdefault(tuple(occ[i, others]), [0] * (qq + 1))
            slots[occ[i, fb]] = i
        part = np.array(list(groups.values()), dtype=int).T.ravel()
        parts.append(part)
        runs.append((qq, start, start + part.size))
        start += part.size
    return _read_only(np.concatenate(parts)), tuple(runs)


def _reinjection(basis, rails):
    """Feedback-rail measurement groups, each with its reinjection
    targets (feedback occupation moved onto the through rail)."""
    target = np.empty(basis.size, dtype=int)
    patterns = {}
    for i, occupation in enumerate(basis.states):
        occ = list(occupation)
        pat = tuple(occ[fb] for _, _, fb in rails)
        for _, thru, fb in rails:
            occ[thru] += occ[fb]
            occ[fb] = 0
        target[i] = basis.index_of(tuple(occ))
        patterns.setdefault(pat, []).append(i)
    return tuple((_read_only(np.array(idx)), _read_only(target[idx]))
                 for idx in patterns.values())


@functools.lru_cache(maxsize=8)
def _geometry(modes, photons):
    basis = enumerate_basis(modes, photons)
    _read_only(basis.totals)
    rails = tuple((3 * k, 3 * k + 1, 3 * k + 2) for k in range(modes // 3))
    occ = basis.occupation_matrix()
    return _Geometry(
        basis=basis,
        rails=rails,
        pair_layout=tuple(_pair_layout(occ, photons, thru, fb)
                          for _, thru, fb in rails),
        lift_coeffs=tuple(_read_only(_coupler_lift_coeffs(q))
                          for q in range(photons + 1)),
        powers=_read_only(np.arange(photons + 1)),
        reinjection=_reinjection(basis, rails),
        fb_occ=_read_only(occ[:, [fb for _, _, fb in rails]].astype(float)),
    )


def _coupler_lift_coeffs(q):
    """(q+1, q+1, q+1) coefficients C of the coupler [[t, s], [s, t]]
    lifted to the q-photon sector of its two modes, lift[a, b] =
    sum_j C[a, b, j] t^(q-j) s^j.  Every entry is a homogeneous degree-q
    polynomial, so C is the discrete Fourier transform of the lift at
    t = 1 and s on the (q+1)-th roots of unity."""
    roots = np.exp(2j * np.pi * np.arange(q + 1) / (q + 1))
    lifts = [_lift_sectors(np.array([[1.0, w], [w, 1.0]]), 2, q)[q]
             for w in roots]
    return (np.fft.fft(np.stack(lifts, axis=-1), axis=-1) / (q + 1)).real
