"""Memristor-based quantum reservoir computer.

Input vectors are amplitude-encoded (or mixed into coherent kets for
the classical baseline) on an m-mode, p-photon Fock space, scrambled by
a fixed random coupler mesh, passed through a bank of floor(m/3)
memristors, scrambled again, and measured in the Fock basis.  Memory
lives only in the memristor reflectivities: each step consumes a fresh
encoded input, and the feedback-port statistics of that step drive
every memristor, a `MemristorState` running the sliding-window law at
unit time steps (one step is one second of its window).

Each memristor owns a triple of rails (bypass, through, feedback); its
coupler acts on (through, feedback).  A photon found on the feedback
rail is reinjected: the feedback occupation is measured (which dephases
across feedback outcomes) and moved back onto the through rail, so the
map is trace preserving and photon-number conserving.

The engine works on a ket factor K of shape (dim, rank), rho = K K^+:
a pure input is its amplitude column and a coherent mixture its
weighted kets.  The input mesh is applied once per distinct input
object of a sequence.  Each coupler acts only on groups of basis states
that differ in how the photons of its pair are split, so the bank is
applied group by group with small (q+1) x (q+1) lifts evaluated from
precomputed polynomial coefficients; the lifted bank matrix is never
built.  Reinjection and the output mesh run only where an output is
measured, one feedback outcome (incoherent branch) at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    DimensionError,
    ModeUnitary,
    QuantumState,
    _lift_sectors,
    coupler,
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
    feedback: bool = True    # False freezes every reflectivity at r_init
    r_init: float = 0.5
    sample_seed: int = None

    def __post_init__(self):
        if self.modes < 3:
            raise ValueError("need at least three modes for one memristor")
        if self.photons < 1:
            raise ValueError("need at least one photon")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be positive or None")

    @property
    def n_memristors(self):
        return self.modes // 3


@dataclass
class EncodedInput:
    """A reservoir input state, flagged when an all-zero vector fell
    back to the first basis state."""

    state: QuantumState
    zero_fallback: bool = False


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


def coherent_encode(v, basis, truncation=None):
    """Classical baseline: statistical mixture of fixed coherent kets.

    Component j of v weights the truncated coherent ket of amplitude j,
    so the data enters only through the mixture weights.  The state is
    held as its ket factor, the kets scaled by sqrt(weight) (zero
    weights dropped), which is exact.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if np.any(v < 0):
        raise ValueError("mixture weights must be non-negative")
    total = v.sum()
    if total == 0.0:
        raise ValueError("all-zero vector cannot form a mixture")
    if v.size > basis.size:
        raise DimensionError(
            f"vector of length {v.size} exceeds basis size {basis.size}"
        )
    dim = basis.size if truncation is None else int(truncation)
    if dim != basis.size:
        raise ValueError("truncation must equal the basis size")
    weights = v / total
    keep = np.flatnonzero(weights)
    factor = _coherent_kets(v.size, dim)[:, keep] * np.sqrt(weights[keep])
    return EncodedInput(QuantumState(basis, factor, validate=False))


# ---------------------------------------------------------------------------
# random meshes and random states

def build_mesh(modes, seed=None, rng=None, reflectivity=None, phase=None):
    """Rectangular nearest-neighbour coupler mesh of depth `modes`.

    Every coupler draws reflectivity ~ U[0,1] and phase ~ U[0, 2 pi)
    from the seeded generator; fixed values may be forced for tests.
    """
    if modes < 2:
        raise ValueError("a mesh needs at least two modes")
    if rng is None:
        rng = np.random.default_rng(seed)
    u = np.eye(modes, dtype=complex)
    for layer in range(modes):
        for j in range(layer % 2, modes - 1, 2):
            r = rng.uniform() if reflectivity is None else reflectivity
            ph = rng.uniform(0.0, 2.0 * math.pi) if phase is None else phase
            block = coupler(r, ph)
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


def schmidt_coefficients(state, d_loc):
    """Schmidt spectrum of the embedded bipartite amplitudes."""
    amps = state.amplitudes[: d_loc * d_loc].reshape(d_loc, d_loc)
    svals = np.linalg.svd(amps, compute_uv=False)
    norm = np.linalg.norm(svals)
    return svals / norm


def entanglement_entropy(state, d_loc):
    """Von Neumann entropy (nats) of one side of the bipartition."""
    probs = schmidt_coefficients(state, d_loc) ** 2
    probs = probs[probs > 1e-15]
    return float(-(probs * np.log(probs)).sum())


# ---------------------------------------------------------------------------
# the reservoir

class Reservoir:
    """Fixed input/output meshes around a bank of memristor couplers.

    Single-writer: run_sequence() mutates the memristor bank and the
    step counter.  Distinct instances are independent.
    """

    def __init__(self, config=None, **kwargs):
        self.config = config or ReservoirConfig(**kwargs)
        cfg = self.config
        geometry = _geometry(cfg.modes, cfg.photons)
        self.basis = geometry.basis
        rng = np.random.default_rng(cfg.mesh_seed)
        self.u_in = build_mesh(cfg.modes, rng=rng)
        self.u_out = build_mesh(cfg.modes, rng=rng)
        self.u_in_f = lift_unitary(self.u_in, self.basis)
        self.u_out_f = lift_unitary(self.u_out, self.basis)
        self.rails = list(geometry.rails)
        self.reset()
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

    def bank_mode_matrix(self):
        """m x m mode matrix of the current memristor couplers."""
        u = np.eye(self.config.modes, dtype=complex)
        for (_, thru, fb), mem in zip(self.rails, self.memristors):
            u[np.ix_((thru, fb), (thru, fb))] = coupler(mem.R)
        return u

    def apply_layer(self, factor):
        """Memristor bank on a ket factor: the lift of bank_mode_matrix()
        applied to the (dim, rank) K, one pair and one pair-photon
        sector at a time.  Returns a new array."""
        out = np.array(factor, dtype=complex)
        for (index, runs), mem in zip(self._pair_layout, self.memristors):
            # the entries t and i r of coupler(mem.R)
            t_pow = complex(math.sqrt(1.0 - mem.R)) ** self._powers
            s_pow = complex(0.0, math.sqrt(mem.R)) ** self._powers
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

    def _advance_memristors(self, fb_probs):
        """One unit time step of every memristor, fed the input
        estimated from its feedback-rail expectation."""
        self.step_index += 1
        t = float(self.step_index)
        # Python floats: numpy scalars make the window's sum ~3x slower
        for mem, fb in zip(self.memristors, fb_probs.tolist()):
            mem.advance(t, estimate_n_in(fb, mem.R))

    def _measured_probs(self, probs):
        probs = np.clip(probs, 0.0, None)
        probs /= probs.sum()
        if self.config.shots is None:
            return probs
        counts = self._rng.multinomial(self.config.shots, probs)
        return counts / float(self.config.shots)

    def _mesh_input(self, x):
        """Input mesh applied to the ket factor of an input."""
        state = x.state if isinstance(x, EncodedInput) else x
        if state.dim != self.basis.size:
            raise DimensionError("input state does not match the reservoir")
        return self.u_in_f @ state.ket_factor()

    # -- public API -------------------------------------------------------------

    def reset(self):
        """Fresh memristors at r_init and time 0 (new example); the
        sampling RNG stream is left running."""
        cfg = self.config
        law = WINDOWED if cfg.feedback else FROZEN
        self.memristors = [
            MemristorState(cfg.r_init, window_seconds=cfg.window, law=law)
            for _ in self.rails
        ]
        self.step_index = 0
        return self

    def run_sequence(self, inputs, reset=False):
        """Fold the reservoir over an input sequence and return the
        measured distribution of the final step.  Earlier optical
        states are discarded by construction (memory lives in the
        reflectivities), so only the last output is computed, and an
        input object repeated in the sequence passes the input mesh
        once."""
        inputs = list(inputs)
        if not inputs:
            raise ValueError("input sequence must be non-empty")
        if reset:
            self.reset()
        meshed = {}
        for x in inputs:
            if id(x) not in meshed:
                meshed[id(x)] = self._mesh_input(x)
        for x in inputs:
            factor = self.apply_layer(meshed[id(x)])
            self._advance_memristors(self.feedback_probabilities(factor))
        return self._measured_probs(self.output_probabilities(factor))

    @property
    def reflectivities(self):
        return np.array([mem.R for mem in self.memristors])


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
    fb_occ: np.ndarray   # (dim, n_memristors) feedback-rail occupations


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
