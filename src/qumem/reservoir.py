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

The memory is three scalar recurrences.  After a linear-optics step a
feedback-rail mean photon number depends only on the one-body matrix
G_ij = <a_i^+ a_j> of the meshed input on the memristor's own pair
(t, f), so memristor k is driven by R g_tt + (1 - R) g_ff +
2 sqrt(R (1 - R)) Im g_tf: its R and theta_k = (g_tt, g_ff, Im g_tf).
Every encoding gets theta the same way, from the rails' annihilators
on its ket factor after the input mesh in the Fock space, once per
distinct input of a run; coherent inputs of one length weight the
theta of one table of meshed coherent kets (a coherent input carries
only its weights and builds a state on demand).  Only the final,
measured step works in the Fock space, on a ket factor K
(rho = K K^+): the bank acts on basis-state groups with small lifts
from one lift table, and each feedback outcome is an incoherent branch
of reinjection and the output mesh; outcomes of one basis state (all
photons fed back) are one real product, the rest one reduction.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    DimensionError,
    ModeUnitary,
    QuantumState,
    _check_shots,
    _is_int,
    _lift_sectors,
    _sector,
    enumerate_basis,
    lift_unitary,
)
from .memristor import MemristorState, estimate_n_in

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
        if not isinstance(self.feedback, (bool, np.bool_)):
            raise ValueError(f"feedback must be a bool, "
                             f"got {self.feedback!r}")
        if not (_is_int(self.mesh_seed) and self.mesh_seed >= 0):
            raise ValueError(f"mesh_seed must be an integer >= 0, "
                             f"got {self.mesh_seed!r}")
        if not (self.sample_seed is None
                or _is_int(self.sample_seed) and self.sample_seed >= 0):
            raise ValueError(f"sample_seed must be None or an integer "
                             f">= 0, got {self.sample_seed!r}")


class EncodedInput:
    """A reservoir input, flagged when an all-zero vector fell back to
    the first basis state.  A coherent mixture carries its normalised
    weights (read-only; None on amplitude inputs) and basis, and builds
    its `state`, the kets times sqrt(weight), zero weights dropped, on
    first read."""

    def __init__(self, state=None, zero_fallback=False, weights=None,
                 basis=None):
        if state is None and (weights is None or basis is None):
            raise TypeError("an input needs a state, or weights and a basis")
        self._state, self.zero_fallback, self.weights = (
            state, zero_fallback, weights)
        self.basis = basis if state is None else state.basis

    @property
    def state(self):
        if self._state is None:
            w, keep = self.weights, self.weights > 0
            kets = _coherent_kets(w.size, self.basis.size)[:, keep]
            self._state = QuantumState(self.basis, kets * np.sqrt(w[keep]),
                                       validate=False)
        return self._state


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
    so the data enters only through the mixture weights.  The returned
    input carries them and the basis; its state is built on demand.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    if (v < 0).any():
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
    return EncodedInput(weights=_read_only(v / total), basis=basis)


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


@functools.lru_cache(maxsize=8)
def _meshes(modes, mesh_seed):
    """The (u_in, u_out) meshes of a mesh seed, drawn in that order from
    one generator; their matrices are read-only."""
    rng = np.random.default_rng(mesh_seed)
    pair = build_mesh(modes, rng=rng), build_mesh(modes, rng=rng)
    for mesh in pair:
        _read_only(mesh.matrix)
    return pair


def haar_vector(dim, rng):
    """Haar-random pure state on a dim-dimensional space."""
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def _embed(amps, basis):
    vec = np.zeros(basis.size, dtype=complex)
    vec[: amps.size] = amps
    return QuantumState.pure(basis, vec, validate=False)


def _bipartite_basis(d_loc, basis):
    """The basis (9 modes, 3 photons unless given) for d_loc^2 amplitudes."""
    if not (_is_int(d_loc) and d_loc >= 1):
        raise ValueError(f"d_loc must be an integer >= 1, got {d_loc!r}")
    basis = enumerate_basis(9, 3) if basis is None else basis
    if d_loc * d_loc > basis.size:
        raise DimensionError("d_loc^2 exceeds the reservoir dimension")
    return basis


def sample_entangled(d_loc, seed, basis=None):
    """Haar-random pure state on the d_loc x d_loc bipartite subspace
    (almost surely entangled), embedded on the first d_loc^2 basis
    states."""
    basis = _bipartite_basis(d_loc, basis)
    rng = np.random.default_rng(seed)
    return _embed(haar_vector(d_loc * d_loc, rng), basis)


def sample_separable(d_loc, seed, basis=None):
    """Tensor product of two Haar-random d_loc states (Schmidt rank 1),
    embedded on the first d_loc^2 basis states."""
    basis = _bipartite_basis(d_loc, basis)
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
    ended the last run with (0.5 before the first).  The meshes of a
    mesh seed are drawn once per process, and their lifts come from
    `lift_unitary`'s memo, so reservoirs of one seed share these
    read-only arrays.
    """

    def __init__(self, config):
        self.config = cfg = config
        geometry = _geometry(cfg.modes, cfg.photons)
        self.basis = geometry.basis
        self.u_in, self.u_out = _meshes(cfg.modes, cfg.mesh_seed)
        self.u_in_f = lift_unitary(self.u_in, self.basis)
        self.u_out_f = lift_unitary(self.u_out, self.basis)
        # input length -> (u_in_f @ _coherent_kets(length, dim), its theta)
        self._coherent_tables = {}
        self.rails = list(geometry.rails)
        self.reflectivities = _read_only(np.full(len(self.rails), 0.5))
        self._rng = np.random.default_rng(cfg.sample_seed)
        self._pair_layout = geometry.pair_layout
        self._lift_table = geometry.lift_table
        self._annihilation = geometry.annihilation
        # single-state outcomes with |u_out_f|^2 of their targets, then
        # each other outcome with the output mesh columns of its targets
        (idx, targets), rest = geometry.reinjection
        self._single_branches = idx, _read_only(
            np.abs(self.u_out_f[:, targets]) ** 2)
        self._reinjection_groups = [
            (idx, self.u_out_f[:, targets]) for idx, targets in rest]

    # -- pieces of a run -------------------------------------------------------

    def apply_layer(self, factor, reflectivities):
        """Memristor bank at reflectivities R (one per memristor) on a
        ket factor: the lift of the bank's mode matrix (coupler(R) on
        each (through, feedback) pair) applied to the (dim, rank) K, one
        pair at a time.  Returns a new array."""
        r = np.asarray(reflectivities, dtype=float)
        # the entries t and i r of every coupler(R)
        lifts = self._lift_table.lifts(np.sqrt(1.0 - r) + 0j, 1j * np.sqrt(r))
        out = np.array(factor, dtype=complex)
        # every pair mixes as many basis states (all those with a photon
        # on it), so one buffer takes each pair's products in turn
        buf = np.empty((self._pair_layout[0][0].size, out.shape[1]),
                       dtype=complex)
        for pair_lifts, (index, runs) in zip(zip(*lifts), self._pair_layout):
            rows = out[index]
            for q, start, stop in runs:
                np.matmul(pair_lifts[q - 1],
                          rows[start:stop].reshape(q + 1, -1),
                          out=buf[start:stop].reshape(q + 1, -1))
            out[index] = buf
        return out

    def output_probabilities(self, factor):
        """Fock distribution after reinjection and the output mesh: each
        feedback-rail outcome is an incoherent branch.  Single-state
        branches add |u_out column|^2 times the squared row norms of K;
        the others fill one buffer, reduced at once."""
        single, table = self._single_branches
        rows = factor[single].view(float)   # real and imaginary parts
        probs = table @ np.einsum("ij,ij->i", rows, rows)
        branches = np.empty((len(self._reinjection_groups), self.basis.size,
                             factor.shape[1]), dtype=complex)
        for branch, (idx, u_cols) in zip(branches, self._reinjection_groups):
            np.matmul(u_cols, factor[idx], out=branch)
        parts = branches.view(float)
        return probs + np.einsum("bij,bij->i", parts, parts)

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
        weights = x.weights
        if weights is None:
            return self.u_in_f @ x.state.ket_factor()
        keep = np.flatnonzero(weights)
        return (self._coherent_table(weights.size)[0][:, keep]
                * np.sqrt(weights[keep]))

    def _coherent_table(self, n):
        """Meshed ket table of coherent inputs of length n, and its theta."""
        table = self._coherent_tables.get(n)
        if table is None:
            kets = self.u_in_f @ _coherent_kets(n, self.basis.size)
            table = _read_only(kets), _read_only(self._theta(kets))
            self._coherent_tables[n] = table
        return table

    def _theta(self, factor):
        """(rank, memristors, 3): per column of K and memristor, g_tt,
        g_ff and Im g_tf of G_ij = <a_i^+ a_j> on its (t, f) rails."""
        index, weight = self._annihilation
        lowered = factor[index] * weight[..., None]
        g = np.einsum("imsk,jmsk->kmij", lowered.conj(), lowered)
        return np.stack([g[..., 0, 0].real, g[..., 1, 1].real,
                         g[..., 0, 1].imag], axis=-1)

    def _input_theta(self, inputs):
        """id -> theta (nested lists) of distinct inputs after the input
        mesh: the theta of each amplitude input's meshed factor, and one
        product per coherent length with its table's theta."""
        if any(x.basis.size != self.basis.size for x in inputs):
            raise DimensionError("input state does not match the reservoir")
        groups, thetas = {}, {}
        for x in inputs:   # amplitude inputs under None
            groups.setdefault(getattr(x.weights, "size", None), []).append(x)
        for n, group in groups.items():
            if n is None:
                got = [self._theta(self._mesh_input(x)).sum(axis=0).tolist()
                       for x in group]
            else:
                theta = self._coherent_table(n)[1]
                got = (np.stack([x.weights for x in group])
                       @ theta.reshape(n, -1)).reshape(
                           len(group), *theta.shape[1:]).tolist()
            thetas.update(zip(map(id, group), got))
        return thetas

    def _bank(self):
        """Fresh memristors at R = 0.5 and time 0, one per rail."""
        window = self.config.window if self.config.feedback else None
        return [MemristorState(0.5, window_seconds=window) for _ in self.rails]

    # -- public API -------------------------------------------------------------

    def run_sequence(self, inputs):
        """Run a fresh memristor bank over a sequence of `EncodedInput`s
        at t = 1..n and return the measured distribution of the final
        step.  Earlier optical states are discarded by construction
        (memory lives in the reflectivities), so each step advances the
        bank on its input's theta, computed once per input object, and
        only the final step meshes its input and is measured."""
        inputs = list(inputs)
        if not inputs:
            raise ValueError("input sequence must be non-empty")
        thetas = self._input_theta({id(x): x for x in inputs}.values())
        times = [float(t) for t in range(1, len(inputs) + 1)]
        bank, held = self._bank(), []
        # memristor k runs its whole recurrence on theta k of each step,
        # in Python floats (numpy scalars slow each advance): at R = r its
        # feedback rail holds r g_tt + (1 - r) g_ff + 2 sqrt(r (1 - r))
        # Im g_tf photons on average, and the measured final step keeps
        # the R it started from
        for mem, drive in zip(bank, zip(*[thetas[id(x)] for x in inputs])):
            advance, r = mem.advance, mem.R
            for t, (g_tt, g_ff, g_tf) in zip(times, drive):
                last = r
                r = advance(t, estimate_n_in(
                    r * g_tt + (1.0 - r) * g_ff
                    + 2.0 * math.sqrt(r * (1.0 - r)) * g_tf, r)).R
            held.append(last)
        self.reflectivities = _read_only(np.array([m.R for m in bank]))
        factor = self.apply_layer(self._mesh_input(inputs[-1]), held)
        return self._measured_probs(self.output_probabilities(factor))


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
    lift_table: _LiftTable
    reinjection: tuple   # ((indices, targets) of single-state ones, others)
    annihilation: tuple  # (index, weight), each (2, memristors, dim of p-1)


def _annihilation(basis, rails):
    """Memristor m's through- (i = 0) and feedback-rail (i = 1)
    annihilator from the p- to the (p-1)-photon sector as a gather: for
    (p-1)-photon state s, (a K)[s] = weight[i, m, s] K[index[i, m, s]]."""
    lower = _sector(basis.modes, basis.photons - 1)
    modes = np.array(rails)[:, 1:].T
    index = np.array([[[basis.index_of(occ[:j] + (occ[j] + 1,) + occ[j + 1:])
                        for occ in lower] for j in row] for row in modes])
    weight = np.sqrt(np.array(lower, dtype=float).T[modes] + 1.0)
    return _read_only(index), _read_only(weight)


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
    targets (feedback occupation moved onto the through rail); all
    single-state groups are merged into the first pair."""
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
    single = [idx[0] for idx in patterns.values() if len(idx) == 1]
    return ((_read_only(np.array(single, dtype=int)),
             _read_only(target[single])),
            tuple((_read_only(np.array(idx)), _read_only(target[idx]))
                  for idx in patterns.values() if len(idx) > 1))


@functools.lru_cache(maxsize=8)
def _geometry(modes, photons):
    basis = enumerate_basis(modes, photons)
    rails = tuple((3 * k, 3 * k + 1, 3 * k + 2) for k in range(modes // 3))
    occ = basis.occupation_matrix()
    return _Geometry(
        basis=basis,
        rails=rails,
        pair_layout=tuple(_pair_layout(occ, photons, thru, fb)
                          for _, thru, fb in rails),
        lift_table=_LiftTable(photons),
        reinjection=_reinjection(basis, rails),
        annihilation=_annihilation(basis, rails),
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


class _LiftTable:
    """Every coupler lift of the sectors q = 1..photons as one linear map
    of monomials.  Each lift entry is a homogeneous degree-q polynomial
    in the coupler entries t and s, so with the monomials t^(q-j) s^j
    (exponents `t_exp`, `s_exp`, q ascending) as a row, one product with
    the read-only (monomials, lift entries) `matrix` gives every entry;
    the entries of sector q are the columns `columns[q - 1]`, row-major
    (q+1) x (q+1)."""

    def __init__(self, photons):
        sectors = range(1, photons + 1)
        self.t_exp = _read_only(np.array(
            [q - j for q in sectors for j in range(q + 1)]))
        self.s_exp = _read_only(np.array(
            [j for q in sectors for j in range(q + 1)]))
        matrix = np.zeros((self.t_exp.size,
                           sum((q + 1) ** 2 for q in sectors)), dtype=complex)
        columns, row, col = [], 0, 0
        for q in sectors:
            block = _coupler_lift_coeffs(q).reshape(-1, q + 1).T
            matrix[row : row + q + 1, col : col + block.shape[1]] = block
            columns.append(slice(col, col + block.shape[1]))
            row, col = row + q + 1, col + block.shape[1]
        self.matrix = _read_only(matrix)
        self.columns = tuple(columns)

    def lifts(self, t, s):
        """Per sector q = 1..photons, the (n, q+1, q+1) lifts of the n
        couplers [[t, s], [s, t]] given by the (n,) complex arrays t
        and s."""
        monomials = t[:, None] ** self.t_exp * s[:, None] ** self.s_exp
        entries = monomials @ self.matrix
        return tuple(entries[:, cols].reshape(t.size, q + 1, q + 1)
                     for q, cols in enumerate(self.columns, start=1))
