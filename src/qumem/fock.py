"""Dense multimode Fock-space engine for linear optics.

Basis enumeration, lifting of mode unitaries to the multi-photon
Hilbert space, density-operator algebra, and photon-counting
measurement.  A state has one stored form, a ket factor K with
rho = K K^dagger: one column for a pure state, one weighted ket per
column for a mixture.  Evolution and photon counting act on K; the
density matrix is formed only when asked for.  Everything is dense numpy: the systems of interest stay
small (nine modes with three photons give a 165-dimensional space,
binomial(m+p-1, p) in general).

A lift is built one photon sector at a time by the creation-operator
recursion, each sector from the one below, so no matrix permanent is
formed; `permanent` (Ryser's formula) is kept as a standalone function.

Conventions
-----------
* Occupation vectors are enumerated in descending lexicographic order,
  so for a single photon the k-th basis state is the photon in mode k
  and the lifted matrix of a mode unitary U reduces to U itself.
* A two-mode coupler with reflectivity R acts as
  [[t, i r], [i r, t]] with t = sqrt(1-R), r = sqrt(R): the photon
  crosses rails with probability R and picks up the phase i.
"""

from __future__ import annotations

import functools
import math

import numpy as np

ATOL_UNITARY = 1e-10
ATOL_STATE = 1e-10
EIG_FLOOR = -1e-9  # tolerated round-off on density-operator eigenvalues


class DimensionError(ValueError):
    """Raised for invalid or mismatched Hilbert-space dimensions."""


@functools.lru_cache(maxsize=256)
def _sector(modes, photons):
    """Occupation vectors of `modes` modes holding exactly `photons`
    photons, in descending lexicographic order (a cached tuple)."""
    if modes == 1:
        return ((photons,),)
    out = []
    for k in range(photons, -1, -1):
        out.extend((k,) + tail for tail in _sector(modes - 1, photons - k))
    return tuple(out)


class OccupationBasis:
    """Ordered enumeration of m-mode occupation vectors.

    Either a fixed photon-number sector (size binomial(m+p-1, p)) or
    the union of all sectors 0..p (needed for reduced states and for
    vacuum/one-photon qubits).  The ordering is deterministic: sectors
    ascend in total photon number, and each sector is descending
    lexicographic.
    """

    def __init__(self, modes, photons, states, fixed_total):
        self.modes = modes
        self.photons = photons
        self.states = tuple(tuple(s) for s in states)
        self.fixed_total = fixed_total
        self._index = {occ: i for i, occ in enumerate(self.states)}
        self.totals = np.array([sum(occ) for occ in self.states], dtype=int)

    @property
    def size(self):
        return len(self.states)

    def __len__(self):
        return len(self.states)

    def index_of(self, occupation):
        try:
            return self._index[tuple(occupation)]
        except KeyError:
            raise KeyError(f"occupation {tuple(occupation)} not in basis")

    def occupation_of(self, index):
        return self.states[index]

    def occupation_matrix(self):
        """(size, modes) integer array of occupations."""
        return np.array(self.states, dtype=int)

    def __repr__(self):
        kind = "p=%d" % self.photons if self.fixed_total else "p<=%d" % self.photons
        return f"OccupationBasis(m={self.modes}, {kind}, size={self.size})"


def enumerate_basis(modes, photons):
    """All occupation vectors of `modes` modes with exactly `photons`
    photons.  Size is binomial(modes+photons-1, photons)."""
    if modes < 1:
        raise DimensionError("mode count must be >= 1")
    if photons < 0:
        raise ValueError("photon count must be >= 0")
    states = _sector(modes, photons)
    assert len(states) == math.comb(modes + photons - 1, photons)
    return OccupationBasis(modes, photons, states, fixed_total=True)


def enumerate_basis_upto(modes, photons):
    """Union of the 0..photons sectors (ascending total photon number)."""
    if modes < 1:
        raise DimensionError("mode count must be >= 1")
    states = []
    for p in range(photons + 1):
        states.extend(_sector(modes, p))
    return OccupationBasis(modes, photons, states, fixed_total=False)


class ModeUnitary:
    """An m x m unitary acting on the optical modes."""

    def __init__(self, matrix, atol=ATOL_UNITARY):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionError("mode unitary must be square")
        dev = np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])))
        if dev > atol:
            raise ValueError(f"matrix is not unitary (deviation {dev:.2e})")
        self.matrix = matrix

    @property
    def dim(self):
        return self.matrix.shape[0]


def coupler(reflectivity, phase=0.0):
    """Two-mode coupler [[t, ir], [ir, t]] @ diag(1, e^{i phase})."""
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError("reflectivity must lie in [0, 1]")
    t = math.sqrt(1.0 - reflectivity)
    r = math.sqrt(reflectivity)
    bs = np.array([[t, 1j * r], [1j * r, t]], dtype=complex)
    if phase:
        bs = bs @ np.diag([1.0, np.exp(1j * phase)])
    return bs


class QuantumState:
    """A state over an OccupationBasis, held as a ket factor K of shape
    (dim, rank) with rho = K K^dagger.  A pure state is the one column
    of its amplitudes; a mixture has one column per weighted ket.  The
    density matrix is formed only when asked for, then cached."""

    def __init__(self, basis, factor, validate=True):
        fac = np.asarray(factor)
        if fac.ndim != 2 or fac.shape[0] != basis.size:
            raise DimensionError("factor must be (basis size, rank)")
        if validate:
            tr = np.sum(np.abs(fac) ** 2)
            if abs(tr - 1.0) > ATOL_STATE:
                raise ValueError(f"state trace {tr} deviates from 1")
        self.basis = basis
        self._factor = fac
        self._density = None

    @classmethod
    def pure(cls, basis, amplitudes, validate=True):
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        return cls(basis, vec[:, None], validate=validate)

    @classmethod
    def from_density(cls, basis, matrix, validate=True):
        """State of a density operator, factored by one eigen-
        decomposition.  Eigenvalues within 8 dim ulps of the largest
        are round-off zeros and are dropped, so a projector gives a
        pure state.  density() returns the given matrix."""
        mat = np.asarray(matrix, dtype=complex)
        if mat.shape != (basis.size, basis.size):
            raise DimensionError("density shape does not match basis size")
        if validate:
            if np.max(np.abs(mat - mat.conj().T)) > ATOL_STATE:
                raise ValueError("density operator is not Hermitian")
            tr = np.trace(mat).real
            if abs(tr - 1.0) > ATOL_STATE:
                raise ValueError(f"density trace {tr} deviates from 1")
        evals, evecs = np.linalg.eigh(mat)
        if validate and evals[0] < EIG_FLOOR:
            raise ValueError("density operator has a negative eigenvalue")
        ulp = max(evals[-1], 0.0) * np.finfo(float).eps
        keep = evals > 8 * mat.shape[0] * ulp
        state = cls(basis, evecs[:, keep] * np.sqrt(evals[keep]),
                    validate=False)
        state._density = mat
        return state

    @classmethod
    def basis_state(cls, basis, occupation):
        vec = np.zeros(basis.size, dtype=complex)
        vec[basis.index_of(occupation)] = 1.0
        return cls.pure(basis, vec, validate=False)

    @property
    def is_pure(self):
        """Rank one: a single ket."""
        return self._factor.shape[1] == 1

    @property
    def amplitudes(self):
        """Amplitude vector of a pure state; None for a mixture."""
        return self._factor[:, 0] if self.is_pure else None

    @property
    def dim(self):
        return self.basis.size

    def density(self):
        """Density matrix K K^dagger (cached)."""
        if self._density is None:
            fac = self._factor
            self._density = (fac @ fac.conj().T).astype(complex)
        return self._density

    def ket_factor(self):
        """(dim, rank) K with rho = K K^dagger."""
        return self._factor


# ---------------------------------------------------------------------------
# permanents and unitary lifting

def _permanents(batch):
    """Permanents of a (..., n, n) batch by Ryser's inclusion-exclusion.

    per(A) = (-1)^n sum_{S != 0} (-1)^{|S|} prod_i sum_{j in S} A_ij
    """
    batch = np.asarray(batch)
    n = batch.shape[-1]
    if n == 0:
        return np.ones(batch.shape[:-2], dtype=batch.dtype)
    total = np.zeros(batch.shape[:-2], dtype=batch.dtype)
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        colsum = batch[..., cols].sum(axis=-1)
        total += (-1) ** len(cols) * colsum.prod(axis=-1)
    return total * (-1) ** n


def permanent(matrix):
    """Permanent of one square matrix."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionError("permanent needs a square matrix")
    return complex(_permanents(matrix))


@functools.lru_cache(maxsize=16)
def _ladder(modes, photons):
    """Index tables of the creation-operator recursion, one per sector
    k = 1..photons, as read-only arrays.

    Column side, per k-photon input state b with first occupied mode j:
    j, the index of b - e_j in sector k-1, and 1/sqrt(b_j).  Row side,
    per output state o and slot t over its occupied modes i (padded to
    min(k, modes) slots), as (slots, d_k) arrays: the index of o - e_i
    in sector k-1, and the row (o_i - 1) * modes + i of the table that
    `_lift_sectors` fills with sqrt(o_i) U[i, :] (padding points at its
    last row, which is zero)."""
    tables = []
    prev = {occ: i for i, occ in enumerate(_sector(modes, 0))}
    for k in range(1, photons + 1):
        states = _sector(modes, k)
        width = min(k, modes)
        rows = np.full((width, len(states)), k * modes, dtype=np.intp)
        parents = np.zeros((width, len(states)), dtype=np.intp)
        col_mode = np.empty(len(states), dtype=np.intp)
        col_parent = np.empty(len(states), dtype=np.intp)
        col_scale = np.empty(len(states))
        for b, occ in enumerate(states):
            occupied = [i for i, n in enumerate(occ) if n]
            for t, i in enumerate(occupied):
                rows[t, b] = (occ[i] - 1) * modes + i
                parents[t, b] = prev[occ[:i] + (occ[i] - 1,) + occ[i + 1:]]
            col_mode[b] = occupied[0]
            col_parent[b] = parents[0, b]
            col_scale[b] = 1.0 / math.sqrt(occ[occupied[0]])
        table = (rows, parents, col_mode, col_parent, col_scale)
        for arr in table:
            arr.flags.writeable = False
        tables.append(table)
        prev = {occ: i for i, occ in enumerate(states)}
    return tuple(tables)


def _lift_sectors(u, modes, photons):
    """Lifts of the mode unitary u onto the sectors 0..photons.

    Column b of the k-photon lift follows from the (k-1)-photon lift by
    one creation operator, |b> = a_j^+ |b - e_j> / sqrt(b_j) with j the
    first occupied mode of b, and U a_j^+ U^+ = sum_i U[i, j] a_i^+:

        L_k[o, b] = (1/sqrt(b_j)) sum_i sqrt(o_i) U[i, j] L_{k-1}[o - e_i, b - e_j]

    (Miatto & Quesada, Quantum 4, 366 (2020)).  No permanent is formed.
    """
    lifts = [np.ones((1, 1), dtype=complex)]
    for k, (rows, parents, col_mode, col_parent, col_scale) in enumerate(
            _ladder(modes, photons), start=1):
        cols = lifts[-1][:, col_parent]
        u_cols = u[:, col_mode] * col_scale
        table = np.zeros((k * modes + 1, col_mode.size), dtype=complex)
        table[:-1] = (np.sqrt(np.arange(1.0, k + 1))[:, None, None]
                      * u_cols).reshape(k * modes, -1)
        out = table[rows[0]]
        out *= cols[parents[0]]
        for row, parent in zip(rows[1:], parents[1:]):
            term = table[row]
            term *= cols[parent]
            out += term
        lifts.append(out)
    return lifts


def lift_unitary(u, basis):
    """Lift a mode unitary to the Fock space over `basis`.

    For a mixed-sector basis the lift is block diagonal over photon
    number (a passive unitary conserves total photon number).  The
    basis must be in the order of `enumerate_basis` or
    `enumerate_basis_upto`.
    """
    if isinstance(u, ModeUnitary):
        u = u.matrix
    u = np.asarray(u, dtype=complex)
    if u.shape != (basis.modes, basis.modes):
        raise DimensionError(
            f"mode matrix is {u.shape}, basis has {basis.modes} modes"
        )
    first = basis.photons if basis.fixed_total else 0
    sectors = range(first, basis.photons + 1)
    if basis.states != sum((_sector(basis.modes, k) for k in sectors), ()):
        raise ValueError("lifting needs a basis in enumerate_basis order")
    lifts = _lift_sectors(u, basis.modes, basis.photons)
    if basis.fixed_total:
        return lifts[-1]
    out = np.zeros((basis.size, basis.size), dtype=complex)
    start = 0
    for block in lifts:
        stop = start + block.shape[0]
        out[start:stop, start:stop] = block
        start = stop
    return out


def apply(state, lifted):
    """Evolve a state by a lifted unitary, K -> U K (U rho U^dagger)."""
    lifted = np.asarray(lifted)
    if lifted.shape != (state.dim, state.dim):
        raise DimensionError("lifted unitary does not match state dimension")
    return QuantumState(state.basis, lifted @ state.ket_factor(),
                        validate=False)


# ---------------------------------------------------------------------------
# reduction and scalar functionals

def partial_trace(state, keep_modes):
    """Trace out all modes except `keep_modes`.

    The reduced state lives on the 0..p sector union of the kept modes,
    since the discarded modes may carry any share of the photons.
    """
    basis = state.basis
    keep = tuple(sorted(keep_modes))
    if len(keep) == 0:
        raise ValueError("keep_modes must be non-empty")
    if len(set(keep)) != len(keep) or any(m < 0 or m >= basis.modes for m in keep):
        raise ValueError("keep_modes must be distinct valid mode indices")
    if len(keep) == basis.modes:
        raise ValueError("keep_modes must be a proper subset of the modes")
    env = tuple(m for m in range(basis.modes) if m not in keep)

    reduced = enumerate_basis_upto(len(keep), basis.photons)
    rho = state.density()
    out = np.zeros((reduced.size, reduced.size), dtype=complex)

    groups = {}
    for i, occ in enumerate(basis.states):
        kocc = tuple(occ[m] for m in keep)
        eocc = tuple(occ[m] for m in env)
        groups.setdefault(eocc, []).append((i, reduced.index_of(kocc)))
    for pairs in groups.values():
        idx = [i for i, _ in pairs]
        ridx = [r for _, r in pairs]
        out[np.ix_(ridx, ridx)] += rho[np.ix_(idx, idx)]
    return QuantumState.from_density(reduced, out, validate=False)


def purity(rho):
    """Tr(rho^2)."""
    rho = rho.density() if isinstance(rho, QuantumState) else np.asarray(rho)
    return float(np.einsum("ij,ji->", rho, rho).real)


def _psd_sqrt(mat):
    evals, evecs = np.linalg.eigh(mat)
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def fidelity(rho, sigma):
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    rho = rho.density() if isinstance(rho, QuantumState) else np.asarray(rho)
    sigma = sigma.density() if isinstance(sigma, QuantumState) else np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise DimensionError("fidelity needs equal-dimension operators")
    sr = _psd_sqrt(rho)
    middle = sr @ sigma @ sr
    evals = np.linalg.eigvalsh((middle + middle.conj().T) / 2.0)
    root = np.sqrt(np.clip(evals, 0.0, None)).sum()
    return float(min(root * root, 1.0))


def fock_probabilities(state):
    """Diagonal of the density operator: photon-counting distribution."""
    probs = (np.abs(state.ket_factor()) ** 2).sum(axis=1)
    return np.clip(probs, 0.0, None)


def number_expectations(state):
    """Per-mode photon-number expectation values."""
    probs = fock_probabilities(state)
    return probs @ state.basis.occupation_matrix()


def total_photon_expectation(state):
    return float(number_expectations(state).sum())


def sample_counts(probs, shots, seed):
    """Multinomial photon-counting samples; deterministic given seed."""
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < 0):
        raise ValueError("probabilities must be non-negative")
    total = probs.sum()
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    if shots <= 0:
        raise ValueError("shots must be positive")
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs / total)
