"""Dense multimode Fock-space engine for linear optics.

Basis enumeration, lifting of mode unitaries to the multi-photon
Hilbert space, and density-operator algebra.  A state has one stored
form, a ket factor K with rho = K K^dagger: one column for a pure
state, one weighted ket per column for a mixture.  Evolution acts on K;
the density matrix is formed only when asked for.  Everything is dense
numpy: the systems of interest stay small (nine modes with three
photons give a 165-dimensional space, binomial(m+p-1, p) in general).

A lift is built one photon sector at a time by the creation-operator
recursion, each sector from the one below, so no matrix permanent is
formed.

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
import numbers

import numpy as np

ATOL_UNITARY = 1e-10
ATOL_STATE = 1e-10
MAX_SHOTS = 2**63 - 1  # the largest count numpy's int64 draws take
_LIFT_ROWS = 24        # output rows per block of a sector lift's sums


class DimensionError(ValueError):
    """Raised for invalid or mismatched Hilbert-space dimensions."""


def _is_int(value):
    """An integer count: any integral number (numpy's included) but a
    bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_shots(shots):
    """Reject a shot count that is neither None (exact statistics) nor
    an integer in [1, MAX_SHOTS]."""
    if not (shots is None or (_is_int(shots) and 1 <= shots <= MAX_SHOTS)):
        raise ValueError(f"shots must be None or an integer in "
                         f"[1, {MAX_SHOTS}], got {shots!r}")


def _check_counts(modes, photons):
    if not (_is_int(modes) and modes >= 1):
        raise DimensionError(f"mode count must be an integer >= 1, "
                             f"got {modes!r}")
    if not (_is_int(photons) and photons >= 0):
        raise ValueError(f"photon count must be an integer >= 0, "
                         f"got {photons!r}")


@functools.lru_cache(maxsize=256)
def _sector(modes, photons):
    """Occupation vectors of `modes` modes holding exactly `photons`
    photons, in descending lexicographic order (a cached tuple).

    Each vector follows from the one before: the last mode before the
    final one that holds a photon gives one up, and the next mode takes
    it together with every photon of the final mode."""
    occ = [photons] + [0] * (modes - 1)
    out = [tuple(occ)]
    i = modes - 2
    while True:
        while i >= 0 and not occ[i]:
            i -= 1
        if i < 0:
            return tuple(out)
        moved = occ[-1] + 1
        occ[-1] = 0
        occ[i] -= 1
        occ[i + 1] = moved
        out.append(tuple(occ))
        i = min(i + 1, modes - 2)


class OccupationBasis:
    """Ordered enumeration of the occupation vectors of m modes holding
    exactly p photons: one photon-number sector, of size
    binomial(m+p-1, p), in descending lexicographic order.
    """

    def __init__(self, modes, photons, states):
        self.modes = modes
        self.photons = photons
        self.states = tuple(tuple(s) for s in states)
        self._index = {occ: i for i, occ in enumerate(self.states)}

    @property
    def size(self):
        return len(self.states)

    def index_of(self, occupation):
        try:
            return self._index[tuple(occupation)]
        except KeyError:
            raise KeyError(f"occupation {tuple(occupation)} not in basis")

    def occupation_matrix(self):
        """(size, modes) integer array of occupations."""
        return np.array(self.states, dtype=int)

    def __repr__(self):
        return (f"OccupationBasis(m={self.modes}, p={self.photons}, "
                f"size={self.size})")


def enumerate_basis(modes, photons):
    """All occupation vectors of `modes` modes with exactly `photons`
    photons.  Size is binomial(modes+photons-1, photons)."""
    _check_counts(modes, photons)
    states = _sector(modes, photons)
    assert len(states) == math.comb(modes + photons - 1, photons)
    return OccupationBasis(modes, photons, states)


class ModeUnitary:
    """An m x m unitary acting on the optical modes."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionError("mode unitary must be square")
        dev = np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])))
        if dev > ATOL_UNITARY:
            raise ValueError(f"matrix is not unitary (deviation {dev:.2e})")
        self.matrix = matrix


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
# unitary lifting

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
    Each sector is filled _LIFT_ROWS output rows at a time, so the
    temporaries of a sum are one row block, not the whole sector.
    """
    lifts = [np.ones((1, 1), dtype=complex)]
    for k, (rows, parents, col_mode, col_parent, col_scale) in enumerate(
            _ladder(modes, photons), start=1):
        cols = lifts[-1][:, col_parent]
        u_cols = u[:, col_mode] * col_scale
        table = np.zeros((k * modes + 1, col_mode.size), dtype=complex)
        table[:-1] = (np.sqrt(np.arange(1.0, k + 1))[:, None, None]
                      * u_cols).reshape(k * modes, -1)
        out = np.empty((col_mode.size, col_mode.size), dtype=complex)
        for start in range(0, col_mode.size, _LIFT_ROWS):
            block = slice(start, start + _LIFT_ROWS)
            acc = out[block]
            np.take(table, rows[0, block], axis=0, out=acc)
            acc *= cols[parents[0, block]]
            for row, parent in zip(rows[1:, block], parents[1:, block]):
                term = table[row]
                term *= cols[parent]
                acc += term
        lifts.append(out)
    return lifts


def lift_unitary(u, basis):
    """Lift a mode unitary to the Fock space over `basis`, which must be
    in the order of `enumerate_basis`."""
    if isinstance(u, ModeUnitary):
        u = u.matrix
    u = np.asarray(u, dtype=complex)
    if u.shape != (basis.modes, basis.modes):
        raise DimensionError(
            f"mode matrix is {u.shape}, basis has {basis.modes} modes"
        )
    if basis.states != _sector(basis.modes, basis.photons):
        raise ValueError("lifting needs a basis in enumerate_basis order")
    return _lift_sectors(u, basis.modes, basis.photons)[-1]


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
    """Reduced density matrix of `keep_modes`, every other mode traced
    out.

    The discarded modes may carry any share of the p photons, so the
    rows and columns are the kept modes' occupations with 0..p photons:
    ascending photon number, each sector in `enumerate_basis` order.
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

    sectors = (_sector(len(keep), k) for k in range(basis.photons + 1))
    row = {occ: r for r, occ in enumerate(sum(sectors, ()))}
    rho = state.density()
    out = np.zeros((len(row), len(row)), dtype=complex)

    groups = {}
    for i, occ in enumerate(basis.states):
        kocc = tuple(occ[m] for m in keep)
        eocc = tuple(occ[m] for m in env)
        groups.setdefault(eocc, []).append((i, row[kocc]))
    for pairs in groups.values():
        idx = [i for i, _ in pairs]
        ridx = [r for _, r in pairs]
        out[np.ix_(ridx, ridx)] += rho[np.ix_(idx, idx)]
    return out


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

