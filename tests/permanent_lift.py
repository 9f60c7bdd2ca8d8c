"""Slow oracle for the Fock lift: matrix permanents by Ryser's formula.

This is the lift the library used before the creation-operator
recursion, <out|U_F|in> = per(U[out|in]) / sqrt(prod out_i! prod in_j!)
(Scheel, quant-ph/0406127), kept so tests can check the recursion
against an independent evaluation of every entry.
"""

import math

import numpy as np

from qumem.fock import DimensionError

_LIFT_ROWS = 16


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


def _repetition_indices(occs):
    """Mode index repeated by its occupation, per basis state: (d, p)."""
    return np.array(
        [[m for m, n in enumerate(occ) for _ in range(n)] for occ in occs],
        dtype=int,
    )


def _sqrt_factorials(occs):
    return np.array(
        [math.sqrt(math.prod(math.factorial(n) for n in occ)) for occ in occs]
    )


def lift_sector(u, occs):
    """Lift an m x m mode unitary onto one fixed-photon-number sector
    listed by `occs`, in that order.  U[out|in] repeats row i out_i
    times and column j in_j times."""
    p = sum(occs[0])
    d = len(occs)
    if p == 0:
        return np.ones((1, 1), dtype=complex)
    u = np.asarray(u, dtype=complex)
    reps = _repetition_indices(occs)
    norms = _sqrt_factorials(occs)
    out = np.empty((d, d), dtype=complex)
    # blocks of output rows keep the (rows, d, p, p) gather small
    for start in range(0, d, _LIFT_ROWS):
        rows = reps[start : start + _LIFT_ROWS]
        sub = u[rows[:, None, :, None], reps[None, :, None, :]]
        out[start : start + _LIFT_ROWS] = _permanents(sub)
    return out / np.outer(norms, norms)


def permanent_lift(u, basis):
    """Lift over an OccupationBasis, in its order."""
    return lift_sector(u, basis.states)
