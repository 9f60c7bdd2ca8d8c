"""Output-state tomography for the dual-rail memristor.

The kept rails are analysed by four fixed couplers followed by photon
counting: bare detection plus balanced interference at three relative
phases.  Detection on the kept rails cannot see the no-photon
population, so that corner of the 3x3 density matrix is estimated
separately from the feedback-port rate and the matrix is rescaled to
unit trace after insertion.

The lower 2x2 block is reconstructed from the per-coupler click counts
by maximum likelihood over a Cholesky-parameterised positive block
(James, Kwiat, Munro & White, PRA 64, 052312 (2001)).  The ascent
depends only on the count table, not on p00; a caller reconstructing a
batch of states can hand one `ascents` dict to every call so that equal
count tables (the characterisation grid draws several) run their ascent
once.  `fixture_counts` draws the batch's count tables once, and
`pending_ascents` fills such a dict with them before the first call,
which then ascends all of them together: each table climbs on its own,
and one stacked likelihood pass per round scores the rows that every
unfinished climb asks for, stencil or line search.  Each round trip is
handed its drawn table.

On the fabricated device the surviving qubit's coherence carries an
extra phase: the through arm of the splitter contributes asin(sqrt(R))
and the unequal rail lengths a fixed global offset (5.6 rad on the
characterised chip), so the model phase is
arg rho[1,2] = asin(sqrt(R)) + pi - phi_global.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .fock import _check_shots, coupler, fidelity, purity
from .memristor import QubitInput, output_state_dual_rail

PHI_GLOBAL = 5.6  # rad, fitted rail-length phase offset of the device

_EPS = 1e-12
# stopping rule of the likelihood ascent
_REL_TOL = 1e-9
_MAX_ITER = 2000
# and its gradient stencil: rows i and 4 + i move parameter i by +_H
# and -_H.  A zero offset turns a -0.0 parameter into 0.0, and no
# likelihood depends on the sign of a zero: it only reaches clipped q
_H = 1e-6
_STENCIL = np.zeros((8, 4))
_STENCIL[range(8), [0, 1, 2, 3] * 2] = [_H] * 4 + [-_H] * 4
_HALVES = np.array([[1.0], [0.5]])  # a line search scores a step and its half
_STENCIL.flags.writeable = _HALVES.flags.writeable = False

# The analysis couplers on the kept rails, (4, 2, 2), and their
# conjugate transposes, both read-only: bare detection (R = 0) plus
# balanced interference (R = 1/2) at relative phases 0, pi/2 and -pi/2,
# an informationally complete set for the one-photon 2x2 block.  Count
# tables have one row per coupler, in this order.
_COUPLERS = np.array([coupler(r, phase) for r, phase in
                      ((0.0, 0.0), (0.5, 0.0), (0.5, math.pi / 2),
                       (0.5, -math.pi / 2))])
_COUPLERS_H = _COUPLERS.conj().transpose(0, 2, 1)
_COUPLERS.flags.writeable = _COUPLERS_H.flags.writeable = False


def coherence_phase(reflectivity, phi_global=PHI_GLOBAL):
    """Model phase of the kept-qubit coherence (rho[1,2])."""
    return math.asin(math.sqrt(reflectivity)) + math.pi - phi_global


def apply_phase_model(rho, reflectivity, phi_global=PHI_GLOBAL):
    """Attach the device phase to the coherence of a 3x3 output state."""
    out = np.array(rho, dtype=complex)
    factor = np.exp(1j * coherence_phase(reflectivity, phi_global))
    out[1, 2] = abs(out[1, 2]) * factor
    out[2, 1] = np.conj(out[1, 2])
    return out


@dataclass(frozen=True)
class Fixture:
    beta2: float
    reflectivity: float
    rho: np.ndarray


def table_fixtures(phi_global=PHI_GLOBAL):
    """The 16-point characterisation grid: |beta|^2 in {0, 0.3, 0.7, 1}
    crossed with R in {0, 0.3, 0.5, 0.7, 1} on the measured combinations,
    as phased 3x3 theory matrices.  Each matrix is read-only and built
    once per process for its (beta2, R, phi_global), so every grid and
    round trip of a process shares it."""
    grid = [
        (0.0, 0.0),
        (0.3, 0.0), (0.3, 0.3), (0.3, 0.5), (0.3, 0.7), (0.3, 1.0),
        (0.7, 0.0), (0.7, 0.3), (0.7, 0.5), (0.7, 0.7), (0.7, 1.0),
        (1.0, 0.0), (1.0, 0.3), (1.0, 0.5), (1.0, 0.7), (1.0, 1.0),
    ]
    return [Fixture(beta2, refl, _theory_state(beta2, refl, phi_global))
            for beta2, refl in grid]


@functools.lru_cache(maxsize=32)
def _theory_state(beta2, reflectivity, phi_global):
    """The read-only phased 3x3 theory state of a round trip."""
    rho = apply_phase_model(
        output_state_dual_rail(QubitInput.from_beta2(beta2), reflectivity),
        reflectivity, phi_global)
    rho.flags.writeable = False
    return rho


def _complex_matrix(entries):
    return np.array([[complex(re, im) for re, im in row] for row in entries])


def project_physical(rho):
    """Nearest physical state: clip negative eigenvalues, renormalise.

    Two-decimal rounding (or finite counts) can leave a reconstructed
    matrix slightly indefinite; this restores positivity before any
    fidelity or purity is quoted.
    """
    rho = np.asarray(rho, dtype=complex)
    evals, evecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    evals = np.clip(evals, 0.0, None)
    out = (evecs * evals) @ evecs.conj().T
    return out / np.trace(out).real


def reference_table():
    """Bundled reference data for the characterisation grid: rounded
    theory and reconstructed matrices plus fidelity/purity columns."""
    text = (resources.files("qumem") / "data" /
            "tomography_fixtures.json").read_text()
    raw = json.loads(text)
    rows = []
    for row in raw["rows"]:
        rows.append(
            {
                "beta2": row["beta2"],
                "reflectivity": row["reflectivity"],
                "rho_theory": _complex_matrix(row["rho_theory"]),
                "rho_reconstructed": _complex_matrix(row["rho_reconstructed"]),
                "fidelity": row["fidelity"],
                "purity_theory": row["purity_theory"],
                "purity_reconstructed": row["purity_reconstructed"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# forward model and counts

def simulate_counts(rho_true, shots=None, seed=None):
    """Click counts on the kept rails, one row per analysis coupler.

    Each row is the click distribution behind its coupler, conditioned
    on the photon having survived.  shots=None is the
    infinite-statistics (exact) mode and returns these probabilities as
    float rows; otherwise each row is a multinomial draw of `shots`
    detected photons.  A block without population gives zero rows: no
    photon ever reaches the kept rails, so there are no clicks.  The
    distributions of the last 32 states are kept, keyed by the state's
    bytes and shape; only the draws are made on every call.
    """
    _check_shots(shots)
    rho = np.asarray(rho_true, dtype=complex)
    rng = np.random.default_rng(seed)
    return np.array([
        np.zeros(2) if p is None else p if shots is None
        else rng.multinomial(int(shots), p).astype(float)
        for p in _click_rows(rho.tobytes(), rho.shape)])


@functools.lru_cache(maxsize=32)
def _click_rows(key, shape):
    """The click distribution behind each analysis coupler of the state
    whose C-order bytes are `key`, None where no photon clicks."""
    block = np.frombuffer(key, dtype=complex).reshape(shape)[1:, 1:]
    rows = []
    for v, vh in zip(_COUPLERS, _COUPLERS_H):
        p = np.clip(np.real(np.diag(v @ block @ vh)), 0.0, None)
        total = p.sum()
        rows.append(None if total <= _EPS else p / total)
    return tuple(rows)


# ---------------------------------------------------------------------------
# maximum-likelihood reconstruction

def _cholesky_blocks(params):
    """Positive unit-trace 2x2 blocks, (n, 2, 2), from (n, 4) real
    parameter rows (t00, Re t10, Im t10, t11) of the lower-triangular
    factor t, sigma = t t^H / tr(t t^H)."""
    t = np.zeros((len(params), 2, 2), dtype=complex)
    t[:, 0, 0] = params[:, 0]
    t[:, 1, 0] = params[:, 1] + 1j * params[:, 2]
    t[:, 1, 1] = params[:, 3]
    sigma = t @ t.conj().transpose(0, 2, 1)
    tr = sigma[:, 0, 0].real + sigma[:, 1, 1].real
    if (tr <= 0).any():
        raise FloatingPointError("degenerate Cholesky factor")
    return sigma / tr[:, None, None]


def _log_likelihoods(params, counts):
    """Multinomial log-likelihood of each (n, 4) parameter row, as a
    float64 array.

    Row r is scored on the count table counts[r], flattened to (8,) in
    coupler order.  The rotated blocks V_k sigma V_k^H of every row and
    coupler come from stacked products that BLAS evaluates block by
    block: V_k sigma of all couplers as one (8, 2) @ (2, 2) product per
    row, then (V_k sigma) V_k^H of all rows as one (2n, 2) @ (2, 2)
    product per coupler, each block bit for bit its own 2x2 product.
    Each log q comes from math.log.  The terms n log q are summed along
    a row from 0.0 in coupler order; a zero-count cell adds a signed
    zero, which leaves a sum that starts at +0.0 unchanged, so each
    value is bit-for-bit the one a row-by-row evaluation over the
    positive cells gives."""
    n, s = len(params), len(_COUPLERS)
    left = _COUPLERS.reshape(-1, 2) @ _cholesky_blocks(params)
    left = left.reshape(n, s, 2, 2).transpose(1, 0, 2, 3)
    rotated = left.reshape(s, 2 * n, 2) @ _COUPLERS_H
    # the diagonals, (4, n, 2): entries 0 and 3 of each flattened 2x2
    p = np.maximum(rotated.real.reshape(s, n, 4)[..., ::3], 0.0)
    q = np.maximum(p / (p[..., 0] + p[..., 1])[..., None], _EPS)
    q = q.transpose(1, 0, 2).ravel().tolist()  # row by row
    log_q = np.fromiter(map(math.log, q), float, len(q))
    terms = counts * log_q.reshape(n, -1)
    # cumsum adds in order but starts from the first term, not 0.0; the
    # two sums can differ only in the sign of a zero, which + 0.0 settles
    return terms.cumsum(axis=1)[:, -1] + 0.0


def _linear_inversion(counts):
    """Moment-based initial block estimate from the click frequencies:
    bare detection (row 0) measures the populations, and balanced
    interference at relative phase 0 (row 1) and -pi/2 (row 3) the
    imaginary and the real part of the coherence.  A row without clicks
    gives its moment the maximally mixed value."""
    a, im, re = (row[0] / row.sum() if row.sum() > 0 else 0.5
                 for row in counts[[0, 1, 3]])
    im, re = im - 0.5, re - 0.5
    block = np.array([[a, re + 1j * im], [re - 1j * im, 1.0 - a]],
                     dtype=complex)
    evals, evecs = np.linalg.eigh(block)
    evals = np.clip(evals, 1e-6, None)
    block = (evecs * evals) @ evecs.conj().T
    return block / np.trace(block).real


def _cholesky_params(block):
    chol = np.linalg.cholesky(block + 1e-9 * np.eye(2))
    return np.array(
        [chol[0, 0].real, chol[1, 0].real, chol[1, 0].imag, chol[1, 1].real]
    )


@dataclass
class ReconstructionReport:
    """MLE tomography result for one (input, reflectivity) point."""

    rho: np.ndarray
    fidelity_to_theory: float = None
    purity: float = None
    meta: dict = field(default_factory=dict)


def mle_reconstruct(counts, p00_estimate, *, ascents=None):
    """Maximum-likelihood 3x3 reconstruction.

    Maximises the multinomial likelihood of the kept-rail counts over
    Cholesky-parameterised positive 2x2 blocks (gradient ascent with
    backtracking, stopping at relative likelihood change _REL_TOL), then
    installs the separately measured no-photon population p00 and
    rescales to unit trace.  The gradient is the central difference
    (step 1e-6) in each of the 4 parameters; its 8 likelihoods are
    evaluated in one stacked pass, and each equals the value a
    one-point evaluation gives bit for bit.  The backtracking line
    search tries a step and its half in one stacked pass and takes the
    first that improves; halving is exact, so the path is the one a
    halve-and-retry search walks.

    ascents, if given, is a dict the caller keeps for a batch of
    reconstructions, keyed by the count table's bytes: the ascent of a
    table already in it is reused, and a new one is stored.  An entry
    whose value is None is pending, as `pending_ascents` leaves them;
    the call that needs an ascent runs it together with every pending
    entry that holds a valid count table, and stores them all.
    A pending entry that is not a valid table stays pending, and a batch
    whose ascent fails is retried with the call's own table alone, so
    one entry's error never reaches another table's reconstruction.
    Only p00 is installed afresh, so a reused report equals a fresh one
    bit for bit, meta included.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape != _COUPLERS.shape[:2]:
        raise ValueError("counts must be (4, 2): one row per coupler")
    fault = _table_fault(counts)
    if fault:
        raise ValueError(fault)
    if not 0.0 <= p00_estimate <= 1.0:
        raise ValueError("p00_estimate must lie in [0, 1]")

    if ascents is None:
        ascents = {}
    key = counts.tobytes()
    if ascents.get(key) is None:
        keys = [key] + [k for k, done in ascents.items() if done is None
                        and k != key and _pending_table(k)]
        tables = [np.frombuffer(k).reshape(-1, 2) for k in keys]
        try:
            results = _ascend(tables)
        except FloatingPointError:  # keep a table's failure its own
            keys, results = [key], _ascend([counts])
        ascents.update(zip(keys, results))
    return _install_p00(*ascents[key], p00_estimate)


def _table_fault(counts):
    """Why `mle_reconstruct` rejects a count table of the right shape,
    or None: it must be finite, non-negative and not all zero."""
    if not np.isfinite(counts).all():
        return "counts must be finite"
    if (counts < 0).any():
        return "counts must be non-negative"
    if counts.sum() <= 0:
        return "all-zero counts carry no information"
    return None


def _pending_table(key):
    """Whether an `ascents` key holds a count table that
    `mle_reconstruct` accepts."""
    return (isinstance(key, bytes) and len(key) == 64  # (4, 2) float64
            and _table_fault(np.frombuffer(key)) is None)


def fixture_counts(fixtures, shots=None, seed=None):
    """The count table that the round trip of each of `fixtures` (as
    `table_fixtures` gives them) draws at these shots and seed, in
    fixture order, for `reconstruction_roundtrip`'s `counts`.  Finite
    shots without a seed draw fresh tables on every call."""
    _check_shots(shots)
    _, count_seed = _roundtrip_rng(seed)
    return [simulate_counts(fixture.rho, shots, count_seed)
            for fixture in fixtures]


def pending_ascents(tables):
    """An `ascents` dict with one pending entry per distinct count table
    of `tables` that carries clicks, so the first reconstruction ascends
    them all together.  tables is what `fixture_counts` returns."""
    return {counts.tobytes(): None for counts in tables if counts.sum() > 0}


def _climb(counts):
    """One count table's likelihood ascent, as a generator: it yields the
    (m, 4) parameter rows it needs scored with their (m, 8) `counts` rows,
    is sent their log-likelihoods, and returns (final parameters,
    log-likelihood, iterations).  |g| = sqrt(g . g), as np.linalg.norm."""
    x = _cholesky_params(_linear_inversion(counts))
    c1, c2, c8 = (np.tile(counts.ravel(), (m, 1)) for m in (1, 2, 8))
    (ll,) = (yield x[None], c1).tolist()
    step = 0.1
    for iterations in range(1, _MAX_ITER + 1):
        stencil = yield x + _STENCIL, c8
        grad = (stencil[:4] - stencil[4:]) / (2 * _H)
        gnorm = math.sqrt(grad.dot(grad))
        if gnorm == 0:
            break
        best = None
        while best is None and step > 1e-14:
            cands = x + step * _HALVES * grad / gnorm
            for k, cand_ll in enumerate((yield cands, c2).tolist()):
                if cand_ll > ll:
                    best = cands[k], cand_ll
                    break
                step *= 0.5
                if step <= 1e-14:
                    break
        if best is None:
            break
        rel_change = abs(best[1] - ll) / max(abs(ll), 1.0)
        (x, ll), step = best, step * 1.5
        if not rel_change >= _REL_TOL:  # a NaN change stops too
            break
    return x, ll, iterations


def _ascend(tables):
    """The ascents of `mle_reconstruct` for count tables, one (unit-trace
    block, log-likelihood, iterations) per table.  Each round scores the
    rows every unfinished `_climb` asks for in one `_log_likelihoods`
    pass; a row's value does not depend on the rows stacked with it, so
    each result is the lone ascent's."""
    results = dict.fromkeys(_climb(table) for table in tables)
    asks = {climb: next(climb) for climb in results}
    while asks:
        requests = list(asks.values())
        rows, counts = map(np.concatenate, zip(*requests))
        lls, end = _log_likelihoods(rows, counts), 0
        for climb, (asked, _) in zip(list(asks), requests):
            end += len(asked)
            try:
                asks[climb] = climb.send(lls[end - len(asked):end])
            except StopIteration as stop:
                results[climb] = stop.value
                del asks[climb]
    params, lls, iterations = zip(*results.values())
    return list(zip(_cholesky_blocks(np.array(params)), lls, iterations))


def _install_p00(block, log_likelihood, iterations, p00_estimate):
    """The 3x3 report of an ascent's block with p00 in the vacuum corner,
    rescaled to unit trace."""
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = p00_estimate
    rho[1:, 1:] = (1.0 - p00_estimate) * block
    rho /= np.trace(rho).real
    return ReconstructionReport(
        rho=rho,
        purity=purity(rho),
        meta={"log_likelihood": log_likelihood, "iterations": iterations},
    )


def reconstruction_roundtrip(beta2, reflectivity, shots=None, seed=None,
                             phi_global=PHI_GLOBAL, *, ascents=None,
                             counts=None):
    """Generate counts from the phased theory state and reconstruct it.

    In exact mode p00 is taken from the state; with finite shots it is
    estimated from a binomial draw of the feedback-port rate.  ascents
    is handed to `mle_reconstruct`.  counts, if given, is the count
    table this round trip would draw, as `fixture_counts` gives it, and
    is used instead of drawing it again.
    """
    _check_shots(shots)
    rho_true = _theory_state(beta2, reflectivity, phi_global)
    rng, count_seed = _roundtrip_rng(seed)
    if counts is None:
        counts = simulate_counts(rho_true, shots, seed=count_seed)
    p00 = rho_true[0, 0].real
    if shots is not None:
        p00 = rng.binomial(int(shots), p00) / float(shots)
    if counts.sum() == 0:
        # the photon always crossed to the feedback port: the kept-rail
        # block is unobservable and carries weight 1 - p00 ~ 0
        rho = np.diag([p00, (1 - p00) / 2, (1 - p00) / 2]).astype(complex)
        rho /= np.trace(rho).real
        report = ReconstructionReport(rho=rho, purity=purity(rho),
                                      meta={"degenerate": True})
    else:
        report = mle_reconstruct(counts, p00, ascents=ascents)
    report.fidelity_to_theory = fidelity(report.rho, rho_true)
    report.meta.update(
        beta2=beta2, reflectivity=reflectivity,
        shots=shots, seed=seed, phi_global=phi_global,
    )
    return report


def _roundtrip_rng(seed):
    """A round trip's generator and the seed of its count draw, which is
    the generator's first draw."""
    rng = np.random.default_rng(seed)
    return rng, None if seed is None else rng.integers(2**32)


def fit_global_phase(off_diag_samples):
    """Least-squares global phase, in [0, 2 pi), from (reflectivity,
    coherence) pairs.

    Inverts arg z = asin(sqrt(R)) + pi - phi_global by a magnitude-
    weighted circular mean.  Samples with (numerically) zero coherence
    carry no phase information; if none remain the fit is undefined.
    """
    acc = 0.0 + 0.0j
    usable = 0
    for reflectivity, z in off_diag_samples:
        z = complex(z)
        if abs(z) < 1e-12:
            continue
        usable += 1
        expected = coherence_phase(reflectivity, 0.0)
        acc += abs(z) * np.exp(1j * (expected - np.angle(z)))
    if usable < 2:
        raise ValueError("need at least two samples with nonzero coherence")
    phase = float(np.angle(acc) % (2 * math.pi))
    # an angle just below 0 rounds up to 2 pi itself: that is 0 on [0, 2 pi)
    return 0.0 if phase == 2 * math.pi else phase
