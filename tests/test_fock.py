import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permanent_lift import permanent_lift
from qumem.fock import (
    OccupationBasis,
    DimensionError,
    ModeUnitary,
    QuantumState,
    apply,
    coupler,
    enumerate_basis,
    enumerate_basis_upto,
    fidelity,
    fock_probabilities,
    lift_unitary,
    number_expectations,
    partial_trace,
    permanent,
    purity,
    sample_counts,
    total_photon_expectation,
)


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# basis enumeration

def test_basis_two_modes_one_photon():
    basis = enumerate_basis(2, 1)
    assert basis.states == ((1, 0), (0, 1))
    assert basis.size == 2


def test_basis_nine_modes_three_photons_size():
    assert enumerate_basis(9, 3).size == 165


def test_basis_vacuum_only():
    basis = enumerate_basis(3, 0)
    assert basis.states == ((0, 0, 0),)


def test_basis_index_roundtrip():
    basis = enumerate_basis(9, 3)
    for i in range(basis.size):
        assert basis.index_of(basis.occupation_of(i)) == i


def test_basis_deterministic_order():
    a = enumerate_basis(5, 2).states
    b = enumerate_basis(5, 2).states
    assert a == b
    # descending lexicographic
    assert a[0] == (2, 0, 0, 0, 0)
    assert a[-1] == (0, 0, 0, 0, 2)
    assert all(x > y for x, y in zip(a, a[1:]))


def test_basis_zero_modes_rejected():
    with pytest.raises(DimensionError):
        enumerate_basis(0, 1)


def test_basis_upto_sector_sizes():
    basis = enumerate_basis_upto(2, 1)
    assert basis.states == ((0, 0), (1, 0), (0, 1))
    assert enumerate_basis_upto(3, 2).size == 1 + 3 + 6


# ---------------------------------------------------------------------------
# permanents and lifting

def test_permanent_small_cases():
    assert permanent(np.eye(3)) == pytest.approx(1.0)
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert permanent(a) == pytest.approx(1 * 4 + 2 * 3)
    b = np.arange(1, 10, dtype=complex).reshape(3, 3)
    # per = aei + afh + bdi + bfg + cdh + ceg
    assert permanent(b) == pytest.approx(45 + 48 + 72 + 84 + 96 + 105)


def test_lift_identity_is_identity():
    for m, p in [(2, 2), (3, 2), (4, 3)]:
        basis = enumerate_basis(m, p)
        lifted = lift_unitary(np.eye(m), basis)
        assert np.allclose(lifted, np.eye(basis.size), atol=1e-12)


def test_lift_single_photon_equals_mode_matrix():
    basis = enumerate_basis(2, 1)
    bal = coupler(0.5)
    assert np.allclose(lift_unitary(bal, basis), bal, atol=1e-12)
    rng = np.random.default_rng(3)
    u = haar_unitary(5, rng)
    basis5 = enumerate_basis(5, 1)
    assert np.allclose(lift_unitary(u, basis5), u, atol=1e-12)


def test_lift_balanced_coupler_two_photons_bunching():
    # one photon in each port of a balanced coupler never splits
    basis = enumerate_basis(2, 2)
    lifted = lift_unitary(coupler(0.5), basis)
    col = basis.index_of((1, 1))
    amp_11 = lifted[col, col]
    amp_20 = lifted[basis.index_of((2, 0)), col]
    amp_02 = lifted[basis.index_of((0, 2)), col]
    assert abs(amp_11) < 1e-12
    assert abs(amp_20) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(amp_02) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_lift_is_unitary_up_to_nine_modes():
    rng = np.random.default_rng(11)
    for m, p in [(2, 3), (3, 3), (5, 2), (9, 2), (9, 3)]:
        basis = enumerate_basis(m, p)
        lifted = lift_unitary(haar_unitary(m, rng), basis)
        dev = np.max(np.abs(lifted.conj().T @ lifted - np.eye(basis.size)))
        assert dev < 1e-10


def test_lift_dimension_mismatch():
    with pytest.raises(DimensionError):
        lift_unitary(np.eye(3), enumerate_basis(2, 1))


def symmetric_subspace_isometry(m, p, basis):
    """Map each occupation basis state into the p-fold tensor space."""
    iso = np.zeros((m**p, basis.size), dtype=complex)
    for col, occ in enumerate(basis.states):
        weight = math.sqrt(
            math.prod(math.factorial(n) for n in occ) / math.factorial(p)
        )
        seen = set()
        modes = [i for i, n in enumerate(occ) for _ in range(n)]
        from itertools import permutations

        for perm in permutations(modes):
            if perm in seen:
                continue
            seen.add(perm)
            flat = 0
            for idx in perm:
                flat = flat * m + idx
            iso[flat, col] = weight
    return iso


def brute_force_lift(u, basis):
    """Independent oracle: project U^{tensor p} onto the symmetric
    subspace spanned by the occupation states."""
    m = basis.modes
    p = basis.photons
    if p == 0:
        return np.ones((1, 1), dtype=complex)
    big = np.array([[1.0]], dtype=complex)
    for _ in range(p):
        big = np.kron(big, u)
    iso = symmetric_subspace_isometry(m, p, basis)
    return iso.conj().T @ big @ iso


def test_lift_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    for m in (2, 3):
        for p in (1, 2):
            basis = enumerate_basis(m, p)
            for _ in range(5):
                u = haar_unitary(m, rng)
                assert np.allclose(
                    lift_unitary(u, basis), brute_force_lift(u, basis),
                    atol=1e-10,
                )


def lift_basis(modes, photons, mixed):
    if mixed:
        return enumerate_basis_upto(modes, photons)
    return enumerate_basis(modes, photons)


# (modes, photons, mixed-sector basis) with modes <= 4 and photons <= 3
geometries = st.tuples(st.integers(1, 4), st.integers(0, 3), st.booleans())
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(geometries, seeds)
def test_lift_matches_permanent_oracle(geometry, seed):
    modes, photons, mixed = geometry
    basis = lift_basis(modes, photons, mixed)
    u = haar_unitary(modes, np.random.default_rng(seed))
    dev = np.max(np.abs(lift_unitary(u, basis) - permanent_lift(u, basis)))
    assert dev <= 1e-12


@settings(max_examples=60, deadline=None)
@given(geometries, seeds)
def test_lift_is_multiplicative_and_unitary(geometry, seed):
    modes, photons, mixed = geometry
    basis = lift_basis(modes, photons, mixed)
    rng = np.random.default_rng(seed)
    u, v = haar_unitary(modes, rng), haar_unitary(modes, rng)
    lu, lv = lift_unitary(u, basis), lift_unitary(v, basis)
    assert np.max(np.abs(lift_unitary(u @ v, basis) - lu @ lv)) <= 1e-12
    assert np.max(np.abs(lu.conj().T @ lu - np.eye(basis.size))) <= 1e-12


def test_lift_matches_permanent_oracle_at_reservoir_size():
    rng = np.random.default_rng(37)
    for basis in (enumerate_basis(9, 3), enumerate_basis_upto(6, 3)):
        u = haar_unitary(basis.modes, rng)
        dev = np.max(np.abs(lift_unitary(u, basis) - permanent_lift(u, basis)))
        assert dev <= 1e-12


def test_lift_mixed_basis_is_block_diagonal_over_photon_number():
    rng = np.random.default_rng(41)
    basis = enumerate_basis_upto(4, 3)
    u = haar_unitary(4, rng)
    lifted = lift_unitary(u, basis)
    same = basis.totals[:, None] == basis.totals[None, :]
    assert np.all(lifted[~same] == 0)
    for p in range(4):
        idx = np.flatnonzero(basis.totals == p)
        block = lifted[np.ix_(idx, idx)]
        assert np.array_equal(block, lift_unitary(u, enumerate_basis(4, p)))


def test_lift_rejects_reordered_basis():
    basis = enumerate_basis(3, 2)
    shuffled = OccupationBasis(3, 2, basis.states[::-1], fixed_total=True)
    with pytest.raises(ValueError):
        lift_unitary(np.eye(3), shuffled)


# ---------------------------------------------------------------------------
# apply / partial trace

def test_apply_identity_and_inverse():
    rng = np.random.default_rng(5)
    basis = enumerate_basis(3, 2)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    state = QuantumState.pure(basis, amps / np.linalg.norm(amps))
    ident = lift_unitary(np.eye(3), basis)
    assert np.allclose(apply(state, ident).amplitudes, state.amplitudes)
    u = haar_unitary(3, rng)
    lifted = lift_unitary(u, basis)
    back = apply(apply(state, lifted), lifted.conj().T)
    assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-10)


def test_apply_dimension_mismatch():
    basis = enumerate_basis(2, 1)
    state = QuantumState.basis_state(basis, (1, 0))
    with pytest.raises(DimensionError):
        apply(state, np.eye(3))


def test_single_rail_splitter_amplitudes():
    # vacuum/one-photon qubit through a reflectivity-R splitter:
    # (alpha, beta) -> (alpha, beta sqrt(1-R), i beta sqrt(R))
    basis = enumerate_basis_upto(2, 1)
    beta2, refl = 0.3, 0.7
    alpha, beta = math.sqrt(1 - beta2), math.sqrt(beta2)
    state = QuantumState.pure(basis, [alpha, beta, 0.0])
    lifted = lift_unitary(coupler(refl), basis)
    out = apply(state, lifted)
    expect = np.array(
        [alpha, beta * math.sqrt(1 - refl), 1j * beta * math.sqrt(refl)]
    )
    assert np.allclose(out.amplitudes, expect, atol=1e-12)


def random_upto_state(modes, photons, rng):
    basis = enumerate_basis_upto(modes, photons)
    amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    return QuantumState.pure(basis, amps / np.linalg.norm(amps))


def test_partial_trace_recovers_product_factors():
    rng = np.random.default_rng(23)
    a = random_upto_state(2, 1, rng)
    b = random_upto_state(2, 1, rng)
    full = enumerate_basis_upto(4, 2)
    amps = np.zeros(full.size, dtype=complex)
    for i, occ_a in enumerate(a.basis.states):
        for j, occ_b in enumerate(b.basis.states):
            amps[full.index_of(occ_a + occ_b)] = a.amplitudes[i] * b.amplitudes[j]
    state = QuantumState.pure(full, amps)

    reduced_a = partial_trace(state, keep_modes=(0, 1))
    for i, occ_i in enumerate(a.basis.states):
        for j, occ_j in enumerate(a.basis.states):
            ri = reduced_a.basis.index_of(occ_i)
            rj = reduced_a.basis.index_of(occ_j)
            assert reduced_a.density()[ri, rj] == pytest.approx(
                a.density()[i, j], abs=1e-12
            )
    # populations beyond the factor's photon content vanish
    assert np.trace(reduced_a.density()).real == pytest.approx(1.0, abs=1e-12)

    reduced_b = partial_trace(state, keep_modes=(2, 3))
    rb = reduced_b.density()
    for i, occ_i in enumerate(b.basis.states):
        ri = reduced_b.basis.index_of(occ_i)
        assert rb[ri, ri].real == pytest.approx(
            b.density()[i, i].real, abs=1e-12
        )


def dual_rail_joint_state(beta2, refl):
    """Photon across (bypass, through) rails, splitter to the feedback
    rail: alpha|100> + beta sqrt(1-R)|010> + i beta sqrt(R)|001>."""
    basis = enumerate_basis(3, 1)
    alpha, beta = math.sqrt(1 - beta2), math.sqrt(beta2)
    state = QuantumState.pure(
        basis, [alpha, beta, 0.0]
    )
    mode_u = np.eye(3, dtype=complex)
    mode_u[1:, 1:] = coupler(refl)
    return apply(state, lift_unitary(mode_u, basis))


def test_partial_trace_dual_rail_matches_closed_form():
    from qumem.memristor import QubitInput, output_state_dual_rail

    beta2, refl = 0.3, 0.7
    joint = dual_rail_joint_state(beta2, refl)
    reduced = partial_trace(joint, keep_modes=(0, 1))
    assert reduced.basis.states == ((0, 0), (1, 0), (0, 1))
    closed = output_state_dual_rail(QubitInput.from_beta2(beta2), refl)
    assert np.allclose(reduced.density(), closed, atol=1e-12)


def test_partial_trace_dual_rail_complex_amplitudes():
    from qumem.memristor import QubitInput, output_state_dual_rail

    alpha = math.sqrt(0.4) * np.exp(0.3j)
    beta = math.sqrt(0.6) * np.exp(-1.1j)
    refl = 0.35
    basis = enumerate_basis(3, 1)
    state = QuantumState.pure(basis, [alpha, beta, 0.0])
    mode_u = np.eye(3, dtype=complex)
    mode_u[1:, 1:] = coupler(refl)
    joint = apply(state, lift_unitary(mode_u, basis))
    reduced = partial_trace(joint, keep_modes=(0, 1))
    closed = output_state_dual_rail(QubitInput(alpha, beta), refl)
    assert np.allclose(reduced.density(), closed, atol=1e-12)


def test_partial_trace_rejects_bad_subsets():
    state = QuantumState.basis_state(enumerate_basis(3, 1), (1, 0, 0))
    with pytest.raises(ValueError):
        partial_trace(state, keep_modes=())
    with pytest.raises(ValueError):
        partial_trace(state, keep_modes=(0, 1, 2))


def test_photon_number_conserved_by_lifted_unitaries():
    rng = np.random.default_rng(29)
    for m, p in [(3, 2), (4, 3)]:
        basis = enumerate_basis(m, p)
        amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        state = QuantumState.pure(basis, amps / np.linalg.norm(amps))
        lifted = lift_unitary(haar_unitary(m, rng), basis)
        out = apply(state, lifted)
        assert total_photon_expectation(out) == pytest.approx(p, abs=1e-10)


# ---------------------------------------------------------------------------
# scalar functionals

def test_purity_pure_and_mixed():
    basis = enumerate_basis(2, 1)
    pure = QuantumState.basis_state(basis, (1, 0))
    assert purity(pure.density()) == pytest.approx(1.0, abs=1e-12)
    mixed = QuantumState.from_density(basis, np.eye(2) / 2)
    assert purity(mixed) == pytest.approx(0.5, abs=1e-12)


def test_purity_fully_mixed_memristor_point():
    joint = dual_rail_joint_state(1.0, 0.5)
    reduced = partial_trace(joint, keep_modes=(0, 1))
    assert purity(reduced) == pytest.approx(0.5, abs=1e-12)


def test_dual_rail_purity_grid_matches_closed_form():
    from qumem.memristor import dual_rail_purity

    for beta2 in np.linspace(0, 1, 21):
        for refl in np.linspace(0, 1, 21):
            reduced = partial_trace(
                dual_rail_joint_state(beta2, refl), keep_modes=(0, 1)
            )
            assert purity(reduced) == pytest.approx(
                dual_rail_purity(beta2, refl), abs=1e-10
            )


def test_fidelity_basic_properties():
    rng = np.random.default_rng(31)
    basis = enumerate_basis(2, 1)
    psi = QuantumState.basis_state(basis, (1, 0))
    phi = QuantumState.basis_state(basis, (0, 1))
    assert fidelity(psi.density(), psi.density()) == pytest.approx(1.0, abs=1e-10)
    assert fidelity(psi.density(), phi.density()) == pytest.approx(0.0, abs=1e-10)
    # symmetry on random mixed states
    for _ in range(5):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        sig = b @ b.conj().T
        sig /= np.trace(sig)
        assert fidelity(rho, sig) == pytest.approx(fidelity(sig, rho), abs=1e-9)


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionError):
        fidelity(np.eye(2) / 2, np.eye(3) / 3)


def test_fock_probabilities():
    basis = enumerate_basis(3, 1)
    state = QuantumState.basis_state(basis, (0, 1, 0))
    assert np.allclose(fock_probabilities(state), [0, 1, 0])
    mixed = QuantumState.from_density(basis, np.eye(3) / 3)
    assert np.allclose(fock_probabilities(mixed), np.full(3, 1 / 3))
    joint = dual_rail_joint_state(0.3, 0.7)
    probs = fock_probabilities(joint)
    # one-photon states ordered (1,0,0), (0,1,0), (0,0,1)
    assert np.allclose(probs, [0.7, 0.3 * 0.3, 0.3 * 0.7], atol=1e-12)


def test_number_expectations():
    joint = dual_rail_joint_state(0.4, 0.25)
    per_mode = number_expectations(joint)
    assert per_mode[0] == pytest.approx(0.6, abs=1e-12)
    assert per_mode[1] == pytest.approx(0.4 * 0.75, abs=1e-12)
    assert per_mode[2] == pytest.approx(0.4 * 0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling

def test_sample_counts_point_mass():
    counts = sample_counts([0.0, 1.0, 0.0], shots=100, seed=0)
    assert counts.tolist() == [0, 100, 0]


def test_sample_counts_binomial_concentration():
    shots = 10**6
    counts = sample_counts([0.5, 0.5], shots=shots, seed=1)
    sigma = math.sqrt(shots * 0.25)
    assert abs(counts[0] - shots / 2) < 5 * sigma


def test_sample_counts_deterministic():
    probs = np.full(10, 0.1)
    a = sample_counts(probs, shots=1000, seed=42)
    b = sample_counts(probs, shots=1000, seed=42)
    assert np.array_equal(a, b)


def test_sample_counts_rejects_negative():
    with pytest.raises(ValueError):
        sample_counts([0.5, 0.6, -0.1], shots=10, seed=0)


# ---------------------------------------------------------------------------
# state validation

def test_quantum_state_validation():
    basis = enumerate_basis(2, 1)
    with pytest.raises(ValueError):
        QuantumState.pure(basis, [1.0, 1.0])
    with pytest.raises(ValueError):
        QuantumState.from_density(basis, np.array([[0.5, 0.5], [0.4, 0.5]]))
    bad_trace = np.diag([0.9, 0.2])
    with pytest.raises(ValueError):
        QuantumState.from_density(basis, bad_trace)
    not_psd = np.array([[1.2, 0.0], [0.0, -0.2]])
    with pytest.raises(ValueError):
        QuantumState.from_density(basis, not_psd)
    with pytest.raises(ValueError):
        QuantumState(basis, np.array([[0.9], [0.9]]))
    with pytest.raises(DimensionError):
        QuantumState(basis, np.ones(2) / np.sqrt(2))
    # a factor and its density describe the same state
    factor = np.array([[0.6, 0.0], [0.0, 0.8]])
    state = QuantumState(basis, factor)
    assert not state.is_pure
    assert np.allclose(state.density(), np.diag([0.36, 0.64]))
    again = QuantumState.from_density(basis, state.density()).ket_factor()
    assert np.allclose(again @ again.conj().T, state.density())


def random_factor(dim, rank, rng):
    k = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return k / np.linalg.norm(k)


@settings(max_examples=60, deadline=None)
@given(geometries, seeds, st.data())
def test_density_factor_round_trip_and_rank(geometry, seed, data):
    basis = lift_basis(*geometry)
    rank = data.draw(st.integers(1, basis.size))
    factor = random_factor(basis.size, rank, np.random.default_rng(seed))
    rho = factor @ factor.conj().T
    state = QuantumState.from_density(basis, rho)
    k = state.ket_factor()
    assert np.max(np.abs(k @ k.conj().T - rho)) <= 1e-12
    assert state.density() is rho
    assert k.shape[1] == rank
    for s in (state, QuantumState(basis, factor)):
        assert s.is_pure == (rank == 1)
        assert (s.amplitudes is None) == (rank > 1)


@settings(max_examples=60, deadline=None)
@given(geometries, seeds)
def test_pure_state_amplitudes_and_probabilities_bit_exact(geometry, seed):
    basis = lift_basis(*geometry)
    v = random_factor(basis.size, 1, np.random.default_rng(seed))[:, 0]
    state = QuantumState.pure(basis, v)
    assert state.is_pure
    assert np.array_equal(state.amplitudes, v)
    assert np.array_equal(fock_probabilities(state), np.abs(v) ** 2)


def test_mode_unitary_validation():
    with pytest.raises(ValueError):
        ModeUnitary(np.array([[1.0, 0.1], [0.0, 1.0]]))
