import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_device
from dense_reservoir import DenseReservoir
from qumem.fock import (
    DimensionError,
    QuantumState,
    coupler,
    enumerate_basis,
    fock_probabilities,
    lift_unitary,
    purity,
)
from qumem.memristor import R_MIN
from qumem.reservoir import (
    Reservoir,
    ReservoirConfig,
    amplitude_encode,
    build_mesh,
    coherent_encode,
    entanglement_entropy,
    sample_entangled,
    sample_separable,
    schmidt_coefficients,
)

BASIS93 = enumerate_basis(9, 3)


def small_reservoir(**kwargs):
    defaults = dict(modes=3, photons=1, mesh_seed=5, window=4)
    defaults.update(kwargs)
    return Reservoir(ReservoirConfig(**defaults))


# ---------------------------------------------------------------------------
# encodings

def test_amplitude_encode_normalises():
    enc = amplitude_encode([3.0, 4.0], BASIS93)
    amps = enc.state.amplitudes
    assert amps[0] == pytest.approx(0.6)
    assert amps[1] == pytest.approx(0.8)
    assert np.all(amps[2:] == 0)


def test_amplitude_encode_basis_vector():
    enc = amplitude_encode([1.0], BASIS93)
    assert fock_probabilities(enc.state)[0] == pytest.approx(1.0)


def test_amplitude_encode_zero_vector_fallback():
    enc = amplitude_encode(np.zeros(5), BASIS93)
    assert enc.zero_fallback
    assert fock_probabilities(enc.state)[0] == pytest.approx(1.0)


def test_amplitude_encode_too_long():
    with pytest.raises(DimensionError):
        amplitude_encode(np.ones(BASIS93.size + 1), BASIS93)


def test_coherent_encode_vacuum_component():
    enc = coherent_encode([1.0], BASIS93)
    rho = enc.state.density()
    assert rho[0, 0].real == pytest.approx(1.0)


def test_coherent_encode_single_component_is_pure():
    v = np.zeros(6)
    v[4] = 2.5
    enc = coherent_encode(v, BASIS93)
    assert purity(enc.state) == pytest.approx(1.0, abs=1e-10)


def test_coherent_encode_valid_density():
    rng = np.random.default_rng(2)
    for _ in range(5):
        v = rng.uniform(size=18)
        rho = coherent_encode(v, BASIS93).state.density()
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


def test_coherent_encode_rejects_bad_weights():
    with pytest.raises(ValueError):
        coherent_encode(np.zeros(4), BASIS93)
    with pytest.raises(ValueError):
        coherent_encode([-0.1, 0.5], BASIS93)


# ---------------------------------------------------------------------------
# meshes

def test_mesh_unitary_many_seeds():
    for seed in range(100):
        u = build_mesh(9, seed=seed)
        dev = np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(9)))
        assert dev < 1e-10


def test_mesh_deterministic():
    assert np.array_equal(build_mesh(9, seed=4).matrix,
                          build_mesh(9, seed=4).matrix)


def test_mesh_forced_balanced_coupler():
    u = build_mesh(2, seed=0, reflectivity=0.5, phase=0.0)
    expected = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)
    assert np.allclose(u.matrix, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# memristor layer

def _random_factor(dim, rank, rng):
    k = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return k / np.linalg.norm(k)


def test_layer_lift_matches_generic_lift():
    # the structural layer against the generic Fock lift of the bank
    rng = np.random.default_rng(8)
    for modes, photons in ((3, 1), (6, 2), (7, 2), (9, 3)):
        res = Reservoir(ReservoirConfig(modes=modes, photons=photons,
                                        mesh_seed=1, window=3))
        for r_value in (0.0, R_MIN, 1.0, None):
            for mem in res.memristors:
                mem.R = float(rng.uniform()) if r_value is None else r_value
            factor = _random_factor(res.basis.size, 3, rng)
            dense = lift_unitary(res.bank_mode_matrix(), res.basis) @ factor
            assert np.max(np.abs(res.apply_layer(factor) - dense)) <= 1e-12


def _coupler_matrix_layer(res, factor):
    """apply_layer with t and i r read off a validated coupler(R)."""
    out = np.array(factor, dtype=complex)
    for (index, runs), mem in zip(res._pair_layout, res.memristors):
        block = coupler(mem.R)
        t_pow = block[0, 0] ** res._powers
        s_pow = block[0, 1] ** res._powers
        rows = out[index]
        for q, start, stop in runs:
            lift = res._lift_coeffs[q] @ (t_pow[q::-1] * s_pow[: q + 1])
            run = rows[start:stop]
            run[...] = (lift @ run.reshape(q + 1, -1)).reshape(run.shape)
        out[index] = rows
    return out


def test_layer_coupler_entries_match_coupler_matrix_exactly():
    rng = np.random.default_rng(12)
    res = Reservoir(ReservoirConfig(mesh_seed=4, window=3))
    # one reflectivity per memristor
    r_sets = [(r,) * 3 for r in (0.0, R_MIN, 1.0, *rng.uniform(size=5))]
    r_sets.append(tuple(rng.uniform(size=3)))
    for r_set in r_sets:
        for mem, r_value in zip(res.memristors, r_set):
            mem.R = float(r_value)
        factor = _random_factor(res.basis.size, 2, rng)
        assert np.array_equal(res.apply_layer(factor),
                              _coupler_matrix_layer(res, factor))


def test_reservoirs_share_read_only_geometry_but_not_meshes():
    a = Reservoir(ReservoirConfig(mesh_seed=1, window=3))
    b = Reservoir(ReservoirConfig(mesh_seed=2, window=5, feedback=False))
    assert a.basis is b.basis
    assert a._pair_layout is b._pair_layout
    for index, _ in a._pair_layout:
        assert not index.flags.writeable
    assert not a._fb_occ.flags.writeable
    assert all(not c.flags.writeable for c in a._lift_coeffs)
    assert not np.allclose(a.u_in_f, b.u_in_f)
    assert np.array_equal(a.u_in_f, lift_unitary(a.u_in, a.basis))
    assert np.array_equal(b.u_out_f, lift_unitary(b.u_out, b.basis))


def test_layer_identity_at_zero_reflectivity():
    res = small_reservoir()
    for mem in res.memristors:
        mem.R = 0.0
    amps = np.array([0.6, 0.8, 0.0], dtype=complex)
    out = res.apply_layer(amps[:, None])
    assert np.allclose(out[:, 0], amps, atol=1e-12)
    assert np.allclose(res.feedback_probabilities(out), 0.0, atol=1e-14)
    # nothing on the feedback rail: reinjection leaves the state alone
    direct = np.abs(res.u_out_f @ amps) ** 2
    assert np.allclose(res.output_probabilities(out), direct, atol=1e-12)


def test_layer_feedback_probability_matches_reflectivity():
    res = small_reservoir()
    res.memristors[0].R = 0.3
    # single photon on the through rail (mode 1)
    state = QuantumState.basis_state(res.basis, (0, 1, 0))
    out = res.apply_layer(state.ket_factor())
    assert res.feedback_probabilities(out)[0] == pytest.approx(0.3, abs=1e-12)
    # reinjection conserves the photon
    probs = res.output_probabilities(out)
    assert probs @ res.basis.totals == pytest.approx(1.0, abs=1e-12)


def test_layer_conserves_photons_at_full_reflection():
    res = Reservoir(ReservoirConfig(modes=6, photons=2, mesh_seed=2, window=3))
    for mem in res.memristors:
        mem.R = 1.0
    rng = np.random.default_rng(0)
    amps = rng.normal(size=res.basis.size) + 1j * rng.normal(size=res.basis.size)
    state = QuantumState.pure(res.basis, amps / np.linalg.norm(amps))
    out = res.apply_layer(state.ket_factor())
    layer_probs = np.abs(out[:, 0]) ** 2
    assert layer_probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert layer_probs @ res.basis.totals == pytest.approx(2.0, abs=1e-10)
    # and after reinjection and the output mesh
    probs = res.output_probabilities(out)
    assert probs @ res.basis.totals == pytest.approx(2.0, abs=1e-10)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 1), (6, 2), (7, 2), (9, 3)]),
       st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_layer_and_reinjection_conserve_probability_and_photons(
        geometry, seed, rank):
    modes, photons = geometry
    res = Reservoir(ReservoirConfig(modes=modes, photons=photons,
                                    mesh_seed=seed, window=3))
    rng = np.random.default_rng(seed)
    for mem in res.memristors:
        mem.R = float(rng.uniform(R_MIN, 1.0))
    factor = _random_factor(res.basis.size, rank, rng)
    probs = res.output_probabilities(res.apply_layer(factor))
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert abs(probs @ res.basis.totals - photons) <= 1e-12


# ---------------------------------------------------------------------------
# the whole engine against the dense density-matrix reference

def _oracle_inputs(kind, basis, rng):
    if kind == "pure":
        return [amplitude_encode(rng.uniform(size=18), basis)
                for _ in range(8)]
    if kind == "repeated":
        return [amplitude_encode(rng.uniform(size=18), basis)] * 8
    if kind == "coherent":
        # sparse weights: the factor drops the zero-weight kets
        return [coherent_encode(rng.uniform(size=18) *
                                (rng.uniform(size=18) > 0.4), basis)
                for _ in range(6)]
    if kind == "density":
        # a density-matrix state enters through its eigen-factor
        return [QuantumState.from_density(
            basis, coherent_encode(rng.uniform(size=18), basis)
            .state.density()) for _ in range(4)]
    if kind == "zero_fallback":
        blank = amplitude_encode(np.zeros(18), basis)
        return [blank, blank, amplitude_encode(rng.uniform(size=18), basis),
                blank]
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["pure", "repeated", "coherent", "density",
                                  "zero_fallback"])
@pytest.mark.parametrize("feedback", [True, False])
def test_run_sequence_matches_dense_engine(kind, feedback):
    cfg = ReservoirConfig(mesh_seed=21, window=4, feedback=feedback)
    fast, dense = Reservoir(cfg), DenseReservoir(cfg)
    rng = np.random.default_rng(5)
    for _ in range(2):
        seq = _oracle_inputs(kind, fast.basis, rng)
        got = fast.run_sequence(seq, reset=True)
        want = dense.run_sequence(seq, reset=True)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(fast.reflectivities -
                             dense.reflectivities)) <= 1e-12
        assert fast.step_index == dense.step_index == len(seq)


def test_sampled_run_sequence_matches_dense_engine():
    cfg = ReservoirConfig(mesh_seed=23, window=3, shots=500, sample_seed=9)
    fast, dense = Reservoir(cfg), DenseReservoir(cfg)
    rng = np.random.default_rng(6)
    for kind in ("pure", "coherent", "repeated"):
        seq = _oracle_inputs(kind, fast.basis, rng)
        assert np.array_equal(fast.run_sequence(seq, reset=True),
                              dense.run_sequence(seq, reset=True))
    x = amplitude_encode(rng.uniform(size=18), fast.basis)
    assert np.array_equal(fast.run_sequence([x]), dense.run_sequence([x]))


def test_photon_conservation_through_full_step_pipeline():
    res = Reservoir(ReservoirConfig(modes=9, photons=3, mesh_seed=3, window=5))
    enc = amplitude_encode(np.arange(1.0, 19.0), res.basis)
    probs = res.run_sequence([enc])
    occ = res.basis.occupation_matrix()
    assert probs @ occ.sum(axis=1) == pytest.approx(3.0, abs=1e-9)


# ---------------------------------------------------------------------------
# stepping

def test_step_probabilities_normalised():
    res = Reservoir(ReservoirConfig(modes=9, photons=3, mesh_seed=6, window=4))
    enc = amplitude_encode(np.linspace(0.2, 1.0, 18), res.basis)
    probs = res.run_sequence([enc])
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(probs >= 0)


@pytest.mark.parametrize("feedback", [True, False])
@pytest.mark.parametrize("window", [1, 3, 100])
def test_memristor_bank_matches_list_window_reference(window, feedback):
    """The bank's MemristorState window law at unit steps, with the
    feedback inversion, is bit-identical to a discrete window of the
    last `window` clamped estimates, across resets."""
    rng = np.random.default_rng(window)
    res = Reservoir(ReservoirConfig(modes=9, photons=1, window=window,
                                    r_init=0.4, feedback=feedback))
    refs = [reference_device.ListDiscreteMemristor(window, r_init=0.4,
                                                   frozen=not feedback)
            for _ in res.memristors]
    for k in range(500):
        if k in (120, 121, 400):
            res.reset()
            for ref in refs:
                ref.reset()
            assert res.reflectivities.tolist() == [ref.R for ref in refs]
        # np.float64 feedback expectations: some above R (estimate
        # clamped to 1), some zero (R driven to the floor at window 1)
        fb_probs = rng.random(len(refs))
        fb_probs[rng.random(len(refs)) < 0.2] = 0.0
        for ref, fb in zip(refs, fb_probs):
            ref.update(min(max(fb / ref.R, 0.0), 1.0))
        res._advance_memristors(fb_probs)
        assert res.reflectivities.tolist() == [ref.R for ref in refs]


def test_frozen_memristors_make_step_memoryless():
    res = Reservoir(ReservoirConfig(modes=9, photons=3, mesh_seed=6,
                                    window=4, feedback=False))
    enc = amplitude_encode(np.linspace(0.2, 1.0, 18), res.basis)
    first = res.run_sequence([enc])
    for _ in range(3):
        again = res.run_sequence([enc])
        assert np.allclose(again, first, atol=1e-12)


def test_feedback_propagates_memory():
    rng = np.random.default_rng(41)
    cols_a = [rng.uniform(size=18) for _ in range(5)]
    cols_b = [c.copy() for c in cols_a]
    cols_b[0] = rng.uniform(size=18)  # differ only at the first step

    def final_probs(cols):
        res = Reservoir(ReservoirConfig(modes=9, photons=3, mesh_seed=7,
                                        window=5))
        seq = [amplitude_encode(c, res.basis) for c in cols]
        return res.run_sequence(seq, reset=True)

    diff = np.max(np.abs(final_probs(cols_a) - final_probs(cols_b)))
    assert diff > 1e-12


def test_frozen_output_depends_only_on_last_input():
    rng = np.random.default_rng(43)
    cols = [rng.uniform(size=18) for _ in range(6)]
    perm = [cols[i] for i in (3, 1, 4, 0, 2)] + [cols[5]]

    def final_probs(sequence):
        res = Reservoir(ReservoirConfig(modes=9, photons=3, mesh_seed=9,
                                        window=6, feedback=False))
        seq = [amplitude_encode(c, res.basis) for c in sequence]
        return res.run_sequence(seq, reset=True)

    assert np.allclose(final_probs(cols), final_probs(perm), atol=1e-12)


def test_run_sequence_deterministic():
    def run(seed):
        res = Reservoir(ReservoirConfig(mesh_seed=13, window=4,
                                        shots=500, sample_seed=seed))
        seq = [amplitude_encode(np.linspace(0.1, 1.0, 18), res.basis)] * 4
        return res.run_sequence(seq, reset=True)

    assert np.allclose(run(21), run(21))
    assert not np.allclose(run(21), run(22))


def test_run_sequence_empty_rejected():
    with pytest.raises(ValueError):
        Reservoir(ReservoirConfig(window=3)).run_sequence([])


def test_sampled_probs_converge_to_exact():
    exact = Reservoir(ReservoirConfig(mesh_seed=15, window=3))
    enc = amplitude_encode(np.linspace(0.3, 1.0, 18), exact.basis)
    p_exact = exact.run_sequence([enc])
    sampled = Reservoir(ReservoirConfig(mesh_seed=15, window=3,
                                        shots=100000, sample_seed=1))
    p_sampled = sampled.run_sequence([enc])
    mask = p_exact > 1e-12
    kl = float(np.sum(p_exact[mask] *
                      np.log(p_exact[mask] /
                             np.clip(p_sampled[mask], 1e-12, None))))
    assert kl < 5e-3


def test_reflectivities_move_with_feedback():
    res = Reservoir(ReservoirConfig(mesh_seed=17, window=2))
    enc = amplitude_encode(np.ones(18), res.basis)
    before = res.reflectivities.copy()
    for _ in range(4):
        res.run_sequence([enc])
    assert np.max(np.abs(res.reflectivities - before)) > 1e-6
    res.reset()
    assert np.allclose(res.reflectivities, before)


def test_coherent_input_through_reservoir():
    res = Reservoir(ReservoirConfig(mesh_seed=19, window=3))
    enc = coherent_encode(np.linspace(0.5, 2.0, 18), res.basis)
    probs = res.run_sequence([enc])
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(probs >= -1e-12)


# ---------------------------------------------------------------------------
# random-state sampling

def test_separable_samples_have_schmidt_rank_one():
    for seed in range(10):
        state = sample_separable(12, seed, BASIS93)
        coeffs = schmidt_coefficients(state, 12)
        assert coeffs[0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(coeffs[1:] < 1e-10)


def test_entangled_samples_have_high_entropy():
    n = 10_000
    entropies = [
        entanglement_entropy(sample_entangled(12, seed, BASIS93), 12)
        for seed in range(n)
    ]
    frac = np.mean([e > 0.1 for e in entropies])
    assert frac >= 0.99
    # Haar concentration: typical entropy approaches ln(12) - 1/2
    assert np.median(entropies) > 1.5


def test_sampling_reproducible():
    a = sample_entangled(12, 7, BASIS93).amplitudes
    b = sample_entangled(12, 7, BASIS93).amplitudes
    assert np.array_equal(a, b)


def test_sampling_dimension_guard():
    with pytest.raises(DimensionError):
        sample_entangled(13, 0, BASIS93)  # 169 > 165


def test_reservoir_config_validation():
    with pytest.raises(ValueError):
        ReservoirConfig(modes=2)
    with pytest.raises(ValueError):
        ReservoirConfig(window=0)
    assert ReservoirConfig(modes=9).n_memristors == 3
