import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_device
from dense_reservoir import DenseReservoir
from test_fock import haar_unitary
from qumem.fock import (
    DimensionError,
    QuantumState,
    coupler,
    enumerate_basis,
    lift_unitary,
    purity,
)
from qumem.memristor import R_MIN
from qumem.readout import encode_columns
from qumem.reservoir import (
    COHERENT,
    EncodedInput,
    Reservoir,
    ReservoirConfig,
    amplitude_encode,
    build_mesh,
    coherent_encode,
    _advance,
    haar_vector,
    sample_entangled,
    sample_separable,
)

BASIS93 = enumerate_basis(9, 3)


def schmidt_coefficients(state, d_loc):
    """Schmidt spectrum of the embedded bipartite amplitudes."""
    amps = state.amplitudes[: d_loc * d_loc].reshape(d_loc, d_loc)
    svals = np.linalg.svd(amps, compute_uv=False)
    return svals / np.linalg.norm(svals)


@pytest.mark.parametrize("field, value", [
    ("modes", 4.5), ("modes", True), ("photons", 2.5), ("photons", True),
], ids=["modes-float", "modes-bool", "photons-float", "photons-bool"])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match="must be integers"):
        ReservoirConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("shots", 2.5), ("shots", True), ("window", 2.5), ("window", True),
    ("window", math.nan),
], ids=["shots-float", "shots-bool", "window-float", "window-bool",
        "window-nan"])
def test_config_rejects_non_integer_shots_and_window(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        ReservoirConfig(**{field: value})


def test_config_accepts_integer_shots_and_window():
    config = ReservoirConfig(shots=np.int64(5), window=np.int64(3))
    assert (config.shots, config.window) == (5, 3)
    assert ReservoirConfig(shots=None).shots is None


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
    assert abs(enc.state.amplitudes[0]) ** 2 == pytest.approx(1.0)


def test_amplitude_encode_zero_vector_fallback():
    enc = amplitude_encode(np.zeros(5), BASIS93)
    assert enc.zero_fallback
    assert abs(enc.state.amplitudes[0]) ** 2 == pytest.approx(1.0)


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


@pytest.mark.parametrize("encode", [amplitude_encode, coherent_encode])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_encodings_reject_non_finite_entries(encode, bad, recwarn):
    with pytest.raises(ValueError, match="finite"):
        encode([0.5, bad, 1.0], BASIS93)
    assert [str(w.message) for w in recwarn] == []


def test_coherent_encode_records_read_only_weights():
    v = np.array([0.0, 2.0, 0.0, 6.0])
    enc = coherent_encode(v, BASIS93)
    assert np.array_equal(enc.weights, v / 8.0)
    assert not enc.weights.flags.writeable
    assert amplitude_encode(v, BASIS93).weights is None
    assert amplitude_encode(np.zeros(4), BASIS93).weights is None
    # the weights take no part in ==
    assert enc == EncodedInput(enc.state)


weight_vectors = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=1, max_size=18,
).filter(lambda v: sum(v) > 0)


@settings(max_examples=60, deadline=None)
@given(weight_vectors, weight_vectors)
def test_coherent_mesh_is_weights_over_one_meshed_ket_table(v, w):
    """A coherent input meshes to its weights over the reservoir's
    meshed ket table of its length: the factor the input mesh gives its
    weighted kets.  Each reservoir builds one read-only table per
    length and reuses it."""
    res = Reservoir(ReservoirConfig(mesh_seed=31))
    for vec in (v, w, v):
        enc = coherent_encode(vec, res.basis)
        got = res._mesh_input(enc)
        want = res.u_in_f @ enc.state.ket_factor()
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    tables = res._coherent_tables
    assert sorted(tables) == sorted({len(v), len(w)})
    table = tables[len(v)]
    assert table.shape == (res.basis.size, len(v))
    assert not table.flags.writeable
    res._mesh_input(coherent_encode(v, res.basis))
    res._mesh_input(amplitude_encode(v, res.basis))
    assert res._coherent_tables == tables
    assert res._coherent_tables[len(v)] is table
    # a reservoir of the same config meshes with a table of its own
    other = Reservoir(ReservoirConfig(mesh_seed=31))
    assert other._coherent_tables == {}
    other._mesh_input(coherent_encode(v, other.basis))
    assert other._coherent_tables[len(v)] is not table


# ---------------------------------------------------------------------------
# meshes

def test_mesh_unitary_many_seeds():
    for seed in range(100):
        u = build_mesh(9, np.random.default_rng(seed))
        dev = np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(9)))
        assert dev < 1e-10


def test_mesh_deterministic():
    assert np.array_equal(build_mesh(9, np.random.default_rng(4)).matrix,
                          build_mesh(9, np.random.default_rng(4)).matrix)


def test_mesh_matches_coupler_by_coupler_reference():
    """One draw call and written-out blocks give the mesh bits of one
    checked coupler and two scalar draws per coupler, and leave the
    generator where those draws leave it."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        for modes in (9, 9, 2, 5):
            got = build_mesh(modes, rng).matrix
            want = reference_device.build_mesh(modes, ref_rng).matrix
            assert got.tobytes() == want.tobytes()
        assert rng.uniform() == ref_rng.uniform()


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
            r_set = [float(rng.uniform()) if r_value is None else r_value
                     for _ in res.rails]
            factor = _random_factor(res.basis.size, 3, rng)
            bank = np.eye(modes, dtype=complex)
            for (_, thru, fb), r in zip(res.rails, r_set):
                bank[np.ix_((thru, fb), (thru, fb))] = coupler(r)
            dense = lift_unitary(bank, res.basis) @ factor
            got = res.apply_layer(factor, r_set)
            assert np.max(np.abs(got - dense)) <= 1e-12


def _coupler_matrix_layer(res, factor, reflectivities):
    """apply_layer with t and i r read off a validated coupler(R)."""
    out = np.array(factor, dtype=complex)
    for (index, runs), r in zip(res._pair_layout, reflectivities):
        block = coupler(r)
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
        r_set = [float(r) for r in r_set]
        factor = _random_factor(res.basis.size, 2, rng)
        assert np.array_equal(res.apply_layer(factor, r_set),
                              _coupler_matrix_layer(res, factor, r_set))


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
    amps = np.array([0.6, 0.8, 0.0], dtype=complex)
    out = res.apply_layer(amps[:, None], [0.0])
    assert np.allclose(out[:, 0], amps, atol=1e-12)
    assert np.allclose(res.feedback_probabilities(out), 0.0, atol=1e-14)
    # nothing on the feedback rail: reinjection leaves the state alone
    direct = np.abs(res.u_out_f @ amps) ** 2
    assert np.allclose(res.output_probabilities(out), direct, atol=1e-12)


def test_layer_feedback_probability_matches_reflectivity():
    res = small_reservoir()
    # single photon on the through rail (mode 1)
    state = QuantumState.pure(res.basis, [0.0, 1.0, 0.0])
    out = res.apply_layer(state.ket_factor(), [0.3])
    assert res.feedback_probabilities(out)[0] == pytest.approx(0.3, abs=1e-12)
    # reinjection conserves the photon
    probs = res.output_probabilities(out)
    assert probs @ res.basis.totals == pytest.approx(1.0, abs=1e-12)


def test_layer_conserves_photons_at_full_reflection():
    res = Reservoir(ReservoirConfig(modes=6, photons=2, mesh_seed=2, window=3))
    rng = np.random.default_rng(0)
    amps = rng.normal(size=res.basis.size) + 1j * rng.normal(size=res.basis.size)
    state = QuantumState.pure(res.basis, amps / np.linalg.norm(amps))
    out = res.apply_layer(state.ket_factor(), [1.0, 1.0])
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
    r_set = [float(rng.uniform(R_MIN, 1.0)) for _ in res.rails]
    factor = _random_factor(res.basis.size, rank, rng)
    probs = res.output_probabilities(res.apply_layer(factor, r_set))
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert abs(probs @ res.basis.totals - photons) <= 1e-12


@pytest.mark.parametrize("rank", [1, 3])
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 9]), st.integers(0, 2**32 - 1),
       st.lists(st.floats(R_MIN, 1.0), min_size=3, max_size=3))
def test_single_photon_feedback_is_reflectivity_times_through_population(
        rank, modes, seed, reflectivities):
    """With one photon and an empty feedback rail, each coupler sends
    the fraction R of its through-rail population to its feedback rail."""
    res = Reservoir(ReservoirConfig(modes=modes, photons=1, mesh_seed=seed,
                                    window=3))
    r_set = np.array(reflectivities[: len(res.rails)])
    occ = res.basis.occupation_matrix()
    thru = [t for _, t, _ in res.rails]
    fb = [f for _, _, f in res.rails]
    factor = _random_factor(res.basis.size, rank, np.random.default_rng(seed))
    factor[occ[:, fb].sum(axis=1) > 0] = 0.0
    population = (np.abs(factor) ** 2).sum(axis=1) @ occ[:, thru]
    got = res.feedback_probabilities(res.apply_layer(factor, r_set))
    want = r_set * population
    assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bypass_rails_never_feed_the_loop(seed):
    """A unitary V on the bypass rails (0, 3, 6), applied after the
    input mesh, commutes with the bank, the feedback readout and the
    reinjection: psi and u_in^+ V u_in psi drive identical reflectivity
    trajectories (read off the prefix runs of 1..30 copies), while the
    output mesh still sees V."""
    res = Reservoir(ReservoirConfig(window=12))
    rng = np.random.default_rng(seed)
    psi = haar_vector(res.basis.size, rng)
    v = np.eye(9, dtype=complex)
    v[np.ix_([0, 3, 6], [0, 3, 6])] = haar_unitary(3, rng)
    v_f = lift_unitary(v, res.basis)
    rotated = res.u_in_f.conj().T @ (v_f @ (res.u_in_f @ psi))
    runs = []
    for amps in (psi, rotated):
        x = EncodedInput(QuantumState.pure(res.basis, amps, validate=False))
        trajectory = []
        for k in range(1, 31):
            probs = res.run_sequence([x] * k)
            trajectory.append(res.reflectivities)
        runs.append((np.array(trajectory), probs))
    (r_psi, p_psi), (r_rot, p_rot) = runs
    assert np.max(np.abs(r_psi - r_rot)) <= 1e-12
    assert np.max(np.abs(p_psi - p_rot)) > 1e-6


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
        return [EncodedInput(QuantumState.from_density(
            basis, coherent_encode(rng.uniform(size=18), basis)
            .state.density())) for _ in range(4)]
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
        got = fast.run_sequence(seq)
        want = dense.run_sequence(seq)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(fast.reflectivities -
                             dense.reflectivities)) <= 1e-12


def test_sampled_run_sequence_matches_dense_engine():
    cfg = ReservoirConfig(mesh_seed=23, window=3, shots=500, sample_seed=9)
    fast, dense = Reservoir(cfg), DenseReservoir(cfg)
    rng = np.random.default_rng(6)
    for kind in ("pure", "coherent", "repeated"):
        seq = _oracle_inputs(kind, fast.basis, rng)
        assert np.array_equal(fast.run_sequence(seq),
                              dense.run_sequence(seq))
    x = amplitude_encode(rng.uniform(size=18), fast.basis)
    assert np.array_equal(fast.run_sequence([x]), dense.run_sequence([x]))


@pytest.mark.parametrize("shots", [None, 400])
def test_digit_sequences_match_dense_engine(shots):
    """Image columns as `rc mnist --encoding coherent` feeds them:
    coherent mixtures, meshed from the reservoir's ket table, between
    blank columns on the zero-vector fallback, image after image."""
    cfg = ReservoirConfig(mesh_seed=27, window=5, shots=shots, sample_seed=4)
    fast, dense = Reservoir(cfg), DenseReservoir(cfg)
    rng = np.random.default_rng(8)
    for blank in [[0, 4, 11], [3, 6, 9]]:
        image = rng.uniform(size=(18, 12)) * (rng.uniform(size=(18, 12)) > 0.5)
        image[:, blank] = 0.0
        seq = encode_columns(image, fast.basis, COHERENT)
        assert [j for j, x in enumerate(seq) if x.zero_fallback] == blank
        got = fast.run_sequence(seq)
        want = dense.run_sequence(seq)
        if shots is None:
            assert np.max(np.abs(got - want)) <= 1e-12
        else:
            assert np.array_equal(got, want)
        assert np.max(np.abs(fast.reflectivities -
                             dense.reflectivities)) <= 1e-12
    assert sorted(fast._coherent_tables) == [18]


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
    """A run's bank (the MemristorState window law at unit steps, with
    the feedback inversion, stepped by `_advance`) stays within 1e-12 of
    a discrete window of the last `window` clamped estimates, over fresh
    banks started as runs start them, and is bit-identical to it before
    the first eviction and on re-sum steps."""
    rng = np.random.default_rng(window)
    res = Reservoir(ReservoirConfig(modes=9, photons=1, window=window,
                                    feedback=feedback))
    refs = [reference_device.ListDiscreteMemristor(window,
                                                   frozen=not feedback)
            for _ in res.rails]
    for k in range(500):
        if k in (0, 120, 121, 400):
            bank, t = res._bank(), 0
            for ref in refs:
                ref.reset()
            cadences = [reference_device.ResumCountdown() for _ in refs]
            assert [mem.R for mem in bank] == [ref.R for ref in refs]
        # np.float64 feedback expectations: some above R (estimate
        # clamped to 1), some zero (R driven to the floor at window 1)
        fb_probs = rng.random(len(refs))
        fb_probs[rng.random(len(refs)) < 0.2] = 0.0
        # both sides invert through the bank's R, so that a last-bit
        # difference between re-sums does not change the reference's input
        exact = []
        for ref, mem, fb, cadence in zip(refs, bank, fb_probs, cadences):
            before = len(ref.samples)
            ref.update(min(max(fb / mem.R, 0.0), 1.0))
            exact.append(not feedback
                         or cadence.exact_after(before, len(ref.samples)))
        t += 1
        _advance(bank, float(t), fb_probs)
        for mem, ref, ex in zip(bank, refs, exact):
            assert abs(mem.R - ref.R) <= 1e-12
            if ex:
                assert mem.R == ref.R


def test_frozen_memristors_make_step_memoryless():
    res = Reservoir(ReservoirConfig(modes=9, photons=3, mesh_seed=6,
                                    window=4, feedback=False))
    enc = amplitude_encode(np.linspace(0.2, 1.0, 18), res.basis)
    first = res.run_sequence([enc])
    for copies in range(2, 5):
        again = res.run_sequence([enc] * copies)
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
        return res.run_sequence(seq)

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
        return res.run_sequence(seq)

    assert np.allclose(final_probs(cols), final_probs(perm), atol=1e-12)


def test_run_sequence_deterministic():
    def run(seed):
        res = Reservoir(ReservoirConfig(mesh_seed=13, window=4,
                                        shots=500, sample_seed=seed))
        seq = [amplitude_encode(np.linspace(0.1, 1.0, 18), res.basis)] * 4
        return res.run_sequence(seq)

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
    assert res.reflectivities.tolist() == [0.5] * 3
    res.run_sequence([enc] * 4)
    assert np.max(np.abs(res.reflectivities - 0.5)) > 1e-6
    assert not res.reflectivities.flags.writeable


@pytest.mark.parametrize("coherent", [False, True])
def test_run_does_not_depend_on_earlier_runs(coherent):
    """Each run starts a fresh bank: a sequence gives the same exact
    distribution and final reflectivities after runs of other inputs."""
    res = Reservoir(ReservoirConfig(mesh_seed=29, window=4))
    encode = coherent_encode if coherent else amplitude_encode
    rng = np.random.default_rng(10)
    seq = [encode(rng.uniform(size=18), res.basis) for _ in range(6)]
    first = res.run_sequence(seq)
    reflectivities = res.reflectivities
    for _ in range(2):
        res.run_sequence([encode(rng.uniform(size=18), res.basis)] * 5)
        assert np.array_equal(res.run_sequence(seq), first)
        assert np.array_equal(res.reflectivities, reflectivities)


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
    entropies = []
    for seed in range(n):
        # von Neumann entropy (nats) of one side of the bipartition
        probs = schmidt_coefficients(sample_entangled(12, seed, BASIS93),
                                     12) ** 2
        probs = probs[probs > 1e-15]
        entropies.append(float(-(probs * np.log(probs)).sum()))
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
    assert len(Reservoir(ReservoirConfig(modes=9)).reflectivities) == 3
