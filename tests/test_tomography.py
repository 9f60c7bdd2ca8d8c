import functools
import math
import warnings

import numpy as np
import pytest

import reference_device
from qumem import tomography
from qumem.cli import cmd_tomography, resolve_config
from qumem.fock import MAX_SHOTS, coupler, fidelity, purity
from qumem.memristor import QubitInput, dual_rail_purity, output_state_dual_rail
from qumem.tomography import (
    PHI_GLOBAL,
    apply_phase_model,
    coherence_phase,
    fit_global_phase,
    mle_reconstruct,
    project_physical,
    reconstruction_roundtrip,
    reference_table,
    _log_likelihoods,
    simulate_counts,
    table_fixtures,
)


def phased_state(beta2, refl, phi=PHI_GLOBAL):
    rho = output_state_dual_rail(QubitInput.from_beta2(beta2), refl)
    return apply_phase_model(rho, refl, phi)


# ---------------------------------------------------------------------------
# fixtures vs the bundled reference table

def test_sixteen_fixtures_match_reference_within_rounding():
    ref = reference_table()
    fixtures = table_fixtures()
    assert len(ref) == len(fixtures) == 16
    for fx, row in zip(fixtures, ref):
        assert fx.beta2 == row["beta2"]
        assert fx.reflectivity == row["reflectivity"]
        dev_re = np.max(np.abs(fx.rho.real - row["rho_theory"].real))
        dev_im = np.max(np.abs(fx.rho.imag - row["rho_theory"].imag))
        assert max(dev_re, dev_im) < 0.005


def test_fixture_diagonals():
    fixtures = {(f.beta2, f.reflectivity): f for f in table_fixtures()}
    assert np.allclose(
        np.diag(fixtures[(0.3, 0.7)].rho).real, [0.21, 0.70, 0.09], atol=1e-12
    )
    assert np.allclose(
        fixtures[(1.0, 0.5)].rho, np.diag([0.5, 0.0, 0.5]), atol=1e-12
    )
    rho16 = fixtures[(1.0, 1.0)].rho
    assert np.allclose(rho16, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
    assert purity(rho16) == pytest.approx(1.0, abs=1e-12)


def test_reference_purity_columns_follow_dual_rail_form():
    for row in reference_table():
        expected = dual_rail_purity(row["beta2"], row["reflectivity"])
        assert expected == pytest.approx(row["purity_theory"], abs=0.0051)


def test_reference_fidelity_columns_reproducible_from_rounded_data():
    # the published column used unrounded lab data; the two-decimal
    # matrices (projected back to physical states) track it closely
    for row in reference_table():
        f = fidelity(row["rho_theory"], project_physical(row["rho_reconstructed"]))
        assert f == pytest.approx(row["fidelity"], abs=0.01)


def test_reference_row5_fidelity():
    row5 = reference_table()[4]
    assert (row5["beta2"], row5["reflectivity"]) == (0.3, 0.7)
    f = fidelity(row5["rho_theory"], project_physical(row5["rho_reconstructed"]))
    assert f == pytest.approx(0.9969, abs=0.01)
    assert row5["purity_reconstructed"] == pytest.approx(0.66, abs=1e-9)


# ---------------------------------------------------------------------------
# counts

def test_settings_are_informationally_complete():
    # distinct blocks must give distinct click statistics
    rng = np.random.default_rng(0)

    def stats(block):
        rho = np.zeros((3, 3), dtype=complex)
        rho[1:, 1:] = block
        return simulate_counts(rho)

    for _ in range(20):
        t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b1 = t @ t.conj().T
        b1 /= np.trace(b1).real
        t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b2 = t @ t.conj().T
        b2 /= np.trace(b2).real
        if np.max(np.abs(b1 - b2)) > 1e-6:
            assert np.max(np.abs(stats(b1) - stats(b2))) > 1e-9


def test_simulate_counts_exact_equals_probabilities():
    rho = phased_state(0.3, 0.5)
    rows = simulate_counts(rho, shots=None)
    assert rows.shape == (4, 2)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    # identity setting reads the block populations directly
    block = rho[1:, 1:]
    cond = np.real(np.diag(block)) / np.real(np.trace(block))
    assert np.allclose(rows[0], cond, atol=1e-12)


def test_simulate_counts_one_photon_state_all_in_bypass():
    rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
    rows = simulate_counts(rho, shots=4000, seed=1)
    assert rows[0].tolist() == [4000.0, 0.0]


def test_simulate_counts_draws_the_largest_int64_count():
    rows = simulate_counts(phased_state(0.3, 0.5), shots=MAX_SHOTS, seed=2)
    assert np.allclose(rows.sum(axis=1), float(MAX_SHOTS))


def test_simulate_counts_reproducible():
    rho = phased_state(0.7, 0.3)
    a = simulate_counts(rho, shots=1000, seed=7)
    b = simulate_counts(rho, shots=1000, seed=7)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("shots", [None, 1000, 50])
def test_simulate_counts_warm_memo_gives_cold_counts(shots):
    """Counts drawn with every state's click rows already in the memo
    equal those of a cold memo bit for bit, the zero rows of a state
    without kept-rail population included."""
    states = [fx.rho for fx in table_fixtures()]
    states += [np.diag([1.0, 0.0, 0.0]).astype(complex),
               phased_state(0.3, 0.5, 1.0)]
    cold = []
    for seed, rho in enumerate(states):
        tomography._click_rows.cache_clear()
        cold.append(simulate_counts(rho, shots, seed).tobytes())
    for _ in range(2):
        for seed, (rho, want) in enumerate(zip(states, cold)):
            assert simulate_counts(rho, shots, seed).tobytes() == want


def test_click_rows_are_keyed_by_shape():
    """A state's bytes in another shape are not its click rows: the
    flattened state fails as it does with a cold memo."""
    rho = phased_state(0.3, 0.5)
    for _ in range(2):
        simulate_counts(rho)
        with pytest.raises(IndexError):
            simulate_counts(rho.ravel())


def test_theory_states_are_shared_and_read_only():
    """Every grid of a process holds the same read-only theory states,
    the phased model states bit for bit, and its round trips read them."""
    first, second = table_fixtures(), table_fixtures()
    for a, b in zip(first, second):
        assert a.rho is b.rho
        assert a.rho.tobytes() == phased_state(a.beta2,
                                               a.reflectivity).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            a.rho[0, 0] = 0.5
    state = tomography._theory_state(0.3, 0.5, PHI_GLOBAL)
    assert state is first[3].rho
    hits = tomography._theory_state.cache_info().hits
    reconstruction_roundtrip(0.3, 0.5)
    assert tomography._theory_state.cache_info().hits == hits + 1
    with pytest.raises(ValueError, match="read-only"):
        state[1, 2] = 0.0
    other = table_fixtures(1.0)[3].rho
    assert other.tobytes() == phased_state(0.3, 0.5, 1.0).tobytes()


@pytest.mark.parametrize("shots", [0, 2.5, -1, True, MAX_SHOTS + 1, 10**20],
                         ids=["zero", "fraction", "negative", "bool",
                              "int64-max-plus-1", "1e20"])
def test_shots_must_be_a_positive_integer(shots, monkeypatch):
    """A shot count that is not None or an integer in [1, 2**63 - 1],
    the counts numpy draws, is rejected
    before any draw, by the draw, by the batch's tables and by a round
    trip handed its table."""
    drawn = count_calls(monkeypatch, "simulate_counts")
    seeded = count_calls(monkeypatch, "_roundtrip_rng")
    fixtures = table_fixtures()
    for draw in [
            lambda: tomography.simulate_counts(fixtures[3].rho, shots, 1),
            lambda: tomography.fixture_counts(fixtures, shots, 1),
            lambda: tomography.fixture_counts(fixtures, shots, None),
            lambda: reconstruction_roundtrip(0.3, 0.5, shots=shots, seed=1),
            lambda: reconstruction_roundtrip(0.3, 0.5, shots=shots, seed=1,
                                             counts=np.ones((4, 2)))]:
        with pytest.raises(ValueError, match="shots must be"):
            draw()
    assert len(drawn) == 1  # the direct call, which raised
    assert seeded == []


# ---------------------------------------------------------------------------
# reconstruction

def test_mle_exact_roundtrip_reference_point():
    report = reconstruction_roundtrip(0.3, 0.7, shots=None)
    assert report.fidelity_to_theory >= 0.999
    assert report.purity == pytest.approx(0.67, abs=0.005)


def test_mle_exact_roundtrip_all_sixteen():
    for fx in table_fixtures():
        report = reconstruction_roundtrip(fx.beta2, fx.reflectivity)
        assert report.fidelity_to_theory >= 0.999, (fx.beta2, fx.reflectivity)


def test_mle_reconstruct_is_physical_under_noise():
    rng = np.random.default_rng(13)
    for _ in range(5):
        beta2 = float(rng.uniform())
        refl = float(rng.uniform())
        report = reconstruction_roundtrip(
            beta2, refl, shots=200, seed=int(rng.integers(2**31))
        )
        evals = np.linalg.eigvalsh(report.rho)
        assert evals.min() >= -1e-10
        assert np.trace(report.rho).real == pytest.approx(1.0, abs=1e-10)


def test_mle_million_shot_mean_fidelity():
    fids = [
        reconstruction_roundtrip(fx.beta2, fx.reflectivity,
                                 shots=10**6, seed=42).fidelity_to_theory
        for fx in table_fixtures()
    ]
    assert np.mean(fids) >= 0.995
    assert min(fids) >= 0.99


def test_mle_fidelity_improves_with_shots():
    shot_grid = [100, 1000, 10000, 100000]
    means = []
    for shots in shot_grid:
        fids = [
            reconstruction_roundtrip(0.3, 0.5, shots=shots, seed=seed)
            .fidelity_to_theory
            for seed in range(20)
        ]
        means.append(np.mean(fids))
    # 20 seeds leave ~2e-4 sampling noise on the plateau mean
    assert all(b >= a - 2.5e-4 for a, b in zip(means, means[1:]))
    assert means[-1] > 0.9995


def test_stacked_log_likelihoods_match_pointwise():
    """Every row is scored on its own count table, zero cells and
    all-zero tables included, and each value equals the one-point
    evaluation's bit for bit (signed zeros too).  Row 1 is the pure
    block diag(1, 0), whose bare detection never clicks on the second
    rail: its clicks there score log(_EPS)."""
    rng = np.random.default_rng(5)
    tables = rng.integers(0, 500, size=(32, 4, 2))
    tables = np.where(rng.random(tables.shape) < 0.3, 0, tables)
    tables[0] = 0
    tables[1, 0, 1] = 7
    tables = tables.astype(float)
    params = rng.normal(size=(32, 4))
    params[1] = [1.0, 0.0, 0.0, 0.0]
    got = _log_likelihoods(params, tables.reshape(32, -1))
    want = [reference_device.log_likelihood(row, table)
            for row, table in zip(params, tables)]
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("settings", [reference_device.SETTINGS],
                         ids=["default"])
def test_mle_matches_pointwise_reference_exactly(settings):
    """The stacked likelihood changes no float operation: rho, the
    final log-likelihood and the iteration count are bit-identical to
    the one-point-at-a-time ascent at the oracle's coupler settings,
    exact and finite-shot."""
    cases = [(0.3, 0.5, None, None), (0.7, 0.3, 1000, 4),
             (1.0, 0.7, 1000, 11), (0.3, 0.0, 200, 2)]
    for beta2, refl, shots, seed in cases:
        counts = simulate_counts(phased_state(beta2, refl), shots,
                                 seed=seed)
        got = mle_reconstruct(counts, 0.2)
        want = reference_device.mle_reconstruct(counts, 0.2, settings)
        assert np.array_equal(got.rho, want.rho), (beta2, refl, shots)
        assert got.purity == want.purity
        assert got.meta == want.meta
    # exact counts: the moment estimate is already the optimum
    exact = simulate_counts(phased_state(0.3, 0.5))
    assert mle_reconstruct(exact, 0.2).meta["iterations"] == 1


def test_linear_inversion_matches_coupler_matching_reference():
    """Reading the moments from fixed rows 0, 1 and 3 gives the initial
    estimate of the oracle that recognises each setting by its coupler,
    bit for bit: random tables with zero cells and click-free rows, the
    all-zero table, and the exact tables of the 16 fixtures."""
    rng = np.random.default_rng(8)
    tables = rng.integers(0, 500, size=(300, 4, 2))
    tables = np.where(rng.random(tables.shape) < 0.2, 0, tables)
    tables[rng.random((300, 4)) < 0.2] = 0
    tables[0] = 0
    tables = [*tables.astype(float),
              *(simulate_counts(fx.rho) for fx in table_fixtures())]
    for table in tables:
        got = tomography._linear_inversion(table)
        want = reference_device._linear_inversion(table,
                                                  reference_device.SETTINGS)
        assert got.tobytes() == want.tobytes(), table


def count_calls(monkeypatch, name):
    """A list that grows by one per call of tomography.<name>."""
    calls = []
    original = getattr(tomography, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(tomography, name, counted)
    return calls


@pytest.mark.parametrize("seed", [0, 3, 7, 10])
def test_command_ascent_reuse_matches_fresh_roundtrips(tmp_path, seed,
                                                       monkeypatch):
    """The command shares one ascent dict over its 16 fixtures and runs
    all its ascents in one lock step; every row equals a fresh
    reconstruction bit for bit."""
    config = resolve_config("tomography",
                            overrides={"shots": 1000, "seed": seed})
    ascended = count_calls(monkeypatch, "_ascend")
    states = cmd_tomography(config, tmp_path, False)["states"]
    monkeypatch.undo()
    # the β² = 1 rows at R < 1 draw the same counts, and so do the R = 1
    # rows and (0, 0): 15 reconstructions, 10 distinct ascents
    assert len(ascended) == 1
    ((tables,),) = ascended
    assert len(tables) == 10
    assert len({table.tobytes() for table in tables}) == 10
    ascents = {}
    for fx, row in zip(table_fixtures(), states):
        fresh = reconstruction_roundtrip(fx.beta2, fx.reflectivity,
                                         shots=1000, seed=seed)
        shared = reconstruction_roundtrip(fx.beta2, fx.reflectivity,
                                          shots=1000, seed=seed,
                                          ascents=ascents)
        assert np.array_equal(shared.rho, fresh.rho)
        assert shared.fidelity_to_theory == fresh.fidelity_to_theory
        assert shared.purity == fresh.purity
        assert shared.meta == fresh.meta
        assert row["fidelity"] == fresh.fidelity_to_theory
        assert row["purity"] == fresh.purity


def test_setting_unitary_is_built_once_and_read_only():
    """The four analysis couplers are one read-only (4, 2, 2) constant,
    stored with its conjugate transpose: `coupler` at the oracle's
    (R, phase) settings, entry for entry."""
    v, vh = tomography._COUPLERS, tomography._COUPLERS_H
    assert v.shape == vh.shape == (4, 2, 2)
    assert not v.flags.writeable and not vh.flags.writeable
    for k, (r, phase) in enumerate(reference_device.SETTINGS):
        assert (v[k] == coupler(r, phase)).all()
        assert (vh[k] == coupler(r, phase).conj().T).all()
    with pytest.raises(ValueError):
        v[0, 0, 0] = 0


@pytest.mark.parametrize("shots", [1000, None])
def test_command_draws_each_count_table_once(tmp_path, monkeypatch, shots):
    """The command draws each fixture's count table once, up front, and
    hands it to that fixture's round trip: 16 draws for 16 fixtures.  A
    round trip handed no table draws its own, as unseeded finite shots
    need."""
    config = resolve_config("tomography",
                            overrides={"shots": shots, "seed": 5})
    drawn = count_calls(monkeypatch, "simulate_counts")
    states = cmd_tomography(config, tmp_path, False)["states"]
    assert len(states) == 16
    assert len(drawn) == 16
    reconstruction_roundtrip(0.3, 0.5, shots=1000)
    assert len(drawn) == 17


def test_shared_ascent_skips_the_likelihood(monkeypatch):
    counts = simulate_counts(phased_state(0.7, 0.3), shots=1000, seed=4)
    ascents = {}
    first = mle_reconstruct(counts, 0.2, ascents=ascents)
    calls = count_calls(monkeypatch, "_log_likelihoods")
    again = mle_reconstruct(counts.copy(), 0.4, ascents=ascents)
    assert calls == []
    fresh = mle_reconstruct(counts, 0.4)
    per_ascent = len(calls)
    assert per_ascent > 0
    # nothing outlives the caller's dict: without one, every call ascends
    mle_reconstruct(counts, 0.4)
    assert len(calls) == 2 * per_ascent
    assert np.array_equal(again.rho, fresh.rho)
    assert again.purity == fresh.purity
    assert again.meta == fresh.meta == first.meta
    assert again.meta is not first.meta


def test_ascents_are_keyed_by_table_bytes(monkeypatch):
    """An ascent is stored under its count table's bytes, and an equal
    table in another container finds it."""
    counts = simulate_counts(phased_state(0.3, 0.5), shots=1000, seed=2)
    ascents = {}
    mle_reconstruct(counts, 0.2, ascents=ascents)
    assert list(ascents) == [counts.tobytes()]
    calls = count_calls(monkeypatch, "_log_likelihoods")
    mle_reconstruct(counts.tolist(), 0.3, ascents=ascents)
    assert calls == []
    assert len(ascents) == 1


def pending(fixtures, shots=None, seed=None):
    """The pending `ascents` dict of the fixtures' round trips."""
    return tomography.pending_ascents(
        tomography.fixture_counts(fixtures, shots, seed))


def test_pending_entries_ascend_with_the_first_reconstruction(monkeypatch):
    """pending_ascents registers the command's distinct tables; the first
    reconstruction ascends every pending entry at once."""
    fixtures = table_fixtures()
    ascents = pending(fixtures, 1000, 3)
    assert len(ascents) == 10
    assert set(ascents.values()) == {None}
    ascended = count_calls(monkeypatch, "_ascend")
    for fx in fixtures:
        reconstruction_roundtrip(fx.beta2, fx.reflectivity, shots=1000,
                                 seed=3, ascents=ascents)
    assert [len(tables) for (tables,) in ascended] == [10]
    assert None not in ascents.values()
    # unseeded finite shots draw each fixture's table once, afresh
    unseeded = tomography.fixture_counts(fixtures, 1000, None)
    assert [table.shape for table in unseeded] == [(4, 2)] * 16
    assert all(table.sum() in (0, 4000) for table in unseeded)
    exact = {simulate_counts(fx.rho).tobytes() for fx in fixtures
             if fx.rho[0, 0].real < 1}
    assert set(pending(fixtures)) == exact


def test_bad_pending_entries_stay_out_of_the_batch(monkeypatch):
    """A pending entry that is no valid count table neither joins the
    lock step nor disturbs the table reconstructed; a batch whose
    ascent fails falls back to the call's own table."""
    counts = simulate_counts(phased_state(0.7, 0.3), shots=1000, seed=4)
    good = simulate_counts(phased_state(0.3, 0.5), shots=1000, seed=2)
    bad = [np.zeros((4, 2)), -np.ones((4, 2)), np.full((4, 2), np.nan),
           np.full((4, 2), np.inf), np.ones((3, 2))]
    ascents = {table.tobytes(): None for table in bad}
    ascents.update({b"\0" * 12: None, "junk": None, good.tobytes(): None})
    ascended = count_calls(monkeypatch, "_ascend")
    got = mle_reconstruct(counts, 0.2, ascents=ascents)
    ((tables,),) = ascended
    assert [t.tobytes() for t in tables] == [counts.tobytes(),
                                             good.tobytes()]
    assert sum(done is None for done in ascents.values()) == 7
    fresh = mle_reconstruct(counts, 0.2)
    assert np.array_equal(got.rho, fresh.rho)
    assert got.meta == fresh.meta

    monkeypatch.undo()
    lone = tomography._ascend

    def failing(tables):
        if len(tables) > 1:
            raise FloatingPointError("degenerate Cholesky factor")
        return lone(tables)

    monkeypatch.setattr(tomography, "_ascend", failing)
    ascents = {good.tobytes(): None}
    got = mle_reconstruct(counts, 0.2, ascents=ascents)
    assert np.array_equal(got.rho, fresh.rho)
    assert got.meta == fresh.meta
    assert ascents[good.tobytes()] is None


@functools.lru_cache(maxsize=None)
def reference_ascent(data):
    """The pointwise oracle's ascent of a count table, by its bytes: the
    table that stops at _MAX_ITER takes seconds, so each runs once."""
    return reference_device.mle_ascent(np.frombuffer(data).reshape(-1, 2))


def lockstep_batches():
    """Count-table batches for the lock-step oracle."""
    seed23 = [np.frombuffer(data).reshape(-1, 2) for data in
              pending(table_fixtures(), 1000, 23)]
    exact = simulate_counts(phased_state(0.3, 0.5))
    capped = seed23[-1]
    mixed = [seed23[3], exact, *seed23, capped, seed23[0]]
    permuted = [mixed[k] for k in
                np.random.default_rng(1).permutation(len(mixed))]
    return {"mixed": mixed, "permuted": permuted, "one": [capped]}


@pytest.mark.parametrize("name", ["mixed", "permuted", "one"])
def test_lockstep_ascent_matches_per_table_reference(name):
    """Each table of a lock-step batch ascends exactly as the pointwise
    oracle ascends it alone: block, log-likelihood and iteration count,
    with duplicates, any order, a batch of one, and tables that stop at
    _MAX_ITER and at the first iteration."""
    tables = lockstep_batches()[name]
    got = tomography._ascend(tables)
    assert len(got) == len(tables)
    iterations = []
    for table, (block, ll, its) in zip(tables, got):
        want_block, want_ll, want_its = reference_ascent(table.tobytes())
        assert np.array_equal(block, want_block)
        assert ll == want_ll
        assert its == want_its
        iterations.append(its)
    assert tomography._MAX_ITER in iterations
    if name in ("mixed", "permuted"):
        assert 1 in iterations


def test_zero_gradient_tables_stop_while_the_batch_climbs():
    """A table whose first gradient is exactly zero stops in round 1 and
    leaves the batch; the tables around it go on searching (each later
    round then scoring only their rows), each as it does alone."""
    flat = [np.array([[2.0, 2.0], [0, 0], [0, 0], [0, 0]]),
            np.array([[1e-300, 0], [0, 0], [0, 0], [0, 0]])]
    seed23 = [np.frombuffer(data).reshape(-1, 2) for data in
              pending(table_fixtures(), 1000, 23)]
    tables = [seed23[0], flat[0], seed23[3], flat[1], seed23[-1]]
    got = tomography._ascend(tables)
    for table, (block, ll, its) in zip(tables, got):
        want_block, want_ll, want_its = reference_ascent(table.tobytes())
        assert np.array_equal(block, want_block)
        assert (ll, its) == (want_ll, want_its)
    assert [its for _, _, its in got][1::2] == [1, 1]


@pytest.mark.parametrize("seed", [0, 3, 23])
def test_batch_makes_as_many_passes_as_its_slowest_table(monkeypatch, seed):
    """Every unfinished table has one request in each likelihood pass,
    so a command's batch makes exactly as many `_log_likelihoods` calls
    as its slowest table makes alone."""
    tables = [np.frombuffer(data).reshape(-1, 2) for data in
              pending(table_fixtures(), 1000, seed)]
    calls = count_calls(monkeypatch, "_log_likelihoods")
    alone = []
    for table in tables:
        tomography._ascend([table])
        alone.append(len(calls))
        calls.clear()
    tomography._ascend(tables)
    assert len(calls) == max(alone)


def test_mle_rejects_bad_inputs():
    counts = np.ones((4, 2))
    with pytest.raises(ValueError):
        mle_reconstruct(np.zeros((4, 2)), 0.1)
    with pytest.raises(ValueError):
        mle_reconstruct(-counts, 0.1)
    with pytest.raises(ValueError):
        mle_reconstruct(counts, 1.5)
    with pytest.raises(ValueError):
        mle_reconstruct(counts[:2], 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_mle_rejects_non_finite_counts(bad):
    counts = np.ones((4, 2))
    counts[2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            mle_reconstruct(counts, 0.1)


# ---------------------------------------------------------------------------
# global phase

def test_phase_model_reference_values():
    # spot values transcribed from the characterisation table
    z = phased_state(0.3, 0.0)[1, 2]
    assert z.real == pytest.approx(-0.36, abs=0.005)
    assert z.imag == pytest.approx(-0.29, abs=0.005)
    z = phased_state(0.3, 0.7)[1, 2]
    assert z.real == pytest.approx(0.03, abs=0.005)
    assert z.imag == pytest.approx(-0.25, abs=0.005)


def test_fit_global_phase_roundtrip():
    samples = [
        (refl, phased_state(0.3, refl)[1, 2]) for refl in (0.0, 0.3, 0.5, 0.7)
    ]
    assert fit_global_phase(samples) == pytest.approx(5.6, abs=0.01)


def test_fit_global_phase_zero_offset():
    samples = [
        (refl, phased_state(0.4, refl, phi=0.0)[1, 2])
        for refl in (0.0, 0.2, 0.5)
    ]
    fitted = fit_global_phase(samples)
    assert min(fitted, 2 * math.pi - fitted) == pytest.approx(0.0, abs=0.01)


@pytest.mark.parametrize("offset", [1e-16, 3e-16])
def test_fit_global_phase_folds_an_angle_just_below_zero(offset):
    # the phasors' mean angle is -offset, which % 2 pi rounds up to 2 pi
    samples = [(refl, np.exp(1j * (coherence_phase(refl, 0.0) + offset)))
               for refl in (0.2, 0.5)]
    assert fit_global_phase(samples) == 0.0


def test_fit_global_phase_from_published_entries():
    samples = [
        (row["reflectivity"], row["rho_theory"][1, 2])
        for row in reference_table()
        if abs(row["rho_theory"][1, 2]) > 1e-9
    ]
    assert fit_global_phase(samples) == pytest.approx(5.6, abs=0.02)


def test_fit_global_phase_needs_coherence():
    with pytest.raises(ValueError):
        fit_global_phase([(1.0, 0.0), (1.0, 0.0)])


def test_coherence_phase_is_half_rate():
    # the through-arm phase moves at half the control phase rate
    d1 = coherence_phase(0.3) - coherence_phase(0.0)
    assert d1 == pytest.approx(math.asin(math.sqrt(0.3)), abs=1e-12)
