import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_device
from qumem.fock import purity
from qumem.memristor import (
    FROZEN,
    LOWPASS,
    R_MIN,
    WINDOWED,
    ClassicalMemristorState,
    LeakyCoupler,
    MemristorState,
    QubitInput,
    classical_memristor_step,
    dual_rail_purity,
    estimate_n_in,
    leaky_output_expectation,
    mz_reflectivity,
    output_expectation,
    output_state_dual_rail,
    output_state_single_rail,
    purity_closed_form,
)


def test_mz_reflectivity_endpoints():
    assert mz_reflectivity(0.0) == pytest.approx(1.0)
    assert mz_reflectivity(math.pi) == pytest.approx(0.0, abs=1e-12)
    assert mz_reflectivity(math.pi / 2) == pytest.approx(0.5)


def test_mz_reflectivity_complement_identity():
    for theta in np.linspace(0, 2 * math.pi, 41):
        for n in (0.2, 0.9):
            got = output_expectation(n, mz_reflectivity(theta))
            assert got == pytest.approx(0.5 * (1 - math.cos(theta)) * n,
                                        abs=1e-12)


def test_output_expectation():
    assert output_expectation(0.6, 0.25) == pytest.approx(0.45)
    for x in (0.0, 0.3, 1.0):
        assert output_expectation(x, 0.0) == pytest.approx(x)
        assert output_expectation(x, 1.0) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        output_expectation(1.2, 0.5)
    with pytest.raises(ValueError):
        output_expectation(0.5, -0.1)


def test_leaky_output_expectation():
    ideal = LeakyCoupler(0.0)
    for n in np.linspace(0, 1, 7):
        for r in np.linspace(0, 1, 7):
            assert leaky_output_expectation(n, r, ideal) == pytest.approx(
                output_expectation(n, r), abs=1e-12
            )
    lossy = LeakyCoupler(0.01)
    assert leaky_output_expectation(1.0, 1.0, lossy) == pytest.approx(0.01)
    assert leaky_output_expectation(1.0, 0.0, lossy) == pytest.approx(0.99)
    with pytest.raises(ValueError):
        LeakyCoupler(0.5)


def test_qubit_input_validation():
    with pytest.raises(ValueError):
        QubitInput(1.0, 1.0)
    q = QubitInput.from_beta2(0.3)
    assert q.beta2 == pytest.approx(0.3)


def test_single_rail_state_transparent():
    q = QubitInput.from_beta2(0.3)
    rho = output_state_single_rail(q, 0.0)
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)
    psi = np.array([q.alpha, q.beta])
    assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)


def test_single_rail_state_values():
    rho = output_state_single_rail(QubitInput.from_beta2(0.3), 0.7)
    assert rho[0, 0].real == pytest.approx(0.91, abs=1e-12)
    assert rho[1, 1].real == pytest.approx(0.09, abs=1e-12)
    assert abs(rho[0, 1]) == pytest.approx(math.sqrt(0.7 * 0.3 * 0.3),
                                           abs=1e-4)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_single_rail_fully_reflecting():
    rho = output_state_single_rail(QubitInput.from_beta2(1.0), 1.0)
    assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)


def test_dual_rail_state_values():
    rho = output_state_dual_rail(QubitInput.from_beta2(0.3), 0.7)
    assert np.allclose(np.diag(rho).real, [0.21, 0.70, 0.09], atol=1e-12)
    rho14 = output_state_dual_rail(QubitInput.from_beta2(1.0), 0.5)
    assert np.allclose(rho14, np.diag([0.5, 0.0, 0.5]), atol=1e-12)
    rho_pure = output_state_dual_rail(QubitInput.from_beta2(0.4), 0.0)
    assert purity(rho_pure) == pytest.approx(1.0, abs=1e-12)


def test_dual_rail_diagonal_exact():
    for beta2 in np.linspace(0, 1, 11):
        for refl in np.linspace(0, 1, 11):
            rho = output_state_dual_rail(QubitInput.from_beta2(beta2), refl)
            assert np.allclose(
                np.diag(rho).real,
                [beta2 * refl, 1 - beta2, beta2 * (1 - refl)],
                atol=1e-14,
            )


def test_purity_closed_form_values():
    assert purity_closed_form(0.3, 0.7) == pytest.approx(0.9622, abs=1e-12)
    assert purity_closed_form(0.0, 0.6) == pytest.approx(1.0)
    assert purity_closed_form(1.0, 0.5) == pytest.approx(0.5)


def test_purity_closed_forms_match_matrices():
    # brute-force Tr(rho^2) for both encodings across the grid; the
    # dual-rail value sits below the single-rail one by 2 a b R
    for beta2 in np.linspace(0, 1, 21):
        for refl in np.linspace(0, 1, 21):
            q = QubitInput.from_beta2(beta2)
            single = purity(output_state_single_rail(q, refl))
            dual = purity(output_state_dual_rail(q, refl))
            assert single == pytest.approx(
                purity_closed_form(beta2, refl), abs=1e-12
            )
            assert dual == pytest.approx(
                dual_rail_purity(beta2, refl), abs=1e-12
            )
            gap = 2 * (1 - beta2) * beta2 * refl
            assert single - dual == pytest.approx(gap, abs=1e-12)


def test_dual_rail_purity_reference_point():
    assert dual_rail_purity(0.3, 0.7) == pytest.approx(0.6682, abs=1e-12)


def test_estimate_n_in():
    assert estimate_n_in(0.25, 0.5) == pytest.approx(0.5)
    assert estimate_n_in(0.0, 0.8) == 0.0
    assert estimate_n_in(0.8, 0.5) == 1.0  # clamped
    with pytest.raises(ValueError):
        estimate_n_in(0.2, R_MIN / 2)


# ---------------------------------------------------------------------------
# update laws

def test_windowed_constant_one_saturates():
    mem = MemristorState(0.5, window_seconds=1.0)
    dt = 1e-3
    for k in range(1, 1001):
        mem.advance(k * dt, 1.0)
    assert mem.R == pytest.approx(1.0, abs=1e-12)


def test_windowed_constant_half_is_fixed_point():
    mem = MemristorState(0.5, window_seconds=1.0)
    dt = 1e-3
    for k in range(1, 2001):
        mem.advance(k * dt, 0.5)
        assert mem.R == pytest.approx(0.5, abs=1e-12)


def test_windowed_full_period_integral_vanishes():
    t_osc = 2.0
    mem = MemristorState(0.5, window_seconds=t_osc)
    dt = t_osc / 1000
    n_steps = 2000  # two periods
    for k in range(1, n_steps + 1):
        t = k * dt
        mem.advance(t, math.sin(math.pi * t / t_osc) ** 2)
    assert mem.R == pytest.approx(0.5, abs=1e-9)


def test_windowed_stays_clamped_under_any_stream():
    rng = np.random.default_rng(7)
    mem = MemristorState(0.5, window_seconds=0.05)
    dt = 1e-3
    for k in range(1, 3000):
        mem.advance(k * dt, float(rng.uniform()))
        assert R_MIN <= mem.R <= 1.0


def test_windowed_rejects_decreasing_time():
    mem = MemristorState(0.5, window_seconds=1.0)
    mem.advance(1.0, 0.7)
    with pytest.raises(ValueError):
        mem.advance(0.5, 0.7)


@pytest.mark.parametrize("kwargs", [
    {"reflectivity": math.nan}, {"reflectivity": -math.inf},
    {"window_seconds": math.nan}, {"window_seconds": math.inf},
    {"f_cut": math.nan}, {"f_cut": math.inf},
], ids=["R-nan", "R-inf", "window-nan", "window-inf", "f_cut-nan",
        "f_cut-inf"])
def test_state_rejects_non_finite_parameters(kwargs):
    with pytest.raises(ValueError, match="must be finite"):
        MemristorState(**kwargs)


def test_lowpass_step_response():
    f_cut = 4.62
    mem = MemristorState(0.0, f_cut=f_cut)  # starts at R_MIN
    dt = 1e-4
    times, values = [], []
    for k in range(1, 5001):
        mem.advance(k * dt, 1.0)
        times.append(k * dt)
        values.append(mem.R)
    expected = 1.0 - (1.0 - R_MIN) * np.exp(
        -2 * math.pi * f_cut * np.array(times))
    assert np.max(np.abs(np.array(values) - expected)) < 1e-9


def test_lowpass_dc_gain():
    mem = MemristorState(0.5, f_cut=2.0)
    for k in range(1, 20001):
        mem.advance(k * 1e-3, 0.8)
    assert mem.R == pytest.approx(0.8, abs=1e-9)


def test_lowpass_attenuates_fast_oscillation():
    f_cut = 1.0
    f_osc = 50.0
    mem = MemristorState(0.5, f_cut=f_cut)
    dt = 1e-4
    rs = []
    for k in range(1, 100001):
        t = k * dt
        mem.advance(t, math.sin(math.pi * f_osc * t) ** 2)
        if t > 5.0 / f_cut:
            rs.append(mem.R)
    rs = np.array(rs)
    assert abs(rs.mean() - 0.5) < 5e-3
    assert rs.max() - rs.min() < 0.05


def test_frozen_law_never_moves():
    mem = MemristorState(0.5)
    for k in range(1, 100):
        mem.advance(k * 0.01, 1.0)
    assert mem.R == 0.5


# (dt >= 0, n_in) samples: repeated timestamps, gaps far longer than the
# window, and inputs outside the physical [0, 1] range
samples = st.lists(
    st.tuples(st.floats(0.0, 1e3), st.floats(-1e3, 1e3)), max_size=60)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["window_seconds", "f_cut"]), st.floats(0.0, 1.0),
       st.floats(1e-4, 1e2), samples)
def test_laws_keep_reflectivity_in_bounds(parameter, r0, scale, stream):
    # scale is the window (windowed) or the cutoff frequency (lowpass)
    mem = MemristorState(r0, **{parameter: scale})
    assert R_MIN <= mem.R <= 1.0
    t = 0.0
    for dt, n_in in stream:
        t += dt
        mem.advance(t, n_in)
        assert R_MIN <= mem.R <= 1.0


def _random_samples(rng, n, dt_scale):
    """Nondecreasing timestamps with repeats (dt = 0) and n_in values
    mixing Python and numpy floats."""
    dts = rng.exponential(dt_scale, n)
    dts[rng.random(n) < 0.2] = 0.0
    t = np.cumsum(dts).tolist()
    n_in = rng.random(n)
    return [(tk, float(x) if k % 3 else x)
            for k, (tk, x) in enumerate(zip(t, n_in))]


def _advance_with_reference(mem, ref, samples, cadence):
    """Advance the law and its per-sample re-sum oracle side by side: R
    within 1e-12 on every step, bit-equal on the steps `cadence` names,
    and window lengths equal."""
    for t, n_in in samples:
        before = len(ref.window)
        mem.advance(t, n_in)
        ref.advance(t, n_in)
        assert abs(mem.R - ref.R) <= 1e-12
        if cadence.exact_after(before, len(ref.window)):
            assert mem.R == ref.R
        assert len(mem.window) == len(ref.window)


@pytest.mark.parametrize("window", [1e-4, 0.05, 0.3, 2.0])
def test_windowed_law_matches_triple_window_reference(window):
    """R after every sample is within 1e-12 of re-summing (t, n, dt)
    triples, and bit-identical before the first eviction and on re-sum
    steps, for windows from shorter than one step to many steps."""
    rng = np.random.default_rng(int(window * 1e4))
    mem = MemristorState(0.5, window_seconds=window)
    ref = reference_device.TripleWindowMemristor(0.5, window_seconds=window)
    _advance_with_reference(mem, ref, _random_samples(rng, 600, 0.01),
                            reference_device.ResumCountdown())


@pytest.mark.parametrize("window_samples", [50, 1000])
def test_windowed_law_matches_reference_over_long_runs(window_samples):
    """20k steps at the hysteresis panels' fixed dt, with their shortest
    and longest windows: the running sum's drift stays within 1e-12."""
    dt = 0.01
    rng = np.random.default_rng(window_samples)
    samples = [((k + 1) * dt, x)
               for k, x in enumerate(rng.random(20000).tolist())]
    mem = MemristorState(0.5, window_seconds=window_samples * dt)
    ref = reference_device.TripleWindowMemristor(
        0.5, window_seconds=window_samples * dt)
    _advance_with_reference(mem, ref, samples,
                            reference_device.ResumCountdown())


# dt: repeated timestamps, steps inside the window, gaps longer than it
law_samples = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                        st.floats(10.0, 1e3)),
              st.floats(0.0, 1.0)),
    max_size=150)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 10.0), law_samples)
def test_running_window_sum_matches_reference(window, steps):
    mem = MemristorState(0.5, window_seconds=window)
    ref = reference_device.TripleWindowMemristor(0.5, window_seconds=window)
    samples = list(zip(np.cumsum([dt for dt, _ in steps]).tolist(),
                       [n_in for _, n_in in steps]))
    _advance_with_reference(mem, ref, samples,
                            reference_device.ResumCountdown())


def test_law_follows_the_parameter_given():
    windowed = MemristorState(0.5, window_seconds=2)
    assert (windowed.law, windowed.T, windowed.f_cut) == (WINDOWED, 2.0, None)
    assert type(windowed.T) is float and windowed.feedback_window == 2.0
    lowpass = MemristorState(0.5, f_cut=4.0)
    assert (lowpass.law, lowpass.T, lowpass.f_cut) == (LOWPASS, None, 4.0)
    assert lowpass.feedback_window == 0.25
    frozen = MemristorState()
    assert (frozen.law, frozen.T, frozen.f_cut) == (FROZEN, None, None)
    assert (frozen.feedback_window, frozen.R) == (None, 0.5)


def test_window_and_cutoff_together_raise():
    with pytest.raises(ValueError, match="not both"):
        MemristorState(0.5, window_seconds=1.0, f_cut=1.0)


@pytest.mark.parametrize("kwargs", [
    {"window_seconds": 0}, {"window_seconds": -1.0}, {"f_cut": 0.0},
    {"f_cut": -2.0},
])
def test_state_rejects_non_positive_parameters(kwargs):
    with pytest.raises(ValueError, match="positive"):
        MemristorState(**kwargs)


# ---------------------------------------------------------------------------
# classical junction memristor

def make_junction(w=None):
    d = 10e-9
    return ClassicalMemristorState(
        w=d / 2 if w is None else w, D=d,
        R_low=100.0, R_high=16e3, mu=1e-14,
    )


def test_classical_zero_current():
    state = make_junction()
    v, out = classical_memristor_step(state, 0.0, 1e-3)
    assert v == 0.0
    assert out.w == state.w


def test_classical_fully_doped_resistance():
    state = make_junction(w=10e-9)
    v, _ = classical_memristor_step(state, 2e-3, 1e-6)
    assert v == pytest.approx(100.0 * 2e-3)


def test_classical_pinched_orbit():
    state = make_junction()
    omega = 2 * math.pi * 5.0
    dt = 1e-5
    for k in range(1, 40001):
        i = 1e-3 * math.sin(omega * k * dt)
        v, state = classical_memristor_step(state, i, dt)
        if abs(i) < 1e-9:
            assert abs(v) < 1e-6  # orbit passes through the origin


def memristance_spread(omega, cycles=3, steps_per_cycle=4000):
    state = make_junction()
    dt = 2 * math.pi / omega / steps_per_cycle
    ratios = []
    for k in range(1, cycles * steps_per_cycle + 1):
        i = 1e-3 * math.sin(omega * k * dt)
        v, state = classical_memristor_step(state, i, dt)
        if abs(i) > 5e-4:
            ratios.append(v / i)
    return max(ratios) - min(ratios), float(np.mean(ratios))


def test_classical_high_frequency_collapses_to_line():
    omega0 = 2 * math.pi * 5e3
    spread_slow, mean_slow = memristance_spread(omega0)
    spread_fast, mean_fast = memristance_spread(10 * omega0)
    # loop opening scales like 1/omega: ten times faster drive shrinks
    # the v/i spread tenfold, approaching a straight line
    assert spread_fast / spread_slow < 0.15
    assert spread_fast / mean_fast < 0.02


def test_classical_state_validation():
    with pytest.raises(ValueError):
        ClassicalMemristorState(w=2.0, D=1.0, R_low=1.0, R_high=2.0, mu=1.0)
    with pytest.raises(ValueError):
        ClassicalMemristorState(w=0.5, D=1.0, R_low=3.0, R_high=2.0, mu=1.0)
