import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_device
from qumem import _atomic, hysteresis
from qumem.hysteresis import (
    EXACT,
    HIGH_FREQ,
    INTERMEDIATE,
    LOW_FREQ,
    POISSON,
    _POISSON_MEAN_MAX,
    DetectionConfig,
    DetectorModel,
    DriveConfig,
    Trace,
    classify_regime,
    hf_reference,
    lf_reference,
    rms,
    run_closed_loop,
    run_lpf_loop,
)
from qumem.memristor import FROZEN, LOWPASS, WINDOWED, MemristorState

T_OSC = 10.0


def windowed_run(ratio, noise=EXACT, seed=None, n_periods=2, rc=0.1):
    drive = DriveConfig(T_osc=T_OSC, n_periods=n_periods)
    mem = MemristorState(0.5, window_seconds=ratio * T_OSC)
    det = DetectionConfig(noise=noise, seed=seed, rc=rc)
    return run_closed_loop(drive, mem, det)


def test_low_frequency_limit():
    trace = windowed_run(0.01).steady()
    assert rms(trace.n_out, lf_reference(trace.n_in)) <= 0.02


def test_high_frequency_limit():
    trace = windowed_run(1.0).steady()
    assert rms(trace.n_out, hf_reference(trace.n_in)) <= 0.02


def test_orbit_pinched_at_origin():
    for ratio in (0.05, 0.3, 0.6, 1.0):
        trace = windowed_run(ratio)
        assert np.all(trace.n_out <= trace.n_in + 1e-12)
        small = trace.n_in <= 0.02
        assert np.all(trace.n_out[small] <= 0.02)


def test_trace_rows_bounded_and_increasing():
    trace = windowed_run(0.4)
    assert np.all(np.diff(trace.t) > 0)
    for arr in (trace.n_in, trace.n_out, trace.R):
        assert np.all(arr >= 0.0) and np.all(arr <= 1.0)


def test_orbit_area_unimodal_in_window():
    ratios = [0.01, 0.05, 0.2, 0.4, 0.6, 0.8, 1.0]
    areas = [windowed_run(r).steady().orbit_area() for r in ratios]
    peak = int(np.argmax(areas))
    assert all(areas[i] >= areas[i + 1] - 1e-12 for i in range(peak, len(areas) - 1))
    assert all(areas[i] <= areas[i + 1] + 1e-12 for i in range(0, peak))
    # vanishing limits on both sides
    assert areas[0] < 0.02
    assert areas[-1] < 1e-4


def test_frozen_law_gives_exact_line():
    drive = DriveConfig(T_osc=T_OSC, n_periods=1)
    mem = MemristorState(0.5)  # frozen
    trace = run_closed_loop(drive, mem, DetectionConfig())
    assert np.allclose(trace.n_out, 0.5 * trace.n_in, atol=1e-14)


def test_rc_larger_than_window_rejected():
    # the guard binds when the RC filter participates (pulse counting)
    drive = DriveConfig(T_osc=T_OSC)
    mem = MemristorState(0.5, window_seconds=0.05)
    with pytest.raises(ValueError):
        run_closed_loop(drive, mem, DetectionConfig(rc=0.1, noise=POISSON))
    # exact readout has no filter, so the same geometry is fine
    mem2 = MemristorState(0.5, window_seconds=0.05)
    run_closed_loop(drive, mem2, DetectionConfig(rc=0.1, noise=EXACT))


def test_drive_config_needs_fine_dt():
    with pytest.raises(ValueError):
        DriveConfig(T_osc=1.0, dt=0.01)


def test_poisson_detector_rejects_means_numpy_cannot_draw():
    """numpy draws a Poisson mean up to _POISSON_MEAN_MAX and no further;
    a pulse-counting detector whose max_rate * dt passes it is rejected
    when it is built, and an exact one, which draws nothing, is not."""
    rng = np.random.default_rng(0)
    rng.poisson(_POISSON_MEAN_MAX)
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(np.nextafter(_POISSON_MEAN_MAX, np.inf))
    with pytest.raises(ValueError, match="max_rate"):
        DetectorModel(DetectionConfig(max_rate=1e300, noise=POISSON), 0.01)
    DetectorModel(DetectionConfig(max_rate=1e300, noise=EXACT), 0.01)
    detector = DetectorModel(DetectionConfig(max_rate=1e17, noise=POISSON,
                                             seed=1), 0.01)
    assert detector.estimate(1e17) > 0.0


@pytest.mark.parametrize("kwargs", [
    {"dt": 0.0}, {"dt": -0.001}, {"dt": float("nan")}, {"dt": float("inf")},
    {"T_osc": float("inf")}, {"T_osc": float("nan")},
], ids=["dt-0", "dt-neg", "dt-nan", "dt-inf", "T_osc-inf", "T_osc-nan"])
def test_drive_config_rejects_nonpositive_or_nonfinite_steps(kwargs):
    with pytest.raises(ValueError, match="positive and finite"):
        DriveConfig(**{"T_osc": 1.0, **kwargs})


@pytest.mark.parametrize("kwargs", [
    {"T_osc": 1e308}, {"T_osc": 5e307}, {"T_osc": 1e300, "dt": 1e-10},
    {"T_osc": 1e300, "n_periods": 10**400},
], ids=["time-overflow", "phase-overflow", "steps-overflow",
        "periods-overflow"])
def test_drive_config_rejects_overflowing_sample_times(kwargs):
    with pytest.raises(ValueError, match="last sample"):
        DriveConfig(**kwargs)


def test_drive_config_keeps_large_finite_drives():
    drive = DriveConfig(T_osc=1e306, n_periods=1)
    t, n_in = drive.samples
    assert math.isfinite(t[-1]) and n_in[-1] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("n_periods", [2.5, True, 2.0],
                         ids=["float", "bool", "integral-float"])
def test_drive_config_rejects_non_integer_periods(n_periods):
    with pytest.raises(ValueError, match="must be an integer"):
        DriveConfig(T_osc=10.0, n_periods=n_periods)


def _table_bytes(tables):
    (t, n_in), lead, t_arr, n_in_arr = tables
    return (np.array(t).tobytes(), np.array(n_in).tobytes(), lead,
            t_arr.tobytes(), n_in_arr.tobytes())


def test_warm_drive_tables_equal_a_cold_build():
    """Drives that differ from one another in one field each take their
    turn in the two-entry cache; every drive's sample tuples, row text
    and arrays then equal a cold build bit for bit, and the properties
    read the cached entry."""
    cache = hysteresis._drive_tables
    drives = [DriveConfig(T_osc=T_OSC), DriveConfig(T_osc=T_OSC, dt=0.005),
              DriveConfig(T_osc=T_OSC, n_periods=3),
              DriveConfig(T_osc=math.pi), DriveConfig(T_osc=T_OSC)]
    cold = [_table_bytes(cache.__wrapped__(drive)) for drive in drives]
    for drive, want in zip(drives * 2, cold * 2):
        tables = cache(drive)
        assert _table_bytes(tables) == want
        assert drive.samples is tables[0] and drive.csv_lead is tables[1]
        assert cache.cache_info().currsize <= 2


def test_equal_drives_share_one_cache_entry():
    """T_osc 10 and 10.0, and dt None and 0.01, give one drive value:
    one entry, and the same samples as a cold build of either."""
    cache = hysteresis._drive_tables
    cache.cache_clear()
    drives = [DriveConfig(T_osc=10), DriveConfig(T_osc=10.0, dt=0.01),
              DriveConfig(T_osc=10.0, n_periods=2, dt=None)]
    assert len(set(drives)) == 1
    assert all(drive.samples is drives[0].samples for drive in drives)
    assert cache.cache_info().currsize == 1
    for drive in drives:
        assert (_table_bytes(cache(drive))
                == _table_bytes(cache.__wrapped__(drive)))


def test_runs_share_read_only_drive_arrays():
    """Runs of equal drives hold the same read-only t and n_in arrays,
    as do their steady slices; n_out and R are each run's own."""
    a = windowed_run(0.2, n_periods=2)
    b = run_lpf_loop(DriveConfig(T_osc=10, n_periods=2), 2.0)
    assert a.t is b.t and a.n_in is b.n_in
    assert a.n_out is not b.n_out and a.R is not b.R
    for trace in (a, a.steady(1)):
        for column in (trace.t, trace.n_in):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.5
    a.n_out[0] = a.R[0] = 0.5  # a run's own columns stay writable


# ---------------------------------------------------------------------------
# detection model

def test_detection_exact_scaling():
    det = DetectionConfig(max_rate=3e4, noise=EXACT)
    assert DetectorModel(det, 1e-3).estimate(3e4) == pytest.approx(1.0)
    assert DetectorModel(det, 1e-3).estimate(1.5e4) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        DetectorModel(det, 1e-3).estimate(4e4)


def test_detection_poisson_converges_to_rate():
    det = DetectionConfig(max_rate=3e4, rc=0.1, noise=POISSON, seed=5)
    dt = 1e-3
    model = DetectorModel(det, dt)
    rate = 1.2e4
    for _ in range(int(50 * det.rc / dt)):  # 50 time constants
        est = model.estimate(rate)
    # stationary filtered-shot-noise variance:
    # Var = alpha/(2-alpha) * rate/(dt * max_rate^2)
    alpha = 1.0 - math.exp(-dt / det.rc)
    sigma = math.sqrt(alpha / (2 - alpha) * rate / (dt * det.max_rate**2))
    assert abs(est - rate / det.max_rate) < 3 * sigma


def test_detection_poisson_empirical_variance():
    det = DetectionConfig(max_rate=3e4, rc=0.05, noise=POISSON, seed=11)
    dt = 1e-3
    model = DetectorModel(det, dt)
    rate = 2.0e4
    values = []
    for k in range(60000):
        est = model.estimate(rate)
        if k > 2000:
            values.append(est)
    alpha = 1.0 - math.exp(-dt / det.rc)
    predicted = alpha / (2 - alpha) * rate / (dt * det.max_rate**2)
    measured = float(np.var(values))
    assert measured == pytest.approx(predicted, rel=0.2)


def test_detection_poisson_reproducible():
    def run():
        model = DetectorModel(DetectionConfig(noise=POISSON, seed=99), 1e-3)
        return [model.estimate(1e4) for _ in range(100)]

    assert run() == run()


def test_poisson_loop_counts_and_orbit_rms():
    noiseless = windowed_run(1.0).steady()
    noisy_trace = windowed_run(1.0, noise=POISSON, seed=3)
    noisy = noisy_trace.steady()
    assert rms(noisy.n_out, noiseless.n_out) <= 0.06
    assert rms(noisy.n_out, hf_reference(noisy.n_in)) <= 0.06
    counts = noisy_trace.meta["mean_counts_per_rc_window"]
    assert 100 <= counts <= 1500  # a few hundred per estimate


# ---------------------------------------------------------------------------
# low-pass (phase-shifter) memristance

def test_lpf_loop_slow_drive_is_nonlinear_resistor():
    f_cut = 4.62
    drive = DriveConfig(T_osc=10.0, n_periods=2)  # f_osc = 0.1 Hz
    trace = run_lpf_loop(drive, f_cut, DetectionConfig()).steady()
    assert rms(trace.n_out, lf_reference(trace.n_in)) <= 0.03


def test_lpf_loop_fast_drive_is_linear():
    f_cut = 4.62
    f_osc = 20 * f_cut
    drive = DriveConfig(T_osc=1.0 / f_osc, n_periods=30)
    trace = run_lpf_loop(drive, f_cut, DetectionConfig(rc=1e-4)).steady(10)
    assert rms(trace.n_out, hf_reference(trace.n_in)) <= 0.02


def test_lpf_loop_pinched_near_cutoff():
    f_cut = 4.62
    for f_osc in (0.1, 1.0, 4.62, 10.0):
        drive = DriveConfig(T_osc=1.0 / f_osc, n_periods=3)
        trace = run_lpf_loop(drive, f_cut, DetectionConfig(rc=1e-3))
        small = trace.n_in <= 0.02
        assert np.all(trace.n_out[small] <= 0.02)


def test_lpf_loop_open_lobe_at_cutoff():
    f_cut = 4.62
    drive = DriveConfig(T_osc=1.0 / f_cut, n_periods=4)
    trace = run_lpf_loop(drive, f_cut, DetectionConfig(rc=1e-3)).steady(2)
    assert trace.orbit_area() > 0.02  # genuinely open hysteresis lobe


# ---------------------------------------------------------------------------
# regimes and trace utilities

@pytest.mark.parametrize("law", [WINDOWED, FROZEN, LOWPASS])
@pytest.mark.parametrize("noise", [EXACT, POISSON])
def test_each_step_calls_estimate_and_advance_once(monkeypatch, law, noise):
    """The loop reaches the detector and the memristor through their
    class attributes, one estimate and one advance per step, and advance
    returns the state: a wrapper installed on those attributes sees
    every step."""
    calls = {"estimate": 0, "advance": 0}
    estimate, advance = DetectorModel.estimate, MemristorState.advance

    def spy_estimate(self, true_rate):
        calls["estimate"] += 1
        return estimate(self, true_rate)

    def spy_advance(self, t, n_in):
        calls["advance"] += 1
        state = advance(self, t, n_in)
        assert state is self
        return state

    monkeypatch.setattr(DetectorModel, "estimate", spy_estimate)
    monkeypatch.setattr(MemristorState, "advance", spy_advance)
    drive = DriveConfig(T_osc=T_OSC, n_periods=2)
    det = DetectionConfig(noise=noise, seed=3, rc=0.05)
    if law == LOWPASS:
        trace = run_lpf_loop(drive, 2.0, det)
    else:
        mem = MemristorState(0.5, window_seconds=0.4 * T_OSC
                             if law == WINDOWED else None)
        trace = run_closed_loop(drive, mem, det)
    steps = drive.n_periods * drive.steps_per_period
    assert len(trace) == steps
    assert calls == {"estimate": steps, "advance": steps}


def test_classify_regime():
    assert classify_regime(0.1, 10.0) == LOW_FREQ
    assert classify_regime(10.0, 10.0) == HIGH_FREQ
    assert classify_regime(3.0, 10.0) == INTERMEDIATE
    assert classify_regime(0.5, 10.0) == LOW_FREQ
    with pytest.raises(ValueError):
        classify_regime(-1.0, 10.0)


def test_steady_drops_whole_periods_and_rejects_others():
    trace = windowed_run(0.2)  # 2 periods of T_OSC
    assert np.array_equal(trace.steady(0).t, trace.t)
    spp = trace.meta["steps_per_period"]
    assert np.array_equal(trace.steady(np.int64(1)).t, trace.t[spp:])
    for warmup in (-1, 2, 1.5, True, None):
        with pytest.raises(ValueError, match="warmup_periods"):
            trace.steady(warmup)


def test_trace_csv_roundtrip(tmp_path):
    """The CSV is the header t,n_in,n_out,R, then one row per step with
    every value as "%.12g", each line ended by "\r\n": for a run's trace
    (the text of t and n_in kept from its drive; a period of pi gives t
    more than 12 significant digits), a steady slice of it, the same
    columns in a hand-built trace, signed zeros and non-finite values,
    and no rows.  numpy reads it back."""
    drive = DriveConfig(T_osc=math.pi, n_periods=2)
    mem = MemristorState(0.5, window_seconds=0.2 * math.pi)
    trace = run_closed_loop(drive, mem,
                            DetectionConfig(noise=POISSON, seed=3, rc=0.1))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    rows = np.genfromtxt(path, delimiter=",", names=True)
    assert rows.shape[0] == len(trace)
    assert np.allclose(rows["n_out"], trace.n_out, atol=1e-10)
    meta_path = tmp_path / "trace.json"
    trace.write_meta(meta_path)
    assert meta_path.read_text().startswith("{")
    odd = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1 / 3])
    cases = [trace, trace.steady(1),
             Trace(trace.t, trace.n_in, trace.n_out, trace.R),
             Trace(odd, odd[::-1], -odd, odd), Trace(*[np.empty(0)] * 4)]
    for k, case in enumerate(cases):
        path = tmp_path / f"case{k}.csv"
        case.write_csv(path)
        header, *lines, end = path.read_bytes().decode().split("\r\n")
        assert (header, end) == ("t,n_in,n_out,R", "")
        columns = (case.t, case.n_in, case.n_out, case.R)
        assert [line.split(",") for line in lines] == [
            ["%.12g" % v for v in row]
            for row in zip(*(c.tolist() for c in columns))]


@settings(max_examples=40, deadline=None)
@given(T_osc=st.floats(0.5, 20.0),
       steps_per_period=st.one_of(st.none(), st.integers(200, 500)),
       n_periods=st.integers(1, 3), ratio=st.floats(0.02, 1.5),
       rc_fraction=st.floats(0.01, 0.9), seed=st.integers(0, 2**32 - 1),
       law=st.sampled_from([WINDOWED, LOWPASS, FROZEN]),
       noise=st.sampled_from([EXACT, POISSON]))
def test_closed_loop_matches_reference(T_osc, steps_per_period, n_periods,
                                       ratio, rc_fraction, seed, law, noise):
    """Runs on a shared drive (its samples computed once) equal the loop
    that recomputes the drive every step and keeps every pulse count:
    arrays bit for bit and meta exactly."""
    dt = None if steps_per_period is None else T_osc / steps_per_period
    drive = DriveConfig(T_osc=T_osc, n_periods=n_periods, dt=dt)
    window = ratio * T_osc
    det = DetectionConfig(rc=rc_fraction * window, noise=noise, seed=seed)

    def run(reference):
        if law == LOWPASS:
            if reference:
                mem = MemristorState(0.0, f_cut=1.0 / window)
                return reference_device.run_loop(drive, mem, det)
            return run_lpf_loop(drive, 1.0 / window, det)
        mem = MemristorState(0.5, window_seconds=window
                             if law == WINDOWED else None)
        if reference:
            return reference_device.run_loop(drive, mem, det)
        return run_closed_loop(drive, mem, det)

    want = run(reference=True)
    gots = [run(reference=False), run(reference=False)]
    if law == LOWPASS:  # run_closed_loop on a low-pass memristor of its own
        mem = MemristorState(0.0, f_cut=1.0 / window)
        gots.append(run_closed_loop(drive, mem, det))
    for got in gots:
        for column in ("t", "n_in", "n_out", "R"):
            assert np.array_equal(getattr(got, column),
                                  getattr(want, column)), column
        assert got.meta == want.meta


@pytest.mark.parametrize("writer", ["write_csv", "write_meta"])
def test_failed_trace_write_leaves_no_partial_or_temp_file(
        tmp_path, monkeypatch, writer):
    trace = windowed_run(0.2, n_periods=1)
    kept = tmp_path / "kept.out"
    kept.write_text("old")
    fresh = tmp_path / "fresh.out"

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(_atomic.os, "replace", fail)
    for path in (kept, fresh):
        with pytest.raises(OSError):
            getattr(trace, writer)(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.out"]
    assert kept.read_text() == "old"
