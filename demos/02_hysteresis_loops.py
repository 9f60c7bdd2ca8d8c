"""Reproduce the pinched-hysteresis characterisation of the device.

Runs the closed feedback loop for a range of integration windows at a
10 s drive period, plus the low-pass (phase-shifter-limited) variant
and a Poisson photon-counting run, and reports how each orbit compares
with the two analytic limits:

    low frequency:   n_out = n_in - n_in^2   (nonlinear resistor)
    high frequency:  n_out = 0.5 n_in        (linear resistor)

Writes one CSV per orbit next to this script (PNG when matplotlib is
available).
"""

from pathlib import Path

from qumem.hysteresis import (
    DetectionConfig,
    DriveConfig,
    classify_regime,
    hf_reference,
    lf_reference,
    rms,
    run_closed_loop,
    run_lpf_loop,
)
from qumem.memristor import MemristorState

OUT = Path(__file__).resolve().parent
T_OSC = 10.0
RATIOS = (0.01, 0.05, 0.2, 0.4, 0.6, 0.8, 1.0)


def main():
    print("=== windowed-integrator feedback, T_osc = 10 s ===")
    traces = {}
    for ratio in RATIOS:
        drive = DriveConfig(T_osc=T_OSC, n_periods=2)
        mem = MemristorState(0.5, window_seconds=ratio * T_OSC)
        trace = run_closed_loop(drive, mem, DetectionConfig())
        steady = trace.steady()
        traces[ratio] = steady
        trace.write_csv(OUT / f"orbit_T{ratio:g}.csv")
        print(f"  T/T_osc = {ratio:4.2f} [{classify_regime(ratio * T_OSC, T_OSC):>12}]"
              f"  rms vs LF limit {rms(steady.n_out, lf_reference(steady.n_in)):.3f}"
              f"  vs HF limit {rms(steady.n_out, hf_reference(steady.n_in)):.3f}"
              f"  lobe area {steady.orbit_area():.4f}")

    print("\n=== low-pass (phase-shifter) memristance, f_cut = 4.62 Hz ===")
    for f_osc in (0.1, 1.0, 4.62, 10.0):
        drive = DriveConfig(T_osc=1.0 / f_osc, n_periods=3)
        trace = run_lpf_loop(drive, 4.62, DetectionConfig(rc=1e-3))
        steady = trace.steady()
        trace.write_csv(OUT / f"orbit_lpf_{f_osc:g}Hz.csv")
        print(f"  f_osc = {f_osc:5.2f} Hz  rms vs LF {rms(steady.n_out, lf_reference(steady.n_in)):.3f}"
              f"  vs HF {rms(steady.n_out, hf_reference(steady.n_in)):.3f}"
              f"  lobe area {steady.orbit_area():.4f}")

    print("\n=== photon-counting noise (3e4 counts/s, RC = 100 ms) ===")
    drive = DriveConfig(T_osc=T_OSC, n_periods=2)
    mem = MemristorState(0.5, window_seconds=T_OSC)
    det = DetectionConfig(noise="poisson", seed=1)
    noisy = run_closed_loop(drive, mem, det)
    steady = noisy.steady()
    noisy.write_csv(OUT / "orbit_poisson.csv")
    print(f"  mean counts per RC window: "
          f"{noisy.meta['mean_counts_per_rc_window']:.0f}")
    print(f"  rms vs noiseless HF line: "
          f"{rms(steady.n_out, hf_reference(steady.n_in)):.4f}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, axes = plt.subplots(2, 4, figsize=(13, 6), sharex=True,
                                 sharey=True)
        for ax, ratio in zip(axes.ravel(), RATIOS):
            tr = traces[ratio]
            ax.plot(tr.n_in, tr.n_out, lw=1.0, label=f"T/T_osc={ratio:g}")
            ax.plot(tr.n_in, lf_reference(tr.n_in), "--", lw=0.8)
            ax.plot(tr.n_in, hf_reference(tr.n_in), ":", lw=0.8)
            ax.set_title(f"T/T_osc = {ratio:g}")
        axes.ravel()[-1].plot(steady.n_in, steady.n_out, lw=0.6)
        axes.ravel()[-1].set_title("Poisson, T = T_osc")
        for ax in axes[-1]:
            ax.set_xlabel(r"$\langle n_{in} \rangle$")
        for ax in axes[:, 0]:
            ax.set_ylabel(r"$\langle n_{out} \rangle$")
        fig.tight_layout()
        fig.savefig(OUT / "hysteresis_panels.png", dpi=150)
        print(f"wrote {OUT / 'hysteresis_panels.png'}")
    except ImportError:
        print("matplotlib not available; skipped the PNG")


if __name__ == "__main__":
    main()
