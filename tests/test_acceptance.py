"""Acceptance gate: one test per release criterion, each at its stated
tolerance, printing a PASS/FAIL summary line (run with -v -s to see
them).  Known-unattainable sub-checks are asserted faithfully and
marked strict-xfail with the reason; see README "Known model notes".
"""

import math
import os
import time

import numpy as np
import pytest

from qumem.fock import enumerate_basis, lift_unitary, purity
from qumem.hysteresis import (
    DetectionConfig,
    DriveConfig,
    hf_reference,
    lf_reference,
    rms,
    run_closed_loop,
    run_lpf_loop,
)
from qumem.memristor import (
    MemristorState,
    QubitInput,
    output_state_dual_rail,
    output_state_single_rail,
)
from qumem.readout import (
    ReadoutModel,
    build_entanglement_dataset,
    image_features,
    load_mnist,
    loss_and_gradients,
    standardize,
    state_features,
    to_readout_features,
    train,
)
from qumem.reservoir import Reservoir, ReservoirConfig
from qumem.tomography import reconstruction_roundtrip, reference_table, table_fixtures

DATA_DIR = os.environ.get("QUMEM_DATA_DIR")
HAS_MNIST = bool(DATA_DIR) and all(
    os.path.exists(os.path.join(DATA_DIR, name))
    for name in (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    )
)
MNIST_SKIP = (
    "MNIST IDX files not found: point QUMEM_DATA_DIR at a directory with "
    "the four standard files to run this criterion"
)


def report(criterion, ok, detail):
    print(f"\n[acceptance] criterion {criterion}: "
          f"{'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. purity identities on a 101x101 grid (< 1 s)

def _grids():
    beta2, refl = np.meshgrid(np.linspace(0, 1, 101), np.linspace(0, 1, 101),
                              indexing="ij")
    return beta2.ravel(), refl.ravel()


def _single_rail_purity_brute(beta2, refl):
    a2 = 1.0 - beta2
    d0 = a2 + beta2 * refl
    d1 = beta2 * (1.0 - refl)
    off2 = a2 * beta2 * (1.0 - refl)
    return d0**2 + d1**2 + 2 * off2


def _dual_rail_purity_brute(beta2, refl):
    a2 = 1.0 - beta2
    off2 = a2 * beta2 * (1.0 - refl)
    return (beta2 * refl) ** 2 + a2**2 + (beta2 * (1 - refl)) ** 2 + 2 * off2


def test_criterion_1_single_rail_purity_identity():
    start = time.time()
    beta2, refl = _grids()
    closed = 1.0 - 2.0 * beta2**2 * refl * (1.0 - refl)
    dev_single = np.max(np.abs(_single_rail_purity_brute(beta2, refl) - closed))
    dev_dual_true = np.max(np.abs(
        _dual_rail_purity_brute(beta2, refl)
        - (closed - 2.0 * (1.0 - beta2) * beta2 * refl)
    ))
    elapsed = time.time() - start
    ok = dev_single < 1e-12 and dev_dual_true < 1e-12 and elapsed < 1.0
    report("1", ok,
           f"two-level identity dev {dev_single:.1e}, three-level closed "
           f"form dev {dev_dual_true:.1e}, {elapsed:.2f} s")
    assert dev_single < 1e-12
    assert dev_dual_true < 1e-12
    assert elapsed < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="the three-level output state carries an extra incoherent "
    "branch: Tr(rho^2) = 1 - 2 b^2 R(1-R) - 2 a b R, which differs from "
    "the two-level closed form everywhere a*b*R > 0; the claimed shared "
    "identity is mathematically false (see README, Known model notes)",
)
def test_criterion_1_dual_rail_claimed_identity():
    beta2, refl = _grids()
    closed = 1.0 - 2.0 * beta2**2 * refl * (1.0 - refl)
    dev = np.max(np.abs(_dual_rail_purity_brute(beta2, refl) - closed))
    report("1 (three-level equality claim)", dev < 1e-12,
           f"max deviation {dev:.3f} (peaks at 2*a*b*R)")
    assert dev < 1e-12


def test_criterion_1_matrix_forms_match_closed_forms():
    # the brute-force expressions above are themselves validated against
    # the matrices on a coarser grid (the 101x101 scalar sweep stays <1s)
    for beta2 in np.linspace(0, 1, 11):
        for refl in np.linspace(0, 1, 11):
            q = QubitInput.from_beta2(beta2)
            assert purity(output_state_single_rail(q, refl)) == pytest.approx(
                _single_rail_purity_brute(beta2, refl), abs=1e-12)
            assert purity(output_state_dual_rail(q, refl)) == pytest.approx(
                _dual_rail_purity_brute(beta2, refl), abs=1e-12)


# ---------------------------------------------------------------------------
# 2. characterisation fixtures and tomography round trip (< 10 s)

def test_criterion_2_fixtures_and_roundtrip():
    start = time.time()
    ref = reference_table()
    fixtures = table_fixtures()
    worst_dev = 0.0
    for fx, row in zip(fixtures, ref):
        worst_dev = max(
            worst_dev,
            np.max(np.abs(fx.rho.real - row["rho_theory"].real)),
            np.max(np.abs(fx.rho.imag - row["rho_theory"].imag)),
        )
    worst_fid = 1.0
    for fx in fixtures:
        rep = reconstruction_roundtrip(fx.beta2, fx.reflectivity, shots=None)
        worst_fid = min(worst_fid, rep.fidelity_to_theory)
    rep = reconstruction_roundtrip(0.3, 0.7, shots=None)
    elapsed = time.time() - start
    ok = worst_dev < 0.005 and worst_fid >= 0.999 and abs(rep.purity - 0.67) <= 0.005
    report("2", ok,
           f"16 matrices within {worst_dev:.4f}, worst round-trip fidelity "
           f"{worst_fid:.5f}, purity(0.3,0.7) = {rep.purity:.4f}, "
           f"{elapsed:.1f} s")
    assert worst_dev < 0.005
    assert worst_fid >= 0.999
    assert rep.purity == pytest.approx(0.67, abs=0.005)
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. hysteresis limits (< 30 s)

def _noiseless_panel(ratio, t_osc=10.0):
    drive = DriveConfig(T_osc=t_osc, n_periods=2)
    mem = MemristorState(0.5, window_seconds=ratio * t_osc)
    return run_closed_loop(drive, mem, DetectionConfig())


def test_criterion_3_hysteresis_limits():
    start = time.time()
    lf = _noiseless_panel(0.01).steady()
    lf_rms = rms(lf.n_out, lf_reference(lf.n_in))
    hf = _noiseless_panel(1.0).steady()
    hf_rms = rms(hf.n_out, hf_reference(hf.n_in))
    pinched = True
    for ratio in (0.05, 0.2, 0.4, 0.6, 0.8):
        tr = _noiseless_panel(ratio)
        small = tr.n_in <= 0.02
        pinched &= bool(np.all(tr.n_out[small] <= 0.02))
    elapsed = time.time() - start
    ok = lf_rms <= 0.02 and hf_rms <= 0.02 and pinched and elapsed < 30
    report("3", ok,
           f"LF rms {lf_rms:.4f}, HF rms {hf_rms:.4f}, pinched {pinched}, "
           f"{elapsed:.1f} s")
    assert lf_rms <= 0.02
    assert hf_rms <= 0.02
    assert pinched
    assert elapsed < 30


# ---------------------------------------------------------------------------
# 4. detection-noise realism (< 1 min)

def test_criterion_4_poisson_realism():
    start = time.time()
    worst = 0.0
    counts_seen = []
    for ratio in (0.2, 0.6, 1.0):
        clean = _noiseless_panel(ratio).steady()
        drive = DriveConfig(T_osc=10.0, n_periods=2)
        mem = MemristorState(0.5, window_seconds=ratio * 10.0)
        det = DetectionConfig(max_rate=3.0e4, rc=0.1, noise="poisson", seed=8)
        noisy_trace = run_closed_loop(drive, mem, det)
        noisy = noisy_trace.steady()
        worst = max(worst, rms(noisy.n_out, clean.n_out))
        counts_seen.append(noisy_trace.meta["mean_counts_per_rc_window"])
    mean_counts = float(np.mean(counts_seen))
    elapsed = time.time() - start
    ok = worst <= 0.06 and 100 <= mean_counts <= 1500 and elapsed < 60
    report("4", ok,
           f"worst orbit rms vs noiseless {worst:.4f} (3x0.02 allowed), "
           f"mean counts per RC window {mean_counts:.0f}, {elapsed:.1f} s")
    assert worst <= 0.06
    assert 100 <= mean_counts <= 1500
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 5. low-pass memristance (< 30 s)

def test_criterion_5_lowpass_memristance():
    start = time.time()
    f_cut = 4.62
    pinched = True
    for f_osc in (0.1, 1.0, 4.62, 10.0):
        periods = 3 if f_osc >= 1.0 else 2
        drive = DriveConfig(T_osc=1.0 / f_osc, n_periods=periods)
        trace = run_lpf_loop(drive, f_cut, DetectionConfig(rc=1e-3))
        small = trace.n_in <= 0.02
        pinched &= bool(np.all(trace.n_out[small] <= 0.02))
    slow = run_lpf_loop(DriveConfig(T_osc=10.0, n_periods=2), f_cut,
                        DetectionConfig()).steady()
    slow_rms = rms(slow.n_out, lf_reference(slow.n_in))
    elapsed = time.time() - start
    ok = pinched and slow_rms <= 0.03 and elapsed < 30
    report("5", ok,
           f"pinched at all drive frequencies {pinched}, slow-drive rms "
           f"{slow_rms:.4f}, {elapsed:.1f} s")
    assert pinched
    assert slow_rms <= 0.03
    assert elapsed < 30


# ---------------------------------------------------------------------------
# 6. reservoir-computing task bands (<= 30 min total)

def _rc_reservoir(feedback=True, window=12, seed=0):
    return Reservoir(ReservoirConfig(modes=9, photons=3, mesh_seed=2021,
                                     window=window, feedback=feedback,
                                     sample_seed=seed))


def _mnist_band(encoding, feedback):
    subset = load_mnist(DATA_DIR, (0, 3, 8), 1000, 1000, seed=0)
    res = _rc_reservoir(feedback=feedback)
    x_train, x_test = standardize(
        to_readout_features(image_features(res, subset.train_images, encoding)),
        to_readout_features(image_features(res, subset.test_images, encoding)))
    model = ReadoutModel.initialize(165, 10, 3, seed=0)
    result = train(model, (x_train, subset.train_labels), epochs=15, lr=0.05,
                   seed=0, test_data=(x_test, subset.test_labels))
    return result.test_accuracy


@pytest.mark.skipif(not HAS_MNIST, reason=MNIST_SKIP)
def test_criterion_6_mnist_quantum_feedback():
    acc = _mnist_band("quantum", True)
    report("6 (digits, quantum)", acc >= 0.90, f"test accuracy {acc:.3f}")
    assert acc >= 0.90


@pytest.mark.skipif(not HAS_MNIST, reason=MNIST_SKIP)
def test_criterion_6_mnist_coherent_baseline():
    acc_q = _mnist_band("quantum", True)
    acc_c = _mnist_band("coherent", True)
    ok = 0.55 <= acc_c <= 0.85 and acc_q - acc_c >= 0.10
    report("6 (digits, coherent)", ok,
           f"coherent {acc_c:.3f}, quantum {acc_q:.3f}")
    assert 0.55 <= acc_c <= 0.85
    assert acc_q - acc_c >= 0.10


@pytest.mark.skipif(not HAS_MNIST, reason=MNIST_SKIP)
def test_criterion_6_mnist_feedback_off():
    acc = _mnist_band("quantum", False)
    report("6 (digits, feedback off)", 0.25 <= acc <= 0.45,
           f"test accuracy {acc:.3f}")
    assert 0.25 <= acc <= 0.45


def _entanglement_accuracy(n_per_class=500, copies=100, d_loc=12):
    res = _rc_reservoir(window=copies)
    tr_states, tr_y = build_entanglement_dataset(n_per_class, d_loc, seed=0,
                                                 basis=res.basis)
    te_states, te_y = build_entanglement_dataset(n_per_class, d_loc, seed=1,
                                                 basis=res.basis)
    x_train, x_test = standardize(
        to_readout_features(state_features(res, tr_states, copies=copies)),
        to_readout_features(state_features(res, te_states, copies=copies)))
    model = ReadoutModel.initialize(165, 10, 2, seed=0)
    result = train(model, (x_train, tr_y), epochs=15, lr=0.05, seed=0,
                   test_data=(x_test, te_y))
    return result.test_accuracy


@pytest.mark.xfail(
    strict=True,
    reason="both state ensembles share the same mean density matrix "
    "(I/d on the embedded subspace), so every linear functional of the "
    "measured distribution has identical class means; only the memristor "
    "feedback contributes (quadratic, Haar-concentration-suppressed) "
    "differences, and the measured ceiling is ~0.5-0.8 for linear and "
    "even quadratic readouts across local dimensions and meshes "
    "(see README, Known model notes)",
)
def test_criterion_6_entanglement_detection():
    acc = _entanglement_accuracy()
    report("6 (entanglement)", acc >= 0.90,
           f"test accuracy {acc:.3f} (band >= 0.90)")
    assert acc >= 0.90


def test_criterion_6_entanglement_class_means_coincide():
    # executable form of the blocking analysis: the two ensembles are
    # indistinguishable in feature means (the reservoir map is linear in
    # the input state for fixed reflectivities)
    res = _rc_reservoir(feedback=False, window=100)
    states, labels = build_entanglement_dataset(150, 12, seed=5,
                                                basis=res.basis)
    feats = state_features(res, states, copies=1)
    mu_sep = feats[labels == 0].mean(axis=0)
    mu_ent = feats[labels == 1].mean(axis=0)
    gap = np.linalg.norm(mu_ent - mu_sep)
    spread = np.linalg.norm(feats.std(axis=0)) / math.sqrt(150)
    report("6 (class-mean analysis)", gap < 3 * spread,
           f"class-mean gap {gap:.2e} vs sampling noise {spread:.2e}")
    assert gap < 3 * spread


# ---------------------------------------------------------------------------
# 7. lifting vs brute-force symmetric-tensor oracle (< 10 s)

def test_criterion_7_oracle_equivalence():
    from test_fock import brute_force_lift, haar_unitary

    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        for m in (2, 3):
            u = haar_unitary(m, rng)
            for p in (1, 2):
                basis = enumerate_basis(m, p)
                dev = np.max(np.abs(
                    lift_unitary(u, basis) - brute_force_lift(u, basis)
                ))
                worst = max(worst, dev)
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 10
    report("7", ok, f"worst deviation {worst:.2e} over 50 unitaries, "
                    f"{elapsed:.1f} s")
    assert worst < 1e-10
    assert elapsed < 10


# ---------------------------------------------------------------------------
# 8. readout gradient check (< 10 s)

def test_criterion_8_gradient_check():
    start = time.time()
    rng = np.random.default_rng(77)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        model = ReadoutModel(
            rng.normal(size=(6, 4)), rng.normal(size=(4, 3))
        )
        x = rng.uniform(size=(4, 6))
        y = rng.integers(0, 3, size=4)
        _, dw1, dw2 = loss_and_gradients(model, x, y)
        for mat, grad in ((model.w1, dw1), (model.w2, dw2)):
            idx = (rng.integers(mat.shape[0]), rng.integers(mat.shape[1]))
            orig = mat[idx]
            mat[idx] = orig + h
            up = loss_and_gradients(model, x, y)[0]
            mat[idx] = orig - h
            dn = loss_and_gradients(model, x, y)[0]
            mat[idx] = orig
            numeric = (up - dn) / (2 * h)
            scale = max(abs(numeric), abs(grad[idx]), 1e-8)
            worst = max(worst, abs(numeric - grad[idx]) / scale)
    elapsed = time.time() - start
    ok = worst <= 1e-5 and elapsed < 10
    report("8", ok, f"max relative gradient error {worst:.2e}, "
                    f"{elapsed:.1f} s")
    assert worst <= 1e-5
    assert elapsed < 10
